//! Bounded lock-free single-producer/single-consumer channels for
//! cross-shard event transport.
//!
//! The sharded engine wires one [`ShardChannel`] per (source shard,
//! destination shard) pair: exactly one thread ever pushes and exactly
//! one thread ever drains a given channel, so a classic SPSC ring with
//! acquire/release head/tail indices is sufficient — no CAS loops, no
//! spinning (which would be pathological on oversubscribed hosts where
//! worker threads share cores). When a window produces more cross-shard
//! events than the ring holds, the excess overflows into a mutex-guarded
//! spill vector instead of blocking: conservative windows drain every
//! channel at the next barrier, so the spill stays cold and correctness
//! never depends on ring capacity.
//!
//! Delivery order across the channel is whatever the producer pushed —
//! the consumer re-keys everything into its calendar queue by
//! `(time, key)`, so transport order is deliberately irrelevant to the
//! simulation outcome.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default ring capacity per shard pair; sized for the largest window
/// burst the collective workloads produce without measurable memory
/// cost (a few KiB per pair).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// A bounded SPSC ring with a mutex spill for overflow.
pub struct ShardChannel<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Written by the consumer only.
    head: AtomicUsize,
    /// Next slot the producer will write. Written by the producer only.
    tail: AtomicUsize,
    /// Overflow beyond the ring; drained after the ring each sweep.
    spill: Mutex<Vec<T>>,
    /// Events that took the spill path (capacity-pressure telemetry).
    spilled: AtomicUsize,
}

// SAFETY: the ring hands each `T` from exactly one producer thread to
// exactly one consumer thread; slot publication is ordered by the
// release store of `tail` and the acquire load in `drain_into` (and
// symmetrically for `head` reuse). `T: Send` is all that transfer needs.
unsafe impl<T: Send> Send for ShardChannel<T> {}
unsafe impl<T: Send> Sync for ShardChannel<T> {}

impl<T> ShardChannel<T> {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        ShardChannel {
            buf: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            spill: Mutex::new(Vec::new()),
            spilled: AtomicUsize::new(0),
        }
    }

    /// Enqueue from the owning producer thread. Never blocks: a full
    /// ring overflows into the spill vector.
    pub fn push(&self, value: T) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            self.spilled.fetch_add(1, Ordering::Relaxed);
            self.spill.lock().unwrap().push(value);
            return;
        }
        // SAFETY: `head <= tail - cap` was just excluded, so slot
        // `tail & mask` is not under the consumer; only this producer
        // writes slots at `tail`.
        unsafe {
            (*self.buf[tail & self.mask].get()).write(value);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
    }

    /// Enqueue a whole window's worth of events from the owning producer
    /// thread in one publication: one acquire load of `head`, slot
    /// writes for everything that fits, and a *single* release store of
    /// `tail` — versus one release store per event through [`push`].
    /// Overflow moves into the spill vector under one lock acquisition.
    /// `items` is drained (left empty, capacity retained) so the caller
    /// can reuse its outbound buffer allocation every window.
    ///
    /// [`push`]: ShardChannel::push
    pub fn push_batch(&self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let room = (self.mask + 1) - tail.wrapping_sub(head);
        let fit = items.len().min(room);
        if fit < items.len() {
            self.spilled.fetch_add(items.len() - fit, Ordering::Relaxed);
            let mut spill = self.spill.lock().unwrap();
            spill.extend(items.drain(fit..));
        }
        for (i, value) in items.drain(..).enumerate() {
            // SAFETY: slots `tail..tail+fit` are vacant (the `room`
            // check above excludes the consumer), and only this producer
            // writes at `tail`.
            unsafe {
                (*self.buf[tail.wrapping_add(i) & self.mask].get()).write(value);
            }
        }
        self.tail.store(tail.wrapping_add(fit), Ordering::Release);
    }

    /// Drain everything currently in the channel into `out`, from the
    /// owning consumer thread. Returns the number of events moved.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let n = tail.wrapping_sub(head);
        out.reserve(n);
        for i in 0..n {
            // SAFETY: slots `head..tail` were published by the producer's
            // release store of `tail`; only this consumer reads them, and
            // `head` is not advanced until after the reads.
            let v = unsafe { (*self.buf[(head.wrapping_add(i)) & self.mask].get()).assume_init_read() };
            out.push(v);
        }
        self.head.store(tail, Ordering::Release);
        let mut spill = self.spill.lock().unwrap();
        let spilled = spill.len();
        out.append(&mut spill);
        n + spilled
    }

    /// Events that overflowed the ring into the spill path so far.
    pub fn spilled(&self) -> usize {
        self.spilled.load(Ordering::Relaxed)
    }
}

impl<T> Default for ShardChannel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for ShardChannel<T> {
    fn drop(&mut self) {
        // Drop any undelivered ring occupants exactly once.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            unsafe {
                (*self.buf[i & self.mask].get()).assume_init_drop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip_preserves_content() {
        let ch = ShardChannel::with_capacity(8);
        for i in 0..5 {
            ch.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(ch.drain_into(&mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_spills_instead_of_blocking() {
        let ch = ShardChannel::with_capacity(4);
        for i in 0..20 {
            ch.push(i);
        }
        assert!(ch.spilled() > 0);
        let mut out = Vec::new();
        assert_eq!(ch.drain_into(&mut out), 20);
        out.sort_unstable();
        assert_eq!(out, (0..20).collect::<Vec<_>>());
        // Channel is reusable after a drain.
        ch.push(99);
        let mut out = Vec::new();
        assert_eq!(ch.drain_into(&mut out), 1);
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn push_batch_roundtrips_and_reuses_buffer() {
        let ch = ShardChannel::with_capacity(8);
        let mut batch: Vec<i32> = (0..5).collect();
        let cap_before = batch.capacity();
        ch.push_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), cap_before, "buffer must be reusable");
        let mut out = Vec::new();
        assert_eq!(ch.drain_into(&mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn push_batch_overflow_spills_the_excess() {
        let ch = ShardChannel::with_capacity(4);
        let mut batch: Vec<i32> = (0..11).collect();
        ch.push_batch(&mut batch);
        assert_eq!(ch.spilled(), 7); // ring holds 4
        let mut out = Vec::new();
        assert_eq!(ch.drain_into(&mut out), 11);
        out.sort_unstable();
        assert_eq!(out, (0..11).collect::<Vec<_>>());
        // Ring slots freed by the drain are reused by the next batch.
        let mut batch: Vec<i32> = (100..103).collect();
        ch.push_batch(&mut batch);
        let mut out = Vec::new();
        assert_eq!(ch.drain_into(&mut out), 3);
        assert_eq!(out, vec![100, 101, 102]);
        assert_eq!(ch.spilled(), 7, "no new spills after drain");
    }

    #[test]
    fn push_batch_cross_thread_transfer_is_complete() {
        let ch = Arc::new(ShardChannel::with_capacity(64));
        let total = 10_000u64;
        let producer = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for chunk in 0..(total / 100) {
                    batch.extend(chunk * 100..(chunk + 1) * 100);
                    ch.push_batch(&mut batch);
                }
            })
        };
        let mut seen = Vec::new();
        while seen.len() < total as usize {
            if ch.drain_into(&mut seen) == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_transfer_is_complete() {
        let ch = Arc::new(ShardChannel::with_capacity(64));
        let total = 10_000u64;
        let producer = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || {
                for i in 0..total {
                    ch.push(i);
                }
            })
        };
        let mut seen = Vec::new();
        while seen.len() < total as usize {
            if ch.drain_into(&mut seen) == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn drop_releases_undelivered_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        DROPS.store(0, Ordering::Relaxed);
        {
            let ch = ShardChannel::with_capacity(4);
            for _ in 0..10 {
                ch.push(D); // 6 of these land in the spill
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 10);
    }
}
