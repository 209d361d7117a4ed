//! Completion queues.
//!
//! Work completes asynchronously; the application learns about it by
//! polling (latency-optimal, burns a core) or blocking (frees the core,
//! pays a wakeup) on a [`CompletionQueue`]. The A3 ablation
//! (`figures -- ablations`) times both and counts [`CompletionQueue::wakeups`].

use crate::error::{NicError, Result};
use crate::types::QpNum;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Completion status, mirroring the interesting subset of IB statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeStatus {
    Success,
    /// Local SGE exceeded its memory region.
    LocalProtectionError,
    /// The remote rkey/bounds check failed.
    RemoteAccessError,
    /// The work request was flushed because the QP entered the error
    /// state before it executed.
    Flushed,
    /// Transport retries exhausted without an ack: the packet (or its
    /// ack) was lost on the wire. Injected by the fabric chaos layer;
    /// the message was *not* delivered.
    RetryExceeded,
    /// The payload arrived but its invariant CRC check failed
    /// (corruption on the wire). Receive-side status; the buffer
    /// contents must not be trusted.
    ChecksumError,
}

/// What kind of work completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeOpcode {
    Send,
    Recv,
    RdmaWrite,
    RdmaRead,
}

/// A completion-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    pub wr_id: u64,
    pub status: CqeStatus,
    pub opcode: CqeOpcode,
    /// Payload bytes moved (valid on success).
    pub byte_len: usize,
    /// Immediate data, if the sender attached any.
    pub imm: Option<u32>,
    /// The local QP this completion belongs to.
    pub qp: QpNum,
}

/// Everything a push or a poll touches, behind one lock.
struct CqState {
    queue: VecDeque<Cqe>,
    /// Latched by a push that found the queue full.
    overflowed: bool,
    /// Number of completions ever delivered (stats / ablations).
    delivered: u64,
    /// Threads parked in [`CompletionQueue::wait_one`] right now.
    sleepers: usize,
    /// Pushes that found a sleeper and signalled the condvar.
    wakeups: u64,
}

struct CqInner {
    state: Mutex<CqState>,
    cond: Condvar,
    capacity: usize,
}

/// A completion queue handle. Cloning shares the queue.
#[derive(Clone)]
pub struct CompletionQueue {
    inner: Arc<CqInner>,
}

impl CompletionQueue {
    /// Create a CQ holding at most `capacity` outstanding completions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CQ capacity must be nonzero");
        CompletionQueue {
            inner: Arc::new(CqInner {
                state: Mutex::new(CqState {
                    queue: VecDeque::with_capacity(capacity.min(1024)),
                    overflowed: false,
                    delivered: 0,
                    sleepers: 0,
                    wakeups: 0,
                }),
                cond: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Push a completion (NIC side). Overflow latches an error that
    /// surfaces on the next poll, as real hardware raises a fatal event.
    ///
    /// The condvar is signalled only when a thread is parked in
    /// `wait_one`: a sleeper registers under the same lock the push
    /// takes, so the push either sees it or the sleeper sees the entry.
    /// `std`'s futex condvar makes a `futex_wake` system call on every
    /// `notify`, sleeper or not, which a polled queue must not pay per
    /// completion.
    pub(crate) fn push(&self, cqe: Cqe) {
        let mut st = self.inner.state.lock().unwrap();
        if st.queue.len() >= self.inner.capacity {
            st.overflowed = true;
            return;
        }
        st.queue.push_back(cqe);
        st.delivered += 1;
        let wake = st.sleepers > 0;
        st.wakeups += u64::from(wake);
        drop(st);
        if wake {
            self.inner.cond.notify_all();
        }
    }

    /// Lock the queue, surfacing a latched overflow.
    fn lock_checked(&self) -> Result<MutexGuard<'_, CqState>> {
        let st = self.inner.state.lock().unwrap();
        if st.overflowed {
            Err(NicError::CqOverflow)
        } else {
            Ok(st)
        }
    }

    /// Non-blocking poll of up to `max` completions.
    pub fn poll(&self, max: usize) -> Result<Vec<Cqe>> {
        let mut out = Vec::new();
        self.poll_into(&mut out, max)?;
        Ok(out)
    }

    /// Non-blocking batched poll of up to `max` completions, appended to
    /// a caller-owned scratch buffer (cleared first). The progress loops
    /// call this every iteration; reusing the buffer keeps steady-state
    /// polling allocation-free. Returns the number of entries reaped.
    pub fn poll_into(&self, out: &mut Vec<Cqe>, max: usize) -> Result<usize> {
        let mut st = self.lock_checked()?;
        out.clear();
        let n = max.min(st.queue.len());
        out.extend(st.queue.drain(..n));
        Ok(n)
    }

    /// Non-blocking poll of a single completion.
    pub(crate) fn poll_one(&self) -> Result<Option<Cqe>> {
        Ok(self.lock_checked()?.queue.pop_front())
    }

    /// Busy-poll until a completion arrives or `timeout` elapses.
    /// This is the latency-optimal mode.
    pub fn spin_one(&self, timeout: Duration) -> Result<Cqe> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(c) = self.poll_one()? {
                return Ok(c);
            }
            if Instant::now() >= deadline {
                return Err(NicError::Timeout);
            }
            std::hint::spin_loop();
        }
    }

    /// Block on a condition variable until a completion arrives or
    /// `timeout` elapses. This is the core-friendly mode.
    pub fn wait_one(&self, timeout: Duration) -> Result<Cqe> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.overflowed {
                return Err(NicError::CqOverflow);
            }
            if let Some(c) = st.queue.pop_front() {
                return Ok(c);
            }
            if Instant::now() >= deadline {
                return Err(NicError::Timeout);
            }
            st.sleepers += 1;
            let left = deadline.saturating_duration_since(Instant::now());
            let (guard, res) = self.inner.cond.wait_timeout(st, left).unwrap();
            st = guard;
            st.sleepers -= 1;
            if res.timed_out() {
                return st.queue.pop_front().ok_or(NicError::Timeout);
            }
        }
    }

    /// Completions currently waiting to be reaped.
    fn depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Total completions ever delivered to this CQ.
    pub fn delivered(&self) -> u64 {
        self.inner.state.lock().unwrap().delivered
    }

    /// How many pushes signalled the condvar because a thread was parked
    /// in [`wait_one`](Self::wait_one). A queue that is only ever polled
    /// reports zero.
    pub fn wakeups(&self) -> u64 {
        self.inner.state.lock().unwrap().wakeups
    }
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("depth", &self.depth())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn cqe(wr_id: u64) -> Cqe {
        Cqe {
            wr_id,
            status: CqeStatus::Success,
            opcode: CqeOpcode::Send,
            byte_len: 0,
            imm: None,
            qp: QpNum(0),
        }
    }

    #[test]
    fn poll_drains_fifo() {
        let cq = CompletionQueue::new(16);
        for i in 0..5 {
            cq.push(cqe(i));
        }
        let got = cq.poll(3).unwrap();
        assert_eq!(got.iter().map(|c| c.wr_id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cq.depth(), 2);
        assert_eq!(cq.poll(10).unwrap().len(), 2);
        assert!(cq.poll_one().unwrap().is_none());
        assert_eq!(cq.delivered(), 5);
    }

    #[test]
    fn poll_into_reuses_buffer_without_realloc() {
        let cq = CompletionQueue::new(64);
        let mut scratch = Vec::with_capacity(32);
        let cap = scratch.capacity();
        for round in 0..10u64 {
            for i in 0..8 {
                cq.push(cqe(round * 8 + i));
            }
            let n = cq.poll_into(&mut scratch, 32).unwrap();
            assert_eq!(n, 8);
            assert_eq!(scratch.len(), 8);
            assert_eq!(scratch[0].wr_id, round * 8);
            assert_eq!(scratch.capacity(), cap, "scratch must not regrow");
        }
    }

    #[test]
    fn overflow_latches_error() {
        let cq = CompletionQueue::new(2);
        cq.push(cqe(0));
        cq.push(cqe(1));
        cq.push(cqe(2)); // lost
        assert_eq!(cq.poll(10), Err(NicError::CqOverflow));
    }

    #[test]
    fn wait_one_wakes_on_push() {
        let cq = CompletionQueue::new(4);
        let cq2 = cq.clone();
        let h = thread::spawn(move || cq2.wait_one(Duration::from_secs(5)).unwrap());
        thread::sleep(Duration::from_millis(20));
        cq.push(cqe(77));
        assert_eq!(h.join().unwrap().wr_id, 77);
    }

    /// A push signals the condvar only when it finds a registered
    /// sleeper, so a lost wake-up would be a hand-off that waits out its
    /// whole timeout. Two threads bounce a token through two queues:
    /// every hand-off is a push on one thread and a `wait_one` on the
    /// other, and the waiter is sometimes parked, sometimes still on its
    /// way in, sometimes already past the queue check.
    #[test]
    fn cross_thread_wait_one_loses_no_wakeup() {
        const HANDOFFS: u64 = 10_000;
        let deadline = Instant::now() + Duration::from_secs(5);
        let left = move || deadline.saturating_duration_since(Instant::now());
        let (ping, pong) = (CompletionQueue::new(4), CompletionQueue::new(4));
        let (ping2, pong2) = (ping.clone(), pong.clone());
        let echo = thread::spawn(move || {
            for i in 0..HANDOFFS {
                assert_eq!(ping2.wait_one(left()).expect("ping").wr_id, i);
                pong2.push(cqe(i));
            }
        });
        for i in 0..HANDOFFS {
            ping.push(cqe(i));
            assert_eq!(pong.wait_one(left()).expect("pong").wr_id, i);
        }
        echo.join().unwrap();
        assert_eq!(ping.delivered() + pong.delivered(), 2 * HANDOFFS);
        let wakeups = ping.wakeups() + pong.wakeups();
        assert!(wakeups > 0, "no push ever found its waiter parked");
        assert!(wakeups <= 2 * HANDOFFS);
    }

    #[test]
    fn polled_queue_never_signals() {
        let cq = CompletionQueue::new(8);
        let mut scratch = Vec::with_capacity(8);
        for i in 0..1000 {
            cq.push(cqe(i));
            assert_eq!(cq.poll_into(&mut scratch, 8).unwrap(), 1);
            cq.push(cqe(i));
            assert!(cq.poll_one().unwrap().is_some());
            cq.push(cqe(i));
            assert!(cq.spin_one(Duration::from_secs(1)).is_ok());
        }
        assert_eq!(cq.delivered(), 3000);
        assert_eq!(cq.wakeups(), 0);
    }

    #[test]
    fn wait_one_reports_a_latched_overflow() {
        let cq = CompletionQueue::new(1);
        cq.push(cqe(0));
        cq.push(cqe(1)); // latches overflow
        assert_eq!(
            cq.wait_one(Duration::from_secs(1)),
            Err(NicError::CqOverflow)
        );
        assert_eq!(cq.poll_one(), Err(NicError::CqOverflow));
    }

    #[test]
    fn wait_one_times_out() {
        let cq = CompletionQueue::new(4);
        let r = cq.wait_one(Duration::from_millis(10));
        assert_eq!(r, Err(NicError::Timeout));
    }

    #[test]
    fn spin_one_sees_completion_from_another_thread() {
        let cq = CompletionQueue::new(4);
        let cq2 = cq.clone();
        let h = thread::spawn(move || cq2.spin_one(Duration::from_secs(5)).unwrap());
        thread::sleep(Duration::from_millis(5));
        cq.push(cqe(5));
        assert_eq!(h.join().unwrap().wr_id, 5);
    }

    #[test]
    fn spin_one_times_out() {
        let cq = CompletionQueue::new(4);
        assert_eq!(
            cq.spin_one(Duration::from_millis(5)),
            Err(NicError::Timeout)
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        CompletionQueue::new(0);
    }
}
