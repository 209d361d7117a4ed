//! Deterministic event queue.
//!
//! The queue is keyed by `(time, sequence)`: the monotonically increasing
//! sequence number breaks same-time ties in insertion order, which makes
//! simulation runs bit-for-bit reproducible regardless of the queue's
//! internals. Two implementations share that contract:
//!
//! * [`EventQueue`] — a calendar queue (rotating bucket wheel over time,
//!   with a far-future spill heap) specialized for the near-monotone
//!   insert pattern of link/switch events. Pushes link into a bucket in
//!   O(1); pops drain one bucket at a time, sorting each small batch by
//!   `(time, seq)` once. Same-timestamp bursts — the common case in
//!   symmetric collectives, where every rank schedules at the same
//!   instant — collapse into a single bucket drained in one sort.
//! * [`reference::HeapQueue`] — the original binary-heap implementation,
//!   kept as the ordering oracle for the determinism property suite
//!   (`tests/event_queue.rs`) and the sentinel `queue-divergence`
//!   oracle.
//!
//! The calendar queue sizes its wheel as Brown's calendar queue (CACM
//! 1988) does: from the gaps events are scheduled with, not from the live
//! population, whose events sit at one or two instants when a
//! collective's ranks run in lockstep. Every push records its delay past
//! the clock in a log2 histogram, and one fit (`fit_to_delays`) sets the
//! bucket width and count from it. Two triggers ask for the fit:
//!
//! * a drained bucket crowded with distinct times, the one trigger a
//!   population growing at distinct times pulls (64 to 65 536 events in
//!   `a_growing_population_keeps_batches_small`: mean batch 15);
//! * more than `max(nbuckets, len)` pushes since the last fit that a heap
//!   took: past the horizon, or behind the cursor with a delay. Counting
//!   only `far`, the 512-rank ring's windows kept 44 % of their pushes
//!   there, and `program_cells`' workload cells, fit at the first pop to
//!   their millisecond compute phases, put up to 99.8 % in `behind`.
//!
//! The wheel is rebuilt only for a fit that narrows the buckets or
//! reaches further, and at most once per `len` pushes: F14's 64-rank
//! shuffle cell on the fat tree rebuilt 161 times on any change of fit,
//! and `spill_refits_are_amortised_over_the_population` reads 34 rebuilds
//! without the `len` guard and 14 with it (bound 81).
//!
//! A push past the horizon pays the far heap's O(log n) push, pop and
//! migration, so the queue is O(1) amortized only for pushes whose
//! delays the wheel covers. The fit leaves the longest sixteenth of them
//! there, at most one bucket per live event: F14's millisecond compute
//! phases among microsecond messages are up to 48 % of its pushes.
//!
//! # The cursor and `behind`
//!
//! An empty queue rebases its cursor onto its clock, the time of the
//! last pop, which no push through the engine's `Scheduler` precedes.
//! So a preload pushed before the first pop, in any order, lands in the
//! wheel or `far`, never behind the cursor. (Rebasing onto the first
//! push instead put every earlier push of F12's 100 k-node preload, and
//! the pushes that followed them, in `behind`: 310 547 of 368 250.)
//!
//! `behind` is a binary heap; a push with a delay that lands there
//! counts toward a re-fit. It should hold only what cannot go anywhere
//! else:
//! * same-instant follow-ups of the batch being drained;
//! * pushes made after `advance` skipped past empty buckets to stage
//!   one ahead of the clock, for times in between (T2's nine runs make
//!   576 such pushes of 55 737);
//! * pushes before the clock, which a `Scheduler` never makes.
//!
//! [`EventQueue::stats`] counts the pushes each container took.
//!
//! # Storage layout
//!
//! Each pending event is stored once, in an arena slot: its key
//! `(time, seq)`, a `u32` list link and its payload (32 bytes for F12's
//! 12-byte `FleetEvent`). The containers name slots by `u32` index:
//!
//! * a wheel bucket is the head of a list threaded through the slots'
//!   links. A push links its slot at the head. A bucket's order is
//!   free, because `advance` copies the list into `current` and sorts
//!   it, so 32 768 buckets cost 128 KiB of heads, not 768 KiB of `Vec`s;
//! * `far` is a binary min-heap of slot indices ordered by the slot's
//!   time alone: migrating into a bucket drops any finer order, and the
//!   rebase onto its minimum reads only the time;
//! * `current` and `behind` hold 24-byte `Handle`s, the key copied
//!   beside the slot, because `behind` needs the exact `(time, seq)`
//!   order and a sort should not chase slots. Both stay small.
//!
//! Payloads are written once on push and read once on pop: no sort,
//! sift or migration moves one. Freed slots recycle through the same
//! link, so steady-state churn allocates nothing, and a re-fit relinks
//! indices in place.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;

/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// A staged or behind-the-cursor event: its slot's key copied beside
/// the slot, so sorts and heap sifts compare without reading the arena.
#[derive(Clone, Copy)]
struct Handle {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Handle {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Handle {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Handle {}

impl PartialOrd for Handle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Handle {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// One pending event, stored once. `next` links the slot into its wheel
/// bucket's list or, once freed, into the arena's free list.
struct Slot<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    event: MaybeUninit<E>,
}

/// Slab of pending events addressed by slot index.
///
/// Invariant: a slot's payload is initialized iff the slot is pending:
/// on one bucket list, or named once in `current`, `behind` or `far`.
/// `alloc` initializes, `take` reads out and recycles; the queue's
/// `Drop` impl drops whatever is still pending.
struct Arena<E> {
    slots: Vec<Slot<E>>,
    /// Head of the free list, threaded through `Slot::next`.
    free: u32,
}

impl<E> Arena<E> {
    fn with_capacity(n: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(n),
            free: NIL,
        }
    }

    #[inline]
    fn alloc(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        let slot = Slot { time, seq, next: NIL, event: MaybeUninit::new(event) };
        if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "arena slot overflow");
            self.slots.push(slot);
            return (self.slots.len() - 1) as u32;
        }
        let s = self.free;
        self.free = self.slots[s as usize].next;
        self.slots[s as usize] = slot;
        s
    }

    #[inline]
    fn time(&self, s: u32) -> u64 {
        self.slots[s as usize].time.0
    }

    #[inline]
    fn handle(&self, s: u32) -> Handle {
        let Slot { time, seq, .. } = self.slots[s as usize];
        Handle { time, seq, slot: s }
    }

    /// The slots on the list that starts at `head`.
    fn list(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        let next = |&s: &u32| Some(self.slots[s as usize].next).filter(|&n| n != NIL);
        std::iter::successors(Some(head).filter(|&s| s != NIL), next)
    }

    /// Read the payload out of slot `s` and recycle it.
    ///
    /// # Safety
    /// `s` must have just left the queue's containers (so it is
    /// initialized and will not be read again).
    #[inline]
    unsafe fn take(&mut self, s: u32) -> E {
        let slot = &mut self.slots[s as usize];
        slot.next = self.free;
        self.free = s;
        unsafe { slot.event.assume_init_read() }
    }

    /// Drop the payload in slot `s` without recycling (queue teardown).
    ///
    /// # Safety
    /// Same contract as [`Arena::take`].
    unsafe fn drop_slot(&mut self, s: u32) {
        unsafe { self.slots[s as usize].event.assume_init_drop() }
    }
}

/// Restore the order of `far`, a min-heap of slots by time alone,
/// downward from `i`. std's `BinaryHeap` orders by the element, and
/// this key lives in the arena.
fn sift_down<E>(heap: &mut [u32], mut i: usize, arena: &Arena<E>) {
    let (s, t) = (heap[i], arena.time(heap[i]));
    loop {
        let mut child = 2 * i + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len() && arena.time(heap[child + 1]) < arena.time(heap[child]) {
            child += 1;
        }
        if t <= arena.time(heap[child]) {
            break;
        }
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = s;
}

/// Smallest wheel size; must be a power of two.
const MIN_BUCKETS: usize = 64;
/// Largest wheel size; bounds rebuild cost and memory.
const MAX_BUCKETS: usize = 1 << 16;
/// Bucket width target: ~this many live events per bucket. One event
/// per bucket minimizes sort work but maximizes `advance` calls and
/// scatters the working set across the wheel; a small batch amortizes
/// the cursor scan and keeps the drained bucket cache-hot while its
/// sort stays trivial.
const TARGET_OCCUPANCY: u64 = 8;
/// A drained bucket holding at least this many events at *distinct*
/// timestamps means the bucket width is too coarse for the live event
/// density: re-fit it. (Same-timestamp bursts are excluded — they are
/// the symmetric-collective common case and a single bucket is exactly
/// where we want them.) Well above TARGET_OCCUPANCY so a healthy wheel
/// never re-fits on a chance cluster.
const CROWDED_BATCH: usize = 4 * TARGET_OCCUPANCY as usize;

/// A time-ordered queue of events with deterministic FIFO tie-breaking.
///
/// Calendar-queue layout:
///
/// * `wheel[i]` heads the list of slots whose bucket index
///   `k = time >> shift` satisfies `k & mask == i` and
///   `epoch <= k < epoch + nbuckets`. Within a window of `nbuckets` a
///   bucket maps to exactly one `k`, so a bucket never mixes events
///   from different wheel laps.
/// * `current` is the bucket being drained, sorted *descending* by
///   `(time, seq)` so `pop` is a `Vec::pop` from the tail.
/// * `behind` holds handles pushed "behind the cursor" (see the module
///   doc) in a small min-heap; `pop` takes whichever of
///   `current`/`behind` is earlier, so global order is preserved
///   without an O(batch) merge-insert per follow-up.
/// * `far` spills slots beyond the wheel horizon; they migrate into
///   the wheel as the cursor approaches (checked once per bucket
///   advance).
/// * `arena` owns each event's key, link and payload.
pub struct EventQueue<E> {
    /// Bucket list heads, `NIL` when empty.
    wheel: Vec<u32>,
    /// Occupancy bitmap, one bit per bucket, for O(nbuckets/64) scans.
    occupied: Vec<u64>,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// `nbuckets - 1`; nbuckets is a power of two.
    mask: u64,
    /// Bucket index (`time >> shift`) of the cursor: every event in the
    /// wheel or `far` has `k >= epoch`; every event in `current` has
    /// `k < epoch`.
    epoch: u64,
    /// Drain batch, sorted descending by `(time, seq)`; popped from the
    /// tail.
    current: Vec<Handle>,
    /// Events pushed behind the cursor, merged with `current` at pop
    /// time. Stays small: it only ever holds same-instant follow-ups,
    /// pushes between the clock and a cursor that skipped ahead of it,
    /// and past-clamped events that have not fired yet.
    behind: BinaryHeap<Handle>,
    /// Slots beyond the wheel horizon, unlinked, in a min-heap by time
    /// alone (`far_push`, `sift_down`).
    far: Vec<u32>,
    arena: Arena<E>,
    /// Events in `wheel` (excluding `current` and `far`).
    wheel_len: usize,
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
    /// Pushes since the last fit that a heap took in the wheel's place.
    missed: usize,
    /// `scheduled_total` at the last rebuild.
    rebuilt_at: u64,
    /// Time of the last pop: the clock pushes are scheduled from.
    clock: u64,
    /// Every push by the bit length of its delay past `clock`, halved at
    /// each rebuild: what a re-fit sizes the wheel to.
    delays: [u64; 65],
    /// Where pushes went, and the rebuilds, over the queue's life.
    stats: QueueStats,
    /// A crowded mixed-time bucket was drained, or many pushes missed the
    /// wheel; re-fit it at the next `advance`.
    refit_pending: bool,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size the wheel for an expected live population of `capacity`
    /// events (the wheel still adapts if the estimate is wrong).
    pub fn with_capacity(capacity: usize) -> Self {
        let nbuckets = capacity.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        EventQueue {
            wheel: vec![NIL; nbuckets],
            occupied: vec![0u64; nbuckets / 64],
            // 2^14 ps ≈ 16 ns buckets: a sensible default for link-rate
            // events; adapted on the first rebuild either way.
            shift: 14,
            mask: (nbuckets - 1) as u64,
            epoch: 0,
            current: Vec::new(),
            behind: BinaryHeap::new(),
            far: Vec::new(),
            arena: Arena::with_capacity(capacity),
            wheel_len: 0,
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
            rebuilt_at: 0,
            missed: 0,
            clock: 0,
            delays: [0; 65],
            stats: QueueStats::default(),
            refit_pending: false,
        }
    }

    #[inline]
    fn nbuckets(&self) -> usize {
        self.wheel.len()
    }

    /// Link slot `s` at the head of the bucket for bucket index `k`.
    #[inline]
    fn link(&mut self, k: u64, s: u32) {
        let idx = (k & self.mask) as usize;
        self.arena.slots[s as usize].next = self.wheel[idx];
        self.wheel[idx] = s;
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
        self.wheel_len += 1;
    }

    #[inline]
    fn clear_occupied(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Push slot `s`, unlinked, onto `far` and sift it up.
    fn far_push(&mut self, s: u32) {
        let (far, arena) = (&mut self.far, &self.arena);
        debug_assert_eq!(arena.slots[s as usize].next, NIL);
        let (mut i, t) = (far.len(), arena.time(s));
        far.push(s);
        while i > 0 && arena.time(far[(i - 1) / 2]) > t {
            far[i] = far[(i - 1) / 2];
            i = (i - 1) / 2;
        }
        far[i] = s;
    }

    /// Schedule `event` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, event);
    }

    /// Schedule `event` at `time` with a caller-supplied tie-break key
    /// in place of the internal sequence counter.
    ///
    /// This is the sharded engine's entry point: cross-shard events
    /// carry globally-defined keys (rank, per-rank sequence) so that the
    /// (time, key) total order — and therefore the simulation outcome —
    /// is independent of how many shards the model is split across and
    /// of the order events happened to cross the shard channels.
    ///
    /// Keys must be unique per (time, key) pair; a queue should be fed
    /// either exclusively through `push` or exclusively through
    /// `push_keyed`, never both, or the internal counter could collide
    /// with caller keys.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, event: E) {
        self.push_with_seq(time, key, event);
    }

    #[inline]
    fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
        self.scheduled_total += 1;
        let delay = time.0.saturating_sub(self.clock);
        self.delays[(64 - delay.leading_zeros()) as usize] += 1;
        let slot = self.arena.alloc(time, seq, event);
        if self.len == 0 {
            // Empty queue: rebase the cursor onto the clock, which no
            // push through a `Scheduler` precedes. On the first push
            // instead, every earlier push of a preload would land behind.
            debug_assert!(self.current.is_empty() && self.behind.is_empty());
            self.epoch = self.clock >> self.shift;
        }
        let k = time.0 >> self.shift;
        if k < self.epoch {
            // Behind the cursor: a same-instant follow-up or an event in
            // the window being drained. Pops consult this heap alongside
            // the staged batch. Only a follow-up lands here at any width.
            self.behind.push(Handle { time, seq, slot });
            self.stats.behind += 1;
            if delay > 0 {
                self.missed();
            }
        } else if k - self.epoch < self.nbuckets() as u64 {
            self.link(k, slot);
            self.stats.wheel += 1;
        } else {
            self.far_push(slot);
            self.stats.far += 1;
            self.missed();
        }
        self.len += 1;
    }

    /// A heap took a push the wheel should hold (see the module doc).
    #[inline]
    fn missed(&mut self) {
        self.missed += 1;
        if self.missed > self.nbuckets().max(self.len) {
            self.refit_pending = true;
        }
    }

    /// True when the earliest pending event sits in `behind` rather than
    /// the staged batch. Callers guarantee at least one side is
    /// non-empty.
    #[inline]
    fn behind_is_next(&self) -> bool {
        match (self.behind.peek(), self.current.last()) {
            (Some(b), Some(c)) => b.key() < c.key(),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Take the earliest pending handle out of the staged batch or the
    /// behind heap, if `wanted` accepts it.
    #[inline]
    fn pop_handle_if(&mut self, wanted: impl FnOnce(&Handle) -> bool) -> Option<Handle> {
        if !self.staged() {
            return None;
        }
        let h = if self.behind_is_next() {
            if !wanted(self.behind.peek()?) {
                return None;
            }
            self.behind.pop()?
        } else {
            if !wanted(self.current.last()?) {
                return None;
            }
            self.current.pop()?
        };
        self.len -= 1;
        self.clock = h.time.0;
        Some(h)
    }

    /// Stage a batch unless one is in flight (a push into an emptied
    /// queue lands in the wheel); false when nothing is pending.
    #[inline]
    fn staged(&mut self) -> bool {
        !self.current.is_empty() || self.advance() || !self.behind.is_empty()
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// Remove and return the earliest event together with its tie-break
    /// key, so a caller can re-insert it with [`push_keyed`] under the
    /// exact `(time, key)` identity it was scheduled with (the
    /// benchmark's keyed-hold probe does).
    ///
    /// [`push_keyed`]: EventQueue::push_keyed
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        let h = self.pop_handle_if(|_| true)?;
        // SAFETY: `h` was just removed from the queue's containers.
        Some((h.time, h.seq, unsafe { self.arena.take(h.slot) }))
    }

    /// Time of the earliest pending event without removing it.
    ///
    /// Takes `&mut self` because finding the minimum may advance the
    /// wheel cursor and stage the next drain batch.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_entry().map(|(t, _)| t)
    }

    /// `(time, key)` of the earliest pending event without removing it:
    /// the stable identity a [`QueueSnapshot`] stores for it.
    fn peek_entry(&mut self) -> Option<(SimTime, u64)> {
        if !self.staged() {
            return None;
        }
        let h = if self.behind_is_next() {
            self.behind.peek()
        } else {
            self.current.last()
        }?;
        Some((h.time, h.seq))
    }

    /// Pop the earliest event only if it fires exactly at `time`.
    ///
    /// After `peek_time` has staged a batch, every event at that instant
    /// is in the batch or in `behind` (same-time events share a bucket;
    /// same-instant follow-ups land behind the cursor), so this is a
    /// compare and a tail pop — the engine's same-timestamp drain loop.
    pub fn pop_at(&mut self, time: SimTime) -> Option<(SimTime, E)> {
        let h = self.pop_handle_if(|h| h.time == time)?;
        // SAFETY: `h` was just removed from the queue's containers.
        Some((h.time, unsafe { self.arena.take(h.slot) }))
    }

    /// Pull far events that entered the horizon, find the next occupied
    /// bucket, and stage it as the new drain batch. Returns false when
    /// the queue is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        if self.len == 0 {
            return false;
        }
        if self.refit_pending {
            // Deferred to here, with `current` empty: rebuilding re-bases
            // the cursor, which is only safe with no partially drained
            // batch in flight.
            self.refit();
        }
        if self.wheel_len == 0 {
            // Rebase the wheel onto `far`'s min; with `far` empty too,
            // everything pending sits behind the cursor.
            let Some(&min) = self.far.first() else {
                return false;
            };
            self.epoch = self.arena.time(min) >> self.shift;
        }
        self.refill_from_far();
        debug_assert!(self.wheel_len > 0);
        // Scan for the next occupied bucket via the bitmap, a word at a
        // time. Guaranteed to hit within nbuckets steps.
        loop {
            let idx = (self.epoch & self.mask) as usize;
            let bit = idx % 64;
            let word = self.occupied[idx / 64] >> bit;
            if word == 0 {
                // Skip to the next bitmap word boundary.
                self.epoch += (64 - bit) as u64;
                continue;
            }
            self.epoch += u64::from(word.trailing_zeros());
            let idx = (self.epoch & self.mask) as usize;
            // Copy the bucket's list into `current`, which keeps its
            // buffer from batch to batch.
            let head = std::mem::replace(&mut self.wheel[idx], NIL);
            self.current.extend(self.arena.list(head).map(|s| self.arena.handle(s)));
            self.wheel_len -= self.current.len();
            self.clear_occupied(idx);
            // Descending so `pop` drains earliest-first from the tail.
            // Sorting moves 24-byte handles, never event payloads.
            self.current.sort_unstable_by_key(|h| std::cmp::Reverse(h.key()));
            // Cursor moves past the drained bucket.
            self.epoch += 1;
            // Crowding check: many events at distinct times sharing one
            // bucket means each pop is paying for a large sort — the
            // width no longer fits the density.
            if self.current.len() >= CROWDED_BATCH
                && self.current.first().map(|h| h.time) != self.current.last().map(|h| h.time)
            {
                self.refit_pending = true;
            }
            return true;
        }
    }

    /// Re-fit if the fit narrows the buckets or reaches further. Cold, so
    /// that the rebuild stays out of the code `advance` runs per batch.
    #[cold]
    fn refit(&mut self) {
        self.refit_pending = false;
        self.missed = 0;
        let (shift, nbuckets) = self.fit_to_delays();
        let horizon = |shift: u32, nbuckets: usize| shift + nbuckets.trailing_zeros();
        if (shift < self.shift || horizon(shift, nbuckets) > horizon(self.shift, self.nbuckets()))
            && self.scheduled_total - self.rebuilt_at >= self.len as u64
        {
            self.rebuild(nbuckets, shift);
        }
    }

    /// Migrate far events whose bucket fell inside the horizon.
    fn refill_from_far(&mut self) {
        let horizon = self.epoch + self.nbuckets() as u64;
        while let Some(&top) = self.far.first() {
            let k = self.arena.time(top) >> self.shift;
            if k >= horizon {
                break;
            }
            self.far.swap_remove(0);
            if !self.far.is_empty() {
                sift_down(&mut self.far, 0, &self.arena);
            }
            debug_assert!(k >= self.epoch);
            self.link(k, top);
        }
    }

    /// `(shift, nbuckets)` from the recorded delays, recent ones weighted
    /// most: buckets the narrower of the widest width all but a sixteenth
    /// of the delays exceed (so pushes land ahead of the cursor) and the
    /// narrowest that holds `TARGET_OCCUPANCY` live events (by Little's
    /// law, `TARGET_OCCUPANCY × mean delay / len`); as many as cover all
    /// but a sixteenth of the delays, at most one per live event. Zero
    /// delays (same-instant follow-ups) land behind at any width and are
    /// left out; with no other, the geometry stays.
    fn fit_to_delays(&self) -> (u32, usize) {
        let total: u64 = self.delays[1..].iter().sum();
        if total == 0 {
            return (self.shift, self.nbuckets());
        }
        let (mut width_bits, mut horizon_bits) = (0, 64);
        let mut shorter = 0;
        // `delays[bits]` counts delays in [2^(bits-1), 2^bits).
        for (bits, &n) in self.delays.iter().enumerate().skip(1) {
            shorter += n;
            if shorter * 16 <= total {
                width_bits = bits as u32;
            }
            if shorter * 16 >= total * 15 {
                horizon_bits = bits as u32;
                break;
            }
        }
        // Each count at the middle of its range, 3/4 of 2^bits.
        let sum: u128 = (1..65)
            .map(|bits| u128::from(self.delays[bits]) << bits)
            .sum();
        let dense =
            3 * sum * u128::from(TARGET_OCCUPANCY) / (4 * u128::from(total) * self.len as u128);
        let shift = width_bits
            .min(128 - (dense.max(1) - 1).leading_zeros())
            .min(40);
        let cap = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let nbuckets = 1usize << (horizon_bits - shift).min(16);
        (shift, nbuckets.clamp(MIN_BUCKETS, cap))
    }

    /// Rebuild the wheel with `nbuckets` buckets of width `2^shift`.
    /// Only called from `advance` with `current` empty: rebuilding
    /// re-bases the cursor onto the earliest remaining event, which would
    /// reorder a partially drained batch against pushes landing near the
    /// new epoch boundary.
    ///
    /// Relinks slot indices only: keys and payloads stay put in the
    /// arena, so a rebuild of a queue of fat events costs the same as
    /// one of unit events. Every bucket list and `far`'s slots are
    /// chained into one list and the heads reset; a wheel whose bucket
    /// count changes is resized in place, its buckets being empty. Each
    /// chained slot is then linked into its new bucket or pushed back
    /// into `far`'s own buffer, which is heapified in place. So a re-fit
    /// allocates nothing, unless more slots end past the horizon than
    /// `far` held, and never holds the population twice
    /// (`tests/interconnect_memory.rs` holds it to that).
    fn rebuild(&mut self, nbuckets: usize, shift: u32) {
        debug_assert!(self.current.is_empty());
        self.stats.rebuilds += 1;
        self.rebuilt_at = self.scheduled_total;
        self.delays.iter_mut().for_each(|n| *n /= 2);
        let (mut chain, mut min) = (NIL, u64::MAX);
        let heads = self.wheel.iter_mut().map(|head| std::mem::replace(head, NIL));
        // A slot in `far` is unlinked: a list of one.
        for mut s in self.far.drain(..).chain(heads) {
            while s != NIL {
                let slot = &mut self.arena.slots[s as usize];
                min = min.min(slot.time.0);
                let next = std::mem::replace(&mut slot.next, chain);
                chain = s;
                s = next;
            }
        }
        self.occupied.iter_mut().for_each(|w| *w = 0);
        self.wheel_len = 0;
        if self.nbuckets() != nbuckets {
            // Every bucket is empty: resize in place, so the old array
            // and a new one are never held together.
            self.wheel.resize(nbuckets, NIL);
            self.wheel.shrink_to_fit();
            self.occupied = vec![0u64; nbuckets / 64];
            self.mask = (nbuckets - 1) as u64;
        }
        self.shift = shift;
        // With everything behind the cursor, the wheel starts at the clock.
        self.epoch = if chain == NIL { self.clock } else { min } >> shift;
        while chain != NIL {
            let s = chain;
            chain = std::mem::replace(&mut self.arena.slots[s as usize].next, NIL);
            let k = self.arena.time(s) >> shift;
            if k - self.epoch >= nbuckets as u64 {
                self.far.push(s);
            } else {
                self.link(k, s);
            }
        }
        for i in (0..self.far.len() / 2).rev() {
            sift_down(&mut self.far, i, &self.arena);
        }
        // A preload that spilled whole would otherwise hold its buffer
        // for the rest of the run.
        self.far.shrink_to_fit();
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for run statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Where this queue's pushes went, and its rebuilds, since it was
    /// built (a restored queue counts from its restore).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Where an [`EventQueue`]'s pushes went: the wheel takes a push in
/// O(1); `far` (past the horizon) and `behind` (behind the cursor) are
/// binary heaps, O(log n) a push and again a pop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub wheel: u64,
    pub far: u64,
    pub behind: u64,
    /// Wheel rebuilds: re-fits that changed the geometry.
    pub rebuilds: u64,
}

impl QueueStats {
    /// Every push, whichever container took it.
    pub fn pushes(&self) -> u64 {
        self.wheel + self.far + self.behind
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

/// Portable snapshot of an [`EventQueue`]: every pending entry in
/// `(time, key)` order, plus the counters that make pushes after a
/// restore reproduce the original queue's tie-break sequence.
///
/// Entries are stored behind their stable `(time, key)` identities in
/// parallel arrays — arena slot numbers, wheel geometry, and cursor
/// position (all of which depend on allocation and drain history) never
/// escape into a snapshot. Because pop order is a pure function of the
/// `(time, key)` total order, a queue restored from a snapshot pops the
/// byte-identical event sequence the original would have, whatever
/// internal layout either happens to hold.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSnapshot<E> {
    /// Entry times, ascending by `(time, key)`.
    pub times: Vec<u64>,
    /// Entry tie-break keys, parallel to `times`.
    pub keys: Vec<u64>,
    /// Entry payloads, parallel to `times`.
    pub events: Vec<E>,
    /// Internal sequence counter, so post-restore `push` calls tie-break
    /// exactly as post-snapshot pushes would have.
    pub next_seq: u64,
    /// Lifetime scheduling statistic, preserved across restore.
    pub scheduled_total: u64,
}

impl<E> QueueSnapshot<E> {
    pub fn len(&self) -> usize {
        self.times.len()
    }

    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// What makes this snapshot unrestorable, if anything: arrays of
    /// different lengths, or entries not strictly ascending by `(time,
    /// key)`. A restored duplicate would pop in an order the restoring
    /// queue's geometry decides, not the snapshot.
    fn defect(&self) -> Option<String> {
        if self.times.len() != self.keys.len() || self.keys.len() != self.events.len() {
            return Some(format!(
                "queue snapshot arrays are not parallel ({}/{}/{})",
                self.times.len(),
                self.keys.len(),
                self.events.len()
            ));
        }
        let entries = self.times.iter().zip(&self.keys);
        let i = entries
            .clone()
            .zip(entries.skip(1))
            .position(|(a, b)| a >= b)?;
        Some(format!(
            "queue snapshot entry {} is not after entry {i} by (time, key)",
            i + 1
        ))
    }
}

impl<E: Clone> EventQueue<E> {
    /// Capture every pending entry in `(time, key)` order. Non-consuming
    /// (payloads are cloned): the queue keeps running after the snapshot
    /// — the checkpoint pattern of a long simulation.
    pub fn snapshot(&self) -> QueueSnapshot<E> {
        // A slot in `far` is unlinked: a list of one.
        let listed = self.far.iter().chain(&self.wheel).flat_map(|&head| self.arena.list(head));
        let mut handles: Vec<Handle> = self.current.iter().chain(&self.behind).copied().collect();
        handles.extend(listed.map(|s| self.arena.handle(s)));
        debug_assert_eq!(handles.len(), self.len, "containers must cover len");
        handles.sort_unstable_by_key(|h| h.key());
        QueueSnapshot {
            times: handles.iter().map(|h| h.time.0).collect(),
            keys: handles.iter().map(|h| h.seq).collect(),
            // SAFETY: each slot is pending in exactly one container, so it
            // is initialized; the payload is only borrowed for a clone.
            events: handles
                .iter()
                .map(|h| unsafe { self.arena.slots[h.slot as usize].event.assume_init_ref() }.clone())
                .collect(),
            next_seq: self.next_seq,
            scheduled_total: self.scheduled_total,
        }
    }
}

impl<E> EventQueue<E> {
    /// Rebuild a queue from a snapshot. The result pops the identical
    /// `(time, key, event)` sequence the snapshotted queue would have,
    /// and assigns subsequent `push` calls the same internal sequence
    /// numbers — restored runs are bit-identical to uninterrupted ones.
    ///
    /// Panics on a snapshot whose arrays are not parallel or whose
    /// entries are not strictly ascending by `(time, key)`; a parsed one
    /// was refused with a `DeError` instead.
    pub fn from_snapshot(snap: QueueSnapshot<E>) -> Self {
        if let Some(defect) = snap.defect() {
            panic!("{defect}");
        }
        let mut q = EventQueue::with_capacity(snap.times.len());
        for ((&t, &k), e) in snap.times.iter().zip(&snap.keys).zip(snap.events) {
            q.push_with_seq(SimTime(t), k, e);
        }
        q.next_seq = snap.next_seq;
        q.scheduled_total = snap.scheduled_total;
        q
    }
}

impl<E: serde::Serialize> serde::Serialize for QueueSnapshot<E> {
    fn to_value(&self) -> serde::value::Value {
        use serde::value::Value;
        // Hand-written (the vendored derive does not support generics):
        // field-ordered object matching the struct declaration.
        Value::Object(vec![
            ("times".to_string(), self.times.to_value()),
            ("keys".to_string(), self.keys.to_value()),
            ("events".to_string(), self.events.to_value()),
            ("next_seq".to_string(), self.next_seq.to_value()),
            ("scheduled_total".to_string(), self.scheduled_total.to_value()),
        ])
    }
}

impl<E: serde::Deserialize> serde::Deserialize for QueueSnapshot<E> {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let snap = QueueSnapshot {
            times: Vec::<u64>::from_value(v.field("times")?)?,
            keys: Vec::<u64>::from_value(v.field("keys")?)?,
            events: Vec::<E>::from_value(v.field("events")?)?,
            next_seq: u64::from_value(v.field("next_seq")?)?,
            scheduled_total: u64::from_value(v.field("scheduled_total")?)?,
        };
        match snap.defect() {
            Some(defect) => Err(serde::DeError::new(defect)),
            None => Ok(snap),
        }
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<E>() {
            return;
        }
        // Every pending slot is named exactly once by the containers;
        // walk them, lists too, and drop the payloads in place.
        let EventQueue { wheel, current, behind, far, arena, .. } = self;
        for h in current.iter().chain(behind.iter()) {
            // SAFETY: the slot was pending and is visited exactly once.
            unsafe { arena.drop_slot(h.slot) };
        }
        // A slot in `far` is unlinked: a list of one.
        for &head in far.iter().chain(wheel.iter()) {
            let mut s = head;
            while s != NIL {
                let next = arena.slots[s as usize].next;
                // SAFETY: as above; the link is read before the drop.
                unsafe { arena.drop_slot(s) };
                s = next;
            }
        }
    }
}

/// The original binary-heap queue, kept as the ordering oracle for the
/// determinism suite and the sentinel `queue-divergence` oracle.
pub mod reference {
    use super::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// AoS entry: the reference queue stores payloads inline, exactly as
    /// the pre-arena implementation did, so the oracle shares no storage
    /// code with the queue it checks.
    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> Entry<E> {
        #[inline]
        fn key(&self) -> (SimTime, u64) {
            (self.time, self.seq)
        }
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest-first.
            other.key().cmp(&self.key())
        }
    }

    /// Binary-heap `(time, seq)` queue: the pre-calendar implementation.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        pub fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|s| (s.time, s.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.time)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(5), 0);
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        q.push(SimTime(7), 2);
        assert_eq!(q.pop(), Some((SimTime(7), 2)));
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime(42), ());
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_entry_exposes_time_and_key() {
        let mut q = EventQueue::new();
        q.push_keyed(SimTime(9), 77, "x");
        q.push_keyed(SimTime(4), 12, "y");
        assert_eq!(q.peek_entry(), Some((SimTime(4), 12)));
        assert_eq!(q.pop_entry(), Some((SimTime(4), 12, "y")));
        assert_eq!(q.pop_entry(), Some((SimTime(9), 77, "x")));
        assert_eq!(q.pop_entry(), None);
    }

    #[test]
    fn counts_scheduled_events() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), ());
        q.push(SimTime(2), ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn keyed_pushes_order_by_key_not_arrival() {
        // The same events fed in two different arrival orders must pop
        // identically — the property cross-shard channel merges rely on.
        let feed = |order: &[usize]| {
            let evs = [
                (SimTime(10), 7u64, "a"),
                (SimTime(10), 3, "b"),
                (SimTime(5), 9, "c"),
                (SimTime(10), 5, "d"),
                (SimTime(20), 1, "e"),
            ];
            let mut q = EventQueue::new();
            for &i in order {
                let (t, k, e) = evs[i];
                q.push_keyed(t, k, e);
            }
            let mut out = Vec::new();
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
            }
            out
        };
        let a = feed(&[0, 1, 2, 3, 4]);
        let b = feed(&[4, 2, 3, 0, 1]);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                (SimTime(5), "c"),
                (SimTime(10), "b"),
                (SimTime(10), "d"),
                (SimTime(10), "a"),
                (SimTime(20), "e"),
            ]
        );
    }

    #[test]
    fn same_instant_follow_up_lands_behind_batch() {
        // Drain a same-time batch partially, then push another event at
        // that instant: it must come after the batch's remaining events.
        let mut q = EventQueue::new();
        q.push(SimTime(5), 0);
        q.push(SimTime(5), 1);
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        q.push(SimTime(5), 2);
        assert_eq!(q.pop(), Some((SimTime(5), 1)));
        assert_eq!(q.pop(), Some((SimTime(5), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn past_clamped_push_is_delivered_in_order() {
        // An event pushed at a time the cursor already passed (the
        // Scheduler clamps to `now`) must still come out before later
        // events.
        let mut q = EventQueue::new();
        q.push(SimTime(1_000_000), "late");
        q.push(SimTime(500), "early");
        assert_eq!(q.pop(), Some((SimTime(500), "early")));
        // Cursor is now past 500's bucket; push behind it.
        q.push(SimTime(500), "clamped");
        assert_eq!(q.pop(), Some((SimTime(500), "clamped")));
        assert_eq!(q.pop(), Some((SimTime(1_000_000), "late")));
    }

    #[test]
    fn far_future_events_survive_horizon_crossing() {
        let mut q = EventQueue::new();
        q.push(SimTime(0), "now");
        q.push(SimTime(u64::MAX / 2), "far");
        q.push(SimTime(1 << 40), "mid");
        assert_eq!(q.pop(), Some((SimTime(0), "now")));
        assert_eq!(q.pop(), Some((SimTime(1 << 40), "mid")));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX / 2), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wide_time_range_orders_correctly() {
        // Mixed magnitudes force rebuilds and far-heap migration.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..2000)
            .map(|i| (i * 2654435761u64) % 1_000_000_000_000)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut sorted: Vec<(u64, usize)> = times
            .iter()
            .copied()
            .enumerate()
            .map(|(i, t)| (t, i))
            .collect();
        sorted.sort();
        for (t, i) in sorted {
            assert_eq!(q.pop(), Some((SimTime(t), i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn matches_reference_heap_on_mixed_workload() {
        use crate::rng::SplitMix64;
        let mut cal = EventQueue::new();
        let mut heap = reference::HeapQueue::new();
        let mut rng = SplitMix64::new(0xfeed);
        let mut now = 0u64;
        for step in 0..5000u64 {
            if rng.next_below(4) < 3 {
                // Near-monotone insert, with frequent exact ties.
                let dt = if rng.chance(0.3) {
                    0
                } else {
                    rng.next_below(100_000)
                };
                cal.push(SimTime(now + dt), step);
                heap.push(SimTime(now + dt), step);
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at step {step}");
                if let Some((t, _)) = a {
                    now = t.0;
                }
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The 256-rank GigE ring cell's pattern: keyed chains that start
    /// together at time 0, as a collective's ranks do, and reschedule
    /// themselves 0.5, 2, 3 or 36 µs out. The same-instant start grows
    /// the wheel to a width fit to a zero span; every later push then
    /// lands past the horizon, where the grow trigger cannot see it.
    /// Once the wheel has re-fit to the spilled pushes, they land in the
    /// wheel instead of `far`.
    #[test]
    fn keyed_chains_past_the_horizon_refit_the_wheel() {
        use crate::rng::SplitMix64;
        const DELTAS: [u64; 4] = [500_000, 2_000_000, 3_000_000, 36_000_000];
        const CHAINS: u64 = 256;
        let mut q = EventQueue::new();
        let mut rng = SplitMix64::new(7);
        for rank in 0..CHAINS {
            q.push_keyed(SimTime(0), rank << 32, rank);
        }
        let (mut pushes, mut spills) = (0u64, 0u64);
        for pop in 0..CHAINS * 400 {
            let (now, key, rank) = q.pop_entry().expect("chains never end");
            let far = q.far.len();
            let at = now.0 + DELTAS[rng.next_below(4) as usize];
            q.push_keyed(SimTime(at), key + 1, rank);
            if pop >= CHAINS * 10 {
                pushes += 1;
                spills += u64::from(q.far.len() > far);
            }
        }
        assert!(
            spills * 20 < pushes,
            "{spills} of {pushes} pushes spilled to far"
        );
    }

    /// The spill trigger is amortised: with 7 of 8 pushes landing 15
    /// simulated seconds out over a population of 4096, a rebuild needs
    /// more spilled pushes than the population since the last one, so
    /// no pattern turns it into a rebuild per batch.
    #[test]
    fn spill_refits_are_amortised_over_the_population() {
        use crate::rng::SplitMix64;
        const POPULATION: u64 = 4096;
        const TXNS: u64 = 1 << 18;
        let mut q = EventQueue::new();
        let mut rng = SplitMix64::new(9);
        let delay = |rng: &mut SplitMix64| {
            let link = [10_000, 25_000, 50_000, 100_000][rng.next_below(4) as usize];
            if rng.next_below(8) < 7 {
                15_000_000_000_000 + link
            } else {
                link
            }
        };
        for i in 0..POPULATION {
            q.push(SimTime(delay(&mut rng)), i);
        }
        for _ in 0..TXNS {
            let (now, i) = q.pop().expect("queue stays charged");
            q.push(SimTime(now.0 + delay(&mut rng)), i);
        }
        let pushes = POPULATION + TXNS;
        assert!(
            q.stats().rebuilds <= pushes / POPULATION + 16,
            "{} rebuilds in {pushes} pushes",
            q.stats().rebuilds
        );
    }

    /// A hold model whose live population grows from 64 to 65 536 at
    /// distinct times, each pop rescheduling up to 1 µs out plus one
    /// more event while it grows, then holding at 65 536. A wheel sized
    /// for 64 must keep up: the batches `advance` stages stay small,
    /// and few pushes land past the horizon. With a grow trigger the
    /// mean batch read 23.7 and `far` took none; with crowded batches
    /// alone, 15.4 and none.
    #[test]
    fn a_growing_population_keeps_batches_small() {
        use crate::rng::SplitMix64;
        const TARGET: usize = 65_536;
        const WARM_UP: usize = 1_024;
        let mut q = EventQueue::new();
        let mut rng = SplitMix64::new(39);
        for i in 0..64u64 {
            q.push(SimTime(1 + rng.next_below(1_000_000)), i);
        }
        let (mut batches, mut staged) = (0u64, 0u64);
        let mut measured = QueueStats::default();
        let mut holds = 0;
        while holds < TARGET {
            let fresh = q.current.is_empty();
            q.peek_time();
            if fresh && !q.current.is_empty() && q.len() >= WARM_UP {
                batches += 1;
                staged += q.current.len() as u64;
            }
            let (now, i) = q.pop().expect("the population never empties");
            let before = q.stats();
            q.push(SimTime(now.0 + 1 + rng.next_below(1_000_000)), i);
            if q.len() < TARGET {
                q.push(SimTime(now.0 + 1 + rng.next_below(1_000_000)), i);
            } else {
                holds += 1;
            }
            if q.len() >= WARM_UP {
                let after = q.stats();
                measured.wheel += after.wheel - before.wheel;
                measured.far += after.far - before.far;
                measured.behind += after.behind - before.behind;
            }
        }
        let mean = staged as f64 / batches as f64;
        assert!(
            mean <= (2 * CROWDED_BATCH) as f64,
            "mean staged batch {mean:.1} over {batches} batches"
        );
        assert!(
            measured.far * 20 < measured.pushes(),
            "{} of {} pushes went to far",
            measured.far,
            measured.pushes()
        );
    }

    /// The fleet's preload: job arrivals over 1200 s pushed in job order,
    /// then bootstrap timers 48 to 216 s out, all before the first pop.
    /// A cursor rebased onto the first push would sit at some arrival
    /// and put every earlier push, timers included, in `behind`.
    #[test]
    fn an_out_of_order_preload_stays_out_of_behind() {
        use crate::rng::SplitMix64;
        const S: u64 = 1_000_000_000_000;
        let mut q = EventQueue::with_capacity(16_384);
        let mut heap = reference::HeapQueue::new();
        let mut rng = SplitMix64::new(33);
        let arrivals: Vec<u64> = (0..1_000).map(|_| rng.next_below(1_200 * S)).collect();
        let timers: Vec<u64> = (0..10_000).map(|_| 48 * S + rng.next_below(168 * S)).collect();
        for (i, t) in arrivals.into_iter().chain(timers).enumerate() {
            q.push(SimTime(t), i);
            heap.push(SimTime(t), i);
        }
        assert_eq!(q.behind.len(), 0, "{:?}", q.stats());
        assert_eq!(q.stats().behind, 0);
        while let Some(expected) = heap.pop() {
            assert_eq!(q.pop(), Some(expected));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut q = EventQueue::with_capacity(4096);
        for i in 0..100u64 {
            q.push(SimTime(i % 7), i);
        }
        let mut last = (SimTime(0), 0u64);
        let mut n = 0;
        while let Some((t, i)) = q.pop() {
            assert!((t, i) >= last, "order violated");
            last = (t, i);
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn arena_slots_recycle_under_churn() {
        // Steady-state push/pop churn must not grow the payload slab
        // past the peak live population — freed slots come back through
        // the free list instead of appending.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime(i), i);
        }
        let peak = q.arena.slots.len();
        for round in 0..100u64 {
            for _ in 0..32 {
                q.pop();
            }
            for i in 0..32u64 {
                q.push(SimTime(64 + round * 32 + i), i);
            }
        }
        assert_eq!(q.arena.slots.len(), peak, "arena grew under churn");
    }

    /// Drop correctness: queued events must drop exactly once whether
    /// popped or abandoned mid-batch.
    #[test]
    fn drops_are_balanced() {
        use std::rc::Rc;
        let marker = Rc::new(());
        {
            let mut q = EventQueue::new();
            for i in 0..500u64 {
                q.push(SimTime(i % 13), Rc::clone(&marker));
            }
            for _ in 0..250 {
                q.pop();
            }
            // 250 popped (dropped here), 250 still queued.
            assert_eq!(Rc::strong_count(&marker), 251);
        }
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    /// Same, but abandoning events in every container at once: staged
    /// batch, behind heap, wheel, and far heap.
    #[test]
    fn drops_balance_across_all_containers() {
        use std::rc::Rc;
        let marker = Rc::new(());
        {
            let mut q = EventQueue::new();
            q.push(SimTime(100), Rc::clone(&marker));
            q.push(SimTime(100), Rc::clone(&marker));
            q.push(SimTime(u64::MAX / 2), Rc::clone(&marker)); // far
            q.pop(); // stages the t=100 bucket, pops one
            q.push(SimTime(100), Rc::clone(&marker)); // behind the cursor
            q.push(SimTime(200), Rc::clone(&marker)); // wheel
            assert_eq!(Rc::strong_count(&marker), 5);
        }
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    /// A queue of 100 events at distinct picoseconds in one bucket of
    /// the default wheel: draining that bucket asks for a re-fit, which
    /// narrows the buckets at the next `advance`.
    fn crowded<E>(event: impl Fn(u64) -> E) -> EventQueue<E> {
        let mut q = EventQueue::new();
        for t in 1..=100 {
            q.push(SimTime(t), event(t));
        }
        q
    }

    /// Drops balance after a rebuild has relinked the lists, with events
    /// in `far`, in several bucket lists, in `behind` and in a partly
    /// drained `current`.
    #[test]
    fn drops_balance_after_a_rebuild() {
        use std::rc::Rc;
        let marker = Rc::new(());
        {
            let mut q = crowded(|_| Rc::clone(&marker));
            q.push(SimTime(1 << 40), Rc::clone(&marker)); // far
            for _ in 0..100 {
                q.pop();
            }
            for _ in 0..3 {
                q.push(SimTime(20_000), Rc::clone(&marker));
            }
            q.pop(); // rebuilds, stages the 20 000 ps batch, pops one
            assert_eq!(q.stats().rebuilds, 1);
            q.push(SimTime(20_000), Rc::clone(&marker)); // behind
            for j in 1..=3 {
                q.push(SimTime(20_000 + (j << q.shift)), Rc::clone(&marker));
            }
            assert_eq!((q.far.len(), q.behind.len(), q.current.len()), (1, 1, 2));
            assert_eq!(q.wheel.iter().filter(|&&head| head != NIL).count(), 3);
            assert_eq!(Rc::strong_count(&marker), 1 + q.len());
        }
        assert_eq!(Rc::strong_count(&marker), 1);
    }

    /// Churn across rebuilds does not grow the arena past the live
    /// population: slots freed while a re-fit relinks the lists still
    /// recycle through their links.
    #[test]
    fn arena_slots_recycle_across_rebuilds() {
        let mut q = crowded(|t| t);
        let peak = q.arena.slots.len();
        for round in 0..200 {
            let popped: Vec<_> = (0..50).map(|_| q.pop().expect("100 pending")).collect();
            for (now, i) in popped {
                q.push(SimTime(now.0 + 1 + (i * 7_919 + round) % (1 << (round % 24))), i);
            }
        }
        assert!(q.stats().rebuilds >= 2, "{:?}", q.stats());
        assert_eq!(q.arena.slots.len(), peak, "arena grew under churn");
    }
}
