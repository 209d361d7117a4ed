//! Sharded parallel discrete-event execution: conservative windows from
//! one lookahead.
//!
//! [`ShardSim`] partitions a model across worker shards, each owning an
//! independent calendar [`EventQueue`], and runs them in windows:
//!
//! * **One lookahead.** Every cross-shard send lands at least `L` past
//!   the sender's clock, `L` being the single [`SimDuration`] the
//!   simulator was built with. Each window, every shard publishes the
//!   minimum timestamp it could still send (its queue minimum), and
//!   shard `d` derives its own safe window end from them with
//!   [`window_end`]: a peer's pending work reaches `d` no earlier than
//!   `L` later, `d`'s own no earlier than the `2L` round trip through a
//!   peer.
//! * **Batched channel exchange.** Cross-shard sends buffer per
//!   destination and flush once per window through
//!   [`ShardChannel::push_batch`] — one release store per (src, dst)
//!   pair per window instead of one per event.
//!
//! This is the only window protocol. Optimistic execution past the
//! window end and a per-channel lookahead matrix were tried and
//! removed; docs/PERFORMANCE.md records the measurements and what a
//! retry would have to show.
//!
//! Determinism — and, stronger, *shard-count invariance* — comes from
//! the key discipline: models supply tie-break keys derived from global
//! identities (rank, per-rank sequence), never from shard ids or
//! arrival order, so the `(time, key)` total order every shard executes
//! is the same whether the model runs on 1, 2, or 4 shards. The oracle
//! suite in `tests/parallel_determinism.rs` asserts exactly that.
//!
//! Synchronization is three barrier waits per window (publish local
//! minima / adopt the window / exchange channels). A waiter polls the
//! barrier's generation and yields the CPU between polls: it never
//! sleeps, so a window costs no kernel wake-up, and it never spins
//! without yielding, so more shards than cores degrade to round-robin
//! instead of livelocking.

use crate::channel::ShardChannel;
use crate::event::{EventQueue, QueueSnapshot};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

/// Block partition of `hosts` simulated nodes across `nshards` engine
/// shards: shard `s` owns the contiguous rank range
/// `ceil(s*hosts/n) .. ceil((s+1)*hosts/n)`. Contiguity keeps each
/// shard's working set dense, and the arithmetic is exact for any
/// (hosts, nshards) pair — shard sizes differ by at most one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    pub hosts: u32,
    pub nshards: u32,
}

impl Partition {
    /// `nshards` is clamped to `1..=hosts` (an empty shard would stall
    /// no one, but there is no reason to create it).
    pub fn block(hosts: u32, nshards: u32) -> Self {
        Partition {
            hosts,
            nshards: nshards.clamp(1, hosts.max(1)),
        }
    }

    /// Which shard owns `rank`.
    #[inline]
    pub fn shard_of(&self, rank: u32) -> u32 {
        debug_assert!(rank < self.hosts);
        ((rank as u64 * self.nshards as u64) / (self.hosts as u64).max(1)) as u32
    }

    /// The contiguous rank range shard `shard` owns.
    pub fn ranks_of(&self, shard: u32) -> std::ops::Range<u32> {
        debug_assert!(shard < self.nshards);
        let (hosts, n) = (self.hosts as u64, self.nshards as u64);
        let lo = (shard as u64 * hosts).div_ceil(n);
        let hi = ((shard as u64 + 1) * hosts).div_ceil(n);
        lo as u32..hi as u32
    }
}

// ---------------------------------------------------------------------
// Window bound
// ---------------------------------------------------------------------

/// Safe window end for shard `dst` given every shard's published
/// minimum and the lookahead `l` every cross-shard send honours.
///
/// A future event at `dst` is the end of a causal chain of sends that
/// starts at some shard's pending work. From a peer the shortest chain
/// is one send, `mins[src] + l`; from `dst` itself it is the round
/// trip out to a peer and back, `mins[dst] + 2l` — without that term a
/// shard whose peers have all gone idle (published `u64::MAX`) would
/// open an unbounded window and drain events its own in-flight sends
/// were about to invalidate on the rebound. A lone shard has no peer to
/// rebound from and is never bounded. Adds saturate, so a `u64::MAX`
/// minimum drops out.
///
/// Public so the lookahead property suite can hold it against the
/// min-plus closure of the uniform channel matrix it is the closed form
/// of.
pub fn window_end(l: SimDuration, mins: &[u64], dst: usize) -> u64 {
    let own = if mins.len() > 1 { l.0.saturating_mul(2) } else { u64::MAX };
    mins.iter()
        .enumerate()
        .map(|(src, &m)| m.saturating_add(if src == dst { own } else { l.0 }))
        .min()
        .unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// World interface
// ---------------------------------------------------------------------

/// One shard's slice of the model state, driven by [`ShardSim`].
///
/// The key discipline that makes runs shard-count invariant: every
/// event scheduled through [`ShardCtx::send`] carries a tie-break key
/// the model derives from *global* identities (e.g. `rank << 32 | seq`)
/// — never from the shard id, the thread, or channel arrival order.
pub trait ShardWorld: Send {
    type Event: Send;
    /// Handle one event at `ctx.now()`.
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Self::Event>, event: Self::Event);
}

/// An event in flight between shards.
struct Remote<E> {
    time: SimTime,
    key: u64,
    event: E,
}

/// Scheduling interface handed to [`ShardWorld::handle`].
pub struct ShardCtx<'a, E> {
    now: SimTime,
    shard: u32,
    nshards: u32,
    lookahead: SimDuration,
    queue: &'a mut EventQueue<E>,
    /// Per-destination outbound buffers, flushed in one
    /// [`ShardChannel::push_batch`] per pair per window.
    outbufs: &'a mut [Vec<Remote<E>>],
    remote_sent: &'a mut u64,
}

impl<E> ShardCtx<'_, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The shard this handler is executing on.
    #[inline]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    #[inline]
    pub fn nshards(&self) -> u32 {
        self.nshards
    }

    /// The cross-shard lookahead the simulator was built with:
    /// cross-shard events are always safe at `now + lookahead()`. The
    /// same value at every shard count, 1 included, so models that
    /// derive send times from it stay shard-count invariant.
    #[inline]
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Schedule `event` at `time` on shard `dst`, tie-broken by `key`.
    ///
    /// Local sends (`dst == self.shard()`) may target any `time >= now`.
    /// Cross-shard sends must satisfy `time >= now + lookahead()` — the
    /// window contract; debug builds assert it.
    pub fn send(&mut self, dst: u32, time: SimTime, key: u64, event: E) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        if dst == self.shard {
            self.queue.push_keyed(time.max(self.now), key, event);
        } else {
            debug_assert!(
                time.0 >= self.now.0 + self.lookahead.0,
                "cross-shard event at {} violates lookahead {} from {} ({} -> {})",
                time.0,
                self.lookahead.0,
                self.now.0,
                self.shard,
                dst
            );
            *self.remote_sent += 1;
            self.outbufs[dst as usize].push(Remote { time, key, event });
        }
    }

    /// Schedule a local event (shorthand for `send` to the own shard).
    pub fn at(&mut self, time: SimTime, key: u64, event: E) {
        let shard = self.shard;
        self.send(shard, time, key, event);
    }
}

// ---------------------------------------------------------------------
// The sharded simulator
// ---------------------------------------------------------------------

/// Outcome of a sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Events dispatched, summed over shards.
    pub events_dispatched: u64,
    /// Windows executed.
    pub windows: u64,
    /// Events that crossed a shard boundary.
    pub remote_events: u64,
    // Always 0: read only by the frozen examples/benchmark/src/workloads/program_cells.rs.
    #[doc(hidden)]
    pub spec_events_committed: u64,
    // Always 0: read only by the frozen examples/benchmark/src/workloads/program_cells.rs.
    #[doc(hidden)]
    pub spec_events_rolled_back: u64,
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// True if the run stopped at the horizon with events pending.
    pub horizon_reached: bool,
}

// Slots sit side by side in one `Vec` and each worker writes its own on
// every event (`now`, `dispatched`, the queue's cursors): without the
// alignment the line that straddles two slots ping-pongs between their
// cores whenever the allocation happens to land that way. 128 covers
// the adjacent-line prefetcher's pair.
#[repr(align(128))]
struct ShardSlot<W: ShardWorld> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    dispatched: u64,
    remote_sent: u64,
    /// Reusable merge buffer for inbound remote events.
    inbox: Vec<Remote<W::Event>>,
    /// Per-destination outbound buffers; flushed in one `push_batch`
    /// per pair per window.
    outbufs: Vec<Vec<Remote<W::Event>>>,
}

/// Read-only per-run context shared by every phase function.
struct Shared<'a, W: ShardWorld> {
    n: usize,
    lookahead: SimDuration,
    /// Event-granular horizon cap: events with `t.0 > hcap` never
    /// execute.
    hcap: u64,
    channels: &'a [ShardChannel<Remote<W::Event>>],
}

/// A model partitioned across shards, executed in lookahead windows.
pub struct ShardSim<W: ShardWorld> {
    shards: Vec<ShardSlot<W>>,
    lookahead: SimDuration,
}

impl<W: ShardWorld> ShardSim<W> {
    /// One world per shard; every cross-shard send promises at least
    /// `lookahead` of delay. (Named for the per-channel matrix it was
    /// once the uniform case of; the frozen benchmark calls it.)
    pub fn uniform(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "at least one shard required");
        assert!(lookahead.0 > 0, "conservative lookahead must be positive");
        let n = worlds.len();
        ShardSim {
            shards: worlds
                .into_iter()
                .map(|world| ShardSlot {
                    world,
                    queue: EventQueue::new(),
                    now: SimTime::ZERO,
                    dispatched: 0,
                    remote_sent: 0,
                    inbox: Vec::new(),
                    outbufs: (0..n).map(|_| Vec::new()).collect(),
                })
                .collect(),
            lookahead,
        }
    }

    pub fn nshards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Seed an event before the run (same key discipline as
    /// [`ShardCtx::send`]).
    pub fn schedule(&mut self, shard: u32, time: SimTime, key: u64, event: W::Event) {
        self.shards[shard as usize].queue.push_keyed(time, key, event);
    }

    /// The shard worlds, indexed by shard id (for result extraction).
    pub fn worlds(&self) -> impl Iterator<Item = &W> {
        self.shards.iter().map(|s| &s.world)
    }

    /// Run to completion (or `horizon`). With `parallel` set, each
    /// shard gets its own worker thread; otherwise the same windowed
    /// algorithm runs on the calling thread, shard by shard — both
    /// paths execute the identical `(time, key)` order, so they produce
    /// identical results by construction.
    pub fn run(&mut self, parallel: bool, horizon: Option<SimTime>) -> ShardRunStats {
        let n = self.shards.len();
        let channels: Vec<ShardChannel<Remote<W::Event>>> =
            (0..n * n).map(|_| ShardChannel::new()).collect();
        let windows = AtomicU64::new(0);
        let horizon_hit = AtomicBool::new(false);
        let shared = Shared::<W> {
            n,
            lookahead: self.lookahead,
            hcap: horizon.map_or(u64::MAX, |h| h.0),
            channels: &channels,
        };

        if !parallel || n == 1 {
            let mut mins = vec![u64::MAX; n];
            loop {
                for (m, slot) in mins.iter_mut().zip(self.shards.iter_mut()) {
                    *m = published_min(slot);
                }
                let gmin = *mins.iter().min().expect("n >= 1");
                if gmin == u64::MAX {
                    break;
                }
                if horizon.is_some_and(|h| gmin > h.0) {
                    horizon_hit.store(true, Ordering::Relaxed);
                    break;
                }
                windows.fetch_add(1, Ordering::Relaxed);
                for (s, slot) in self.shards.iter_mut().enumerate() {
                    let wend = window_end(shared.lookahead, &mins, s);
                    drain_window(slot, s, &shared, wend);
                    flush_outbufs(slot, s, &shared);
                }
                for (s, slot) in self.shards.iter_mut().enumerate() {
                    merge_inbox(slot, s, &shared);
                }
            }
        } else {
            let barrier = WindowBarrier::new(n);
            let mins: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
            std::thread::scope(|scope| {
                for (s, slot) in self.shards.iter_mut().enumerate() {
                    let (shared, mins, barrier) = (&shared, &mins, &barrier);
                    let (windows, horizon_hit) = (&windows, &horizon_hit);
                    scope.spawn(move || {
                        worker(s, slot, shared, horizon, mins, barrier, windows, horizon_hit);
                    });
                }
            });
        }

        let horizon_reached = horizon_hit.load(Ordering::Relaxed);
        let end_time = if horizon_reached {
            horizon.expect("horizon_reached implies a horizon")
        } else {
            self.shards.iter().map(|s| s.now).max().unwrap_or(SimTime::ZERO)
        };
        let stats = ShardRunStats {
            events_dispatched: self.shards.iter().map(|s| s.dispatched).sum(),
            windows: windows.load(Ordering::Relaxed),
            remote_events: self.shards.iter().map(|s| s.remote_sent).sum(),
            spec_events_committed: 0,
            spec_events_rolled_back: 0,
            end_time,
            horizon_reached,
        };
        // Reset per-run tallies so repeated runs don't double-count.
        for s in &mut self.shards {
            s.dispatched = 0;
            s.remote_sent = 0;
        }
        stats
    }
}

// ---------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------

/// Full serializable state of a [`ShardSim`] at a quiescent point
/// (between runs): the lookahead and every shard's world, its
/// calendar queue (as a [`QueueSnapshot`] — entries behind stable
/// `(time, key)` identities, never arena slots) and its clock.
///
/// Stable-ID rules: nothing in a snapshot refers to process state —
/// no arena slot numbers, thread ids, channel indices, or `Weak`
/// custody. Shards are named by their dense shard id and events by
/// their `(time, key)` identity, so a snapshot restores into a fresh
/// process bit-identically.
///
/// The only intra-window state (un-flushed outbufs, inboxes) is empty
/// at every quiescent point; [`ShardSim::snapshot`] asserts that
/// rather than serializing it.
///
/// A deserialized snapshot is shape-checked at the boundary
/// (`Deserialize::from_value` returns a `DeError` for a wrong schema
/// tag, `nshards` 0, a zero `lookahead` — under which no window ever
/// advances and `run` would not return — arrays that do not match
/// `nshards`, queue entries out of `(time, key)` order, or an entry
/// earlier than its shard's clock, which would run the clock
/// backwards), so [`restore`](ShardSnapshot::restore) never sees a
/// malformed one.
pub struct ShardSnapshot<W: ShardWorld> {
    nshards: u32,
    /// The construction lookahead, picoseconds.
    lookahead: u64,
    worlds: Vec<W>,
    queues: Vec<QueueSnapshot<W::Event>>,
    /// Per-shard clock, picoseconds.
    nows: Vec<u64>,
}

impl<W: ShardWorld> ShardSnapshot<W> {
    pub fn nshards(&self) -> u32 {
        self.nshards
    }

    /// The latest shard clock in the snapshot, picoseconds.
    pub fn time(&self) -> SimTime {
        SimTime(self.nows.iter().copied().max().unwrap_or(0))
    }

    /// Rebuild a simulator from this snapshot. The result — worlds,
    /// queue contents, clocks, lookahead — continues exactly as the
    /// snapshotted simulator would have: `run` from here produces
    /// bit-identical model results to the uninterrupted run (the
    /// snapshot round-trip proptests pin this).
    pub fn restore(&self) -> ShardSim<W>
    where
        W: Clone,
        W::Event: Clone,
    {
        let mut sim = ShardSim::uniform(self.worlds.clone(), SimDuration(self.lookahead));
        for (s, slot) in sim.shards.iter_mut().enumerate() {
            slot.queue = EventQueue::from_snapshot(self.queues[s].snapshot_clone());
            slot.now = SimTime(self.nows[s]);
        }
        sim
    }
}

impl<E: Clone> QueueSnapshot<E> {
    /// Owned copy (the snapshot type deliberately has no public
    /// `Clone` bound on its generic, so restores clone explicitly).
    fn snapshot_clone(&self) -> QueueSnapshot<E> {
        QueueSnapshot {
            times: self.times.clone(),
            keys: self.keys.clone(),
            events: self.events.clone(),
            next_seq: self.next_seq,
            scheduled_total: self.scheduled_total,
        }
    }
}

impl<W: ShardWorld + Clone> ShardSim<W>
where
    W::Event: Clone,
{
    /// Capture the full simulator state behind stable IDs. Must be
    /// called at a quiescent point — before any run, or after a run
    /// returned (including a horizon stop); panics if intra-window
    /// state is live.
    pub fn snapshot(&self) -> ShardSnapshot<W> {
        for slot in &self.shards {
            assert!(
                slot.inbox.is_empty() && slot.outbufs.iter().all(Vec::is_empty),
                "snapshot requires a quiescent simulator (between runs)"
            );
        }
        ShardSnapshot {
            nshards: self.shards.len() as u32,
            lookahead: self.lookahead.0,
            worlds: self.shards.iter().map(|s| s.world.clone()).collect(),
            queues: self.shards.iter().map(|s| s.queue.snapshot()).collect(),
            nows: self.shards.iter().map(|s| s.now.0).collect(),
        }
    }
}

/// Snapshot wire-format version tag (bump on layout changes).
const SHARD_SNAPSHOT_SCHEMA: &str = "polaris-shardsim-snapshot/3";

impl<W> Serialize for ShardSnapshot<W>
where
    W: ShardWorld + Serialize,
    W::Event: Serialize,
{
    fn to_value(&self) -> serde::value::Value {
        use serde::value::Value;
        // Hand-written (the vendored derive does not support
        // generics): field-ordered object matching the declaration.
        Value::Object(vec![
            ("schema".to_string(), Value::Str(SHARD_SNAPSHOT_SCHEMA.to_string())),
            ("nshards".to_string(), self.nshards.to_value()),
            ("lookahead".to_string(), self.lookahead.to_value()),
            ("worlds".to_string(), self.worlds.to_value()),
            ("queues".to_string(), self.queues.to_value()),
            ("nows".to_string(), self.nows.to_value()),
        ])
    }
}

impl<W> Deserialize for ShardSnapshot<W>
where
    W: ShardWorld + Deserialize,
    W::Event: Deserialize,
{
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let schema = String::from_value(v.field("schema")?)?;
        if schema != SHARD_SNAPSHOT_SCHEMA {
            return Err(serde::DeError::new(format!(
                "unsupported shard snapshot schema {schema:?} (expected {SHARD_SNAPSHOT_SCHEMA:?})"
            )));
        }
        let snap = ShardSnapshot {
            nshards: u32::from_value(v.field("nshards")?)?,
            lookahead: u64::from_value(v.field("lookahead")?)?,
            worlds: Vec::<W>::from_value(v.field("worlds")?)?,
            queues: Vec::<QueueSnapshot<W::Event>>::from_value(v.field("queues")?)?,
            nows: Vec::<u64>::from_value(v.field("nows")?)?,
        };
        // The shape `restore` indexes by: checked here so hostile input
        // gets a typed error and `restore` cannot panic on it.
        let n = snap.nshards as usize;
        if n == 0 {
            return Err(serde::DeError::new("shard snapshot holds no shards"));
        }
        if snap.lookahead == 0 {
            return Err(serde::DeError::new(
                "shard snapshot lookahead is zero: no window could advance",
            ));
        }
        if snap.worlds.len() != n || snap.queues.len() != n || snap.nows.len() != n {
            return Err(serde::DeError::new(format!(
                "shard snapshot per-shard arrays (worlds {}, queues {}, nows {}) must match nshards {n}",
                snap.worlds.len(),
                snap.queues.len(),
                snap.nows.len()
            )));
        }
        // Each queue is ascending (checked as it parsed): its first
        // entry is its earliest.
        for (s, (queue, &now)) in snap.queues.iter().zip(&snap.nows).enumerate() {
            if let Some(&t) = queue.times.first().filter(|&&t| t < now) {
                return Err(serde::DeError::new(format!(
                    "shard {s} queues an event at {t} ps, before its clock at {now} ps"
                )));
            }
        }
        Ok(snap)
    }
}

/// The minimum timestamp shard `slot` could still introduce anywhere:
/// its queue minimum.
fn published_min<W: ShardWorld>(slot: &mut ShardSlot<W>) -> u64 {
    slot.queue.peek_time().map_or(u64::MAX, |t| t.0)
}

/// Drain one shard's events strictly below `wend` (and at or below the
/// horizon cap), buffering cross-shard sends per destination.
fn drain_window<W: ShardWorld>(slot: &mut ShardSlot<W>, s: usize, sh: &Shared<'_, W>, wend: u64) {
    loop {
        match slot.queue.peek_time() {
            Some(t) if t.0 < wend && t.0 <= sh.hcap => {}
            _ => break,
        }
        let (t, event) = slot.queue.pop().expect("peeked");
        debug_assert!(t >= slot.now, "clock must be monotone");
        slot.now = t;
        let mut ctx = ShardCtx {
            now: t,
            shard: s as u32,
            nshards: sh.n as u32,
            lookahead: sh.lookahead,
            queue: &mut slot.queue,
            outbufs: &mut slot.outbufs,
            remote_sent: &mut slot.remote_sent,
        };
        slot.world.handle(&mut ctx, event);
        slot.dispatched += 1;
    }
}

/// Publish this window's outbound buffers, one `push_batch` per
/// non-empty buffer: a single release store per (src, dst) pair per
/// window.
fn flush_outbufs<W: ShardWorld>(slot: &mut ShardSlot<W>, s: usize, sh: &Shared<'_, W>) {
    for dst in 0..sh.n {
        if dst != s && !slot.outbufs[dst].is_empty() {
            sh.channels[s * sh.n + dst].push_batch(&mut slot.outbufs[dst]);
        }
    }
}

/// Merge everything other shards sent to shard `s` into its queue.
/// Arrival order is irrelevant: `push_keyed` restores the global
/// `(time, key)` order.
fn merge_inbox<W: ShardWorld>(slot: &mut ShardSlot<W>, s: usize, sh: &Shared<'_, W>) {
    for src in 0..sh.n {
        sh.channels[src * sh.n + s].drain_into(&mut slot.inbox);
    }
    for r in slot.inbox.drain(..) {
        debug_assert!(r.time >= slot.now, "remote event inside a drained window");
        slot.queue.push_keyed(r.time, r.key, r.event);
    }
}

/// The workers' rendezvous: a generation counter that waiters poll,
/// yielding the CPU between polls.
///
/// A window is microseconds of work, so under a barrier that sleeps the
/// run's wall-clock is the kernel's cross-CPU wake-up latency, three
/// times per window — and that latency is no constant of the host
/// (docs/PERFORMANCE.md, "The barrier must not sleep"). Polling keeps
/// waiters off the sleep path; `yield_now` between polls hands the CPU
/// to any runnable peer, so more shards than cores still advance every
/// scheduler turn.
struct WindowBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl WindowBarrier {
    fn new(n: usize) -> Self {
        WindowBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Returns once all `n` workers have called `wait` this generation.
    /// Everything a worker wrote before `wait` is visible to every
    /// worker after it (AcqRel arrivals chain into the last arriver's
    /// Release of the new generation).
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset before release: no peer re-enters until it has seen
            // the new generation.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation.wrapping_add(1), Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == generation {
                std::thread::yield_now();
            }
        }
    }
}

/// One shard's worker loop: three barrier waits per window.
///
/// 1. publish the local minimum, barrier, so every shard sees all minima;
/// 2. compute the window bounds (identically on every shard), barrier,
///    so no shard can republish its minimum for the *next* window while
///    a peer is still reading this one's;
/// 3. drain the window, flush, barrier, then merge inbound channels —
///    the barrier orders every producer's channel pushes before every
///    consumer's drain.
#[allow(clippy::too_many_arguments)]
fn worker<W: ShardWorld>(
    s: usize,
    slot: &mut ShardSlot<W>,
    sh: &Shared<'_, W>,
    horizon: Option<SimTime>,
    mins: &[AtomicU64],
    barrier: &WindowBarrier,
    windows: &AtomicU64,
    horizon_hit: &AtomicBool,
) {
    let mut local_mins = vec![u64::MAX; sh.n];
    loop {
        let local_min = published_min(slot);
        // Release/Acquire pairs the min publication with its reads: every
        // shard's window computation observes every peer's freshly stored
        // minimum on its own, without leaning on the ordering the barrier
        // provides: a stale minimum read would widen the conservative
        // window and violate lookahead.
        mins[s].store(local_min, Ordering::Release);
        barrier.wait();
        for (lm, m) in local_mins.iter_mut().zip(mins.iter()) {
            *lm = m.load(Ordering::Acquire);
        }
        barrier.wait();
        let gmin = *local_mins.iter().min().expect("n >= 1");
        if gmin == u64::MAX {
            break;
        }
        if horizon.is_some_and(|h| gmin > h.0) {
            if s == 0 {
                horizon_hit.store(true, Ordering::Relaxed);
            }
            break;
        }
        if s == 0 {
            windows.fetch_add(1, Ordering::Relaxed);
        }
        let wend = window_end(sh.lookahead, &local_mins, s);
        drain_window(slot, s, sh, wend);
        flush_outbufs(slot, s, sh);
        barrier.wait();
        merge_inbox(slot, s, sh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong world: rank r bounces a token to rank (r+1)%hosts,
    /// `hops` times, one hop per lookahead-multiple. Rank state is the
    /// hop count; keys are rank-derived, so any shard count must
    /// produce the identical trace.
    struct PingWorld {
        part: Partition,
        base: u32,
        /// (hops remaining, per-rank event seq) for each local rank.
        ranks: Vec<(u32, u64)>,
        log: Vec<(u64, u32)>,
    }

    #[derive(Debug, Clone)]
    struct Token {
        rank: u32,
        hops_left: u32,
    }

    impl PingWorld {
        fn key(&mut self, rank: u32) -> u64 {
            let st = &mut self.ranks[(rank - self.base) as usize];
            st.1 += 1;
            ((rank as u64) << 32) | st.1
        }
    }

    impl ShardWorld for PingWorld {
        type Event = Token;
        fn handle(&mut self, ctx: &mut ShardCtx<'_, Token>, ev: Token) {
            self.log.push((ctx.now().0, ev.rank));
            self.ranks[(ev.rank - self.base) as usize].0 += 1;
            if ev.hops_left == 0 {
                return;
            }
            let next = (ev.rank + 1) % self.part.hosts;
            let key = self.key(ev.rank);
            let at = SimTime(ctx.now().0 + ctx.lookahead().0);
            ctx.send(
                self.part.shard_of(next),
                at,
                key,
                Token {
                    rank: next,
                    hops_left: ev.hops_left - 1,
                },
            );
        }
    }

    fn ping_worlds(part: Partition) -> Vec<PingWorld> {
        (0..part.nshards)
            .map(|sh| {
                let ranks = part.ranks_of(sh);
                PingWorld {
                    part,
                    base: ranks.start,
                    ranks: ranks.map(|_| (0, 0)).collect(),
                    log: Vec::new(),
                }
            })
            .collect()
    }

    fn seed_ping(sim: &mut ShardSim<PingWorld>, part: Partition, hosts: u32, hops: u32) {
        for r in 0..hosts {
            sim.schedule(
                part.shard_of(r),
                SimTime(r as u64),
                (r as u64) << 32,
                Token {
                    rank: r,
                    hops_left: hops,
                },
            );
        }
    }

    fn run_ping(hosts: u32, nshards: u32, parallel: bool) -> (ShardRunStats, Vec<(u64, u32)>) {
        let part = Partition::block(hosts, nshards);
        let mut sim = ShardSim::uniform(ping_worlds(part), SimDuration(100));
        seed_ping(&mut sim, part, hosts, 40);
        let stats = sim.run(parallel, None);
        // Merge per-shard logs into one global trace ordered by (time, rank).
        let mut log: Vec<(u64, u32)> = sim.worlds().flat_map(|w| w.log.iter().copied()).collect();
        log.sort_unstable();
        (stats, log)
    }

    #[test]
    fn partition_is_exact_and_contiguous() {
        for hosts in [1u32, 5, 16, 31, 1024] {
            for n in [1u32, 2, 3, 4, 7] {
                let p = Partition::block(hosts, n);
                let mut covered = 0u32;
                for s in 0..p.nshards {
                    let r = p.ranks_of(s);
                    assert_eq!(r.start, covered, "shards must tile contiguously");
                    for rank in r.clone() {
                        assert_eq!(p.shard_of(rank), s);
                    }
                    covered = r.end;
                }
                assert_eq!(covered, hosts);
            }
        }
    }

    #[test]
    fn window_end_math() {
        let l = SimDuration(100);
        // mins: shard 0 at 1000, shard 1 at 2000, shard 2 empty.
        let mins = [1000u64, 2000, u64::MAX];
        // A peer's pending work arrives one lookahead later, the own
        // shard's two (out to a peer and back).
        assert_eq!(window_end(l, &mins, 0), 1200); // min(1000+200, 2000+100)
        assert_eq!(window_end(l, &mins, 1), 1100); // min(1000+100, 2000+200)
        assert_eq!(window_end(l, &mins, 2), 1100);
        // With every peer idle, a shard's own pending work still bounds
        // its window through the round trip — a single-edge formula
        // returned MAX here and drained events its own in-flight sends
        // were about to invalidate.
        let solo = [1000u64, u64::MAX, u64::MAX];
        assert_eq!(window_end(l, &solo, 0), 1200);
        // An empty system never schedules a window; a lone shard has no
        // peer to rebound from.
        assert_eq!(window_end(l, &[u64::MAX; 3], 0), u64::MAX);
        assert_eq!(window_end(l, &[1000], 0), u64::MAX);
    }

    #[test]
    fn shard_counts_produce_identical_traces() {
        let (base_stats, base_log) = run_ping(8, 1, false);
        assert_eq!(base_stats.events_dispatched, 8 * 41);
        // Hops are `ctx.lookahead()` apart: the last token (seeded at
        // t = 7, 40 hops) pins it to the construction value on one shard,
        // and the trace equality below on every other count.
        assert_eq!(base_stats.end_time, SimTime(7 + 40 * 100));
        for nshards in [2u32, 4] {
            let runs = [false, true].map(|parallel| run_ping(8, nshards, parallel));
            for (stats, log) in &runs {
                assert_eq!(log, &base_log, "nshards={nshards}");
                assert_eq!(stats.events_dispatched, base_stats.events_dispatched);
                assert_eq!(stats.end_time, base_stats.end_time);
            }
            // Window and cross-shard counts come from published minima,
            // never thread timing: serial == threaded.
            assert_eq!(runs[0].0.windows, runs[1].0.windows);
            assert_eq!(runs[0].0.remote_events, runs[1].0.remote_events);
        }
    }

    /// Two chains engineered so a cross-shard event lands exactly on
    /// the receiver's window edge: rank 0 (shard 0) ticks at
    /// t=100,200,... and fires a remote notification at `tick+100` into
    /// shard 1; rank 1 (shard 1) ticks at t=150,250,... — a window that
    /// drained shard 1's t=250 tick before merging shard 0's t=200
    /// notification would reorder the log.
    struct StragglerWorld {
        part: Partition,
        base: u32,
        /// (ticks remaining, send seq) per local rank.
        ranks: Vec<(u32, u64)>,
        log: Vec<(u64, u64, u8)>,
    }

    #[derive(Clone, Debug)]
    enum SEv {
        Tick { rank: u32 },
        Note { rank: u32 },
    }

    impl ShardWorld for StragglerWorld {
        type Event = SEv;
        fn handle(&mut self, ctx: &mut ShardCtx<'_, SEv>, ev: SEv) {
            match ev {
                SEv::Tick { rank } => {
                    let st = &mut self.ranks[(rank - self.base) as usize];
                    st.0 -= 1;
                    st.1 += 1;
                    let key = ((rank as u64) << 32) | st.1;
                    self.log.push((ctx.now().0, key, 0));
                    let remaining = st.0;
                    if remaining > 0 {
                        ctx.at(SimTime(ctx.now().0 + 100), key, SEv::Tick { rank });
                    }
                    if rank == 0 {
                        // Cross-shard straggler: lands exactly at the
                        // receiving shard's next window edge.
                        let st = &mut self.ranks[(rank - self.base) as usize];
                        st.1 += 1;
                        let nkey = ((rank as u64) << 32) | st.1;
                        ctx.send(
                            self.part.shard_of(1),
                            SimTime(ctx.now().0 + 100),
                            nkey,
                            SEv::Note { rank: 1 },
                        );
                    }
                }
                SEv::Note { rank } => {
                    self.log.push((ctx.now().0, (rank as u64) << 48, 1));
                }
            }
        }
    }

    fn run_straggler(nshards: u32, parallel: bool) -> (ShardRunStats, Vec<(u64, u64, u8)>) {
        let part = Partition::block(2, nshards);
        let worlds: Vec<StragglerWorld> = (0..part.nshards)
            .map(|sh| {
                let ranks = part.ranks_of(sh);
                StragglerWorld {
                    part,
                    base: ranks.start,
                    ranks: ranks.map(|_| (10, 0)).collect(),
                    log: Vec::new(),
                }
            })
            .collect();
        let mut sim = ShardSim::uniform(worlds, SimDuration(100));
        sim.schedule(part.shard_of(0), SimTime(100), 0, SEv::Tick { rank: 0 });
        sim.schedule(part.shard_of(1), SimTime(150), 1 << 32, SEv::Tick { rank: 1 });
        let stats = sim.run(parallel, None);
        let mut log: Vec<(u64, u64, u8)> =
            sim.worlds().flat_map(|w| w.log.iter().copied()).collect();
        log.sort_unstable();
        (stats, log)
    }

    #[test]
    fn straggler_at_window_edge_stays_deterministic() {
        let (base_stats, base_log) = run_straggler(1, false);
        for parallel in [false, true] {
            let (stats, log) = run_straggler(2, parallel);
            assert_eq!(log, base_log, "parallel={parallel}");
            assert_eq!(stats.events_dispatched, base_stats.events_dispatched);
            assert_eq!(stats.end_time, base_stats.end_time);
        }
    }

    #[test]
    fn remote_events_are_counted() {
        let (stats, _) = run_ping(8, 4, true);
        // Hops from the last rank of one shard to the first of the next
        // cross a boundary; with 8 ranks on 4 shards half of all hops do.
        assert!(stats.remote_events > 0);
        assert!(stats.windows > 0);
    }

    /// Targeted race test for the cross-shard min-time handoff (runs
    /// under the scheduled TSan job via the `shard` filter): N threads
    /// repeat the worker loop's publish/compute protocol on the worker
    /// loop's own barrier — Release-store a local minimum, barrier,
    /// Acquire-load all minima — and every thread must compute the true
    /// global minimum of the values actually published this window. A
    /// stale read, or a waiter released a generation early, surfaces as
    /// a mismatch here and as a data race under TSan.
    #[test]
    fn shard_min_handoff_never_reads_stale_minima() {
        const THREADS: usize = 4;
        const WINDOWS: u64 = 500;
        let mins: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
        let barrier = WindowBarrier::new(THREADS);
        std::thread::scope(|scope| {
            let mins = &mins;
            let barrier = &barrier;
            for t in 0..THREADS {
                scope.spawn(move || {
                    // Deterministic per-thread value stream; every thread
                    // can recompute every peer's publication for the
                    // window and hence the expected minimum.
                    let val = |thread: u64, window: u64| {
                        crate::rng::SplitMix64::new(thread ^ (window << 8)).next_u64()
                    };
                    for w in 0..WINDOWS {
                        mins[t].store(val(t as u64, w), Ordering::Release);
                        barrier.wait();
                        let gmin = mins
                            .iter()
                            .map(|m| m.load(Ordering::Acquire))
                            .min()
                            .expect("n >= 1");
                        let expect =
                            (0..THREADS as u64).map(|p| val(p, w)).min().expect("n >= 1");
                        assert_eq!(gmin, expect, "thread {t} read a stale minimum in window {w}");
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn horizon_is_event_granular() {
        // Events land at 0,100,...; horizon 500 admits exactly t <= 500
        // (six events), never a "same window but past the horizon"
        // straggler.
        let part = Partition::block(4, 2);
        let worlds = ping_worlds(part);
        let mut sim = ShardSim::uniform(worlds, SimDuration(100));
        sim.schedule(0, SimTime::ZERO, 0, Token { rank: 0, hops_left: 1000 });
        let stats = sim.run(true, Some(SimTime(500)));
        assert_eq!(stats.events_dispatched, 6);
        assert!(stats.horizon_reached);
        assert_eq!(stats.end_time, SimTime(500));
    }
}
