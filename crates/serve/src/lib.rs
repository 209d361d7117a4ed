//! # polaris-serve — the serving plane
//!
//! Polaris as a long-running simulation *service* instead of a
//! process-per-answer batch tool. Three performance layers stack to
//! make repeated and near-repeated questions cheap:
//!
//! 1. **Content-addressed result cache** ([`cache`], keyed by
//!    [`canonical`] spec hashes): a canonical field-ordered byte
//!    encoding of every request spec hashes to a 128-bit address;
//!    identical specs — however they were constructed — hit the same
//!    entry. LRU byte-budget eviction, single-flight deduplication
//!    (concurrent identical requests run the simulation once), and
//!    hit/miss/eviction counters through `polaris-obs`.
//! 2. **Engine checkpoint/restore** (`polaris_simnet::shard`'s
//!    `ShardSnapshot`): full `ShardSim` state — calendar queues,
//!    worlds, clocks, lookahead matrix — serialized behind stable IDs,
//!    restoring bit-identically in a fresh simulator or process.
//! 3. **Incremental re-simulation** ([`incremental`]): phase-segmented
//!    workloads snapshot at every phase boundary; a point-mutation of
//!    a cached spec restarts from the latest boundary whose prefix is
//!    unaffected instead of from t=0.
//!
//! [`server`] ties the layers into a [`server::SweepServer`];
//! [`client`] drives it with a closed-loop simulated client population
//! (seeded Zipf over spec space, millions of requests) whose hit
//! ratio, p99 latency, and throughput publish through the obs plane;
//! the benchmark's `serve_zipf` workload and `serve.*` probes time them
//! and `tests/serving.rs` holds the identity verdicts. `docs/SERVING.md`
//! documents keying, the snapshot format, and the stable-ID rules.

pub mod cache;
pub mod canonical;
pub mod client;
pub mod incremental;
pub mod server;
pub mod spec;

pub mod prelude {
    pub use crate::cache::{CacheStats, ResultCache};
    pub use crate::canonical::{Canonical, CanonicalBuf, SpecHash};
    pub use crate::client::{drive, LoadConfig, LoadReport, Zipf};
    pub use crate::incremental::{IncrementalRunner, PhaseCfg, PhasedSpec, SegmentedOutcome};
    pub use crate::server::{FigureResult, SweepServer};
    pub use crate::spec::{figure_specs, PointResult, PointSpec};
}
