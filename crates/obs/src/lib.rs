//! Observability plane for the Polaris stack: a virtual-time flight
//! recorder plus a metrics registry, both deterministic by
//! construction.
//!
//! Every timestamp entering this crate is a raw `u64` picosecond count
//! taken from the simnet virtual clock, so two runs with the same seeds
//! produce byte-identical exports — the trace-replay CI job diffs them.
//! The crate is deliberately a leaf (no dependency on simnet) so every
//! layer of the stack, simnet included, can depend on it. A count is
//! kept once: a layer with stats of its own (the network's getters,
//! the NIC's `FabricStats`, the endpoint's `EndpointStats`) publishes
//! no copy here. The registry holds what the fault injector, the fleet
//! run, the serving plane and the figure harness publish; the recorder
//! holds fault events and the endpoints' rendezvous and retransmit
//! traces.
//!
//! Three pieces:
//!
//! * [`metrics`] — monotonic [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   latency [`Histogram`]s (16 sub-buckets per octave, covering all of
//!   `u64` without gaps), collected in a [`Registry`] keyed by
//!   name + sorted labels.
//! * [`trace`] — the [`FlightRecorder`]: a bounded ring of structured
//!   [`TraceEvent`]s (span enter/exit and instants) keyed by
//!   node/link/peer [`Subject`]s.
//! * [`export`] — Prometheus-style text and JSON snapshot exporters
//!   with fully deterministic formatting (sorted keys, no wall-clock).
//!
//! Beside them, [`alloc`] is a counting allocator that test binaries
//! install to bound the calls and bytes a code path allocates.

pub mod alloc;
pub mod export;
pub mod metrics;
pub mod trace;

pub use export::{to_json, to_prometheus};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{FlightRecorder, Phase, Subject, TraceEvent};

/// The observability bundle handed to each layer: one shared metrics
/// registry plus one shared flight recorder. Clones are cheap (both
/// members are `Arc`-backed) and all clones observe the same state.
#[derive(Clone, Default)]
pub struct Obs {
    pub registry: Registry,
    pub recorder: FlightRecorder,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Handles are opaque shared state; identity is all Debug needs.
        f.write_str("Obs")
    }
}

impl Obs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bundle whose recorder keeps at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Obs {
            registry: Registry::new(),
            recorder: FlightRecorder::with_capacity(capacity),
        }
    }

    /// Shorthand for [`Registry::counter`].
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.registry.counter(name, labels)
    }

    /// Shorthand for [`Registry::gauge`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.registry.gauge(name, labels)
    }

    /// Shorthand for [`Registry::histogram`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.registry.histogram(name, labels)
    }

    /// Record a point-in-time trace event.
    pub fn instant(
        &self,
        at_ps: u64,
        subject: Subject,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        self.recorder.instant(at_ps, subject, name, fields);
    }

    /// Open a span; pair with [`Obs::exit`] using the same subject/name.
    pub fn enter(
        &self,
        at_ps: u64,
        subject: Subject,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        self.recorder.enter(at_ps, subject, name, fields);
    }

    /// Close a span opened with [`Obs::enter`].
    pub fn exit(
        &self,
        at_ps: u64,
        subject: Subject,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        self.recorder.exit(at_ps, subject, name, fields);
    }

    /// Fold another bundle's state into this one: registry series merge
    /// per [`Registry::merge_from`]; trace events append in `other`'s
    /// order with re-stamped sequence numbers per
    /// [`FlightRecorder::merge_from`]. The parallel sweep harness gives
    /// each trial an isolated bundle and merges them back in trial
    /// order, so exports are identical to a serial run's.
    pub fn merge_from(&self, other: &Obs) {
        self.registry.merge_from(&other.registry);
        self.recorder.merge_from(&other.recorder);
    }

    /// Prometheus-style text exposition of the registry.
    pub fn prometheus(&self) -> String {
        export::to_prometheus(&self.registry)
    }

    /// JSON snapshot of registry + recorder metadata.
    pub fn json(&self) -> String {
        export::to_json(&self.registry)
    }
}
