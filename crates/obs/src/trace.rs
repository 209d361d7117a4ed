//! The flight recorder: a bounded ring of structured trace events
//! stamped with virtual time.
//!
//! Events carry a [`Subject`] (which entity), a static name (what
//! happened), a [`Phase`] (span enter/exit or instant), and a small
//! set of `u64` fields. Sequence numbers are assigned at record time,
//! so even same-timestamp events have a total order and the JSONL
//! export is byte-stable across replays.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Default ring capacity; deep enough for every figure scenario while
/// bounding memory for long chaos soaks.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The entity a trace event is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subject {
    /// A simulated host.
    Node(u32),
    /// A fabric link.
    Link(u32),
    /// A rank's view of one peer (reliability state machine).
    Peer { rank: u32, peer: u32 },
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Node(n) => write!(f, "node:{n}"),
            Subject::Link(l) => write!(f, "link:{l}"),
            Subject::Peer { rank, peer } => write!(f, "peer:{rank}->{peer}"),
        }
    }
}

/// Span phase of an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Enter,
    Exit,
    Instant,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Enter => "enter",
            Phase::Exit => "exit",
            Phase::Instant => "instant",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Total order over the whole recording, assigned at record time.
    pub seq: u64,
    /// Virtual timestamp, picoseconds.
    pub at_ps: u64,
    pub subject: Subject,
    pub name: &'static str,
    pub phase: Phase,
    pub fields: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// One JSON object, no trailing newline. Field order is fixed
    /// (seq, at_ps, subject, name, phase, fields) and fields keep
    /// their record-time order, so serialization is byte-stable.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"at_ps\":{},\"subject\":\"{}\",\"name\":\"{}\",\"phase\":\"{}\"",
            self.seq,
            self.at_ps,
            self.subject,
            self.name,
            self.phase.as_str()
        );
        if !self.fields.is_empty() {
            s.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{k}\":{v}"));
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

struct RecorderInner {
    capacity: usize,
    next_seq: u64,
    /// Events evicted because the ring was full.
    dropped: u64,
    ring: VecDeque<TraceEvent>,
}

impl RecorderInner {
    /// Give the ring its first allocation (at most 4 096 slots) before
    /// the first record lands; growth from there doubles up to the cap.
    fn size_ring(&mut self) {
        if self.ring.capacity() == 0 {
            self.ring.reserve_exact(self.capacity.min(4096));
        }
    }
}

/// Shared, clonable handle to the event ring.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
                // Sized on the first record: an `Obs` nothing traces
                // into holds no ring.
                ring: VecDeque::new(),
            })),
        }
    }

    fn push(
        &self,
        at_ps: u64,
        subject: Subject,
        name: &'static str,
        phase: Phase,
        fields: &[(&'static str, u64)],
    ) {
        let mut g = self.inner.lock().unwrap();
        g.size_ring();
        if g.ring.len() == g.capacity {
            g.ring.pop_front();
            g.dropped += 1;
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        g.ring.push_back(TraceEvent {
            seq,
            at_ps,
            subject,
            name,
            phase,
            fields: fields.to_vec(),
        });
    }

    pub fn instant(
        &self,
        at_ps: u64,
        subject: Subject,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        self.push(at_ps, subject, name, Phase::Instant, fields);
    }

    pub fn enter(
        &self,
        at_ps: u64,
        subject: Subject,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        self.push(at_ps, subject, name, Phase::Enter, fields);
    }

    pub fn exit(
        &self,
        at_ps: u64,
        subject: Subject,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) {
        self.push(at_ps, subject, name, Phase::Exit, fields);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted due to capacity pressure.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// One JSON object per line, oldest first, trailing newline after
    /// every event. Byte-identical across same-seed replays.
    pub fn to_jsonl(&self) -> String {
        let g = self.inner.lock().unwrap();
        let mut out = String::new();
        for ev in &g.ring {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Append `other`'s retained events to this ring, re-stamping their
    /// sequence numbers from this recorder's counter (virtual
    /// timestamps are kept). Merging per-trial recorders in trial-index
    /// order therefore reproduces the event stream a single shared
    /// recorder would have captured, byte for byte — the property the
    /// parallel sweep harness relies on. Capacity eviction applies as
    /// if the events had been recorded here directly.
    pub fn merge_from(&self, other: &FlightRecorder) {
        let src = other.inner.lock().unwrap();
        let mut g = self.inner.lock().unwrap();
        // Pre-size for the incoming events (bounded by the ring cap) so
        // a sweep merging hundreds of per-point recorders grows the
        // destination ring by doubling from its first size, not per
        // event.
        g.size_ring();
        let incoming = src.ring.len().min(g.capacity.saturating_sub(g.ring.len()));
        g.ring.reserve(incoming);
        for ev in &src.ring {
            if g.ring.len() == g.capacity {
                g.ring.pop_front();
                g.dropped += 1;
            }
            let seq = g.next_seq;
            g.next_seq += 1;
            let mut ev = ev.clone();
            ev.seq = seq;
            g.ring.push_back(ev);
        }
        g.dropped += src.dropped;
    }

    /// Drop all retained events and reset the sequence counter; used
    /// between independent runs sharing one recorder.
    pub fn clear(&self) {
        let mut g = self.inner.lock().unwrap();
        g.ring.clear();
        g.next_seq = 0;
        g.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_total_and_json_is_stable() {
        let r = FlightRecorder::with_capacity(8);
        r.enter(10, Subject::Peer { rank: 0, peer: 1 }, "send", &[("bytes", 4096)]);
        r.exit(20, Subject::Peer { rank: 0, peer: 1 }, "send", &[]);
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(
            evs[0].to_json(),
            "{\"seq\":0,\"at_ps\":10,\"subject\":\"peer:0->1\",\"name\":\"send\",\"phase\":\"enter\",\"fields\":{\"bytes\":4096}}"
        );
        assert!(r.to_jsonl().ends_with("\"phase\":\"exit\"}\n"));
    }

    #[test]
    fn merge_reproduces_a_shared_recorder() {
        // Recording into one shared ring vs recording into two rings and
        // merging them in order must export the same bytes.
        let shared = FlightRecorder::new();
        let a = FlightRecorder::new();
        let b = FlightRecorder::new();
        for r in [&shared, &a] {
            r.instant(10, Subject::Node(0), "boot", &[("ok", 1)]);
            r.enter(20, Subject::Link(3), "xfer", &[]);
        }
        for r in [&shared, &b] {
            r.exit(30, Subject::Link(3), "xfer", &[("bytes", 64)]);
        }
        let merged = FlightRecorder::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.to_jsonl(), shared.to_jsonl());
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn ring_evicts_oldest() {
        let r = FlightRecorder::with_capacity(2);
        for i in 0..5u64 {
            r.instant(i, Subject::Node(0), "tick", &[]);
        }
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(evs[0].seq, 3);
        assert_eq!(evs[1].seq, 4);
    }
}
