//! Spans recorded from outside the program: the benchmark wraps each
//! call it makes into a layer's public function, keeps the spans in
//! memory and writes them out when the run ends.

use serde_json::value::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    pub name: String,
    pub workload: &'static str,
    pub iteration: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the call reported (messages, transitions, tables).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token for an open span; `None` while recording is off.
pub struct Open(Option<u32>);

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    workload: &'static str,
    iteration: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            iteration: 0,
        }
    }

    /// Label the spans that follow.
    pub fn scope(&mut self, workload: &'static str, iteration: u32) {
        self.workload = workload;
        self.iteration = iteration;
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            workload: self.workload,
            iteration: self.iteration,
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Record one call as a leaf span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open, 1);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Summed duration and count of the spans called `name` in one
/// iteration of one workload.
pub fn total(spans: &[Span], workload: &str, iteration: u32, name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.workload == workload && s.iteration == iteration && s.name == name)
        .fold((0, 0), |(d, c), s| (d + s.duration_ns(), c + s.count))
}

/// Self time of every span, indexed by span id: its duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

pub fn to_json(spans: &[Span]) -> Value {
    let own = self_times(spans);
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), Value::U64(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("workload".into(), Value::Str(s.workload.to_string())),
                    ("iteration".into(), Value::U64(s.iteration as u64)),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("self_ns".into(), Value::U64(own[s.id as usize])),
                    ("count".into(), Value::U64(s.count)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            workload: "w",
            iteration: 1,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0 [0,100] > 1 [10,60] > 2 [20,30]; 0 > 3 [70,90]
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn tracer_nests_and_labels_spans() {
        let mut tr = Tracer::new(true);
        tr.scope("w", 3);
        let outer = tr.begin("outer");
        let got = tr.time("inner", || 7);
        tr.end(outer, 5);
        assert_eq!(got, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            (spans[0].workload, spans[0].iteration, spans[0].count),
            ("w", 3, 5)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(total(spans, "w", 3, "inner").1, 1);
        assert_eq!(total(spans, "w", 2, "inner"), (0, 0));
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin("x");
        tr.end(open, 1);
        assert!(tr.spans().is_empty());
    }
}
