//! In-memory spans around the calls into each layer, written out after
//! the last pass.
//!
//! A span's name is `<layer>.<what>`; its layer is the part before the
//! dot. The recorder is switched off for the end-to-end run, where
//! [`Recorder::span`] is a plain call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Traced pass the span belongs to.
    pub pass: u32,
    /// Op of the pass the span belongs to (its request identifier).
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans and named values while switched on.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
    values: BTreeMap<&'static str, f64>,
    pass: u32,
    op: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            last_closed: None,
            values: BTreeMap::new(),
            pass: 0,
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Marks the pass and op the following spans belong to.
    pub fn at(&mut self, pass: u32, op: u32) {
        self.pass = pass;
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass: self.pass,
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        self.last_closed = Some(id);
        out
    }

    /// Adds children to the span that just ended, from durations the
    /// call returned instead of from clocks around it. The children are
    /// laid end to end from the parent's start and clipped to it.
    pub fn synthesize_children(&mut self, children: &[(&'static str, u64)]) {
        if !self.on {
            return;
        }
        let Some(parent) = self.last_closed else {
            return;
        };
        let (mut at, end, pass, op) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.pass, p.op)
        };
        for &(name, dur_ns) in children {
            let stop = (at + dur_ns).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                pass,
                op,
            });
            at = stop;
        }
    }

    /// Adds `v` to the value called `name`: a count, or a duration the
    /// call returned.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.values.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands over the values added since the last call (they are kept
    /// per pass).
    pub fn take_values(&mut self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.values)
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per span name, one pass's total of `per_span` (durations or self
/// times, in nanoseconds) in milliseconds: the smallest over passes of
/// each call's value (the host only ever adds time), summed over the
/// calls of a pass. A call is identified by its op and its position
/// among the same-named spans of that op.
pub fn per_pass_ms(spans: &[Span], per_span: &[u64]) -> BTreeMap<&'static str, f64> {
    let mut calls: BTreeMap<(&'static str, u32, u32), u64> = BTreeMap::new();
    let mut nth: BTreeMap<(&'static str, u32, u32), u32> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(per_span) {
        let k = nth.entry((s.name, s.pass, s.op)).or_insert(0);
        let best = calls.entry((s.name, s.op, *k)).or_insert(u64::MAX);
        *best = ns.min(*best);
        *k += 1;
    }
    let mut out = BTreeMap::new();
    for ((name, _, _), ns) in calls {
        *out.entry(name).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// One row of the per-layer table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerRow {
    pub spans: u64,
    /// Time inside spans of the layer not nested in a span of the same
    /// layer.
    pub busy_ms: f64,
    /// Busy time minus the part child spans of other layers cover.
    pub self_ms: f64,
}

/// The per-layer table over `spans`: count, busy and self time.
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, LayerRow> {
    let own = self_times(spans);
    let mut table: BTreeMap<String, LayerRow> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let layer = layer_of(s.name);
        let row = table.entry(layer.to_string()).or_default();
        row.spans += 1;
        row.self_ms += own_ns as f64 / 1e6;
        let nested_in_same_layer = s.parent.is_some_and(|p| layer_of(spans[p].name) == layer);
        if !nested_in_same_layer {
            row.busy_ms += s.dur_ns() as f64 / 1e6;
        }
    }
    table
}

/// The spans as Chrome-trace JSON: complete (`"X"`) events in
/// microseconds, one track per pass, with the op and the parent span
/// in `args`.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"benchmark {workload}\"}}}}"
    );
    for (id, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.pass,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("core.parallelize", 10, 90, Some(0)),
            span("core.coco", 20, 50, Some(1)),
            span("mtcg.codegen", 50, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn layer_table_does_not_double_count_nested_spans_of_one_layer() {
        let spans = vec![
            span("core.parallelize", 0, 1_000_000, None),
            span("core.coco", 0, 400_000, Some(0)),
            span("mtcg.codegen", 400_000, 700_000, Some(0)),
        ];
        let t = layer_table(&spans);
        assert_eq!(t["core"].spans, 2);
        assert!((t["core"].busy_ms - 1.0).abs() < 1e-9);
        assert!((t["core"].self_ms - 0.7).abs() < 1e-9);
        assert!((t["mtcg"].busy_ms - 0.3).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut r = Recorder::new(true);
        r.at(1, 7);
        r.span("a.outer", |r| r.span("b.inner", |_| ()));
        r.add("a.n", 2.0);
        r.add("a.n", 3.0);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!((r.spans()[0].pass, r.spans()[0].op), (1, 7));
        assert!(r.spans()[0].start_ns <= r.spans()[1].start_ns);
        assert!(r.spans()[1].end_ns <= r.spans()[0].end_ns);
        assert_eq!(r.take_values()["a.n"], 5.0);
        assert!(r.take_values().is_empty());

        let mut off = Recorder::new(false);
        assert_eq!(off.span("a.outer", |_| 3), 3);
        off.add("a.n", 1.0);
        assert!(off.spans().is_empty() && off.take_values().is_empty());
    }

    #[test]
    fn synthesized_children_are_clipped_to_the_parent() {
        let mut r = Recorder::new(true);
        r.span("harness.evaluate", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = r.spans()[0].dur_ns();
        r.synthesize_children(&[("harness.compile", total / 2), ("harness.exec", total)]);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert_eq!(s[2].end_ns, s[0].end_ns);
        assert_eq!(self_times(s)[0], 0);
    }

    #[test]
    fn busy_per_pass_takes_the_fastest_sample_of_each_call() {
        let mut spans = Vec::new();
        for (pass, dur) in [(0u32, 1_000_000u64), (1, 3_000_000), (2, 2_000_000)] {
            for op in 0..2u32 {
                spans.push(Span {
                    name: "sim.run",
                    start_ns: 0,
                    end_ns: dur * (u64::from(op) + 1),
                    parent: None,
                    pass,
                    op,
                });
            }
        }
        // 1 ms and 2 ms, summed over the two calls of a pass.
        let durations: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        assert!((per_pass_ms(&spans, &durations)["sim.run"] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let spans = vec![
            span("bench.op", 0, 2000, None),
            span("pdg.build", 500, 1500, Some(0)),
        ];
        let json = chrome_json("compile_only", &spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"pdg.build\",\"cat\":\"pdg\""));
        assert!(json.contains("\"parent\":0"));
        assert!(crate::json::parse(&json).is_ok());
    }
}
