//! Spans around the calls the benchmark makes into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the point
//! (one policy run of the workload) it belongs to. Spans stay in memory and
//! are written out once, when the run ends. A span's self time is its
//! duration minus the part of that interval its children cover.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub point: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled it only times, so traced and
/// untraced passes run the same benchmark code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    point: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            point: 0,
        }
    }

    /// The instant span times count from, for clocks read outside the tracer.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to `point`.
    pub fn set_point(&mut self, point: u32) {
        self.point = point;
    }

    /// Open a span under the innermost open one. Returns its id for
    /// [`Tracer::exit`] (meaningless when disabled).
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            point: self.point,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` and, when enabled, record it as a span. Returns the result,
    /// the seconds it took and the span's id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64, usize) {
        let id = self.enter(name);
        let t0 = Instant::now();
        let result = f();
        let secs = t0.elapsed().as_secs_f64();
        self.exit(id);
        (result, secs, id)
    }

    /// Add a finished span measured elsewhere (the policy decorator's
    /// `decide` calls, made while `run_scenario` holds the policy).
    pub fn add_child(&mut self, parent: usize, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let point = self.spans[parent].point;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                point,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"point\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.point,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span (children may overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in intervals {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The largest relative gap, over spans that have children, between a span's
/// duration and its self time plus its direct children's self-inclusive
/// durations. 0 when children never overlap or leave their parent.
pub fn worst_self_time_gap(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.duration_ns();
        }
    }
    (0..spans.len())
        .filter(|&i| child_sum[i] > 0 && spans[i].duration_ns() > 0)
        .map(|i| {
            let total = (selfs[i] + child_sum[i]) as f64;
            (total - spans[i].duration_ns() as f64).abs() / spans[i].duration_ns() as f64
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            point: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
        assert_eq!(worst_self_time_gap(&spans), 0.0);
        // Self times of a tree add up to its root.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_escaping_children_are_not_counted_twice() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a by 10
            span("c", 190, 230, Some(0)), // leaves the parent by 30
            span("d", 120, 130, Some(0)), // inside a
        ];
        // Covered: [110,160) and [190,200) = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
        assert!(worst_self_time_gap(&spans) > 0.01);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut off = Tracer::new(false);
        let (value, secs, _) = off.span("x", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.set_point(3);
        let outer = on.enter("outer");
        let (_, _, inner) = on.span("inner", || ());
        on.add_child(inner, "leaf", 1, 2);
        on.exit(outer);
        let names: Vec<_> = on
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.point))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 3),
                ("inner", Some(0), 3),
                ("leaf", Some(1), 3)
            ]
        );
        assert!(on.to_json().contains("\"name\": \"leaf\""));
    }
}
