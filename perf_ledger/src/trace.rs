//! Harness-side tracing and the per-layer self-time table.
//!
//! The ledger records a span around every public call it makes into the
//! program (name, start, end, parent, op id) and opens a `pqe-obs` span of
//! the same name, so the program's own aggregated spans (`compile →
//! ur_automaton / translate / multipliers / translate_gadgets`, `execute →
//! count.nfta → rep → init / union_mc`, `graph.compile`, `graph.count`)
//! nest under the harness layer that called them.
//!
//! `pqe-obs` sums span time across threads. Below `count.nfta` /
//! `count.nfa` the repetitions fan out over the worker pool, so the table
//! converts that subtree to wall-clock equivalents by dividing by the
//! thread count; the counter span's own self time is then exactly the time
//! its workers sat idle.

use crate::json::Json;
use pqe_obs::span::SpanNode;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One harness span.
#[derive(Debug, Clone)]
pub struct Record {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing record, if any.
    pub parent: Option<usize>,
    pub op: usize,
}

/// Records harness spans while enabled; a disabled tracer only runs the
/// closures.
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: Cell<usize>,
    records: RefCell<Vec<Record>>,
    open: RefCell<Vec<usize>>,
}

/// Harness span records kept per run; enough for every op of a traced
/// round on every workload, bounded so a trace file stays small.
const MAX_RECORDS: usize = 200_000;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            op: Cell::new(0),
            records: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_op(&self, op: usize) {
        self.op.set(op);
    }

    /// Runs `f` inside the span `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let _obs = pqe_obs::span::span(name);
        let start_us = self.t0.elapsed().as_secs_f64() * 1e6;
        let idx = {
            let mut recs = self.records.borrow_mut();
            if recs.len() >= MAX_RECORDS {
                None
            } else {
                let parent = self.open.borrow().last().copied();
                recs.push(Record {
                    name,
                    start_us,
                    end_us: start_us,
                    parent,
                    op: self.op.get(),
                });
                Some(recs.len() - 1)
            }
        };
        if let Some(i) = idx {
            self.open.borrow_mut().push(i);
        }
        let v = f();
        if let Some(i) = idx {
            self.open.borrow_mut().pop();
            self.records.borrow_mut()[i].end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        }
        v
    }

    /// Durations (µs) of every recorded span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.records
            .borrow()
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.end_us - r.start_us)
            .collect()
    }

    pub fn records_json(&self) -> Json {
        Json::Arr(
            self.records
                .borrow()
                .iter()
                .map(|r| {
                    Json::obj([
                        ("name", Json::str(r.name)),
                        ("start_us", Json::from(r.start_us)),
                        ("end_us", Json::from(r.end_us)),
                        ("parent", r.parent.map_or(Json::Null, Json::from)),
                        ("op", Json::from(r.op)),
                    ])
                })
                .collect(),
        )
    }
}

/// Spans that only group their children: their self time is work no
/// named layer covers (E12's membership/SIR gap sits in `rep`).
const CONTAINERS: &[&str] = &[
    "op",
    "execute",
    "count.nfta",
    "count.nfa",
    "rep",
    "graph.count",
];

/// A span-tree node with wall-clock-equivalent totals.
#[derive(Debug, Clone)]
pub struct Row {
    pub path: String,
    pub name: String,
    pub depth: usize,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    /// Time summed across threads (before the fan-out conversion).
    pub cpu_ms: f64,
}

/// The self-time table of one traced workload.
#[derive(Debug, Clone)]
pub struct Table {
    pub rows: Vec<Row>,
    /// Harness-measured wall time of the traced ops.
    pub wall_ms: f64,
    pub threads: usize,
}

impl Table {
    /// Builds the table from a `pqe-obs` snapshot taken after the traced
    /// rounds. `wall_ms` is the harness-measured wall time of those rounds.
    pub fn build(roots: &[SpanNode], wall_ms: f64, threads: usize) -> Table {
        fn walk(
            n: &SpanNode,
            parent: Option<&str>,
            prefix: &str,
            depth: usize,
            scale: f64,
            threads: usize,
            rows: &mut Vec<Row>,
        ) {
            let fan_out = n.name == "rep" && matches!(parent, Some("count.nfta" | "count.nfa"));
            let scale = if fan_out {
                scale / threads as f64
            } else {
                scale
            };
            let total_ms = n.total_ns as f64 / 1e6 * scale;
            let child_scale = |c: &SpanNode| {
                if c.name == "rep" && matches!(n.name.as_str(), "count.nfta" | "count.nfa") {
                    scale / threads as f64
                } else {
                    scale
                }
            };
            let children_ms: f64 = n
                .children
                .iter()
                .map(|c| c.total_ns as f64 / 1e6 * child_scale(c))
                .sum();
            let path = if prefix.is_empty() {
                n.name.clone()
            } else {
                format!("{prefix}/{}", n.name)
            };
            rows.push(Row {
                path: path.clone(),
                name: n.name.clone(),
                depth,
                count: n.count,
                total_ms,
                self_ms: total_ms - children_ms,
                cpu_ms: n.total_ns as f64 / 1e6,
            });
            for c in &n.children {
                walk(c, Some(&n.name), &path, depth + 1, scale, threads, rows);
            }
        }
        let mut rows = Vec::new();
        for r in roots.iter().filter(|r| r.name == "op") {
            walk(r, None, "", 0, 1.0, threads.max(1), &mut rows);
        }
        Table {
            rows,
            wall_ms,
            threads,
        }
    }

    fn sum(&self, pred: impl Fn(&Row) -> bool, f: impl Fn(&Row) -> f64) -> f64 {
        self.rows.iter().filter(|r| pred(r)).map(f).sum()
    }

    /// Total (wall-equivalent ms) of every node named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.sum(|r| r.name == name, |r| r.total_ms)
    }

    /// Self time (wall-equivalent ms) of every node named `name`.
    pub fn self_of(&self, name: &str) -> f64 {
        self.sum(|r| r.name == name, |r| r.self_ms)
    }

    /// Summed-across-threads time of every node named `name`.
    pub fn cpu(&self, name: &str) -> f64 {
        self.sum(|r| r.name == name, |r| r.cpu_ms)
    }

    /// Time inside the traced ops that no named layer covers: the self
    /// time of the grouping spans, plus harness time between ops.
    pub fn unattributed_ms(&self) -> f64 {
        let op_total = self.total("op");
        self.sum(|r| CONTAINERS.contains(&r.name.as_str()), |r| r.self_ms)
            + (self.wall_ms - op_total)
    }

    /// Self time of the grouping spans under `execute` (the counting
    /// phase not covered by `init` or `union_mc`).
    pub fn execute_unattributed_ms(&self) -> f64 {
        self.sum(
            |r| r.name != "op" && CONTAINERS.contains(&r.name.as_str()),
            |r| r.self_ms,
        )
    }

    /// Share of the traced wall time the layer rows plus `unattributed`
    /// account for (1.0 = complete attribution).
    pub fn coverage(&self) -> f64 {
        let layers = self.sum(|r| !CONTAINERS.contains(&r.name.as_str()), |r| r.self_ms);
        (layers + self.unattributed_ms()) / self.wall_ms
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<46} {:>9} {:>11} {:>11} {:>7}\n",
            "span (self time, wall-clock ms)", "count", "total_ms", "self_ms", "self%"
        );
        let pct = |ms: f64| 100.0 * ms / self.wall_ms;
        for r in &self.rows {
            let mark = if CONTAINERS.contains(&r.name.as_str()) {
                " *"
            } else {
                ""
            };
            out += &format!(
                "{:<46} {:>9} {:>11.3} {:>11.3} {:>6.1}%{mark}\n",
                format!("{}{}", "  ".repeat(r.depth), r.name),
                r.count,
                r.total_ms,
                r.self_ms,
                pct(r.self_ms)
            );
        }
        let un = self.unattributed_ms();
        out += &format!(
            "{:<46} {:>9} {:>11} {:>11.3} {:>6.1}%\n",
            "unattributed (* rows + harness glue)",
            "",
            "",
            un,
            pct(un)
        );
        out += &format!(
            "layers + unattributed = {:.1}% of traced wall time {:.3} ms ({} threads; spans under count.* divided by threads)\n",
            100.0 * self.coverage(),
            self.wall_ms,
            self.threads
        );
        out
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_ms", Json::from(self.wall_ms)),
            ("threads", Json::from(self.threads)),
            ("unattributed_ms", Json::from(self.unattributed_ms())),
            ("coverage", Json::from(self.coverage())),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("path", Json::str(r.path.clone())),
                                ("count", Json::from(r.count)),
                                ("total_ms", Json::from(r.total_ms)),
                                ("self_ms", Json::from(r.self_ms)),
                                ("cpu_ms", Json::from(r.cpu_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, total_ms: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.into(),
            count: 1,
            total_ns: total_ms * 1_000_000,
            children,
        }
    }

    #[test]
    fn fan_out_is_converted_to_wall_clock() {
        // 100 ms of counting on 2 threads whose repetitions summed 160 ms
        // of thread time: 80 ms busy, 20 ms idle.
        let roots = vec![node(
            "op",
            110,
            vec![node(
                "core.execute",
                100,
                vec![node(
                    "execute",
                    100,
                    vec![node(
                        "count.nfta",
                        100,
                        vec![node("rep", 160, vec![node("union_mc", 120, vec![])])],
                    )],
                )],
            )],
        )];
        let t = Table::build(&roots, 111.0, 2);
        assert_eq!(t.self_of("count.nfta"), 20.0);
        assert_eq!(t.self_of("rep"), 20.0);
        assert_eq!(t.self_of("union_mc"), 60.0);
        assert_eq!(t.cpu("rep"), 160.0);
        // op self 10 + count.nfta 20 + rep 20 + glue 1.
        assert_eq!(t.unattributed_ms(), 51.0);
        assert!((t.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.durations_us("x").is_empty());
        let t = Tracer::new(true);
        t.span("outer", || t.span("inner", || ()));
        assert_eq!(t.durations_us("inner").len(), 1);
        assert_eq!(t.records.borrow()[1].parent, Some(0));
    }
}
