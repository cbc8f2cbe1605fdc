//! Satellite: span attribution under `map_chunks` fan-out is
//! deterministic even though scheduling is not — a threaded sample loop
//! under an active span yields the *same span tree* (structure and
//! counts) at 1, 2 and 4 workers, because pqe-obs charges work by name
//! path, `pqe-par` workers adopt their spawner's span context, and
//! helpers adopt the context of the loop they help with.

use pqe_obs::span;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The span registry is process-wide: one test at a time records.
static RECORDING: Mutex<()> = Mutex::new(());

/// `(name, count, children)` skeleton — the worker-count-invariant part
/// of a span tree (total_ns carries timing noise by nature).
#[derive(Debug, PartialEq)]
struct Shape(String, u64, Vec<Shape>);

fn shape(n: &span::SpanNode) -> Shape {
    Shape(
        n.name.clone(),
        n.count,
        n.children.iter().map(shape).collect(),
    )
}

fn run_sample_loop(workers: usize) -> Vec<Shape> {
    let _one = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    span::reset();
    span::set_enabled(true);
    {
        let _loop_span = span::span("sample_loop");
        let out = pqe_par::map_indexed(workers, 64, |i| {
            let _s = span::span("sample");
            let _m = span::span("member_check");
            i * 2
        });
        assert_eq!(out.len(), 64);
    }
    span::set_enabled(false);
    let snap = span::snapshot();
    snap.iter()
        .filter(|r| r.name == "sample_loop")
        .map(shape)
        .collect()
}

#[test]
fn threaded_sample_loop_has_worker_count_invariant_span_tree() {
    let at1 = run_sample_loop(1);
    // The expected tree: one loop entry, 64 samples, each with one check.
    assert_eq!(
        at1,
        vec![Shape(
            "sample_loop".into(),
            1,
            vec![Shape(
                "sample".into(),
                64,
                vec![Shape("member_check".into(), 64, vec![])]
            )]
        )]
    );
    for workers in [2, 4] {
        let at_n = run_sample_loop(workers);
        assert_eq!(at_n, at1, "span tree differs at {workers} workers");
    }
}

/// Three repetitions on `workers` workers; the last runs a nested loop of
/// 16 samples once another worker is out of repetitions, so at 2 and 4
/// workers helpers compute some of its samples.
fn run_helped_loop(workers: usize) -> Vec<Shape> {
    let _one = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    span::reset();
    span::set_enabled(true);
    {
        let _count = span::span("count");
        pqe_par::map_chunks(workers, 3, 1, |r| {
            r.map(|i| {
                let _rep = span::span("rep");
                if i == 2 && workers > 1 {
                    let t0 = Instant::now();
                    while !pqe_par::has_helpers() {
                        assert!(t0.elapsed() < Duration::from_secs(60), "no helper");
                        std::thread::yield_now();
                    }
                }
                if i == 2 {
                    let _loop = span::span("union_mc");
                    let out = pqe_par::map_chunks(workers, 16, 1, |r| {
                        r.inspect(|_| {
                            let _s = span::span("sample");
                            std::thread::sleep(Duration::from_micros(300));
                        })
                        .collect()
                    });
                    assert_eq!(out, (0..16).collect::<Vec<_>>());
                }
            })
            .collect()
        });
    }
    span::set_enabled(false);
    let snap = span::snapshot();
    snap.iter()
        .filter(|r| r.name == "count")
        .map(shape)
        .collect()
}

#[test]
fn helped_nested_loop_has_worker_count_invariant_span_tree() {
    let at1 = run_helped_loop(1);
    assert_eq!(
        at1,
        vec![Shape(
            "count".into(),
            1,
            vec![Shape(
                "rep".into(),
                3,
                vec![Shape(
                    "union_mc".into(),
                    1,
                    vec![Shape("sample".into(), 16, vec![])]
                )]
            )]
        )]
    );
    for workers in [2, 4] {
        assert_eq!(
            run_helped_loop(workers),
            at1,
            "span tree differs at {workers} workers"
        );
    }
}
