//! `Registry` values keep separate books, and histogram percentiles stay
//! inside the observed range.

use pqe_obs::metrics::{self, Histogram, Registry};

#[test]
fn two_registries_never_see_each_others_metrics() {
    let (a, b) = (Registry::default(), Registry::default());
    a.counter("reg_test.requests").add(3);
    a.gauge("reg_test.depth").set(7);
    a.histogram("reg_test.latency_us").record(10);
    b.counter("reg_test.requests").inc();

    assert_eq!(a.counter("reg_test.requests").get(), 3);
    assert_eq!(b.counter("reg_test.requests").get(), 1);
    let snap = b.snapshot();
    assert_eq!(snap.counters, vec![("reg_test.requests".to_owned(), 1)]);
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
}

#[test]
fn free_functions_never_see_a_registry_values_metrics() {
    let r = Registry::default();
    r.counter("reg_test.private").add(5);
    r.histogram("reg_test.private_us").record(1);
    let global = metrics::snapshot();
    assert!(global.counters.iter().all(|(n, _)| n != "reg_test.private"));
    assert!(global.histograms.iter().all(|(n, _)| n != "reg_test.private_us"));
    // And the other way round: the default registry's counter of the same
    // name is a different handle.
    metrics::counter("reg_test.private").inc();
    assert_eq!(r.counter("reg_test.private").get(), 5);
}

fn names<V>(entries: &[(String, V)]) -> Vec<&str> {
    entries.iter().map(|(n, _)| n.as_str()).collect()
}

#[test]
fn snapshot_is_name_sorted_and_handles_are_shared() {
    let r = Registry::default();
    for name in ["c", "a", "b"] {
        r.counter(name).inc();
        r.gauge(name).set(1);
        r.histogram(name).record(1);
    }
    r.counter("a").add(4);
    let snap = r.snapshot();
    assert_eq!(names(&snap.counters), ["a", "b", "c"]);
    assert_eq!(names(&snap.gauges), ["a", "b", "c"]);
    assert_eq!(names(&snap.histograms), ["a", "b", "c"]);
    assert_eq!(snap.counters[0].1, 5);
}

#[test]
fn a_single_observation_is_every_percentile() {
    let h = Histogram::default();
    h.record(1000);
    let s = h.snapshot();
    assert_eq!((s.min, s.max), (1000, 1000));
    assert_eq!((s.p50, s.p95, s.p99), (1000, 1000, 1000));
}

#[test]
fn a_constant_series_reports_the_constant() {
    let h = Histogram::default();
    for _ in 0..50 {
        h.record(777);
    }
    let s = h.snapshot();
    assert_eq!((s.count, s.min, s.max), (50, 777, 777));
    assert_eq!((s.p50, s.p95, s.p99), (777, 777, 777));
}

#[test]
fn percentiles_stay_within_min_and_max() {
    let h = Histogram::default();
    for v in [1000, 1001, 1003] {
        h.record(v);
    }
    let s = h.snapshot();
    for p in [s.p50, s.p95, s.p99] {
        assert!((s.min..=s.max).contains(&p), "{p} outside [{}, {}]", s.min, s.max);
    }
}
