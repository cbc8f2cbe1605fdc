//! End-to-end tests of the `pqe` command-line binary.

use std::io::Write;
use std::process::Command;

fn pqe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pqe"))
}

fn write_db(content: &str) -> tempfile_path::TempPath {
    tempfile_path::write(content)
}

/// Minimal temp-file helper (no external crate).
mod tempfile_path {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(content: &str) -> TempPath {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "pqe-cli-test-{}-{n}.pdb",
            std::process::id()
        ));
        std::fs::write(&path, content).unwrap();
        TempPath(path)
    }
}

const TWO_PATH_DB: &str = "1/2 R(a,b)\n1/3 S(b,c)\n1/5 S(b,d)\n";

#[test]
fn estimate_brute_matches_hand_computation() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--method", "brute"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Pr = 1/2 · (1 − 2/3·4/5) = 1/2 · 7/15 = 7/30.
    assert!(stdout.contains("7/30"), "stdout: {stdout}");
}

#[test]
fn estimate_fpras_close_to_exact() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--method", "fpras", "--epsilon", "0.1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value: f64 = stdout
        .split('≈')
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let exact = 7.0 / 30.0;
    assert!((value / exact - 1.0).abs() <= 0.1, "value {value}");
}

#[test]
fn auto_routes_safe_queries_to_lifted() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("lifted"));
}

#[test]
fn route_line_reports_the_dispatch_decision() {
    let db = write_db(TWO_PATH_DB);
    // Auto on a safe query: routed to lifted, with the rationale printed.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("route    : lifted [auto: safe"), "{stdout}");

    // Forcing FPRAS overrides the auto decision and says so.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--method", "fpras"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("route    : fpras [forced by --method fpras]"), "{stdout}");
}

#[test]
fn evidence_conditions_the_estimate() {
    let db = write_db(TWO_PATH_DB);
    // Ground evidence S(b,c): P(Q | E) = Pr_{H[S(b,c):=1]}(Q) = 1/2,
    // P(E) = 1/3, both exact.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--evidence", "S('b','c')"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Pr(Q|E) = 1/2"), "{stdout}");
    assert!(stdout.contains("P(E) = 0.333333"), "{stdout}");
    assert!(stdout.contains("route(E) : exact product (ground evidence)"), "{stdout}");
}

#[test]
fn impossible_evidence_is_a_structured_error() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--evidence", "S('nope','nope')"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("P(E) = 0"), "stderr: {stderr}");
    assert!(stderr.contains("conditional probability undefined"), "stderr: {stderr}");
}

#[test]
fn evidence_requires_a_routed_method() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--evidence", "S('b','c')", "--method", "brute"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--evidence requires a routed method"), "stderr: {stderr}");
}

#[test]
fn classify_reports_landscape_cell() {
    let out = pqe()
        .args(["classify", "--query", "R1(x,y), R2(y,z), R3(z,w)"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("safe=false"), "{stdout}");
    assert!(stdout.contains("FprasOnly"), "{stdout}");
}

#[test]
fn reliability_counts_subinstances() {
    let db = write_db("R(a,b)\nS(b,c)\nS(b,d)\n");
    let out = pqe()
        .args(["reliability", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--epsilon", "0.1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2^3"), "{stdout}");
}

#[test]
fn graph_estimate_answers_the_diamond_on_both_routes() {
    // Two independent 2-hop routes of probability 1/4: 1 − (3/4)² = 7/16.
    let graph = write_db("1/2 a -r-> b\n1/2 a -r-> c\n1/2 b -r-> d\n1/2 c -r-> d\n");
    let run = |extra: &[&str]| {
        pqe()
            .args(["graph-estimate", "--graph"])
            .arg(&graph.0)
            .args(["--rpq", "a -> r r -> d"])
            .args(extra)
            .output()
            .unwrap()
    };

    let out = run(&[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Pr(a -> r.r -> d) = 7/16 ≈ 0.437500   [world enumeration, exact]"),
        "{stdout}"
    );
    assert!(stdout.contains("route    : enum [auto: 4 edges <= 16"), "{stdout}");

    // Forced FPRAS: seed-pinned digits, and the product NFA as DOT.
    let dot = write_db("");
    let dot_path = dot.0.to_str().unwrap();
    let out = run(&[
        "--method", "fpras", "--epsilon", "0.2", "--seed", "7", "--dump-automaton", dot_path,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Pr(a -> r.r -> d) ≈ 0.441406"), "{stdout}");
    assert!(std::fs::read_to_string(&dot.0).unwrap().starts_with("digraph nfa"));

    // A typo'd method is refused with a hint, never silently routed.
    let out = run(&["--method", "enm"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean \"enum\"?"), "stderr: {stderr}");
}

#[test]
fn sample_prints_satisfying_worlds() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["sample", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--count", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every sampled world must contain R(a,b) (the only R fact).
    for line in stdout.lines() {
        assert!(line.contains("R(a,b)"), "world without witness: {line}");
    }
}

#[test]
fn lineage_counts_and_materializes() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["lineage", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--materialize", "10"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lineage clauses: 2"), "{stdout}");
    assert!(stdout.contains("R(a,b) ∧ S(b,c)"), "{stdout}");
}

#[test]
fn errors_use_exit_code_2_and_name_the_problem() {
    // Unknown command.
    let out = pqe().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing --db.
    let out = pqe().args(["estimate", "--query", "R(x)"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--db"));

    // Bad epsilon.
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y)", "--epsilon", "2.0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("(0,1)"));

    // NaN epsilon: every comparison against NaN is false, so the bound
    // check must be written as !(0 < ε < 1) to catch it.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y)", "--epsilon", "NaN"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("NaN"));

    // Unknown method: rejected with a "did you mean" hint, never silently
    // routed as auto.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y)", "--method", "fprs"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean \"fpras\"?"), "stderr: {stderr}");

    // Malformed database.
    let bad = write_db("this is not a fact\n");
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&bad.0)
        .args(["--query", "R(x)"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));

    // Self-join via fpras.
    let db2 = write_db("R(a,b)\nR(b,c)\n");
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db2.0)
        .args(["--query", "R(x,y), R(y,z)", "--method", "fpras"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("self-join"));
}

#[test]
fn profile_prints_phase_tree() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--method", "fpras", "--profile"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The estimate itself still prints first…
    assert!(stdout.contains("Pr(Q) ≈"), "{stdout}");
    // …followed by the span tree with the compile/execute split and the
    // FPRAS sample counters.
    assert!(stdout.contains("profile: phase totals"), "{stdout}");
    for phase in ["estimate", "compile", "execute", "count.nfta", "100.0%"] {
        assert!(stdout.contains(phase), "missing {phase:?} in: {stdout}");
    }
    assert!(stdout.contains("fpras.samples"), "{stdout}");
}

#[test]
fn profile_does_not_change_the_estimate() {
    let db = write_db(TWO_PATH_DB);
    let run = |profile: bool| {
        let mut cmd = pqe();
        cmd.args(["estimate", "--db"])
            .arg(&db.0)
            .args(["--query", "R(x,y), S(y,z)", "--method", "fpras", "--seed", "7"]);
        if profile {
            cmd.arg("--profile");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success());
        // First line is `Pr(Q) ≈ VALUE   [FPRAS, …, Nms]`; the wall-clock
        // tail varies run to run, so compare the value token only.
        String::from_utf8_lossy(&out.stdout)
            .split('≈')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .to_owned()
    };
    assert_eq!(run(false), run(true), "profiling perturbed the estimate");
}

#[test]
fn bad_threads_values_are_rejected_with_clear_messages() {
    let db = write_db(TWO_PATH_DB);
    let run = |threads: &str| {
        let out = pqe()
            .args(["estimate", "--db"])
            .arg(&db.0)
            .args(["--query", "R(x,y), S(y,z)", "--threads", threads])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--threads {threads}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert!(run("-3").contains("non-negative"));
    assert!(run("99999999999999999999").contains("overflows"));
    assert!(run("9000").contains("implausibly large"));
    assert!(run("abc").contains("non-negative integer"));
    // And each message spells out the 0 = auto sentinel.
    for bad in ["-3", "abc"] {
        assert!(run(bad).contains("0 for auto") || run(bad).contains("0 = auto"));
    }
    // --threads 0 itself is the documented auto sentinel, not an error.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--threads", "0"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn help_documents_threads_sentinel_and_profile() {
    let out = pqe().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--threads 0"), "{stdout}");
    assert!(stdout.contains("PQE_THREADS"), "{stdout}");
    assert!(stdout.contains("--profile"), "{stdout}");
    assert!(stdout.contains("PQE_LOG"), "{stdout}");
}

#[test]
fn help_prints_usage() {
    let out = pqe().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn stdin_is_not_consumed() {
    // The CLI must be usable in pipelines without hanging on stdin.
    let mut child = pqe()
        .args(["classify", "--query", "R(x,y)"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // BrokenPipe means the child exited without reading stdin — exactly
    // the behavior under test — so it is not a failure.
    match child.stdin.take().unwrap().write_all(b"ignored") {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("unexpected stdin write error: {e}"),
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
}

#[test]
fn marginals_rank_the_witness_facts() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["marginals", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--samples", "500"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // R(a,b) is in every witness: conditional marginal 1.0, ranked first.
    let first = stdout.lines().nth(1).unwrap();
    assert!(first.contains("1.0000") && first.contains("R(a,b)"), "{stdout}");
}

#[test]
fn zero_sample_counts_are_rejected_not_reported_as_zero_probability() {
    // Pr(Q) = 1/4 here: a zero-draw run must not claim Pr(Q) = 0.
    let db = write_db("0.5 R(a,b)\n0.5 S(b,c)\n");
    for (cmd, opt) in [("sample", "--count"), ("marginals", "--samples")] {
        let out = pqe()
            .args([cmd, "--db"])
            .arg(&db.0)
            .args(["--query", "R(x,y), S(y,z)", opt, "0"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd} {opt} 0 must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{opt} must be at least 1")), "{stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("Pr(Q) = 0"), "{stdout}");
    }
}

/// A union's sample cap grows as 1/ε and saturates `usize` near 1e-300,
/// so `--epsilon 1e-300` used to run until killed. Every command that
/// takes `--epsilon` refuses ε below `MIN_EPSILON`, naming the bound.
#[test]
fn epsilon_below_the_least_supported_value_is_refused() {
    let db = write_db(TWO_PATH_DB);
    let bound = format!("--epsilon must be at least {}", pqe::automata::config::MIN_EPSILON);
    for run in [&["estimate", "--method", "fpras"][..], &["reliability"], &["influence"]] {
        for eps in ["1e-300", "0.0009"] {
            let out = pqe()
                .args(run)
                .arg("--db")
                .arg(&db.0)
                .args(["--query", "R(x,y), S(y,z)", "--epsilon", eps])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{run:?} ε = {eps}: {stderr}");
            assert!(stderr.contains(&bound), "{run:?} ε = {eps}: {stderr}");
        }
    }
    // The bound itself is accepted.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--epsilon", "0.001"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("7/30"));
}

#[test]
fn influence_is_largest_for_the_bottleneck_fact() {
    let db = write_db(TWO_PATH_DB);
    let out = pqe()
        .args(["influence", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), S(y,z)", "--epsilon", "0.1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The single R fact gates the whole query: top influence row.
    let first = stdout.lines().nth(1).unwrap();
    assert!(first.contains("R(a,b)"), "{stdout}");
}

/// A query atom whose arity disagrees with the schema is refused on every
/// command that reads facts, on every estimate method: before the check,
/// the lifted route and `lineage` panicked, and the FPRAS, brute-force and
/// sampling paths paired a prefix of the atom's terms with the facts'
/// arguments and answered as if the atom matched.
#[test]
fn arity_mismatched_query_is_refused_by_every_command() {
    let db = write_db(TWO_PATH_DB);
    let runs: &[&[&str]] = &[
        &["estimate"],
        &["estimate", "--method", "lifted"],
        &["estimate", "--method", "fpras"],
        &["estimate", "--method", "brute"],
        &["estimate", "--method", "karp-luby"],
        &["estimate", "--method", "mc"],
        &["reliability"],
        &["sample"],
        &["marginals"],
        &["influence"],
        &["lineage"],
    ];
    for (query, atom) in [
        ("R(x,y,z), S(z,w)", "atom R(x,y,z) has arity 3 but relation R has arity 2"),
        ("R(x)", "atom R(x) has arity 1 but relation R has arity 2"),
    ] {
        for run in runs {
            let out = pqe()
                .args(*run)
                .arg("--db")
                .arg(&db.0)
                .args(["--query", query])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{run:?} {query}: {stderr}");
            assert!(stderr.contains(atom), "{run:?} {query}: {stderr}");
        }
    }

    // Evidence atoms are checked too.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y)", "--evidence", "S('b')"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("atom S('b') has arity 1"));

    // A relation absent from the schema is still an empty relation.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db.0)
        .args(["--query", "R(x,y), T(y)"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Pr(Q) = 0 "));
}
