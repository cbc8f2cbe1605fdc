//! End-to-end tests of `pqe serve`: the server is a real child process,
//! the client speaks the NDJSON protocol over a real socket, and the core
//! contract — a served estimate is **byte-identical** to the same CLI
//! invocation, at any worker-shard count — is asserted on the printed
//! digits. Also covers the sharded-execution behaviours: queue-depth
//! backpressure, single-flight coalescing of concurrent identical
//! requests, and the per-shard `metrics` gauges.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::Duration;

fn pqe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pqe"))
}

fn write_db(content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "pqe-serve-test-{}-{:?}.pdb",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, content).unwrap();
    path
}

const PATH3_DB: &str = "\
1/2 R1(a,b)
1/3 R2(b,c)
2/3 R2(b,d)
1/5 R3(c,e)
3/4 R3(d,e)
";

/// A `pqe serve` child on an ephemeral port, killed on drop.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn start(db: &std::path::Path, extra: &[&str]) -> ServerProc {
        let mut child = pqe()
            .args(["serve", "--db"])
            .arg(db)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // The first stdout line announces the bound address.
        let stdout = child.stdout.as_mut().unwrap();
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in announce line")
            .to_owned();
        assert!(
            line.contains("listening"),
            "unexpected announce line: {line:?}"
        );
        ServerProc { child, addr }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(&self.addr).unwrap()
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self) {
        let mut c = self.connect();
        c.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut resp = String::new();
        BufReader::new(c).read_line(&mut resp).unwrap();
        assert!(resp.contains("\"ok\":true"), "shutdown response: {resp}");
        let status = self.child.wait().unwrap();
        assert!(status.success(), "server exit status {status:?}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp
}

/// Extracts the string value of `"field":"…"` from a one-line JSON response.
fn json_str_field<'a>(resp: &'a str, field: &str) -> &'a str {
    let tag = format!("\"{field}\":\"");
    let start = resp.find(&tag).unwrap_or_else(|| panic!("no {field} in {resp}")) + tag.len();
    let end = resp[start..].find('"').unwrap() + start;
    &resp[start..end]
}

/// Extracts the numeric value of `"field":N` from a one-line JSON response.
fn json_num_field(resp: &str, field: &str) -> f64 {
    let tag = format!("\"{field}\":");
    let start = resp.find(&tag).unwrap_or_else(|| panic!("no {field} in {resp}")) + tag.len();
    let end = resp[start..]
        .find(|c: char| c != '-' && c != '.' && c != 'e' && c != '+' && !c.is_ascii_digit())
        .map(|i| i + start)
        .unwrap_or(resp.len());
    resp[start..end].parse().unwrap_or_else(|_| panic!("bad number for {field} in {resp}"))
}

#[test]
fn served_estimate_is_byte_identical_to_cli_at_any_shard_count() {
    let db = write_db(PATH3_DB);
    let query = "R1(x,y), R2(y,z), R3(z,w)";

    // CLI digits at a fixed (ε, seed), single-threaded.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db)
        .args([
            "--query", query, "--method", "fpras", "--epsilon", "0.25", "--seed", "99",
            "--threads", "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cli_digits = stdout
        .split('≈')
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("digits in CLI output")
        .to_owned();

    let req = format!(
        r#"{{"op":"estimate","query":"{query}","method":"fpras","epsilon":0.25,"seed":99}}"#
    );

    // The reliability count at the same (ε, seed): the CLI prints it
    // between `≈` and the subinstance count.
    let out = pqe()
        .args(["reliability", "--db"])
        .arg(&db)
        .args(["--query", query, "--epsilon", "0.25", "--seed", "99", "--threads", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cli_reliability = stdout
        .split('≈')
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("count in CLI reliability output")
        .to_owned();
    let rel_req =
        format!(r#"{{"op":"reliability","query":"{query}","epsilon":0.25,"seed":99}}"#);

    // One worker shard: cache/memo tags are deterministic (every request
    // lands on the same private cache), digits must match the CLI.
    let server = ServerProc::start(&db, &["--workers", "1", "--threads", "4"]);
    let mut c = server.connect();
    let resp = roundtrip(&mut c, &req);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "cache"), "miss");
    assert_eq!(json_str_field(&resp, "probability"), cli_digits);
    let resp = roundtrip(&mut c, &rel_req);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "reliability"), cli_reliability);

    // Again: now a plan hit and a result-memo hit, same digits.
    let resp = roundtrip(&mut c, &req);
    assert_eq!(json_str_field(&resp, "cache"), "hit");
    assert_eq!(json_str_field(&resp, "memo"), "hit");
    assert_eq!(json_str_field(&resp, "probability"), cli_digits);

    // A different seed re-executes the shared plan: memo miss, cache hit.
    let req2 = req.replace("\"seed\":99", "\"seed\":100");
    let resp = roundtrip(&mut c, &req2);
    assert_eq!(json_str_field(&resp, "cache"), "hit");
    assert_eq!(json_str_field(&resp, "memo"), "miss");
    server.shutdown();

    // Four worker shards, different request threads: the shard count and
    // thread count must not change a digit.
    let server = ServerProc::start(&db, &["--workers", "4", "--threads", "2"]);
    let mut c = server.connect();
    for _ in 0..3 {
        let resp = roundtrip(&mut c, &req);
        assert!(resp.contains("\"ok\":true"), "response: {resp}");
        assert_eq!(json_str_field(&resp, "probability"), cli_digits);
        let resp = roundtrip(&mut c, &rel_req);
        assert!(resp.contains("\"ok\":true"), "response: {resp}");
        assert_eq!(json_str_field(&resp, "reliability"), cli_reliability);
    }
    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_evaluation() {
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "4"]);

    // Eight clients fire a byte-identical request at once; the delay knob
    // keeps the leader's evaluation in flight while the rest arrive.
    const CLIENTS: usize = 8;
    let req = "{\"op\":\"estimate\",\"query\":\"R1(x,y), R2(y,z), R3(z,w)\",\
               \"method\":\"fpras\",\"epsilon\":0.25,\"seed\":42,\"delay_ms\":300}";
    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut c = server.connect();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    roundtrip(&mut c, req)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical responses for byte-identical requests.
    for r in &responses {
        assert!(r.contains("\"ok\":true"), "response: {r}");
        assert_eq!(r, &responses[0], "coalesced responses must match verbatim");
    }

    // Exactly one evaluation ran: the leader's. Everyone else either
    // coalesced onto its flight or replayed its result memo.
    let mut c = server.connect();
    let metrics = roundtrip(&mut c, r#"{"op":"metrics"}"#);
    assert_eq!(json_num_field(&metrics, "serve.executions"), 1.0, "metrics: {metrics}");
    let samples = json_num_field(&metrics, "fpras.samples");
    assert!(samples > 0.0, "metrics: {metrics}");
    let stats = roundtrip(&mut c, r#"{"op":"stats"}"#);
    assert!(json_num_field(&stats, "coalesced") >= 1.0, "stats: {stats}");

    // The sampler counters are quiescent: a second read sees the same
    // fpras.samples — nothing kept evaluating in the background.
    let metrics2 = roundtrip(&mut c, r#"{"op":"metrics"}"#);
    assert_eq!(json_num_field(&metrics2, "fpras.samples"), samples);

    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn saturated_queue_returns_structured_overload() {
    let db = write_db(PATH3_DB);
    // One worker, one queue slot.
    let server = ServerProc::start(&db, &["--workers", "1", "--queue-depth", "1"]);

    // First connection occupies the only worker via the delay knob
    // (distinct seeds so the three requests never coalesce).
    let mut busy = server.connect();
    busy.write_all(
        b"{\"op\":\"estimate\",\"query\":\"R1(x,y), R2(y,z), R3(z,w)\",\"method\":\"fpras\",\"seed\":1,\"delay_ms\":1500}\n",
    )
    .unwrap();
    busy.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));

    // Second fills the single queue slot.
    let mut queued = server.connect();
    queued
        .write_all(
            b"{\"op\":\"estimate\",\"query\":\"R1(x,y), R2(y,z), R3(z,w)\",\"method\":\"fpras\",\"seed\":2,\"delay_ms\":100}\n",
        )
        .unwrap();
    queued.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Third finds the queue full: immediate structured rejection.
    let mut fast = server.connect();
    let resp = roundtrip(
        &mut fast,
        r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","seed":3}"#,
    );
    assert!(resp.contains("\"ok\":false"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "error"), "overloaded");
    assert!(resp.contains("queue full"), "response: {resp}");

    // The occupied and queued requests still complete successfully.
    for stream in [&mut busy, &mut queued] {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"ok\":true"), "delayed response: {resp}");
    }

    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn stats_and_classify_round_trip() {
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "2", "--queue-depth", "32"]);
    let mut c = server.connect();

    let resp = roundtrip(&mut c, r#"{"op":"classify","query":"R1(x,y), R2(y,z), R3(z,w)"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert!(resp.contains("\"three_path\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "verdict"), "fpras-only");

    let resp = roundtrip(&mut c, r#"{"op":"stats"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert!(resp.contains("\"classifies\":1"), "response: {resp}");
    assert!(resp.contains("\"facts\":5"), "response: {resp}");
    // The concurrency knobs are visible.
    assert!(resp.contains("\"workers\":2"), "response: {resp}");
    assert!(resp.contains("\"queue_capacity\":32"), "response: {resp}");

    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn metrics_op_reports_queue_shard_and_histogram_gauges() {
    let db = write_db(PATH3_DB);
    // One worker: hit/miss counts land deterministically on shard 0.
    let server = ServerProc::start(&db, &["--workers", "1"]);
    let mut c = server.connect();

    // Generate some traffic: one estimate miss, one memo hit.
    let req = r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","epsilon":0.25,"seed":7}"#;
    assert!(roundtrip(&mut c, req).contains("\"ok\":true"));
    assert!(roundtrip(&mut c, req).contains("\"ok\":true"));

    let resp = roundtrip(&mut c, r#"{"op":"metrics"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "op"), "metrics");
    // Request-latency and queue-wait histograms with percentiles.
    for key in [
        "\"serve.request_us.estimate\":{",
        "\"serve.queue_wait_us\":{",
        "\"p50\":",
        "\"p95\":",
        "\"p99\":",
    ] {
        assert!(resp.contains(key), "missing {key} in: {resp}");
    }
    // The two estimate requests are both in the per-op histogram.
    assert!(
        resp.contains("\"serve.request_us.estimate\":{\"count\":2"),
        "response: {resp}"
    );
    // Queue state: both requests were enqueued, none rejected.
    assert!(resp.contains("\"queue\":{"), "response: {resp}");
    assert_eq!(json_num_field(&resp, "serve.enqueued"), 2.0, "response: {resp}");
    assert_eq!(json_num_field(&resp, "serve.queue_rejected"), 0.0, "response: {resp}");
    // Per-shard occupancy/hit-rate gauges: one miss then one plan hit.
    assert!(resp.contains("\"shards\":[{"), "response: {resp}");
    assert!(resp.contains("\"jobs\":2"), "response: {resp}");
    assert!(resp.contains("\"hit_rate\":0.5"), "response: {resp}");
    // Aggregate cache counters and the single-flight counter.
    assert!(resp.contains("\"cache\":{"), "response: {resp}");
    assert!(resp.contains("\"hits\":1"), "response: {resp}");
    assert!(resp.contains("\"misses\":1"), "response: {resp}");
    assert!(
        resp.contains("\"serve.singleflight_coalesced\":0"),
        "response: {resp}"
    );
    // Satellite: stats carries version + uptime.
    let stats = roundtrip(&mut c, r#"{"op":"stats"}"#);
    assert_eq!(json_str_field(&stats, "version"), env!("CARGO_PKG_VERSION"));
    assert!(stats.contains("\"uptime_s\":"), "response: {stats}");

    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn unknown_method_is_a_structured_bad_request_with_hint() {
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "1"]);
    let mut c = server.connect();

    // A typo'd method must never be silently routed as `auto`: the router's
    // parser rejects it with a Levenshtein hint.
    let resp = roundtrip(&mut c, r#"{"op":"estimate","query":"R1(x,y)","method":"fprs"}"#);
    assert!(resp.contains("\"ok\":false"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "error"), "bad_request");
    assert!(resp.contains("did you mean"), "response: {resp}");
    assert!(resp.contains("fpras"), "response: {resp}");

    // Legacy CLI-only methods are not served either.
    let resp = roundtrip(&mut c, r#"{"op":"estimate","query":"R1(x,y)","method":"brute"}"#);
    assert!(resp.contains("\"ok\":false"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "error"), "bad_request");

    // The connection stays usable and the route is reported on success.
    let resp = roundtrip(&mut c, r#"{"op":"estimate","query":"R1(x,y)"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "route"), "lifted");
    assert!(resp.contains("\"rationale\":\"auto: safe"), "response: {resp}");

    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn evidence_round_trip_matches_cli_and_reports_routes() {
    let db = write_db(PATH3_DB);
    let query = "R1(x,y), R2(y,z), R3(z,w)";

    // CLI conditional digits at a fixed (ε, seed), single-threaded.
    let out = pqe()
        .args(["estimate", "--db"])
        .arg(&db)
        .args([
            "--query", query, "--evidence", "R1('a','b')", "--epsilon", "0.25", "--seed",
            "99", "--threads", "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cli_digits = stdout
        .split('≈')
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .expect("digits in CLI output")
        .to_owned();

    let server = ServerProc::start(&db, &["--workers", "1", "--threads", "1"]);
    let mut c = server.connect();
    let req = format!(
        r#"{{"op":"estimate","query":"{query}","evidence":"R1('a','b')","epsilon":0.25,"seed":99,"threads":1}}"#
    );
    let resp = roundtrip(&mut c, &req);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "probability"), cli_digits);
    // The 3-path joint is unsafe → FPRAS; ground evidence needs no routed
    // evaluation at all.
    assert_eq!(json_str_field(&resp, "route"), "fpras");
    assert_eq!(json_str_field(&resp, "evidence_route"), "exact-product");
    assert_eq!(json_str_field(&resp, "p_evidence"), "0.500000");
    assert_eq!(json_str_field(&resp, "evidence"), "R1('a','b')");
    assert_eq!(json_str_field(&resp, "cache"), "miss");

    // Same request again: the conditional plan is cached (compiled once),
    // and the digits are reproduced exactly.
    let resp = roundtrip(&mut c, &req);
    assert_eq!(json_str_field(&resp, "cache"), "hit");
    assert_eq!(json_str_field(&resp, "probability"), cli_digits);

    // Evidence changes the plan key: same query without evidence is a
    // distinct cache entry, not a collision.
    let bare = format!(r#"{{"op":"estimate","query":"{query}","epsilon":0.25,"seed":99}}"#);
    let resp = roundtrip(&mut c, &bare);
    assert_eq!(json_str_field(&resp, "cache"), "miss");

    // Impossible evidence: structured eval_error naming P(E) = 0.
    let resp = roundtrip(
        &mut c,
        &format!(r#"{{"op":"estimate","query":"{query}","evidence":"R1('zz','zz')"}}"#),
    );
    assert!(resp.contains("\"ok\":false"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "error"), "eval_error");
    assert!(resp.contains("P(E) = 0"), "response: {resp}");

    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn unknown_option_suggests_the_intended_flag() {
    let out = pqe()
        .args(["estimate", "--db", "/dev/null", "--query", "R(x)", "--thread", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean --threads"),
        "stderr: {stderr}"
    );
}

#[test]
fn serve_rejects_unknown_option_with_hint() {
    let out = pqe()
        .args(["serve", "--db", "/dev/null", "--queue-dept", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean --queue-depth"),
        "stderr: {stderr}"
    );
    // The old --queue-depth alias is gone.
    let out = pqe()
        .args(["serve", "--db", "/dev/null", "--max-inflight", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option --max-inflight"),
        "stderr: {stderr}"
    );
    // The new knobs hint too.
    let out = pqe()
        .args(["serve", "--db", "/dev/null", "--worker", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean --workers"), "stderr: {stderr}");
}

#[test]
fn server_reports_db_load_errors_with_context() {
    let db = write_db("1/2 R1(a,b)\n0.x5 R1(b,c)\n");
    let mut child = pqe()
        .args(["serve", "--db"])
        .arg(&db)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!status.success());
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
    assert!(stderr.contains("0.x5 R1(b,c)"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&db);
}

/// The diamond DAG: two edge-disjoint r-paths a→d of probability 1/4
/// each, so Pr(a →rr→ d) = 1 − (3/4)² = 7/16. Four edges: `auto` routes
/// it to exact enumeration, `fpras` forces the product-NFA FPRAS.
const DIAMOND_GRAPH: &str = "1/2 a -r-> b\n1/2 a -r-> c\n1/2 b -r-> d\n1/2 c -r-> d\n";

fn write_graph(content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "pqe-serve-test-{}-{:?}.graph",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, content).unwrap();
    path
}

/// One pinned response: the request line, the response's ordered key
/// list, and the expected `cache`/`memo`/`route`/`error` string values
/// (`None` = the key must be absent).
struct Pin {
    req: &'static str,
    keys: &'static [&'static str],
    cache: Option<&'static str>,
    memo: Option<&'static str>,
    route: Option<&'static str>,
    error: Option<&'static str>,
}

const LIFTED_KEYS: &[&str] = &[
    "ok", "op", "query", "cache", "method", "route", "rationale", "probability", "exact",
    "landscape", "states", "elapsed_us",
];
const FPRAS_KEYS: &[&str] = &[
    "ok", "op", "query", "cache", "method", "route", "rationale", "probability", "memo",
    "landscape", "states", "epsilon", "seed", "threads", "elapsed_us",
];
const GROUND_EVIDENCE_KEYS: &[&str] = &[
    "ok", "op", "query", "cache", "evidence", "method", "route", "rationale", "evidence_route",
    "probability", "p_evidence", "split_epsilon", "landscape", "states", "epsilon", "seed",
    "threads", "elapsed_us",
];
const RATIO_EVIDENCE_KEYS: &[&str] = &[
    "ok", "op", "query", "cache", "evidence", "method", "route", "rationale", "evidence_route",
    "probability", "exact", "p_evidence", "landscape", "states", "epsilon", "seed", "threads",
    "elapsed_us",
];
const RELIABILITY_KEYS: &[&str] = &[
    "ok", "op", "query", "cache", "memo", "reliability", "facts", "epsilon", "seed", "threads",
    "elapsed_us",
];
const GRAPH_ENUM_KEYS: &[&str] = &[
    "ok", "op", "rpq", "cache", "method", "route", "rationale", "probability", "exact", "states",
    "edges", "elapsed_us",
];
const GRAPH_FPRAS_KEYS: &[&str] = &[
    "ok", "op", "rpq", "cache", "method", "route", "rationale", "probability", "memo", "states",
    "epsilon", "seed", "threads", "edges", "elapsed_us",
];
const UPDATE_KEYS: &[&str] = &[
    "ok", "op", "ops", "inserted", "deleted", "reprobed", "touched", "structural",
    "probability_only", "generation", "facts",
];
const ERROR_KEYS: &[&str] = &["ok", "error", "message"];

fn check_pin(c: &mut TcpStream, pin: &Pin) {
    use pqe::serve::Json;
    let resp = roundtrip(c, pin.req);
    let v = Json::parse(resp.trim()).unwrap_or_else(|e| panic!("{e}: {resp}"));
    let Json::Obj(members) = &v else { panic!("not an object: {resp}") };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, pin.keys, "key list of {}\nresponse: {resp}", pin.req);
    for (field, want) in [
        ("cache", pin.cache),
        ("memo", pin.memo),
        ("route", pin.route),
        ("error", pin.error),
    ] {
        assert_eq!(
            v.get(field).and_then(Json::as_str),
            want,
            "{field} of {}\nresponse: {resp}",
            pin.req
        );
    }
}

/// Pins the heavy-op wire format: for every op, route, cache/memo state
/// and error kind, the ordered key list of the response and its
/// `cache`/`memo`/`route`/`error` values.
#[test]
fn heavy_op_wire_format_is_pinned() {
    let db = write_db(PATH3_DB);
    let graph = write_graph(DIAMOND_GRAPH);
    let graph_arg = graph.to_str().unwrap();
    let pins = [
        // estimate, lifted route (safe 2-path).
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","epsilon":0.25,"seed":7}"#,
            keys: LIFTED_KEYS,
            cache: Some("miss"),
            memo: None,
            route: Some("lifted"),
            error: None,
        },
        // estimate, FPRAS route (unsafe 3-path): a miss, then a memo hit.
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.25,"seed":7}"#,
            keys: FPRAS_KEYS,
            cache: Some("miss"),
            memo: Some("miss"),
            route: Some("fpras"),
            error: None,
        },
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.25,"seed":7}"#,
            keys: FPRAS_KEYS,
            cache: Some("hit"),
            memo: Some("hit"),
            route: Some("fpras"),
            error: None,
        },
        // Conditional with ground evidence: the FPRAS joint at full ε.
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","evidence":"R1('a','b')","epsilon":0.25,"seed":7}"#,
            keys: GROUND_EVIDENCE_KEYS,
            cache: Some("miss"),
            memo: None,
            route: Some("fpras"),
            error: None,
        },
        // Conditional with ratio evidence: both terms safe, so exact.
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","evidence":"R3(u,v)","epsilon":0.25,"seed":7}"#,
            keys: RATIO_EVIDENCE_KEYS,
            cache: Some("miss"),
            memo: None,
            route: Some("lifted"),
            error: None,
        },
        // reliability: a miss, then a memo hit.
        Pin {
            req: r#"{"op":"reliability","query":"R1(x,y), R2(y,z)","epsilon":0.25,"seed":7}"#,
            keys: RELIABILITY_KEYS,
            cache: Some("miss"),
            memo: Some("miss"),
            route: None,
            error: None,
        },
        Pin {
            req: r#"{"op":"reliability","query":"R1(x,y), R2(y,z)","epsilon":0.25,"seed":7}"#,
            keys: RELIABILITY_KEYS,
            cache: Some("hit"),
            memo: Some("hit"),
            route: None,
            error: None,
        },
        // graph_estimate: enumeration, then FPRAS (miss, then memo hit).
        Pin {
            req: r#"{"op":"graph_estimate","rpq":"a -> r r -> d","seed":7}"#,
            keys: GRAPH_ENUM_KEYS,
            cache: Some("miss"),
            memo: None,
            route: Some("enum"),
            error: None,
        },
        Pin {
            req: r#"{"op":"graph_estimate","rpq":"a -> r r -> d","method":"fpras","epsilon":0.25,"seed":7}"#,
            keys: GRAPH_FPRAS_KEYS,
            cache: Some("miss"),
            memo: Some("miss"),
            route: Some("fpras"),
            error: None,
        },
        Pin {
            req: r#"{"op":"graph_estimate","rpq":"a -> r r -> d","method":"fpras","epsilon":0.25,"seed":7}"#,
            keys: GRAPH_FPRAS_KEYS,
            cache: Some("hit"),
            memo: Some("hit"),
            route: Some("fpras"),
            error: None,
        },
        // A probability-only update to R3: the R1/R2 plan survives, the
        // 3-path plan is refreshed.
        Pin {
            req: r#"{"op":"update","delta":"~ 1/4 R3(c,e)"}"#,
            keys: UPDATE_KEYS,
            cache: None,
            memo: None,
            route: None,
            error: None,
        },
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R2(y,z)","epsilon":0.25,"seed":7}"#,
            keys: LIFTED_KEYS,
            cache: Some("hit"),
            memo: None,
            route: Some("lifted"),
            error: None,
        },
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.25,"seed":7}"#,
            keys: FPRAS_KEYS,
            cache: Some("invalidated"),
            memo: Some("miss"),
            route: Some("fpras"),
            error: None,
        },
        // Every heavy-path error kind.
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,"}"#,
            keys: ERROR_KEYS,
            cache: None,
            memo: None,
            route: None,
            error: Some("bad_request"),
        },
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y)","evidence":"R2(("}"#,
            keys: ERROR_KEYS,
            cache: None,
            memo: None,
            route: None,
            error: Some("bad_request"),
        },
        Pin {
            req: r#"{"op":"graph_estimate","rpq":"a -> ((r -> d"}"#,
            keys: ERROR_KEYS,
            cache: None,
            memo: None,
            route: None,
            error: Some("bad_request"),
        },
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y), R1(y,z)","method":"fpras"}"#,
            keys: ERROR_KEYS,
            cache: None,
            memo: None,
            route: None,
            error: Some("eval_error"),
        },
        Pin {
            req: r#"{"op":"estimate","query":"R1(x,y)","evidence":"R1('zz','zz')"}"#,
            keys: ERROR_KEYS,
            cache: None,
            memo: None,
            route: None,
            error: Some("eval_error"),
        },
    ];
    let server = ServerProc::start(&db, &["--workers", "1", "--graph", graph_arg]);
    let mut c = server.connect();
    for pin in &pins {
        check_pin(&mut c, pin);
    }
    server.shutdown();

    // No graph loaded: graph_estimate is a structured eval_error.
    let server = ServerProc::start(&db, &["--workers", "1"]);
    let mut c = server.connect();
    check_pin(
        &mut c,
        &Pin {
            req: r#"{"op":"graph_estimate","rpq":"a -> r r -> d"}"#,
            keys: ERROR_KEYS,
            cache: None,
            memo: None,
            route: None,
            error: Some("eval_error"),
        },
    );
    server.shutdown();
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&graph);
}

/// A 20 KB RPQ of nested `(`s used to overflow a worker shard's stack and
/// abort the process. It is a `bad_request` naming the nesting bound, and
/// the same server answers the next request.
#[test]
fn deeply_nested_rpq_is_a_bad_request_and_the_server_survives() {
    let db = write_db(PATH3_DB);
    let graph = write_graph(DIAMOND_GRAPH);
    let server =
        ServerProc::start(&db, &["--workers", "2", "--graph", graph.to_str().unwrap()]);
    let mut c = server.connect();
    let bomb = format!(r#"{{"op":"graph_estimate","rpq":"a -> {}r -> d"}}"#, "(".repeat(20_000));
    let resp = roundtrip(&mut c, &bomb);
    assert_eq!(json_str_field(&resp, "error"), "bad_request", "response: {resp}");
    let bound = format!("deeper than {}", pqe::graph::MAX_REGEX_DEPTH);
    assert!(resp.contains(&bound), "response: {resp}");

    let resp = roundtrip(&mut c, r#"{"op":"graph_estimate","rpq":"a -> r r -> d"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "exact"), "7/16");
    server.shutdown();
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&graph);
}

/// A query atom whose arity disagrees with the schema used to index past
/// a fact's arguments on the lifted route and kill the worker shard; with
/// one worker, every later heavy request then hung. It is now the
/// `eval_error` every compile refusal gets, and the same worker answers.
#[test]
fn arity_mismatched_query_is_an_eval_error_and_the_server_survives() {
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "1"]);
    let mut c = server.connect();
    // A dead worker shard would leave the reply unsent: fail, don't hang.
    c.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    for op in ["estimate", "reliability"] {
        let resp = roundtrip(
            &mut c,
            &format!(r#"{{"op":"{op}","query":"R1(x,y,z), R2(z,w)"}}"#),
        );
        assert_eq!(json_str_field(&resp, "error"), "eval_error", "response: {resp}");
        assert!(
            resp.contains("atom R1(x,y,z) has arity 3 but relation R1 has arity 2"),
            "response: {resp}"
        );
    }

    let resp = roundtrip(&mut c, r#"{"op":"estimate","query":"R1(x,y), R2(y,z)"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "exact"), "7/18");
    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

/// A cached plan over a relation the database lacks (an empty relation)
/// meets a delta that creates that relation with another arity: the plan's
/// revalidation refuses it instead of re-solving against facts of the
/// wrong shape, and the same single worker answers the next request.
#[test]
fn update_that_mismatches_a_cached_plan_is_an_eval_error_and_the_server_survives() {
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "1"]);
    let mut c = server.connect();
    // A dead worker shard would leave the reply unsent: fail, don't hang.
    c.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let estimate = r#"{"op":"estimate","query":"T(x,y), R2(y,z)"}"#;
    let resp = roundtrip(&mut c, estimate);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "exact"), "0");

    let resp = roundtrip(&mut c, r#"{"op":"update","delta":"+ 1/2 T(b)"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    let resp = roundtrip(&mut c, estimate);
    assert_eq!(json_str_field(&resp, "error"), "eval_error", "response: {resp}");
    assert!(
        resp.contains("atom T(x,y) has arity 2 but relation T has arity 1"),
        "response: {resp}"
    );

    let resp = roundtrip(&mut c, r#"{"op":"estimate","query":"T(y), R2(y,z)"}"#);
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    assert_eq!(json_str_field(&resp, "exact"), "7/18");
    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

#[test]
fn deeply_nested_json_is_a_bad_request_and_the_server_survives() {
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "2"]);
    let mut c = server.connect();
    let resp = roundtrip(&mut c, &"[".repeat(100_000));
    assert_eq!(json_str_field(&resp, "error"), "bad_request", "response: {resp}");
    let bound = format!("deeper than {}", pqe::serve::json::MAX_JSON_DEPTH);
    assert!(resp.contains(&bound), "response: {resp}");

    let resp = roundtrip(
        &mut c,
        r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.3,"seed":1}"#,
    );
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

/// ε below `MIN_EPSILON` used to be accepted: at 1e-300 a union's sample
/// cap saturates `usize`, and the request pinned its worker shard for
/// good. It is a `bad_request` naming the bound, and the one worker then
/// answers the next request.
#[test]
fn tiny_epsilon_is_a_bad_request_and_the_server_survives() {
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "1"]);
    let mut c = server.connect();
    // A pinned worker would leave the next reply unsent: fail, don't hang.
    c.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let bound = format!("epsilon must be at least {}", pqe::automata::config::MIN_EPSILON);
    for op in ["estimate", "reliability"] {
        let resp = roundtrip(
            &mut c,
            &format!(
                r#"{{"op":"{op}","query":"R1(x,y), R2(y,z), R3(z,w)","method":"fpras","epsilon":1e-300}}"#
            ),
        );
        assert_eq!(json_str_field(&resp, "error"), "bad_request", "response: {resp}");
        assert!(resp.contains(&bound), "response: {resp}");
    }
    let resp = roundtrip(
        &mut c,
        r#"{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.3,"seed":1}"#,
    );
    assert!(resp.contains("\"ok\":true"), "response: {resp}");
    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

/// Each heavy op's latency lands in its own `serve.request_us.<op>`
/// histogram: N estimates, M reliabilities and K graph estimates sent one
/// at a time (so nothing coalesces) show up as counts N, M and K.
#[test]
fn per_op_latency_histograms_count_each_heavy_op() {
    use pqe::serve::Json;
    let db = write_db(PATH3_DB);
    let graph = write_graph(DIAMOND_GRAPH);
    let server =
        ServerProc::start(&db, &["--workers", "2", "--graph", graph.to_str().unwrap()]);
    let mut c = server.connect();
    let (n, m, k) = (3u64, 2u64, 4u64);
    for seed in 0..n {
        let req = format!(
            r#"{{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.3,"seed":{seed}}}"#
        );
        assert!(roundtrip(&mut c, &req).contains("\"ok\":true"));
    }
    for seed in 0..m {
        let req = format!(
            r#"{{"op":"reliability","query":"R1(x,y), R2(y,z)","epsilon":0.3,"seed":{seed}}}"#
        );
        assert!(roundtrip(&mut c, &req).contains("\"ok\":true"));
    }
    for seed in 0..k {
        let req = format!(
            r#"{{"op":"graph_estimate","rpq":"a -> r r -> d","method":"fpras","epsilon":0.3,"seed":{seed}}}"#
        );
        assert!(roundtrip(&mut c, &req).contains("\"ok\":true"));
    }
    let resp = roundtrip(&mut c, r#"{"op":"metrics"}"#);
    let v = Json::parse(resp.trim()).unwrap();
    let count = |op: &str| {
        v.get("histograms")
            .and_then(|h| h.get(&format!("serve.request_us.{op}")))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
    };
    assert_eq!(count("estimate"), Some(n), "metrics: {resp}");
    assert_eq!(count("reliability"), Some(m), "metrics: {resp}");
    assert_eq!(count("graph_estimate"), Some(k), "metrics: {resp}");
    server.shutdown();
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&graph);
}

/// The value at `path`, a list of object keys, inside `v`.
fn member<'a>(v: &'a pqe::serve::Json, path: &[&str]) -> &'a pqe::serve::Json {
    path.iter().fold(v, |v, k| v.get(k).unwrap_or_else(|| panic!("no {path:?} in {v}")))
}

/// The ordered key list of a JSON object.
fn keys(v: &pqe::serve::Json) -> Vec<&str> {
    let pqe::serve::Json::Obj(members) = v else { panic!("not an object: {v}") };
    members.iter().map(|(k, _)| k.as_str()).collect()
}

/// Pins the `stats` and `metrics` wire of one server process over a
/// session that moves every per-server counter: classify, an estimate
/// miss, a memo hit, a plan hit, a reliability, a bad request, an
/// `eval_error`, an update and a post-update `invalidated` request.
#[test]
fn stats_and_metrics_wire_is_pinned() {
    use pqe::serve::Json;
    let db = write_db(PATH3_DB);
    let server = ServerProc::start(&db, &["--workers", "1"]);
    let mut c = server.connect();
    let est = |seed: u64| {
        format!(
            r#"{{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.25,"seed":{seed}}}"#
        )
    };
    let session = [
        (r#"{"op":"classify","query":"R1(x,y), R2(y,z), R3(z,w)"}"#.to_owned(), "\"ok\":true"),
        (est(7), "\"cache\":\"miss\""),
        (est(7), "\"memo\":\"hit\""),
        (est(8), "\"cache\":\"hit\""),
        (
            r#"{"op":"reliability","query":"R1(x,y), R2(y,z)","epsilon":0.25,"seed":7}"#.to_owned(),
            "\"cache\":\"miss\"",
        ),
        ("this is not json".to_owned(), "\"error\":\"bad_request\""),
        (
            r#"{"op":"estimate","query":"R1(x,y), R1(y,z)","method":"fpras"}"#.to_owned(),
            "\"error\":\"eval_error\"",
        ),
        (r#"{"op":"update","delta":"~ 1/4 R3(c,e)"}"#.to_owned(), "\"generation\":1"),
        (est(7), "\"cache\":\"invalidated\""),
    ];
    for (req, want) in &session {
        let resp = roundtrip(&mut c, req);
        assert!(resp.contains(want), "{req} → {resp}");
    }

    let resp = roundtrip(&mut c, r#"{"op":"stats"}"#);
    let stats = Json::parse(resp.trim()).unwrap();
    assert_eq!(
        keys(&stats),
        [
            "ok", "op", "version", "uptime_s", "uptime_ms", "requests", "estimates",
            "reliabilities", "graph_estimates", "classifies", "router.route.lifted",
            "router.route.fpras", "router.route.graph", "cache_hits", "cache_misses",
            "cache_evictions", "cache_resident", "cache_hit_rate", "memo_hits", "coalesced",
            "workers", "queue_depth", "queue_capacity", "deadline_ms", "facts", "generation",
            "epochs", "updates", "delta.applied", "delta.invalidated_plans", "delta.kept_plans",
            "router.refresh.incremental", "router.refresh.recompiled", "overloaded", "timeouts",
            "bad_requests", "eval_errors",
        ],
        "stats: {resp}"
    );
    for (key, want) in [
        ("requests", 10.0),
        ("estimates", 5.0),
        ("reliabilities", 1.0),
        ("graph_estimates", 0.0),
        ("classifies", 1.0),
        ("cache_hits", 3.0),
        ("cache_misses", 3.0),
        ("cache_evictions", 0.0),
        ("cache_resident", 2.0),
        ("cache_hit_rate", 0.5),
        ("memo_hits", 1.0),
        ("coalesced", 0.0),
        ("workers", 1.0),
        ("queue_depth", 0.0),
        ("queue_capacity", 64.0),
        ("facts", 5.0),
        ("generation", 1.0),
        ("updates", 1.0),
        ("delta.applied", 1.0),
        ("delta.invalidated_plans", 1.0),
        ("delta.kept_plans", 0.0),
        ("overloaded", 0.0),
        ("timeouts", 0.0),
        ("bad_requests", 1.0),
        ("eval_errors", 1.0),
    ] {
        assert_eq!(member(&stats, &[key]).as_f64(), Some(want), "{key} in stats: {resp}");
    }
    assert_eq!(member(&stats, &["epochs", "R3"]).as_str(), Some("s0p1"), "stats: {resp}");

    let resp = roundtrip(&mut c, r#"{"op":"metrics"}"#);
    let metrics = Json::parse(resp.trim()).unwrap();
    assert_eq!(
        keys(&metrics),
        [
            "ok", "op", "version", "uptime_s", "counters", "gauges", "histograms", "shards",
            "queue", "cache",
        ],
        "metrics: {resp}"
    );
    // Every name the metrics dump has always carried, with its value for
    // the serve quantities (None = process-wide, presence only).
    let counters: &[(&str, Option<f64>)] = &[
        ("fpras.member_checks", None),
        ("fpras.sample_tries", None),
        ("fpras.samples", None),
        ("fpras.union_ests", None),
        ("router.refresh.incremental", None),
        ("router.refresh.recompiled", None),
        ("router.route.fpras", None),
        ("router.route.graph", None),
        ("router.route.lifted", None),
        ("serve.delta.applied", Some(1.0)),
        ("serve.delta.invalidated_plans", Some(1.0)),
        ("serve.delta.kept_plans", Some(0.0)),
        ("serve.enqueued", Some(6.0)),
        ("serve.executions", Some(4.0)),
        ("serve.queue_rejected", Some(0.0)),
        ("serve.shard0.evictions", Some(0.0)),
        ("serve.shard0.hits", Some(3.0)),
        ("serve.shard0.jobs", Some(6.0)),
        ("serve.shard0.memo_hits", Some(1.0)),
        ("serve.shard0.misses", Some(3.0)),
        ("serve.singleflight_coalesced", Some(0.0)),
    ];
    // `serve.queue_depth` is sampled at push and at pop by two threads, so
    // after the last job it reads 0 or 1: presence only.
    let gauges: &[(&str, Option<f64>)] = &[
        ("serve.connections", Some(1.0)),
        ("serve.queue_depth", None),
        ("serve.shard0.resident", Some(2.0)),
    ];
    let histogram_counts: &[(&str, Option<f64>)] = &[
        ("serve.queue_wait_us", Some(6.0)),
        ("serve.request_us.estimate", Some(5.0)),
        ("serve.request_us.graph_estimate", Some(0.0)),
        ("serve.request_us.reliability", Some(1.0)),
    ];
    for (section, pinned, stat) in [
        ("counters", counters, None),
        ("gauges", gauges, None),
        ("histograms", histogram_counts, Some("count")),
    ] {
        let got = member(&metrics, &[section]);
        for (name, want) in pinned {
            let v = member(got, &[name]);
            let v = stat.map_or(v, |s| member(v, &[s]));
            if let Some(want) = want {
                assert_eq!(v.as_f64(), Some(*want), "{section}.{name} in metrics: {resp}");
            }
        }
        for name in keys(got) {
            assert!(
                name.starts_with("serve.") || pinned.iter().any(|(n, _)| *n == name),
                "new {section} name {name} outside serve.*: {resp}"
            );
        }
    }
    assert_eq!(
        member(&metrics, &["shards"]).to_string(),
        r#"[{"shard":0,"resident":2,"hits":3,"misses":3,"memo_hits":1,"jobs":6,"hit_rate":0.5}]"#,
        "metrics: {resp}"
    );
    assert_eq!(
        member(&metrics, &["queue"]).to_string(),
        r#"{"depth":0,"capacity":64,"rejected":0}"#,
        "metrics: {resp}"
    );
    assert_eq!(
        member(&metrics, &["cache"]).to_string(),
        r#"{"hits":3,"misses":3,"evictions":0,"resident":2,"hit_rate":0.5}"#,
        "metrics: {resp}"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&db);
}

/// Two servers in one process keep separate books: traffic sent to one
/// never shows up in the other's `stats` or `metrics`.
#[test]
fn servers_in_one_process_report_only_their_own_metrics() {
    use pqe::serve::{Json, ServeConfig, Server};
    let bind = || {
        let h = pqe::db::io::load_str(PATH3_DB).unwrap();
        let server = Server::bind(ServeConfig { workers: 1, ..Default::default() }, h).unwrap();
        let addr = server.local_addr();
        (addr, std::thread::spawn(move || server.run()))
    };
    let (a, run_a) = bind();
    let (b, run_b) = bind();
    let est = |seed: u64| {
        format!(
            r#"{{"op":"estimate","query":"R1(x,y), R2(y,z), R3(z,w)","epsilon":0.3,"seed":{seed}}}"#
        )
    };
    let mut ca = TcpStream::connect(a).unwrap();
    let mut cb = TcpStream::connect(b).unwrap();
    const N: u64 = 3;
    for seed in 0..N {
        assert!(roundtrip(&mut ca, &est(seed)).contains("\"ok\":true"));
    }
    assert!(roundtrip(&mut cb, &est(N)).contains("\"ok\":true"));

    let resp = roundtrip(&mut cb, r#"{"op":"metrics"}"#);
    let metrics = Json::parse(resp.trim()).unwrap();
    for (path, want) in [
        (&["histograms", "serve.request_us.estimate", "count"][..], 1.0),
        (&["counters", "serve.executions"][..], 1.0),
        (&["counters", "serve.enqueued"][..], 1.0),
    ] {
        assert_eq!(member(&metrics, path).as_f64(), Some(want), "{path:?} of B: {resp}");
    }
    let resp = roundtrip(&mut cb, r#"{"op":"stats"}"#);
    assert_eq!(json_num_field(&resp, "estimates"), 1.0, "stats of B: {resp}");

    for (mut c, run) in [(ca, run_a), (cb, run_b)] {
        assert!(roundtrip(&mut c, r#"{"op":"shutdown"}"#).contains("\"ok\":true"));
        run.join().unwrap().unwrap();
    }
}
