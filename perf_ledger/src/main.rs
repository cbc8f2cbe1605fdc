//! `perf_ledger` — the end-to-end and per-layer performance ledger of the
//! `pqe` workspace.
//!
//! ```text
//! perf_ledger run [--seed N] [--repeat K] [--seconds S] [--smoke] [--out FILE]
//! perf_ledger trace [--workload W] [--seed N] [--seconds S] [--smoke]
//! perf_ledger compare PARENT.json CHANGE.json
//! perf_ledger --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `run` executes every workload, each in its own re-executed child process
//! (so `setup_s`, `peak_rss_mb` and the process-global `pqe-obs` registry
//! stay per workload), prints every metric with its unit, checks every
//! answer, writes the runs to a ledger file and exits non-zero on any
//! failed check. The last form runs one workload and prints its result as
//! one JSON line. See `README.md` for the workloads and metrics.

mod batch;
mod client;
mod compare;
mod graph_rpq;
mod json;
mod loadgen;
mod metrics;
mod oracle;
mod path_fpras;
mod procfs;
mod safe_lifted;
mod serve;
mod speed;
mod stats;
mod trace;

use json::Json;
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub const WORKLOADS: &[&str] = &[
    "path_fpras",
    "safe_lifted",
    "graph_rpq",
    "serve_read",
    "serve_update",
];
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

/// What one workload run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Samples required beyond a reported percentile.
    pub min_tail: usize,
    pub smoke: bool,
    /// Where inputs handed to child processes and trace files go.
    pub out_dir: PathBuf,
}

/// The per-layer table and the trace file contents of a traced run.
pub struct TraceOut {
    pub table: String,
    pub json: Json,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Set when the run measured something other than the system (a load
    /// generator that ran late). Its answers still count in `correct`; the
    /// run is printed `INVALID`, marked in the ledger and left out of
    /// `compare`.
    pub invalid: Option<String>,
    pub values: Values,
    pub trace: Option<TraceOut>,
    /// The host's mean slowness over an untraced run (see `speed`).
    pub slowness: Option<f64>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn attempt(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The cargo target directory this binary was built into.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.ancestors()
        .find(|d| {
            d.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))
}

/// The root of the measured workspace: this package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds (or confirms up to date) the `pqe` binary next to this one.
pub fn build_pqe() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "pqe",
            "--target-dir",
        ])
        .arg(&target)
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building pqe in {} failed ({status})",
            root.display()
        ));
    }
    Ok(target.join("release").join("pqe"))
}

fn context(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Ctx, String> {
    let out_dir = target_dir()?.join("perf_ledger");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    Ok(Ctx {
        seed,
        seconds,
        trace,
        min_tail: if smoke { 1 } else { stats::MIN_TAIL },
        smoke,
        out_dir,
    })
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    match name {
        "path_fpras" => batch::run(path_fpras::PathFpras::new(seed, smoke), ctx),
        "safe_lifted" => batch::run(safe_lifted::SafeLifted::new(seed, smoke), ctx),
        "graph_rpq" => batch::run(graph_rpq::GraphRpq::new(seed, smoke), ctx),
        "serve_read" => serve::run(ctx, false),
        "serve_update" => serve::run(ctx, true),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The result line of a single run: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_json(out: &Outcome, trace: bool) -> Json {
    let set = if trace { PER_LAYER } else { END_TO_END };
    let metrics = out.values.select(set).into_iter().map(|(n, v, u)| {
        (
            n,
            Json::obj([("value", Json::from(v)), ("unit", Json::str(u))]),
        )
    });
    Json::obj([
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn meta() -> Json {
    Json::obj([
        ("nproc", Json::from(procfs::nproc())),
        ("cpu", Json::str(procfs::cpu_model())),
        ("rev", Json::str(procfs::git_rev(&repo_root()))),
    ])
}

/// `--workload W`: one run, human-readable lines, then the JSON line.
fn single(name: &str, ctx: &Ctx) -> Result<(), String> {
    let out = run_workload(name, ctx)?;
    if !ctx.trace {
        if let Some(missing) = END_TO_END.iter().find(|(n, _)| out.values.get(n).is_none()) {
            return Err(format!("{name} did not measure {}", missing.0));
        }
    }
    let m = meta();
    println!(
        "# {name} seed {} {}s trace {} | nproc {} | {} | rev {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        m.num("nproc"),
        m.get("cpu").and_then(Json::as_str).unwrap_or(""),
        m.get("rev").and_then(Json::as_str).unwrap_or("")
    );
    for (n, v, u) in out
        .values
        .select(if ctx.trace { PER_LAYER } else { END_TO_END })
    {
        println!("{n:<40} {v:>14.4} {u}");
    }
    if let Some(s) = out.slowness {
        println!(
            "# reference computation at {s:.4}× its nominal {} ms: times divided by {s:.4}, rates multiplied",
            speed::NOMINAL_MS
        );
    }
    for f in &out.failures {
        println!("FAILED CHECK: {f}");
    }
    if let Some(why) = &out.invalid {
        println!("{INVALID}{why}");
    }
    if let Some(t) = out.trace.as_ref().filter(|_| ctx.trace) {
        print!("{}", t.table);
        let path = ctx.out_dir.join(format!("trace_{name}.json"));
        let body = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::from(ctx.seed)),
            ("meta", m),
            ("trace", t.json.clone()),
        ]);
        std::fs::write(&path, body.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
    }
    println!("{}", result_json(&out, ctx.trace));
    Ok(())
}

/// Prefix of the line that marks a run invalid.
const INVALID: &str = "INVALID: ";

/// Runs `workload` in a child process of this binary and returns its
/// result line and whether the run was valid.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let valid = !text.lines().any(|l| l.starts_with(INVALID));
    Ok((Json::parse(text.lines().last().unwrap_or_default())?, valid))
}

struct Opts {
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    workload: Option<String>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 11,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        workload: None,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--repeat" => o.repeat = value()?.parse().map_err(|_| "bad --repeat")?,
            "--workload" => o.workload = Some(value()?.clone()),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    if let Some(w) = &o.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(o)
}

fn seconds(o: &Opts) -> f64 {
    o.seconds.unwrap_or(if o.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    })
}

/// `run` / `trace` over several workloads: one child per run.
fn many(o: &Opts, trace: bool) -> Result<bool, String> {
    let names: Vec<&str> = match &o.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut runs = Vec::new();
    let (mut all_correct, mut invalid) = (true, 0);
    for rep in 0..o.repeat.max(1) {
        for &w in &names {
            let seed = o.seed + rep as u64;
            let (result, valid) = child(w, seed, seconds(o), trace, o.smoke)?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            invalid += usize::from(!valid);
            runs.push(Json::obj([
                ("workload", Json::str(w)),
                ("seed", Json::from(seed)),
                ("trace", Json::from(trace)),
                ("valid", Json::from(valid)),
                ("result", result),
            ]));
        }
    }
    if invalid > 0 {
        println!("# {invalid} run(s) invalid (load generator late): compare leaves them out");
    }
    let path = match &o.out {
        Some(p) => p.clone(),
        None => target_dir()?
            .join("perf_ledger")
            .join(format!("ledger_{}.json", o.seed)),
    };
    let ledger = Json::obj([
        ("meta", meta()),
        ("seconds", Json::from(seconds(o))),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&path, ledger.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# ledger written to {}", path.display());
    Ok(all_correct)
}

fn main_result() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let o = parse_opts(&args[1..])?;
            let [parent, change] = o.positional.as_slice() else {
                return Err("usage: perf_ledger compare PARENT.json CHANGE.json".into());
            };
            compare::run(Path::new(parent), Path::new(change))
        }
        Some("run") => many(&parse_opts(&args[1..])?, false),
        Some("trace") => many(&parse_opts(&args[1..])?, true),
        _ => {
            let o = parse_opts(&args)?;
            let name = o.workload.as_deref().ok_or(
                "usage: perf_ledger run|trace|compare … or perf_ledger --workload W --seed N --seconds S --trace 0|1",
            )?;
            if !o.positional.is_empty() {
                return Err(format!("unexpected argument {:?}", o.positional[0]));
            }
            let ctx = context(o.seed, seconds(&o), o.trace, o.smoke)?;
            single(name, &ctx).map(|()| true)
        }
    }
}

fn main() -> ExitCode {
    match main_result() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke mode runs every workload briefly, untraced and traced, and
    /// every metric `BENCHMARK.json` names comes out with its unit.
    #[test]
    fn smoke_emits_every_benchmark_metric() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the ledger");
        let spec = Json::parse(&spec).unwrap();
        let list = |key: &str| spec.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        for trace in [false, true] {
            let want = list(if trace { "per_layer" } else { "end_to_end" });
            for w in WORKLOADS {
                let ctx = context(3, SMOKE_SECONDS, trace, true).unwrap();
                let out = run_workload(w, &ctx).unwrap();
                assert!(out.correct(), "{w}: {:?} {:?}", out.failures, out.invalid);
                let got = result_json(&out, trace);
                let Some(Json::Obj(metrics)) = got.get("metrics") else {
                    panic!("no metrics")
                };
                assert_eq!(metrics.len(), want.len(), "{w}: metric count");
                for m in &want {
                    let name = field(m, "name");
                    let emitted = got
                        .path(&["metrics", &name])
                        .unwrap_or_else(|| panic!("{w}: {name} missing"));
                    assert_eq!(
                        emitted.get("unit").and_then(Json::as_str),
                        Some(field(m, "unit").as_str())
                    );
                    assert!(emitted
                        .get("value")
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite));
                }
            }
        }
    }
}
