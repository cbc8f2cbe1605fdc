//! `pqe` — command-line probabilistic query evaluation.
//!
//! ```text
//! pqe estimate    --db FILE --query 'R(x,y), S(y,z)' [--epsilon ε] [--seed N] [--method M]
//! pqe graph-estimate --graph FILE --rpq 'a -> road* -> b' [--epsilon ε] [--seed N] [--method M]
//! pqe reliability --db FILE --query Q [--epsilon ε] [--seed N]
//! pqe classify    --query Q
//! pqe sample      --db FILE --query Q [--count N] [--seed N]
//! pqe lineage     --db FILE --query Q [--materialize LIMIT]
//! ```
//!
//! Databases use the text format of `pqe_db::io` (one `prob Fact(args…)`
//! per line). Methods: `auto` (lifted when safe, else FPRAS), `fpras`,
//! `lifted`, `brute`, `karp-luby`, `mc`.

use pqe::arith::Rational;
use pqe::automata::config::MIN_EPSILON;
use pqe::automata::FprasConfig;
use pqe::core::baselines::{brute_force_pqe, karp_luby_pqe, naive_monte_carlo_pqe, Lineage};
use pqe::core::worlds::WeightedWorldSampler;
use pqe::core::router::closest;
use pqe::core::{
    landscape, Answer, Compiled, GraphMethod, GraphPlan, Method, Plan, Route, RoutedAnswer,
    RoutedPlan, Target,
};
use pqe::db::{io as dbio, Database, ProbDatabase};
use pqe::delta::{Delta, Epochs, VersionedDb};
use pqe::graph::ProbGraph;
use pqe::query::{parse, ConjunctiveQuery};
use pqe::serve::{ServeConfig, Server};
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
pqe — probabilistic query evaluation (van Bremen & Meel, PODS 2023)

USAGE:
  pqe estimate    --db FILE --query Q [--evidence E] [--epsilon E] [--seed N] [--method M]
                  [--threads N] [--profile] [--dump-automaton FILE]
  pqe reliability --db FILE --query Q [--epsilon E] [--seed N] [--threads N] [--profile]
  pqe graph-estimate --graph FILE --rpq 'a -> r* -> b' [--epsilon E] [--seed N]
                  [--method auto|enum|fpras] [--threads N] [--profile]
                  [--dump-automaton FILE]
  pqe classify    --query Q
  pqe sample      --db FILE --query Q [--count N] [--seed N]
  pqe marginals   --db FILE --query Q [--samples N] [--seed N]
  pqe influence   --db FILE --query Q [--epsilon E] [--seed N]
  pqe lineage     --db FILE --query Q [--materialize LIMIT]
  pqe apply-delta --db FILE --delta FILE [--output FILE]
  pqe serve       --db FILE [--graph FILE] [--addr HOST:PORT] [--workers N]
                  [--queue-depth N] [--deadline-ms N] [--cache-capacity N]
                  [--threads N]

SERVE CONCURRENCY:
  --workers N      worker shards draining the request queue; each owns a
                   private compiled-plan cache (default 4)
  --queue-depth N  bounded work-queue capacity; heavy requests arriving at
                   a full queue get a structured `overloaded` error
                   (default 64)

THREADS:
  --threads N sets the FPRAS worker count for the command (and the server
  default for requests that don't carry their own). N must be a
  non-negative integer; N = 0 is the auto sentinel — defer to the
  PQE_THREADS environment variable, then to the detected core count. So
  the precedence is flag > env > auto, and `--threads 0` is an explicit
  auto. The thread count never changes an estimate — only its wall-clock.

PROFILING:
  --profile records hierarchical phase spans (compile → ur_automaton /
  translate / multipliers; execute → count.nfta → rep → union_mc) and
  prints the span tree with per-phase totals and percentages after the
  result, plus the fpras.* sample counters. Profiling never touches the
  RNG streams: estimates are bit-identical with it on or off. Set
  PQE_LOG=debug|info|... for optional event logging to stderr (also
  perturbation-free).

METHODS (estimate):
  auto       routed: lifted inference when the query is safe, FPRAS otherwise [default]
  fpras      the paper's PQEEstimate (Theorem 1)
  lifted     exact safe-plan evaluation (hierarchical queries only)
  brute      exact enumeration of all 2^|D| worlds (tiny databases)
  karp-luby  lineage-free Karp-Luby estimator (20k samples)
  mc         naive Monte Carlo (100k worlds, additive error)
  auto/lifted/fpras dispatch through the core router; the chosen route and
  its rationale are printed with the result.

EVIDENCE (estimate):
  --evidence takes a conjunction in query syntax and evaluates the
  conditional probability P(Q | E). All-constant evidence (e.g.
  S('b','c')) conditions the database directly and keeps P(E) exact;
  evidence with variables evaluates P(Q∧E)/P(E) with each term routed
  independently and ε split across the estimated terms (ε/2 with one
  FPRAS term, ε/3 with two). P(E) = 0 is a structured error. Only the
  routed methods (auto, lifted, fpras) support --evidence.

PROBABILISTIC GRAPHS (graph-estimate):
  --graph loads an edge-labeled probabilistic graph (one edge per line,
  optional leading probability), --rpq gives a regular path query
  `source -> regex -> target` where an endpoint is a vertex name or `_`
  (existential) and the regex uses labels, `.` (or juxtaposition), `|`,
  `*`, `?`, and parentheses. Methods: auto (exact world enumeration up
  to 16 edges, FPRAS on larger acyclic graphs), enum, fpras. Cyclic
  graphs beyond enumeration reach are a structured error — no combined
  FPRAS is known for them. `pqe serve --graph FILE` additionally exposes
  the instance via the `graph_estimate` wire op.

  --dump-automaton FILE writes the compiled automaton (the RPQ product
  NFA here; the query NFTA on `estimate`) as Graphviz DOT.

DATABASE FORMAT: one fact per line, optional leading probability:
  0.9  Link(a,b)
  3/4  Link(b,c)
       Link(c,d)        # no probability = certain

GRAPH FORMAT: one edge per line, optional leading probability:
  0.9  a -road-> b
  1/2  b -road-> c
       c -rail-> d      # no probability = certain edge
  node e                # isolated vertex

DELTA FORMAT (apply-delta, serve `update` op): one op per line:
  + 1/3 R1(a,e)         # insert fact with probability 1/3
  - R1(a,b)             # delete an existing fact
  ~ 2/5 R2(b,c)         # re-probability an existing fact
  A batch validates atomically: either every op applies or none do.
  apply-delta rewrites --db in place unless --output names another file;
  a probability-only batch (~ ops) leaves compiled plans structurally
  valid, so a live server only recounts, never recompiles.
";

struct Args {
    positional: Vec<String>,
    options: std::collections::HashMap<String, String>,
}

/// Options that are bare flags (present/absent, no value argument).
const FLAG_OPTIONS: &[&str] = &["profile"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut options = std::collections::HashMap::new();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if FLAG_OPTIONS.contains(&name) {
                if options.insert(name.to_owned(), "true".to_owned()).is_some() {
                    return Err(format!("option --{name} given twice"));
                }
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("option --{name} requires a value"))?;
            if options.insert(name.to_owned(), value.clone()).is_some() {
                return Err(format!("option --{name} given twice"));
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Args {
        positional,
        options,
    })
}

impl Args {
    fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    fn epsilon(&self) -> Result<f64, String> {
        match self.opt("epsilon") {
            None => Ok(0.1),
            Some(s) => {
                let e: f64 = s.parse().map_err(|_| format!("bad --epsilon {s:?}"))?;
                // NaN fails both `e <= 0.0` and `e >= 1.0`, so the check
                // must be written as a negated conjunction.
                if !(e > 0.0 && e < 1.0) {
                    return Err(format!("--epsilon must lie in (0,1), got {e}"));
                }
                if e < MIN_EPSILON {
                    return Err(format!("--epsilon must be at least {MIN_EPSILON}, got {e}"));
                }
                Ok(e)
            }
        }
    }

    fn seed(&self) -> Result<u64, String> {
        match self.opt("seed") {
            None => Ok(0x5eed),
            Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}")),
        }
    }

    /// Worker threads; 0 (the default) defers to `PQE_THREADS`, then
    /// auto-detection — so the precedence is flag > env > auto.
    /// Negative, non-numeric and implausibly large values are rejected
    /// with a message that spells out the 0 sentinel.
    fn threads(&self) -> Result<usize, String> {
        use pqe_par::MAX_THREADS;
        match self.opt("threads") {
            None => Ok(0),
            Some(s) => {
                let t = s.trim();
                if t.starts_with('-') {
                    return Err(format!(
                        "--threads must be non-negative, got {s:?} (use 0 for auto: PQE_THREADS, then detected cores)"
                    ));
                }
                let n: usize = t.parse().map_err(|_| {
                    if !t.is_empty() && t.chars().all(|c| c.is_ascii_digit()) {
                        format!("--threads {s:?} overflows the supported range (max {MAX_THREADS}, 0 = auto)")
                    } else {
                        format!("--threads expects a non-negative integer, got {s:?} (0 = auto: PQE_THREADS, then detected cores)")
                    }
                })?;
                if n > MAX_THREADS {
                    return Err(format!(
                        "--threads {n} is implausibly large (max {MAX_THREADS}; 0 = auto)"
                    ));
                }
                Ok(n)
            }
        }
    }

    /// A count option that must be at least 1: with zero draws the
    /// sampler finds no world and would report `Pr(Q) = 0` whatever the
    /// query's probability.
    fn positive(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(s) => match s.parse::<usize>() {
                Ok(0) => Err(format!("--{name} must be at least 1, got 0")),
                Ok(n) => Ok(n),
                Err(_) => Err(format!("bad --{name} {s:?}")),
            },
        }
    }

    /// `--profile`: record phase spans and print the tree after the run.
    fn profile(&self) -> bool {
        self.opt("profile").is_some()
    }

    fn check_known(&self, allowed: &[&str]) -> Result<(), String> {
        for k in self.options.keys() {
            if !allowed.contains(&k.as_str()) {
                let hint = closest(k, allowed)
                    .map(|a| format!(" (did you mean --{a}?)"))
                    .unwrap_or_else(|| " (see `pqe help`)".to_owned());
                return Err(format!("unknown option --{k}{hint}"));
            }
        }
        Ok(())
    }
}

fn load_db(args: &Args) -> Result<ProbDatabase, String> {
    let path = args.require("db")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    dbio::load_str(&src).map_err(|e| format!("{path}: {e}"))
}

fn load_query(args: &Args) -> Result<ConjunctiveQuery, String> {
    let q = args.require("query")?;
    parse(q).map_err(|e| e.to_string())
}

/// Parses `--query` and checks its atoms' arities against `h`'s schema,
/// so no engine pairs an atom's terms with the wrong fact arguments.
fn load_query_for(args: &Args, h: &ProbDatabase) -> Result<ConjunctiveQuery, String> {
    let q = load_query(args)?;
    pqe::core::check_arities(&q, h.database().schema()).map_err(|e| e.to_string())?;
    Ok(q)
}

fn load_graph(args: &Args) -> Result<ProbGraph, String> {
    let path = args.require("graph")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    pqe::graph::load_str(&src).map_err(|e| format!("{path}: {e}"))
}

/// Compiles `target` through the one [`Plan`] path `pqe serve` also
/// uses, writes `--dump-automaton` when asked, runs the plan at `cfg` and
/// prints its answer. `h` is the database the target reads (empty for a
/// graph target, which never reads it).
fn answer(args: &Args, target: Target, h: &ProbDatabase, cfg: &FprasConfig) -> Result<(), String> {
    let plan = Plan::compile_at(target, h, &Epochs::new()).map_err(|e| e.to_string())?;
    if let Some(path) = args.opt("dump-automaton") {
        let (dot, decision) = match plan.compiled() {
            Compiled::Query(p) => (p.nfta().map(pqe::automata::nfta_to_dot), &p.decision),
            Compiled::Graph(p) => (p.nfa().map(pqe::automata::nfa_to_dot), &p.decision),
            Compiled::Conditional(_) | Compiled::Reliability(_) => {
                unreachable!("--dump-automaton is refused before compiling these")
            }
        };
        match dot {
            Some(dot) => {
                std::fs::write(path, dot).map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!("automaton: wrote {path}");
            }
            None => eprintln!("automaton: none compiled ({} route)", decision.route.name()),
        }
    }
    let answer = plan.execute(cfg).map_err(|e| e.to_string())?;
    let (value, eps) = (answer.to_f64(), cfg.epsilon);
    match (&answer, plan.compiled()) {
        (
            Answer::Routed(a),
            Compiled::Query(RoutedPlan { decision: d, .. })
            | Compiled::Graph(GraphPlan { decision: d, .. }),
        ) => {
            let subject = match plan.target() {
                Target::Graph { rpq, .. } => rpq.to_string(),
                _ => "Q".to_owned(),
            };
            match a {
                RoutedAnswer::Exact(p) => {
                    let label = match d.route {
                        Route::Enum => "world enumeration",
                        _ => "lifted inference",
                    };
                    println!("Pr({subject}) = {p} ≈ {value:.6}   [{label}, exact]");
                }
                RoutedAnswer::Estimate(r) => println!(
                    "Pr({subject}) ≈ {value:.6}   [FPRAS, ε = {eps}, {} states, {:.1?}]",
                    r.automaton_states, r.elapsed
                ),
            }
            println!("route    : {} [{}]", d.route.name(), d.rationale);
        }
        (Answer::Conditional(r), Compiled::Conditional(p)) => {
            let pe = r.prob_evidence.to_f64();
            match &r.exact {
                Some(x) => println!("Pr(Q|E) = {x} ≈ {:.6}   [exact, P(E) = {pe:.6}]", x.to_f64()),
                None => println!(
                    "Pr(Q|E) ≈ {value:.6}   [ε = {eps}, per-term ε = {}, P(E) = {pe:.6}, {} states, {:.1?}]",
                    r.split_epsilon.unwrap_or(eps),
                    r.automaton_states,
                    r.elapsed
                ),
            }
            let jd = p.joint_decision();
            println!("route    : {} [{}]", jd.route.name(), jd.rationale);
            match p.evidence_decision() {
                Some(ed) => println!("route(E) : {} [{}]", ed.route.name(), ed.rationale),
                None => println!("route(E) : exact product (ground evidence)"),
            }
        }
        (Answer::Reliability(r), _) => println!(
            "UR(Q, D) ≈ {}   of 2^{} subinstances   [UREstimate, {:.1?}]",
            r.reliability,
            h.len(),
            r.elapsed
        ),
        _ => unreachable!("a plan answers in the shape it compiled to"),
    }
    Ok(())
}

/// Every `--method` the estimate command accepts: the three routed
/// methods (dispatched through `pqe_core::Plan`) plus the CLI-only
/// reference baselines.
const ESTIMATE_METHODS: &[&str] = &["auto", "lifted", "fpras", "brute", "karp-luby", "mc"];

fn cmd_estimate(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "db",
        "query",
        "evidence",
        "epsilon",
        "seed",
        "method",
        "threads",
        "profile",
        "dump-automaton",
    ])?;
    let _profile = ProfileGuard::start(args.profile(), "estimate");
    let h = load_db(args)?;
    let q = load_query_for(args, &h)?;
    let eps = args.epsilon()?;
    let seed = args.seed()?;
    // Validate up front so a bad value errors on every method, not just
    // the FPRAS route.
    let threads = args.threads()?;
    let method = args.opt("method").unwrap_or("auto");
    let class = landscape::classify(&q);

    if !ESTIMATE_METHODS.contains(&method) {
        let hint = closest(method, ESTIMATE_METHODS)
            .map(|m| format!("; did you mean {m:?}?"))
            .unwrap_or_default();
        return Err(format!(
            "unknown --method {method:?} (methods: {}{hint})",
            ESTIMATE_METHODS.join(", ")
        ));
    }

    // The routed methods compile through `Plan`, as `pqe serve` does, so
    // the CLI and the server print the same digits by construction.
    if let Ok(method) = Method::parse(method) {
        let target = match args.opt("evidence") {
            Some(_) if args.opt("dump-automaton").is_some() => {
                return Err(
                    "--dump-automaton is not supported with --evidence (two plans, no single automaton)"
                        .to_owned(),
                );
            }
            Some(ev_text) => {
                let evidence = parse(ev_text).map_err(|e| format!("--evidence: {e}"))?;
                Target::Conditional { q, evidence, method }
            }
            None => Target::Query { q, method },
        };
        let cfg = FprasConfig::with_epsilon(eps).with_seed(seed).with_threads(threads);
        answer(args, target, &h, &cfg)?;
        eprintln!("landscape: {class}");
        return Ok(());
    }

    // Reference baselines (CLI-only) don't support conditioning.
    if args.opt("evidence").is_some() {
        return Err(format!(
            "--evidence requires a routed method (auto, lifted, or fpras), got --method {method:?}"
        ));
    }
    if args.opt("dump-automaton").is_some() {
        return Err(format!(
            "--dump-automaton requires a routed method (auto, lifted, or fpras), got --method {method:?}"
        ));
    }
    match method {
        "brute" => {
            if h.len() > pqe::db::worlds::MAX_ENUM_FACTS {
                return Err(format!(
                    "--method brute needs |D| ≤ {}, got {}",
                    pqe::db::worlds::MAX_ENUM_FACTS,
                    h.len()
                ));
            }
            let p = brute_force_pqe(&q, &h);
            println!("Pr(Q) = {} ≈ {:.6}   [brute force, exact]", p, p.to_f64());
        }
        "karp-luby" => {
            let r = karp_luby_pqe(&q, &h, 20_000, seed);
            println!(
                "Pr(Q) ≈ {:.6}   [Karp-Luby, {} samples, E[#true clauses] = {:.1}]",
                r.estimate.to_f64(),
                r.samples,
                r.mean_true_clauses
            );
        }
        "mc" => {
            let p = naive_monte_carlo_pqe(&q, &h, 100_000, seed);
            println!("Pr(Q) ≈ {p:.6}   [naive Monte Carlo, 100k worlds, additive error]");
        }
        _ => unreachable!("validated against ESTIMATE_METHODS above"),
    }
    eprintln!("landscape: {class}");
    Ok(())
}

fn cmd_graph_estimate(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "graph",
        "rpq",
        "epsilon",
        "seed",
        "method",
        "threads",
        "profile",
        "dump-automaton",
    ])?;
    let _profile = ProfileGuard::start(args.profile(), "graph-estimate");
    let g = Arc::new(load_graph(args)?);
    let rpq_text = args.require("rpq")?;
    let eps = args.epsilon()?;
    let method = GraphMethod::parse(args.opt("method").unwrap_or("auto"))?;
    let cfg = FprasConfig::with_epsilon(eps)
        .with_seed(args.seed()?)
        .with_threads(args.threads()?);
    let rpq = pqe::graph::parse(rpq_text).map_err(|e| e.to_string())?;
    let target = Target::Graph { graph: Arc::clone(&g), rpq, method };
    // A graph target never reads the database.
    let empty = ProbDatabase::uniform(Database::default(), Rational::one());
    answer(args, target, &empty, &cfg)?;
    eprintln!(
        "graph    : {} vertices, {} edges, {}",
        g.num_vertices(),
        g.num_edges(),
        if g.is_acyclic() { "acyclic" } else { "cyclic" }
    );
    Ok(())
}

fn cmd_reliability(args: &Args) -> Result<(), String> {
    args.check_known(&["db", "query", "epsilon", "seed", "threads", "profile"])?;
    let _profile = ProfileGuard::start(args.profile(), "reliability");
    let h = load_db(args)?;
    let q = load_query_for(args, &h)?;
    let cfg = FprasConfig::with_epsilon(args.epsilon()?)
        .with_seed(args.seed()?)
        .with_threads(args.threads()?);
    answer(args, Target::Reliability(q), &h, &cfg)
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    args.check_known(&["query"])?;
    let q = load_query(args)?;
    let c = landscape::classify(&q);
    println!("query    : {q}");
    println!("landscape: {c}");
    println!("advice   : {}", c.verdict.advice());
    Ok(())
}

fn cmd_sample(args: &Args) -> Result<(), String> {
    args.check_known(&["db", "query", "count", "seed", "epsilon"])?;
    let h = load_db(args)?;
    let q = load_query_for(args, &h)?;
    let count = args.positive("count", 5)?;
    let cfg = FprasConfig::with_epsilon(args.epsilon()?).with_seed(args.seed()?);
    let sampler = WeightedWorldSampler::new(&q, &h, cfg).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(args.seed()?);
    let worlds = sampler.sample_batch(count, &mut rng);
    if worlds.is_empty() {
        println!("no satisfying world exists (Pr(Q) = 0)");
        return Ok(());
    }
    for (i, w) in worlds.iter().enumerate() {
        let facts: Vec<String> = h
            .database()
            .fact_ids()
            .filter(|f| w[f.index()])
            .map(|f| h.database().display_fact(f))
            .collect();
        println!("world {}: {{{}}}", i + 1, facts.join(", "));
    }
    Ok(())
}

fn cmd_marginals(args: &Args) -> Result<(), String> {
    args.check_known(&["db", "query", "samples", "seed", "epsilon"])?;
    let h = load_db(args)?;
    let q = load_query_for(args, &h)?;
    let samples = args.positive("samples", 2000)?;
    let cfg = FprasConfig::with_epsilon(args.epsilon()?).with_seed(args.seed()?);
    let sampler = WeightedWorldSampler::new(&q, &h, cfg).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(args.seed()?);
    let Some(marginals) = sampler.marginals(samples, &mut rng) else {
        println!("Pr(Q) = 0: conditional marginals undefined");
        return Ok(());
    };
    println!("P(fact ∈ world | Q holds), from {samples} conditioned samples:");
    let mut rows: Vec<(f64, String)> = h
        .database()
        .fact_ids()
        .map(|f| (marginals[f.index()], h.database().display_fact(f)))
        .collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    for (p, fact) in rows {
        println!("  {p:.4}  {fact}");
    }
    Ok(())
}

fn cmd_influence(args: &Args) -> Result<(), String> {
    args.check_known(&["db", "query", "epsilon", "seed"])?;
    let h = load_db(args)?;
    let q = load_query_for(args, &h)?;
    let cfg = FprasConfig::with_epsilon(args.epsilon()?).with_seed(args.seed()?);
    println!("influence ∂Pr(Q)/∂π(f) = Pr(Q|f=1) − Pr(Q|f=0):");
    let influences = pqe::core::fact_influences(&q, &h, &cfg).map_err(|e| e.to_string())?;
    let facts = h.database().fact_ids().map(|f| h.database().display_fact(f));
    let mut rows: Vec<(f64, String)> = influences.into_iter().zip(facts).collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    for (inf, fact) in rows {
        println!("  {inf:+.4}  {fact}");
    }
    Ok(())
}

fn cmd_lineage(args: &Args) -> Result<(), String> {
    args.check_known(&["db", "query", "materialize"])?;
    let h = load_db(args)?;
    let q = load_query_for(args, &h)?;
    let count = Lineage::clause_count(&q, h.database());
    println!("lineage clauses: {count}");
    if let Some(limit) = args.opt("materialize") {
        let limit: usize = limit.parse().map_err(|_| "bad --materialize".to_owned())?;
        let lin = Lineage::build(&q, h.database(), limit);
        for clause in lin.clauses() {
            let facts: Vec<String> = clause
                .iter()
                .map(|&f| h.database().display_fact(f))
                .collect();
            println!("  {}", facts.join(" ∧ "));
        }
        if lin.truncated() {
            println!("  … truncated at {limit}");
        }
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "db",
        "graph",
        "addr",
        "workers",
        "queue-depth",
        "deadline-ms",
        "cache-capacity",
        "threads",
    ])?;
    let h = load_db(args)?;
    let g = match args.opt("graph") {
        Some(_) => Some(load_graph(args)?),
        None => None,
    };
    let parse_opt = |name: &str, default: usize| -> Result<usize, String> {
        match args.opt(name) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad --{name} {s:?}")),
        }
    };
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.opt("addr").unwrap_or("127.0.0.1:7431").to_owned(),
        workers: parse_opt("workers", defaults.workers)?.max(1),
        queue_depth: parse_opt("queue-depth", defaults.queue_depth)?.max(1),
        deadline_ms: parse_opt("deadline-ms", defaults.deadline_ms as usize)? as u64,
        cache_capacity: parse_opt("cache-capacity", defaults.cache_capacity)?.max(1),
        threads: args.threads()?,
    };
    let server = Server::bind_with_graph(cfg, h, g).map_err(|e| format!("bind: {e}"))?;
    // Scripts parse this line for the ephemeral port; keep the format.
    println!("pqe-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("serve: {e}"))?;
    println!("pqe-serve: clean shutdown");
    Ok(())
}

fn cmd_apply_delta(args: &Args) -> Result<(), String> {
    args.check_known(&["db", "delta", "output"])?;
    let h = load_db(args)?;
    let delta_path = args.require("delta")?;
    let text = std::fs::read_to_string(delta_path)
        .map_err(|e| format!("could not read delta file {delta_path:?}: {e}"))?;
    let delta = Delta::parse_str(&text).map_err(|e| format!("parse {delta_path}: {e}"))?;
    let mut db = VersionedDb::new(h);
    let report = db.apply(&delta).map_err(|e| format!("apply: {e}"))?;
    println!(
        "applied {} op(s): {} inserted, {} deleted, {} reprobed",
        delta.len(),
        report.inserted,
        report.deleted,
        report.reprobed
    );
    if !report.touched.is_empty() {
        println!("touched relations: {}", report.touched.join(", "));
    }
    if report.is_probability_only() && !report.is_noop() {
        println!("probability-only: compiled plans stay structurally valid");
    } else if !report.structural.is_empty() {
        println!("structural changes: {}", report.structural.join(", "));
    }
    // Default to rewriting the input in place; --output redirects so the
    // original fixture survives (e.g. for before/after comparisons).
    let out = match args.opt("output") {
        Some(p) => p,
        None => args.require("db")?,
    };
    dbio::save(db.current(), out).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} fact(s) to {out}", db.current().len());
    Ok(())
}

/// Enables span recording for the duration of a profiled command and
/// prints the rendered tree (plus the fpras.* counters) when dropped.
/// Profiling never touches RNG streams, so the printed digits are
/// bit-identical to an unprofiled run.
struct ProfileGuard {
    root: Option<pqe_obs::span::Span>,
}

impl ProfileGuard {
    fn start(enabled: bool, root: &'static str) -> ProfileGuard {
        if !enabled {
            return ProfileGuard { root: None };
        }
        pqe_obs::span::set_enabled(true);
        ProfileGuard { root: Some(pqe_obs::span::span(root)) }
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        let Some(root) = self.root.take() else { return };
        drop(root); // close the root span before snapshotting
        pqe_obs::span::set_enabled(false);
        let snap = pqe_obs::span::snapshot();
        println!("\n--- profile: phase totals (summed across threads) ---");
        print!("{}", pqe_obs::span::render(&snap));
        let metrics = pqe_obs::metrics::snapshot();
        let fpras: Vec<_> = metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("fpras."))
            .collect();
        if !fpras.is_empty() {
            println!("--- counters ---");
            for (name, value) in fpras {
                println!("{name:<42} {value:>12}");
            }
        }
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err("no command given (see `pqe help`)".to_owned());
    };
    let args = parse_args(&argv[1..])?;
    if !args.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", args.positional[0]));
    }
    match cmd.as_str() {
        "estimate" => cmd_estimate(&args),
        "graph-estimate" => cmd_graph_estimate(&args),
        "reliability" => cmd_reliability(&args),
        "classify" => cmd_classify(&args),
        "sample" => cmd_sample(&args),
        "marginals" => cmd_marginals(&args),
        "influence" => cmd_influence(&args),
        "lineage" => cmd_lineage(&args),
        "apply-delta" => cmd_apply_delta(&args),
        "serve" => cmd_serve(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (see `pqe help`)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
