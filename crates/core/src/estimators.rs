//! The three estimators of the paper: `PathEstimate` (Thm 2),
//! `UREstimate` (Thm 3), and `PQEEstimate` (Thm 1).

use crate::arity::{check_arities, ArityMismatch};
use crate::plan::compile_ur_plan;
use crate::reductions::{
    build_path_nfa, build_path_pqe_nfa, build_pqe_automaton, PqeAutomaton, ReductionError,
};
use pqe_arith::{BigFloat, BigUint, Rational};
use pqe_automata::{count_nfa, count_nfta, FprasConfig};
use pqe_db::{Database, ProbDatabase};
use pqe_query::ConjunctiveQuery;
use std::time::Instant;

/// Why an estimate could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The reduction could not be built (self-joins, not a path query, …).
    Reduction(ReductionError),
    /// A query atom's arity disagrees with the database schema.
    Arity(ArityMismatch),
}

impl From<ArityMismatch> for EstimateError {
    fn from(e: ArityMismatch) -> Self {
        EstimateError::Arity(e)
    }
}

impl From<ReductionError> for EstimateError {
    fn from(e: ReductionError) -> Self {
        EstimateError::Reduction(e)
    }
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::Reduction(e) => write!(f, "{e}"),
            EstimateError::Arity(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// Result of `PQEEstimate` (Theorem 1).
#[derive(Debug, Clone)]
pub struct PqeReport {
    /// The `(1±ε)` estimate of `Pr_H(Q)`.
    pub probability: BigFloat,
    /// Tree size `k` counted.
    pub target_size: usize,
    /// The denominator `d = ∏ d_f`.
    pub denominator: BigUint,
    /// States / transition-encoding size of the final NFTA.
    pub automaton_states: usize,
    /// Encoding size of the final NFTA.
    pub automaton_size: usize,
    /// Resolved worker-thread count the estimate ran with (the estimate
    /// itself is bit-identical for a fixed seed at any thread count).
    pub threads: usize,
    /// Wall-clock construction + counting time.
    pub elapsed: std::time::Duration,
}

impl PqeReport {
    /// The report of one counting run that found `count` accepted words or
    /// trees of size `target_size`: `Pr = count / denominator`. Every
    /// FPRAS route (Thm 1, the path NFA, the RPQ product) reports here.
    pub(crate) fn from_count(
        count: BigFloat,
        denominator: BigUint,
        target_size: usize,
        automaton_states: usize,
        automaton_size: usize,
        cfg: &FprasConfig,
        start: Instant,
    ) -> PqeReport {
        PqeReport {
            probability: count / BigFloat::from_biguint(&denominator),
            target_size,
            denominator,
            automaton_states,
            automaton_size,
            threads: cfg.effective_threads(),
            elapsed: start.elapsed(),
        }
    }
}

/// The Theorem 1 build step, under the `compile` span: everything
/// `PQEEstimate` derives from `(Q, H)` alone, after checking the query's
/// arities against the schema.
pub(crate) fn compile_pqe(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
) -> Result<PqeAutomaton, EstimateError> {
    check_arities(q, h.database().schema())?;
    let _span = pqe_obs::span::span("compile");
    Ok(build_pqe_automaton(q, h)?)
}

/// The Theorem 1 count step, under the `execute` span: CountNFTA on the
/// compiled automaton, divided by the denominator. `elapsed` covers only
/// this step.
pub(crate) fn count_pqe(pqe: &PqeAutomaton, cfg: &FprasConfig) -> PqeReport {
    let _span = pqe_obs::span::span("execute");
    let start = Instant::now();
    let trees = count_nfta(&pqe.nfta, pqe.target_size, cfg);
    let (states, size) = (pqe.nfta.num_states(), pqe.nfta.size());
    PqeReport::from_count(
        trees,
        pqe.denominator.clone(),
        pqe.target_size,
        states,
        size,
        cfg,
        start,
    )
}

/// `PQEEstimate(Q, H)` — Theorem 1: a `(1±ε)` approximation of `Pr_H(Q)`
/// for self-join-free bounded-hypertree-width conjunctive queries, in time
/// `poly(|Q|, |H|, ε⁻¹)`.
///
/// The empty query is certain (`Pr = 1`); a query over relations with no
/// facts gets probability 0 — both handled by the construction itself.
///
/// It runs the same build and count steps as the FPRAS route of
/// [`RoutedPlan`](crate::RoutedPlan); callers that evaluate the same
/// `(Q, H)` repeatedly should compile a `RoutedPlan` once and execute it
/// per request — the result is bit-identical either way.
pub fn pqe_estimate(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
    cfg: &FprasConfig,
) -> Result<PqeReport, EstimateError> {
    let start = Instant::now();
    let mut report = count_pqe(&compile_pqe(q, h)?, cfg);
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Result of `UREstimate` (Theorem 3) and `PathEstimate` (Theorem 2).
#[derive(Debug, Clone)]
pub struct UrReport {
    /// The `(1±ε)` estimate of `UR(Q, D)` (a count, so reported as a wide
    /// float; round with [`BigFloat::to_biguint_round`]).
    pub reliability: BigFloat,
    /// Tree size counted (`|D'| + c`), or string length (`|D'|`) on the
    /// path route.
    pub target_size: usize,
    /// Free facts outside `Q`'s relations (already folded into
    /// `reliability` as `2^dropped`).
    pub dropped_facts: usize,
    /// States of the translated NFTA (or of the path NFA).
    pub automaton_states: usize,
    /// Encoding size of the translated NFTA (or of the path NFA).
    pub automaton_size: usize,
    /// Resolved worker-thread count the estimate ran with.
    pub threads: usize,
    /// Wall-clock time.
    pub elapsed: std::time::Duration,
}

impl UrReport {
    /// The report of one counting run that found `count` accepted words or
    /// trees of size `target_size`, with the `2^dropped_facts` free facts
    /// folded in. Both reliability routes (Thm 2, Thm 3) report here.
    pub(crate) fn from_count(
        count: BigFloat,
        dropped_facts: usize,
        target_size: usize,
        automaton_states: usize,
        automaton_size: usize,
        cfg: &FprasConfig,
        start: Instant,
    ) -> UrReport {
        UrReport {
            reliability: count.scale_exp(dropped_facts as i64),
            target_size,
            dropped_facts,
            automaton_states,
            automaton_size,
            threads: cfg.effective_threads(),
            elapsed: start.elapsed(),
        }
    }
}

/// `UREstimate(Q, D)` — Theorem 3: a `(1±ε)` approximation of the uniform
/// reliability `UR(Q, D)` (the number of satisfying subinstances).
///
/// Like [`pqe_estimate`], a build step then a count step: the
/// [`UrPlan`](crate::plan::UrPlan) a reliability [`Target`](crate::Target)
/// compiles to, then [`UrPlan::execute`](crate::plan::UrPlan::execute).
pub fn ur_estimate(
    q: &ConjunctiveQuery,
    db: &Database,
    cfg: &FprasConfig,
) -> Result<UrReport, EstimateError> {
    let start = Instant::now();
    let plan = compile_ur_plan(q, db)?;
    let mut report = plan.execute(cfg);
    report.elapsed = start.elapsed();
    Ok(report)
}

/// `PathEstimate(Q, D)` — Theorem 2 (the §3 warm-up): a `(1±ε)`
/// approximation of `UR(Q, D)` for self-join-free *path* queries, via the
/// string-automaton reduction and CountNFA.
pub fn path_ur_estimate(
    q: &ConjunctiveQuery,
    db: &Database,
    cfg: &FprasConfig,
) -> Result<UrReport, EstimateError> {
    let start = Instant::now();
    check_arities(q, db.schema())?;
    let p = build_path_nfa(q, db)?;
    let strings = count_nfa(&p.nfa, p.target_len, cfg);
    let (states, size) = (p.nfa.num_states(), p.nfa.size());
    Ok(UrReport::from_count(
        strings,
        p.dropped_facts,
        p.target_len,
        states,
        size,
        cfg,
        start,
    ))
}

/// `PathPQEEstimate(Q, H)` — the weighted extension of Theorem 2 (see
/// `reductions::path_pqe`): a `(1±ε)` approximation of `Pr_H(Q)` for
/// self-join-free *path* queries, entirely via string automata.
pub fn path_pqe_estimate(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
    cfg: &FprasConfig,
) -> Result<PqeReport, EstimateError> {
    let start = Instant::now();
    check_arities(q, h.database().schema())?;
    let p = build_path_pqe_nfa(q, h)?;
    let strings = count_nfa(&p.nfa, p.target_len, cfg);
    let (states, size) = (p.nfa.num_states(), p.nfa.size());
    Ok(PqeReport::from_count(
        strings,
        p.denominator,
        p.target_len,
        states,
        size,
        cfg,
        start,
    ))
}

/// Sensitivity of the query probability to each fact: estimates the
/// *influence* `∂Pr_H(Q)/∂π(f) = Pr(Q | f present) − Pr(Q | f absent)`
/// (by multilinearity of `Pr_H(Q)` in the fact probabilities) of every
/// fact of `h`, in fact-id order.
///
/// The Theorem 1 automaton is compiled once. Each of the `2·|H|` terms
/// reweights it to `π(f) = 1` or `π(f) = 0` ([`PqeAutomaton::reweight`],
/// which redoes only the multiplier gadgets) and counts it; a reweighted
/// automaton equals a fresh compile, so each term is bit-identical to
/// [`pqe_estimate`] on the modified instance.
///
/// Both terms carry `(1±ε)` *relative* error, so the difference carries
/// **additive** error up to `ε·(Pr(Q|f=1) + Pr(Q|f=0))`; choose ε
/// accordingly. Influence ranks facts by how much cleaning/verifying them
/// would change the query answer — the sensitivity analysis use-case of
/// probabilistic databases.
pub fn fact_influences(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
    cfg: &FprasConfig,
) -> Result<Vec<f64>, EstimateError> {
    let mut pqe = compile_pqe(q, h)?;
    let mut edited = h.clone();
    let mut influences = Vec::with_capacity(h.len());
    for f in h.database().fact_ids() {
        let mut term = |p: Rational| {
            edited.set_prob(f, p);
            pqe.reweight(q, &edited)
                .expect("a probability edit keeps the fact set");
            count_pqe(&pqe, cfg).probability.to_f64()
        };
        influences.push(term(Rational::one()) - term(Rational::zero()));
        edited.set_prob(f, h.prob(f).clone());
    }
    Ok(influences)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{brute_force_pqe, brute_force_ur};
    use pqe_db::generators;
    use pqe_query::shapes;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    fn cfg() -> FprasConfig {
        FprasConfig::with_epsilon(0.15).with_seed(1234)
    }

    fn assert_rel_close(est: &BigFloat, exact: &BigFloat, tol: f64, ctx: &str) {
        if exact.is_zero() {
            assert!(est.is_zero(), "{ctx}: expected 0, got {est}");
            return;
        }
        let rel = est.relative_error_to(exact);
        assert!(rel <= tol, "{ctx}: exact {exact}, est {est}, rel {rel}");
    }

    #[test]
    fn pqe_estimate_matches_brute_force_on_unsafe_path() {
        let mut rng = StdRng::seed_from_u64(61);
        let db = generators::layered_graph_connected(3, 2, 0.5, &mut rng);
        let h = generators::with_random_probs(db, 4, &mut rng);
        let q = shapes::path_query(3);
        let exact = BigFloat::from_rational(&brute_force_pqe(&q, &h));
        let report = pqe_estimate(&q, &h, &cfg()).unwrap();
        assert_rel_close(&report.probability, &exact, 0.15, "3-path");
    }

    #[test]
    fn pqe_estimate_matches_brute_force_on_h0() {
        let mut rng = StdRng::seed_from_u64(62);
        let mut db = pqe_db::Database::new(pqe_db::Schema::new([("R", 1), ("S", 2), ("T", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        db.add_fact("R", &["b"]).unwrap();
        db.add_fact("S", &["a", "u"]).unwrap();
        db.add_fact("S", &["b", "v"]).unwrap();
        db.add_fact("S", &["b", "u"]).unwrap();
        db.add_fact("T", &["u"]).unwrap();
        db.add_fact("T", &["v"]).unwrap();
        let h = generators::with_random_probs(db, 6, &mut rng);
        let q = shapes::h0_query();
        let exact = BigFloat::from_rational(&brute_force_pqe(&q, &h));
        let report = pqe_estimate(&q, &h, &cfg()).unwrap();
        assert_rel_close(&report.probability, &exact, 0.15, "h0");
    }

    #[test]
    fn ur_estimate_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(63);
        let db = generators::layered_graph_connected(3, 2, 0.5, &mut rng);
        let q = shapes::path_query(3);
        let exact = BigFloat::from_biguint(&brute_force_ur(&q, &db));
        let report = ur_estimate(&q, &db, &cfg()).unwrap();
        assert_rel_close(&report.reliability, &exact, 0.15, "ur 3-path");
    }

    #[test]
    fn path_estimate_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(64);
        let db = generators::layered_graph_connected(4, 2, 0.4, &mut rng);
        let q = shapes::path_query(4);
        let exact = BigFloat::from_biguint(&brute_force_ur(&q, &db));
        let report = path_ur_estimate(&q, &db, &cfg()).unwrap();
        assert_rel_close(&report.reliability, &exact, 0.15, "path nfa");
    }

    #[test]
    fn nfa_and_nfta_routes_agree_on_paths() {
        let mut rng = StdRng::seed_from_u64(65);
        let db = generators::layered_graph_connected(3, 3, 0.5, &mut rng);
        let q = shapes::path_query(3);
        let via_nfa = path_ur_estimate(&q, &db, &cfg()).unwrap().reliability;
        let via_nfta = ur_estimate(&q, &db, &cfg()).unwrap().reliability;
        assert_rel_close(&via_nfa, &via_nfta, 0.3, "route agreement");
    }

    #[test]
    fn ur_pqe_half_relation() {
        // UR(Q,D) = 2^{|D|} · Pr_{π≡1/2}(Q): E10.
        let mut rng = StdRng::seed_from_u64(66);
        let db = generators::layered_graph_connected(2, 2, 0.6, &mut rng);
        let q = shapes::path_query(2);
        let n = db.len();
        let ur = ur_estimate(&q, &db, &cfg()).unwrap().reliability;
        let h = generators::with_uniform_probs(db, Rational::from_ratio(1, 2));
        let pr = pqe_estimate(&q, &h, &cfg()).unwrap().probability;
        let scaled = pr.scale_exp(n as i64);
        assert_rel_close(&ur, &scaled, 0.3, "ur/pqe relation");
    }

    #[test]
    fn empty_query_is_certain() {
        let db = pqe_db::Database::new(pqe_db::Schema::new([("R", 1)]));
        let h = ProbDatabase::uniform(db.clone(), Rational::from_ratio(1, 2));
        let q = shapes::path_query(1).restrict_atoms(&[]);
        let report = pqe_estimate(&q, &h, &cfg()).unwrap();
        assert_eq!(report.probability.to_f64(), 1.0);
        let ur = ur_estimate(&q, &db, &cfg()).unwrap();
        assert_eq!(ur.reliability.to_f64(), 1.0); // 2^0 (empty db)
    }

    #[test]
    fn cyclic_width2_query_end_to_end() {
        let mut rng = StdRng::seed_from_u64(67);
        let mut db = pqe_db::Database::new(pqe_db::Schema::new([("R1", 2), ("R2", 2), ("R3", 2)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R1", &["a", "c"]).unwrap();
        db.add_fact("R2", &["b", "c"]).unwrap();
        db.add_fact("R2", &["c", "d"]).unwrap();
        db.add_fact("R3", &["c", "a"]).unwrap();
        db.add_fact("R3", &["d", "a"]).unwrap();
        let h = generators::with_random_probs(db, 5, &mut rng);
        let q = shapes::cycle_query(3);
        let exact = BigFloat::from_rational(&brute_force_pqe(&q, &h));
        let report = pqe_estimate(&q, &h, &cfg()).unwrap();
        assert_rel_close(&report.probability, &exact, 0.15, "cycle");
    }

    #[test]
    fn path_pqe_estimate_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(68);
        let db = generators::layered_graph_connected(3, 2, 0.6, &mut rng);
        let h = generators::with_random_probs(db, 4, &mut rng);
        let q = shapes::path_query(3);
        let exact = BigFloat::from_rational(&brute_force_pqe(&q, &h));
        let report = path_pqe_estimate(&q, &h, &cfg()).unwrap();
        assert_rel_close(&report.probability, &exact, 0.15, "path pqe nfa");
    }

    #[test]
    fn fact_influence_matches_exact_difference() {
        let mut rng = StdRng::seed_from_u64(69);
        let db = generators::layered_graph_connected(2, 2, 0.7, &mut rng);
        let h = generators::with_random_probs(db, 5, &mut rng);
        let q = shapes::path_query(2);
        let influences = fact_influences(&q, &h, &cfg()).unwrap();
        assert_eq!(influences.len(), h.len());
        for (f, &est) in h.database().fact_ids().zip(&influences) {
            let with_prob = |p: Rational| {
                let mut edited = h.clone();
                edited.set_prob(f, p);
                edited
            };
            let (with, without) = (with_prob(Rational::one()), with_prob(Rational::zero()));
            // One reweighted automaton gives the digits of two fresh
            // compiles on the modified instances, bit for bit.
            let p1 = pqe_estimate(&q, &with, &cfg()).unwrap().probability;
            let p0 = pqe_estimate(&q, &without, &cfg()).unwrap().probability;
            assert_eq!(
                est.to_bits(),
                (p1.to_f64() - p0.to_f64()).to_bits(),
                "{f:?}"
            );
            let exact =
                brute_force_pqe(&q, &with).to_f64() - brute_force_pqe(&q, &without).to_f64();
            assert!(
                (est - exact).abs() <= 0.1,
                "{f:?}: est {est}, exact {exact}"
            );
            // Influence of a fact is non-negative for monotone queries.
            assert!(est >= -0.05, "{f:?}: {est}");
        }
    }

    #[test]
    fn errors_propagate() {
        let db = pqe_db::Database::new(pqe_db::Schema::new([("R", 2)]));
        let h = ProbDatabase::uniform(db.clone(), Rational::from_ratio(1, 2));
        assert!(pqe_estimate(&shapes::self_join_path(2), &h, &cfg()).is_err());
        assert!(path_ur_estimate(&shapes::star_query(2), &db, &cfg()).is_err());

        // Atoms whose arity disagrees with the schema are refused, never
        // answered by pairing a prefix of the terms.
        let arity = |r| matches!(r, Err(EstimateError::Arity(_)));
        for q in ["R(x,y,z), S(z,w)", "R(x), S(x,w)"] {
            let q = pqe_query::parse(q).unwrap();
            assert!(arity(pqe_estimate(&q, &h, &cfg()).map(|_| ())), "{q}");
        }
        let mut db = pqe_db::Database::new(pqe_db::Schema::new([("R", 3), ("S", 2)]));
        db.add_fact("R", &["a", "b", "c"]).unwrap();
        db.add_fact("S", &["b", "c"]).unwrap();
        let h = ProbDatabase::uniform(db.clone(), Rational::from_ratio(1, 2));
        let q = pqe_query::parse("R(x,y), S(y,z)").unwrap();
        assert!(arity(pqe_estimate(&q, &h, &cfg()).map(|_| ())));
        assert!(arity(path_ur_estimate(&q, &db, &cfg()).map(|_| ())));
        assert!(arity(path_pqe_estimate(&q, &h, &cfg()).map(|_| ())));
        assert!(arity(fact_influences(&q, &h, &cfg()).map(|_| ())));
    }
}
