//! The query router: one audited dispatch point for every estimate.
//!
//! The Dalvi–Suciu dichotomy makes hierarchical self-join-free CQs PTIME
//! *exact* (the safe-plan recursion of [`crate::baselines::lifted_pqe`]),
//! while the paper's combined FPRAS covers the bounded-width unsafe cell.
//! [`RoutedPlan::compile`] turns that Table 1 cell (computed by
//! [`landscape::classify`]) into an engine choice — safe ⇒ exact lifted
//! inference, else FPRAS — recording the chosen [`Route`], the
//! classification, and a human-readable rationale in the compiled plan,
//! and bumping the `router.route.{lifted,fpras}` counters in the
//! `pqe-obs` registry. The CLI and `pqe-serve` both reach this module
//! through [`crate::Plan`] (a [`crate::Target::Query`] or
//! [`crate::Target::Conditional`] compiles here), so the two surfaces
//! cannot diverge on routing policy.
//! The FPRAS route holds the Theorem 1 automaton itself, built and counted
//! by the same two steps as [`crate::pqe_estimate`], so a routed estimate
//! and a one-shot one are bit-identical by construction.
//!
//! On top of the router sits **conditional evaluation**
//! ([`ConditionalPlan`]): `P(Q | E) = P(Q ∧ E) / P(E)` for evidence `E`
//! given as a conjunction of atoms. Two strategies, picked at compile
//! time:
//!
//! * **ground evidence** (every evidence term a constant): conditioning a
//!   tuple-independent database on the presence of specific facts keeps
//!   it tuple-independent — `P(Q | E) = Pr_{H[E:=1]}(Q)` where `H[E:=1]`
//!   sets `π(f) = 1` on the evidence facts, and `P(E) = ∏ π(f)` exactly.
//!   Only `Q` itself is routed (at the caller's full ε), and evidence on
//!   relations `Q` also uses is fine — the evidence never becomes a query
//!   atom, so no self-join arises.
//! * **evidence with variables**: the ratio `P(Q ∧ E) / P(E)`, each term
//!   independently compiled through the router. When `k ∈ {1, 2}` of the
//!   terms take the FPRAS route, each runs at a *split* accuracy
//!   `δ = ε/2` (k = 1) or `δ = ε/3` (k = 2), which makes the ratio a
//!   `(1 ± ε)` estimate (see [`split_epsilon`] for the algebra); per-term
//!   seeds are derived from the request seed by [`pqe_rand::mix_seed`]
//!   domain separation, so a conditional answer stays a pure function of
//!   `(plan, ε, seed)` — memoizable and bit-reproducible.
//!
//! `P(E) = 0` (a missing/impossible evidence fact, or an estimate of
//! zero) is a first-class error, [`RouterError::ZeroEvidence`]: the
//! conditional probability is undefined, and callers report it as a
//! structured failure rather than a division by zero.
//!
//! **Live databases.** A [`RoutedPlan`] or [`ConditionalPlan`] is one
//! compiled artifact; keeping it current under deltas is the job of
//! [`crate::Plan`], which stamps the epochs of the relations its target
//! reads and owns the one freshness policy (see [`crate::Plan::revalidate`]
//! for the table). The only refresh a routed plan does itself is
//! `RoutedPlan::reweight`: the in-place probability refresh of the
//! lifted closed form or of the automaton
//! ([`PqeAutomaton::reweight`](crate::reductions::PqeAutomaton::reweight)).

use crate::arity::{check_arities, ArityMismatch};
use crate::baselines::{lifted_pqe, LiftedError};
use crate::estimators::{compile_pqe, count_pqe};
use crate::landscape::{self, Classification};
use crate::reductions::{PqeAutomaton, ReweightError};
use crate::{EstimateError, PqeReport};
use pqe_arith::{BigFloat, Rational};
use pqe_automata::FprasConfig;
use pqe_db::{FactId, ProbDatabase};
use pqe_query::{ConjunctiveQuery, Term};
use std::time::{Duration, Instant};

// Plans cross worker threads in `pqe-serve`; fail the build if a field
// ever loses Send + Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RoutedPlan>();
    assert_send_sync::<ConditionalPlan>();
};

/// A requested evaluation method, as it appears on the wire and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Route by classification: safe ⇒ lifted, else FPRAS.
    Auto,
    /// Force exact lifted inference (errors on unsafe queries).
    Lifted,
    /// Force the combined FPRAS.
    Fpras,
}

impl Method {
    /// Parses a method string. Unknown strings get a Levenshtein
    /// "did you mean" hint, so a typo like `"fprs"` is diagnosed instead
    /// of silently falling back to some default.
    pub fn parse(s: &str) -> Result<Method, String> {
        match s {
            "auto" => Ok(Method::Auto),
            "lifted" => Ok(Method::Lifted),
            "fpras" => Ok(Method::Fpras),
            other => {
                let hint = closest(other, &["auto", "lifted", "fpras"])
                    .map(|c| format!("; did you mean {c:?}?"))
                    .unwrap_or_default();
                Err(format!(
                    "unknown method {other:?} (expected auto, lifted, or fpras{hint})"
                ))
            }
        }
    }

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Auto => "auto",
            Method::Lifted => "lifted",
            Method::Fpras => "fpras",
        }
    }
}

/// The candidate closest to `s` by Levenshtein distance, if any lies
/// within distance 2 (ties go to the lexicographically smallest). Every
/// "did you mean" hint — CLI options, CLI and wire methods — asks this.
pub fn closest<'a>(s: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|c| (edit_distance(s, c), *c))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, c)| c)
}

/// Levenshtein distance between `a` and `b`.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The engine a query was dispatched to — by [`RoutedPlan::compile`] for
/// conjunctive queries, by [`crate::GraphPlan::compile`] for RPQs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Exact lifted inference (safe-plan recursion).
    Lifted,
    /// The combined FPRAS: CountNFTA on the query automaton, or CountNFA
    /// on the RPQ × graph product.
    Fpras,
    /// Exact world enumeration of a small probabilistic graph.
    Enum,
}

impl Route {
    /// The name reported in CLI output and serve responses.
    pub fn name(self) -> &'static str {
        match self {
            Route::Lifted => "lifted",
            Route::Fpras => "fpras",
            Route::Enum => "enum",
        }
    }
}

/// Why a query (or RPQ) went where it went — recorded in the compiled
/// plan and surfaced verbatim to clients.
#[derive(Debug, Clone)]
pub struct RouteDecision {
    /// The chosen engine.
    pub route: Route,
    /// `true` when the method pinned the route (not `auto`).
    pub forced: bool,
    /// Human-readable justification (classification-derived for `auto`).
    pub rationale: String,
}

/// Pure routing policy: Table 1 cell + requested method ⇒ engine.
/// This is the **only** place the auto rule lives; every caller reaches it
/// through [`RoutedPlan::compile`].
fn decide(class: &Classification, method: Method) -> RouteDecision {
    match method {
        Method::Lifted => RouteDecision {
            route: Route::Lifted,
            forced: true,
            rationale: "forced by --method lifted".to_owned(),
        },
        Method::Fpras => RouteDecision {
            route: Route::Fpras,
            forced: true,
            rationale: "forced by --method fpras".to_owned(),
        },
        Method::Auto => {
            if class.safe {
                RouteDecision {
                    route: Route::Lifted,
                    forced: false,
                    rationale: "auto: safe (hierarchical, self-join-free) => exact lifted inference"
                        .to_owned(),
                }
            } else {
                let why = if !class.self_join_free {
                    "self-joins"
                } else {
                    "unsafe (non-hierarchical)"
                };
                RouteDecision {
                    route: Route::Fpras,
                    forced: false,
                    rationale: format!("auto: {why} => FPRAS"),
                }
            }
        }
    }
}

/// Routing/evaluation failure: an engine's compile error, zero-probability
/// evidence in a conditional query, or a graph instance the graph router
/// cannot answer.
#[derive(Debug)]
pub enum RouterError {
    /// A query atom's arity disagrees with the database schema.
    Arity(ArityMismatch),
    /// The lifted route refused the query (unsafe or self-joins).
    Lifted(LiftedError),
    /// The FPRAS route refused the query (reduction failure).
    Estimate(EstimateError),
    /// `P(E) = 0`: the conditional probability is undefined.
    ZeroEvidence {
        /// What made the evidence impossible.
        detail: String,
    },
    /// The product construction refused the graph instance (cyclic graph
    /// or an unknown endpoint vertex).
    Graph(pqe_graph::CompileError),
    /// Enumeration was forced (or was the only sound engine) on a graph
    /// beyond the edge bound.
    EnumTooLarge {
        /// Edges in the graph.
        edges: usize,
        /// The enumeration bound ([`pqe_graph::MAX_ENUM_EDGES`]).
        bound: usize,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Arity(e) => write!(f, "{e}"),
            RouterError::Lifted(e) => write!(f, "{e}"),
            RouterError::Estimate(e) => write!(f, "{e}"),
            RouterError::ZeroEvidence { detail } => {
                write!(f, "P(E) = 0, conditional probability undefined: {detail}")
            }
            RouterError::Graph(e) => write!(f, "{e}"),
            RouterError::EnumTooLarge { edges, bound } => write!(
                f,
                "exact enumeration needs 2^{edges} worlds ({edges} edges > bound {bound})"
            ),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<ArityMismatch> for RouterError {
    fn from(e: ArityMismatch) -> Self {
        RouterError::Arity(e)
    }
}

impl From<LiftedError> for RouterError {
    fn from(e: LiftedError) -> Self {
        RouterError::Lifted(e)
    }
}

impl From<EstimateError> for RouterError {
    fn from(e: EstimateError) -> Self {
        RouterError::Estimate(e)
    }
}

impl From<pqe_graph::CompileError> for RouterError {
    fn from(e: pqe_graph::CompileError) -> Self {
        RouterError::Graph(e)
    }
}

/// A routed, compiled plan for one `(Q, H, method)`: the landscape cell,
/// the route decision, and the route's compiled artifact (the exact
/// probability for the lifted route — it depends only on `(Q, H)` — or
/// the constructed automaton for the FPRAS route).
pub struct RoutedPlan {
    /// Where the query sits in the paper's Table 1.
    pub classification: Classification,
    /// The route taken and why.
    pub decision: RouteDecision,
    kind: RoutedKind,
}

enum RoutedKind {
    Lifted { exact: Rational },
    Fpras(Box<PqeAutomaton>),
}

/// The answer a routed plan produces — a [`RoutedPlan`] or a
/// [`crate::GraphPlan`]: exact when lifted inference or world enumeration
/// ran, an FPRAS report otherwise.
pub enum RoutedAnswer {
    /// Exact rational probability from lifted inference or enumeration.
    Exact(Rational),
    /// `(1 ± ε)` estimate from the FPRAS.
    Estimate(PqeReport),
}

impl RoutedAnswer {
    /// The probability as `f64` (reporting only).
    pub fn to_f64(&self) -> f64 {
        match self {
            RoutedAnswer::Exact(p) => p.to_f64(),
            RoutedAnswer::Estimate(r) => r.probability.to_f64(),
        }
    }

    /// The probability as an arbitrary-precision float.
    pub fn to_bigfloat(&self) -> BigFloat {
        match self {
            RoutedAnswer::Exact(p) => BigFloat::from_rational(p),
            RoutedAnswer::Estimate(r) => r.probability,
        }
    }

    /// The exact rational, when the lifted route produced one.
    pub fn exact(&self) -> Option<&Rational> {
        match self {
            RoutedAnswer::Exact(p) => Some(p),
            RoutedAnswer::Estimate(_) => None,
        }
    }
}

impl RoutedPlan {
    /// Classifies, routes, and compiles `q` against `h`. Increments the
    /// `router.route.{lifted,fpras}` counter for the chosen route (once
    /// per compilation — cached plans don't re-count).
    pub fn compile(
        q: &ConjunctiveQuery,
        h: &ProbDatabase,
        method: Method,
    ) -> Result<RoutedPlan, RouterError> {
        check_arities(q, h.database().schema())?;
        let classification = landscape::classify(q);
        let decision = decide(&classification, method);
        // `decide` picks lifted or FPRAS; enumeration is graph-only.
        let kind = if decision.route == Route::Lifted {
            pqe_obs::metrics::counter("router.route.lifted").inc();
            RoutedKind::Lifted { exact: lifted_pqe(q, h)? }
        } else {
            pqe_obs::metrics::counter("router.route.fpras").inc();
            RoutedKind::Fpras(Box::new(compile_pqe(q, h)?))
        };
        Ok(RoutedPlan { classification, decision, kind })
    }

    /// Refreshes the plan in place after a probability-only change to
    /// `h`, for the query `q` it was compiled from: the lifted route
    /// re-solves its closed form, the FPRAS route reweights its automaton
    /// ([`PqeAutomaton::reweight`]). Returns `false`, leaving the plan
    /// untouched, when the projected fact set moved after all (say, a
    /// caller-managed database that skipped a structural epoch): then
    /// only a recompile is sound.
    pub(crate) fn reweight(
        &mut self,
        q: &ConjunctiveQuery,
        h: &ProbDatabase,
    ) -> Result<bool, RouterError> {
        // A recompile checks arities itself; a caller-managed database
        // may change an arity without a structural epoch bump.
        check_arities(q, h.database().schema())?;
        match &mut self.kind {
            // The safe route's artifact *is* the answer: re-solving the
            // closed form is the increment.
            RoutedKind::Lifted { exact } => *exact = lifted_pqe(q, h)?,
            RoutedKind::Fpras(pqe) => match pqe.reweight(q, h) {
                Ok(()) => {}
                Err(ReweightError::StructureChanged) => return Ok(false),
            },
        }
        Ok(true)
    }

    /// Runs the routed engine. The FPRAS path runs the same count step as
    /// a one-shot [`crate::pqe_estimate`] call — bit-identical with the
    /// same config — and the lifted path returns the precomputed exact
    /// rational, so execution never perturbs determinism golden digits.
    pub fn execute(&self, cfg: &FprasConfig) -> RoutedAnswer {
        match &self.kind {
            RoutedKind::Lifted { exact } => RoutedAnswer::Exact(exact.clone()),
            RoutedKind::Fpras(pqe) => RoutedAnswer::Estimate(count_pqe(pqe, cfg)),
        }
    }

    /// States of the compiled automaton (0 on the lifted route).
    pub fn automaton_states(&self) -> usize {
        match &self.kind {
            RoutedKind::Lifted { .. } => 0,
            RoutedKind::Fpras(pqe) => pqe.nfta.num_states(),
        }
    }

    /// The compiled NFTA, when the FPRAS route built one
    /// (`--dump-automaton` reads this).
    pub fn nfta(&self) -> Option<&pqe_automata::Nfta> {
        match &self.kind {
            RoutedKind::Lifted { .. } => None,
            RoutedKind::Fpras(pqe) => Some(&pqe.nfta),
        }
    }
}

/// Per-term accuracy for the ratio `P(Q ∧ E)/P(E)` when `fpras_terms` of
/// the two terms are estimated rather than exact.
///
/// With `X̂ = (1 ± δ)X` and `Ŷ = (1 ± δ)Y`, the ratio satisfies
/// `X̂/Ŷ ∈ [(1−δ)/(1+δ), (1+δ)/(1−δ)] · X/Y`, and
/// `(1+δ)/(1−δ) ≤ 1+ε` iff `δ ≤ ε/(2+ε)`; since `ε/3 ≤ ε/(2+ε)` for all
/// `ε ∈ (0,1]`, `δ = ε/3` suffices when both terms are estimated. With
/// one estimated term the worst factor is `1/(1−δ) ≤ 1+ε` iff
/// `δ ≤ ε/(1+ε)`, and `ε/2 ≤ ε/(1+ε)` on the same range, so `δ = ε/2`
/// suffices. Zero estimated terms need no split — the ratio is exact.
pub fn split_epsilon(eps: f64, fpras_terms: usize) -> f64 {
    match fpras_terms {
        0 => eps,
        1 => eps / 2.0,
        _ => eps / 3.0,
    }
}

/// Domain-separation tags for the per-term seeds of the ratio strategy.
const SEED_TAG_JOINT: u64 = 0x51_4A_4F_49_4E_54; // "QJOINT"
const SEED_TAG_EVIDENCE: u64 = 0x45_56_49_44; // "EVID"

/// A compiled conditional query `P(Q | E)`.
pub struct ConditionalPlan {
    /// Rendered (normalized) evidence text.
    pub evidence: String,
    kind: ConditionalKind,
}

enum ConditionalKind {
    /// All-ground evidence: `P(Q|E) = Pr_{H[E:=1]}(Q)`, `P(E)` exact.
    Ground {
        prob_e: Rational,
        routed: RoutedPlan,
    },
    /// Evidence with variables: the ε-split ratio `P(Q∧E)/P(E)`.
    Ratio {
        joint: RoutedPlan,
        ev: RoutedPlan,
    },
}

/// One conditional answer with full provenance.
pub struct ConditionalReport {
    /// `P(Q | E)` (exact or `(1±ε)`-approximate; see `exact`).
    pub conditional: BigFloat,
    /// The exact rational, when every routed term was exact.
    pub exact: Option<Rational>,
    /// `P(E)` (exact on the ground path).
    pub prob_evidence: BigFloat,
    /// Route of the numerator term (`Q` on the ground path, `Q ∧ E`
    /// otherwise).
    pub joint_route: Route,
    /// Route of the `P(E)` term; `None` on the ground path (exact
    /// product, no routed evaluation).
    pub evidence_route: Option<Route>,
    /// The per-term ε actually used when any FPRAS term ran.
    pub split_epsilon: Option<f64>,
    /// Automaton states across the FPRAS terms (0 if all exact).
    pub automaton_states: usize,
    /// Wall-clock of this execution.
    pub elapsed: Duration,
}

impl ConditionalPlan {
    /// Compiles `P(q | e)` against `h`. Picks the ground strategy when
    /// every evidence term is a constant, the ratio strategy otherwise
    /// (see the module docs). `method` applies to every routed term:
    /// `auto` routes each term independently; a forced method forces all
    /// of them.
    pub fn compile(
        q: &ConjunctiveQuery,
        e: &ConjunctiveQuery,
        h: &ProbDatabase,
        method: Method,
    ) -> Result<ConditionalPlan, RouterError> {
        // Ground evidence never becomes a routed query, so check it here.
        check_arities(e, h.database().schema())?;
        let all_ground = e
            .atoms()
            .iter()
            .all(|a| a.terms.iter().all(|t| matches!(t, Term::Const(_))));
        let kind = if all_ground {
            let mut facts: Vec<FactId> = Vec::new();
            let mut prob_e = Rational::one();
            let db = h.database();
            for atom in e.atoms() {
                let fact_id = ground_fact_id(h, atom).ok_or_else(|| {
                    RouterError::ZeroEvidence {
                        detail: format!(
                            "evidence fact {} is not in the database",
                            render_ground_atom(atom)
                        ),
                    }
                })?;
                if h.prob(fact_id).is_zero() {
                    return Err(RouterError::ZeroEvidence {
                        detail: format!(
                            "evidence fact {} has probability 0",
                            db.display_fact(fact_id)
                        ),
                    });
                }
                if !facts.contains(&fact_id) {
                    facts.push(fact_id);
                    prob_e = &prob_e * h.prob(fact_id);
                }
            }
            // Conditioning on fact presence keeps the database
            // tuple-independent: set π(f) = 1 on the evidence facts.
            let mut conditioned = h.clone();
            for &f in &facts {
                conditioned.set_prob(f, Rational::one());
            }
            ConditionalKind::Ground {
                prob_e,
                routed: RoutedPlan::compile(q, &conditioned, method)?,
            }
        } else {
            let joint_q = q.conjoin(e);
            ConditionalKind::Ratio {
                joint: RoutedPlan::compile(&joint_q, h, method)?,
                ev: RoutedPlan::compile(e, h, method)?,
            }
        };
        Ok(ConditionalPlan { evidence: e.to_string(), kind })
    }

    /// The route decision for the numerator term.
    pub fn joint_decision(&self) -> &RouteDecision {
        match &self.kind {
            ConditionalKind::Ground { routed, .. } => &routed.decision,
            ConditionalKind::Ratio { joint, .. } => &joint.decision,
        }
    }

    /// The route decision for the `P(E)` term (`None` on the ground
    /// path, where `P(E)` is an exact product).
    pub fn evidence_decision(&self) -> Option<&RouteDecision> {
        match &self.kind {
            ConditionalKind::Ground { .. } => None,
            ConditionalKind::Ratio { ev, .. } => Some(&ev.decision),
        }
    }

    /// Classification of the numerator term.
    pub fn classification(&self) -> &Classification {
        match &self.kind {
            ConditionalKind::Ground { routed, .. } => &routed.classification,
            ConditionalKind::Ratio { joint, .. } => &joint.classification,
        }
    }

    /// Evaluates `P(Q | E)` at the caller's `(ε, seed)`. A pure function
    /// of plan + config (per-term seeds are mixed deterministically), so
    /// results are memoizable and bit-reproducible.
    pub fn execute(&self, cfg: &FprasConfig) -> Result<ConditionalReport, RouterError> {
        let start = Instant::now();
        match &self.kind {
            ConditionalKind::Ground { prob_e, routed } => {
                // P(E) is exact, so Q runs at the caller's full ε.
                let fpras = matches!(routed.decision.route, Route::Fpras);
                let answer = routed.execute(cfg);
                Ok(ConditionalReport {
                    exact: answer.exact().cloned(),
                    conditional: answer.to_bigfloat(),
                    prob_evidence: BigFloat::from_rational(prob_e),
                    joint_route: routed.decision.route,
                    evidence_route: None,
                    split_epsilon: fpras.then_some(cfg.epsilon),
                    automaton_states: routed.automaton_states(),
                    elapsed: start.elapsed(),
                })
            }
            ConditionalKind::Ratio { joint, ev } => {
                let fpras_terms = [joint, ev]
                    .iter()
                    .filter(|p| matches!(p.decision.route, Route::Fpras))
                    .count();
                let delta = split_epsilon(cfg.epsilon, fpras_terms);
                let term_cfg = |tag: u64| FprasConfig {
                    epsilon: delta,
                    seed: pqe_rand::mix_seed(&[cfg.seed, tag]),
                    ..cfg.clone()
                };
                let ev_answer = ev.execute(&term_cfg(SEED_TAG_EVIDENCE));
                let ev_float = ev_answer.to_bigfloat();
                if ev_float.is_zero() {
                    return Err(RouterError::ZeroEvidence {
                        detail: format!(
                            "P({}) {} to 0",
                            self.evidence,
                            if ev_answer.exact().is_some() { "evaluates" } else { "estimates" }
                        ),
                    });
                }
                let joint_answer = joint.execute(&term_cfg(SEED_TAG_JOINT));
                let exact = match (joint_answer.exact(), ev_answer.exact()) {
                    (Some(num), Some(den)) => Some(&num.clone() * &den.recip()),
                    _ => None,
                };
                let conditional = match &exact {
                    Some(r) => BigFloat::from_rational(r),
                    None => joint_answer.to_bigfloat() / ev_float,
                };
                Ok(ConditionalReport {
                    conditional,
                    exact,
                    prob_evidence: ev_float,
                    joint_route: joint.decision.route,
                    evidence_route: Some(ev.decision.route),
                    split_epsilon: (fpras_terms > 0).then_some(delta),
                    automaton_states: joint.automaton_states() + ev.automaton_states(),
                    elapsed: start.elapsed(),
                })
            }
        }
    }
}

/// Resolves an all-constant atom to the matching fact, if present.
fn ground_fact_id(h: &ProbDatabase, atom: &pqe_query::Atom) -> Option<FactId> {
    let db = h.database();
    let rel = db.schema().relation(&atom.relation)?;
    let args: Option<Vec<_>> = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(name) => db.consts().get(name),
            Term::Var(_) => None,
        })
        .collect();
    let args = args?;
    db.facts_of(rel)
        .iter()
        .copied()
        .find(|&f| db.fact(f).args == args)
}

fn render_ground_atom(atom: &pqe_query::Atom) -> String {
    let args: Vec<String> = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => c.clone(),
            Term::Var(_) => "?".to_owned(),
        })
        .collect();
    format!("{}({})", atom.relation, args.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::brute_force_pqe;
    use crate::plan::{Answer, Plan, Revalidation, Target};
    use pqe_db::{generators, worlds, Database, Schema};
    use pqe_engine::eval_boolean;
    use pqe_query::{parse, shapes};
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    fn two_path_db() -> ProbDatabase {
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2)]));
        let f0 = db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("S", &["b", "c"]).unwrap();
        db.add_fact("S", &["b", "d"]).unwrap();
        let mut h = ProbDatabase::uniform(db, Rational::from_ratio(1, 3));
        h.set_prob(f0, Rational::from_ratio(1, 2));
        h
    }

    /// Brute-force `P(Q|E)` by world enumeration: sum of world weights
    /// where both hold over sum where `E` holds.
    fn brute_conditional(
        q: &ConjunctiveQuery,
        e: &ConjunctiveQuery,
        h: &ProbDatabase,
    ) -> Option<Rational> {
        let n = h.len();
        let mut num = Rational::zero();
        let mut den = Rational::zero();
        for world in worlds::enumerate(n) {
            let sub = h.database().subinstance(&world);
            if eval_boolean(e, &sub) {
                let w = h.world_prob(&world);
                if eval_boolean(q, &sub) {
                    num = &num + &w;
                }
                den = &den + &w;
            }
        }
        if den.is_zero() {
            None
        } else {
            Some(&num * &den.recip())
        }
    }

    #[test]
    fn method_parse_accepts_known_and_hints_unknown() {
        assert_eq!(Method::parse("auto").unwrap(), Method::Auto);
        assert_eq!(Method::parse("lifted").unwrap(), Method::Lifted);
        assert_eq!(Method::parse("fpras").unwrap(), Method::Fpras);
        let e = Method::parse("fprs").unwrap_err();
        assert!(e.contains("did you mean \"fpras\"?"), "{e}");
        let e = Method::parse("nonsense").unwrap_err();
        assert!(e.contains("expected auto, lifted, or fpras"), "{e}");
        assert!(!e.contains("did you mean"), "{e}");
    }

    #[test]
    fn closest_suggests_only_near_candidates() {
        let methods = ["auto", "lifted", "fpras"];
        assert_eq!(closest("fprs", &methods), Some("fpras"));
        assert_eq!(closest("lifed", &methods), Some("lifted"));
        assert_eq!(closest("fpras", &methods), Some("fpras"));
        assert_eq!(closest("nonsense", &methods), None);
        // Equal distances break ties toward the smaller candidate.
        assert_eq!(closest("ab", &["ac", "aa"]), Some("aa"));
        assert_eq!(closest("x", &[]), None);
    }

    #[test]
    fn auto_routes_by_safety() {
        let safe = landscape::classify(&shapes::path_query(2));
        let d = decide(&safe, Method::Auto);
        assert_eq!(d.route, Route::Lifted);
        assert!(!d.forced);
        assert!(d.rationale.contains("safe"), "{}", d.rationale);

        let unsafe_ = landscape::classify(&shapes::path_query(3));
        let d = decide(&unsafe_, Method::Auto);
        assert_eq!(d.route, Route::Fpras);
        assert!(d.rationale.contains("non-hierarchical"), "{}", d.rationale);

        let d = decide(&unsafe_, Method::Lifted);
        assert_eq!(d.route, Route::Lifted);
        assert!(d.forced);
    }

    #[test]
    fn routed_plan_matches_engines_on_both_routes() {
        let h = two_path_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let exact = brute_force_pqe(&q, &h);

        let plan = RoutedPlan::compile(&q, &h, Method::Auto).unwrap();
        assert_eq!(plan.decision.route, Route::Lifted);
        assert_eq!(plan.automaton_states(), 0);
        let answer = plan.execute(&FprasConfig::with_epsilon(0.2));
        assert_eq!(answer.exact().unwrap(), &exact);

        let forced = RoutedPlan::compile(&q, &h, Method::Fpras).unwrap();
        assert_eq!(forced.decision.route, Route::Fpras);
        assert!(forced.automaton_states() > 0);
        let est = forced.execute(&FprasConfig::with_epsilon(0.2).with_seed(7));
        assert!(est.exact().is_none());
        let rel = (est.to_f64() / exact.to_f64() - 1.0).abs();
        assert!(rel <= 0.2, "rel {rel}");
    }

    #[test]
    fn routed_fpras_is_bit_identical_to_direct_plan_execution() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let db = generators::layered_graph_connected(3, 2, 0.6, &mut rng);
        let h = generators::with_random_probs(db, 5, &mut rng);
        let q = shapes::path_query(3);
        let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x1234);
        let routed = RoutedPlan::compile(&q, &h, Method::Auto).unwrap();
        assert_eq!(routed.decision.route, Route::Fpras);
        let direct = crate::pqe_estimate(&q, &h, &cfg).unwrap();
        let RoutedAnswer::Estimate(r) = routed.execute(&cfg) else {
            panic!("expected an estimate");
        };
        assert_eq!(r.probability.to_string(), direct.probability.to_string());
    }

    #[test]
    fn route_counters_increment_per_compile() {
        let h = two_path_db();
        let lifted = pqe_obs::metrics::counter("router.route.lifted");
        let fpras = pqe_obs::metrics::counter("router.route.fpras");
        let (l0, f0) = (lifted.get(), fpras.get());
        RoutedPlan::compile(&parse("R(x,y), S(y,z)").unwrap(), &h, Method::Auto).unwrap();
        RoutedPlan::compile(&parse("R(x,y), S(y,z)").unwrap(), &h, Method::Fpras).unwrap();
        assert_eq!(lifted.get(), l0 + 1);
        assert_eq!(fpras.get(), f0 + 1);
    }

    #[test]
    fn ground_evidence_matches_brute_force_conditioning() {
        let h = two_path_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let e = parse("S('b','c')").unwrap();
        let plan = ConditionalPlan::compile(&q, &e, &h, Method::Auto).unwrap();
        assert!(plan.evidence_decision().is_none(), "ground path expected");
        let r = plan.execute(&FprasConfig::with_epsilon(0.2)).unwrap();
        let brute = brute_conditional(&q, &e, &h).unwrap();
        assert_eq!(r.exact.as_ref().unwrap(), &brute);
        // P(E) = π(S(b,c)) = 1/3 exactly.
        assert!((r.prob_evidence.to_f64() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.joint_route, Route::Lifted);
    }

    #[test]
    fn ground_evidence_on_query_relations_is_not_a_self_join() {
        // Evidence on S while Q uses S: the ratio path would conjoin into
        // a self-join; the ground path must handle it exactly.
        let h = two_path_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        for etext in ["S('b','c')", "S('b','c'), S('b','d')", "R('a','b'), S('b','d')"] {
            let e = parse(etext).unwrap();
            let plan = ConditionalPlan::compile(&q, &e, &h, Method::Auto).unwrap();
            let r = plan.execute(&FprasConfig::with_epsilon(0.2)).unwrap();
            let brute = brute_conditional(&q, &e, &h).unwrap();
            assert_eq!(r.exact.as_ref().unwrap(), &brute, "evidence {etext}");
        }
    }

    #[test]
    fn variable_evidence_ratio_matches_brute_force() {
        // Disjoint relations so the conjunction stays self-join-free.
        let mut db = Database::new(Schema::new([("R", 2), ("S", 2), ("T", 1)]));
        db.add_fact("R", &["a", "b"]).unwrap();
        db.add_fact("S", &["b", "c"]).unwrap();
        db.add_fact("T", &["a"]).unwrap();
        db.add_fact("T", &["c"]).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let h = generators::with_random_probs(db, 6, &mut rng);
        let q = parse("R(x,y), S(y,z)").unwrap();
        let e = parse("T(w)").unwrap();
        let plan = ConditionalPlan::compile(&q, &e, &h, Method::Auto).unwrap();
        assert!(plan.evidence_decision().is_some(), "ratio path expected");
        let r = plan.execute(&FprasConfig::with_epsilon(0.2).with_seed(3)).unwrap();
        let brute = brute_conditional(&q, &e, &h).unwrap();
        // Both terms are safe here, so the ratio is exact.
        assert_eq!(r.exact.as_ref().unwrap(), &brute);
        assert_eq!(r.evidence_route, Some(Route::Lifted));
    }

    /// Small 3-path instance (unsafe query territory) plus a disjoint
    /// unary evidence relation `E`; 7 facts, brute-force enumerable.
    fn three_path_with_evidence_db(rng: &mut StdRng) -> ProbDatabase {
        let mut db = Database::new(Schema::new([("R1", 2), ("R2", 2), ("R3", 2), ("E", 1)]));
        db.add_fact("R1", &["a", "b"]).unwrap();
        db.add_fact("R1", &["a2", "b"]).unwrap();
        db.add_fact("R2", &["b", "c"]).unwrap();
        db.add_fact("R2", &["b", "c2"]).unwrap();
        db.add_fact("R3", &["c", "d"]).unwrap();
        db.add_fact("R3", &["c2", "d"]).unwrap();
        db.add_fact("E", &["u"]).unwrap();
        generators::with_random_probs(db, 5, rng)
    }

    #[test]
    fn variable_evidence_with_fpras_terms_is_within_epsilon() {
        // Unsafe joint (3-path) with safe single-atom evidence on a
        // disjoint relation: numerator FPRAS, denominator lifted.
        let mut rng = StdRng::seed_from_u64(42);
        let h = three_path_with_evidence_db(&mut rng);
        let q = shapes::path_query(3); // R1(x,y), R2(y,z), R3(z,w) — unsafe
        let e = parse("E(v)").unwrap();
        let eps = 0.25;
        let plan = ConditionalPlan::compile(&q, &e, &h, Method::Auto).unwrap();
        let r = plan.execute(&FprasConfig::with_epsilon(eps).with_seed(11)).unwrap();
        assert_eq!(r.joint_route, Route::Fpras);
        assert_eq!(r.evidence_route, Some(Route::Lifted));
        assert_eq!(r.split_epsilon, Some(eps / 2.0));
        let brute = brute_conditional(&q, &e, &h).unwrap();
        let rel = (r.conditional.to_f64() / brute.to_f64() - 1.0).abs();
        assert!(rel <= eps, "rel {rel} (got {}, want {})", r.conditional.to_f64(), brute.to_f64());
    }

    #[test]
    fn conditional_execution_is_deterministic_per_seed() {
        // Ground evidence, FPRAS-routed unsafe query: the answer must be
        // a pure function of (plan, ε, seed) — bit-identical digits.
        let mut rng = StdRng::seed_from_u64(9);
        let h = three_path_with_evidence_db(&mut rng);
        let q = shapes::path_query(3);
        let e = parse("R1('a','b')").unwrap();
        let cfg = FprasConfig::with_epsilon(0.3).with_seed(0xD5);
        let run = || {
            let plan = ConditionalPlan::compile(&q, &e, &h, Method::Auto).unwrap();
            let r = plan.execute(&cfg).unwrap();
            assert_eq!(r.joint_route, Route::Fpras);
            r.conditional.to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn missing_evidence_fact_is_zero_evidence() {
        let h = two_path_db();
        let q = parse("R(x,y), S(y,z)").unwrap();
        let e = parse("S('nope','where')").unwrap();
        match ConditionalPlan::compile(&q, &e, &h, Method::Auto) {
            Err(RouterError::ZeroEvidence { detail }) => {
                assert!(detail.contains("not in the database"), "{detail}");
            }
            other => panic!("expected ZeroEvidence, got {:?}", other.err()),
        }
    }

    #[test]
    fn zero_probability_evidence_fact_is_zero_evidence() {
        let mut h = two_path_db();
        let ids: Vec<_> = h.database().fact_ids().collect();
        h.set_prob(ids[1], Rational::zero()); // S(b,c) := 0
        let q = parse("R(x,y), S(y,z)").unwrap();
        let e = parse("S('b','c')").unwrap();
        assert!(matches!(
            ConditionalPlan::compile(&q, &e, &h, Method::Auto),
            Err(RouterError::ZeroEvidence { .. })
        ));
    }

    fn plan_at(target: Target, v: &pqe_delta::VersionedDb) -> Plan {
        Plan::compile_at(target, v.current(), v.epochs()).unwrap()
    }

    fn query_plan(q: &str, method: Method, v: &pqe_delta::VersionedDb) -> Plan {
        plan_at(Target::Query { q: parse(q).unwrap(), method }, v)
    }

    fn routed(plan: &Plan, cfg: &FprasConfig) -> RoutedAnswer {
        match plan.execute(cfg).unwrap() {
            Answer::Routed(a) => a,
            _ => panic!("expected a routed answer"),
        }
    }

    #[test]
    fn revalidate_scopes_work_to_touched_relations() {
        use pqe_delta::{Delta, VersionedDb};
        let mut v = VersionedDb::new(two_path_db());
        let q = parse("R(x,y), S(y,z)").unwrap();
        let cfg = FprasConfig::with_epsilon(0.2).with_seed(5);

        let mut lifted = query_plan("R(x,y), S(y,z)", Method::Auto, &v);
        let mut fpras = query_plan("R(x,y), S(y,z)", Method::Fpras, &v);
        let mut unrelated = query_plan("R(x,y)", Method::Auto, &v);

        // Probability-only delta on S: R-only plan current, others refresh
        // incrementally (lifted re-solve / automaton reweight).
        v.apply(&Delta::parse_str("~ 2/3 S(b,c)\n").unwrap()).unwrap();
        let h = v.snapshot();
        assert_eq!(
            unrelated.revalidate(&h, v.epochs()).unwrap(),
            Revalidation::Current
        );
        assert_eq!(
            lifted.revalidate(&h, v.epochs()).unwrap(),
            Revalidation::Refreshed { incremental: true }
        );
        assert_eq!(
            fpras.revalidate(&h, v.epochs()).unwrap(),
            Revalidation::Refreshed { incremental: true }
        );

        // Both refreshed plans agree bit-for-bit with fresh compiles on
        // the mutated database.
        let exact = brute_force_pqe(&q, &h);
        assert_eq!(routed(&lifted, &cfg).exact().unwrap(), &exact);
        let fresh = RoutedPlan::compile(&q, &h, Method::Fpras).unwrap();
        assert_eq!(
            routed(&fpras, &cfg).to_bigfloat().to_string(),
            fresh.execute(&cfg).to_bigfloat().to_string()
        );

        // Structural delta on S: recompile path.
        v.apply(&Delta::parse_str("+ 1/4 S(b,e)\n").unwrap()).unwrap();
        let h = v.snapshot();
        assert_eq!(
            unrelated.revalidate(&h, v.epochs()).unwrap(),
            Revalidation::Current
        );
        assert_eq!(
            fpras.revalidate(&h, v.epochs()).unwrap(),
            Revalidation::Refreshed { incremental: false }
        );
        let fresh = RoutedPlan::compile(&q, &h, Method::Fpras).unwrap();
        assert_eq!(
            routed(&fpras, &cfg).to_bigfloat().to_string(),
            fresh.execute(&cfg).to_bigfloat().to_string()
        );
        // A second revalidate with nothing new is current again.
        assert_eq!(
            fpras.revalidate(&h, v.epochs()).unwrap(),
            Revalidation::Current
        );
    }

    #[test]
    fn refresh_counters_attribute_incremental_vs_recompile() {
        use pqe_delta::{Delta, VersionedDb};
        let inc = pqe_obs::metrics::counter("router.refresh.incremental");
        let rec = pqe_obs::metrics::counter("router.refresh.recompiled");
        let mut v = VersionedDb::new(two_path_db());
        let mut plan = query_plan("R(x,y), S(y,z)", Method::Fpras, &v);
        let (i0, r0) = (inc.get(), rec.get());

        v.apply(&Delta::parse_str("~ 1/5 R(a,b)\n").unwrap()).unwrap();
        plan.revalidate(&v.snapshot(), v.epochs()).unwrap();
        assert_eq!((inc.get(), rec.get()), (i0 + 1, r0));

        v.apply(&Delta::parse_str("- R(a,b)\n").unwrap()).unwrap();
        plan.revalidate(&v.snapshot(), v.epochs()).unwrap();
        assert_eq!((inc.get(), rec.get()), (i0 + 1, r0 + 1));
    }

    #[test]
    fn conditional_revalidate_recompiles_on_any_staleness() {
        use pqe_delta::{Delta, VersionedDb};
        let mut v = VersionedDb::new(two_path_db());
        let q = parse("R(x,y), S(y,z)").unwrap();
        let e = parse("S('b','c')").unwrap();
        let (evidence, method) = (e.clone(), Method::Auto);
        let target = Target::Conditional { q: q.clone(), evidence, method };
        let mut plan = plan_at(target, &v);
        let cfg = FprasConfig::with_epsilon(0.2);

        // Unrelated relation: current.
        let mut v2 = v.clone();
        v2.apply(&Delta::parse_str("+ 1/2 T(q)\n").unwrap()).unwrap();
        assert_eq!(
            plan.revalidate(&v2.snapshot(), v2.epochs()).unwrap(),
            Revalidation::Current
        );

        // Probability change on an evidence relation: recompile, and the
        // refreshed plan matches a fresh compile (and brute force).
        v.apply(&Delta::parse_str("~ 1/2 S(b,d)\n").unwrap()).unwrap();
        let h = v.snapshot();
        assert_eq!(
            plan.revalidate(&h, v.epochs()).unwrap(),
            Revalidation::Refreshed { incremental: false }
        );
        let Answer::Conditional(r) = plan.execute(&cfg).unwrap() else {
            panic!("expected a conditional answer");
        };
        let brute = brute_conditional(&q, &e, &h).unwrap();
        assert_eq!(r.exact.as_ref().unwrap(), &brute);
    }

    #[test]
    fn split_epsilon_guarantees_ratio_accuracy() {
        // The algebra in the docs, checked numerically across ε.
        for eps in [0.01, 0.1, 0.3, 0.5, 0.9, 0.999] {
            let d2 = split_epsilon(eps, 2);
            assert!((1.0 + d2) / (1.0 - d2) <= 1.0 + eps + 1e-12, "eps {eps}");
            assert!((1.0 - d2) / (1.0 + d2) >= 1.0 - eps - 1e-12, "eps {eps}");
            let d1 = split_epsilon(eps, 1);
            assert!(1.0 / (1.0 - d1) <= 1.0 + eps + 1e-12, "eps {eps}");
            assert!(1.0 + d1 <= 1.0 + eps + 1e-12, "eps {eps}");
            assert_eq!(split_epsilon(eps, 0), eps);
        }
    }
}
