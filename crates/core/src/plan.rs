//! The compilation / execution split of the paper's estimators, and the
//! one plan lifecycle every heavy op shares.
//!
//! For a fixed query and database instance, the whole reduction chain —
//! hypertree decomposition, landscape classification, augmented-NFTA
//! construction, multiplier translation — depends only on `(Q, H)`, never
//! on the accuracy `ε`, the seed, or the thread count. The combined
//! complexity bounds make exactly that prefix the reusable artifact: build
//! it once, then every estimate at any `(ε, seed)` is just the
//! `poly(|H|, ε⁻¹)` counting phase on the compiled automaton.
//!
//! [`PqePlan`] and [`UrPlan`] are those prefixes as first-class values.
//! [`pqe_estimate`](crate::pqe_estimate) and
//! [`ur_estimate`](crate::ur_estimate) are now thin wrappers — compile
//! then execute — so an estimate produced through a cached plan is
//! **bit-identical** to a one-shot call with the same config (asserted in
//! the tests below and in `tests/determinism.rs`). Plans are `Send + Sync`
//! (everything inside is plain owned data), so a service can share one
//! plan across request threads behind an `Arc`.
//!
//! [`Plan`] is the lifecycle on top: it compiles one [`Target`] (a routed
//! CQ, a conditional, a reliability or an RPQ) at the database's current
//! epochs ([`Plan::compile_at`]), keeps it current after deltas
//! ([`Plan::revalidate`], the only freshness policy in the workspace), and
//! runs it at any `(ε, seed)` ([`Plan::execute`]).

use crate::landscape::{self, Classification};
use crate::reductions::{
    build_pqe_automaton, build_ur_automaton, PqeAutomaton, ReweightError,
};
use crate::{
    ConditionalPlan, ConditionalReport, EstimateError, GraphMethod, GraphPlan, Method, PqeReport,
    RoutedAnswer, RoutedPlan, RouterError, UrReport,
};
use pqe_arith::{BigFloat, BigUint};
use pqe_automata::{count_nfta, FprasConfig, Nfta};
use pqe_db::{Database, ProbDatabase};
use pqe_delta::{EpochStamp, Epochs, Freshness};
use pqe_graph::{ProbGraph, Rpq};
use pqe_query::{Atom, ConjunctiveQuery};
use std::sync::Arc;
use std::time::Instant;

// The whole point of first-class plans is cross-thread reuse; fail the
// build, not the downstream service, if a field ever loses Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PqePlan>();
    assert_send_sync::<UrPlan>();
    assert_send_sync::<Plan>();
};

/// The cacheable prefix of `PQEEstimate`: everything derived from
/// `(Q, H)` alone.
pub struct PqePlan {
    /// Where the query sits in the paper's Table 1.
    pub classification: Classification,
    kind: PqePlanKind,
}

enum PqePlanKind {
    /// The empty query is certain; there is no automaton.
    Certain,
    /// The §5.2 automaton, ready for repeated counting runs.
    Automaton(Box<PqeAutomaton>),
}

/// Compiles the `PQEEstimate` prefix for `(q, h)`: classification plus the
/// Theorem 1 automaton. Fails exactly when [`pqe_estimate`] would
/// (self-joins, unbounded width, …).
///
/// [`pqe_estimate`]: crate::pqe_estimate
pub fn compile_pqe_plan(
    q: &ConjunctiveQuery,
    h: &ProbDatabase,
) -> Result<PqePlan, EstimateError> {
    let _span = pqe_obs::span::span("compile");
    let classification = landscape::classify(q);
    let kind = if q.is_empty() {
        PqePlanKind::Certain
    } else {
        PqePlanKind::Automaton(Box::new(build_pqe_automaton(q, h)?))
    };
    Ok(PqePlan { classification, kind })
}

impl PqePlan {
    /// Runs the counting phase on the compiled automaton. For a fixed
    /// `cfg` the result is bit-identical to
    /// [`pqe_estimate`](crate::pqe_estimate) on the original inputs
    /// (`elapsed` covers only this execution, not compilation).
    pub fn execute(&self, cfg: &FprasConfig) -> PqeReport {
        let _span = pqe_obs::span::span("execute");
        let start = Instant::now();
        match &self.kind {
            PqePlanKind::Certain => PqeReport {
                probability: BigFloat::one(),
                target_size: 0,
                denominator: BigUint::one(),
                automaton_states: 0,
                automaton_size: 0,
                threads: cfg.effective_threads(),
                elapsed: start.elapsed(),
            },
            PqePlanKind::Automaton(pqe) => {
                let trees = count_nfta(&pqe.nfta, pqe.target_size, cfg);
                let probability = trees / BigFloat::from_biguint(&pqe.denominator);
                PqeReport {
                    probability,
                    target_size: pqe.target_size,
                    denominator: pqe.denominator.clone(),
                    automaton_states: pqe.nfta.num_states(),
                    automaton_size: pqe.nfta.size(),
                    threads: cfg.effective_threads(),
                    elapsed: start.elapsed(),
                }
            }
        }
    }

    /// Recomputes the multiplier gadgets from `h`'s current probabilities
    /// in place, reusing the compiled automaton structure — the incremental
    /// refresh for probability-only deltas. Fails with
    /// [`ReweightError::StructureChanged`] when the fact set differs, in
    /// which case the caller should recompile. Subsequent
    /// [`execute`](PqePlan::execute) calls are bit-identical to a freshly
    /// compiled plan on the same `(q, h, cfg)`.
    pub fn reweight(
        &mut self,
        q: &ConjunctiveQuery,
        h: &ProbDatabase,
    ) -> Result<(), ReweightError> {
        match &mut self.kind {
            PqePlanKind::Certain => Ok(()),
            PqePlanKind::Automaton(pqe) => pqe.reweight(q, h),
        }
    }

    /// States of the compiled automaton (0 for the trivial plan).
    pub fn automaton_states(&self) -> usize {
        match &self.kind {
            PqePlanKind::Certain => 0,
            PqePlanKind::Automaton(pqe) => pqe.nfta.num_states(),
        }
    }

    /// The compiled NFTA, when one was built (`None` for the trivial
    /// plan). `--dump-automaton` renders this as Graphviz DOT.
    pub fn nfta(&self) -> Option<&Nfta> {
        match &self.kind {
            PqePlanKind::Certain => None,
            PqePlanKind::Automaton(pqe) => Some(&pqe.nfta),
        }
    }
}

/// The cacheable prefix of `UREstimate`: the translated Proposition 1
/// automaton for `(Q, D)`.
pub struct UrPlan {
    kind: UrPlanKind,
}

enum UrPlanKind {
    /// Empty query: every one of the `2^|D|` subinstances satisfies it.
    Certain { db_len: usize },
    Automaton {
        nfta: Nfta,
        target_size: usize,
        dropped_facts: usize,
    },
}

/// Compiles the `UREstimate` prefix for `(q, db)`, after checking the
/// query's arities against the schema ([`crate::check_arities`]).
pub fn compile_ur_plan(q: &ConjunctiveQuery, db: &Database) -> Result<UrPlan, EstimateError> {
    crate::check_arities(q, db.schema())?;
    let _span = pqe_obs::span::span("compile");
    let kind = if q.is_empty() {
        UrPlanKind::Certain { db_len: db.len() }
    } else {
        let ur = build_ur_automaton(q, db)?;
        let (nfta, _) = {
            let _t = pqe_obs::span::span("translate");
            ur.aug.translate()
        };
        UrPlanKind::Automaton {
            nfta,
            target_size: ur.target_size,
            dropped_facts: ur.dropped_facts,
        }
    };
    Ok(UrPlan { kind })
}

impl UrPlan {
    /// Runs the counting phase; bit-identical to
    /// [`ur_estimate`](crate::ur_estimate) for the same config.
    pub fn execute(&self, cfg: &FprasConfig) -> UrReport {
        let _span = pqe_obs::span::span("execute");
        let start = Instant::now();
        match &self.kind {
            UrPlanKind::Certain { db_len } => UrReport {
                reliability: BigFloat::one().scale_exp(*db_len as i64),
                target_size: 0,
                dropped_facts: *db_len,
                automaton_states: 0,
                automaton_size: 0,
                threads: cfg.effective_threads(),
                elapsed: start.elapsed(),
            },
            UrPlanKind::Automaton {
                nfta,
                target_size,
                dropped_facts,
            } => {
                let trees = count_nfta(nfta, *target_size, cfg);
                UrReport {
                    reliability: trees.scale_exp(*dropped_facts as i64),
                    target_size: *target_size,
                    dropped_facts: *dropped_facts,
                    automaton_states: nfta.num_states(),
                    automaton_size: nfta.size(),
                    threads: cfg.effective_threads(),
                    elapsed: start.elapsed(),
                }
            }
        }
    }
}

/// What a [`Plan`] compiles: one heavy op, its query normalized by
/// parsing.
pub enum Target {
    /// `Pr(Q)`, routed by `method` ([`RoutedPlan`]).
    Query {
        /// The query.
        q: ConjunctiveQuery,
        /// The requested method.
        method: Method,
    },
    /// `P(Q | E)` ([`ConditionalPlan`]).
    Conditional {
        /// The query.
        q: ConjunctiveQuery,
        /// The evidence.
        evidence: ConjunctiveQuery,
        /// The method every routed term uses.
        method: Method,
    },
    /// The uniform reliability `UR(Q, D)`: probabilities ignored
    /// ([`UrPlan`]).
    Reliability(ConjunctiveQuery),
    /// `Pr(s ⇝ t via R)` on a probabilistic graph ([`GraphPlan`]). The
    /// graph is not part of the database, so deltas never touch it.
    Graph {
        /// The graph the RPQ runs on.
        graph: Arc<ProbGraph>,
        /// The RPQ.
        rpq: Rpq,
        /// The requested method.
        method: GraphMethod,
    },
}

impl Target {
    /// The op name on the wire and the CLI.
    pub fn op(&self) -> &'static str {
        match self {
            Target::Query { .. } | Target::Conditional { .. } => "estimate",
            Target::Reliability(_) => "reliability",
            Target::Graph { .. } => "graph_estimate",
        }
    }

    /// The plan key: everything compilation depends on — op, method,
    /// normalized query, and the normalized evidence of a conditional.
    /// Normalization is parse → print, so whitespace and atom formatting
    /// differences collapse onto one key while variable renamings stay
    /// distinct. A graph target's key leaves out the graph itself.
    pub fn key(&self) -> String {
        let op = self.op();
        match self {
            Target::Query { q, method } => format!("{op}|{}|{q}", method.name()),
            Target::Conditional { q, evidence, method } => {
                format!("{op}|{}|{q}|evidence|{evidence}", method.name())
            }
            Target::Reliability(q) => format!("{op}|{q}"),
            Target::Graph { rpq, method, .. } => format!("{op}|{}|{rpq}", method.name()),
        }
    }

    /// Stamps the current epochs of the relations the target reads (none
    /// for a graph target, whose stamp is therefore always current).
    fn stamp(&self, epochs: &Epochs) -> EpochStamp {
        let (a, b): (&[Atom], &[Atom]) = match self {
            Target::Query { q, .. } | Target::Reliability(q) => (q.atoms(), &[]),
            Target::Conditional { q, evidence, .. } => (q.atoms(), evidence.atoms()),
            Target::Graph { .. } => (&[], &[]),
        };
        epochs.stamp(a.iter().chain(b).map(|atom| atom.relation.as_str()))
    }

    fn compile(&self, h: &ProbDatabase) -> Result<Compiled, RouterError> {
        Ok(match self {
            Target::Query { q, method } => Compiled::Query(RoutedPlan::compile(q, h, *method)?),
            Target::Conditional { q, evidence, method } => {
                Compiled::Conditional(ConditionalPlan::compile(q, evidence, h, *method)?)
            }
            Target::Reliability(q) => Compiled::Reliability(compile_ur_plan(q, h.database())?),
            Target::Graph { graph, rpq, method } => {
                Compiled::Graph(GraphPlan::compile(graph, rpq, *method)?)
            }
        })
    }
}

/// The artifact a [`Plan`] compiled its [`Target`] into.
pub enum Compiled {
    /// A routed CQ: the exact lifted answer or the FPRAS automaton.
    Query(RoutedPlan),
    /// A conditional: ground-evidence or ratio terms.
    Conditional(ConditionalPlan),
    /// A reliability: the translated Proposition 1 automaton.
    Reliability(UrPlan),
    /// An RPQ: the exact enumeration or the product NFA.
    Graph(GraphPlan),
}

/// What one [`Plan::execute`] produced.
pub enum Answer {
    /// A routed CQ or RPQ: exact, or an FPRAS estimate.
    Routed(RoutedAnswer),
    /// `P(Q | E)` with its provenance.
    Conditional(ConditionalReport),
    /// The reliability estimate.
    Reliability(UrReport),
}

impl Answer {
    /// The headline number as `f64` (reporting only): the probability,
    /// the conditional probability, or the reliability count.
    pub fn to_f64(&self) -> f64 {
        match self {
            Answer::Routed(a) => a.to_f64(),
            Answer::Conditional(r) => r.conditional.to_f64(),
            Answer::Reliability(r) => r.reliability.to_f64(),
        }
    }
}

/// What [`Plan::revalidate`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Revalidation {
    /// The plan's answers did not change: the plan **and** any memoized
    /// `(ε, seed)` results are still valid.
    Current,
    /// The plan was refreshed; memoized results are stale and must be
    /// dropped.
    Refreshed {
        /// `true` when the compiled structure was reused (lifted re-solve
        /// or in-place automaton reweight); `false` for a full recompile.
        incremental: bool,
    },
}

/// A compiled [`Target`] plus the epochs of the relations it reads: the
/// one plan lifecycle of every heavy op. An answer is a pure function of
/// the plan and `(ε, seed)`, so callers may memoize it until
/// [`revalidate`](Plan::revalidate) says otherwise.
pub struct Plan {
    target: Target,
    compiled: Compiled,
    /// Epochs of the target's relations at compile/refresh time.
    stamp: EpochStamp,
}

impl Plan {
    /// Compiles `target` against `h`, stamping the current `epochs` of
    /// the relations it reads (all-zero [`Epochs`] suit a database that
    /// never mutates).
    pub fn compile_at(
        target: Target,
        h: &ProbDatabase,
        epochs: &Epochs,
    ) -> Result<Plan, RouterError> {
        let compiled = target.compile(h)?;
        let stamp = target.stamp(epochs);
        Ok(Plan { target, compiled, stamp })
    }

    /// Brings the plan up to date with a mutated database, doing the least
    /// work the epochs of its own relations allow. This is the one
    /// freshness policy:
    ///
    /// | plan | probabilities changed | structure changed |
    /// |---|---|---|
    /// | query | lifted re-solve or in-place reweight; else recompile | recompile |
    /// | conditional | recompile | recompile |
    /// | reliability | restamp; plan and memo kept | recompile |
    /// | graph | empty stamp: always `Current` | empty stamp: always `Current` |
    ///
    /// Untouched relations are always `Current`. The
    /// `router.refresh.{incremental,recompiled}` counters attribute which
    /// refresh ran. On [`Revalidation::Refreshed`] the caller must drop
    /// memoized results. On error the plan is left stale, and the next
    /// call retries.
    pub fn revalidate(
        &mut self,
        h: &ProbDatabase,
        epochs: &Epochs,
    ) -> Result<Revalidation, RouterError> {
        let incremental = match (epochs.freshness(&self.stamp), &mut self.compiled, &self.target) {
            (Freshness::Current, ..) => return Ok(Revalidation::Current),
            // A reliability counts subinstances: probabilities never move it.
            (Freshness::ProbsChanged, Compiled::Reliability(_), _) => {
                self.stamp = self.target.stamp(epochs);
                return Ok(Revalidation::Current);
            }
            (Freshness::ProbsChanged, Compiled::Query(plan), Target::Query { q, .. }) => {
                plan.reweight(q, h)?
            }
            _ => false,
        };
        if incremental {
            pqe_obs::metrics::counter("router.refresh.incremental").inc();
        } else {
            self.compiled = self.target.compile(h)?;
            pqe_obs::metrics::counter("router.refresh.recompiled").inc();
        }
        self.stamp = self.target.stamp(epochs);
        Ok(Revalidation::Refreshed { incremental })
    }

    /// Runs the compiled artifact at `cfg`'s `(ε, seed)`; bit-identical
    /// to executing the wrapped plan directly. Only a conditional can
    /// fail here (`P(E)` estimated as zero).
    pub fn execute(&self, cfg: &FprasConfig) -> Result<Answer, RouterError> {
        Ok(match &self.compiled {
            Compiled::Query(p) => Answer::Routed(p.execute(cfg)),
            Compiled::Conditional(p) => Answer::Conditional(p.execute(cfg)?),
            Compiled::Reliability(p) => Answer::Reliability(p.execute(cfg)),
            Compiled::Graph(p) => Answer::Routed(p.execute(cfg)),
        })
    }

    /// What the plan was compiled from.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The compiled artifact, for callers that report its provenance.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pqe_estimate, ur_estimate};
    use pqe_db::generators;
    use pqe_query::shapes;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    fn fixture() -> (ConjunctiveQuery, ProbDatabase) {
        let mut rng = StdRng::seed_from_u64(0xCAB1E);
        let db = generators::layered_graph_connected(3, 2, 0.6, &mut rng);
        let h = generators::with_random_probs(db, 5, &mut rng);
        (shapes::path_query(3), h)
    }

    #[test]
    fn cached_plan_reproduces_one_shot_estimate_bit_for_bit() {
        let (q, h) = fixture();
        let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x1234);
        let plan = compile_pqe_plan(&q, &h).unwrap();
        let direct = pqe_estimate(&q, &h, &cfg).unwrap();
        // Two executions of the same plan, interleaved with the one-shot
        // path: all three must agree to the last bit.
        for _ in 0..2 {
            let via_plan = plan.execute(&cfg);
            assert_eq!(via_plan.probability.to_string(), direct.probability.to_string());
            assert_eq!(via_plan.target_size, direct.target_size);
            assert_eq!(via_plan.denominator, direct.denominator);
            assert_eq!(via_plan.automaton_states, direct.automaton_states);
        }
    }

    #[test]
    fn ur_plan_reproduces_one_shot_estimate_bit_for_bit() {
        let (q, h) = fixture();
        let db = h.database().clone();
        let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x77);
        let plan = compile_ur_plan(&q, &db).unwrap();
        let direct = ur_estimate(&q, &db, &cfg).unwrap();
        let via_plan = plan.execute(&cfg);
        assert_eq!(via_plan.reliability.to_string(), direct.reliability.to_string());
        assert_eq!(via_plan.target_size, direct.target_size);
        assert_eq!(via_plan.dropped_facts, direct.dropped_facts);
    }

    #[test]
    fn plan_execution_varies_with_seed_but_not_repetition() {
        let (q, h) = fixture();
        let plan = compile_pqe_plan(&q, &h).unwrap();
        let a = plan.execute(&FprasConfig::with_epsilon(0.3).with_seed(1));
        let a2 = plan.execute(&FprasConfig::with_epsilon(0.3).with_seed(1));
        assert_eq!(a.probability.to_string(), a2.probability.to_string());
    }

    #[test]
    fn empty_query_plan_is_certain() {
        let (_, h) = fixture();
        let q = shapes::path_query(1).restrict_atoms(&[]);
        let plan = compile_pqe_plan(&q, &h).unwrap();
        let r = plan.execute(&FprasConfig::default());
        assert_eq!(r.probability.to_f64(), 1.0);
        assert_eq!(plan.automaton_states(), 0);
        let ur = compile_ur_plan(&q, h.database()).unwrap();
        let r = ur.execute(&FprasConfig::default());
        assert_eq!(r.dropped_facts, h.len());
    }

    #[test]
    fn compile_fails_where_estimate_fails() {
        let (_, h) = fixture();
        assert!(compile_pqe_plan(&shapes::self_join_path(2), &h).is_err());
        assert!(compile_ur_plan(&shapes::self_join_path(2), h.database()).is_err());
    }

    #[test]
    fn classification_is_attached() {
        let (q, h) = fixture();
        let plan = compile_pqe_plan(&q, &h).unwrap();
        assert!(plan.classification.three_path);
        assert!(!plan.classification.safe);
        assert!(plan.automaton_states() > 0);
    }
}
