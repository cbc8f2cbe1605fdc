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
//! [`RoutedPlan`] (whose FPRAS route holds the Theorem 1 automaton) and
//! [`UrPlan`] are those prefixes as first-class values.
//! [`pqe_estimate`](crate::pqe_estimate) runs the same build and count
//! steps as the routed FPRAS route, and [`ur_estimate`](crate::ur_estimate)
//! compiles a [`UrPlan`] then runs [`UrPlan::execute`], so an estimate
//! produced through a cached plan is **bit-identical** to a one-shot call
//! with the same config (asserted in the tests below and in
//! `tests/determinism.rs`). Plans are `Send + Sync` (everything inside is
//! plain owned data), so a service can share one plan across request
//! threads behind an `Arc`.
//!
//! [`Plan`] is the lifecycle on top: it compiles one [`Target`] (a routed
//! CQ, a conditional, a reliability or an RPQ) at the database's current
//! epochs ([`Plan::compile_at`]), keeps it current after deltas
//! ([`Plan::revalidate`], the only freshness policy in the workspace), and
//! runs it at any `(ε, seed)` ([`Plan::execute`]). Both surfaces compile
//! through it: the `pqe` CLI's `estimate`, `reliability` and
//! `graph-estimate` build one `Target`, compile it at all-zero epochs and
//! print the [`Answer`]; `pqe-serve` caches one `Plan` per target key and
//! revalidates it after each delta. So the CLI and the server print the
//! same digits for the same `(target, ε, seed)` by construction.

use crate::reductions::build_ur_automaton;
use crate::{
    ConditionalPlan, ConditionalReport, EstimateError, GraphMethod, GraphPlan, Method,
    RoutedAnswer, RoutedPlan, RouterError, UrReport,
};
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
    assert_send_sync::<UrPlan>();
    assert_send_sync::<Plan>();
};

/// The cacheable prefix of `UREstimate`: the translated Proposition 1
/// automaton for `(Q, D)`.
pub struct UrPlan {
    nfta: Nfta,
    target_size: usize,
    dropped_facts: usize,
}

/// Compiles the `UREstimate` prefix for `(q, db)`, after checking the
/// query's arities against the schema ([`crate::check_arities`]).
pub(crate) fn compile_ur_plan(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<UrPlan, EstimateError> {
    crate::check_arities(q, db.schema())?;
    let _span = pqe_obs::span::span("compile");
    let ur = build_ur_automaton(q, db)?;
    let (nfta, _) = {
        let _t = pqe_obs::span::span("translate");
        ur.aug.translate()
    };
    Ok(UrPlan {
        nfta,
        target_size: ur.target_size,
        dropped_facts: ur.dropped_facts,
    })
}

impl UrPlan {
    /// Runs the counting phase; bit-identical to
    /// [`ur_estimate`](crate::ur_estimate) for the same config.
    pub fn execute(&self, cfg: &FprasConfig) -> UrReport {
        let _span = pqe_obs::span::span("execute");
        let start = Instant::now();
        let trees = count_nfta(&self.nfta, self.target_size, cfg);
        let (states, size) = (self.nfta.num_states(), self.nfta.size());
        UrReport::from_count(
            trees,
            self.dropped_facts,
            self.target_size,
            states,
            size,
            cfg,
            start,
        )
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
            Target::Conditional {
                q,
                evidence,
                method,
            } => {
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
            Target::Conditional {
                q,
                evidence,
                method,
            } => Compiled::Conditional(ConditionalPlan::compile(q, evidence, h, *method)?),
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
        Ok(Plan {
            target,
            compiled,
            stamp,
        })
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
        let incremental = match (
            epochs.freshness(&self.stamp),
            &mut self.compiled,
            &self.target,
        ) {
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
    use crate::{pqe_estimate, ur_estimate, PqeReport};
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

    fn fpras_plan(q: &ConjunctiveQuery, h: &ProbDatabase) -> RoutedPlan {
        RoutedPlan::compile(q, h, Method::Fpras).unwrap()
    }

    fn estimate(plan: &RoutedPlan, cfg: &FprasConfig) -> PqeReport {
        match plan.execute(cfg) {
            RoutedAnswer::Estimate(r) => r,
            RoutedAnswer::Exact(_) => panic!("expected an FPRAS estimate"),
        }
    }

    #[test]
    fn cached_plan_reproduces_one_shot_estimate_bit_for_bit() {
        let (q, h) = fixture();
        let cfg = FprasConfig::with_epsilon(0.3).with_seed(0x1234);
        let plan = fpras_plan(&q, &h);
        let direct = pqe_estimate(&q, &h, &cfg).unwrap();
        // Two executions of the same plan, interleaved with the one-shot
        // path: all three must agree to the last bit.
        for _ in 0..2 {
            let via_plan = estimate(&plan, &cfg);
            assert_eq!(
                via_plan.probability.to_string(),
                direct.probability.to_string()
            );
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
        assert_eq!(
            via_plan.reliability.to_string(),
            direct.reliability.to_string()
        );
        assert_eq!(via_plan.target_size, direct.target_size);
        assert_eq!(via_plan.dropped_facts, direct.dropped_facts);
    }

    #[test]
    fn plan_execution_varies_with_seed_but_not_repetition() {
        let (q, h) = fixture();
        let plan = fpras_plan(&q, &h);
        let a = estimate(&plan, &FprasConfig::with_epsilon(0.3).with_seed(1));
        let a2 = estimate(&plan, &FprasConfig::with_epsilon(0.3).with_seed(1));
        assert_eq!(a.probability.to_string(), a2.probability.to_string());
    }

    #[test]
    fn empty_query_plan_is_certain() {
        let (_, h) = fixture();
        let q = shapes::path_query(1).restrict_atoms(&[]);
        let plan = fpras_plan(&q, &h);
        let r = estimate(&plan, &FprasConfig::default());
        assert_eq!(r.probability.to_f64(), 1.0);
        let ur = compile_ur_plan(&q, h.database()).unwrap();
        let r = ur.execute(&FprasConfig::default());
        assert_eq!(r.dropped_facts, h.len());
    }

    #[test]
    fn compile_fails_where_estimate_fails() {
        let (_, h) = fixture();
        assert!(RoutedPlan::compile(&shapes::self_join_path(2), &h, Method::Fpras).is_err());
        assert!(compile_ur_plan(&shapes::self_join_path(2), h.database()).is_err());
    }

    #[test]
    fn classification_is_attached() {
        let (q, h) = fixture();
        let plan = fpras_plan(&q, &h);
        assert!(plan.classification.three_path);
        assert!(!plan.classification.safe);
        assert!(plan.automaton_states() > 0);
    }
}
