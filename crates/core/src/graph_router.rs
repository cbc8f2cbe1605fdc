//! Routing for regular path queries over probabilistic graphs.
//!
//! The graph analogue of [`crate::router`]: one audited dispatch point
//! deciding how `Pr(s ⇝ t via R)` gets evaluated on an edge-labeled
//! probabilistic graph. Two engines exist:
//!
//! * **exact world enumeration** ([`pqe_graph::enumerate_probability`]):
//!   sums the probabilities of the `2^m` worlds by a pruned edge-factoring
//!   search over integer weights — exact, exponential in the worst case,
//!   and so only attempted up to [`pqe_graph::MAX_ENUM_EDGES`] edges;
//! * **combined FPRAS** ([`pqe_graph::compile()`] + [`count_nfa`]): the
//!   RPQ × graph layered product NFA, counted with the ACJR CountNFA
//!   FPRAS. Sound only on **acyclic** graphs — no combined FPRAS is known
//!   for RPQ reliability over cyclic probabilistic graphs (the DAG
//!   restriction of Amarilli, van Bremen, Gaspard & Meel).
//!
//! The auto policy mirrors the relational router's: small instances get
//! the exact engine, large acyclic instances the FPRAS, and large cyclic
//! instances a structured error rather than a silently wrong number. The
//! CLI and `pqe-serve` both compile a [`crate::Target::Graph`] through
//! [`crate::Plan`] into a [`GraphPlan`], and each compilation bumps the
//! `router.route.graph` counter next to its relational siblings. The two
//! policies share one vocabulary: a graph plan records a
//! [`RouteDecision`] ([`Route::Enum`] or [`Route::Fpras`]), answers with a
//! [`RoutedAnswer`] and fails with a [`RouterError`]; only the accepted
//! method set, [`GraphMethod`], is graph-specific.

use crate::router::{closest, Route, RouteDecision, RoutedAnswer, RouterError};
use crate::PqeReport;
use pqe_arith::Rational;
use pqe_automata::{count_nfa, FprasConfig, Nfa};
use pqe_graph::{CompileError, CompiledRpq, OracleError, ProbGraph, Rpq, MAX_ENUM_EDGES};
use std::time::Instant;

// Graph plans sit in the serve plan cache and cross worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphPlan>();
};

/// A requested graph evaluation method, as on the wire and the CLI. Its
/// own type because the graph surface accepts a different method set
/// than [`crate::Method`]; routes, decisions, answers and errors are the
/// relational router's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMethod {
    /// Route by instance size and shape: small ⇒ enumeration, large
    /// acyclic ⇒ FPRAS, large cyclic ⇒ error.
    Auto,
    /// Force exact world enumeration (errors above the edge bound).
    Enum,
    /// Force the FPRAS product construction (errors on cyclic graphs).
    Fpras,
}

impl GraphMethod {
    /// Parses a method string with a "did you mean" hint on typos,
    /// mirroring [`crate::router::Method::parse`].
    pub fn parse(s: &str) -> Result<GraphMethod, String> {
        match s {
            "auto" => Ok(GraphMethod::Auto),
            "enum" => Ok(GraphMethod::Enum),
            "fpras" => Ok(GraphMethod::Fpras),
            other => {
                let hint = closest(other, &["auto", "enum", "fpras"])
                    .map(|c| format!("; did you mean {c:?}?"))
                    .unwrap_or_default();
                Err(format!(
                    "unknown graph method {other:?} (expected auto, enum, or fpras{hint})"
                ))
            }
        }
    }

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            GraphMethod::Auto => "auto",
            GraphMethod::Enum => "enum",
            GraphMethod::Fpras => "fpras",
        }
    }
}

/// The answer a graph plan produces: the relational router's answer type
/// (exact from enumeration, an FPRAS report otherwise). The old name
/// stays for callers that still use it.
pub type GraphAnswer = RoutedAnswer;

/// Pure graph routing policy: instance size/shape + requested method ⇒
/// engine ([`Route::Enum`] or [`Route::Fpras`]) or a structured refusal.
/// The **only** place the auto rule lives.
fn decide_graph(
    num_edges: usize,
    acyclic: bool,
    method: GraphMethod,
) -> Result<RouteDecision, RouterError> {
    let bound = MAX_ENUM_EDGES;
    match method {
        GraphMethod::Enum => {
            if num_edges > bound {
                return Err(RouterError::EnumTooLarge {
                    edges: num_edges,
                    bound,
                });
            }
            Ok(RouteDecision {
                route: Route::Enum,
                forced: true,
                rationale: "forced by --method enum".to_owned(),
            })
        }
        GraphMethod::Fpras => Ok(RouteDecision {
            route: Route::Fpras,
            forced: true,
            rationale: "forced by --method fpras".to_owned(),
        }),
        GraphMethod::Auto => {
            if num_edges <= bound {
                Ok(RouteDecision {
                    route: Route::Enum,
                    forced: false,
                    rationale: format!(
                        "auto: {num_edges} edges <= {bound} => exact world enumeration"
                    ),
                })
            } else if acyclic {
                Ok(RouteDecision {
                    route: Route::Fpras,
                    forced: false,
                    rationale: format!(
                        "auto: {num_edges} edges > {bound}, acyclic => FPRAS on the RPQ product NFA"
                    ),
                })
            } else {
                // Neither engine is sound/feasible: surface the landscape
                // gap instead of guessing.
                Err(RouterError::EnumTooLarge {
                    edges: num_edges,
                    bound,
                })
            }
        }
    }
}

/// A routed, compiled plan for one `(graph, RPQ, method)`.
pub struct GraphPlan {
    /// The route taken and why.
    pub decision: RouteDecision,
    /// Edges in the graph instance.
    pub num_edges: usize,
    kind: GraphKind,
}

enum GraphKind {
    /// Exact probability, computed at compile time (it depends only on
    /// the instance, like the lifted route of [`crate::RoutedPlan`]).
    Enum {
        exact: Rational,
    },
    Fpras(Box<CompiledRpq>),
}

impl GraphPlan {
    /// Routes and compiles `rpq` against `g`. Increments the
    /// `router.route.graph` counter (once per compilation — cached plans
    /// don't re-count). On the enumeration route the exact probability is
    /// computed here (under the `graph.enum` span); on the FPRAS route the
    /// product NFA is built (under the `graph.compile` span).
    pub fn compile(
        g: &ProbGraph,
        rpq: &Rpq,
        method: GraphMethod,
    ) -> Result<GraphPlan, RouterError> {
        let decision = decide_graph(g.num_edges(), g.is_acyclic(), method)?;
        pqe_obs::metrics::counter("router.route.graph").inc();
        let kind = if decision.route == Route::Enum {
            let exact = {
                let _span = pqe_obs::span::span("graph.enum");
                pqe_graph::enumerate_probability(g, rpq)
            };
            let exact = exact.map_err(|e| match e {
                OracleError::TooLarge { edges, bound } => {
                    RouterError::EnumTooLarge { edges, bound }
                }
                OracleError::UnknownVertex(v) => RouterError::Graph(CompileError::UnknownVertex(v)),
            })?;
            GraphKind::Enum { exact }
        } else {
            GraphKind::Fpras(Box::new(pqe_graph::compile(g, rpq)?))
        };
        Ok(GraphPlan {
            decision,
            num_edges: g.num_edges(),
            kind,
        })
    }

    /// Runs the routed engine. Pure function of `(plan, ε, seed,
    /// threads)`: the FPRAS path is `count_nfa` on the compiled product
    /// (bit-identical per seed at any thread count), reported as a
    /// [`PqeReport`] over the product NFA; the enumeration path returns
    /// the precomputed exact rational.
    pub fn execute(&self, cfg: &FprasConfig) -> RoutedAnswer {
        match &self.kind {
            GraphKind::Enum { exact } => RoutedAnswer::Exact(exact.clone()),
            GraphKind::Fpras(c) => {
                let start = Instant::now();
                let count = {
                    let _span = pqe_obs::span::span("graph.count");
                    count_nfa(&c.nfa, c.target_len, cfg)
                };
                let (d, k) = (c.denominator.clone(), c.target_len);
                let (states, size) = (c.nfa.num_states(), c.nfa.size());
                RoutedAnswer::Estimate(PqeReport::from_count(count, d, k, states, size, cfg, start))
            }
        }
    }

    /// States of the compiled product NFA (0 on the enumeration route).
    pub fn automaton_states(&self) -> usize {
        match &self.kind {
            GraphKind::Enum { .. } => 0,
            GraphKind::Fpras(c) => c.nfa.num_states(),
        }
    }

    /// The compiled product NFA, when the FPRAS route built one
    /// (`--dump-automaton` reads this).
    pub fn nfa(&self) -> Option<&Nfa> {
        match &self.kind {
            GraphKind::Enum { .. } => None,
            GraphKind::Fpras(c) => Some(&c.nfa),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_graph::load_str;

    fn rpq(text: &str) -> Rpq {
        pqe_graph::parse(text).unwrap()
    }

    fn diamond() -> ProbGraph {
        load_str(
            "1/2 a -r-> b\n\
             1/2 a -r-> c\n\
             1/2 b -r-> d\n\
             1/2 c -r-> d\n",
        )
        .unwrap()
    }

    #[test]
    fn graph_method_parse_accepts_known_and_hints_unknown() {
        assert_eq!(GraphMethod::parse("auto").unwrap(), GraphMethod::Auto);
        assert_eq!(GraphMethod::parse("enum").unwrap(), GraphMethod::Enum);
        assert_eq!(GraphMethod::parse("fpras").unwrap(), GraphMethod::Fpras);
        let e = GraphMethod::parse("enm").unwrap_err();
        assert!(e.contains("did you mean \"enum\"?"), "{e}");
        let e = GraphMethod::parse("nonsense").unwrap_err();
        assert!(e.contains("expected auto, enum, or fpras"), "{e}");
    }

    #[test]
    fn auto_routes_small_to_enum_and_large_dags_to_fpras() {
        let d = decide_graph(10, true, GraphMethod::Auto).unwrap();
        assert_eq!(d.route, Route::Enum);
        assert!(!d.forced);
        assert!(d.rationale.contains("enumeration"), "{}", d.rationale);

        let d = decide_graph(1000, true, GraphMethod::Auto).unwrap();
        assert_eq!(d.route, Route::Fpras);
        assert!(d.rationale.contains("acyclic"), "{}", d.rationale);

        // Large cyclic: structured refusal, not a wrong answer.
        assert!(matches!(
            decide_graph(1000, false, GraphMethod::Auto),
            Err(RouterError::EnumTooLarge { edges: 1000, .. })
        ));

        assert!(matches!(
            decide_graph(17, true, GraphMethod::Enum),
            Err(RouterError::EnumTooLarge { .. })
        ));
    }

    #[test]
    fn both_routes_agree_on_the_diamond() {
        let g = diamond();
        let cfg = FprasConfig::with_epsilon(0.05).with_seed(7);
        let exact = GraphPlan::compile(&g, &rpq("a -> r.r -> d"), GraphMethod::Enum)
            .unwrap()
            .execute(&cfg);
        // Two independent 2-hop routes of prob 1/4 each: 1 - (3/4)^2 = 7/16.
        assert_eq!(exact.exact().unwrap(), &Rational::from_ratio(7, 16));

        let plan = GraphPlan::compile(&g, &rpq("a -> r.r -> d"), GraphMethod::Fpras).unwrap();
        assert_eq!(plan.decision.route, Route::Fpras);
        assert!(plan.automaton_states() > 0);
        assert!(plan.nfa().is_some());
        let est = plan.execute(&cfg);
        let rel = (est.to_f64() / (7.0 / 16.0) - 1.0).abs();
        assert!(rel <= 0.05, "rel {rel}");
    }

    #[test]
    fn cyclic_graph_is_refused_by_the_fpras_route() {
        let g = load_str("1/2 a -r-> b\n1/2 b -r-> a\n").unwrap();
        match GraphPlan::compile(&g, &rpq("a -> r* -> b"), GraphMethod::Fpras) {
            Err(RouterError::Graph(CompileError::CyclicGraph { .. })) => {}
            other => panic!("expected CyclicGraph, got {:?}", other.err()),
        }
        // ...but small cyclic instances still enumerate exactly.
        let plan = GraphPlan::compile(&g, &rpq("a -> r* -> b"), GraphMethod::Auto).unwrap();
        assert_eq!(plan.decision.route, Route::Enum);
        let p = plan.execute(&FprasConfig::default());
        assert_eq!(p.exact().unwrap(), &Rational::from_ratio(1, 2));
    }

    #[test]
    fn graph_route_counter_increments_per_compile() {
        let g = diamond();
        let c = pqe_obs::metrics::counter("router.route.graph");
        let before = c.get();
        GraphPlan::compile(&g, &rpq("a -> r.r -> d"), GraphMethod::Auto).unwrap();
        GraphPlan::compile(&g, &rpq("a -> r.r -> d"), GraphMethod::Fpras).unwrap();
        assert_eq!(c.get(), before + 2);
    }

    #[test]
    fn execution_is_deterministic_and_thread_invariant() {
        let g = diamond();
        let plan = GraphPlan::compile(&g, &rpq("_ -> r.r -> _"), GraphMethod::Fpras).unwrap();
        let base = FprasConfig::with_epsilon(0.1).with_seed(0xAB);
        let reference = plan.execute(&base.clone().with_threads(1)).to_bigfloat();
        for threads in [2usize, 4, 8] {
            let got = plan
                .execute(&base.clone().with_threads(threads))
                .to_bigfloat();
            assert_eq!(got, reference, "threads={threads}");
        }
    }
}
