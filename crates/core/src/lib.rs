#![warn(missing_docs)]

//! # pqe-core — the combined-complexity FPRAS for probabilistic query
//! evaluation
//!
//! This crate implements the contribution of van Bremen & Meel,
//! *Probabilistic Query Evaluation: The Combined FPRAS Landscape*
//! (PODS 2023): given a self-join-free conjunctive query `Q` of bounded
//! hypertree width and a tuple-independent probabilistic database
//! `H = (D, π)`, approximate `Pr_H(Q)` to a `(1±ε)` factor in time
//! polynomial in `|Q|`, `|H|`, and `ε⁻¹`.
//!
//! The three estimators mirror the paper's three theorems:
//!
//! | Paper | API | Reduction |
//! |-------|-----|-----------|
//! | Thm 2 (`PathEstimate`) | [`path_ur_estimate`] | path query → NFA (§3) → CountNFA |
//! | Thm 3 (`UREstimate`) | [`ur_estimate`] | CQ → augmented NFTA (Prop 1) → CountNFTA |
//! | Thm 1 (`PQEEstimate`) | [`pqe_estimate`] | CQ → NFTA with multipliers (§5.2) → CountNFTA |
//!
//! [`baselines`] hosts everything the FPRAS is compared against: exact
//! brute force, exact lifted inference for safe queries, the intensional
//! lineage + exact weighted model counting route, the Karp–Luby–Madras DNF
//! FPRAS, and naive Monte Carlo. [`landscape`] classifies queries into the
//! cells of the paper's Table 1.
//!
//! ```
//! use pqe_query::shapes;
//! use pqe_db::{generators, ProbDatabase};
//! use pqe_arith::Rational;
//! use pqe_automata::FprasConfig;
//! use pqe_rand::{rngs::StdRng, SeedableRng};
//!
//! // A #P-hard query (3Path class) on a small layered graph.
//! let q = shapes::path_query(3);
//! let mut rng = StdRng::seed_from_u64(1);
//! let db = generators::layered_graph_connected(3, 2, 0.5, &mut rng);
//! let h = ProbDatabase::uniform(db, Rational::from_ratio(1, 2));
//!
//! let report = pqe_core::pqe_estimate(&q, &h, &FprasConfig::with_epsilon(0.2)).unwrap();
//! let exact = pqe_core::baselines::brute_force_pqe(&q, &h);
//! let rel = (report.probability.to_f64() / exact.to_f64() - 1.0).abs();
//! assert!(rel < 0.2);
//! ```

mod arity;
pub mod baselines;
mod estimators;
pub mod graph_router;
pub mod landscape;
pub mod plan;
pub mod reductions;
pub mod router;
pub mod worlds;

pub use arity::{check_arities, ArityMismatch};
pub use estimators::{
    fact_influences, path_pqe_estimate, path_ur_estimate, pqe_estimate, ur_estimate, EstimateError,
    PqeReport, UrReport,
};
pub use graph_router::{GraphAnswer, GraphMethod, GraphPlan};
pub use plan::{Answer, Compiled, Plan, Revalidation, Target, UrPlan};
pub use router::{
    ConditionalPlan, ConditionalReport, Method, Route, RouteDecision, RoutedAnswer, RoutedPlan,
    RouterError,
};
