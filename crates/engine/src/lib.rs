#![warn(missing_docs)]

//! # pqe-engine — deterministic conjunctive-query evaluation
//!
//! The deterministic substrate under the probabilistic pipeline. Three jobs:
//!
//! 1. **Boolean evaluation** `D ⊨ Q` ([`eval_boolean`]) — backtracking join
//!    with relation indexes; used by the brute-force oracle and the naive
//!    Monte-Carlo baseline on sampled worlds.
//! 2. **Homomorphism counting** over a hypertree decomposition
//!    ([`count_homomorphisms`], [`weighted_hom_count`]) — the Yannakakis-
//!    style dynamic program, generic over a [`Semiring`] so the same code
//!    counts witnesses exactly (`BigUint`), computes lineage clause counts
//!    without materializing the lineage (experiment E5's 10¹²-clause
//!    reproduction), and computes the weighted clause mass the Karp–Luby
//!    baseline needs (`Rational`).
//! 3. **Witness enumeration and sampling** ([`enumerate_witnesses`],
//!    [`sample::WitnessSampler`]) — witnesses are the DNF lineage clauses of
//!    the intensional approach.
//!
//! ```
//! use pqe_query::parse;
//! use pqe_db::{Database, Schema};
//! use pqe_engine::{eval_boolean, count_homomorphisms};
//!
//! let q = parse("R(x,y), S(y,z)").unwrap();
//! let mut db = Database::new(Schema::new([("R", 2), ("S", 2)]));
//! db.add_fact("R", &["a", "b"]).unwrap();
//! db.add_fact("S", &["b", "c"]).unwrap();
//! db.add_fact("S", &["b", "d"]).unwrap();
//! assert!(eval_boolean(&q, &db));
//! assert_eq!(count_homomorphisms(&q, &db).to_u64(), Some(2));
//! ```

mod bags;
mod binding;
pub mod containment;
mod join;
pub mod sample;
mod semiring;

pub use bags::{assignment_of, count_homomorphisms, weighted_hom_count, BagPlan};
pub use binding::Binding;
pub use join::{enumerate_witnesses, eval_boolean, join_atoms, Witness};
pub use semiring::Semiring;
