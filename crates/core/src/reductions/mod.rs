//! The paper's reductions from queries and databases to automata.
//!
//! * [`path_nfa`] — §3: self-join-free path queries on binary relations
//!   reduce to string automata whose accepted length-`|D|` strings are in
//!   bijection with the satisfying subinstances.
//! * [`ur_nfta`] — §4.2, Proposition 1: bounded-hypertree-width SJF queries
//!   reduce to augmented NFTAs whose accepted size-`(|D|+c)` trees are in
//!   bijection with the satisfying subinstances (`c` = padding vertices;
//!   see DESIGN.md §2.1).
//! * [`pqe_nfta`] — §5.2, Theorem 1: attaching multiplier gadgets scales
//!   the number of accepted trees by each subinstance's weight, reducing
//!   PQE itself to tree counting.

pub mod path_nfa;
pub mod path_pqe;
pub mod pqe_nfta;
pub mod ur_nfta;

pub use path_nfa::{build_path_nfa, PathNfa};

pub use path_pqe::{build_path_pqe_nfa, PathPqeAutomaton};
pub use pqe_nfta::{build_pqe_automaton, PqeAutomaton, ReweightError};
pub use ur_nfta::{build_ur_automaton, ReductionError, UrAutomaton};
