#![warn(missing_docs)]

//! # pqe-automata — string and tree automata with approximate counting
//!
//! The automata substrate of van Bremen & Meel (PODS 2023). The paper's
//! reductions target two black boxes that had no open implementation:
//!
//! * **CountNFA** ([`count_nfa`]) — the FPRAS of Arenas, Croquevielle,
//!   Jayaram & Riveros (JACM '21) for `|L_n(M)|`, the number of distinct
//!   strings of length `n` accepted by an NFA;
//! * **CountNFTA** ([`count_nfta`]) — its STOC '21 generalization to
//!   counting distinct labelled trees of size `n` accepted by a top-down
//!   NFTA.
//!
//! Both are implemented here as faithful practical adaptations (see
//! `DESIGN.md` §2.5): level-wise self-reducible counting, where each
//! `L(q, n)` is a polynomial-fan-in union of extensions of smaller
//! languages, estimated with the Karp–Luby union estimator over per-part
//! samplers and membership oracles, with rejection sampling providing the
//! (approximately) uniform per-part samples. Unions are first split by root
//! symbol — those parts are *disjoint* and add exactly — so sampling effort
//! concentrates on genuinely ambiguous transitions.
//!
//! The crate also implements the paper's two syntactic extensions and their
//! polynomial translations to ordinary NFTAs:
//!
//! * **augmented NFTAs** (§4.1): transitions labelled by strings with
//!   optional (`?`) symbols — [`AugmentedNfta::translate`];
//! * **NFTAs with multipliers** (§5.1, Definition 2): transitions that
//!   multiply the number of accepted trees by an integer `n`, given by a
//!   [`SymbolWeights`] table over an automaton's symbols and translated
//!   (Remark 2) by splicing a binary comparator gadget of `Θ(log n)` states
//!   into an NFTA ([`weigh_nfta`]) or an NFA ([`weigh_nfa`]).
//!
//! Exact (exponential-time) counters — subset-determinization string/tree
//! counting and run counting — serve as test oracles.

mod alphabet;
mod ambiguity;
mod augmented;
pub mod config;
mod dot;
mod forest_reg;
mod multiplier;
mod nfa;
mod nfa_fpras;
mod nfta;
mod nfta_exact;
mod nfta_fpras;
mod nfta_run_estimator;
mod scratch;
mod union_mc;

pub use alphabet::{Alphabet, SymbolId};
pub use ambiguity::Ambiguity;
pub use augmented::{AugSymbol, AugTransition, AugmentedNfta};
pub use config::FprasConfig;
pub use dot::{nfa_to_dot, nfta_to_dot};
pub use multiplier::{required_bits, weigh_nfa, weigh_nfta, SymbolWeights};
pub use nfa::{Nfa, StateId};
pub use nfa_fpras::count_nfa;
pub use nfta::{IndexedTree, Nfta, NodeMemo, Transition, Tree};
pub use nfta_exact::{count_runs, count_trees_exact};
pub use nfta_fpras::{count_nfta, NftaCounter};
pub use nfta_run_estimator::{count_nfta_run_based, RunTables};

// Compiled automata are shared across request threads (plan caches hold
// them behind `Arc` and run `count_nfa`/`count_nfta` concurrently against
// `&self`), so they must stay plain owned data. These assertions turn an
// accidental `Rc`/`RefCell` in a field into a compile error instead of a
// downstream service regression.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Nfa>();
    assert_send_sync::<Nfta>();
    assert_send_sync::<AugmentedNfta>();
    assert_send_sync::<FprasConfig>();
};
