#![warn(missing_docs)]

//! # pqe-delta — epoch-versioned mutation for probabilistic databases
//!
//! The FPRAS pipeline amortizes compilation, but a database snapshot is
//! only useful while it is true. This crate makes `pqe_db` instances
//! *live*: a [`VersionedDb`] accepts [`Delta`] batches of
//! insert / delete / set-probability operations, swaps in immutable
//! `Arc`-shared snapshots, and advances per-relation [`Epochs`] so callers
//! can scope invalidation precisely:
//!
//! * a plan whose query mentions none of a delta's
//!   [`touched_relations`](Delta::touched_relations) stays fully valid —
//!   compiled automaton *and* memoized `(ε, seed)` results;
//! * a probability-only delta ([`Freshness::ProbsChanged`]) keeps the
//!   automaton *structure*: the paper's construction (§4–§5) depends only
//!   on the query, the decomposition, and which facts exist — probabilities
//!   enter solely through the multiplier gadgets, which
//!   `pqe_core` recomputes in place;
//! * an insert or delete ([`Freshness::StructureChanged`]) falls back to a
//!   full recompile, counted separately by the callers.
//!
//! The text format ([`Delta::parse_str`]) is the shared line format of
//! [`pqe_arith::text`] with a sigil before each fact:
//!
//! ```text
//! ~ 0.95 Link(gate, relay1)    # set probability
//! - Link(relay1, relay9)       # delete
//! + 3/4  Link(relay1, relay2)  # insert
//! ```
//!
//! ```
//! use pqe_delta::{Delta, Freshness, VersionedDb};
//!
//! let h = pqe_db::io::load_str("1/2 R(a,b)\n1/3 S(b,c)\n").unwrap();
//! let mut v = VersionedDb::new(h);
//! let stamp = v.epochs().stamp(["S"]);
//!
//! let d = Delta::parse_str("~ 3/4 R(a,b)\n").unwrap();
//! let report = v.apply(&d).unwrap();
//! assert!(report.is_probability_only());
//! // S was not touched: plans over S stay current, memos and all.
//! assert_eq!(v.epochs().freshness(&stamp), Freshness::Current);
//! ```

mod delta;
mod epoch;
mod versioned;

pub use delta::{Delta, DeltaOp};
pub use epoch::{EpochStamp, Epochs, Freshness, RelEpoch};
pub use versioned::{ApplyError, ApplyReport, VersionedDb};
