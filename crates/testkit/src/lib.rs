//! In-tree property-based testing for the PQE workspace.
//!
//! Replaces `proptest` (and the `criterion` bench harness — see
//! [`mod@bench`]) with a small, hermetic harness in the style of
//! Hypothesis/`cargo-fuzz`: every generated value is a deterministic
//! function of a finite **byte stream**. That single design decision buys
//! the three features a property harness needs:
//!
//! * **Generation** — [`Gen`]erators draw bytes from a [`Source`]; in
//!   random mode the bytes come from a seeded [`pqe_rand`] generator and
//!   are recorded.
//! * **Shrinking** — on failure the recorded bytes are minimized
//!   (chunk deletion, zeroing, per-byte descent) and replayed through the
//!   *same* generator, so shrinking works through `map`, tuples, and
//!   `one_of` for free — no per-type shrinkers. An exhausted stream pads
//!   with zeros, and generators are written so that "all zeros" is the
//!   simplest value (range minimum, first alternative, empty vec).
//! * **Regression corpus** — a failing case *is* its byte stream, so a
//!   hex line in `tests/corpus/<suite>.corpus` pins it forever. Corpus
//!   entries are replayed before any random case, mirroring
//!   `proptest-regressions` files (which this replaces).
//!
//! # Writing a property
//!
//! ```
//! use pqe_testkit::prelude::*;
//!
//! #[derive(Debug)]
//! struct Point { x: u32, y: u32 }
//!
//! fn point() -> impl Gen<Value = Point> {
//!     (0u32..100, 0u32..100).prop_map(|(x, y)| Point { x, y })
//! }
//!
//! // Inside a #[test]:
//! check("sum_is_monotone", &Config::cases(64), &(point(), 1u32..10), |(p, d)| {
//!     prop_assert!(p.x + d > p.x, "overflowed at {} + {}", p.x, d);
//!     Ok(())
//! });
//! ```
//!
//! The closure returns [`CaseResult`]; the [`prop_assert!`],
//! [`prop_assert_eq!`] and [`prop_assume!`] macros keep ported `proptest`
//! suites nearly diff-free. Panics inside the property are caught and
//! treated as failures (so `unwrap()` still shrinks).

pub mod bench;
mod gen;
mod runner;
mod source;

pub use gen::{
    any, arb_char, arb_string, one_of, string_from, vec, Arbitrary, BoxedGen, Gen, LenRange,
};
pub use runner::{check, CaseFail, CaseResult, Config};
pub use source::Source;

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        any, arb_string, check, one_of, prop_assert, prop_assert_eq, prop_assume, string_from,
        vec, CaseFail, CaseResult, Config, Gen,
    };
}

/// Asserts a condition inside a property; on failure the case fails (and
/// shrinks) with the formatted message instead of panicking the harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::CaseFail::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property (both sides shown on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)+));
    }};
}

/// Discards the current case (not a failure): use for preconditions.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::CaseFail::Discard);
        }
    };
}
