#![warn(missing_docs)]

//! # pqe-arith — arbitrary-precision arithmetic for probabilistic query evaluation
//!
//! The PQE reduction of van Bremen & Meel (PODS 2023) manipulates quantities
//! that overflow any fixed-width integer type:
//!
//! * uniform reliability counts `UR(Q, D)` can be as large as `2^{|D|}`;
//! * the probability denominator `d = ∏_i d_i` of §5.2 is a product of one
//!   rational denominator per fact;
//! * weighted tree counts `|L_k(T^c)| = Σ_{D' ⊨ Q} ∏ w_i ∏ (d_i − w_i)` mix
//!   both.
//!
//! This crate provides the three number types the rest of the workspace
//! builds on: [`BigUint`], [`BigInt`], and [`Rational`]. They are written
//! from scratch (no external bignum dependency) with `u32` limbs and `u64`
//! intermediates, favouring simplicity and auditability over raw speed; the
//! FPRAS pipeline spends its time in sampling and joins, not in arithmetic.
//!
//! Probabilities enter the workspace as text, so the line format that
//! databases, graphs and delta batches share lives here too, in [`text`].
//!
//! ```
//! use pqe_arith::{BigUint, Rational};
//!
//! let two_pow_100 = BigUint::from(2u32).pow(100);
//! assert_eq!(two_pow_100.to_string(), "1267650600228229401496703205376");
//!
//! let half = Rational::new(1.into(), 2u32.into());
//! let third = Rational::new(1.into(), 3u32.into());
//! assert_eq!((&half + &third).to_string(), "5/6");
//! ```

mod bigfloat;
mod bigint;
mod biguint;
mod fixuint;
mod rational;
pub mod text;

pub use bigfloat::BigFloat;
pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use fixuint::{set_slow_path, slow_path_forced, FixUint};
pub use rational::Rational;

/// Error returned when parsing a number from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNumError {
    kind: ParseNumErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseNumErrorKind {
    Empty,
    InvalidDigit(char),
    ZeroDenominator,
}

impl ParseNumError {
    fn empty() -> Self {
        Self {
            kind: ParseNumErrorKind::Empty,
        }
    }
    fn invalid(c: char) -> Self {
        Self {
            kind: ParseNumErrorKind::InvalidDigit(c),
        }
    }
    fn zero_denominator() -> Self {
        Self {
            kind: ParseNumErrorKind::ZeroDenominator,
        }
    }
}

impl std::fmt::Display for ParseNumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ParseNumErrorKind::Empty => write!(f, "empty numeric literal"),
            ParseNumErrorKind::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
            ParseNumErrorKind::ZeroDenominator => write!(f, "zero denominator"),
        }
    }
}

impl std::error::Error for ParseNumError {}
