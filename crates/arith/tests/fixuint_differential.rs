//! Differential property tests: `FixUint`'s `u128` fast paths must equal
//! the `BigUint` reference bit-for-bit — including the lossy `f64` /
//! `BigFloat` conversions, and exactly at the overflow crossover where the
//! representation spills from `Small` to `Big`.

use pqe_arith::{set_slow_path, BigFloat, BigUint, FixUint};
use pqe_testkit::prelude::*;

fn cfg() -> Config {
    Config::cases(256).with_corpus("tests/corpus/fixuint_differential.corpus")
}

/// Operand generator biased toward the single-limb / overflow boundary:
/// an anchor at a power of two near a representation edge, then a small
/// signed wobble and optional random low bits.
fn boundary_value() -> impl Gen<Value = u128> {
    (0u8..=9, 0u32..2048, any::<u64>()).prop_map(|(anchor, wobble, low)| {
        let base: u128 = match anchor {
            0 => 0,
            1 => 1 << 31, // single u32 limb edge
            2 => 1 << 52, // f64 mantissa edge
            3 => 1 << 63, // BigFloat::from_biguint branch edge
            4 => 1 << 64, // u64 / two-limb edge
            5 => 1 << 96, // three-limb edge
            6 => u64::MAX as u128,
            7 => 1 << 120,
            8 => u128::MAX,           // u128 overflow edge
            _ => (low as u128) << 33, // spread across mid-range
        };
        base.wrapping_add(wobble as u128)
            .wrapping_sub(1024)
            .wrapping_add((low & 0xFF) as u128)
    })
}

fn reference(v: u128) -> BigUint {
    BigUint::from(v)
}

#[test]
fn add_matches_biguint_reference() {
    check(
        "fixuint_add_matches_reference",
        &cfg(),
        &(boundary_value(), boundary_value()),
        |&(a, b)| {
            let fix = &FixUint::from_u128(a) + &FixUint::from_u128(b);
            let big = &reference(a) + &reference(b);
            prop_assert_eq!(fix.to_biguint(), big);
            Ok(())
        },
    );
}

#[test]
fn mul_matches_biguint_reference() {
    check(
        "fixuint_mul_matches_reference",
        &cfg(),
        &(boundary_value(), boundary_value()),
        |&(a, b)| {
            let fix = &FixUint::from_u128(a) * &FixUint::from_u128(b);
            let big = &reference(a) * &reference(b);
            prop_assert_eq!(fix.to_biguint(), big);
            Ok(())
        },
    );
}

#[test]
fn lossy_conversions_are_bit_identical() {
    check(
        "fixuint_conversions_bit_identical",
        &cfg(),
        &boundary_value(),
        |&v| {
            let fix = FixUint::from_u128(v);
            let big = reference(v);
            // f64: compare raw bits, not approximate equality.
            prop_assert_eq!(fix.to_f64().to_bits(), big.to_f64().to_bits());
            let bf_fix = fix.to_bigfloat();
            let bf_big = BigFloat::from_biguint(&big);
            prop_assert!(
                bf_fix == bf_big,
                "to_bigfloat({v}): fast {bf_fix} vs reference {bf_big}"
            );
            Ok(())
        },
    );
}

#[test]
fn accumulation_across_the_overflow_crossover() {
    // Chains of adds/muls that cross u128::MAX mid-sequence: once spilled,
    // further fast-path operands must keep agreeing with the reference.
    check(
        "fixuint_accumulation_crossover",
        &cfg(),
        &vec((boundary_value(), any::<bool>()), 1..12),
        |ops| {
            let mut fix = FixUint::one();
            let mut big = BigUint::one();
            for &(v, is_mul) in ops {
                let f = FixUint::from_u128(v);
                let b = reference(v);
                if is_mul {
                    fix = &fix * &f;
                    big = &big * &b;
                } else {
                    fix += &f;
                    big += &b;
                }
                prop_assert_eq!(fix.to_biguint(), big.clone());
                prop_assert_eq!(fix.to_f64().to_bits(), big.to_f64().to_bits());
                prop_assert!(fix.to_bigfloat() == BigFloat::from_biguint(&big));
            }
            Ok(())
        },
    );
}

#[test]
fn exact_crossover_values() {
    // The precise values where each conversion branch changes: one below,
    // at, and above every edge.
    let edges: [u128; 5] = [1 << 52, 1 << 53, 1 << 63, 1 << 64, u128::MAX];
    for edge in edges {
        for v in [edge.wrapping_sub(1), edge, edge.wrapping_add(1)] {
            let fix = FixUint::from_u128(v);
            let big = reference(v);
            assert_eq!(
                fix.to_f64().to_bits(),
                big.to_f64().to_bits(),
                "to_f64 at {v}"
            );
            assert!(
                fix.to_bigfloat() == BigFloat::from_biguint(&big),
                "to_bigfloat at {v}"
            );
        }
    }
    // Addition exactly at the u128 overflow crossover.
    let just_over = &FixUint::from_u128(u128::MAX) + &FixUint::one();
    assert_eq!(
        just_over.to_biguint(),
        &BigUint::from(u128::MAX) + &BigUint::one()
    );
    // Multiplication exactly at the crossover: (2^64)·(2^64) overflows,
    // (2^64)·(2^64 − 1) does not.
    let lo = &FixUint::from_u128(1 << 64) * &FixUint::from_u128((1u128 << 64) - 1);
    assert_eq!(
        lo.to_biguint(),
        &BigUint::from(1u128 << 64) * &BigUint::from((1u128 << 64) - 1)
    );
    let hi = &FixUint::from_u128(1 << 64) * &FixUint::from_u128(1 << 64);
    assert_eq!(
        hi.to_biguint(),
        &BigUint::from(1u128 << 64) * &BigUint::from(1u128 << 64)
    );
}

#[test]
fn slow_path_produces_identical_values() {
    // The escape hatch changes representation, never value: a DP-style
    // fold run under the slow path equals the fast-path fold exactly.
    let vals: [u128; 6] = [3, 1 << 40, (1 << 63) + 7, u64::MAX as u128, 1 << 100, 12345];
    let fold = |mut acc: FixUint| {
        for &v in &vals {
            acc = &acc * &FixUint::from_u128(v);
            acc += &FixUint::from_u128(v);
        }
        acc
    };
    let fast = fold(FixUint::one());
    set_slow_path(true);
    let slow = fold(FixUint::one());
    set_slow_path(false);
    assert_eq!(fast.to_biguint(), slow.to_biguint());
    assert_eq!(fast.to_f64().to_bits(), slow.to_f64().to_bits());
    assert!(fast.to_bigfloat() == slow.to_bigfloat());
}
