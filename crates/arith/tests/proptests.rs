//! Property-based tests: algebraic laws of `BigUint`, `BigInt`, `Rational`,
//! checked against `u128`/`i128` reference semantics and against each other.

use pqe_arith::{BigInt, BigUint, Rational};
use pqe_testkit::prelude::*;
use pqe_testkit::BoxedGen;

fn cfg() -> Config {
    Config::cases(256).with_corpus("tests/corpus/proptests.corpus")
}

fn biguint_gen() -> BoxedGen<BigUint> {
    // Mix small values (edge cases) with multi-limb values.
    one_of(vec![
        (0u64..16).prop_map(BigUint::from).boxed(),
        any::<u64>().prop_map(BigUint::from).boxed(),
        any::<u128>().prop_map(BigUint::from).boxed(),
        (any::<u128>(), any::<u128>())
            .prop_map(|(a, b)| &(&BigUint::from(a) << 128) + &BigUint::from(b))
            .boxed(),
    ])
    .boxed()
}

fn bigint_gen() -> BoxedGen<BigInt> {
    (biguint_gen(), any::<bool>())
        .prop_map(|(m, neg)| {
            let v = BigInt::from(m);
            if neg {
                -v
            } else {
                v
            }
        })
        .boxed()
}

/// A random value of `limbs` 32-bit limbs (top limb nonzero).
fn wide_gen(limbs: std::ops::RangeInclusive<usize>) -> BoxedGen<BigUint> {
    vec(any::<u32>(), limbs)
        .prop_map(|mut l| {
            if let Some(top) = l.last_mut() {
                *top |= 1 << 31;
            }
            BigUint::from_limbs(l)
        })
        .boxed()
}

fn pow2_gen() -> BoxedGen<BigUint> {
    (0u64..1200).prop_map(|k| &BigUint::one() << k).boxed()
}

/// `biguint_gen` plus the shapes exact lifted inference produces: powers of
/// two, products of small odd primes, and ~1100-bit (35-limb) values.
fn gcd_operand_gen() -> BoxedGen<BigUint> {
    one_of(vec![
        biguint_gen(),
        pow2_gen(),
        (0u32..40, 0u32..25, 0u32..20)
            .prop_map(|(i, j, k)| {
                &(&BigUint::from(3u32).pow(i) * &BigUint::from(5u32).pow(j))
                    * &BigUint::from(7u32).pow(k)
            })
            .boxed(),
        wide_gen(32..=36),
        (wide_gen(32..=36), 0u64..64)
            .prop_map(|(a, k)| &a << k)
            .boxed(),
    ])
    .boxed()
}

fn rational_gen() -> BoxedGen<Rational> {
    let general = (bigint_gen(), biguint_gen()).prop_map(|(n, d)| {
        let d = if d.is_zero() { BigUint::one() } else { d };
        Rational::new(n, d)
    });
    // Probability-shaped values with power-of-two denominators, and long
    // numerators over mixed denominators, as lifted inference builds them.
    let pow2_den = (any::<u64>(), 0u64..1100, any::<bool>()).prop_map(|(n, k, neg)| {
        let d = &BigUint::one() << k;
        let n = BigInt::from(&BigUint::from(n) % &d);
        Rational::new(if neg { -n } else { n }, d)
    });
    let wide = (wide_gen(33..=35), gcd_operand_gen(), any::<bool>()).prop_map(|(n, d, neg)| {
        let d = if d.is_zero() { BigUint::one() } else { d };
        let n = BigInt::from(n);
        Rational::new(if neg { -n } else { n }, d)
    });
    one_of(vec![general.boxed(), pow2_den.boxed(), wide.boxed()]).boxed()
}

/// The textbook Euclidean algorithm: the reference for `BigUint::gcd`.
fn euclid(a: &BigUint, b: &BigUint) -> BigUint {
    let (mut a, mut b) = (a.clone(), b.clone());
    while !b.is_zero() {
        let r = &a % &b;
        a = std::mem::replace(&mut b, r);
    }
    a
}

#[test]
fn add_matches_u128() {
    check(
        "add_matches_u128",
        &cfg(),
        &(any::<u64>(), any::<u64>()),
        |&(a, b)| {
            let sum = &BigUint::from(a) + &BigUint::from(b);
            prop_assert_eq!(sum.to_u128(), Some(a as u128 + b as u128));
            Ok(())
        },
    );
}

#[test]
fn mul_matches_u128() {
    check(
        "mul_matches_u128",
        &cfg(),
        &(any::<u64>(), any::<u64>()),
        |&(a, b)| {
            let prod = &BigUint::from(a) * &BigUint::from(b);
            prop_assert_eq!(prod.to_u128(), Some(a as u128 * b as u128));
            Ok(())
        },
    );
}

#[test]
fn divrem_matches_u128() {
    check(
        "divrem_matches_u128",
        &cfg(),
        &(any::<u128>(), 1u128..),
        |&(a, b)| {
            let (q, r) = BigUint::from(a).divrem(&BigUint::from(b));
            prop_assert_eq!(q.to_u128(), Some(a / b));
            prop_assert_eq!(r.to_u128(), Some(a % b));
            Ok(())
        },
    );
}

#[test]
fn mul_single_limb_fast_path_matches_general() {
    // `a * m` with a one-limb `m` takes the single-carry-pass fast path;
    // `a * (m << 32) >> 32` forces the two-limb schoolbook loop for the
    // same product. The two must agree limb-for-limb.
    check(
        "mul_fast_path",
        &cfg(),
        &(biguint_gen(), any::<u32>()),
        |(a, m)| {
            let fast = a * &BigUint::from(*m);
            let general = &(a * &(&BigUint::from(*m) << 32)) >> 32;
            prop_assert_eq!(fast, general);
            Ok(())
        },
    );
}

#[test]
fn divrem_u64_fast_path_matches_knuth() {
    // Two-limb ÷ two-limb hits the hardware-u64 fast path; shifting both
    // operands left 32 bits forces the Knuth Algorithm D path with the
    // same quotient and a shifted remainder.
    let gens = (any::<u64>(), (u32::MAX as u64 + 1)..);
    check("divrem_u64_fast_path", &cfg(), &gens, |&(a, b)| {
        let (q, r) = BigUint::from(a).divrem(&BigUint::from(b));
        let (qk, rk) = (&BigUint::from(a) << 32).divrem(&(&BigUint::from(b) << 32));
        prop_assert_eq!(&q, &qk);
        prop_assert_eq!(&r << 32, rk);
        prop_assert_eq!(q.to_u64(), Some(a / b));
        prop_assert_eq!(r.to_u64(), Some(a % b));
        Ok(())
    });
}

#[test]
fn add_commutative_associative() {
    let gens = (biguint_gen(), biguint_gen(), biguint_gen());
    check("add_commutative_associative", &cfg(), &gens, |(a, b, c)| {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(&(a + b) + c, a + &(b + c));
        Ok(())
    });
}

#[test]
fn mul_distributes_over_add() {
    let gens = (biguint_gen(), biguint_gen(), biguint_gen());
    check("mul_distributes_over_add", &cfg(), &gens, |(a, b, c)| {
        prop_assert_eq!(a * &(b + c), &(a * b) + &(a * c));
        Ok(())
    });
}

#[test]
fn divrem_reconstructs() {
    check(
        "divrem_reconstructs",
        &cfg(),
        &(biguint_gen(), biguint_gen()),
        |(a, b)| {
            prop_assume!(!b.is_zero());
            let (q, r) = a.divrem(b);
            prop_assert!(r < *b);
            prop_assert_eq!(&(&q * b) + &r, *a);
            Ok(())
        },
    );
}

#[test]
fn sub_inverts_add() {
    check(
        "sub_inverts_add",
        &cfg(),
        &(biguint_gen(), biguint_gen()),
        |(a, b)| {
            prop_assert_eq!(&(a + b) - b, *a);
            Ok(())
        },
    );
}

#[test]
fn shifts_are_pow2_muldiv() {
    check(
        "shifts_are_pow2_muldiv",
        &cfg(),
        &(biguint_gen(), 0u64..200),
        |(a, s)| {
            let s = *s;
            let two_s = BigUint::from(2u32).pow(s as u32);
            prop_assert_eq!(a << s, a * &two_s);
            prop_assert_eq!(a >> s, a / &two_s);
            Ok(())
        },
    );
}

#[test]
fn gcd_divides_both_and_is_maximal() {
    check(
        "gcd_divides",
        &cfg(),
        &(biguint_gen(), biguint_gen()),
        |(a, b)| {
            prop_assume!(!a.is_zero() && !b.is_zero());
            let g = a.gcd(b);
            prop_assert!((a % &g).is_zero());
            prop_assert!((b % &g).is_zero());
            // Co-factors must be coprime.
            let ca = a / &g;
            let cb = b / &g;
            prop_assert!(ca.gcd(&cb).is_one());
            Ok(())
        },
    );
}

#[test]
fn gcd_matches_plain_euclid() {
    // A shared factor makes the gcd nontrivial; operand pairs cover 1,
    // powers of two, equal operands, limb-length gaps of two or more (the
    // `%` steps), and 1000+-bit values (the subtract-and-shift rounds).
    let gens = (
        gcd_operand_gen(),
        gcd_operand_gen(),
        gcd_operand_gen(),
        0u8..4,
    );
    check(
        "gcd_matches_plain_euclid",
        &cfg(),
        &gens,
        |(a, b, g, mode)| {
            let (a, b) = match mode {
                0 => (a.clone(), b.clone()),
                1 => (a * g, b * g),
                2 => (a * g, a * g),
                _ => (a.clone(), BigUint::one()),
            };
            prop_assert_eq!(a.gcd(&b), euclid(&a, &b));
            prop_assert_eq!(b.gcd(&a), euclid(&a, &b));
            Ok(())
        },
    );
}

#[test]
fn gcd_edge_cases_match_plain_euclid() {
    let p = |k: u64| &BigUint::one() << k;
    let wide = &(&BigUint::from(3u32).pow(700) * &BigUint::from(7u32).pow(13)) << 5;
    let cases = [
        (BigUint::zero(), BigUint::zero()),
        (BigUint::one(), p(1100)),
        (p(1100), p(700)),
        (p(64), BigUint::from(u64::MAX)),
        (wide.clone(), wide.clone()),
        (wide.clone(), p(3)),
        (wide.clone(), BigUint::from(21u32)),
        (&wide + &BigUint::one(), wide.clone()),
        (wide.clone(), &BigUint::from(3u32).pow(300) << 40),
    ];
    for (a, b) in &cases {
        assert_eq!(a.gcd(b), euclid(a, b), "gcd({a}, {b})");
        assert_eq!(b.gcd(a), euclid(a, b), "gcd({b}, {a})");
    }
}

#[test]
fn rational_mul_matches_full_normalization() {
    let gens = (rational_gen(), rational_gen());
    check(
        "rational_mul_matches_full_normalization",
        &cfg(),
        &gens,
        |(x, y)| {
            let full = Rational::new(
                x.numerator() * y.numerator(),
                x.denominator() * y.denominator(),
            );
            let product = x * y;
            prop_assert_eq!(product.numerator(), full.numerator());
            prop_assert_eq!(product.denominator(), full.denominator());
            Ok(())
        },
    );
}

#[test]
fn rational_complement_matches_one_minus() {
    check(
        "rational_complement_matches_one_minus",
        &cfg(),
        &rational_gen(),
        |x| {
            let reference = &Rational::one() - x;
            let complement = x.complement();
            prop_assert_eq!(complement.numerator(), reference.numerator());
            prop_assert_eq!(complement.denominator(), reference.denominator());
            Ok(())
        },
    );
}

#[test]
fn rational_recip_matches_full_normalization() {
    check(
        "rational_recip_matches_full_normalization",
        &cfg(),
        &rational_gen(),
        |x| {
            prop_assume!(!x.is_zero());
            let den = BigInt::from(x.denominator().clone());
            let num = if x.numerator().is_negative() {
                -den
            } else {
                den
            };
            let full = Rational::new(num, x.numerator().magnitude().clone());
            prop_assert_eq!(x.recip(), full);
            Ok(())
        },
    );
}

#[test]
fn decimal_roundtrips() {
    check("decimal_roundtrips", &cfg(), &biguint_gen(), |a| {
        let s = a.to_string();
        prop_assert_eq!(BigUint::from_decimal(&s).unwrap(), *a);
        Ok(())
    });
}

#[test]
fn display_matches_chunked_division() {
    // Reference: peel base-10^9 digits off with `divrem`, one new quotient
    // per chunk, then zero-pad every chunk below the top one.
    fn reference(a: &BigUint) -> String {
        let chunk = BigUint::from(1_000_000_000u32);
        let mut chunks = Vec::new();
        let mut cur = a.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem(&chunk);
            chunks.push(r.to_u64().unwrap());
            cur = q;
        }
        let mut s = chunks.pop().map_or("0".to_owned(), |top| top.to_string());
        for c in chunks.iter().rev() {
            s.push_str(&format!("{c:09}"));
        }
        s
    }
    check(
        "display_matches_chunked_division",
        &cfg(),
        &gcd_operand_gen(),
        |a| {
            prop_assert_eq!(a.to_string(), reference(a));
            prop_assert_eq!(format!("{a:>1200}"), format!("{:>1200}", reference(a)));
            Ok(())
        },
    );
}

#[test]
fn bits_bounds_value() {
    check("bits_bounds_value", &cfg(), &biguint_gen(), |a| {
        prop_assume!(!a.is_zero());
        let b = a.bits();
        prop_assert!(*a >= BigUint::from(2u32).pow((b - 1) as u32));
        prop_assert!(*a < BigUint::from(2u32).pow(b as u32));
        Ok(())
    });
}

#[test]
fn bigint_matches_i128() {
    check(
        "bigint_matches_i128",
        &cfg(),
        &(any::<i64>(), any::<i64>()),
        |&(a, b)| {
            let (x, y) = (BigInt::from(a), BigInt::from(b));
            prop_assert_eq!((&x + &y).to_string(), (a as i128 + b as i128).to_string());
            prop_assert_eq!((&x - &y).to_string(), (a as i128 - b as i128).to_string());
            prop_assert_eq!((&x * &y).to_string(), (a as i128 * b as i128).to_string());
            if b != 0 {
                prop_assert_eq!((&x / &y).to_string(), (a as i128 / b as i128).to_string());
                prop_assert_eq!((&x % &y).to_string(), (a as i128 % b as i128).to_string());
            }
            Ok(())
        },
    );
}

#[test]
fn bigint_add_negate_is_zero() {
    check("bigint_add_negate_is_zero", &cfg(), &bigint_gen(), |a| {
        prop_assert!((a + &(-a)).is_zero());
        Ok(())
    });
}

#[test]
fn rational_field_laws() {
    let gens = (rational_gen(), rational_gen(), rational_gen());
    check("rational_field_laws", &cfg(), &gens, |(a, b, c)| {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(&(a + b) + c, a + &(b + c));
        prop_assert_eq!(a * &(b + c), &(a * b) + &(a * c));
        prop_assert_eq!(&(a - b) + b, a.clone());
        if !b.is_zero() {
            prop_assert_eq!(&(a / b) * b, *a);
        }
        Ok(())
    });
}

#[test]
fn rational_normalized_invariants() {
    check(
        "rational_normalized_invariants",
        &cfg(),
        &rational_gen(),
        |a| {
            prop_assert!(!a.denominator().is_zero());
            if a.is_zero() {
                prop_assert!(a.denominator().is_one());
            } else {
                prop_assert!(a.numerator().magnitude().gcd(a.denominator()).is_one());
            }
            Ok(())
        },
    );
}

#[test]
fn rational_display_roundtrips() {
    check(
        "rational_display_roundtrips",
        &cfg(),
        &rational_gen(),
        |a| {
            let s = a.to_string();
            prop_assert_eq!(s.parse::<Rational>().unwrap(), *a);
            Ok(())
        },
    );
}

#[test]
fn to_f64_matches_u128_cast() {
    // Differential against the primitive cast (which Rust guarantees is
    // correctly rounded, nearest-even). Biased to values just past the
    // 64-bit window, where the old truncating conversion dropped low bits.
    let gens = (any::<u64>(), any::<u64>(), 0u64..65);
    check("to_f64_matches_u128_cast", &cfg(), &gens, |&(a, b, s)| {
        let v = ((a as u128) << s) + b as u128;
        prop_assert_eq!(BigUint::from(v).to_f64(), v as f64);
        Ok(())
    });
}

#[test]
fn to_f64_commutes_with_pow2_scaling() {
    // (x << k) is exactly x·2^k, and rounding commutes with exact
    // power-of-two scaling — so the conversion of the shifted value must
    // equal the scaled conversion, arbitrarily far past 128 bits.
    let gens = (1u64.., 0u64..700);
    check(
        "to_f64_commutes_with_pow2_scaling",
        &cfg(),
        &gens,
        |&(a, k)| {
            let v = &BigUint::from(a) << k;
            prop_assert_eq!(v.to_f64(), (a as f64) * 2f64.powi(k as i32));
            Ok(())
        },
    );
}

#[test]
fn to_f64_rounds_to_nearest_even_at_the_64_bit_boundary() {
    // 2^64 + 2^11 + 1: the bit dropped by the 64-bit window must break the
    // mantissa tie upward; the old truncating conversion instead landed on
    // the tie and rounded to even, giving 2^64 exactly.
    let v = (1u128 << 64) + (1 << 11) + 1;
    assert_eq!(v as f64, 2f64.powi(64) + 2f64.powi(12));
    assert_eq!(BigUint::from(v).to_f64(), v as f64);
}

#[test]
fn complement_involution() {
    check(
        "complement_involution",
        &cfg(),
        &(0u64..1000, 1u64..1000),
        |&(n, d)| {
            prop_assume!(n <= d);
            let p = Rational::from_ratio(n as i64, d);
            prop_assert!(p.is_probability());
            prop_assert!(p.complement().is_probability());
            prop_assert_eq!(p.complement().complement(), p);
            Ok(())
        },
    );
}
