//! Property tests: the decomposition-based counting DP must agree with
//! naive enumeration on random instances, across query shapes.

use pqe_arith::Rational;
use pqe_db::{Database, Schema};
use pqe_engine::{count_homomorphisms, enumerate_witnesses, eval_boolean, weighted_hom_count};
use pqe_query::shapes;
use pqe_testkit::prelude::*;

fn cfg() -> Config {
    Config::cases(128).with_corpus("tests/corpus/proptests.corpus")
}

/// Builds a layered database for a path query of length `len` from an edge
/// bitmask (2×2 layers).
fn db_from_bits(len: usize, bits: u64) -> Database {
    let rels: Vec<String> = (1..=len).map(|i| format!("R{i}")).collect();
    let schema = Schema::new(rels.iter().map(|r| (r.as_str(), 2)));
    let mut db = Database::new(schema);
    let mut k = 0;
    for (i, rel) in rels.iter().enumerate() {
        for a in 0..2 {
            for b in 0..2 {
                if (bits >> (k % 64)) & 1 == 1 {
                    db.add_fact(rel, &[&format!("n{i}_{a}"), &format!("n{}_{b}", i + 1)])
                        .unwrap();
                }
                k += 1;
            }
        }
    }
    db
}

#[test]
fn dp_count_equals_enumeration() {
    check(
        "dp_count_equals_enumeration",
        &cfg(),
        &(1usize..5, any::<u64>()),
        |&(len, bits)| {
            let db = db_from_bits(len, bits);
            let q = shapes::path_query(len);
            let fast = count_homomorphisms(&q, &db);
            let slow = enumerate_witnesses(&q, &db, None).len() as u64;
            prop_assert_eq!(fast.to_u64(), Some(slow));
            Ok(())
        },
    );
}

#[test]
fn boolean_eval_agrees_with_count() {
    check(
        "boolean_eval_agrees_with_count",
        &cfg(),
        &(1usize..5, any::<u64>()),
        |&(len, bits)| {
            let db = db_from_bits(len, bits);
            let q = shapes::path_query(len);
            prop_assert_eq!(
                eval_boolean(&q, &db),
                !count_homomorphisms(&q, &db).is_zero()
            );
            Ok(())
        },
    );
}

#[test]
fn unit_weights_reduce_to_counting() {
    check(
        "unit_weights_reduce_to_counting",
        &cfg(),
        &(1usize..4, any::<u64>()),
        |&(len, bits)| {
            let db = db_from_bits(len, bits);
            let q = shapes::path_query(len);
            let weighted = weighted_hom_count::<Rational>(&q, &db, &|_, _| Rational::one());
            let count = count_homomorphisms(&q, &db);
            prop_assert_eq!(weighted, Rational::from(count));
            Ok(())
        },
    );
}

#[test]
fn weighted_count_is_monotone_in_weights() {
    check(
        "weighted_count_is_monotone_in_weights",
        &cfg(),
        &(1usize..4, any::<u64>()),
        |&(len, bits)| {
            let db = db_from_bits(len, bits);
            let q = shapes::path_query(len);
            let half = weighted_hom_count::<Rational>(&q, &db, &|_, _| Rational::from_ratio(1, 2));
            let third = weighted_hom_count::<Rational>(&q, &db, &|_, _| Rational::from_ratio(1, 3));
            prop_assert!(half >= third);
            Ok(())
        },
    );
}

#[test]
fn subinstance_counts_are_monotone() {
    check(
        "subinstance_counts_are_monotone",
        &cfg(),
        &(1usize..4, any::<u64>()),
        |&(len, bits)| {
            // Removing facts can only lose witnesses.
            let db = db_from_bits(len, bits);
            let q = shapes::path_query(len);
            let full = count_homomorphisms(&q, &db);
            if !db.is_empty() {
                let mut mask = vec![true; db.len()];
                mask[0] = false;
                let sub = db.subinstance(&mask);
                prop_assert!(count_homomorphisms(&q, &sub) <= full);
            }
            Ok(())
        },
    );
}
