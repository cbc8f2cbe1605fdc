//! Exact weighted model counting of a monotone DNF — the second half of
//! the intensional approach (lineage → WMC).
//!
//! Shannon expansion on the most frequent fact, with two standard
//! accelerators: independent-component decomposition (disjoint fact sets ⇒
//! `1 − ∏(1 − Pr)`), and memoization on the canonical clause set. Still
//! exponential in the worst case — `Pr(DNF)` is #P-hard — which is the
//! point: this is the baseline whose blow-up the FPRAS avoids.

use pqe_arith::Rational;
use pqe_db::{FactId, ProbDatabase};
use std::collections::{BTreeSet, HashMap};

/// Exact probability that the monotone DNF `clauses` (sets of facts that
/// must be jointly present) evaluates to true under the independent fact
/// probabilities of `h`.
pub fn dnf_probability(clauses: &[BTreeSet<FactId>], h: &ProbDatabase) -> Rational {
    let cls: Vec<BTreeSet<FactId>> = clauses.to_vec();
    let mut memo = HashMap::new();
    prob(&cls, h, &mut memo)
}

type Memo = HashMap<Vec<Vec<u32>>, Rational>;

fn canonical(clauses: &[BTreeSet<FactId>]) -> Vec<Vec<u32>> {
    let mut v: Vec<Vec<u32>> = clauses
        .iter()
        .map(|c| c.iter().map(|f| f.0).collect())
        .collect();
    v.sort();
    v.dedup();
    v
}

fn prob(clauses: &[BTreeSet<FactId>], h: &ProbDatabase, memo: &mut Memo) -> Rational {
    // An empty clause is already satisfied; no clauses means false.
    if clauses.iter().any(|c| c.is_empty()) {
        return Rational::one();
    }
    if clauses.is_empty() {
        return Rational::zero();
    }
    let key = canonical(clauses);
    if let Some(v) = memo.get(&key) {
        return v.clone();
    }

    // Absorption: drop clauses that are supersets of another clause.
    let reduced: Vec<BTreeSet<FactId>> = {
        let mut keep: Vec<BTreeSet<FactId>> = Vec::new();
        let mut sorted: Vec<&BTreeSet<FactId>> = clauses.iter().collect();
        sorted.sort_by_key(|c| c.len());
        for c in sorted {
            if !keep.iter().any(|k| k.is_subset(c)) {
                keep.push(c.clone());
            }
        }
        keep
    };

    // Component decomposition: clauses sharing no facts are independent.
    let comps = components(&reduced);
    let value = if comps.len() > 1 {
        let mut none = Rational::one();
        for comp in comps {
            none = &none * &prob(&comp, h, memo).complement();
        }
        none.complement()
    } else {
        // Shannon expansion on the most frequent fact.
        let pivot = most_frequent(&reduced);
        let p = h.prob(pivot).clone();
        // f present: remove f from clauses.
        let when_true: Vec<BTreeSet<FactId>> = reduced
            .iter()
            .map(|c| {
                let mut c2 = c.clone();
                c2.remove(&pivot);
                c2
            })
            .collect();
        // f absent: clauses containing f die.
        let when_false: Vec<BTreeSet<FactId>> = reduced
            .iter()
            .filter(|c| !c.contains(&pivot))
            .cloned()
            .collect();
        let pt = prob(&when_true, h, memo);
        let pf = prob(&when_false, h, memo);
        &(&p * &pt) + &(&p.complement() * &pf)
    };
    memo.insert(key, value.clone());
    value
}

fn most_frequent(clauses: &[BTreeSet<FactId>]) -> FactId {
    let mut counts: HashMap<FactId, usize> = HashMap::new();
    for c in clauses {
        for &f in c {
            *counts.entry(f).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(f, c)| (c, std::cmp::Reverse(f.0)))
        .expect("non-empty clauses exist")
        .0
}

fn components(clauses: &[BTreeSet<FactId>]) -> Vec<Vec<BTreeSet<FactId>>> {
    let n = clauses.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    let mut by_fact: HashMap<FactId, usize> = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        for &f in c {
            match by_fact.get(&f) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
                None => {
                    by_fact.insert(f, i);
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<BTreeSet<FactId>>> = HashMap::new();
    for (i, c) in clauses.iter().enumerate() {
        groups
            .entry(find(&mut parent, i))
            .or_default()
            .push(c.clone());
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{brute_force_pqe, Lineage};
    use pqe_db::{generators, Database, Schema};
    use pqe_query::shapes;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    fn h2() -> ProbDatabase {
        let mut db = Database::new(Schema::new([("R", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        db.add_fact("R", &["b"]).unwrap();
        ProbDatabase::with_probs(
            db,
            vec![Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)],
        )
        .unwrap()
    }

    #[test]
    fn single_clause() {
        let h = h2();
        let clauses = vec![BTreeSet::from([FactId(0), FactId(1)])];
        assert_eq!(dnf_probability(&clauses, &h).to_string(), "1/6");
    }

    #[test]
    fn disjoint_clauses_use_inclusion() {
        let h = h2();
        let clauses = vec![BTreeSet::from([FactId(0)]), BTreeSet::from([FactId(1)])];
        // 1 − (1−1/2)(1−1/3) = 2/3.
        assert_eq!(dnf_probability(&clauses, &h).to_string(), "2/3");
    }

    #[test]
    fn degenerate_cases() {
        let h = h2();
        assert!(dnf_probability(&[], &h).is_zero());
        assert!(dnf_probability(&[BTreeSet::new()], &h).is_one());
    }

    #[test]
    fn absorption_removes_redundant_clauses() {
        let h = h2();
        let clauses = vec![
            BTreeSet::from([FactId(0)]),
            BTreeSet::from([FactId(0), FactId(1)]), // absorbed
        ];
        assert_eq!(dnf_probability(&clauses, &h).to_string(), "1/2");
    }

    #[test]
    fn lineage_wmc_matches_brute_force_on_hard_query() {
        // End-to-end intensional approach on the #P-hard 3-path.
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..4 {
            let db = generators::layered_graph(3, 2, 0.7, &mut rng);
            if db.len() > 14 {
                continue;
            }
            let h = generators::with_random_probs(db, 5, &mut rng);
            let q = shapes::path_query(3);
            let lin = Lineage::build(&q, h.database(), 1_000_000);
            assert!(!lin.truncated());
            let via_wmc = dnf_probability(lin.clauses(), &h);
            assert_eq!(via_wmc, brute_force_pqe(&q, &h));
        }
    }

    #[test]
    fn lineage_wmc_matches_on_h0() {
        let mut db = Database::new(Schema::new([("R", 1), ("S", 2), ("T", 1)]));
        db.add_fact("R", &["a"]).unwrap();
        db.add_fact("R", &["b"]).unwrap();
        db.add_fact("S", &["a", "u"]).unwrap();
        db.add_fact("S", &["b", "u"]).unwrap();
        db.add_fact("T", &["u"]).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let h = generators::with_random_probs(db, 7, &mut rng);
        let q = shapes::h0_query();
        let lin = Lineage::build(&q, h.database(), 1_000_000);
        assert_eq!(dnf_probability(lin.clauses(), &h), brute_force_pqe(&q, &h));
    }
}
