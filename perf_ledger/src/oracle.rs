//! Exact answers the measured outputs are checked against, computed before
//! any timing starts.
//!
//! These are the ledger's own dynamic programs, independent of the code
//! under measurement (the path oracle is cross-checked against the
//! library's lineage + `dnf_probability` route on a few instances).

use pqe_arith::Rational;
use pqe_db::ProbDatabase;
use std::collections::{BTreeMap, HashMap};

/// `Pr(R1(x1,x2), …, Rk(xk,xk+1))` on `h`, by a dynamic program over the
/// set of constants reachable after each atom. Given the reachable set
/// `S` before atom `i`, whether `b` is reachable after it depends only on
/// the facts `Ri(a, b)` with `a ∈ S` — disjoint fact sets for distinct `b`
/// — so the next set is a product distribution. Exponential only in the
/// number of distinct constants per position (small on layered data).
pub fn path_probability(h: &ProbDatabase, relations: &[&str]) -> Rational {
    let db = h.database();
    let edges_of = |rel: &str| -> Vec<(String, String, Rational)> {
        let Some(r) = db.schema().relation(rel) else {
            return Vec::new();
        };
        db.facts_of(r)
            .iter()
            .map(|&f| {
                let fact = db.fact(f);
                let name = |i: usize| db.consts().name(fact.args[i]).to_owned();
                (name(0), name(1), h.prob(f).clone())
            })
            .collect()
    };
    // Every first-position constant of the first atom is a free start.
    let first = edges_of(relations[0]);
    let mut start: Vec<String> = first.iter().map(|(a, _, _)| a.clone()).collect();
    start.sort();
    start.dedup();
    let mut dist: HashMap<Vec<String>, Rational> = HashMap::from([(start, Rational::one())]);
    for rel in relations {
        let edges = edges_of(rel);
        let mut targets: Vec<&String> = edges.iter().map(|(_, b, _)| b).collect();
        targets.sort();
        targets.dedup();
        let mut next: HashMap<Vec<String>, Rational> = HashMap::new();
        for (set, p_set) in &dist {
            // Probability each target is reached from `set`.
            let reach: Vec<Rational> = targets
                .iter()
                .map(|&b| {
                    let miss = edges
                        .iter()
                        .filter(|(a, bb, _)| bb == b && set.binary_search(a).is_ok())
                        .fold(Rational::one(), |acc, (_, _, p)| &acc * &p.complement());
                    miss.complement()
                })
                .collect();
            let mut partial: Vec<(Vec<String>, Rational)> = vec![(Vec::new(), p_set.clone())];
            for (b, p) in targets.iter().zip(&reach) {
                let mut grown = Vec::with_capacity(partial.len() * 2);
                for (s, q) in partial {
                    if !p.is_zero() {
                        let mut with = s.clone();
                        with.push((*b).clone());
                        grown.push((with, &q * p));
                    }
                    if !p.is_one() {
                        grown.push((s, &q * &p.complement()));
                    }
                }
                partial = grown;
            }
            for (s, q) in partial {
                let e = next.entry(s).or_insert_with(Rational::zero);
                *e = &*e + &q;
            }
        }
        dist = next;
    }
    dist.iter()
        .filter(|(s, _)| !s.is_empty())
        .fold(Rational::zero(), |acc, (_, p)| &acc + p)
}

/// A `rows × cols` road grid: `right[r][c]` is the probability of the
/// edge `(r,c) → (r,c+1)`, `down[r][c]` of `(r,c) → (r+1,c)`.
pub struct Grid {
    pub rows: usize,
    pub cols: usize,
    pub right: Vec<Vec<Rational>>,
    pub down: Vec<Vec<Rational>>,
}

impl Grid {
    /// The graph text (`pqe_graph` format), vertices named `v{r}_{c}`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c + 1 < self.cols {
                    out += &format!("{} v{r}_{c} -road-> v{r}_{}\n", self.right[r][c], c + 1);
                }
                if r + 1 < self.rows {
                    out += &format!("{} v{r}_{c} -road-> v{}_{c}\n", self.down[r][c], r + 1);
                }
            }
        }
        out
    }

    pub fn edges(&self) -> usize {
        self.rows * (self.cols - 1) + (self.rows - 1) * self.cols
    }

    /// The same grid mirrored along its diagonal: right edges become down
    /// edges and the corners stay the corners.
    fn transposed(&self) -> Grid {
        let column = |m: &[Vec<Rational>], c: usize| m.iter().map(|row| row[c].clone()).collect();
        Grid {
            rows: self.cols,
            cols: self.rows,
            right: (0..self.cols).map(|c| column(&self.down, c)).collect(),
            down: (0..self.cols - 1).map(|c| column(&self.right, c)).collect(),
        }
    }

    /// Exact corner-to-corner reachability, by a transfer-matrix dynamic
    /// program over the reachability bits of the last vertex seen in each
    /// column (vertices in row-major order; edges point right and down, so
    /// a vertex depends only on its left and upper neighbours). The
    /// frontier runs along the shorter side.
    pub fn corner_probability(&self) -> Rational {
        if self.cols > self.rows {
            return self.transposed().corner_probability();
        }
        assert!(
            self.cols <= 16,
            "frontier of {} columns is too wide",
            self.cols
        );
        let mut dist: BTreeMap<u32, Rational> = BTreeMap::from([(0, Rational::one())]);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let mut next: BTreeMap<u32, Rational> = BTreeMap::new();
                for (&bits, p) in &dist {
                    let p_on = if r == 0 && c == 0 {
                        Rational::one()
                    } else {
                        let mut miss = Rational::one();
                        if c > 0 && bits & (1 << (c - 1)) != 0 {
                            miss = &miss * &self.right[r][c - 1].complement();
                        }
                        if r > 0 && bits & (1 << c) != 0 {
                            miss = &miss * &self.down[r - 1][c].complement();
                        }
                        miss.complement()
                    };
                    for (set, q) in [(true, p_on.clone()), (false, p_on.complement())] {
                        if q.is_zero() {
                            continue;
                        }
                        let b = if set {
                            bits | (1 << c)
                        } else {
                            bits & !(1 << c)
                        };
                        let e = next.entry(b).or_insert_with(Rational::zero);
                        *e = &*e + &(p * &q);
                    }
                }
                dist = next;
            }
        }
        let last = 1 << (self.cols - 1);
        dist.iter()
            .filter(|(&b, _)| b & last != 0)
            .fold(Rational::zero(), |acc, (_, p)| &acc + p)
    }
}

/// A chain of `k` diamonds `d_j → {a_j, b_j} → d_{j+1}`, every edge alive
/// with probability 1/2, as graph text.
pub fn diamond_chain_text(k: usize) -> String {
    (0..k)
        .map(|j| {
            let n = j + 1;
            format!(
                "1/2 d{j} -r-> a{j}\n1/2 d{j} -r-> b{j}\n1/2 a{j} -r-> d{n}\n1/2 b{j} -r-> d{n}\n"
            )
        })
        .collect()
}

/// `Pr(d0 ⇝ dk)` on a diamond chain: each diamond passes with
/// `1 − (1 − 1/4)² = 7/16`, independently.
pub fn diamond_chain_probability(k: usize) -> Rational {
    Rational::from_ratio(7, 16).pow(k as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_core::baselines::brute_force_pqe;

    #[test]
    fn path_dp_matches_brute_force() {
        for seed in 0..4 {
            let w = pqe_bench::path_workload(3, 2, 0.7, seed);
            assert!(w.h.len() <= 16);
            assert_eq!(
                path_probability(&w.h, &["R1", "R2", "R3"]),
                brute_force_pqe(&w.query, &w.h),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn grid_dp_matches_world_enumeration() {
        let half = Rational::from_ratio(1, 2);
        let third = Rational::from_ratio(1, 3);
        let grid = Grid {
            rows: 2,
            cols: 3,
            right: vec![
                vec![half.clone(), third.clone()],
                vec![third.clone(), half.clone()],
            ],
            down: vec![vec![half.clone(), third, half]],
        };
        let g = pqe_graph::load_str(&grid.to_text()).unwrap();
        let rpq = pqe_graph::parse("v0_0 -> road* -> v1_2").unwrap();
        assert_eq!(grid.edges(), g.num_edges());
        let exact = pqe_graph::enumerate_probability(&g, &rpq).unwrap();
        assert_eq!(grid.corner_probability(), exact);
        // The mirrored grid is the same reachability problem.
        let t = grid.transposed();
        assert_eq!((t.rows, t.cols, t.edges()), (3, 2, grid.edges()));
        let g = pqe_graph::load_str(&t.to_text()).unwrap();
        let rpq = pqe_graph::parse("v0_0 -> road* -> v2_1").unwrap();
        assert_eq!(pqe_graph::enumerate_probability(&g, &rpq).unwrap(), exact);
        assert_eq!(t.corner_probability(), exact);
    }

    #[test]
    fn diamond_closed_form_matches_world_enumeration() {
        let g = pqe_graph::load_str(&diamond_chain_text(3)).unwrap();
        let rpq = pqe_graph::parse("d0 -> r* -> d3").unwrap();
        assert_eq!(
            diamond_chain_probability(3),
            pqe_graph::enumerate_probability(&g, &rpq).unwrap()
        );
    }
}
