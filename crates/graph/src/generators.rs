//! Deterministic probabilistic-graph workload generators.
//!
//! Both shapes are DAGs by construction, so generated instances always
//! take the compiled FPRAS route; seeded via `pqe-rand`, so a fixed seed
//! reproduces the instance bit-for-bit (the bench and the oracle tests
//! rely on that).

use crate::model::ProbGraph;
use pqe_arith::Rational;
use pqe_rand::Rng;

/// A random probability `w/d` with `1 ≤ w ≤ d` and `d ∈ 2..=max_den`
/// (strictly positive, mirroring `pqe_db::generators::with_random_probs`).
fn random_prob<R: Rng + ?Sized>(max_den: u64, rng: &mut R) -> Rational {
    assert!(max_den >= 2);
    let d = rng.random_range(2..=max_den);
    let w = rng.random_range(1..=d);
    Rational::from_ratio(w as i64, d)
}

/// A road-network grid: `rows × cols` intersections `v{r}_{c}`, with
/// `road` edges rightward (`v{r}_{c} → v{r}_{c+1}`) and downward
/// (`v{r}_{c} → v{r+1}_{c}`), each alive with an independent random
/// probability. Oriented right/down, hence acyclic. Corner-to-corner
/// reachability `v0_0 -> road* -> v{rows−1}_{cols−1}` is the canonical
/// query.
pub fn road_grid<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    max_den: u64,
    rng: &mut R,
) -> ProbGraph {
    let mut g = ProbGraph::new();
    let name = |r: usize, c: usize| format!("v{r}_{c}");
    for r in 0..rows {
        for c in 0..cols {
            g.add_vertex(&name(r, c));
            if c + 1 < cols {
                g.add_edge(
                    &name(r, c),
                    "road",
                    &name(r, c + 1),
                    random_prob(max_den, rng),
                );
            }
            if r + 1 < rows {
                g.add_edge(
                    &name(r, c),
                    "road",
                    &name(r + 1, c),
                    random_prob(max_den, rng),
                );
            }
        }
    }
    g
}

/// A road-network grid with every edge alive with probability `1/2` — the
/// uniform case needs no multiplier gadget (`K_e = 0` throughout), so the
/// compiled automaton counts plain length-`m` strings. The bench sweeps
/// this shape to sizes world enumeration cannot touch.
pub fn road_grid_uniform(rows: usize, cols: usize) -> ProbGraph {
    let mut g = ProbGraph::new();
    let half = Rational::from_ratio(1, 2);
    let name = |r: usize, c: usize| format!("v{r}_{c}");
    for r in 0..rows {
        for c in 0..cols {
            g.add_vertex(&name(r, c));
            if c + 1 < cols {
                g.add_edge(&name(r, c), "road", &name(r, c + 1), half.clone());
            }
            if r + 1 < rows {
                g.add_edge(&name(r, c), "road", &name(r + 1, c), half.clone());
            }
        }
    }
    g
}

/// A preferential-attachment social graph: vertices `u0 … u{n−1}` arrive
/// in order; each newcomer draws `attach` `follows` edges to earlier
/// vertices chosen proportionally to degree + 1 (duplicates collapse to
/// parallel edges — independent events). Edges point from later to
/// earlier vertices, hence acyclic.
pub fn preferential_attachment<R: Rng + ?Sized>(
    n: usize,
    attach: usize,
    max_den: u64,
    rng: &mut R,
) -> ProbGraph {
    let mut g = ProbGraph::new();
    let name = |i: usize| format!("u{i}");
    if n == 0 {
        return g;
    }
    g.add_vertex(&name(0));
    let mut degree = vec![1u64; 1]; // degree + 1 weights
    for i in 1..n {
        g.add_vertex(&name(i));
        let total: u64 = degree.iter().sum();
        for _ in 0..attach.min(i) {
            let mut pick = rng.random_range(0..total);
            let mut j = 0;
            while pick >= degree[j] {
                pick -= degree[j];
                j += 1;
            }
            g.add_edge(&name(i), "follows", &name(j), random_prob(max_den, rng));
            degree[j] += 1;
        }
        degree.push(1 + attach.min(i) as u64);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_rand::rngs::StdRng;
    use pqe_rand::SeedableRng;

    #[test]
    fn road_grid_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = road_grid(3, 4, 6, &mut rng);
        assert_eq!(g.num_vertices(), 12);
        // Right edges: 3 rows × 3, down edges: 2 × 4.
        assert_eq!(g.num_edges(), 17);
        assert!(g.is_acyclic());

        let mut rng2 = StdRng::seed_from_u64(7);
        let g2 = road_grid(3, 4, 6, &mut rng2);
        assert_eq!(crate::io::save_string(&g), crate::io::save_string(&g2));
    }

    #[test]
    fn uniform_grid_has_only_half_probabilities() {
        let g = road_grid_uniform(4, 4);
        assert_eq!(g.num_edges(), 24);
        assert!(g.edges().iter().all(|e| e.prob.to_string() == "1/2"));
    }

    #[test]
    fn preferential_attachment_is_an_acyclic_multigraph() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = preferential_attachment(20, 2, 8, &mut rng);
        assert_eq!(g.num_vertices(), 20);
        // First vertex attaches 1 edge (only one candidate), rest 2.
        assert_eq!(g.num_edges(), 1 + 18 * 2);
        assert!(g.is_acyclic());
        // Every edge points backward in arrival order.
        for e in g.edges() {
            let src: usize = g.vertex_name(e.src)[1..].parse().unwrap();
            let dst: usize = g.vertex_name(e.dst)[1..].parse().unwrap();
            assert!(src > dst, "{src} -> {dst}");
        }
    }
}
