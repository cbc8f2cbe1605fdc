//! Baselines the FPRAS is validated against and compared with.
//!
//! | Baseline | Guarantee | Combined complexity |
//! |----------|-----------|---------------------|
//! | [`brute_force_pqe`] / [`brute_force_ur`] | exact | `O(2^{ǀDǀ})` — oracle for tiny instances |
//! | [`lifted_pqe`] | exact | polynomial, **safe (hierarchical) queries only** |
//! | [`lineage`] + [`dnf_probability`] | exact | lineage size is `Θ(ǀDǀ^{ǀQǀ})` — the intensional approach the paper's introduction criticizes |
//! | [`karp_luby_pqe`] | none at its fixed sample budget: relative variance `E[#clauses true ǀ ≥ 1 true]` | per-sample polynomial, but the samples a `(1±ε)` answer needs grow with that variance — not an FPRAS in combined complexity |
//! | [`naive_monte_carlo_pqe`] | additive `±ε` only | polynomial, useless for small probabilities |

mod brute;
mod klm;
mod lifted;
pub mod lineage;
mod montecarlo;
mod wmc;

pub use brute::{brute_force_pqe, brute_force_ur};
pub use klm::{karp_luby_pqe, KarpLubyReport};
pub use lifted::{lifted_pqe, LiftedError};
pub use lineage::Lineage;
pub use montecarlo::naive_monte_carlo_pqe;
pub use wmc::dnf_probability;
