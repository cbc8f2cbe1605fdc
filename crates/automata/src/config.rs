//! Tuning knobs for the CountNFA / CountNFTA approximation schemes.

/// The least `ε` the `pqe` CLI and the serve wire protocol accept.
///
/// A union's sample cap is `⌈scale · m / ε⌉`, so the work grows as `1/ε`,
/// and below about `1e-300` the cap saturates `usize`: such a request
/// would run until killed and, served, pin a worker shard for good. On a
/// five-fact path instance ε = 1e-2, 1e-3 and 1e-4 take about 15 ms,
/// 140 ms and 1.4 s; nothing in the workspace asks for less than 0.05.
pub const MIN_EPSILON: f64 = 1e-3;

/// Configuration of the FPRAS runs.
///
/// The theoretical algorithms of Arenas et al. fix sample counts from
/// `(ε, δ)` with large constants; this implementation exposes them as
/// knobs. The defaults target the empirical-validation regime of the
/// experiment suite (observed error well under `ε` on the oracle-checkable
/// instances); `guarantee_grade` selects conservative counts closer to the
/// analysis.
#[derive(Debug, Clone)]
pub struct FprasConfig {
    /// Target relative error `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// RNG seed; every run is deterministic given the seed.
    pub seed: u64,
    /// Minimum number of union-estimator samples per ambiguous union.
    pub union_sample_floor: usize,
    /// Scale factor: an `m`-part ambiguous union receives
    /// `max(floor, ⌈scale · m / ε⌉)` samples.
    pub union_sample_scale: f64,
    /// Candidates per SIR draw in the tree sampler: uniform-ish trees are
    /// produced by drawing this many exact run-samples and resampling one
    /// with weight `1/M(t)` (run multiplicity). Larger = closer to uniform;
    /// cost is strictly polynomial in tree depth, unlike nested rejection.
    pub sir_candidates: usize,
    /// Number of independent repetitions; the median is returned
    /// (amplifies the constant success probability to "w.h.p.").
    pub repetitions: usize,
    /// Worker threads for the repetitions; a worker out of repetitions
    /// helps with the ambiguous-union sample loops of the repetitions
    /// still running (so with one repetition, one thread does all the
    /// work). `0` means auto: the `PQE_THREADS`
    /// environment variable if set, else the machine's available
    /// parallelism. Randomness is keyed per sample index (see
    /// `union_mc`), so for a fixed seed the estimates are **bit-identical
    /// regardless of this value** — it only changes wall-clock time.
    pub threads: usize,
    /// Ablation switch: when `true`, the NFTA counter estimates each
    /// state's full transition union with one Karp–Luby pass instead of
    /// splitting by root symbol first (symbol groups are disjoint and add
    /// exactly, so grouping removes sampling work — this flag measures how
    /// much; see the `ablation` bench).
    pub naive_unions: bool,
}

impl Default for FprasConfig {
    fn default() -> Self {
        FprasConfig {
            epsilon: 0.2,
            seed: 0x5eed_cafe,
            union_sample_floor: 24,
            union_sample_scale: 8.0,
            sir_candidates: 12,
            repetitions: 5,
            threads: 0,
            naive_unions: false,
        }
    }
}

impl FprasConfig {
    /// A config with the given `ε`, defaults elsewhere.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "ε must lie in (0,1)");
        FprasConfig {
            epsilon,
            ..Default::default()
        }
    }

    /// Overrides the seed, keeping everything else.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with naive (ungrouped) union estimation — ablation.
    pub fn with_naive_unions(mut self) -> Self {
        self.naive_unions = true;
        self
    }

    /// Overrides the worker thread count (`0` = auto). Does not change any
    /// estimate — only how the sample loops are scheduled.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The resolved worker count: `threads` if nonzero, else `PQE_THREADS`,
    /// else available parallelism (always ≥ 1).
    pub fn effective_threads(&self) -> usize {
        pqe_par::resolve_threads(self.threads)
    }

    /// Conservative sample counts scaling with `1/ε²`, closer to the
    /// worst-case analysis (slower; for guarantee-critical runs).
    pub fn guarantee_grade(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "ε must lie in (0,1)");
        FprasConfig {
            epsilon,
            union_sample_floor: 64,
            union_sample_scale: 16.0 / epsilon, // net effect: scale·m/ε²
            sir_candidates: 32,
            repetitions: 9,
            ..Default::default()
        }
    }

    /// Maximum union-estimator samples for an `m`-part ambiguous union
    /// (the adaptive estimator may stop earlier once its standard error
    /// falls below [`FprasConfig::local_epsilon`]).
    pub fn union_samples(&self, m: usize) -> usize {
        let scaled = (self.union_sample_scale * m as f64 / self.epsilon).ceil() as usize;
        scaled.max(self.union_sample_floor)
    }

    /// Per-union relative-error target for the adaptive estimator. The
    /// per-node errors compound along the self-reduction, so each union is
    /// held to a fraction of the global ε.
    pub fn local_epsilon(&self) -> f64 {
        self.epsilon / 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = FprasConfig::default();
        assert!(c.epsilon > 0.0 && c.epsilon < 1.0);
        assert!(c.union_samples(1) >= c.union_sample_floor);
        assert!(c.union_samples(100) > c.union_samples(2));
    }

    #[test]
    fn samples_scale_inversely_with_epsilon() {
        let tight = FprasConfig::with_epsilon(0.05);
        let loose = FprasConfig::with_epsilon(0.5);
        assert!(tight.union_samples(10) > loose.union_samples(10));
    }

    #[test]
    #[should_panic(expected = "(0,1)")]
    fn rejects_bad_epsilon() {
        FprasConfig::with_epsilon(1.5);
    }

    #[test]
    fn thread_override_resolves() {
        let c = FprasConfig::default().with_threads(3);
        assert_eq!(c.effective_threads(), 3);
        assert!(FprasConfig::default().effective_threads() >= 1);
    }

    #[test]
    fn guarantee_grade_is_heavier() {
        let g = FprasConfig::guarantee_grade(0.2);
        let d = FprasConfig::with_epsilon(0.2);
        assert!(g.union_samples(10) > d.union_samples(10));
        assert!(g.repetitions > d.repetitions);
    }
}
