//! The Table 1 landscape classifier: places a query in the paper's
//! tractability grid and says which algorithms of this workspace apply.

use pqe_hypertree::decompose;
use pqe_query::{analysis, ConjunctiveQuery};

/// Width threshold for "bounded hypertree width" in the classifier. The
/// theory is parameterized by any constant; real-world queries rarely
/// exceed 3 (Gottlob et al. 2016), and the paper adopts the same
/// observation.
pub const BOUNDED_WIDTH: usize = 3;

/// Which algorithm(s) apply to a query — the rightmost columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Safe and bounded width: exact lifted inference (FP in data
    /// complexity) *and* the combined FPRAS both apply (Table 1 row 1).
    ExactAndFpras,
    /// Unsafe but self-join-free and bounded width: exact evaluation is
    /// #P-hard, the combined FPRAS applies (Table 1 row 2 — the paper's
    /// headline contribution).
    FprasOnly,
    /// Safe but unbounded width: exact lifted inference applies; combined
    /// approximation is open (Table 1 row 3).
    ExactOnly,
    /// Outside all positive cells (self-joins, or unsafe with unbounded
    /// width): Open in combined complexity; only exponential baselines
    /// here.
    Open,
}

impl Verdict {
    /// One line of advice on which algorithm to run, as `pqe classify`
    /// and the `classify` wire op print it.
    pub fn advice(self) -> &'static str {
        match self {
            Verdict::ExactAndFpras => {
                "safe: exact lifted inference applies (and so does the FPRAS)"
            }
            Verdict::FprasOnly => "#P-hard exactly; the combined FPRAS is the guaranteed option",
            Verdict::ExactOnly => "exact lifted inference only (width unbounded)",
            Verdict::Open => "outside all positive cells of Table 1",
        }
    }
}

/// A query's position in the Table 1 landscape.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Hypertree width (of the decomposition found; ≤ the paper's htw).
    pub width: usize,
    /// Bounded-width flag (`width ≤ BOUNDED_WIDTH`).
    pub bounded_width: bool,
    /// No repeated relation symbols.
    pub self_join_free: bool,
    /// Hierarchical — equivalent to Dalvi–Suciu safety for SJF CQs.
    pub safe: bool,
    /// Member of the `3Path` class of Corollary 1.
    pub three_path: bool,
    /// The verdict (Table 1 cell).
    pub verdict: Verdict,
}

/// Classifies `q` into the paper's Table 1.
pub fn classify(q: &ConjunctiveQuery) -> Classification {
    let width = decompose(q).map(|t| t.width()).unwrap_or(usize::MAX);
    let bounded_width = width <= BOUNDED_WIDTH;
    let self_join_free = q.is_self_join_free();
    let safe = self_join_free && analysis::is_hierarchical(q);
    let three_path = analysis::in_three_path_class(q);
    let verdict = match (bounded_width, self_join_free, safe) {
        (true, true, true) => Verdict::ExactAndFpras,
        (true, true, false) => Verdict::FprasOnly,
        (false, true, true) => Verdict::ExactOnly,
        _ => Verdict::Open,
    };
    Classification {
        width,
        bounded_width,
        self_join_free,
        safe,
        three_path,
        verdict,
    }
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "width={} bounded={} sjf={} safe={} verdict={:?}",
            self.width, self.bounded_width, self.self_join_free, self.safe, self.verdict
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_query::shapes;

    #[test]
    fn row1_safe_bounded() {
        let c = classify(&shapes::star_query(4));
        assert_eq!(c.verdict, Verdict::ExactAndFpras);
        assert_eq!(c.width, 1);
        assert!(c.safe);
    }

    #[test]
    fn row2_unsafe_bounded_includes_three_path() {
        let c = classify(&shapes::path_query(3));
        assert_eq!(c.verdict, Verdict::FprasOnly);
        assert!(c.three_path);
        let c = classify(&shapes::h0_query());
        assert_eq!(c.verdict, Verdict::FprasOnly);
        let c = classify(&shapes::cycle_query(5));
        assert_eq!(c.verdict, Verdict::FprasOnly);
        assert_eq!(c.width, 2);
    }

    #[test]
    fn row4_self_joins_are_open() {
        let c = classify(&shapes::self_join_path(3));
        assert_eq!(c.verdict, Verdict::Open);
        assert!(!c.self_join_free);
    }

    #[test]
    fn large_cliques_exceed_bounded_width() {
        // K8 as a CQ: width 4 (> BOUNDED_WIDTH).
        let c = classify(&shapes::clique_query(8));
        assert!(!c.bounded_width, "clique width = {}", c.width);
        // Non-hierarchical too, so fully Open.
        assert_eq!(c.verdict, Verdict::Open);
    }

    #[test]
    fn two_path_is_safe() {
        let c = classify(&shapes::path_query(2));
        assert_eq!(c.verdict, Verdict::ExactAndFpras);
        assert!(!c.three_path);
    }
}
