//! E9 — the §4.1 / §5.1 translation costs (Remarks 1 and 2):
//! augmented-NFTA → ordinary NFTA is linear in the annotation size;
//! the multiplier gadget adds `Θ(log n)` states per transition.

use pqe_arith::BigUint;
use pqe_automata::{
    required_bits, weigh_nfta, Alphabet, AugSymbol, AugTransition, AugmentedNfta, Nfta,
    SymbolWeights, Transition,
};
use pqe_testkit::bench::{black_box, Runner};

fn augmented_chain(symbols: usize) -> AugmentedNfta {
    let mut alpha = Alphabet::new();
    let syms: Vec<_> = (0..symbols).map(|i| alpha.intern(&format!("f{i}"))).collect();
    let mut aug = AugmentedNfta::new(alpha);
    let q = aug.initial();
    aug.add_transition(AugTransition {
        src: q,
        label: syms.iter().map(|&s| AugSymbol::optional(s)).collect(),
        children: vec![],
    });
    aug
}

fn bench_augmented_translation(r: &mut Runner) {
    for symbols in [16usize, 64, 256, 1024] {
        let aug = augmented_chain(symbols);
        r.bench(format!("e9_augmented_translate/{symbols}"), || {
            black_box(aug.translate());
        });
    }
}

/// A one-state NFTA with one leaf transition, and weights giving its
/// symbol the multiplier `n` on a minimal-width gadget.
fn multiplier_single(n: u64) -> (Nfta, SymbolWeights) {
    let mut alpha = Alphabet::new();
    let a = alpha.intern("a");
    let mut nfta = Nfta::new(alpha);
    let q = nfta.initial();
    nfta.add_transition(Transition {
        src: q,
        symbol: a,
        children: vec![],
    });
    let mult = BigUint::from(n);
    let width = required_bits(&mult).max(1);
    let mut weights = SymbolWeights::new();
    weights.set(a, mult, width);
    (nfta, weights)
}

fn bench_multiplier_translation(r: &mut Runner) {
    for n in [10u64, 1_000, 1_000_000, 1_000_000_000] {
        let (nfta, weights) = multiplier_single(n);
        r.bench(format!("e9_multiplier_translate/{n}"), || {
            black_box(weigh_nfta(&nfta, &weights));
        });
    }
}

fn bench_gadget_state_counts(r: &mut Runner) {
    // Not a timing benchmark so much as a recorded series: state counts
    // must grow logarithmically (asserted here, reported via the bench
    // labels).
    for n in [10u64, 10_000, 10_000_000] {
        let (nfta, weights) = multiplier_single(n);
        let t = weigh_nfta(&nfta, &weights);
        let k = required_bits(&BigUint::from(n));
        assert_eq!(t.num_states() as u64, 1 + 2 * k);
        r.bench(
            format!("e9_gadget_states_log_n/n={n},states={}", t.num_states()),
            || {
                black_box(weigh_nfta(&nfta, &weights).num_states());
            },
        );
    }
}

fn main() {
    let mut r = Runner::new("translations");
    r.start();
    bench_augmented_translation(&mut r);
    bench_multiplier_translation(&mut r);
    bench_gadget_state_counts(&mut r);
    r.finish();
}
