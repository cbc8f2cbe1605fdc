//! Property tests on the automata substrate: the FPRAS against the exact
//! subset-determinization oracle on random automata, and exactness of the
//! translation constructions.

use pqe_arith::{BigFloat, BigUint};
use pqe_automata::{
    count_nfa, count_nfta, count_runs, count_trees_exact, required_bits, Alphabet, Ambiguity,
    AugSymbol, AugTransition, AugmentedNfta, FprasConfig, IndexedTree, MulTransition,
    MultiplierNfta, Nfa, Nfta, NftaCounter, NodeMemo, RunTables, StateId, Transition,
};
use pqe_rand::rngs::StdRng;
use pqe_rand::SeedableRng;
use pqe_testkit::prelude::*;
use pqe_testkit::{BoxedGen, Source};

fn cfg() -> Config {
    Config::cases(48).with_corpus("tests/corpus/proptests.corpus")
}

/// A random NFA over 2 symbols with up to 4 states; transition triples
/// `(src, sym, dst)` drawn from the byte stream.
fn random_nfa() -> BoxedGen<Nfa> {
    (
        2usize..=4,
        vec((0u32..4, 0u32..2, 0u32..4), 1..14),
        vec(any::<bool>(), 4),
        vec(any::<bool>(), 4),
    )
        .prop_map(|(states, triples, init, acc)| {
            let mut alpha = Alphabet::new();
            let syms = [alpha.intern("a"), alpha.intern("b")];
            let mut m = Nfa::new(alpha);
            let ids: Vec<_> = (0..states).map(|_| m.add_state()).collect();
            for (s, a, t) in triples {
                let (s, t) = (s as usize % states, t as usize % states);
                m.add_transition(ids[s], syms[a as usize], ids[t]);
            }
            let mut any_init = false;
            for (i, &b) in init.iter().take(states).enumerate() {
                if b {
                    m.set_initial(ids[i]);
                    any_init = true;
                }
            }
            if !any_init {
                m.set_initial(ids[0]);
            }
            for (i, &b) in acc.iter().take(states).enumerate() {
                if b {
                    m.set_accepting(ids[i]);
                }
            }
            m
        })
        .boxed()
}

/// The corpus entry above must decode to the NFA the old
/// `proptest-regressions` file pinned: byte-stream encodings are a
/// contract, and this test keeps the hand-written hex honest.
#[test]
fn corpus_entry_decodes_to_the_pinned_regression() {
    let bytes: Vec<u8> = vec![
        0x00, 0x01, 0x00, 0x01, 0x01, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00,
    ];
    let gen = (random_nfa(), 1usize..7);
    let (nfa, n) = gen.generate(&mut Source::replay(&bytes));
    assert_eq!(n, 1);
    // Two copies of 0 -b-> 1 in the stream; `add_transition` dedupes, so
    // one accepted string ("b") via one accepting path.
    assert_eq!(nfa.count_strings_exact(1).to_u64(), Some(1));
    assert_eq!(nfa.count_accepting_paths(1).to_u64(), Some(1));
    assert_eq!(nfa.count_strings_exact(0).to_u64(), Some(0));
}

#[test]
fn fpras_tracks_exact_on_random_nfas() {
    let gen = (random_nfa(), 1usize..7);
    check(
        "fpras_tracks_exact_on_random_nfas",
        &cfg(),
        &gen,
        |(nfa, n)| {
            let n = *n;
            let exact = nfa.count_strings_exact(n);
            let cfg = FprasConfig::with_epsilon(0.15).with_seed(0xF00D);
            let approx = count_nfa(nfa, n, &cfg);
            if exact.is_zero() {
                prop_assert!(approx.is_zero());
            } else {
                let rel = approx.relative_error_to(&BigFloat::from_biguint(&exact));
                // Generous bound: random automata can be pathologically
                // ambiguous; the median-of-5 estimate must still be close.
                prop_assert!(rel <= 0.35, "exact {exact}, approx {approx}, rel {rel}");
            }
            Ok(())
        },
    );
}

#[test]
fn string_count_never_exceeds_path_count() {
    let gen = (random_nfa(), 0usize..7);
    check(
        "string_count_never_exceeds_path_count",
        &cfg(),
        &gen,
        |(nfa, n)| {
            // Each distinct string has ≥ 1 accepting run.
            prop_assert!(nfa.count_strings_exact(*n) <= nfa.count_accepting_paths(*n));
            Ok(())
        },
    );
}

#[test]
fn unambiguous_nfas_have_equal_counts() {
    let gen = (random_nfa(), 0usize..6);
    check(
        "unambiguous_nfas_have_equal_counts",
        &cfg(),
        &gen,
        |(nfa, n)| {
            let n = *n;
            if !nfa.is_ambiguous_upto(n) {
                prop_assert_eq!(nfa.count_strings_exact(n), nfa.count_accepting_paths(n));
            }
            Ok(())
        },
    );
}

/// A random NFTA over 2 symbols with up to 3 states; transitions
/// `(src, symbol, children)` with up to 2 children, drawn from the byte
/// stream (zero children make leaves).
fn random_nfta() -> BoxedGen<Nfta> {
    (
        1usize..=3,
        vec((0u32..3, 0u32..2, vec(0u32..3, 0..3)), 1..10),
    )
        .prop_map(|(states, transitions)| {
            let mut alpha = Alphabet::new();
            let syms = [alpha.intern("a"), alpha.intern("b")];
            let mut t = Nfta::new(alpha);
            let ids: Vec<StateId> = std::iter::once(t.initial())
                .chain((1..states).map(|_| t.add_state()))
                .collect();
            for (src, sym, children) in transitions {
                t.add_transition(Transition {
                    src: ids[src as usize % states],
                    symbol: syms[sym as usize],
                    children: children.iter().map(|&c| ids[c as usize % states]).collect(),
                });
            }
            t
        })
        .boxed()
}

#[test]
fn run_tables_match_exact_run_counts() {
    let gen = (random_nfta(), 0usize..8);
    check(
        "run_tables_match_exact_run_counts",
        &cfg(),
        &gen,
        |(nfta, n)| {
            let n = *n;
            let tables = RunTables::new(nfta, n);
            let runs = tables.tree_runs(nfta.initial(), n).to_biguint();
            prop_assert_eq!(&runs, &count_runs(nfta, n));
            // Every distinct tree has at least one run.
            prop_assert!(count_trees_exact(nfta, n) <= runs);
            Ok(())
        },
    );
}

#[test]
fn samplers_stay_inside_their_tables_on_random_nftas() {
    // Every key a draw or an estimate reaches must be tabled: a miss would
    // panic here. The drawn trees must be accepted, and the estimate is
    // zero exactly when no tree exists.
    let gen = (random_nfta(), 1usize..8);
    check(
        "samplers_stay_inside_their_tables",
        &cfg(),
        &gen,
        |(nfta, n)| {
            let n = *n;
            let tables = RunTables::new(nfta, n);
            let cfg = FprasConfig::with_epsilon(0.3)
                .with_seed(0xBEE5)
                .with_threads(1);
            let ambiguity = Ambiguity::new(nfta, false);
            let counter = NftaCounter::new(nfta, &tables, &ambiguity, cfg.clone());
            let mut rng = StdRng::seed_from_u64(n as u64);
            for _ in 0..4 {
                if let Some(t) = tables.sample_run(nfta.initial(), n, &mut rng) {
                    prop_assert!(t.size() == n && nfta.accepts(&t));
                }
                if let Some(t) = counter.sample_tree(&mut rng) {
                    prop_assert!(t.size() == n && nfta.accepts(&t));
                }
            }
            let exact = count_trees_exact(nfta, n);
            let approx = count_nfta(nfta, n, &cfg);
            prop_assert_eq!(
                approx.is_zero(),
                exact.is_zero(),
                "exact {exact}, approx {approx}"
            );
            Ok(())
        },
    );
}

/// Differential check of the run-witness shortcuts (run this file under
/// `PQE_SLOW_PATH=1` too, for `BigUint` counts): on trees drawn by the run
/// sampler, whose nodes carry the states of their runs, `runs_at` and
/// `accepted_at` agree with the full DPs on the materialised tree — at
/// every node, for every state, not only the run state — under both union
/// groupings.
#[test]
fn witness_shortcuts_match_the_full_dp_on_random_nftas() {
    let gen = (random_nfta(), 1usize..8, any::<bool>());
    check(
        "witness_shortcuts_match_the_full_dp",
        &cfg(),
        &gen,
        |(nfta, n, naive)| {
            let tables = RunTables::new(nfta, *n);
            let ambiguity = Ambiguity::new(nfta, *naive);
            let mut rng = StdRng::seed_from_u64(*n as u64);
            // Several runs side by side in one arena, as the SIR sampler
            // leaves its candidates.
            let mut arena = IndexedTree::empty();
            for _ in 0..3 {
                if let Some(root) = tables.sample_run_into(nfta.initial(), *n, &mut rng, &mut arena)
                {
                    prop_assert_eq!(arena.run_state(root as usize), Some(nfta.initial()));
                }
            }
            let (mut runs_memo, mut accept_memo) = (NodeMemo::new(), NodeMemo::new());
            for v in 0..arena.len() {
                let t = arena.to_tree(v as u32);
                for q in (0..nfta.num_states()).map(|q| StateId(q as u32)) {
                    let runs = nfta.runs_at(q, &arena, v, Some(&ambiguity), &mut runs_memo);
                    let full = nfta.runs_of_tree(q, &t);
                    prop_assert_eq!(runs.to_biguint(), full.to_biguint(), "{q} at {v}");
                    let accepted = nfta.accepted_at(q, &arena, v, &mut accept_memo);
                    prop_assert_eq!(accepted, nfta.accepts_from(q, &t), "{q} at {v}");
                }
            }
            Ok(())
        },
    );
}

#[test]
#[should_panic(expected = "outside the tables")]
fn run_table_lookup_outside_the_closure_panics() {
    let mut alpha = Alphabet::new();
    let a = alpha.intern("a");
    let mut t = Nfta::new(alpha);
    let q = t.initial();
    t.add_transition(Transition {
        src: q,
        symbol: a,
        children: vec![],
    });
    // Built for size 1: the key (q, 2) was never reached.
    RunTables::new(&t, 1).tree_runs(q, 2);
}

#[test]
fn multiplier_gadget_is_exact() {
    check(
        "multiplier_gadget_is_exact",
        &cfg(),
        &(1u32..64, 0u64..3),
        |&(n, pad)| {
            let mult = BigUint::from(n);
            let width = required_bits(&mult).max(1) + pad;
            let mut alpha = Alphabet::new();
            let a = alpha.intern("a");
            let mut m = MultiplierNfta::new(alpha);
            let q = m.initial();
            m.add_transition(MulTransition {
                src: q,
                symbol: a,
                multiplier: mult,
                bit_width: width,
                children: vec![],
            });
            let nfta = m.translate();
            prop_assert_eq!(
                count_trees_exact(&nfta, 1 + width as usize).to_u64(),
                Some(n as u64)
            );
            Ok(())
        },
    );
}

#[test]
fn optional_symbols_count_powers_of_two() {
    let gen = vec(any::<bool>(), 1..7);
    check(
        "optional_symbols_count_powers_of_two",
        &cfg(),
        &gen,
        |flags| {
            // A single augmented transition with k symbols, `opt` of them
            // optional, accepts exactly 2^opt trees.
            let mut alpha = Alphabet::new();
            let syms: Vec<_> = (0..flags.len())
                .map(|i| alpha.intern(&format!("s{i}")))
                .collect();
            let mut aug = AugmentedNfta::new(alpha);
            let q = aug.initial();
            aug.add_transition(AugTransition {
                src: q,
                label: syms
                    .iter()
                    .zip(flags.iter())
                    .map(|(&s, &opt)| {
                        if opt {
                            AugSymbol::optional(s)
                        } else {
                            AugSymbol::plain(s)
                        }
                    })
                    .collect(),
                children: vec![],
            });
            let (nfta, _) = aug.translate();
            let opt = flags.iter().filter(|&&b| b).count() as u32;
            prop_assert_eq!(
                count_trees_exact(&nfta, flags.len()).to_u64(),
                Some(1u64 << opt)
            );
            Ok(())
        },
    );
}
