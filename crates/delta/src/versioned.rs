//! The epoch-versioned mutable overlay over a probabilistic database.

use crate::{Delta, DeltaOp, Epochs};
use pqe_arith::Rational;
use pqe_db::{Database, Fact, FactId, ProbDatabase};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// An apply failure, tied to the 1-based index of the offending operation
/// (the delta's "line number" once parsed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// 1-based index of the failing operation within the delta.
    pub op: usize,
    /// The operation, rendered in the delta text format.
    pub text: String,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {}: {}\n  {} | {}",
            self.op, self.message, self.op, self.text
        )
    }
}

impl std::error::Error for ApplyError {}

/// What one [`VersionedDb::apply`] actually did, in *net* terms: operations
/// that cancel within the batch (insert then delete, delete then re-insert)
/// are folded away before epochs advance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Facts added (net).
    pub inserted: usize,
    /// Facts removed (net).
    pub deleted: usize,
    /// Surviving facts whose probability was rewritten.
    pub reprobed: usize,
    /// All relations whose epochs advanced, sorted by name.
    pub touched: Vec<String>,
    /// The subset of `touched` whose *fact set* changed — plans over these
    /// need a full recompile; the rest only need reweighting.
    pub structural: Vec<String>,
    /// The database generation after the apply.
    pub generation: u64,
}

impl ApplyReport {
    /// Whether the delta only re-labelled probabilities (the incremental
    /// fast path for every cached plan).
    pub fn is_probability_only(&self) -> bool {
        self.structural.is_empty()
    }

    /// Whether the delta had no net effect at all.
    pub fn is_noop(&self) -> bool {
        self.touched.is_empty()
    }
}

/// A probabilistic database that accepts [`Delta`] batches, tracking a
/// per-relation epoch table and a monotone generation counter.
///
/// Snapshots are `Arc`-shared and immutable: readers clone the `Arc`, and
/// an apply swaps in a fresh database without disturbing in-flight work.
/// The global fact order of surviving facts is preserved across deletes
/// (the paper's constructions fix a consistent fact order; keeping it
/// stable is what lets reweighted plans reproduce bit-identical estimates),
/// and inserted facts append at the end in operation order.
#[derive(Debug, Clone)]
pub struct VersionedDb {
    h: Arc<ProbDatabase>,
    epochs: Arc<Epochs>,
    generation: u64,
    applied: u64,
}

impl VersionedDb {
    /// Wraps an initial database at generation zero.
    pub fn new(h: ProbDatabase) -> Self {
        VersionedDb {
            h: Arc::new(h),
            epochs: Arc::new(Epochs::new()),
            generation: 0,
            applied: 0,
        }
    }

    /// The current immutable snapshot (cheap to clone and hold across an
    /// apply).
    pub fn snapshot(&self) -> Arc<ProbDatabase> {
        Arc::clone(&self.h)
    }

    /// The current database, borrowed.
    pub fn current(&self) -> &ProbDatabase {
        &self.h
    }

    /// The live per-relation epoch table.
    pub fn epochs(&self) -> &Epochs {
        &self.epochs
    }

    /// The epoch table as a shared handle (for readers that outlive a
    /// borrow of `self`).
    pub fn shared_epochs(&self) -> Arc<Epochs> {
        Arc::clone(&self.epochs)
    }

    /// Monotone generation counter: advances on every apply with a net
    /// effect.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of successful `apply` calls.
    pub fn deltas_applied(&self) -> u64 {
        self.applied
    }

    /// Applies a delta atomically: every operation is validated against the
    /// sequentially-updated state first, and either the whole batch lands
    /// or the database is untouched.
    pub fn apply(&mut self, delta: &Delta) -> Result<ApplyReport, ApplyError> {
        let base = &self.h;
        let db = base.database();

        // Sequential simulation: deletions and probability overrides of
        // base facts, plus pending inserts (None once deleted again).
        let mut removed: HashSet<FactId> = HashSet::new();
        let mut overrides: HashMap<FactId, Rational> = HashMap::new();
        let mut pending: Vec<Option<(String, Vec<String>, Rational)>> = Vec::new();
        let mut pending_ix: HashMap<(String, Vec<String>), usize> = HashMap::new();
        let mut new_arities: HashMap<String, usize> = HashMap::new();

        let resolve = |rel: &str, args: &[String]| -> Option<FactId> {
            let rel_id = db.schema().relation(rel)?;
            let consts = args
                .iter()
                .map(|a| db.consts().get(a))
                .collect::<Option<Vec<_>>>()?;
            db.fact_id(&Fact::new(rel_id, consts))
        };

        for (i, op) in delta.ops().iter().enumerate() {
            let fail = |message: String| ApplyError {
                op: i + 1,
                text: op.to_string(),
                message,
            };
            let rel = op.relation();
            let (args, prob) = match op {
                DeltaOp::Insert { args, prob, .. } => (args, Some(prob)),
                DeltaOp::SetProb { args, prob, .. } => (args, Some(prob)),
                DeltaOp::Delete { args, .. } => (args, None),
            };
            if let Some(p) = prob {
                if !p.is_probability() {
                    return Err(fail(format!("probability {p} outside [0, 1]")));
                }
            }
            let declared = db
                .schema()
                .relation(rel)
                .map(|id| db.schema().arity(id))
                .or_else(|| new_arities.get(rel).copied());
            if let Some(expected) = declared {
                if args.len() != expected {
                    return Err(fail(format!(
                        "relation {rel} used with arity {} but declared with arity {expected}",
                        args.len()
                    )));
                }
            }
            let key = || (rel.to_owned(), args.clone());
            let shown = || format!("{rel}({})", args.join(","));
            match op {
                DeltaOp::Insert { prob, .. } => {
                    if declared.is_none() {
                        new_arities.insert(rel.to_owned(), args.len());
                    }
                    if let Some(id) = resolve(rel, args) {
                        if removed.remove(&id) {
                            // delete + re-insert folds to a probability
                            // override at the fact's original position.
                            overrides.insert(id, prob.clone());
                            continue;
                        }
                        return Err(fail(format!(
                            "fact {} already present (use ~ to set its probability)",
                            shown()
                        )));
                    }
                    match pending_ix.get(&key()) {
                        Some(&ix) if pending[ix].is_some() => {
                            return Err(fail(format!("duplicate insert of {}", shown())));
                        }
                        Some(&ix) => {
                            pending[ix] = Some((rel.to_owned(), args.clone(), prob.clone()));
                        }
                        None => {
                            pending_ix.insert(key(), pending.len());
                            pending.push(Some((rel.to_owned(), args.clone(), prob.clone())));
                        }
                    }
                }
                DeltaOp::Delete { .. } => {
                    if let Some(id) = resolve(rel, args) {
                        if !removed.insert(id) {
                            return Err(fail(format!("fact {} already deleted", shown())));
                        }
                        overrides.remove(&id);
                        continue;
                    }
                    match pending_ix.get(&key()) {
                        Some(&ix) if pending[ix].is_some() => pending[ix] = None,
                        _ => {
                            return Err(fail(format!("cannot delete unknown fact {}", shown())));
                        }
                    }
                }
                DeltaOp::SetProb { prob, .. } => {
                    if let Some(id) = resolve(rel, args) {
                        if !removed.contains(&id) {
                            overrides.insert(id, prob.clone());
                            continue;
                        }
                    }
                    match pending_ix.get(&key()) {
                        Some(&ix) if pending[ix].is_some() => {
                            if let Some(entry) = pending[ix].as_mut() {
                                entry.2 = prob.clone();
                            }
                        }
                        _ => {
                            return Err(fail(format!(
                                "cannot set probability of unknown fact {}",
                                shown()
                            )));
                        }
                    }
                }
            }
        }

        // Net effects.
        let inserts: Vec<(String, Vec<String>, Rational)> = pending.into_iter().flatten().collect();
        let mut structural: BTreeSet<String> = removed
            .iter()
            .map(|id| db.schema().name(db.fact(*id).rel).to_owned())
            .collect();
        structural.extend(inserts.iter().map(|(rel, _, _)| rel.clone()));
        let reprobed_rels: BTreeSet<String> = overrides
            .keys()
            .map(|id| db.schema().name(db.fact(*id).rel).to_owned())
            .collect();
        let mut touched = structural.clone();
        touched.extend(reprobed_rels.iter().cloned());

        let report = ApplyReport {
            inserted: inserts.len(),
            deleted: removed.len(),
            reprobed: overrides.len(),
            touched: touched.into_iter().collect(),
            structural: structural.iter().cloned().collect(),
            generation: self.generation,
        };
        self.applied += 1;
        if report.is_noop() {
            return Ok(report);
        }

        // Build the successor snapshot.
        let next = if structural.is_empty() {
            let mut h = (**base).clone();
            for (id, p) in overrides {
                h.set_prob(id, p);
            }
            h
        } else {
            let mask: Vec<bool> = db.fact_ids().map(|id| !removed.contains(&id)).collect();
            let mut new_db: Database = db.subinstance(&mask);
            let mut probs: Vec<Rational> = db
                .fact_ids()
                .filter(|id| !removed.contains(id))
                .map(|id| overrides.get(&id).unwrap_or_else(|| base.prob(id)).clone())
                .collect();
            for (rel, args, prob) in &inserts {
                new_db
                    .add_relation(rel, args.len())
                    .expect("arity validated against batch");
                let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                new_db
                    .add_fact(rel, &refs)
                    .expect("insert validated against batch");
                probs.push(prob.clone());
            }
            ProbDatabase::with_probs(new_db, probs).expect("probabilities validated")
        };

        let mut epochs = (*self.epochs).clone();
        for rel in &structural {
            epochs.bump_structure(rel);
        }
        for rel in &reprobed_rels {
            epochs.bump_probs(rel);
        }
        self.h = Arc::new(next);
        self.epochs = Arc::new(epochs);
        self.generation += 1;
        Ok(ApplyReport {
            generation: self.generation,
            ..report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Freshness;
    use pqe_db::io::load_str;

    fn base() -> VersionedDb {
        VersionedDb::new(load_str("1/2 R(a,b)\n1/3 R(b,c)\n1/5 S(b,d)\nT(x)\n").unwrap())
    }

    fn saved(v: &VersionedDb) -> String {
        pqe_db::io::save_string(v.current())
    }

    #[test]
    fn probability_only_apply_keeps_structure() {
        let mut v = base();
        let d = Delta::parse_str("~ 3/4 R(a,b)\n~ 0.5 S(b,d)\n").unwrap();
        let r = v.apply(&d).unwrap();
        assert!(r.is_probability_only());
        assert_eq!(r.reprobed, 2);
        assert_eq!(r.touched, ["R", "S"]);
        assert_eq!(r.generation, 1);
        assert_eq!(saved(&v), "3/4 R(a,b)\n1/3 R(b,c)\n1/2 S(b,d)\nT(x)\n");
        assert_eq!(v.epochs().get("R").probs, 1);
        assert_eq!(v.epochs().get("R").structure, 0);
        assert_eq!(v.epochs().get("T"), Default::default());
    }

    #[test]
    fn structural_apply_preserves_surviving_order() {
        let mut v = base();
        let d = Delta::parse_str("- R(a,b)\n+ 2/3 S(z,z)\n~ 1/4 R(b,c)\n").unwrap();
        let r = v.apply(&d).unwrap();
        assert_eq!((r.inserted, r.deleted, r.reprobed), (1, 1, 1));
        assert_eq!(r.structural, ["R", "S"]);
        assert_eq!(saved(&v), "1/4 R(b,c)\n1/5 S(b,d)\nT(x)\n2/3 S(z,z)\n");
        assert_eq!(v.epochs().get("R").structure, 1);
        assert_eq!(v.epochs().get("S").structure, 1);
        assert_eq!(v.epochs().get("R").probs, 1);
    }

    #[test]
    fn inserts_may_extend_the_schema() {
        let mut v = base();
        let d = Delta::parse_str("+ 1/7 U(a,b,c)\n").unwrap();
        v.apply(&d).unwrap();
        assert_eq!(saved(&v).lines().last().unwrap(), "1/7 U(a,b,c)");
        // Inconsistent arity within one batch is rejected atomically.
        let before = saved(&v);
        let d = Delta::parse_str("+ V(a)\n+ V(a,b)\n").unwrap();
        let e = v.apply(&d).unwrap_err();
        assert_eq!(e.op, 2);
        assert!(e.message.contains("arity"));
        assert_eq!(saved(&v), before);
    }

    #[test]
    fn cancelling_ops_fold_to_noop_or_reweight() {
        let mut v = base();
        // Insert then delete: net nothing, generation unchanged.
        let d = Delta::parse_str("+ 1/2 S(q,q)\n- S(q,q)\n").unwrap();
        let r = v.apply(&d).unwrap();
        assert!(r.is_noop());
        assert_eq!(v.generation(), 0);
        // Delete then re-insert folds to a probability override in place.
        let d = Delta::parse_str("- R(a,b)\n+ 9/10 R(a,b)\n").unwrap();
        let r = v.apply(&d).unwrap();
        assert!(r.is_probability_only());
        assert_eq!(saved(&v), "9/10 R(a,b)\n1/3 R(b,c)\n1/5 S(b,d)\nT(x)\n");
        assert_eq!(v.epochs().get("R").structure, 0);
    }

    #[test]
    fn invalid_ops_report_index_and_leave_state_untouched() {
        let mut v = base();
        let before = saved(&v);
        for (src, needle) in [
            ("+ 1/2 R(a,b)\n", "already present"),
            ("- R(zz,zz)\n", "unknown fact"),
            ("~ 1/2 Q(a)\n", "unknown fact"),
            ("- R(a,b)\n- R(a,b)\n", "already deleted"),
            ("+ 1/2 W(a)\n+ 1/3 W(a)\n", "duplicate insert"),
            ("~ 1/2 R(a)\n", "arity"),
        ] {
            let e = v.apply(&Delta::parse_str(src).unwrap()).unwrap_err();
            assert!(e.message.contains(needle), "{src:?} -> {}", e.message);
            assert_eq!(saved(&v), before, "state mutated by failing {src:?}");
            assert_eq!(v.generation(), 0);
        }
    }

    #[test]
    fn epochs_scope_invalidation_to_touched_relations() {
        let mut v = base();
        let stamp_r = v.epochs().stamp(["R"]);
        let stamp_t = v.epochs().stamp(["T"]);
        v.apply(&Delta::parse_str("~ 1/8 R(a,b)\n").unwrap())
            .unwrap();
        assert_eq!(v.epochs().freshness(&stamp_r), Freshness::ProbsChanged);
        assert_eq!(v.epochs().freshness(&stamp_t), Freshness::Current);
        v.apply(&Delta::parse_str("- R(a,b)\n").unwrap()).unwrap();
        assert_eq!(v.epochs().freshness(&stamp_r), Freshness::StructureChanged);
        assert_eq!(v.epochs().freshness(&stamp_t), Freshness::Current);
    }

    #[test]
    fn snapshots_survive_later_applies() {
        let mut v = base();
        let snap = v.snapshot();
        v.apply(&Delta::parse_str("~ 1/8 R(a,b)\n- T(x)\n").unwrap())
            .unwrap();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.prob(pqe_db::FactId(0)).to_string(), "1/2");
        assert_eq!(v.current().len(), 3);
        assert_eq!(v.deltas_applied(), 1);
        assert_eq!(v.generation(), 1);
    }
}
