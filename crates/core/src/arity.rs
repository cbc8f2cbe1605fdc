//! The one schema check every query passes before an engine reads facts:
//! each atom's arity must match its relation's.
//!
//! The engines pair atom terms with fact arguments position by position,
//! so a mismatch would index past a fact's arguments (a panic) or pair
//! only a prefix (a wrong answer). A relation absent from the schema is
//! not an error: it is an empty relation, and the query's probability
//! follows from that.

use pqe_db::Schema;
use pqe_query::ConjunctiveQuery;

/// A query atom whose arity disagrees with the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityMismatch {
    /// The atom, rendered as written in the query.
    pub atom: String,
    /// The atom's relation.
    pub relation: String,
    /// Terms in the atom.
    pub atom_arity: usize,
    /// The relation's arity in the schema.
    pub schema_arity: usize,
}

impl std::fmt::Display for ArityMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "atom {} has arity {} but relation {} has arity {} in the database",
            self.atom, self.atom_arity, self.relation, self.schema_arity
        )
    }
}

impl std::error::Error for ArityMismatch {}

/// Checks every atom of `q` against `schema`, reporting the first whose
/// arity differs from its relation's.
pub fn check_arities(q: &ConjunctiveQuery, schema: &Schema) -> Result<(), ArityMismatch> {
    for (i, atom) in q.atoms().iter().enumerate() {
        let Some(rel) = schema.relation(&atom.relation) else {
            continue;
        };
        let schema_arity = schema.arity(rel);
        if atom.terms.len() != schema_arity {
            return Err(ArityMismatch {
                atom: q.restrict_atoms(&[i]).to_string(),
                relation: atom.relation.clone(),
                atom_arity: atom.terms.len(),
                schema_arity,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqe_query::parse;

    #[test]
    fn names_the_atom_and_both_arities() {
        let schema = Schema::new([("R", 2), ("S", 2)]);
        let err = check_arities(&parse("S(z,w), R(x,y,z)").unwrap(), &schema).unwrap_err();
        assert_eq!(err.atom, "R(x,y,z)");
        assert_eq!((err.atom_arity, err.schema_arity), (3, 2));
        assert_eq!(
            err.to_string(),
            "atom R(x,y,z) has arity 3 but relation R has arity 2 in the database"
        );
    }

    #[test]
    fn matching_and_absent_relations_pass() {
        let schema = Schema::new([("R", 2)]);
        assert!(check_arities(&parse("R(x,y), T(y)").unwrap(), &schema).is_ok());
        assert!(check_arities(&parse("R(x,'a')").unwrap(), &schema).is_ok());
        assert!(check_arities(&parse("R(x)").unwrap(), &schema).is_err());
    }
}
