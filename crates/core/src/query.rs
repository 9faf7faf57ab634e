//! Multi-model queries: relational atoms joined with XML twig patterns.

use crate::atoms::AtomRel;
use crate::error::{CoreError, Result};
use relational::{Attr, Database, Relation};
use xmldb::{TagIndex, TwigPattern, XmlDocument};

/// One positional argument of a relational atom: a variable or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A join variable.
    Var(Attr),
    /// A constant the column must equal (a selection).
    Const(relational::Value),
}

/// One relational atom of a query: a named relation, optionally with its
/// columns rebound positionally as in datalog bodies. Terms may be
/// variables (renames), constants (selections), or repeated variables
/// (intra-atom equality).
#[derive(Debug, Clone, PartialEq)]
pub struct RelAtom {
    /// Name of the relation in the [`Database`].
    pub name: String,
    /// Positional terms (`None` = use the stored schema unchanged).
    pub terms: Option<Vec<Term>>,
}

impl RelAtom {
    /// An atom using the relation's stored schema.
    pub fn plain(name: impl Into<String>) -> Self {
        RelAtom {
            name: name.into(),
            terms: None,
        }
    }

    /// An atom with positional variable rebinding.
    pub fn renamed(name: impl Into<String>, attrs: Vec<Attr>) -> Self {
        RelAtom {
            name: name.into(),
            terms: Some(attrs.into_iter().map(Term::Var).collect()),
        }
    }

    /// An atom with arbitrary positional terms.
    pub fn with_terms(name: impl Into<String>, terms: Vec<Term>) -> Self {
        RelAtom {
            name: name.into(),
            terms: Some(terms),
        }
    }
}

/// A multi-model join query: relational atoms plus twig patterns, over a
/// shared variable namespace (relational column names / rebound variables
/// and twig node variables).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiModelQuery {
    /// The relational atoms (resolved against the [`Database`]).
    pub relations: Vec<RelAtom>,
    /// Twig patterns, all evaluated against the context's document.
    pub twigs: Vec<TwigPattern>,
    /// Output attributes (`None` = all variables, in join-order).
    pub output: Option<Vec<Attr>>,
}

impl MultiModelQuery {
    /// Creates a query from relation names and twig expressions.
    pub fn new<S: AsRef<str>>(relations: &[S], twig_exprs: &[S]) -> Result<Self> {
        let twigs: Vec<TwigPattern> = twig_exprs
            .iter()
            .map(|e| TwigPattern::parse(e.as_ref()))
            .collect::<std::result::Result<_, _>>()?;
        Ok(MultiModelQuery {
            relations: relations
                .iter()
                .map(|s| RelAtom::plain(s.as_ref()))
                .collect(),
            twigs,
            output: None,
        })
    }

    /// Restricts the output schema.
    pub fn with_output(mut self, attrs: &[&str]) -> Self {
        self.output = Some(attrs.iter().map(|&a| Attr::new(a)).collect());
        self
    }

    /// Adds a renamed relational atom.
    pub fn with_renamed_relation(mut self, name: &str, attrs: &[&str]) -> Self {
        self.relations.push(RelAtom::renamed(
            name,
            attrs.iter().map(|&a| Attr::new(a)).collect(),
        ));
        self
    }

    /// Whether the query has no atoms.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty() && self.twigs.is_empty()
    }
}

/// The data a query runs against: a relational database and one XML document
/// (with its tag index), sharing the database's dictionary.
#[derive(Debug, Clone, Copy)]
pub struct DataContext<'a> {
    /// The relational side (also owns the shared dictionary).
    pub db: &'a Database,
    /// The XML document.
    pub doc: &'a XmlDocument,
    /// Tag index over `doc`.
    pub index: &'a TagIndex,
}

impl<'a> DataContext<'a> {
    /// Bundles the three references.
    pub fn new(db: &'a Database, doc: &'a XmlDocument, index: &'a TagIndex) -> Self {
        DataContext { db, doc, index }
    }

    /// Resolves the query's relational atoms, applying positional renames,
    /// constant selections, and intra-atom variable-equality filters.
    pub fn resolve_atoms(&self, query: &MultiModelQuery) -> Result<Vec<AtomRel<'a>>> {
        query
            .relations
            .iter()
            .map(|a| self.resolve_atom(a))
            .collect()
    }

    /// Resolves one relational atom (see [`DataContext::resolve_atoms`]).
    pub fn resolve_atom(&self, atom: &RelAtom) -> Result<AtomRel<'a>> {
        let rel = self
            .db
            .relation(&atom.name)
            .map_err(|_| CoreError::UnknownRelation(atom.name.clone()))?;
        match &atom.terms {
            None => Ok(AtomRel::Borrowed(rel)),
            Some(terms) => {
                if terms.len() != rel.arity() {
                    return Err(CoreError::BadOrder(format!(
                        "atom `{}` binds {} terms but the relation has arity {}",
                        atom.name,
                        terms.len(),
                        rel.arity()
                    )));
                }
                Ok(AtomRel::Owned(apply_terms(self.db, rel, terms)?))
            }
        }
    }
}

/// Applies an atom's positional terms to a stored relation: constants become
/// selections, repeated variables become equality filters, and the result's
/// schema lists each distinct variable once (first-occurrence order).
fn apply_terms(db: &Database, rel: &Relation, terms: &[Term]) -> Result<Relation> {
    // Output columns: first occurrence of each variable.
    let mut out_attrs: Vec<Attr> = Vec::new();
    let mut out_positions: Vec<usize> = Vec::new();
    // Equality groups: for a repeated variable, all its positions.
    let mut eq_groups: Vec<Vec<usize>> = Vec::new();
    // Constant constraints (position, id); a constant the dictionary has
    // never seen makes the atom empty.
    let mut consts: Vec<(usize, Option<relational::ValueId>)> = Vec::new();

    for (pos, term) in terms.iter().enumerate() {
        match term {
            Term::Var(v) => match out_attrs.iter().position(|a| a == v) {
                None => {
                    out_attrs.push(v.clone());
                    out_positions.push(pos);
                    eq_groups.push(vec![pos]);
                }
                Some(k) => eq_groups[k].push(pos),
            },
            Term::Const(value) => consts.push((pos, db.dict().lookup(value))),
        }
    }
    if out_attrs.is_empty() {
        return Err(CoreError::BadOrder(format!(
            "atom over {} binds no variables",
            rel.schema()
        )));
    }
    let schema =
        relational::Schema::new(out_attrs.iter().cloned()).map_err(CoreError::Relational)?;
    let mut out = Relation::new(schema);
    // Any unknown constant ⇒ no tuple can match.
    if consts.iter().any(|(_, id)| id.is_none()) {
        return Ok(out);
    }
    let mut buf: Vec<relational::ValueId> = Vec::with_capacity(out_positions.len());
    'rows: for row in rel.rows() {
        for (pos, id) in &consts {
            if row[*pos] != id.expect("checked above") {
                continue 'rows;
            }
        }
        for group in &eq_groups {
            if group.windows(2).any(|w| row[w[0]] != row[w[1]]) {
                continue 'rows;
            }
        }
        buf.clear();
        buf.extend(out_positions.iter().map(|&p| row[p]));
        out.push(&buf).map_err(CoreError::Relational)?;
    }
    out.sort_dedup();
    Ok(out)
}

/// Collects every variable from already-resolved relational atoms followed
/// by twig variables (in twig-node order), without duplicates — the
/// resolution-free body of [`all_variables`], for callers that already hold
/// the resolved atoms.
pub fn variables_of(resolved: &[AtomRel<'_>], twigs: &[TwigPattern]) -> Vec<Attr> {
    let mut vars: Vec<Attr> = Vec::new();
    for atom in resolved {
        for a in atom.rel().schema().attrs() {
            if !vars.contains(a) {
                vars.push(a.clone());
            }
        }
    }
    for twig in twigs {
        for v in twig.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars
}

/// Collects every variable of the query: relational attributes (in schema
/// order per atom) followed by twig variables (in twig-node order), without
/// duplicates.
pub fn all_variables(ctx: &DataContext<'_>, query: &MultiModelQuery) -> Result<Vec<Attr>> {
    let vars = variables_of(&ctx.resolve_atoms(query)?, &query.twigs);
    if vars.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    Ok(vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Schema, Value};

    fn setup() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["orderID", "userID"]),
            vec![vec![Value::Int(1), Value::str("jack")]],
        )
        .unwrap();
        let mut b = XmlDocument::builder();
        b.begin("invoices");
        b.leaf("ISBN", "978");
        b.end();
        let doc = {
            let mut dict = db.dict().clone();
            let d = b.build(&mut dict);
            *db.dict_mut() = dict;
            d
        };
        (db, doc)
    }

    #[test]
    fn query_construction_parses_twigs() {
        let q = MultiModelQuery::new(&["R"], &["//invoices/ISBN"]).unwrap();
        assert_eq!(q.relations.len(), 1);
        assert_eq!(q.relations[0].name, "R");
        assert_eq!(q.twigs.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn bad_twig_expression_errors() {
        assert!(MultiModelQuery::new(&["R"], &["//a[b"]).is_err());
    }

    #[test]
    fn all_variables_unions_models() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//invoices/ISBN"]).unwrap();
        let vars = all_variables(&ctx, &q).unwrap();
        let names: Vec<&str> = vars.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["orderID", "userID", "invoices", "ISBN"]);
    }

    #[test]
    fn unknown_relation_is_reported() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["missing"], &[]).unwrap();
        assert!(matches!(
            ctx.resolve_atoms(&q),
            Err(CoreError::UnknownRelation(_))
        ));
    }

    #[test]
    fn renamed_atoms_rebind_positionally() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &[])
            .unwrap()
            .with_renamed_relation("R", &["oid", "who"]);
        let atoms = ctx.resolve_atoms(&q).unwrap();
        assert_eq!(atoms[0].rel().schema(), &Schema::of(&["oid", "who"]));
    }

    #[test]
    fn rename_arity_mismatch_errors() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new::<&str>(&[], &[])
            .unwrap()
            .with_renamed_relation("R", &["only_one"]);
        assert!(matches!(ctx.resolve_atoms(&q), Err(CoreError::BadOrder(_))));
    }

    #[test]
    fn output_restriction() {
        let q = MultiModelQuery::new(&["R"], &[])
            .unwrap()
            .with_output(&["userID"]);
        assert_eq!(q.output.unwrap(), vec![Attr::new("userID")]);
    }
}
