//! Atom collection: lowering a multi-model query to one set of join atoms.
//!
//! This is the `S ← Sr ∪ transform(Sx)` line of the paper's Algorithm 1:
//! relational atoms are taken as-is; every twig is decomposed (cut A-D
//! edges → sub-twigs → root-leaf paths) and each path contributes one
//! *path relation*. Path relations are derived from the tag index in time
//! linear in the matching elements (each P-C chain is keyed by its lowest
//! node), which is why the paper can treat them as virtual tables.
//!
//! Lowering also decides, once, each atom's [`AtomSource`]: a stored
//! relation (as-is or purely renamed), a selection, or a twig path. A trie
//! cache (the `xjoin-store` crate) rebuilds one atom on a miss from its
//! source alone with [`AtomSource::build_trie`] — a renamed atom straight
//! from the stored relation, in its column permutation, without a copy.

use crate::error::Result;
use crate::query::{DataContext, MultiModelQuery, RelAtom, Term};
use relational::{Attr, RelError, Relation, Trie};
use xmldb::transform::{decompose, path_relation, Decomposition};

/// A join atom: either a borrowed relational table or an owned (derived)
/// relation — a renamed or filtered copy of a table, or a path relation.
#[derive(Debug)]
pub enum AtomRel<'a> {
    /// A relational atom from the database, untouched.
    Borrowed(&'a Relation),
    /// A derived relation: a renamed or filtered copy, or a path relation.
    Owned(Relation),
}

impl AtomRel<'_> {
    /// The underlying relation.
    pub fn rel(&self) -> &Relation {
        match self {
            AtomRel::Borrowed(r) => r,
            AtomRel::Owned(r) => r,
        }
    }
}

/// Where an atom's trie content comes from, as indices into the lowered
/// query. The content's columns are the lowered relation's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomSource {
    /// `query.relations[atom]` read as-is or under a pure renaming (distinct
    /// variables): lowered column `c` is stored column `c`, so a trie in any
    /// column permutation builds straight from the stored relation.
    Relation {
        /// Index into `query.relations`.
        atom: usize,
    },
    /// `query.relations[atom]` with a constant or a repeated variable among
    /// its terms: a filtered copy whose columns are the atom's distinct
    /// variables.
    Selection {
        /// Index into `query.relations`.
        atom: usize,
    },
    /// Path `path` of twig `twig` (`decompositions[twig].paths[path]`),
    /// whose columns are the path's nodes.
    TwigPath {
        /// Index into `query.twigs` and [`Atoms::decompositions`].
        twig: usize,
        /// Index into the twig's decomposition paths.
        path: usize,
    },
}

impl AtomSource {
    /// The source of `query.relations[atom]`: a pure renaming unless some
    /// term is a constant or repeats a variable.
    fn of_relation(atom: usize, rel_atom: &RelAtom) -> AtomSource {
        let renaming = rel_atom.terms.as_deref().is_none_or(|terms| {
            terms
                .iter()
                .enumerate()
                .all(|(i, t)| matches!(t, Term::Var(_)) && !terms[..i].contains(t))
        });
        if renaming {
            AtomSource::Relation { atom }
        } else {
            AtomSource::Selection { atom }
        }
    }

    /// The atom's lowered relation: the stored relation for a plain atom,
    /// a renamed or filtered copy for any other relational atom, the path
    /// relation for a twig path.
    fn lower<'a>(
        &self,
        ctx: &DataContext<'a>,
        query: &MultiModelQuery,
        decompositions: &[Decomposition],
    ) -> Result<AtomRel<'a>> {
        match *self {
            AtomSource::Relation { atom } | AtomSource::Selection { atom } => {
                ctx.resolve_atom(&query.relations[atom])
            }
            AtomSource::TwigPath { twig, path } => {
                let spec = &decompositions[twig].paths[path];
                let rel = path_relation(ctx.doc, ctx.index, &query.twigs[twig], spec);
                Ok(AtomRel::Owned(rel))
            }
        }
    }

    /// Builds the atom's trie with level `d` on content column `columns[d]`,
    /// under the content's own column names: a stored relation read as-is
    /// or renamed straight from the stored relation, without a copy; any
    /// other atom from its lowered relation. `decompositions` are the
    /// lowering's ([`Atoms::decompositions`]).
    pub fn build_trie(
        &self,
        ctx: &DataContext<'_>,
        query: &MultiModelQuery,
        decompositions: &[Decomposition],
        columns: &[usize],
    ) -> Result<Trie> {
        let rel = match *self {
            AtomSource::Relation { atom } => {
                ctx.resolve_atom(&RelAtom::plain(&query.relations[atom].name))?
            }
            _ => self.lower(ctx, query, decompositions)?,
        };
        build_columns(rel.rel(), columns)
    }
}

/// Builds `rel`'s trie with level `d` on column `columns[d]`, under `rel`'s
/// own column names.
pub fn build_columns(rel: &Relation, columns: &[usize]) -> Result<Trie> {
    let attrs = rel.schema().attrs();
    let order: Option<Vec<Attr>> = columns.iter().map(|&c| attrs.get(c).cloned()).collect();
    let order = order.ok_or_else(|| {
        RelError::InvalidOrder(format!("{} lacks a column of the atom", rel.schema()))
    })?;
    Ok(Trie::build(rel, &order)?)
}

/// The flattened atom set of a multi-model query.
#[derive(Debug)]
pub struct Atoms<'a> {
    /// Human-readable atom names (relation names; `twigN/path(V,…)` for path
    /// relations).
    pub names: Vec<String>,
    /// The atom relations, aligned with `names`.
    pub rels: Vec<AtomRel<'a>>,
    /// Where each atom's content comes from, aligned with `names`.
    pub sources: Vec<AtomSource>,
    /// Index of the first path-relation atom (relational atoms come first).
    pub first_path_atom: usize,
    /// Per twig: its decomposition (for A-D edges and validation).
    pub decompositions: Vec<Decomposition>,
}

impl<'a> Atoms<'a> {
    /// Borrows all atom relations (for [`relational::JoinPlan`]).
    pub fn rel_refs(&self) -> Vec<&Relation> {
        self.rels.iter().map(|a| a.rel()).collect()
    }

    /// `(name, cardinality)` for every atom.
    pub fn sizes(&self) -> Vec<(String, usize)> {
        self.names
            .iter()
            .zip(&self.rels)
            .map(|(n, r)| (n.clone(), r.rel().len()))
            .collect()
    }
}

/// Lowers the query: relational atoms followed by every twig's path
/// relations, each with its [`AtomSource`].
pub fn collect_atoms<'a>(ctx: &DataContext<'a>, query: &MultiModelQuery) -> Result<Atoms<'a>> {
    let mut names: Vec<String> = query.relations.iter().map(|a| a.name.clone()).collect();
    let mut sources: Vec<AtomSource> = query
        .relations
        .iter()
        .enumerate()
        .map(|(i, atom)| AtomSource::of_relation(i, atom))
        .collect();
    let decompositions: Vec<Decomposition> = query.twigs.iter().map(decompose).collect();
    for (t, (twig, dec)) in query.twigs.iter().zip(&decompositions).enumerate() {
        for (p, path) in dec.paths.iter().enumerate() {
            let vars: Vec<&str> = path
                .nodes
                .iter()
                .map(|&q| twig.node(q).var.name())
                .collect();
            names.push(format!("twig{}/path({})", t, vars.join(",")));
            sources.push(AtomSource::TwigPath { twig: t, path: p });
        }
    }
    let rels = sources
        .iter()
        .map(|source| source.lower(ctx, query, &decompositions))
        .collect::<Result<_>>()?;
    Ok(Atoms {
        names,
        rels,
        sources,
        first_path_atom: query.relations.len(),
        decompositions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn setup() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["B", "D"]),
            vec![vec![Value::Int(1), Value::Int(2)]],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("A");
        b.leaf("B", 1i64);
        b.leaf("D", 2i64);
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn atoms_include_relations_then_paths() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let atoms = collect_atoms(&ctx, &q).unwrap();
        assert_eq!(atoms.first_path_atom, 1);
        assert_eq!(atoms.names.len(), 3); // R + paths (A,B), (A,D)
        assert!(atoms.names[1].contains("A,B"));
        assert!(atoms.names[2].contains("A,D"));
        let sizes = atoms.sizes();
        assert_eq!(sizes[0].1, 1);
        assert_eq!(sizes[1].1, 1);
    }

    #[test]
    fn sources_line_up_with_the_lowered_atoms() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let var = |v: &str| Term::Var(Attr::new(v));
        let mut q = MultiModelQuery::new(&["R"], &["//A[/B][/D]", "//A$a2//D$d2"]).unwrap();
        q.relations.extend([
            RelAtom::with_terms("R", vec![var("x"), var("y")]),
            RelAtom::with_terms("R", vec![Term::Const(Value::Int(1)), var("y")]),
            RelAtom::with_terms("R", vec![var("x"), var("x")]),
        ]);
        let atoms = collect_atoms(&ctx, &q).unwrap();
        let paths = [
            "twig0/path(A,B)",
            "twig0/path(A,D)",
            "twig1/path(a2)",
            "twig1/path(d2)",
        ];
        assert_eq!(atoms.names, [&["R"; 4][..], &paths].concat());
        assert_eq!(
            atoms.sources,
            [
                AtomSource::Relation { atom: 0 },
                AtomSource::Relation { atom: 1 },
                AtomSource::Selection { atom: 2 },
                AtomSource::Selection { atom: 3 },
                AtomSource::TwigPath { twig: 0, path: 0 },
                AtomSource::TwigPath { twig: 0, path: 1 },
                AtomSource::TwigPath { twig: 1, path: 0 },
                AtomSource::TwigPath { twig: 1, path: 1 },
            ]
        );
        assert_eq!(atoms.decompositions[1].ad_edges.len(), 1, "A-D edge cut");
        // Built from its source alone, each atom's trie holds exactly the
        // lowered relation's tuples, column for column.
        for (rel, source) in atoms.rels.iter().zip(&atoms.sources) {
            let columns: Vec<usize> = (0..rel.rel().arity()).collect();
            let trie = source.build_trie(&ctx, &q, &atoms.decompositions, &columns);
            let trie = trie.unwrap();
            let mut lowered = rel.rel().clone();
            lowered.sort_dedup();
            assert!(trie.to_relation().rows().eq(lowered.rows()), "{source:?}");
        }
    }

    #[test]
    fn decompositions_are_kept_per_twig() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A//B", "//A$a2/D"]).unwrap();
        let atoms = collect_atoms(&ctx, &q).unwrap();
        assert_eq!(atoms.decompositions.len(), 2);
        assert_eq!(atoms.decompositions[0].ad_edges.len(), 1);
        assert!(atoms.decompositions[1].ad_edges.is_empty());
    }
}
