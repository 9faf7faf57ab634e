//! Hands generated data to the program under test: a `Database`, an
//! `XmlDocument` sharing its dictionary, and the tag index.

use crate::gen::{Bookstore, BranchData, ChurnData, FigData, A_VAL, C_VAL, F_VAL};
use relational::{Database, Schema, Value};
use xmldb::{TagIndex, XmlDocument};

pub struct Instance {
    pub db: Database,
    pub doc: XmlDocument,
    pub idx: TagIndex,
}

impl Instance {
    pub fn ctx(&self) -> xjoin_core::DataContext<'_> {
        xjoin_core::DataContext::new(&self.db, &self.doc, &self.idx)
    }

    /// Tuples stored in the named relations.
    pub fn tuples(&self, names: &[&str]) -> usize {
        names
            .iter()
            .map(|n| self.db.relation(n).expect("relation was loaded").len())
            .sum()
    }
}

pub fn int_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<i64>>) -> Vec<Vec<Value>> {
    rows.into_iter()
        .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
        .collect()
}

pub fn pair_rows(pairs: &[(i64, i64)]) -> Vec<Vec<Value>> {
    pairs
        .iter()
        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect()
}

/// Both directions of every undirected edge.
pub fn symmetric_rows(edges: &[(i64, i64)]) -> Vec<Vec<Value>> {
    edges
        .iter()
        .flat_map(|&(u, v)| [(u, v), (v, u)])
        .map(|(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect()
}

fn unary_rows(values: &[i64]) -> Vec<Vec<Value>> {
    values.iter().map(|&v| vec![Value::Int(v)]).collect()
}

pub fn load(db: &mut Database, name: &str, attrs: &[&str], rows: Vec<Vec<Value>>) {
    db.load(name, Schema::of(attrs), rows)
        .expect("generated rows match their schema");
}

/// Builds the document against the database's dictionary and indexes it.
pub fn with_document(
    mut db: Database,
    build: impl FnOnce(&mut xmldb::model::DocBuilder),
) -> Instance {
    let mut dict = db.dict().clone();
    let mut b = XmlDocument::builder();
    build(&mut b);
    let doc = b.build(&mut dict);
    *db.dict_mut() = dict;
    let idx = TagIndex::build(&doc);
    Instance { db, doc, idx }
}

/// A store's document when the workload is purely relational.
pub fn relational_only(db: Database) -> Instance {
    with_document(db, |b| {
        b.begin("graph");
        b.end();
    })
}

/// Appends the Figure-2/3 `A` subtree to a document under construction.
pub fn build_fig_doc(b: &mut xmldb::model::DocBuilder, data: &FigData) {
    b.begin("A");
    b.value(A_VAL);
    for &v in &data.doc.b {
        b.leaf("B", v);
    }
    for &v in &data.doc.d {
        b.leaf("D", v);
    }
    b.begin("C");
    b.value(C_VAL);
    for node in &data.doc.es {
        b.begin("E");
        b.value(node.e);
        b.begin("F");
        b.value(F_VAL);
        for &h in &node.h {
            b.leaf("H", h);
        }
        b.end();
        for &g in &node.g {
            b.leaf("G", g);
        }
        b.end();
    }
    b.end();
    b.end();
}

pub fn load_fig_relations(db: &mut Database, data: &FigData) {
    load(db, "R1", data.r1_attrs, int_rows(&data.r1));
    load(db, "R2", data.r2_attrs, int_rows(&data.r2));
}

pub fn fig_instance(data: &FigData) -> Instance {
    let mut db = Database::new();
    load_fig_relations(&mut db, data);
    with_document(db, |b| build_fig_doc(b, data))
}

pub fn order_rows(data: &Bookstore) -> Vec<Vec<Value>> {
    data.orders
        .iter()
        .map(|(id, user)| vec![Value::Int(*id), Value::str(user.clone())])
        .collect()
}

/// The bookstore, its document parsed from the generated XML text. Returns
/// the parse and tag-index times in seconds alongside.
pub fn bookstore_instance(data: &Bookstore) -> (Instance, f64, f64) {
    let mut db = Database::new();
    load(&mut db, "R", &["orderID", "userID"], order_rows(data));
    let mut dict = db.dict().clone();
    let t = std::time::Instant::now();
    let doc = xmldb::parse_xml(&data.xml, &mut dict).expect("generated XML is well formed");
    let parse_s = t.elapsed().as_secs_f64();
    *db.dict_mut() = dict;
    let t = std::time::Instant::now();
    let idx = TagIndex::build(&doc);
    let index_s = t.elapsed().as_secs_f64();
    (Instance { db, doc, idx }, parse_s, index_s)
}

/// `R(a,b), S(a,c), F(b), G(c)` under the given relation names.
pub fn load_branch(db: &mut Database, names: [&str; 4], data: &BranchData) {
    load(db, names[0], &["a", "b"], pair_rows(&data.r));
    load(db, names[1], &["a", "c"], pair_rows(&data.s));
    load(db, names[2], &["b"], unary_rows(&data.f));
    load(db, names[3], &["c"], unary_rows(&data.g));
}

/// The churn relations, each under the attribute names its atom binds, so
/// every atom is a plain base-relation atom (the kind the store resolves
/// through delta overlays after an append).
pub fn churn_instance(data: &ChurnData) -> Instance {
    let mut db = Database::new();
    let base = symmetric_rows(&data.base);
    let archive = symmetric_rows(&data.archive);
    load(&mut db, "F", &["a"], unary_rows(&data.filter));
    load(&mut db, "S", &["b", "c"], base.clone());
    load(&mut db, "T", &["a", "c"], base);
    load(&mut db, "R", &["a", "b"], symmetric_rows(&data.r));
    load(&mut db, "A", &["b", "c"], archive.clone());
    load(&mut db, "B", &["a", "c"], archive);
    relational_only(db)
}
