//! Pull-based result streaming: the [`Rows`] iterator behind the unified
//! execution API, and the depth-first executor it shares with
//! [`crate::execute`].
//!
//! The paper's Algorithm 1 is breadth-first (it materialises `R` after every
//! attribute expansion — which is what makes its intermediate sizes
//! measurable and Lemma 3.5 meaningful). For consumers that only need the
//! *results*, the same atom set can be walked depth-first, LFTJ-style: the
//! worst-case optimality of the total work is unchanged, and memory drops to
//! the recursion depth. [`Rows`] wraps that walk (an owned
//! [`relational::LftjWalk`]) behind a plain [`Iterator`]:
//!
//! * twig-structure validation runs per pulled tuple through the same
//!   [`TwigValidator`] as the level-wise engine;
//! * the query's output projection is applied per row (with on-the-fly
//!   de-duplication when the projection drops variables, preserving the
//!   level-wise engine's set semantics);
//! * a `limit` is pushed into the walk: after `k` rows the iterator fuses
//!   and the remaining search space is never visited —
//!   [`Rows::stats`] exposes the binding counter that proves it.
//!
//! Every engine kind streams through this walk. Materialising a query on
//! [`crate::EngineKind::XJoinStream`] (or its synonym
//! [`crate::EngineKind::Lftj`]) runs the same loop eagerly, writing each
//! row straight into the output relation.

use crate::error::{CoreError, Result};
use crate::exec::{tick, validate_output, ExecOptions, QueryOutput};
use crate::query::{DataContext, MultiModelQuery};
use crate::validate::TwigValidator;
use relational::{Attr, JoinPlan, JoinStats, LftjWalk, Relation, Schema, ValueId};
use std::collections::HashSet;
use std::time::Instant;

/// Counters of a [`Rows`] iteration (snapshot via [`Rows::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsStats {
    /// Rows handed out so far (post validation / projection / limit).
    pub emitted: usize,
    /// Work the walk actually did: the variable bindings it made. A `limit`
    /// strictly shrinks this.
    pub visited: u64,
}

/// A pull-based iterator over a query's result rows — the one streaming
/// surface of the unified execution API (replacing the historical
/// callback-based `xjoin_stream`).
///
/// Yields one `Vec<ValueId>` per result row, laid out per [`Rows::schema`].
/// Construct via [`crate::exec::stream`], [`crate::exec::Query::rows`], or
/// the plan-level [`stream_with_plan`].
pub struct Rows<'a> {
    walk: Box<LftjWalk>,
    validators: Vec<TwigValidator<'a>>,
    schema: Schema,
    order: Vec<Attr>,
    /// Positions of the output attributes within `order` (`None` =
    /// identity).
    projection: Option<Vec<usize>>,
    /// The current row, reused from one row to the next.
    row: Vec<ValueId>,
    /// Set semantics for lossy projections: rows already emitted.
    seen: Option<HashSet<Vec<ValueId>>>,
    limit: Option<usize>,
    emitted: usize,
    /// Read every 256 walk tuples; only the depth-first executor sets it.
    deadline: Option<Instant>,
    steps: u32,
}

impl<'a> Rows<'a> {
    /// Streams the results of `query` by walking `plan` depth-first,
    /// validating twig structure per tuple. `limit` is pushed into the
    /// walk. Fails if an output attribute is not in the plan's order.
    fn from_walk(
        ctx: &DataContext<'a>,
        query: &'a MultiModelQuery,
        plan: JoinPlan,
        limit: Option<usize>,
    ) -> Result<Rows<'a>> {
        let order = plan.order().to_vec();
        validate_output(query, &order)?;
        let validators: Vec<TwigValidator<'a>> = query
            .twigs
            .iter()
            .map(|t| TwigValidator::new(ctx.doc, ctx.index, t, &order))
            .collect::<Result<_>>()?;
        let (schema, projection, seen) = match &query.output {
            None => (
                Schema::new(order.iter().cloned()).expect("order vars distinct"),
                None,
                None,
            ),
            Some(out) => {
                let positions: Vec<usize> = out
                    .iter()
                    .map(|a| order.iter().position(|o| o == a).expect("validated above"))
                    .collect();
                // Dropping variables can collapse distinct full tuples onto
                // one projected row; dedup to keep set semantics. A pure
                // reorder is injective and needs no bookkeeping.
                let lossy = order.iter().any(|o| !out.contains(o));
                (
                    Schema::new(out.iter().cloned()).map_err(CoreError::from)?,
                    Some(positions),
                    lossy.then(HashSet::new),
                )
            }
        };
        Ok(Rows {
            walk: Box::new(LftjWalk::new(plan)),
            validators,
            row: Vec::with_capacity(schema.arity()),
            schema,
            order,
            projection,
            seen,
            limit,
            emitted: 0,
            deadline: None,
            steps: 0,
        })
    }

    /// The schema of the yielded rows (output attributes, or the full
    /// variable order when the query has no projection).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The walk's global variable order (the unprojected tuple layout).
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// Current iteration counters: `visited` is the number of variable
    /// bindings the trie walk has made — compare a limited run against a
    /// full one to observe `LIMIT` pushdown.
    pub fn stats(&self) -> RowsStats {
        RowsStats {
            emitted: self.emitted,
            visited: self.walk.bindings(),
        }
    }

    /// Drains the remaining rows into a relation with [`Rows::schema`].
    pub fn into_relation(mut self) -> Relation {
        let mut rel = Relation::new(self.schema.clone());
        while let Ok(Some(row)) = self.next_row() {
            rel.push(row).expect("schema arity matches");
        }
        rel
    }

    /// The next row after validation, projection, dedup and limit, or
    /// `None` once the walk is exhausted or the limit reached. Counts every
    /// tuple the walk yields, rejected and duplicate ones included, toward
    /// the deadline.
    fn next_row(&mut self) -> Result<Option<&[ValueId]>> {
        if self.limit.is_some_and(|k| self.emitted >= k) {
            return Ok(None);
        }
        loop {
            let Some(tuple) = self.walk.next_tuple() else {
                return Ok(None);
            };
            if let Some(deadline) = self.deadline {
                tick(deadline, &mut self.steps)?;
            }
            if !self.validators.iter_mut().all(|v| v.check(tuple)) {
                continue;
            }
            self.row.clear();
            match &self.projection {
                Some(positions) => self.row.extend(positions.iter().map(|&p| tuple[p])),
                None => self.row.extend_from_slice(tuple),
            }
            if let Some(seen) = &mut self.seen {
                if seen.contains(&self.row) {
                    continue;
                }
                seen.insert(self.row.clone());
            }
            self.emitted += 1;
            return Ok(Some(&self.row));
        }
    }
}

impl Iterator for Rows<'_> {
    type Item = Vec<ValueId>;

    fn next(&mut self) -> Option<Vec<ValueId>> {
        // A pulled `Rows` has no deadline, so `next_row` cannot fail.
        self.next_row().ok()?.map(<[ValueId]>::to_vec)
    }
}

impl std::fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rows")
            .field("schema", &self.schema)
            .field("emitted", &self.emitted)
            .field("limit", &self.limit)
            .finish()
    }
}

/// Streams the query over an already-assembled plan (whose tries may come
/// from a shared cache — see the `xjoin-store` crate), validating twig
/// structure per tuple; the options' `limit` is pushed into the walk.
pub fn stream_with_plan<'a>(
    ctx: &DataContext<'a>,
    query: &'a MultiModelQuery,
    plan: JoinPlan,
    opts: &ExecOptions,
) -> Result<Rows<'a>> {
    Rows::from_walk(ctx, query, plan, opts.limit)
}

/// The depth-first executor: the [`Rows`] loop run to the end (or to
/// `limit`), each row written straight into the output relation. A
/// `deadline` is read every 256 walk tuples. Records the walk's
/// adaptive-order counters and no stage series: the walk materialises no
/// intermediate.
pub(crate) fn walk(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
    plan: &JoinPlan,
    atom_sizes: Vec<(String, usize)>,
    limit: Option<usize>,
    deadline: Option<Instant>,
) -> Result<QueryOutput> {
    let start = Instant::now();
    let mut rows = Rows::from_walk(ctx, query, plan.clone(), limit)?;
    rows.deadline = deadline;
    let mut results = Relation::new(rows.schema.clone());
    while let Some(row) = rows.next_row()? {
        results.push(row)?;
    }
    let stats = JoinStats {
        output_rows: results.len(),
        elapsed: start.elapsed(),
        reorders: rows.walk.reorders(),
        estimate_probes: rows.walk.estimate_probes(),
        ..JoinStats::default()
    };
    Ok(QueryOutput {
        results,
        stats,
        order: rows.order,
        atom_sizes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{xjoin, XJoinConfig};
    use crate::exec::stream;
    use relational::{Database, Schema as RSchema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn setup() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            RSchema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(1), Value::str("jack")],
                vec![Value::Int(2), Value::str("tom")],
                vec![Value::Int(3), Value::str("bob")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("lines");
        for (oid, price) in [(1i64, 30i64), (2, 20), (9, 99)] {
            b.begin("line");
            b.leaf("orderID", oid);
            b.leaf("price", price);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    fn collect(rows: Rows<'_>) -> Relation {
        rows.into_relation()
    }

    #[test]
    fn streaming_matches_levelwise() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"]).unwrap();
        let cfg = XJoinConfig::default();
        let streamed = collect(stream(&ctx, &q, &ExecOptions::default()).unwrap());
        let levelwise = xjoin(&ctx, &q, &cfg).unwrap();
        assert!(streamed.set_eq(&levelwise.results));
    }

    #[test]
    fn streaming_respects_projection() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line[/orderID][/price]"])
            .unwrap()
            .with_output(&["userID", "price"]);
        let streamed = collect(stream(&ctx, &q, &ExecOptions::default()).unwrap());
        let levelwise = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert!(streamed.set_eq(&levelwise.results));
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn lossy_projection_deduplicates_like_the_engine() {
        // Two orders by the same user join two lines; projecting onto
        // userID alone must yield each user once (set semantics).
        let mut db = Database::new();
        db.load(
            "R",
            RSchema::of(&["orderID", "userID"]),
            vec![
                vec![Value::Int(1), Value::str("jack")],
                vec![Value::Int(2), Value::str("jack")],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("lines");
        for oid in [1i64, 2] {
            b.begin("line");
            b.leaf("orderID", oid);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"])
            .unwrap()
            .with_output(&["userID"]);
        let streamed = collect(stream(&ctx, &q, &ExecOptions::default()).unwrap());
        let levelwise = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        assert_eq!(streamed.len(), 1);
        assert!(streamed.set_eq(&levelwise.results));
    }

    #[test]
    fn streaming_validation_rejects_cross_node_tuples() {
        // Two lines with the same price but different orderIDs: streaming
        // validation must reject fabricated combinations exactly like the
        // level-wise engine.
        let mut db = Database::new();
        db.load("D", RSchema::of(&["price"]), vec![vec![Value::Int(7)]])
            .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("lines");
        for oid in [1i64, 2] {
            b.begin("line");
            b.leaf("orderID", oid);
            b.leaf("price", 7i64);
            b.end();
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["D"], &["//line[/orderID][/price]"]).unwrap();
        let n = stream(&ctx, &q, &ExecOptions::default()).unwrap().count();
        // Valid: (line1, 1, 7) and (line2, 2, 7) — not the 2x2 cross.
        assert_eq!(n, 2);
    }

    #[test]
    fn results_stream_in_order() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"]).unwrap();
        let rows: Vec<Vec<ValueId>> = stream(&ctx, &q, &ExecOptions::default()).unwrap().collect();
        assert!(!rows.is_empty());
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }

    #[test]
    fn limit_fuses_and_stops_the_walk() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"]).unwrap();

        let mut full = stream(&ctx, &q, &ExecOptions::default()).unwrap();
        let total = full.by_ref().count();
        let full_visited = full.stats().visited;
        assert!(total > 1);

        let limit_one = ExecOptions {
            limit: Some(1),
            ..ExecOptions::default()
        };
        let mut limited = stream(&ctx, &q, &limit_one).unwrap();
        assert!(limited.next().is_some());
        assert!(limited.next().is_none(), "limited rows must fuse");
        let st = limited.stats();
        assert_eq!(st.emitted, 1);
        assert!(
            st.visited < full_visited,
            "limited visited {} !< full {}",
            st.visited,
            full_visited
        );
    }

    #[test]
    fn unknown_output_attribute_errors_before_walking() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//line/orderID"])
            .unwrap()
            .with_output(&["zz"]);
        assert!(matches!(
            stream(&ctx, &q, &ExecOptions::default()),
            Err(CoreError::UnknownAttribute(_))
        ));
    }
}
