//! Values and the global dictionary.
//!
//! All join processing operates on compact [`ValueId`]s. A [`Dict`] interns
//! user-facing [`Value`]s (integers and strings) into ids; equality of ids is
//! equality of values, and the numeric order of ids provides the consistent
//! total order that leapfrog intersection requires across *all* relations and
//! XML documents sharing the dictionary.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;

/// A compact, dictionary-encoded value identifier.
///
/// Ids are dense (assigned by insertion order) and totally ordered; the order
/// is arbitrary but consistent, which is all that worst-case optimal join
/// algorithms require.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A user-facing value: either an integer or a string.
///
/// This is the type examples and loaders speak; engines only ever see
/// [`ValueId`]s.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// An owned string.
    Str(String),
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the integer payload, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }

    /// Returns the string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// The ids sharing one hash bucket. Sixty-four-bit hash collisions are
/// vanishingly rare, so almost every bucket is the allocation-free `One`
/// variant; `Many` exists only for correctness.
#[derive(Debug, Clone)]
enum IdSlot {
    /// The common case: exactly one interned value hashes here.
    One(ValueId),
    /// Hash collision: all ids whose values share this hash.
    Many(Vec<ValueId>),
}

impl IdSlot {
    fn ids(&self) -> &[ValueId] {
        match self {
            IdSlot::One(id) => std::slice::from_ref(id),
            IdSlot::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: ValueId) {
        match self {
            IdSlot::One(first) => *self = IdSlot::Many(vec![*first, id]),
            IdSlot::Many(ids) => ids.push(id),
        }
    }
}

/// An interning dictionary mapping [`Value`]s to dense [`ValueId`]s.
///
/// One dictionary is shared by every relation and XML document participating
/// in a multi-model query, so that equal values — whether they came from a
/// relational column or an XML text node — receive the same id.
///
/// Each value is stored **once**, in the id-indexed `values` vec; the hash
/// index maps a value's hash to the id(s) carrying it and probes back into
/// `values` for equality. (An earlier revision keyed the map by `Value`,
/// holding every interned string twice.)
#[derive(Debug, Default, Clone)]
pub struct Dict {
    values: Vec<Value>,
    ids: HashMap<u64, IdSlot>,
    hasher: RandomState,
}

impl Dict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id already interned for `v` under hash `h`, if any.
    fn probe(&self, h: u64, v: &Value) -> Option<ValueId> {
        self.ids
            .get(&h)?
            .ids()
            .iter()
            .copied()
            .find(|id| &self.values[id.index()] == v)
    }

    /// Interns `v`, returning its id (allocating a fresh id on first sight).
    pub fn intern(&mut self, v: Value) -> ValueId {
        let h = self.hasher.hash_one(&v);
        if let Some(id) = self.probe(h, &v) {
            return id;
        }
        let id = ValueId(u32::try_from(self.values.len()).expect("dictionary overflow"));
        self.values.push(v);
        match self.ids.entry(h) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(id),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdSlot::One(id));
            }
        }
        id
    }

    /// Interns an integer value.
    pub fn int(&mut self, i: i64) -> ValueId {
        self.intern(Value::Int(i))
    }

    /// Interns a string value.
    pub fn str(&mut self, s: impl Into<String>) -> ValueId {
        self.intern(Value::Str(s.into()))
    }

    /// Looks up the id of `v` without interning it.
    pub fn lookup(&self, v: &Value) -> Option<ValueId> {
        self.probe(self.hasher.hash_one(v), v)
    }

    /// Decodes an id back into its value.
    ///
    /// # Panics
    /// Panics if the id was not produced by this dictionary.
    pub fn decode(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v))
    }

    /// Approximate heap footprint in bytes: the value storage (string
    /// payloads included) plus the hash index. Memory budgeters (cache
    /// sizing, `explain`'s reports) use this estimate; it
    /// deliberately ignores allocator slack and `HashMap` load-factor
    /// headroom.
    pub fn estimated_bytes(&self) -> usize {
        let values: usize = self
            .values
            .iter()
            .map(|v| {
                std::mem::size_of::<Value>()
                    + match v {
                        Value::Int(_) => 0,
                        Value::Str(s) => s.capacity(),
                    }
            })
            .sum();
        let index: usize = self
            .ids
            .values()
            .map(|slot| {
                std::mem::size_of::<u64>()
                    + std::mem::size_of::<IdSlot>()
                    + match slot {
                        IdSlot::One(_) => 0,
                        IdSlot::Many(ids) => ids.capacity() * std::mem::size_of::<ValueId>(),
                    }
            })
            .sum();
        values + index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dict::new();
        let a = d.str("isbn-1");
        let b = d.str("isbn-1");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ints_and_strings_do_not_collide() {
        let mut d = Dict::new();
        let a = d.int(42);
        let b = d.str("42");
        assert_ne!(a, b);
        assert_eq!(d.decode(a), &Value::Int(42));
        assert_eq!(d.decode(b), &Value::Str("42".into()));
    }

    #[test]
    fn ids_are_dense_and_ordered_by_insertion() {
        let mut d = Dict::new();
        let ids: Vec<ValueId> = (0..10).map(|i| d.int(i * 7)).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut d = Dict::new();
        assert_eq!(d.lookup(&Value::Int(1)), None);
        let id = d.int(1);
        assert_eq!(d.lookup(&Value::Int(1)), Some(id));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn iter_yields_pairs_in_id_order() {
        let mut d = Dict::new();
        d.str("a");
        d.int(5);
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, ValueId(0));
        assert_eq!(pairs[1].1, &Value::Int(5));
    }

    #[test]
    fn estimated_bytes_grows_with_interned_strings() {
        let mut d = Dict::new();
        let empty = d.estimated_bytes();
        d.int(1);
        let after_int = d.estimated_bytes();
        assert!(after_int > empty);
        d.str("a rather long string payload that must be charged");
        let after_str = d.estimated_bytes();
        // The string's heap payload is charged once (values vec), not twice.
        assert!(after_str >= after_int + 50);
        assert!(after_str < after_int + 2 * 50 + std::mem::size_of::<Value>() * 2);
        // Re-interning changes nothing.
        d.str("a rather long string payload that must be charged");
        assert_eq!(d.estimated_bytes(), after_str);
    }

    #[test]
    fn dense_interning_survives_many_values() {
        // Exercises the hash-bucket index (including any collisions) over a
        // larger id space, plus decode round-trips.
        let mut d = Dict::new();
        let ids: Vec<ValueId> = (0..2000i64)
            .map(|i| {
                if i % 2 == 0 {
                    d.int(i)
                } else {
                    d.str(format!("s{i}"))
                }
            })
            .collect();
        assert_eq!(d.len(), 2000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            let v = d.decode(*id).clone();
            assert_eq!(d.lookup(&v), Some(*id));
            assert_eq!(d.intern(v), *id);
        }
        assert_eq!(d.len(), 2000);
    }

    #[test]
    fn id_slot_collision_bucket_holds_all_ids() {
        let mut slot = IdSlot::One(ValueId(1));
        slot.push(ValueId(2));
        slot.push(ValueId(3));
        assert_eq!(slot.ids(), &[ValueId(1), ValueId(2), ValueId(3)]);
    }

    #[test]
    fn cloned_dict_is_independent() {
        let mut d = Dict::new();
        d.str("shared");
        let mut c = d.clone();
        let id = c.str("only in clone");
        assert_eq!(c.len(), 2);
        assert_eq!(d.len(), 1);
        assert_eq!(d.lookup(&Value::str("only in clone")), None);
        assert_eq!(c.decode(id), &Value::str("only in clone"));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::str("x").as_int(), None);
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(format!("{}", Value::Int(9)), "9");
        assert_eq!(format!("{}", Value::str("v")), "v");
        assert_eq!(format!("{}", ValueId(4)), "#4");
    }
}
