//! Run-time values. A reference is a pair ⟨ℓ, S⟩ of a heap location and a
//! *view* — a non-dependent exact type with masks (§2.3).
//!
//! Values are `Send + Sync` so one compiled program can serve many
//! requests from a pool of worker threads (`jns-serve`): strings are
//! `Arc<str>`, and a reference's mask set is a [`MaskId`] — a `u32`
//! index into the executing machine's [`MaskPool`]. [`RefVal`] is
//! therefore `Copy`: loading, storing, and re-viewing a reference moves
//! three words and touches no reference count.
//!
//! # Teardown is iterative by construction
//!
//! A [`Value`] never owns another `Value`: object structure lives in the
//! shared backend heap ([`crate::heap::Heap`] — union-layout slots plus
//! open `⟨ℓ, P, f⟩` cells), and a [`RefVal`] holds a plain [`Loc`]
//! index, not a pointer into it. ([`Loc`]s are *stable under execution*
//! but forwarded by the mark-compact collector — aliases of one object
//! always forward together, so identity is preserved.) Dropping a
//! machine that holds a million-long linked chain
//! therefore iterates a flat container — there is no recursive `Drop` to
//! overflow the host stack on (regression-tested by
//! `tests/deep_recursion.rs`). Keep it that way: if a variant ever owns
//! child `Value`s directly, it needs an iterative `Drop` like the one on
//! `jns_types::CExpr`.

use jns_types::{ClassId, FxHashMap, Name};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A heap location ℓ.
pub type Loc = u32;

/// An interned mask set: an index into the [`MaskPool`] of the machine
/// that produced it. Ids are only meaningful within one pool; id 0 is
/// always ∅.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskId(u32);

impl MaskId {
    /// The empty mask set (every field readable).
    pub const EMPTY: MaskId = MaskId(0);

    /// Whether this is the empty set (decidable without the pool).
    pub fn is_empty(self) -> bool {
        self == MaskId::EMPTY
    }
}

/// Interned mask sets, one [`MaskId`] per distinct set. A monotone cache:
/// entries are never removed, so a pool survives per-request resets the
/// way inline caches do, and the two set operations the semantics needs
/// — `grant(σ, x.f)` and the `⊆` test of the `view` function — are
/// memoised on ids.
#[derive(Debug)]
pub struct MaskPool {
    sets: Vec<BTreeSet<Name>>,
    ids: FxHashMap<BTreeSet<Name>, MaskId>,
    grants: FxHashMap<(MaskId, Name), MaskId>,
    subsets: FxHashMap<(MaskId, MaskId), bool>,
}

impl Default for MaskPool {
    fn default() -> Self {
        MaskPool {
            sets: vec![BTreeSet::new()],
            ids: FxHashMap::from_iter([(BTreeSet::new(), MaskId::EMPTY)]),
            grants: FxHashMap::default(),
            subsets: FxHashMap::default(),
        }
    }
}

impl MaskPool {
    /// Interns `set`; `true` means it was not in the pool before (a
    /// fresh entry).
    pub fn intern(&mut self, set: BTreeSet<Name>) -> (MaskId, bool) {
        if set.is_empty() {
            return (MaskId::EMPTY, false);
        }
        if let Some(&id) = self.ids.get(&set) {
            return (id, false);
        }
        let id = MaskId(self.sets.len() as u32);
        self.sets.push(set.clone());
        self.ids.insert(set, id);
        (id, true)
    }

    /// The set an id denotes.
    pub fn get(&self, id: MaskId) -> &BTreeSet<Name> {
        &self.sets[id.0 as usize]
    }

    /// `grant(σ, x.f)`: `id` without `f` (memoised). Granting a field
    /// that is not masked returns `id` itself; `true` means the result
    /// is a fresh entry.
    pub fn grant(&mut self, id: MaskId, f: Name) -> (MaskId, bool) {
        if id.is_empty() {
            return (id, false);
        }
        if let Some(&g) = self.grants.get(&(id, f)) {
            return (g, false);
        }
        let set = self.get(id);
        let (g, fresh) = if set.contains(&f) {
            let mut rest = set.clone();
            rest.remove(&f);
            self.intern(rest)
        } else {
            (id, false)
        };
        self.grants.insert((id, f), g);
        (g, fresh)
    }

    /// Whether `a ⊆ b` (memoised).
    pub fn is_subset(&mut self, a: MaskId, b: MaskId) -> bool {
        if a == b || a.is_empty() {
            return true;
        }
        if b.is_empty() {
            return false;
        }
        if let Some(&s) = self.subsets.get(&(a, b)) {
            return s;
        }
        let s = self.get(a).is_subset(self.get(b));
        self.subsets.insert((a, b), s);
        s
    }
}

/// A reference value ⟨ℓ, P!\f⟩: identity (`loc`) plus behaviour (`view`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefVal {
    /// The heap location — object identity, preserved across view changes.
    pub loc: Loc,
    /// The current view: the exact class this reference sees.
    pub view: ClassId,
    /// Masked (unreadable) fields of this reference, interned in the
    /// executing machine's [`MaskPool`].
    pub masks: MaskId,
}

/// A run-time value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Immutable string.
    Str(Arc<str>),
    /// Unit.
    Unit,
    /// An object reference.
    Ref(RefVal),
}

impl Value {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an int.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The reference, if this is an object.
    pub fn as_ref_val(&self) -> Option<&RefVal> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Unit => write!(f, "()"),
            Value::Ref(r) => write!(f, "<obj@{} view #{}>", r.loc, r.view.0),
        }
    }
}

// Runtime values cross thread boundaries in `jns-serve`; keep them
// `Send + Sync` (compile error here = a non-shareable type crept in).
// `RefVal` must stay `Copy`: the VM's hot path relies on references
// moving without reference-count traffic.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_copy<T: Copy>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<RefVal>();
    assert_copy::<RefVal>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn set(names: &[u32]) -> BTreeSet<Name> {
        names.iter().map(|&n| Name(n)).collect()
    }

    #[test]
    fn empty_set_is_id_zero() {
        let mut pool = MaskPool::default();
        assert_eq!(pool.intern(BTreeSet::new()), (MaskId::EMPTY, false));
        assert!(pool.get(MaskId::EMPTY).is_empty());
    }

    #[test]
    fn intern_dedups() {
        let mut pool = MaskPool::default();
        let (a, fresh) = pool.intern(set(&[1, 2]));
        assert!(fresh);
        assert_ne!(a, MaskId::EMPTY);
        assert_eq!(pool.intern(set(&[2, 1])), (a, false));
        let (b, fresh) = pool.intern(set(&[1]));
        assert!(fresh);
        assert_ne!(a, b);
        assert_eq!(pool.get(a), &set(&[1, 2]));
    }

    #[test]
    fn grant_is_memoised_and_interns_its_result() {
        let mut pool = MaskPool::default();
        let (a, _) = pool.intern(set(&[1, 2]));
        let (g, fresh) = pool.grant(a, Name(1));
        assert!(fresh, "{{2}} was not in the pool yet");
        assert_eq!(pool.get(g), &set(&[2]));
        assert_eq!(pool.grant(a, Name(1)), (g, false), "memo hit");
        assert_eq!(pool.intern(set(&[2])), (g, false), "same entry as intern");
        let (none, fresh) = pool.grant(g, Name(2));
        assert_eq!((none, fresh), (MaskId::EMPTY, false));
    }

    #[test]
    fn grant_of_an_absent_field_returns_the_same_id() {
        let mut pool = MaskPool::default();
        let (a, _) = pool.intern(set(&[1, 2]));
        assert_eq!(pool.grant(a, Name(9)), (a, false));
        assert_eq!(pool.grant(MaskId::EMPTY, Name(1)), (MaskId::EMPTY, false));
    }

    #[test]
    fn subset_matches_the_sets() {
        let mut pool = MaskPool::default();
        let (ab, _) = pool.intern(set(&[1, 2]));
        let (a, _) = pool.intern(set(&[1]));
        let (c, _) = pool.intern(set(&[3]));
        assert!(pool.is_subset(MaskId::EMPTY, ab));
        assert!(pool.is_subset(a, ab));
        assert!(pool.is_subset(a, ab), "memoised answer agrees");
        assert!(!pool.is_subset(ab, a));
        assert!(!pool.is_subset(c, ab));
        assert!(!pool.is_subset(a, MaskId::EMPTY));
        assert!(pool.is_subset(ab, ab));
    }
}
