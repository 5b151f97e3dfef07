//! Hash-consed handles for symbolic values and regions.
//!
//! [`HC<T>`] replaces the `Box<T>` edges inside [`crate::value::SVal`] and
//! [`crate::value::Region`], turning expression trees into `Arc`-shared
//! DAGs: cloning a value (and therefore forking a path state that holds
//! it) is a reference-count bump instead of a deep copy, and structurally
//! equal subtrees built on the same thread collapse onto one allocation
//! through a per-thread weak interner.
//!
//! ## Invariants that keep output byte-identical
//!
//! * `Hash` recurses **structurally** into `T`, exactly as `Box<T>` did —
//!   the cached [`HC::cached_hash`] never reaches a `std::hash::Hasher`,
//!   so persisted probe digests (`checkpoint::probe_key`) are unchanged.
//! * `Ord`/`Eq` agree with `T`'s ordering (pointer comparison is only a
//!   fast path for equality, never an ordering).
//! * `Serialize`/`Deserialize` delegate to `T`, producing the same JSON
//!   shape as a `Box<T>` edge.
//!
//! Interning is per-thread (worker tasks each keep their own table), which
//! can only lose sharing across threads, never correctness: two equal
//! values interned on different threads compare equal through the
//! structural fallback.
//!
//! ## Per-node facts
//!
//! A node is immutable once interned, so facts about its subtree are
//! computed once and stored beside it:
//!
//! * [`Intern::tree_size`] — the subtree's node count (shared subtrees
//!   counted once per occurrence), saturating at `u32::MAX`, computed from
//!   the children's cached sizes when the node is created. It makes
//!   [`crate::value::SVal::size_within`] O(1).
//! * the *normal* flag — set by [`crate::simplify`] only after it has
//!   computed that simplifying the node yields the node itself, so later
//!   calls return a flagged subtree without walking it. The flag guards a
//!   pure function of immutable data: a thread that reads `true` learns a
//!   fact that holds forever, and one that reads `false` merely recomputes
//!   it. No other memory is published through the flag, so `Relaxed`
//!   ordering suffices even though nodes are shared across worker threads.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Weak};

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A node interned by a thread-local table: the precomputed shallow hash,
/// the cached subtree size and normal flag (see the module docs), plus the
/// value itself.
#[derive(Debug)]
struct HcNode<T> {
    hash: u64,
    size: u32,
    normal: AtomicBool,
    value: T,
}

/// A hash-consed, `Arc`-shared handle to a `T`.
pub struct HC<T>(Arc<HcNode<T>>);

/// Types that can be interned: they provide a cheap *shallow* hash (their
/// own fields plus the cached hashes of any [`HC`] children — O(node), not
/// O(subtree)) and a thread-local interner table.
pub trait Intern: Sized + Eq {
    /// Hash of this node computed from its immediate fields, using
    /// [`HC::cached_hash`] for hash-consed children.
    fn shallow_hash(&self) -> u64;
    /// Node count of the tree this value roots, computed from the cached
    /// sizes of its [`HC`] children and saturating at `u32::MAX`.
    fn tree_size(&self) -> u32;
    /// Grants access to the thread-local interner for `Self`.
    fn with_interner<R>(f: impl FnOnce(&mut Interner<Self>) -> R) -> R;
}

/// A weak hash-bucketed interner table. Dead entries (nodes whose last
/// strong reference dropped) are pruned lazily whenever their bucket is
/// visited, and by a whole-table sweep once the table has doubled since
/// the last one.
///
/// A dead entry still pins its node's allocation (a `Weak` keeps the
/// `Arc` block alive). Bucket visits alone only reclaim entries whose
/// exact hash recurs, so on a long-lived thread that analyzes one module
/// after another the table would otherwise grow with every distinct node
/// it ever interned. The sweep bounds it by twice the live count at the
/// previous sweep, at amortized O(1) per insert.
pub struct Interner<T> {
    buckets: HashMap<u64, Vec<Weak<HcNode<T>>>>,
    /// Entries across all buckets, live or dead.
    entries: usize,
    /// The entry count the next sweep waits for.
    sweep_at: usize,
}

/// The smallest table size that triggers a sweep.
const MIN_SWEEP: usize = 4096;

impl<T> Interner<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Interner {
            buckets: HashMap::new(),
            entries: 0,
            sweep_at: MIN_SWEEP,
        }
    }

    /// Entries in the table, live or dead (test/diagnostic helper).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Drops every dead entry and schedules the next sweep for when the
    /// table has doubled again.
    fn sweep(&mut self) {
        self.buckets.retain(|_, bucket| {
            bucket.retain(|weak| weak.strong_count() > 0);
            !bucket.is_empty()
        });
        self.buckets.shrink_to_fit();
        self.entries = self.buckets.values().map(Vec::len).sum();
        self.sweep_at = (2 * self.entries).max(MIN_SWEEP);
    }

    /// Number of live interned nodes (test/diagnostic helper).
    pub fn live(&self) -> usize {
        self.buckets
            .values()
            .map(|b| b.iter().filter(|w| w.strong_count() > 0).count())
            .sum()
    }
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: Intern> Interner<T> {
    /// The canonical handle for `value`'s structure in this table.
    fn intern(&mut self, value: T) -> HC<T> {
        let hash = value.shallow_hash();
        let bucket = self.buckets.entry(hash).or_default();
        let mut i = 0;
        while i < bucket.len() {
            match bucket[i].upgrade() {
                Some(node) => {
                    if node.value == value {
                        return HC(node);
                    }
                    i += 1;
                }
                None => {
                    bucket.swap_remove(i);
                    self.entries -= 1;
                }
            }
        }
        let node = Arc::new(HcNode {
            hash,
            size: value.tree_size(),
            normal: AtomicBool::new(false),
            value,
        });
        bucket.push(Arc::downgrade(&node));
        self.entries += 1;
        if self.entries >= self.sweep_at {
            self.sweep();
        }
        HC(node)
    }
}

impl<T: Intern> HC<T> {
    /// Interns `value`, returning the canonical handle for its structure
    /// on this thread.
    pub fn new(value: T) -> HC<T> {
        T::with_interner(|table| table.intern(value))
    }
}

impl<T> HC<T> {
    /// The precomputed shallow hash. Internal fast path only (interner
    /// buckets, feasibility-cache digests); never fed to a `Hasher`.
    pub fn cached_hash(&self) -> u64 {
        self.0.hash
    }

    /// The cached [`Intern::tree_size`] of this node.
    pub(crate) fn tree_size(&self) -> u32 {
        self.0.size
    }

    /// Whether simplification is known to map this node to itself.
    pub(crate) fn is_normal(&self) -> bool {
        self.0.normal.load(AtomicOrdering::Relaxed)
    }

    /// Records that simplification maps this node to itself. Callers must
    /// have computed that fact; see the module docs.
    pub(crate) fn mark_normal(&self) {
        self.0.normal.store(true, AtomicOrdering::Relaxed);
    }

    /// Whether two handles share the same allocation.
    pub fn ptr_eq(a: &HC<T>, b: &HC<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> Clone for HC<T> {
    fn clone(&self) -> Self {
        HC(Arc::clone(&self.0))
    }
}

impl<T> Deref for HC<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T> AsRef<T> for HC<T> {
    fn as_ref(&self) -> &T {
        &self.0.value
    }
}

impl<T: Eq> PartialEq for HC<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.value == other.0.value)
    }
}

impl<T: Eq> Eq for HC<T> {}

impl<T: Ord> PartialOrd for HC<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for HC<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.0.value.cmp(&other.0.value)
    }
}

impl<T: Hash> Hash for HC<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Structural, like Box<T>: persisted digests must not see the
        // cached hash.
        self.0.value.hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for HC<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: fmt::Display> fmt::Display for HC<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

impl<T: Serialize> Serialize for HC<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.value.serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de> + Intern> Deserialize<'de> for HC<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(HC::new)
    }
}

/// A minimal FNV-1a accumulator for shallow hashes (independent of the
/// checkpoint hasher — this value is never persisted).
#[derive(Clone, Copy)]
pub struct ShallowHasher(u64);

impl ShallowHasher {
    /// Creates the accumulator at the FNV offset basis.
    pub fn new() -> Self {
        ShallowHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes a tag byte (e.g. an enum discriminant).
    pub fn tag(&mut self, t: u8) -> &mut Self {
        self.bytes(&[t])
    }

    /// Mixes a `u64` (e.g. a child's cached hash).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Finishes the hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ShallowHasher {
    fn default() -> Self {
        ShallowHasher::new()
    }
}

/// Declares the thread-local interner table for a type.
macro_rules! thread_local_interner {
    ($ty:ty, $name:ident) => {
        thread_local! {
            static $name: RefCell<Interner<$ty>> = RefCell::new(Interner::new());
        }
    };
}

use crate::value::{Region, SVal};

thread_local_interner!(SVal, SVAL_INTERNER);
thread_local_interner!(Region, REGION_INTERNER);

impl Intern for SVal {
    fn shallow_hash(&self) -> u64 {
        let mut h = ShallowHasher::new();
        match self {
            SVal::Int(v) => {
                h.tag(0).bytes(&v.to_le_bytes());
            }
            SVal::Float(v) => {
                h.tag(1).bytes(&v.0.to_bits().to_le_bytes());
            }
            SVal::Sym(sym) => {
                h.tag(2)
                    .bytes(&sym.id.to_le_bytes())
                    .bytes(sym.hint.as_bytes());
            }
            SVal::Loc(region) => {
                h.tag(3).u64(region.shallow_hash());
            }
            SVal::Binary { op, lhs, rhs } => {
                h.tag(4)
                    .tag(*op as u8)
                    .u64(lhs.cached_hash())
                    .u64(rhs.cached_hash());
            }
            SVal::Unary { op, arg } => {
                h.tag(5).tag(*op as u8).u64(arg.cached_hash());
            }
            SVal::Call { func, args } => {
                h.tag(6).bytes(func.as_bytes());
                for arg in args {
                    h.u64(arg.shallow_hash());
                }
            }
            SVal::Unknown => {
                h.tag(7);
            }
            SVal::Ite { cond, then, els } => {
                h.tag(8)
                    .u64(cond.cached_hash())
                    .u64(then.cached_hash())
                    .u64(els.cached_hash());
            }
        }
        h.finish()
    }

    fn tree_size(&self) -> u32 {
        let children = match self {
            SVal::Int(_) | SVal::Float(_) | SVal::Sym(_) | SVal::Unknown => 0,
            SVal::Loc(region) => region.tree_size(),
            SVal::Binary { lhs, rhs, .. } => lhs.tree_size().saturating_add(rhs.tree_size()),
            SVal::Unary { arg, .. } => arg.tree_size(),
            SVal::Call { args, .. } => args
                .iter()
                .fold(0, |sum: u32, arg| sum.saturating_add(arg.tree_size())),
            SVal::Ite { cond, then, els } => cond
                .tree_size()
                .saturating_add(then.tree_size())
                .saturating_add(els.tree_size()),
        };
        children.saturating_add(1)
    }

    fn with_interner<R>(f: impl FnOnce(&mut Interner<Self>) -> R) -> R {
        SVAL_INTERNER.with(|table| f(&mut table.borrow_mut()))
    }
}

impl Intern for Region {
    fn shallow_hash(&self) -> u64 {
        let mut h = ShallowHasher::new();
        match self {
            Region::Var { frame, name } => {
                h.tag(10).bytes(&frame.to_le_bytes()).bytes(name.as_bytes());
            }
            Region::Global { name } => {
                h.tag(11).bytes(name.as_bytes());
            }
            Region::Element { base, index } => {
                h.tag(12).u64(base.cached_hash()).u64(index.cached_hash());
            }
            Region::Field { base, field } => {
                h.tag(13).u64(base.cached_hash()).bytes(field.as_bytes());
            }
            Region::Sym { symbol } => {
                h.tag(14)
                    .bytes(&symbol.id.to_le_bytes())
                    .bytes(symbol.hint.as_bytes());
            }
            Region::Str { text } => {
                h.tag(15).bytes(text.as_bytes());
            }
        }
        h.finish()
    }

    fn tree_size(&self) -> u32 {
        let children = match self {
            Region::Element { base, index } => base.tree_size().saturating_add(index.tree_size()),
            Region::Field { base, .. } => base.tree_size(),
            Region::Var { .. }
            | Region::Global { .. }
            | Region::Sym { .. }
            | Region::Str { .. } => 0,
        };
        children.saturating_add(1)
    }

    fn with_interner<R>(f: impl FnOnce(&mut Interner<Self>) -> R) -> R {
        REGION_INTERNER.with(|table| f(&mut table.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::ast::BinOp;

    fn expr(id: u32) -> SVal {
        SVal::binary(
            BinOp::Add,
            SVal::Sym(crate::value::Symbol::new(id, "x")),
            SVal::Int(100),
        )
    }

    #[test]
    fn equal_structures_share_one_allocation() {
        let a = expr(1);
        let b = expr(1);
        let (
            SVal::Binary {
                lhs: la, rhs: ra, ..
            },
            SVal::Binary {
                lhs: lb, rhs: rb, ..
            },
        ) = (&a, &b)
        else {
            panic!("binary expected")
        };
        assert!(HC::ptr_eq(la, lb));
        assert!(HC::ptr_eq(ra, rb));
    }

    #[test]
    fn different_structures_do_not_alias() {
        let a = expr(1);
        let b = expr(2);
        let (SVal::Binary { lhs: la, .. }, SVal::Binary { lhs: lb, .. }) = (&a, &b) else {
            panic!("binary expected")
        };
        assert!(!HC::ptr_eq(la, lb));
        assert_ne!(a, b);
    }

    #[test]
    fn hc_hash_is_structural() {
        // HC<T> must feed the hasher the same stream Box<T> would: T's own
        // structural hash, nothing else.
        #[derive(Default)]
        struct Collect(Vec<u8>);
        impl std::hash::Hasher for Collect {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let inner = expr(3);
        let hc = HC::new(inner.clone());
        let boxed = Box::new(inner);
        let mut a = Collect::default();
        let mut b = Collect::default();
        use std::hash::Hash as _;
        hc.hash(&mut a);
        boxed.hash(&mut b);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn ordering_matches_value_ordering() {
        let a = HC::new(SVal::Int(1));
        let b = HC::new(SVal::Int(2));
        assert!(a < b);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn dead_entries_of_distinct_values_are_swept() {
        // Every value below is distinct and dies at once, so no bucket is
        // ever revisited; only the sweep can reclaim their entries.
        let mut table: Interner<SVal> = Interner::new();
        let kept = table.intern(SVal::Int(7));
        let mut peak = 0;
        for id in 0..20 * MIN_SWEEP as u32 {
            drop(table.intern(SVal::Sym(crate::value::Symbol::new(id, "t"))));
            peak = peak.max(table.entries());
        }
        assert!(peak <= MIN_SWEEP, "table reached {peak} entries");
        // The sweep keeps live entries: equal structure still collapses.
        assert_eq!(table.live(), 1);
        assert!(HC::ptr_eq(&kept, &table.intern(SVal::Int(7))));
    }

    #[test]
    fn dead_entries_are_pruned_lazily() {
        let before = SVal::with_interner(|t| t.live());
        {
            let _tmp = expr(900_001);
        }
        // The dropped node's weak entry is pruned on the next visit of its
        // bucket; re-interning the same structure lands on a fresh node.
        let again = expr(900_001);
        assert!(matches!(again, SVal::Binary { .. }));
        let after = SVal::with_interner(|t| t.live());
        // No unbounded growth: at most the nodes of `again` were added.
        assert!(after <= before + 3, "before {before} after {after}");
    }
}
