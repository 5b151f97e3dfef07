//! Persistent (immutable, structurally shared) collections.
//!
//! Offline stand-in for the `im` crate, written for the symbolic-execution
//! engine's copy-on-write path states. Two containers:
//!
//! * [`OrdMap`]: an ordered map backed by a weight-balanced binary search
//!   tree whose nodes are shared through [`Arc`]. `clone` is O(1);
//!   `insert`/`remove` are O(log n). They update in place the nodes on the
//!   search path that the map owns alone and copy the ones it shares, so a
//!   node reachable from more than one map is never mutated: a clone keeps
//!   seeing exactly what it held, and a map that forks rarely allocates
//!   only for the entries it adds.
//! * [`Vector`]: an append-friendly sequence stored as frozen `Arc`-shared
//!   chunks plus a small mutable tail. `clone` copies only the chunk table
//!   and the tail (≤ one chunk of elements), not the history.
//!
//! Both containers serialize **byte-identically** to their `std`
//! counterparts (`BTreeMap` / `Vec`) through the vendored `serde` shim, and
//! hash with the same stream as `std` (length prefix via `write_usize`,
//! then elements in order) so persisted digests do not change when a
//! `BTreeMap` is swapped for an [`OrdMap`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, DeserializeOwned, Deserializer, Serialize, Serializer};

// ---------------------------------------------------------------------------
// OrdMap
// ---------------------------------------------------------------------------

/// Rebalance threshold of the weight-balanced tree (Adams' `delta`): a
/// sibling may be at most `DELTA` times heavier before a rotation.
const DELTA: usize = 3;
/// Single-vs-double rotation threshold (Adams' `ratio`).
const RATIO: usize = 2;

#[derive(Debug, Clone)]
struct Node<K, V> {
    size: usize,
    key: K,
    value: V,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

fn size<K, V>(link: &Link<K, V>) -> usize {
    link.as_ref().map_or(0, |n| n.size)
}

/// A persistent ordered map with `Arc`-shared tree nodes.
///
/// Cloning is O(1) (a single reference-count bump). An update walks the
/// O(log n) path from the root to the changed node, mutating the nodes the
/// map owns alone and copying the shared ones. Iteration yields entries in
/// ascending key order, exactly like `BTreeMap`.
pub struct OrdMap<K, V> {
    root: Link<K, V>,
}

impl<K, V> Clone for OrdMap<K, V> {
    fn clone(&self) -> Self {
        OrdMap {
            root: self.root.clone(),
        }
    }
}

impl<K, V> Default for OrdMap<K, V> {
    fn default() -> Self {
        OrdMap { root: None }
    }
}

impl<K, V> OrdMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        OrdMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.push_left(&self.root);
        iter
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Whether the two maps share their entire root (trivially equal).
    fn same_root(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Diagnostic: total tree nodes (one per entry in this representation).
    pub fn node_count(&self) -> usize {
        size(&self.root)
    }

    /// Diagnostic: how many of `self`'s tree nodes are the *same
    /// allocation* as a node reachable from `other` — the structure a fork
    /// shares with its sibling instead of copying. A shared node implies
    /// its whole subtree is shared (a node reachable from more than one map
    /// is never mutated), so matches are counted subtree-at-a-time.
    pub fn shared_node_count(&self, other: &Self) -> usize {
        let mut theirs = std::collections::HashSet::new();
        fn collect<K, V>(
            link: &Link<K, V>,
            out: &mut std::collections::HashSet<*const Node<K, V>>,
        ) {
            if let Some(node) = link {
                if out.insert(Arc::as_ptr(node)) {
                    collect(&node.left, out);
                    collect(&node.right, out);
                }
            }
        }
        collect(&other.root, &mut theirs);
        fn count<K, V>(
            link: &Link<K, V>,
            theirs: &std::collections::HashSet<*const Node<K, V>>,
        ) -> usize {
            match link {
                None => 0,
                Some(node) if theirs.contains(&Arc::as_ptr(node)) => node.size,
                Some(node) => count(&node.left, theirs) + count(&node.right, theirs),
            }
        }
        count(&self.root, &theirs)
    }
}

impl<K: Ord, V> OrdMap<K, V> {
    /// The value bound to `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.node_of(key).map(|node| &node.value)
    }

    /// The tree node holding `key`, if any.
    fn node_of(&self, key: &K) -> Option<&Arc<Node<K, V>>> {
        let mut cur = &self.root;
        while let Some(node) = cur {
            match key.cmp(&node.key) {
                Ordering::Less => cur = &node.left,
                Ordering::Greater => cur = &node.right,
                Ordering::Equal => return Some(node),
            }
        }
        None
    }

    /// Whether `key` is bound.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The entries whose keys the monotonic comparator maps to
    /// [`Ordering::Equal`], in ascending key order, in O(log n + m).
    ///
    /// `cmp` positions a key relative to the wanted window: `Less` = below
    /// it, `Equal` = inside it, `Greater` = above it. It must be monotonic
    /// with respect to the key order or the result is unspecified.
    pub fn range_by<F: Fn(&K) -> Ordering>(&self, cmp: F) -> Vec<(&K, &V)> {
        fn walk<'a, K, V, F: Fn(&K) -> Ordering>(
            link: &'a Link<K, V>,
            cmp: &F,
            out: &mut Vec<(&'a K, &'a V)>,
        ) {
            let Some(node) = link else { return };
            match cmp(&node.key) {
                // Key below the window: everything interesting is right.
                Ordering::Less => walk(&node.right, cmp, out),
                // Key above the window: everything interesting is left.
                Ordering::Greater => walk(&node.left, cmp, out),
                Ordering::Equal => {
                    walk(&node.left, cmp, out);
                    out.push((&node.key, &node.value));
                    walk(&node.right, cmp, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &cmp, &mut out);
        out
    }

    /// The least key the monotonic comparator maps to
    /// [`Ordering::Equal`], in O(log n) and without allocating; `cmp` is
    /// as for [`OrdMap::range_by`].
    pub fn first_by<F: Fn(&K) -> Ordering>(&self, cmp: F) -> Option<&K> {
        let mut cur = &self.root;
        let mut first = None;
        while let Some(node) = cur {
            match cmp(&node.key) {
                Ordering::Less => cur = &node.right,
                Ordering::Greater => cur = &node.left,
                Ordering::Equal => {
                    first = Some(&node.key);
                    cur = &node.left;
                }
            }
        }
        first
    }
}

impl<K: Ord + Clone, V: Clone> OrdMap<K, V> {
    /// Binds `key` to `value`, returning the previous binding if any.
    ///
    /// Updates in place every node on the search path that this map owns
    /// alone; a node also reachable from another map (a clone) is copied
    /// first, so the other map never sees the change.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        insert(&mut self.root, key, value)
    }

    /// Removes `key`, returning its binding if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        // Look before touching: removing an absent key (the common case
        // of binding ⊥ in a taint map) must not copy a shared spine.
        if !self.contains_key(key) {
            return None;
        }
        Some(remove(&mut self.root, key))
    }
}

fn insert<K: Ord + Clone, V: Clone>(link: &mut Link<K, V>, key: K, value: V) -> Option<V> {
    let Some(node) = link.as_mut() else {
        *link = Some(Arc::new(Node {
            size: 1,
            key,
            value,
            left: None,
            right: None,
        }));
        return None;
    };
    let node = Arc::make_mut(node);
    let old = match key.cmp(&node.key) {
        Ordering::Equal => return Some(std::mem::replace(&mut node.value, value)),
        Ordering::Less => insert(&mut node.left, key, value),
        Ordering::Greater => insert(&mut node.right, key, value),
    };
    if old.is_none() {
        node.size += 1;
        rebalance(link);
    }
    old
}

/// Removes `key`, which must be bound in the subtree, returning its value.
fn remove<K: Ord + Clone, V: Clone>(link: &mut Link<K, V>, key: &K) -> V {
    let order = key.cmp(&link.as_ref().expect("key is bound").key);
    if order == Ordering::Equal {
        return remove_top(link);
    }
    let node = Arc::make_mut(link.as_mut().expect("key is bound"));
    let old = match order {
        Ordering::Less => remove(&mut node.left, key),
        _ => remove(&mut node.right, key),
    };
    node.size -= 1;
    rebalance(link);
    old
}

/// Removes the top entry of a non-empty subtree, returning its value. The
/// successor (least key on the right) takes its place.
fn remove_top<K: Ord + Clone, V: Clone>(link: &mut Link<K, V>) -> V {
    let top = link.as_ref().expect("subtree is non-empty");
    if top.left.is_none() || top.right.is_none() {
        let Node {
            value, left, right, ..
        } = Arc::unwrap_or_clone(link.take().expect("subtree is non-empty"));
        *link = left.or(right);
        return value;
    }
    let node = Arc::make_mut(link.as_mut().expect("subtree is non-empty"));
    let (key, value) = remove_min(&mut node.right);
    node.key = key;
    node.size -= 1;
    let old = std::mem::replace(&mut node.value, value);
    rebalance(link);
    old
}

/// Removes and returns the least entry of a non-empty subtree.
fn remove_min<K: Clone, V: Clone>(link: &mut Link<K, V>) -> (K, V) {
    if link.as_ref().expect("subtree is non-empty").left.is_none() {
        let Node {
            key, value, right, ..
        } = Arc::unwrap_or_clone(link.take().expect("subtree is non-empty"));
        *link = right;
        return (key, value);
    }
    let node = Arc::make_mut(link.as_mut().expect("subtree is non-empty"));
    let min = remove_min(&mut node.left);
    node.size -= 1;
    rebalance(link);
    min
}

/// Restores the weight-balance invariant at the top of a subtree after one
/// insert or remove below it, with at most a double rotation. A node
/// within the bound is left as it is.
fn rebalance<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let node = link.as_ref().expect("subtree is non-empty");
    let (ls, rs) = (size(&node.left), size(&node.right));
    if ls + rs <= 1 {
        return;
    }
    if rs > DELTA * ls {
        // Right too heavy: single left rotation, or a double one through
        // the right child's left subtree.
        let r = node.right.as_ref().expect("right is non-empty");
        if size(&r.left) >= RATIO * size(&r.right) {
            let node = Arc::make_mut(link.as_mut().expect("subtree is non-empty"));
            rotate_right(&mut node.right);
        }
        rotate_left(link);
    } else if ls > DELTA * rs {
        // Left too heavy: the mirror image.
        let l = node.left.as_ref().expect("left is non-empty");
        if size(&l.right) >= RATIO * size(&l.left) {
            let node = Arc::make_mut(link.as_mut().expect("subtree is non-empty"));
            rotate_left(&mut node.left);
        }
        rotate_right(link);
    }
}

/// Makes the right child the top of the subtree.
fn rotate_left<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let mut top = link.take().expect("subtree is non-empty");
    let node = Arc::make_mut(&mut top);
    let mut pivot = node.right.take().expect("right is non-empty");
    let up = Arc::make_mut(&mut pivot);
    node.right = up.left.take();
    node.size = size(&node.left) + size(&node.right) + 1;
    up.left = Some(top);
    up.size = size(&up.left) + size(&up.right) + 1;
    *link = Some(pivot);
}

/// Makes the left child the top of the subtree.
fn rotate_right<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let mut top = link.take().expect("subtree is non-empty");
    let node = Arc::make_mut(&mut top);
    let mut pivot = node.left.take().expect("left is non-empty");
    let up = Arc::make_mut(&mut pivot);
    node.left = up.right.take();
    node.size = size(&node.left) + size(&node.right) + 1;
    up.right = Some(top);
    up.size = size(&up.left) + size(&up.right) + 1;
    *link = Some(pivot);
}

/// In-order iterator over an [`OrdMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<K, V> Clone for Iter<'_, K, V> {
    fn clone(&self) -> Self {
        Iter {
            stack: self.stack.clone(),
        }
    }
}

impl<'a, K, V> Iter<'a, K, V> {
    fn push_left(&mut self, mut link: &'a Link<K, V>) {
        while let Some(node) = link {
            self.stack.push(node);
            link = &node.left;
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        self.push_left(&node.right);
        Some((&node.key, &node.value))
    }
}

impl<'a, K, V> IntoIterator for &'a OrdMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for OrdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = OrdMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: Ord + Clone, V: Clone> Extend<(K, V)> for OrdMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for OrdMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        if self.same_root(other) {
            return true;
        }
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq> Eq for OrdMap<K, V> {}

impl<K: Hash, V: Hash> Hash for OrdMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Mirror BTreeMap's stream: a `write_length_prefix` (which lowers
        // to `write_usize` on hashers that don't override it — all of
        // ours), then the entries in key order.
        state.write_usize(self.len());
        for (k, v) in self.iter() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for OrdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Serialize, V: Serialize> Serialize for OrdMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Same shape as BTreeMap: object for string/number-renderable keys,
        // array of [key, value] pairs otherwise.
        serde::serialize_map_entries(self.iter(), serializer)
    }
}

impl<'de, K, V> Deserialize<'de> for OrdMap<K, V>
where
    K: DeserializeOwned + Ord + Clone,
    V: DeserializeOwned + Clone,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs: Vec<(K, V)> = serde::deserialize_map_entries(deserializer.take_value()?)?;
        Ok(pairs.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Vector
// ---------------------------------------------------------------------------

/// Elements per frozen chunk. Forks copy at most this many elements (the
/// mutable tail) plus one Arc per frozen chunk.
const CHUNK: usize = 64;

/// A persistent, append-friendly sequence: frozen `Arc`-shared chunks plus
/// a small mutable tail.
///
/// Cloning copies the chunk table (one `Arc` bump per `CHUNK` elements)
/// and the tail — not the elements of the shared history. Push is amortized
/// O(1). Iteration order and serialization are identical to `Vec`.
pub struct Vector<T> {
    chunks: Vec<Arc<Vec<T>>>,
    tail: Vec<T>,
}

impl<T> Clone for Vector<T>
where
    T: Clone,
{
    fn clone(&self) -> Self {
        Vector {
            chunks: self.chunks.clone(),
            tail: self.tail.clone(),
        }
    }
}

impl<T> Default for Vector<T> {
    fn default() -> Self {
        Vector {
            chunks: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> Vector<T> {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Vector::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.chunks.len() * CHUNK + self.tail.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.tail.is_empty()
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        let frozen = self.chunks.len() * CHUNK;
        if index < frozen {
            Some(&self.chunks[index / CHUNK][index % CHUNK])
        } else {
            self.tail.get(index - frozen)
        }
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.tail
            .last()
            .or_else(|| self.chunks.last().and_then(|c| c.last()))
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == CHUNK {
            let frozen = std::mem::take(&mut self.tail);
            self.chunks.push(Arc::new(frozen));
        }
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// Diagnostic: elements living in frozen `Arc`-shared chunks (the rest
    /// sit in the mutable tail, which every clone copies).
    pub fn frozen_len(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Diagnostic: how many elements of `self` live in a chunk that is the
    /// *same allocation* as the corresponding chunk of `other`. Chunks are
    /// append-only, so comparison is positional.
    pub fn shared_len(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .zip(other.chunks.iter())
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count()
            * CHUNK
    }

    /// Iterates the elements from `start` (inclusive) to the end, skipping
    /// whole frozen chunks in O(start / CHUNK).
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        let first_chunk = (start / CHUNK).min(self.chunks.len());
        let skipped = first_chunk * CHUNK;
        self.chunks[first_chunk..]
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
            .skip(start - skipped)
    }
}

impl<T: Clone> Vector<T> {
    /// Shortens the sequence to `len` elements (no-op if already shorter).
    ///
    /// Frozen chunks wholly below `len` stay shared with every clone; only
    /// the partial chunk `len` falls into (fewer than `CHUNK` elements) is
    /// copied back into the mutable tail.
    pub fn truncate(&mut self, len: usize) {
        let frozen = self.chunks.len() * CHUNK;
        if len >= frozen {
            self.tail.truncate(len - frozen);
            return;
        }
        let keep = len / CHUNK;
        self.tail = self.chunks[keep][..len % CHUNK].to_vec();
        self.chunks.truncate(keep);
    }

    /// Copies the elements into a `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T> FromIterator<T> for Vector<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Vector::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T> Extend<T> for Vector<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T> From<Vec<T>> for Vector<T> {
    fn from(items: Vec<T>) -> Self {
        items.into_iter().collect()
    }
}

impl<T: PartialEq> PartialEq for Vector<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for Vector<T> {}

impl<T: Hash> Hash for Vector<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for item in self.iter() {
            item.hash(state);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Serialize> Serialize for Vector<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Same shape as Vec: a JSON array.
        let mut items = Vec::with_capacity(self.len());
        for item in self.iter() {
            items.push(serde::to_value(item)?);
        }
        serializer.serialize_value(serde::Value::Array(items))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vector<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items: Vec<T> = Vec::deserialize(deserializer)?;
        Ok(items.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Deterministic pseudo-random stream (xorshift) — no rand dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let mut map: OrdMap<u64, u64> = OrdMap::new();
        for _ in 0..4000 {
            let k = rng.next() % 512;
            if rng.next().is_multiple_of(4) {
                assert_eq!(map.remove(&k), reference.remove(&k));
            } else {
                let v = rng.next();
                assert_eq!(map.insert(k, v), reference.insert(k, v));
            }
            assert_eq!(map.len(), reference.len());
        }
        let got: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        for k in 0..512 {
            assert_eq!(map.get(&k), reference.get(&k));
        }
    }

    #[test]
    fn sequential_inserts_stay_balanced() {
        let mut map: OrdMap<u32, u32> = OrdMap::new();
        for i in 0..4096 {
            map.insert(i, i);
        }
        fn depth<K, V>(link: &Link<K, V>) -> usize {
            link.as_ref()
                .map_or(0, |n| 1 + depth(&n.left).max(depth(&n.right)))
        }
        // Weight-balanced trees with delta = 3 stay within ~2 log2 n.
        assert!(depth(&map.root) <= 2 * 12 + 2, "depth {}", depth(&map.root));
    }

    #[test]
    fn clone_shares_structure_and_diverges_on_write() {
        let mut a: OrdMap<u32, &str> = OrdMap::new();
        for i in 0..100 {
            a.insert(i, "old");
        }
        let mut b = a.clone();
        assert!(a.same_root(&b));
        b.insert(50, "new");
        assert_eq!(a.get(&50), Some(&"old"));
        assert_eq!(b.get(&50), Some(&"new"));
        assert_eq!(a.len(), b.len());
    }

    fn check_weights<K, V>(link: &Link<K, V>) {
        let Some(node) = link else { return };
        let (ls, rs) = (size(&node.left), size(&node.right));
        if ls + rs > 1 {
            assert!(ls <= DELTA * rs, "left-heavy violation {ls} vs {rs}");
            assert!(rs <= DELTA * ls, "right-heavy violation {ls} vs {rs}");
        }
        assert_eq!(node.size, ls + rs + 1);
        check_weights(&node.left);
        check_weights(&node.right);
    }

    #[test]
    fn weight_invariant_holds_after_mixed_ops() {
        let mut rng = Rng(42);
        let mut map: OrdMap<u64, u64> = OrdMap::new();
        for _ in 0..2000 {
            let k = rng.next() % 256;
            if rng.next().is_multiple_of(3) {
                map.remove(&k);
            } else {
                map.insert(k, k);
            }
        }
        check_weights(&map.root);
    }

    #[test]
    fn serializes_like_btreemap_with_number_keys() {
        let mut reference: BTreeMap<u32, String> = BTreeMap::new();
        let mut map: OrdMap<u32, String> = OrdMap::new();
        for i in [5u32, 1, 3] {
            reference.insert(i, format!("v{i}"));
            map.insert(i, format!("v{i}"));
        }
        assert_eq!(
            serde_json::to_string(&map).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        let back: OrdMap<u32, String> =
            serde_json::from_str(&serde_json::to_string(&map).unwrap()).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn serializes_like_btreemap_with_structured_keys() {
        let mut reference: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        let mut map: OrdMap<(u32, u32), u32> = OrdMap::new();
        for (a, b) in [(2, 1), (1, 9), (1, 2)] {
            reference.insert((a, b), a + b);
            map.insert((a, b), a + b);
        }
        assert_eq!(
            serde_json::to_string(&map).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        let back: OrdMap<(u32, u32), u32> =
            serde_json::from_str(&serde_json::to_string(&map).unwrap()).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn hashes_like_btreemap() {
        // With a hasher that only implements `write`, OrdMap and BTreeMap
        // must produce identical streams (this is what keeps persisted
        // probe digests stable).
        #[derive(Default)]
        struct Collect(Vec<u8>);
        impl Hasher for Collect {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
        let mut map: OrdMap<u32, u32> = OrdMap::new();
        for i in [7u32, 2, 9, 4] {
            reference.insert(i, i * 10);
            map.insert(i, i * 10);
        }
        let mut a = Collect::default();
        let mut b = Collect::default();
        map.hash(&mut a);
        reference.hash(&mut b);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn range_by_finds_contiguous_window() {
        let mut map: OrdMap<(u32, u32), u32> = OrdMap::new();
        for a in 0..8 {
            for b in 0..8 {
                map.insert((a, b), a * 100 + b);
            }
        }
        let window = map.range_by(|k| k.0.cmp(&3));
        assert_eq!(window.len(), 8);
        assert!(window.iter().all(|(k, _)| k.0 == 3));
        let keys: Vec<u32> = window.iter().map(|(k, _)| k.1).collect();
        assert_eq!(keys, (0..8).collect::<Vec<_>>());
        assert!(map.range_by(|k| k.0.cmp(&99)).is_empty());
        assert_eq!(map.first_by(|k| k.0.cmp(&3)), Some(&(3, 0)));
        assert_eq!(map.first_by(|k| k.0.cmp(&99)), None);
    }

    /// Every map must equal its snapshot after later updates to other maps
    /// that share its nodes, whichever of them owns a node alone.
    #[test]
    fn clones_keep_their_snapshot_under_in_place_updates() {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for _ in 0..20 {
            let mut maps: Vec<(OrdMap<u64, u64>, BTreeMap<u64, u64>)> =
                vec![(OrdMap::new(), BTreeMap::new())];
            for _ in 0..600 {
                let i = (rng.next() % maps.len() as u64) as usize;
                if rng.next().is_multiple_of(16) && maps.len() < 8 {
                    let copy = maps[i].clone();
                    maps.push(copy);
                    continue;
                }
                let k = rng.next() % 128;
                let (map, reference) = &mut maps[i];
                if rng.next().is_multiple_of(3) {
                    assert_eq!(map.remove(&k), reference.remove(&k));
                } else {
                    let v = rng.next();
                    assert_eq!(map.insert(k, v), reference.insert(k, v));
                }
            }
            for (map, reference) in &maps {
                let got: BTreeMap<u64, u64> = map.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(&got, reference);
                assert_eq!(map.len(), reference.len());
                check_weights(&map.root);
            }
        }
    }

    #[test]
    fn removing_an_absent_key_from_a_shared_map_copies_nothing() {
        let base: OrdMap<u32, u32> = (0..127).map(|i| (i * 2, i)).collect();
        let mut shared = base.clone();
        assert_eq!(shared.remove(&7), None);
        assert!(shared.same_root(&base));
        assert_eq!(shared.shared_node_count(&base), base.node_count());
    }

    #[test]
    fn rebinding_a_key_in_an_unshared_map_keeps_its_nodes() {
        let mut map: OrdMap<u32, u32> = (0..127).map(|i| (i, i)).collect();
        let root = Arc::as_ptr(map.root.as_ref().expect("non-empty"));
        assert_eq!(map.insert(100, 7), Some(100));
        assert_eq!(Arc::as_ptr(map.root.as_ref().expect("non-empty")), root);
        assert_eq!(map.get(&100), Some(&7));
        // A live clone forces the copy instead.
        let snapshot = map.clone();
        map.insert(100, 8);
        assert_ne!(Arc::as_ptr(map.root.as_ref().expect("non-empty")), root);
        assert_eq!(snapshot.get(&100), Some(&7));
    }

    #[test]
    fn vector_behaves_like_vec() {
        let mut v: Vector<u32> = Vector::new();
        let mut reference: Vec<u32> = Vec::new();
        for i in 0..500 {
            v.push(i);
            reference.push(i);
            assert_eq!(v.len(), reference.len());
        }
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), reference);
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(499), Some(&499));
        assert_eq!(v.get(500), None);
        assert_eq!(v.last(), Some(&499));
        for start in [0, 1, 63, 64, 65, 200, 499, 500, 900] {
            assert_eq!(
                v.iter_from(start).copied().collect::<Vec<_>>(),
                reference[start.min(reference.len())..].to_vec(),
                "start {start}"
            );
        }
    }

    #[test]
    fn vector_clone_shares_frozen_chunks() {
        let mut v: Vector<u32> = (0..300).collect();
        let w = v.clone();
        v.push(300);
        assert_eq!(w.len(), 300);
        assert_eq!(v.len(), 301);
        assert_eq!(
            w.iter().copied().collect::<Vec<_>>(),
            (0..300).collect::<Vec<_>>()
        );
        // Frozen chunks are shared, not copied.
        assert!(Arc::ptr_eq(&v.chunks[0], &w.chunks[0]));
    }

    #[test]
    fn sharing_diagnostics_track_path_copies() {
        let base: OrdMap<u32, u32> = (0..127).map(|i| (i, i)).collect();
        let same = base.clone();
        assert_eq!(same.shared_node_count(&base), base.node_count());

        let mut forked = base.clone();
        forked.insert(42, 999);
        let shared = forked.shared_node_count(&base);
        assert_eq!(forked.node_count(), 127);
        // An insert into a clone copies the O(log n) shared spine; the rest is
        // still the parent's allocation.
        assert!(shared >= 127 - 8, "only {shared} of 127 nodes shared");
        assert!(shared < 127);

        let disjoint: OrdMap<u32, u32> = (0..127).map(|i| (i, i)).collect();
        assert_eq!(disjoint.shared_node_count(&base), 0);

        let mut v: Vector<u32> = (0..130).collect();
        let w = v.clone();
        v.push(130);
        assert_eq!(v.shared_len(&w), 128);
        assert_eq!(v.frozen_len(), 128);
    }

    #[test]
    fn vector_truncate_keeps_frozen_chunks_shared() {
        let original: Vector<u32> = (0..300).collect();
        for len in [0, 1, 63, 64, 65, 128, 200, 256, 299, 300, 400] {
            let mut v = original.clone();
            v.truncate(len);
            let want: Vec<u32> = (0..300u32.min(len as u32)).collect();
            assert_eq!(v.to_vec(), want, "len {len}");
            assert_eq!(v.shared_len(&original), (len.min(300) / CHUNK) * CHUNK);
            v.push(7);
            assert_eq!(v.len(), len.min(300) + 1);
            assert_eq!(v.last(), Some(&7));
        }
    }

    #[test]
    fn vector_serializes_like_vec() {
        let v: Vector<u32> = (0..130).collect();
        let reference: Vec<u32> = (0..130).collect();
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        let back: Vector<u32> = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }
}
