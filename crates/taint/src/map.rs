//! The `τΔ` taint environment: a mapping from program entities to taint.

use std::fmt;

use im::OrdMap;
use serde::{Deserialize, Serialize};

use crate::lattice::TaintSet;

/// `τΔ` — maps program entities (variables, memory regions, the path
/// constraint `π`, …) to their [`TaintSet`].
///
/// Lookups of unbound keys yield ⊥, matching the paper's convention that
/// everything starts untainted. Keys iterate in a deterministic (sorted)
/// order so that analysis traces are reproducible.
///
/// Entries live in a persistent ordered map: cloning the environment is
/// O(1), and updates share all untouched tree nodes with the original —
/// which is why the key type carries a `Clone` bound.
///
/// # Examples
///
/// ```
/// use taint::{SourceId, TaintMap, TaintSet};
///
/// let mut tau: TaintMap<String> = TaintMap::new();
/// tau.set("h".to_string(), TaintSet::source(SourceId::new(1)));
/// assert!(tau.get(&"h".to_string()).is_reversible());
/// assert!(tau.get(&"x".to_string()).is_empty()); // unbound ⇒ ⊥
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaintMap<K: Ord + Clone> {
    entries: OrdMap<K, TaintSet>,
}

impl<K: Ord + Clone> Default for TaintMap<K> {
    fn default() -> Self {
        TaintMap {
            entries: OrdMap::new(),
        }
    }
}

impl<K: Ord + Clone> TaintMap<K> {
    /// Creates an empty taint environment (everything ⊥).
    pub fn new() -> Self {
        TaintMap::default()
    }

    /// Returns the taint of `key`, ⊥ if unbound.
    pub fn get(&self, key: &K) -> TaintSet {
        self.entries.get(key).cloned().unwrap_or_default()
    }

    /// Binds `key` to `taint`, returning the previous binding if any.
    ///
    /// Binding ⊥ removes the entry, keeping the map canonical: two maps are
    /// equal iff they assign every key the same taint.
    pub fn set(&mut self, key: K, taint: TaintSet) -> Option<TaintSet> {
        if taint.is_empty() {
            self.entries.remove(&key)
        } else {
            self.entries.insert(key, taint)
        }
    }

    /// Joins `taint` into the existing binding of `key`.
    pub fn join_into(&mut self, key: K, taint: &TaintSet) {
        if taint.is_empty() {
            return;
        }
        // Read, join, rebind: the rebind updates in place the nodes this map
        // owns alone and copies only the ones it shares with a clone.
        let mut joined = self.entries.get(&key).cloned().unwrap_or_default();
        joined.join_assign(taint);
        self.entries.insert(key, joined);
    }

    /// Pointwise join with another map (used when merging paths).
    pub fn join_map(&mut self, other: &TaintMap<K>) {
        for (k, v) in &other.entries {
            self.join_into(k.clone(), v);
        }
    }

    /// Number of tainted (non-⊥) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entity is tainted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over tainted entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &TaintSet)> {
        self.entries.iter()
    }

    /// Removes a binding.
    pub fn remove(&mut self, key: &K) -> Option<TaintSet> {
        self.entries.remove(key)
    }
}

impl<K: Ord + Clone + fmt::Display> fmt::Display for TaintMap<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} → {v}")?;
        }
        write!(f, "}}")
    }
}

impl<K: Ord + Clone> FromIterator<(K, TaintSet)> for TaintMap<K> {
    fn from_iter<I: IntoIterator<Item = (K, TaintSet)>>(iter: I) -> Self {
        let mut map = TaintMap::new();
        for (k, v) in iter {
            map.set(k, v);
        }
        map
    }
}

impl<K: Ord + Clone> Extend<(K, TaintSet)> for TaintMap<K> {
    fn extend<I: IntoIterator<Item = (K, TaintSet)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.set(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::SourceId;

    fn src(i: u64) -> TaintSet {
        TaintSet::source(SourceId::new(i))
    }

    #[test]
    fn unbound_is_bottom() {
        let map: TaintMap<&str> = TaintMap::new();
        assert!(map.get(&"x").is_empty());
    }

    #[test]
    fn set_and_get() {
        let mut map = TaintMap::new();
        assert_eq!(map.set("h", src(1)), None);
        assert_eq!(map.get(&"h"), src(1));
        assert_eq!(map.set("h", src(2)), Some(src(1)));
    }

    #[test]
    fn setting_bottom_removes_entry() {
        let mut map = TaintMap::new();
        map.set("h", src(1));
        map.set("h", TaintSet::bottom());
        assert!(map.is_empty());
        assert_eq!(map, TaintMap::new());
    }

    #[test]
    fn join_into_accumulates() {
        let mut map = TaintMap::new();
        map.join_into("pi", &src(1));
        map.join_into("pi", &src(2));
        assert_eq!(map.get(&"pi").len(), 2);
        // joining ⊥ is a no-op and does not create entries
        map.join_into("other", &TaintSet::bottom());
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn join_map_is_pointwise() {
        let mut a = TaintMap::new();
        a.set("x", src(1));
        let mut b = TaintMap::new();
        b.set("x", src(2));
        b.set("y", src(3));
        a.join_map(&b);
        assert_eq!(a.get(&"x").len(), 2);
        assert_eq!(a.get(&"y"), src(3));
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let mut map = TaintMap::new();
        map.set("b", src(2));
        map.set("a", src(1));
        assert_eq!(map.to_string(), "{a → t1, b → t2}");
    }

    #[test]
    fn from_iterator_collects() {
        let map: TaintMap<&str> = [("x", src(1)), ("y", TaintSet::bottom())]
            .into_iter()
            .collect();
        assert_eq!(map.len(), 1);
    }
}
