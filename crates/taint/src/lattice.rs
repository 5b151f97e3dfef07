//! The security semi-lattice of Fig. 1 and its provenance-precise refinement.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, LazyLock};

use serde::{Deserialize, Serialize};

/// Identifier of a taint source (the `tᵢ` of the paper's lattice).
///
/// Each call to a secret source (`get_secret(secret)` in PRIML, an `[in]`
/// ECALL parameter element, or a registered decrypt function in C) mints a
/// distinct `SourceId`.
///
/// # Examples
///
/// ```
/// use taint::SourceId;
/// let t1 = SourceId::new(1);
/// assert_eq!(t1.index(), 1);
/// assert_eq!(t1.to_string(), "t1");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SourceId(u32);

impl SourceId {
    /// Creates a source identifier with the given index.
    pub fn new(index: u32) -> Self {
        SourceId(index)
    }

    /// Returns the numeric index of this source.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for SourceId {
    fn from(index: u32) -> Self {
        SourceId(index)
    }
}

/// A point of the paper's three-level semi-lattice (Fig. 1).
///
/// * `Bot` (⊥) — not sensitive.
/// * `Src(tᵢ)` — tainted by exactly one secret source; revealing such a value
///   violates nonreversibility (the attacker can invert the computation).
/// * `Top` (⊤) — tainted by two or more distinct sources; revealing it does
///   *not* break nonreversibility because no single secret is recoverable
///   without knowledge of the others.
///
/// The lattice has only a join (it is a join-semilattice); meet is never
/// needed by the policy.
///
/// # Examples
///
/// ```
/// use taint::{Label, SourceId};
/// let t1 = Label::Src(SourceId::new(1));
/// let t2 = Label::Src(SourceId::new(2));
/// assert_eq!(t1.join(Label::Bot), t1);
/// assert_eq!(t1.join(t1), t1);
/// assert_eq!(t1.join(t2), Label::Top);
/// assert_eq!(Label::Top.join(Label::Bot), Label::Top);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Label {
    /// ⊥ — not sensitive.
    #[default]
    Bot,
    /// `tᵢ` — sensitive, single provenance.
    Src(SourceId),
    /// ⊤ — mixed provenance (two or more distinct sources).
    Top,
}

impl Label {
    /// Join (least upper bound) of two labels.
    pub fn join(self, other: Label) -> Label {
        match (self, other) {
            (Label::Bot, x) | (x, Label::Bot) => x,
            (Label::Top, _) | (_, Label::Top) => Label::Top,
            (Label::Src(a), Label::Src(b)) => {
                if a == b {
                    Label::Src(a)
                } else {
                    Label::Top
                }
            }
        }
    }

    /// Whether this label denotes *some* sensitivity (`tᵢ` or ⊤).
    pub fn is_tainted(self) -> bool {
        !matches!(self, Label::Bot)
    }

    /// Whether revealing a value with this label violates nonreversibility.
    ///
    /// Only single-source values (`Src`) are reversible: ⊥ carries no secret
    /// and ⊤ mixes several secrets, so neither is a violation on its own.
    pub fn is_reversible(self) -> bool {
        matches!(self, Label::Src(_))
    }

    /// Partial-order test: `self ⊑ other` in the semi-lattice.
    pub fn le(self, other: Label) -> bool {
        self.join(other) == other
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Bot => write!(f, "⊥"),
            Label::Src(s) => write!(f, "{s}"),
            Label::Top => write!(f, "⊤"),
        }
    }
}

/// Provenance-precise taint: the exact set of sources that influenced a
/// value.
///
/// The paper's lattice forgets *which* sources make up ⊤. For actionable
/// reports ("`output[0]` reveals `secrets[0]`") the analyzer needs the set,
/// so we carry it and project to [`Label`] on demand. The projection is a
/// lattice homomorphism: `project(a ∪ b) = project(a) ⊔ project(b)`.
///
/// # Examples
///
/// ```
/// use taint::{Label, SourceId, TaintSet};
/// let ts = TaintSet::source(SourceId::new(3)).join(&TaintSet::source(SourceId::new(7)));
/// assert_eq!(ts.label(), Label::Top);
/// assert_eq!(ts.sources().count(), 2);
/// ```
///
/// The set is shared behind an `Arc`: cloning a taint (every read, write
/// and unary operation does) is a reference-count bump, a join that adds
/// nothing returns an operand's existing allocation, and every ⊥ shares
/// one process-wide empty set. Equality, ordering, hashing and the JSON
/// form are those of the plain set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaintSet {
    sources: Arc<BTreeSet<SourceId>>,
}

/// The one allocation behind every ⊥ built by [`TaintSet::bottom`].
static BOTTOM: LazyLock<Arc<BTreeSet<SourceId>>> = LazyLock::new(Arc::default);

impl Default for TaintSet {
    fn default() -> Self {
        TaintSet::bottom()
    }
}

impl TaintSet {
    /// The empty (⊥) taint set; a reference-count bump on a shared empty
    /// set, never an allocation.
    pub fn bottom() -> Self {
        TaintSet {
            sources: Arc::clone(&BOTTOM),
        }
    }

    /// A singleton taint set for one source.
    pub fn source(id: SourceId) -> Self {
        TaintSet {
            sources: Arc::new(BTreeSet::from([id])),
        }
    }

    /// Builds a taint set from an iterator of sources.
    pub fn from_sources<I: IntoIterator<Item = SourceId>>(iter: I) -> Self {
        TaintSet {
            sources: Arc::new(iter.into_iter().collect()),
        }
    }

    /// Set union — the join of the refinement lattice. When one operand
    /// already contains the other, the result shares its allocation.
    pub fn join(&self, other: &TaintSet) -> TaintSet {
        if other.le(self) {
            self.clone()
        } else if self.le(other) {
            other.clone()
        } else {
            TaintSet {
                sources: Arc::new(self.sources.union(&other.sources).copied().collect()),
            }
        }
    }

    /// In-place union; copies the set only if it is shared and grows.
    pub fn join_assign(&mut self, other: &TaintSet) {
        if other.le(self) {
            return;
        }
        if TaintSet::le(self, other) {
            *self = other.clone();
        } else {
            Arc::make_mut(&mut self.sources).extend(other.sources.iter().copied());
        }
    }

    /// Projects the provenance set onto the paper's three-level lattice.
    pub fn label(&self) -> Label {
        match self.sources.len() {
            0 => Label::Bot,
            1 => Label::Src(*self.sources.iter().next().expect("len checked")),
            _ => Label::Top,
        }
    }

    /// Whether any source influenced the value.
    pub fn is_tainted(&self) -> bool {
        !self.sources.is_empty()
    }

    /// Whether revealing a value with this taint violates nonreversibility
    /// (exactly one source).
    pub fn is_reversible(&self) -> bool {
        self.sources.len() == 1
    }

    /// Number of distinct sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the set is ⊥.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Iterates over the sources in ascending order.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        self.sources.iter().copied()
    }

    /// The single source, if the taint is reversible.
    pub fn sole_source(&self) -> Option<SourceId> {
        if self.sources.len() == 1 {
            self.sources.iter().next().copied()
        } else {
            None
        }
    }

    /// Subset test: `self ⊑ other`.
    pub fn le(&self, other: &TaintSet) -> bool {
        Arc::ptr_eq(&self.sources, &other.sources) || self.sources.is_subset(&other.sources)
    }
}

impl fmt::Display for TaintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.label() {
            Label::Bot => write!(f, "⊥"),
            Label::Src(s) => write!(f, "{s}"),
            Label::Top => {
                write!(f, "⊤{{")?;
                for (i, s) in self.sources.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl FromIterator<SourceId> for TaintSet {
    fn from_iter<I: IntoIterator<Item = SourceId>>(iter: I) -> Self {
        TaintSet::from_sources(iter)
    }
}

impl Extend<SourceId> for TaintSet {
    fn extend<I: IntoIterator<Item = SourceId>>(&mut self, iter: I) {
        Arc::make_mut(&mut self.sources).extend(iter);
    }
}

impl From<SourceId> for TaintSet {
    fn from(id: SourceId) -> Self {
        TaintSet::source(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> Label {
        Label::Src(SourceId::new(i))
    }

    #[test]
    fn label_join_identity() {
        for l in [Label::Bot, t(1), Label::Top] {
            assert_eq!(l.join(Label::Bot), l);
            assert_eq!(Label::Bot.join(l), l);
        }
    }

    #[test]
    fn label_join_absorbing() {
        for l in [Label::Bot, t(1), Label::Top] {
            assert_eq!(l.join(Label::Top), Label::Top);
            assert_eq!(Label::Top.join(l), Label::Top);
        }
    }

    #[test]
    fn label_join_same_source_idempotent() {
        assert_eq!(t(4).join(t(4)), t(4));
    }

    #[test]
    fn label_join_distinct_sources_is_top() {
        assert_eq!(t(1).join(t(2)), Label::Top);
    }

    #[test]
    fn label_partial_order() {
        assert!(Label::Bot.le(t(1)));
        assert!(t(1).le(Label::Top));
        assert!(Label::Bot.le(Label::Top));
        assert!(!t(1).le(t(2)));
        assert!(!Label::Top.le(t(1)));
        assert!(t(3).le(t(3)));
    }

    #[test]
    fn label_reversibility() {
        assert!(!Label::Bot.is_reversible());
        assert!(t(1).is_reversible());
        assert!(!Label::Top.is_reversible());
        assert!(!Label::Bot.is_tainted());
        assert!(t(1).is_tainted());
        assert!(Label::Top.is_tainted());
    }

    #[test]
    fn taintset_projection_matches_cardinality() {
        assert_eq!(TaintSet::bottom().label(), Label::Bot);
        assert_eq!(TaintSet::source(SourceId::new(9)).label(), t(9));
        let two = TaintSet::from_sources([SourceId::new(1), SourceId::new(2)]);
        assert_eq!(two.label(), Label::Top);
    }

    #[test]
    fn taintset_join_is_union() {
        let a = TaintSet::from_sources([SourceId::new(1), SourceId::new(2)]);
        let b = TaintSet::from_sources([SourceId::new(2), SourceId::new(3)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        assert!(a.le(&j) && b.le(&j));
    }

    #[test]
    fn projection_is_homomorphism_on_samples() {
        let cases = [
            (TaintSet::bottom(), TaintSet::source(SourceId::new(1))),
            (
                TaintSet::source(SourceId::new(1)),
                TaintSet::source(SourceId::new(1)),
            ),
            (
                TaintSet::source(SourceId::new(1)),
                TaintSet::source(SourceId::new(2)),
            ),
            (
                TaintSet::from_sources([SourceId::new(1), SourceId::new(2)]),
                TaintSet::source(SourceId::new(3)),
            ),
        ];
        for (a, b) in cases {
            assert_eq!(a.join(&b).label(), a.label().join(b.label()));
        }
    }

    #[test]
    fn join_with_a_subsumed_operand_shares_its_allocation() {
        let a = TaintSet::from_sources([1, 2, 3].map(SourceId::new));
        let b = TaintSet::from_sources([2].map(SourceId::new));
        for joined in [
            a.join(&b),
            b.join(&a),
            a.join(&TaintSet::bottom()),
            a.join(&a),
        ] {
            assert!(Arc::ptr_eq(&joined.sources, &a.sources));
        }
        let mut acc = b.clone();
        acc.join_assign(&a);
        assert!(Arc::ptr_eq(&acc.sources, &a.sources));
        // A growing join copies a shared set, leaving the other owner intact.
        let mut grown = a.clone();
        grown.join_assign(&TaintSet::source(SourceId::new(4)));
        assert_eq!(grown.len(), 4);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn json_form_is_the_plain_set() {
        let ts = TaintSet::from_sources([7, 2].map(SourceId::new));
        let json = serde_json::to_string(&ts).unwrap();
        assert_eq!(json, r#"{"sources":[2,7]}"#);
        assert_eq!(serde_json::from_str::<TaintSet>(&json).unwrap(), ts);
        assert_eq!(
            serde_json::to_string(&TaintSet::bottom()).unwrap(),
            r#"{"sources":[]}"#
        );
    }

    #[test]
    fn bottom_is_one_shared_allocation() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let (a, b) = (TaintSet::bottom(), TaintSet::default());
        assert!(Arc::ptr_eq(&a.sources, &b.sources));
        // Sharing changes no observable: equality, hashing and JSON are
        // those of a freshly built empty set.
        let fresh = TaintSet {
            sources: Arc::new(BTreeSet::new()),
        };
        assert_eq!(a, fresh);
        let hash = |ts: &TaintSet| {
            let mut hasher = DefaultHasher::new();
            ts.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&a), hash(&fresh));
        assert_eq!(serde_json::to_string(&a).unwrap(), r#"{"sources":[]}"#);
        assert_eq!(
            serde_json::from_str::<TaintSet>(r#"{"sources":[]}"#).unwrap(),
            b
        );
        // Growing a shared ⊥ copies it; the shared set stays empty.
        let mut grown = TaintSet::bottom();
        grown.extend([SourceId::new(3)]);
        assert_eq!(grown.len(), 1);
        assert!(TaintSet::bottom().is_empty());
    }

    #[test]
    fn sole_source_only_for_singletons() {
        assert_eq!(TaintSet::bottom().sole_source(), None);
        assert_eq!(
            TaintSet::source(SourceId::new(5)).sole_source(),
            Some(SourceId::new(5))
        );
        let two = TaintSet::from_sources([SourceId::new(1), SourceId::new(2)]);
        assert_eq!(two.sole_source(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TaintSet::bottom().to_string(), "⊥");
        assert_eq!(TaintSet::source(SourceId::new(2)).to_string(), "t2");
        let two = TaintSet::from_sources([SourceId::new(1), SourceId::new(2)]);
        assert_eq!(two.to_string(), "⊤{t1,t2}");
        assert_eq!(Label::Top.to_string(), "⊤");
    }
}
