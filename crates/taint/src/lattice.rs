//! The security semi-lattice of Fig. 1 and its provenance-precise refinement.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, LazyLock};

use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

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
///
/// # Merged taints
///
/// A value merged from several paths ([`TaintSet::merge`]) stands for one
/// taint per path, its *arms*. The union of their sources alone would
/// lose leaks: arms `{A}` and `{B}` union to `{A,B}`, which reveals
/// nothing, although each path reveals one secret. A merged set therefore
/// also keeps `solo`, the sources that are some arm's whole taint, and
/// `bot`, whether some arm is ⊥. [`TaintSet::join`] keeps both as an
/// over-approximation over every pair of arms, and
/// [`TaintSet::solo_sources`] is what the nonreversibility checks flag.
/// An unmerged set carries neither, and its equality, hashing and JSON
/// are exactly the plain set's.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaintSet {
    inner: Arc<Inner>,
}

/// The shared body of a [`TaintSet`].
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Inner {
    sources: BTreeSet<SourceId>,
    /// The arm summary of a merged set; `None` for every set whose arms
    /// read like the plain set (`solo` = its sole source, `bot` = empty).
    /// Boxed, so the unmerged sets the engine builds at almost every step
    /// stay as small as the plain set.
    arms: Option<Box<Arms>>,
}

/// What a merged [`TaintSet`] remembers of its arms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Arms {
    /// Sources that are the whole taint of some arm.
    solo: BTreeSet<SourceId>,
    /// Whether some arm is ⊥.
    bot: bool,
}

/// The one allocation behind every ⊥ built by [`TaintSet::bottom`].
static BOTTOM: LazyLock<Arc<Inner>> = LazyLock::new(Arc::default);

impl Default for TaintSet {
    fn default() -> Self {
        TaintSet::bottom()
    }
}

impl std::hash::Hash for TaintSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // An unmerged set hashes exactly like the plain set.
        self.inner.sources.hash(state);
        if let Some(arms) = &self.inner.arms {
            arms.hash(state);
        }
    }
}

impl TaintSet {
    /// The empty (⊥) taint set; a reference-count bump on a shared empty
    /// set, never an allocation.
    pub fn bottom() -> Self {
        TaintSet {
            inner: Arc::clone(&BOTTOM),
        }
    }

    /// A singleton taint set for one source.
    pub fn source(id: SourceId) -> Self {
        TaintSet::plain(BTreeSet::from([id]))
    }

    /// Builds a taint set from an iterator of sources.
    pub fn from_sources<I: IntoIterator<Item = SourceId>>(iter: I) -> Self {
        TaintSet::plain(iter.into_iter().collect())
    }

    fn plain(sources: BTreeSet<SourceId>) -> Self {
        TaintSet {
            inner: Arc::new(Inner {
                sources,
                arms: None,
            }),
        }
    }

    /// A set with the given sources and arm summary, unmerged when the
    /// summary says nothing the sources do not.
    fn with_arms(sources: BTreeSet<SourceId>, solo: BTreeSet<SourceId>, bot: bool) -> Self {
        let plain_reading = bot == sources.is_empty()
            && solo.len() == usize::from(sources.len() == 1)
            && solo.iter().all(|s| sources.contains(s));
        TaintSet {
            inner: Arc::new(Inner {
                sources,
                arms: (!plain_reading).then(|| Box::new(Arms { solo, bot })),
            }),
        }
    }

    /// The taint of a value merged from several paths, one taint per arm:
    /// the union of the arms' sources, remembering which sources are some
    /// arm's whole taint and whether some arm is ⊥ (see the type docs).
    /// Merging one arm, or arms that are all the same unmerged set, gives
    /// that set.
    pub fn merge<'a>(arms: impl IntoIterator<Item = &'a TaintSet>) -> TaintSet {
        let mut arms = arms.into_iter();
        let Some(first) = arms.next() else {
            return TaintSet::bottom();
        };
        let mut sources = first.inner.sources.clone();
        let mut solo: BTreeSet<SourceId> = first.solo_sources().collect();
        let mut bot = first.has_bot_arm();
        let mut same = true;
        for arm in arms {
            same &= arm == first;
            sources.extend(arm.sources());
            solo.extend(arm.solo_sources());
            bot |= arm.has_bot_arm();
        }
        if same {
            return first.clone();
        }
        TaintSet::with_arms(sources, solo, bot)
    }

    /// Set union — the join of the refinement lattice. When one operand
    /// already contains the other, the result shares its allocation.
    ///
    /// With a merged operand the result is merged too: its arms are the
    /// joins of every pair of operand arms, so `bot` holds when both
    /// operands have a ⊥ arm, and a source is solo when it is solo in
    /// both, or solo in one while the other has a ⊥ arm.
    pub fn join(&self, other: &TaintSet) -> TaintSet {
        if self.inner.arms.is_some() || other.inner.arms.is_some() {
            return self.join_arms(other);
        }
        if other.le(self) {
            self.clone()
        } else if self.le(other) {
            other.clone()
        } else {
            TaintSet::plain(
                self.inner
                    .sources
                    .union(&other.inner.sources)
                    .copied()
                    .collect(),
            )
        }
    }

    fn join_arms(&self, other: &TaintSet) -> TaintSet {
        let sources = self
            .inner
            .sources
            .union(&other.inner.sources)
            .copied()
            .collect();
        let (x_bot, y_bot) = (self.has_bot_arm(), other.has_bot_arm());
        let x_solo: BTreeSet<SourceId> = self.solo_sources().collect();
        let mut solo = BTreeSet::new();
        for source in other.solo_sources() {
            if x_bot || x_solo.contains(&source) {
                solo.insert(source);
            }
        }
        if y_bot {
            solo.extend(x_solo);
        }
        TaintSet::with_arms(sources, solo, x_bot && y_bot)
    }

    /// In-place union; copies the set only if it is shared and grows.
    pub fn join_assign(&mut self, other: &TaintSet) {
        if self.inner.arms.is_some() || other.inner.arms.is_some() {
            *self = self.join_arms(other);
            return;
        }
        if other.le(self) {
            return;
        }
        if TaintSet::le(self, other) {
            *self = other.clone();
        } else {
            Arc::make_mut(&mut self.inner)
                .sources
                .extend(other.inner.sources.iter().copied());
        }
    }

    /// Projects the provenance set onto the paper's three-level lattice.
    pub fn label(&self) -> Label {
        match self.inner.sources.len() {
            0 => Label::Bot,
            1 => Label::Src(*self.inner.sources.iter().next().expect("len checked")),
            _ => Label::Top,
        }
    }

    /// Whether any source influenced the value.
    pub fn is_tainted(&self) -> bool {
        !self.inner.sources.is_empty()
    }

    /// Whether revealing a value with this taint violates nonreversibility:
    /// some arm has exactly one source (for an unmerged set, the set
    /// itself).
    pub fn is_reversible(&self) -> bool {
        self.solo_sources().next().is_some()
    }

    /// Number of distinct sources.
    pub fn len(&self) -> usize {
        self.inner.sources.len()
    }

    /// Whether the set is ⊥.
    pub fn is_empty(&self) -> bool {
        self.inner.sources.is_empty()
    }

    /// Iterates over the sources in ascending order.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        self.inner.sources.iter().copied()
    }

    /// The single source of the whole set, if it has exactly one.
    pub fn sole_source(&self) -> Option<SourceId> {
        if self.inner.sources.len() == 1 {
            self.inner.sources.iter().next().copied()
        } else {
            None
        }
    }

    /// The sources some arm reveals on its own, ascending: the solo
    /// sources of a merged set, or the [`TaintSet::sole_source`] of an
    /// unmerged one. These are the nonreversibility violations.
    pub fn solo_sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        let (merged, plain) = match &self.inner.arms {
            Some(arms) => (Some(arms.solo.iter().copied()), None),
            None => (None, self.sole_source()),
        };
        merged.into_iter().flatten().chain(plain)
    }

    /// Whether some arm is ⊥ (for an unmerged set: whether it is ⊥).
    pub fn has_bot_arm(&self) -> bool {
        self.inner
            .arms
            .as_ref()
            .map_or(self.inner.sources.is_empty(), |arms| arms.bot)
    }

    /// Whether this set was built by a merge and keeps an arm summary.
    pub fn is_merged(&self) -> bool {
        self.inner.arms.is_some()
    }

    /// Rewrites every source id through `f`, arm summary included.
    pub fn map_sources(&self, f: impl Fn(SourceId) -> SourceId) -> TaintSet {
        let sources = self.inner.sources.iter().map(|&s| f(s)).collect();
        match &self.inner.arms {
            None => TaintSet::plain(sources),
            Some(arms) => {
                TaintSet::with_arms(sources, arms.solo.iter().map(|&s| f(s)).collect(), arms.bot)
            }
        }
    }

    /// Subset test on the sources: `self ⊑ other`.
    pub fn le(&self, other: &TaintSet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.sources.is_subset(&other.inner.sources)
    }
}

/// The JSON form is `{"sources": […]}`, plus `"solo"` and `"bot"` for a
/// merged set.
impl Serialize for TaintSet {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut fields = vec![("sources".to_string(), serde::to_value(&self.inner.sources)?)];
        if let Some(arms) = &self.inner.arms {
            fields.push(("solo".to_string(), serde::to_value(&arms.solo)?));
            fields.push(("bot".to_string(), serde::to_value(&arms.bot)?));
        }
        serializer.serialize_value(Value::Object(fields))
    }
}

impl<'de> Deserialize<'de> for TaintSet {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut obj = serde::expect_object(deserializer.take_value()?, "TaintSet")?;
        let sources: BTreeSet<SourceId> =
            serde::from_value(serde::take_field(&mut obj, "sources", "TaintSet")?)?;
        let solo = serde::take_field_opt(&mut obj, "solo");
        let bot = serde::take_field_opt(&mut obj, "bot");
        Ok(match (solo, bot) {
            (None, None) => TaintSet::plain(sources),
            (solo, bot) => TaintSet::with_arms(
                sources,
                solo.map(serde::from_value).transpose()?.unwrap_or_default(),
                bot.map(serde::from_value).transpose()?.unwrap_or_default(),
            ),
        })
    }
}

impl fmt::Display for TaintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.label() {
            Label::Bot => write!(f, "⊥"),
            Label::Src(s) => write!(f, "{s}"),
            Label::Top => {
                write!(f, "⊤{{")?;
                for (i, s) in self.inner.sources.iter().enumerate() {
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
        if self.inner.arms.is_some() {
            self.join_assign(&TaintSet::from_sources(iter));
        } else {
            Arc::make_mut(&mut self.inner).sources.extend(iter);
        }
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
            assert!(Arc::ptr_eq(&joined.inner, &a.inner));
        }
        let mut acc = b.clone();
        acc.join_assign(&a);
        assert!(Arc::ptr_eq(&acc.inner, &a.inner));
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
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        // Sharing changes no observable: equality, hashing and JSON are
        // those of a freshly built empty set.
        let fresh = TaintSet::plain(BTreeSet::new());
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

    fn set(ids: &[u32]) -> TaintSet {
        TaintSet::from_sources(ids.iter().copied().map(SourceId::new))
    }

    fn solo(ts: &TaintSet) -> Vec<u32> {
        ts.solo_sources().map(SourceId::index).collect()
    }

    #[test]
    fn merge_keeps_each_arms_sole_source() {
        // {A} and {B} union to ⊤, yet each arm reveals its own source.
        let merged = TaintSet::merge([&set(&[1]), &set(&[2])]);
        assert_eq!(merged.label(), Label::Top);
        assert!(merged.is_merged());
        assert_eq!(solo(&merged), [1, 2]);
        assert!(merged.is_reversible());
        assert!(!merged.has_bot_arm());
        // ⊥|{A}: A is solo, and a later `+ B` still reveals B on the ⊥ arm.
        let half = TaintSet::merge([&TaintSet::bottom(), &set(&[1])]);
        assert_eq!(solo(&half), [1]);
        assert!(half.has_bot_arm());
        assert_eq!(solo(&half.join(&set(&[2]))), [2]);
        assert_eq!(solo(&set(&[2]).join(&half)), [2]);
    }

    #[test]
    fn merge_of_equal_or_plain_readings_is_unmerged() {
        for ts in [TaintSet::bottom(), set(&[3]), set(&[1, 2])] {
            let merged = TaintSet::merge([&ts, &ts]);
            assert_eq!(merged, ts);
            assert!(!merged.is_merged());
        }
        // {A} | {A,B}... arms {1} and {1}: same reading as the plain {1}.
        let same = TaintSet::merge([&set(&[1]), &set(&[1])]);
        assert!(!same.is_merged());
        // ⊤ arms merge to a plain ⊤: no arm is solo or ⊥.
        let top = TaintSet::merge([&set(&[1, 2]), &set(&[3, 4])]);
        assert!(!top.is_merged());
        assert_eq!(top, set(&[1, 2, 3, 4]));
    }

    #[test]
    fn top_absorbs_every_alternative() {
        let merged = TaintSet::merge([&TaintSet::bottom(), &set(&[1]), &set(&[2])]);
        let joined = set(&[3, 4]).join(&merged);
        assert!(!joined.is_merged());
        assert_eq!(joined, set(&[1, 2, 3, 4]));
        let mut acc = merged.clone();
        acc.join_assign(&set(&[3, 4]));
        assert_eq!(acc, joined);
    }

    #[test]
    fn unmerged_sets_keep_their_json_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let ts = set(&[2, 7]);
        let mut plain = DefaultHasher::new();
        ts.inner.sources.hash(&mut plain);
        let mut hasher = DefaultHasher::new();
        ts.hash(&mut hasher);
        assert_eq!(hasher.finish(), plain.finish());
        let merged = TaintSet::merge([&TaintSet::bottom(), &set(&[1]), &set(&[2])]);
        let json = serde_json::to_string(&merged).unwrap();
        assert_eq!(json, r#"{"sources":[1,2],"solo":[1,2],"bot":true}"#);
        assert_eq!(serde_json::from_str::<TaintSet>(&json).unwrap(), merged);
        let remapped = merged.map_sources(|s| SourceId::new(s.index() + 10));
        assert_eq!(solo(&remapped), [11, 12]);
        assert!(remapped.has_bot_arm());
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
