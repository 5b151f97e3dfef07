//! Property-based tests: the taint semi-lattice of Fig. 1 obeys the
//! semilattice laws, and the `TaintSet → Label` projection is a lattice
//! homomorphism.

use proptest::prelude::*;
use taint::{Label, SourceId, TaintSet};

/// Arbitrary labels over a small source universe (collisions are the
/// interesting cases).
fn arb_label() -> impl Strategy<Value = Label> {
    prop_oneof![
        Just(Label::Bot),
        (0u32..6).prop_map(|i| Label::Src(SourceId::new(i))),
        Just(Label::Top),
    ]
}

fn arb_taintset() -> impl Strategy<Value = TaintSet> {
    proptest::collection::btree_set(0u32..6, 0..5)
        .prop_map(|s| TaintSet::from_sources(s.into_iter().map(SourceId::new)))
}

proptest! {
    #[test]
    fn label_join_commutative(a in arb_label(), b in arb_label()) {
        prop_assert_eq!(a.join(b), b.join(a));
    }

    #[test]
    fn label_join_associative(a in arb_label(), b in arb_label(), c in arb_label()) {
        prop_assert_eq!(a.join(b).join(c), a.join(b.join(c)));
    }

    #[test]
    fn label_join_idempotent(a in arb_label()) {
        prop_assert_eq!(a.join(a), a);
    }

    #[test]
    fn label_bot_identity_top_absorbing(a in arb_label()) {
        prop_assert_eq!(a.join(Label::Bot), a);
        prop_assert_eq!(a.join(Label::Top), Label::Top);
    }

    #[test]
    fn label_le_is_partial_order(a in arb_label(), b in arb_label(), c in arb_label()) {
        // reflexive
        prop_assert!(a.le(a));
        // antisymmetric
        if a.le(b) && b.le(a) {
            prop_assert_eq!(a, b);
        }
        // transitive
        if a.le(b) && b.le(c) {
            prop_assert!(a.le(c));
        }
    }

    #[test]
    fn label_join_is_least_upper_bound(a in arb_label(), b in arb_label(), c in arb_label()) {
        let j = a.join(b);
        prop_assert!(a.le(j));
        prop_assert!(b.le(j));
        if a.le(c) && b.le(c) {
            prop_assert!(j.le(c));
        }
    }

    #[test]
    fn taintset_join_laws(a in arb_taintset(), b in arb_taintset(), c in arb_taintset()) {
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        prop_assert_eq!(a.join(&a), a.clone());
        prop_assert_eq!(a.join(&TaintSet::bottom()), a);
    }

    #[test]
    fn projection_is_homomorphism(a in arb_taintset(), b in arb_taintset()) {
        prop_assert_eq!(a.join(&b).label(), a.label().join(b.label()));
    }

    #[test]
    fn reversible_iff_single_source(a in arb_taintset()) {
        prop_assert_eq!(a.is_reversible(), a.len() == 1);
        prop_assert_eq!(a.label().is_reversible(), a.is_reversible());
        prop_assert_eq!(a.label().is_tainted(), a.is_tainted());
    }

    #[test]
    fn policy_binop_matches_label_join(a in arb_taintset(), b in arb_taintset()) {
        let joined = taint::binop(&a, &b);
        prop_assert_eq!(joined.label(), a.label().join(b.label()));
        // P_cond is the same join applied to (condition, π).
        prop_assert_eq!(taint::cond(&a, &b), joined);
    }
}

/// A merged taint's arms: 1–3 arbitrary plain sets over the small universe.
fn arb_arms() -> impl Strategy<Value = Vec<TaintSet>> {
    proptest::collection::vec(arb_taintset(), 1..4)
}

fn solo(ts: &TaintSet) -> std::collections::BTreeSet<SourceId> {
    ts.solo_sources().collect()
}

proptest! {
    /// The closed-form join of two merged taints over-approximates every
    /// pair of arms: each pair's union is covered by the sources, a
    /// single-source pair union has its source among the solo ones, and a
    /// ⊥ pair union shows as a ⊥ arm.
    #[test]
    fn merged_join_covers_every_pair_of_arms(xs in arb_arms(), ys in arb_arms()) {
        let x = TaintSet::merge(&xs);
        let y = TaintSet::merge(&ys);
        let joined = x.join(&y);
        let mut assigned = x.clone();
        assigned.join_assign(&y);
        prop_assert_eq!(&assigned, &joined);
        for a in &xs {
            for b in &ys {
                let pair = a.join(b);
                prop_assert!(pair.le(&joined));
                if let Some(source) = pair.sole_source() {
                    prop_assert!(solo(&joined).contains(&source), "{a} ⊔ {b} lost {source}");
                }
                if pair.is_empty() {
                    prop_assert!(joined.has_bot_arm());
                }
            }
        }
    }

    /// A merge covers each of its arms the same way.
    #[test]
    fn merge_covers_every_arm(xs in arb_arms()) {
        let merged = TaintSet::merge(&xs);
        for arm in &xs {
            prop_assert!(arm.le(&merged));
            if let Some(source) = arm.sole_source() {
                prop_assert!(solo(&merged).contains(&source));
            }
            if arm.is_empty() {
                prop_assert!(merged.has_bot_arm());
            }
        }
    }
}
