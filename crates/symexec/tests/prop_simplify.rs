//! Property tests: the simplifier is sound w.r.t. concrete evaluation and
//! agrees with a fully recursive reference simplifier on shared DAGs, the
//! cached `size_within` agrees with a tree walk, and the constraint manager
//! never refutes a satisfiable path (checked against brute-force
//! assignments on a small domain).

use proptest::prelude::*;
use symexec::concrete::{ceval, ceval_bool, CAssignment, CVal};
use symexec::constraints::{ConstraintManager, Feasibility};
use symexec::simplify::{fold_binary, fold_ite, fold_unary, simplify};
use symexec::value::{Region, SVal, Symbol};

use minic::ast::{BinOp, UnOp};

const BINOPS: &[BinOp] = &[
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::BitAnd,
    BinOp::BitXor,
    BinOp::BitOr,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::LogAnd,
    BinOp::LogOr,
];

const UNOPS: &[UnOp] = &[UnOp::Neg, UnOp::Plus, UnOp::Not, UnOp::BitNot];

fn arb_sval() -> impl Strategy<Value = SVal> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(SVal::Int),
        (0u32..3).prop_map(|id| SVal::Sym(Symbol::new(id, format!("s{id}")))),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            (
                (0..BINOPS.len()).prop_map(|i| BINOPS[i]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| SVal::binary(op, a, b)),
            ((0..UNOPS.len()).prop_map(|i| UNOPS[i]), inner.clone())
                .prop_map(|(op, a)| SVal::unary(op, a)),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| SVal::ite(c, t, e)),
        ]
    })
}

/// Assigns `values[i]` to symbol `i`.
fn ints<const N: usize>(values: [i64; N]) -> CAssignment {
    (0u32..).zip(values.map(CVal::Int)).collect()
}

/// The reference simplifier: re-simplifies and re-folds every node of the
/// tree on every call, with no memo.
fn reference_simplify(sval: &SVal) -> SVal {
    match sval {
        SVal::Binary { op, lhs, rhs } => {
            fold_binary(*op, reference_simplify(lhs), reference_simplify(rhs))
        }
        SVal::Unary { op, arg } => fold_unary(*op, reference_simplify(arg)),
        SVal::Call { func, args } => SVal::Call {
            func: func.clone(),
            args: args.iter().map(reference_simplify).collect(),
        },
        SVal::Ite { cond, then, els } => fold_ite(
            reference_simplify(cond),
            reference_simplify(then),
            reference_simplify(els),
        ),
        other => other.clone(),
    }
}

/// The node count `size_within` bounds, by walking the whole tree.
fn walked_size(sval: &SVal) -> usize {
    fn region_size(region: &Region) -> usize {
        1 + match region {
            Region::Element { base, index } => region_size(base) + walked_size(index),
            Region::Field { base, .. } => region_size(base),
            _ => 0,
        }
    }
    1 + match sval {
        SVal::Loc(region) => region_size(region),
        SVal::Binary { lhs, rhs, .. } => walked_size(lhs) + walked_size(rhs),
        SVal::Unary { arg, .. } => walked_size(arg),
        SVal::Call { args, .. } => args.iter().map(walked_size).sum(),
        SVal::Ite { cond, then, els } => walked_size(cond) + walked_size(then) + walked_size(els),
        SVal::Int(_) | SVal::Float(_) | SVal::Sym(_) | SVal::Unknown => 0,
    }
}

/// Constants that exercise the folding and re-association edge cases.
fn arb_const() -> impl Strategy<Value = i64> {
    prop_oneof![-8i64..8, Just(i64::MIN), Just(i64::MAX), Just(i64::MIN + 1)]
}

/// A DAG with shared subtrees: a pool that starts with three symbols and
/// grows by nodes whose operands are earlier pool entries, so later
/// entries reuse (and share the allocations of) earlier ones.
fn arb_dag() -> impl Strategy<Value = Vec<SVal>> {
    proptest::collection::vec((0usize..32, 0usize..64, 0usize..64, arb_const()), 1..14).prop_map(
        |steps| {
            let mut pool: Vec<SVal> = (0..3)
                .map(|id| SVal::Sym(Symbol::new(id, format!("s{id}"))))
                .collect();
            for (kind, i, j, c) in steps {
                let a = pool[i % pool.len()].clone();
                let b = pool[j % pool.len()].clone();
                let node = match kind {
                    k if k < BINOPS.len() => SVal::binary(BINOPS[k], a, b),
                    18..=21 => SVal::unary(UNOPS[kind - 18], a),
                    22 | 23 => SVal::binary(BinOp::Add, a, SVal::Int(c)),
                    24 | 25 => SVal::binary(BinOp::Sub, a, SVal::Int(c)),
                    26 => SVal::Int(c),
                    27 => SVal::Call {
                        func: "f".into(),
                        args: vec![a, b],
                    },
                    28 => SVal::Loc(Region::element(
                        Region::Sym {
                            symbol: Symbol::new(9, "p"),
                        },
                        a,
                    )),
                    29 => SVal::ite(SVal::Int(c % 2), a, b),
                    30 => SVal::ite(b, a.clone(), a),
                    _ => SVal::binary(BinOp::Mul, SVal::Int(c % 2), a),
                };
                pool.push(node);
            }
            pool
        },
    )
}

proptest! {
    /// The memoized simplifier equals the fully recursive reference on
    /// DAGs with shared subtrees, and on its own outputs re-simplified.
    /// Pool entries are simplified in order, so later ones meet subtrees
    /// already flagged normal.
    #[test]
    fn memoized_simplify_matches_reference(pool in arb_dag()) {
        for node in &pool {
            let once = simplify(node);
            prop_assert_eq!(&once, &reference_simplify(node), "simplify({})", node);
            let twice = simplify(&once);
            prop_assert_eq!(&twice, &reference_simplify(&once), "simplify({})", once);
            prop_assert_eq!(&twice, &once);
        }
    }

    /// The cached `size_within` agrees with counting the tree's nodes.
    #[test]
    fn cached_size_within_matches_walk(pool in arb_dag(), limit in 0usize..80) {
        for node in &pool {
            let size = walked_size(node);
            let expected = (size <= limit).then_some(size);
            prop_assert_eq!(node.size_within(limit), expected, "size_within({}, {})", node, limit);
        }
    }

    /// `ceval(simplify(e)) == ceval(e)` wherever both are defined.
    #[test]
    fn simplifier_is_sound(e in arb_sval(), v0 in -20i64..20, v1 in -20i64..20, v2 in -20i64..20) {
        let env = ints([v0, v1, v2]);
        let before = ceval(&e, &env);
        let after = ceval(&simplify(&e), &env);
        match (before, after) {
            (Some(a), Some(b)) => prop_assert_eq!(a, b, "simplify changed value of {}", e),
            // Division by zero inside the tree may collapse to Unknown on
            // one side only — both None or one None is acceptable only when
            // the original was undefined.
            (None, _) => {}
            (Some(a), None) => prop_assert!(false, "simplify lost definedness of {} (= {:?})", e, a),
        }
    }

    /// Simplification is idempotent.
    #[test]
    fn simplifier_is_idempotent(e in arb_sval()) {
        let once = simplify(&e);
        let twice = simplify(&once);
        prop_assert_eq!(once, twice);
    }

    /// If an assignment satisfies a set of branch assumptions, the
    /// constraint manager must keep the path feasible (no false pruning).
    #[test]
    fn constraints_never_refute_satisfiable_paths(
        conds in proptest::collection::vec(arb_sval(), 1..5),
        v0 in -20i64..20, v1 in -20i64..20, v2 in -20i64..20,
    ) {
        let env = ints([v0, v1, v2]);
        let mut cm = ConstraintManager::new();
        for cond in &conds {
            let cond = simplify(cond);
            let Some(truth) = ceval_bool(&cond, &env) else {
                // undefined condition (e.g. division by zero) — skip
                continue;
            };
            // The assignment satisfies (cond == truth); the manager must
            // not call the accumulated set infeasible.
            prop_assert_eq!(
                cm.assume(&cond, truth),
                Feasibility::Feasible,
                "refuted satisfiable path at {} = {}",
                cond,
                truth
            );
        }
    }
}
