//! Governing guarantees of the feasibility pipeline.
//!
//! 1. **Soundness against the concrete evaluator.** Conjunctions built
//!    *assignment-first* (pick concrete values, then emit only guards the
//!    values satisfy under `concrete::ceval`'s wrapping semantics) are
//!    satisfiable by construction, so no tier may ever answer
//!    "infeasible" at any prefix, in either mode — also when the values
//!    sit next to `i64::MIN`/`i64::MAX` and the guards wrap.
//! 2. **One regression per wraparound hole**: each tier once refuted a
//!    guard pair that only wraparound satisfies.
//! 3. **Widening termination.** Guard chains far longer than the
//!    `WIDEN_AFTER` refinement budget terminate, and a contradiction past
//!    the freeze point is still refuted (the bottom check never freezes).
//! 4. **Findings are mode-invariant.** The pipeline only prunes
//!    concretely unsatisfiable paths, so violations and degradations are
//!    identical under the default and the `syntactic` reference.
//! 5. **Worker-count byte-identity per mode.** Reports — including the
//!    per-tier refutation counters — are byte-identical at any worker
//!    count, in both modes.
//! 6. **Pruning is real.** On the branch-heavy corpus the default
//!    explores strictly fewer paths and interprets strictly fewer steps
//!    than `syntactic` — the deterministic count behind its wall-clock
//!    win.

use minic::ast::BinOp;
use privacyscope::report::Finding;
use privacyscope::{Analyzer, AnalyzerOptions, FeasibilityMode, Report};
use symexec::concrete::{ceval, ceval_bool, CAssignment, CVal};
use symexec::constraints::{probe_pipeline, ConstraintManager, Feasibility, ProbeOutcome};
use symexec::domain::AbstractDomain;
use symexec::path::PathCondition;
use symexec::value::{SVal, Symbol};

/// SplitMix64, locally vendored so the property stream never depends on an
/// external RNG staying fixed (same rationale as `mlcorpus::synth`).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const MODES: [FeasibilityMode; 2] = [FeasibilityMode::Syntactic, FeasibilityMode::Full];

const SYMBOLS: u32 = 6;

fn sym(id: u32) -> SVal {
    SVal::Sym(Symbol::new(id, format!("s{id}")))
}

fn int(v: i64) -> SVal {
    SVal::Int(v)
}

fn bin(op: BinOp, lhs: SVal, rhs: SVal) -> SVal {
    SVal::binary(op, lhs, rhs)
}

/// The concrete integer `value` denotes under `assignment`.
fn value_of(value: &SVal, assignment: &CAssignment) -> i64 {
    match ceval(value, assignment) {
        Some(CVal::Int(v)) => v,
        other => panic!("{value} has no integer value ({other:?})"),
    }
}

/// Distance from `i64::MIN`/`i64::MAX` within which a value counts as
/// next to the wrap boundary.
const NEAR_EDGE: u64 = 1 << 16;

/// A symbol value: half the time within `NEAR_EDGE` of `i64::MIN` or
/// `i64::MAX`, otherwise small.
fn pick_value(rng: &mut SplitMix64) -> i64 {
    let offset = rng.below(NEAR_EDGE) as i64;
    match rng.below(4) {
        0 => i64::MIN + offset,
        1 => i64::MAX - offset,
        _ => rng.below(201) as i64 - 100,
    }
}

fn near_edge(v: i64) -> bool {
    v.abs_diff(i64::MIN) < NEAR_EDGE || v.abs_diff(i64::MAX) < NEAR_EDGE
}

/// Emits one guard that is TRUE under `assignment` — the generator picks
/// the comparison *after* evaluating its left side with `ceval`, so the
/// conjunction of every emitted guard is satisfiable by construction,
/// wraparound included.
fn true_atom(rng: &mut SplitMix64, assignment: &CAssignment) -> SVal {
    let x = rng.below(u64::from(SYMBOLS)) as u32;
    let y = rng.below(u64::from(SYMBOLS)) as u32;
    let c = rng.below(2 * NEAR_EDGE) as i64 - NEAR_EDGE as i64;
    let lhs = match rng.below(6) {
        // Affine guard on one symbol: (x * m + c) <op> k.
        0 => {
            let m = 1 + rng.below(4) as i64;
            bin(BinOp::Add, bin(BinOp::Mul, sym(x), int(m)), int(c))
        }
        // Offset guard on one symbol: (x ± c) <op> k.
        1 => bin(
            if rng.below(2) == 0 {
                BinOp::Add
            } else {
                BinOp::Sub
            },
            sym(x),
            int(c),
        ),
        // Residue guard: x % k == (x % k)'s value.
        2 => {
            let k = 2 + rng.below(7) as i64;
            bin(BinOp::Rem, sym(x), int(k))
        }
        // Difference guard: x - y <op> k.
        3 => bin(BinOp::Sub, sym(x), sym(y)),
        // Variable-vs-variable order, with an optional offset on x.
        4 => {
            let lhs = if rng.below(2) == 0 {
                sym(x)
            } else {
                bin(BinOp::Add, sym(x), int(c))
            };
            let (vl, vy) = (value_of(&lhs, assignment), value_of(&sym(y), assignment));
            let op = match vl.cmp(&vy) {
                std::cmp::Ordering::Less => BinOp::Lt,
                std::cmp::Ordering::Equal => BinOp::Eq,
                std::cmp::Ordering::Greater => BinOp::Gt,
            };
            return bin(op, lhs, sym(y));
        }
        // Plain bound on one symbol.
        _ => sym(x),
    };
    let v = value_of(&lhs, assignment);
    pick_true_cmp(rng, lhs, v)
}

/// Wraps `lhs` (whose concrete value is `v`) in a comparison against a
/// constant chosen so the comparison is true; falls back to `== v` when
/// the constant would leave i64.
fn pick_true_cmp(rng: &mut SplitMix64, lhs: SVal, v: i64) -> SVal {
    let slack = rng.below(16) as i64;
    let (op, k) = match rng.below(6) {
        0 => (BinOp::Lt, v.checked_add(1 + slack)),
        1 => (BinOp::Le, v.checked_add(slack)),
        2 => (BinOp::Gt, v.checked_sub(1 + slack)),
        3 => (BinOp::Ge, v.checked_sub(slack)),
        4 => (BinOp::Eq, Some(v)),
        _ => (BinOp::Ne, Some(v.wrapping_add(1 + slack))),
    };
    match k {
        Some(k) => bin(op, lhs, int(k)),
        None => bin(BinOp::Eq, lhs, int(v)),
    }
}

#[test]
fn satisfiable_prefixes_are_never_refuted_by_any_tier() {
    let (mut values, mut at_edge) = (0, 0);
    for case in 0..400u64 {
        let mut rng = SplitMix64(case.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0x9e);
        let assignment: CAssignment = (0..SYMBOLS)
            .map(|id| (id, CVal::Int(pick_value(&mut rng))))
            .collect();
        values += assignment.len();
        at_edge += assignment
            .values()
            .filter(|v| matches!(v, CVal::Int(i) if near_edge(*i)))
            .count();
        let mut cm = ConstraintManager::new();
        let mut domain = AbstractDomain::new();
        let mut path = PathCondition::new();
        for step in 0..8 {
            let atom = true_atom(&mut rng, &assignment);
            assert_eq!(
                ceval_bool(&atom, &assignment),
                Some(true),
                "case {case} step {step}: generator emitted a guard that is \
                 not concretely true — the property would be vacuous"
            );
            for mode in MODES {
                let outcome = probe_pipeline(mode, &cm, &domain, &path, &atom, true);
                assert_eq!(
                    outcome.feasibility(),
                    Feasibility::Feasible,
                    "case {case} step {step} mode {}: refuted a concretely \
                     satisfiable prefix ({outcome:?} for {atom} under {assignment:?})",
                    mode.as_str()
                );
            }
            assert_eq!(cm.assume(&atom, true), Feasibility::Feasible);
            assert_eq!(domain.assume(&atom, true), Feasibility::Feasible);
            path.push(atom, true);
        }
    }
    assert!(
        4 * at_edge >= values,
        "only {at_edge} of {values} values sit next to the wrap boundary"
    );
}

/// Probes `cond` under the full pipeline after assuming `guards` on
/// the path (syntactically, in the domain and in π), and checks that the
/// witness satisfies every guard and the condition concretely.
fn probe_with_witness(guards: &[SVal], cond: &SVal, witness: &[(u32, i64)]) -> ProbeOutcome {
    let assignment: CAssignment = witness.iter().map(|&(id, v)| (id, CVal::Int(v))).collect();
    for guard in guards.iter().chain([cond]) {
        assert_eq!(
            ceval_bool(guard, &assignment),
            Some(true),
            "the witness must satisfy {guard}"
        );
    }
    let (mut cm, mut domain, mut path) = (
        ConstraintManager::new(),
        AbstractDomain::new(),
        PathCondition::new(),
    );
    for guard in guards {
        assert_eq!(cm.assume(guard, true), Feasibility::Feasible);
        assert_eq!(domain.assume(guard, true), Feasibility::Feasible);
        path.push(guard.clone(), true);
    }
    probe_pipeline(FeasibilityMode::Full, &cm, &domain, &path, cond, true)
}

#[test]
fn tier0_keeps_an_offset_guard_that_wraps() {
    // s − 1 > 5 ∧ s < 0: s = i64::MIN wraps s − 1 to i64::MAX.
    let guard = bin(BinOp::Gt, bin(BinOp::Sub, sym(0), int(1)), int(5));
    let cond = bin(BinOp::Lt, sym(0), int(0));
    let mut cm = ConstraintManager::new();
    assert_eq!(cm.assume(&guard, true), Feasibility::Feasible);
    assert_eq!(cm.assume(&cond, true), Feasibility::Feasible);
    assert_eq!(
        probe_with_witness(&[guard], &cond, &[(0, i64::MIN)]),
        ProbeOutcome::Feasible
    );
}

#[test]
fn tier0_equality_follows_the_wrapped_shift() {
    // s + 10 == i64::MIN holds for s = i64::MAX − 9.
    let cond = bin(BinOp::Eq, bin(BinOp::Add, sym(0), int(10)), int(i64::MIN));
    let mut cm = ConstraintManager::new();
    assert_eq!(cm.assume(&cond, true), Feasibility::Feasible);
    assert_eq!(cm.known_value(0), Some(i64::MAX - 9));
    assert_eq!(
        probe_with_witness(&[], &cond, &[(0, i64::MAX - 9)]),
        ProbeOutcome::Feasible
    );
}

#[test]
fn tier1_keeps_a_product_that_wraps() {
    // s * 3 < 90 ∧ s > 1000: s = i64::MAX / 2 wraps s * 3 negative.
    let guard = bin(BinOp::Lt, bin(BinOp::Mul, sym(0), int(3)), int(90));
    let cond = bin(BinOp::Gt, sym(0), int(1000));
    assert_eq!(
        probe_with_witness(&[guard], &cond, &[(0, i64::MAX / 2)]),
        ProbeOutcome::Feasible
    );
}

#[test]
fn tier2_keeps_a_difference_edge_that_wraps() {
    // x + 1 < y ∧ y < x: x = i64::MAX wraps x + 1 to i64::MIN.
    let guard = bin(BinOp::Lt, bin(BinOp::Add, sym(0), int(1)), sym(1));
    let cond = bin(BinOp::Lt, sym(1), sym(0));
    assert_eq!(
        probe_with_witness(&[guard], &cond, &[(0, i64::MAX), (1, 0)]),
        ProbeOutcome::Feasible
    );
}

/// A module whose entry nests `depth` consistent guards on one public
/// scalar below 1000 — every guard refines the same interval fact,
/// driving the per-symbol meet counter far past the widening freeze —
/// optionally capped by one contradictory innermost guard.
fn deep_guard_module(depth: usize, contradict: bool) -> (String, String) {
    let mut src = String::from(
        "int deep_guard(int pub0, int *out) {\n    int scratch = 0;\n    if (pub0 < 1000) {\n",
    );
    for i in 0..depth {
        src.push_str(&format!("    if (pub0 > {i}) {{\n"));
    }
    if contradict {
        // Affine so only the interval domain sees it: the syntactic tier
        // deliberately keeps multiplication feasible (paper faithfulness).
        // The outer bound keeps `pub0 * 3` from wrapping, so no input
        // satisfies it.
        src.push_str("    if (pub0 * 3 < 5) { scratch = scratch + 1; }\n");
    }
    src.push_str("    scratch = scratch + 1;\n");
    for _ in 0..=depth {
        src.push_str("    }\n");
    }
    src.push_str("    out[0] = 7;\n    return scratch * 0;\n}\n");
    let edl = "enclave { trusted {\n        public int deep_guard(int pub0, [out, count=1] int *out);\n    }; };\n"
        .to_string();
    (src, edl)
}

fn analyze_with(source: &str, edl: &str, entry: &str, options: AnalyzerOptions) -> Report {
    Analyzer::from_sources(source, edl, options)
        .expect("module configures")
        .analyze(entry)
        .expect("module analyzes")
}

#[test]
fn widening_freeze_terminates_and_keeps_refutation_power() {
    // Comfortably past WIDEN_AFTER consistent refinements of the same
    // fact, then a contradiction past the freeze point. The nesting is
    // deep enough that parser/engine recursion outgrows the default test
    // thread stack in debug builds, so the analyses run on a dedicated
    // big-stack thread.
    let depth = symexec::domain::WIDEN_AFTER as usize + 16;
    for contradict in [false, true] {
        let (source, edl) = deep_guard_module(depth, contradict);
        let mut reports = Vec::new();
        for mode in MODES {
            let (source, edl) = (source.clone(), edl.clone());
            let report = std::thread::Builder::new()
                .stack_size(64 * 1024 * 1024)
                .spawn(move || {
                    analyze_with(
                        &source,
                        &edl,
                        "deep_guard",
                        AnalyzerOptions {
                            max_paths: 4096,
                            workers: 1,
                            feasibility: mode,
                            ..AnalyzerOptions::default()
                        },
                    )
                })
                .expect("spawns")
                .join()
                .expect("deep-guard analysis completes");
            assert!(
                !report.is_degraded(),
                "mode {}: the guard chain must be explored exhaustively",
                mode.as_str()
            );
            assert!(report.is_secure(), "the module is benign");
            reports.push(report);
        }
        if contradict {
            // The contradictory innermost branch arrives after the fact
            // froze; the bottom check must still refute it.
            assert!(
                reports[1].stats.tier1_refuted > 0,
                "the default pipeline must refute the post-freeze contradiction"
            );
            assert!(
                reports[1].stats.paths < reports[0].stats.paths,
                "pruning the contradiction must save a path"
            );
        }
    }
}

fn branch_heavy_options(mode: FeasibilityMode, workers: usize) -> AnalyzerOptions {
    AnalyzerOptions {
        max_paths: 4096,
        workers,
        feasibility: mode,
        ..AnalyzerOptions::default()
    }
}

/// The classification a soundness verdict is made of: which leak, where,
/// from which secret. Exemplar `observations` legitimately differ across
/// modes — pruning removes concretely-infeasible witness paths, so the
/// recorded representative path can change — but the violation set may not.
fn classification(findings: &[Finding]) -> Vec<(String, String, String)> {
    findings
        .iter()
        .map(|f| (format!("{:?}", f.kind), f.channel.clone(), f.secret.clone()))
        .collect()
}

#[test]
fn violation_sets_are_mode_invariant_on_the_synthetic_corpus() {
    for seed in 0..12u64 {
        let module = mlcorpus::synth::generate(seed);
        let baseline = analyze_with(
            &module.source,
            &module.edl,
            module.entry,
            branch_heavy_options(FeasibilityMode::Syntactic, 1),
        );
        let report = analyze_with(
            &module.source,
            &module.edl,
            module.entry,
            branch_heavy_options(FeasibilityMode::default(), 1),
        );
        assert_eq!(
            classification(&baseline.findings),
            classification(&report.findings),
            "seed {seed}: the default pipeline changed the violation set"
        );
        assert_eq!(
            baseline.is_secure(),
            report.is_secure(),
            "seed {seed}: the default pipeline flipped the verdict"
        );
    }
}

#[test]
fn reports_and_tier_counters_are_worker_count_invariant_per_mode() {
    let module = mlcorpus::synth::generate_branch_heavy(11, 1);
    for mode in MODES {
        let mut sequential = analyze_with(
            &module.source,
            &module.edl,
            module.entry,
            branch_heavy_options(mode, 1),
        );
        let mut parallel = analyze_with(
            &module.source,
            &module.edl,
            module.entry,
            branch_heavy_options(mode, 4),
        );
        // Wall-clock time is the one field workers are allowed to change.
        sequential.stats.time = std::time::Duration::ZERO;
        parallel.stats.time = std::time::Duration::ZERO;
        assert_eq!(
            sequential.to_json(),
            parallel.to_json(),
            "mode {}: report bytes diverged between workers 1 and 4",
            mode.as_str()
        );
        assert_eq!(
            (
                sequential.stats.tier1_refuted,
                sequential.stats.tier2_refuted,
                sequential.stats.tier2_unknown,
            ),
            (
                parallel.stats.tier1_refuted,
                parallel.stats.tier2_refuted,
                parallel.stats.tier2_unknown,
            ),
            "mode {}: per-tier counters diverged between workers 1 and 4",
            mode.as_str()
        );
        assert_eq!(
            sequential.profile,
            parallel.profile,
            "mode {}",
            mode.as_str()
        );
    }
}

#[test]
fn stronger_tiers_explore_strictly_fewer_paths_on_branch_heavy_corpus() {
    let module = mlcorpus::synth::generate_branch_heavy(3, 1);
    let mut by_mode = Vec::new();
    for mode in MODES {
        let report = analyze_with(
            &module.source,
            &module.edl,
            module.entry,
            branch_heavy_options(mode, 1),
        );
        assert!(!report.is_degraded(), "mode {} must finish", mode.as_str());
        by_mode.push(report);
    }
    let [syntactic, full] = by_mode.as_slice() else {
        unreachable!("two modes analyzed")
    };
    assert!(
        full.stats.paths < syntactic.stats.paths,
        "the default ({}) must prune below syntactic ({})",
        full.stats.paths,
        syntactic.stats.paths
    );
    assert!(
        full.stats.tier1_refuted > 0,
        "interval refutations recorded"
    );
    assert!(full.stats.tier2_refuted > 0, "solver refutations recorded");
    assert!(
        full.profile.total_steps() < syntactic.profile.total_steps(),
        "the default ({} steps) must interpret fewer statements than syntactic ({})",
        full.profile.total_steps(),
        syntactic.profile.total_steps()
    );
    assert_eq!(
        syntactic.findings, full.findings,
        "pruning never changes findings"
    );
}
