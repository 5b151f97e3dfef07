//! Governing guarantees of the two-tier feasibility pruning pipeline.
//!
//! 1. **Soundness against the concrete evaluator.** Conjunctions built
//!    *assignment-first* (pick concrete values, then emit only guards the
//!    values satisfy) are satisfiable by construction, so no tier of the
//!    pipeline may ever answer "infeasible" at any prefix, in any mode.
//! 2. **Widening termination.** Guard chains far longer than the
//!    `WIDEN_AFTER` refinement budget terminate, and a contradiction past
//!    the freeze point is still refuted (the bottom check never freezes).
//! 3. **Findings are mode-invariant.** Stronger tiers only prune
//!    concretely unsatisfiable paths, so violations and degradations are
//!    identical across `syntactic`, `intervals`, and `full`.
//! 4. **Worker-count byte-identity per mode.** Reports — including the
//!    per-tier refutation counters — are byte-identical at any worker
//!    count, for every feasibility mode.
//! 5. **Pruning is real.** On the branch-heavy corpus, `full` explores
//!    strictly fewer paths than `intervals`, which explores strictly
//!    fewer than `syntactic`, and `full` interprets strictly fewer steps
//!    than `syntactic` — the deterministic count behind its wall-clock
//!    win.

use minic::ast::BinOp;
use privacyscope::report::Finding;
use privacyscope::{Analyzer, AnalyzerOptions, FeasibilityMode, Report};
use symexec::concrete;
use symexec::constraints::{probe_pipeline, ConstraintManager, Feasibility};
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

const MODES: [FeasibilityMode; 3] = [
    FeasibilityMode::Syntactic,
    FeasibilityMode::Intervals,
    FeasibilityMode::Full,
];

const SYMBOLS: u32 = 6;

fn sym(id: u32) -> SVal {
    SVal::Sym(Symbol::new(id, format!("s{id}")))
}

/// Emits one guard that is TRUE under `assignment` — the generator picks
/// the comparison *after* looking at the concrete values, so the
/// conjunction of every emitted guard is satisfiable by construction.
fn true_atom(rng: &mut SplitMix64, assignment: &concrete::Assignment) -> SVal {
    let x = rng.below(u64::from(SYMBOLS)) as u32;
    let vx = assignment[&x];
    match rng.below(5) {
        // Affine guard on one symbol: (x * m + c) <op> k.
        0 => {
            let m = 1 + rng.below(4) as i64;
            let c = rng.below(20) as i64 - 10;
            let lhs = SVal::binary(
                BinOp::Add,
                SVal::binary(BinOp::Mul, sym(x), SVal::Int(m)),
                SVal::Int(c),
            );
            let v = vx * m + c;
            pick_true_cmp(rng, lhs, v)
        }
        // Residue guard: x % k == vx % k (Rust remainder semantics on
        // both sides, so it holds for negative vx too).
        1 => {
            let k = 2 + rng.below(7) as i64;
            SVal::binary(
                BinOp::Eq,
                SVal::binary(BinOp::Rem, sym(x), SVal::Int(k)),
                SVal::Int(vx % k),
            )
        }
        // Variable-vs-variable order, chosen to match the assignment.
        2 => {
            let y = rng.below(u64::from(SYMBOLS)) as u32;
            let vy = assignment[&y];
            let op = match vx.cmp(&vy) {
                std::cmp::Ordering::Less => BinOp::Lt,
                std::cmp::Ordering::Equal => BinOp::Eq,
                std::cmp::Ordering::Greater => BinOp::Gt,
            };
            SVal::binary(op, sym(x), sym(y))
        }
        // Difference guard: x - y <op> k.
        3 => {
            let y = rng.below(u64::from(SYMBOLS)) as u32;
            let vy = assignment[&y];
            let lhs = SVal::binary(BinOp::Sub, sym(x), sym(y));
            pick_true_cmp(rng, lhs, vx - vy)
        }
        // Plain bound on one symbol.
        _ => pick_true_cmp(rng, sym(x), vx),
    }
}

/// Wraps `lhs` (whose concrete value is `v`) in a comparison against a
/// constant chosen so the comparison is true.
fn pick_true_cmp(rng: &mut SplitMix64, lhs: SVal, v: i64) -> SVal {
    let slack = rng.below(16) as i64;
    let (op, k) = match rng.below(6) {
        0 => (BinOp::Lt, v + 1 + slack),
        1 => (BinOp::Le, v + slack),
        2 => (BinOp::Gt, v - 1 - slack),
        3 => (BinOp::Ge, v - slack),
        4 => (BinOp::Eq, v),
        _ => (BinOp::Ne, v + 1 + slack),
    };
    SVal::binary(op, lhs, SVal::Int(k))
}

#[test]
fn satisfiable_prefixes_are_never_refuted_by_any_tier() {
    for case in 0..200u64 {
        let mut rng = SplitMix64(case.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0x9e);
        let assignment =
            concrete::assignment((0..SYMBOLS).map(|id| (id, rng.below(201) as i64 - 100)));
        let mut cm = ConstraintManager::new();
        let mut domain = AbstractDomain::new();
        let mut path = PathCondition::new();
        for step in 0..8 {
            let atom = true_atom(&mut rng, &assignment);
            assert_eq!(
                concrete::eval_bool(&atom, &assignment),
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
                     satisfiable prefix ({outcome:?} for {atom:?})",
                    mode.as_str()
                );
            }
            assert_eq!(cm.assume(&atom, true), Feasibility::Feasible);
            assert_eq!(domain.assume(&atom, true), Feasibility::Feasible);
            path.push(atom, true);
        }
    }
}

/// A module whose entry nests `depth` consistent guards on one public
/// scalar — every guard refines the same interval fact, driving the
/// per-symbol meet counter far past the widening freeze — optionally
/// capped by one contradictory innermost guard.
fn deep_guard_module(depth: usize, contradict: bool) -> (String, String) {
    let mut src = String::from("int deep_guard(int pub0, int *out) {\n    int scratch = 0;\n");
    for i in 0..depth {
        src.push_str(&format!("    if (pub0 > {i}) {{\n"));
    }
    if contradict {
        // Affine so only the interval domain sees it: the syntactic tier
        // deliberately keeps multiplication feasible (paper faithfulness).
        src.push_str("    if (pub0 * 3 < 5) { scratch = scratch + 1; }\n");
    }
    src.push_str("    scratch = scratch + 1;\n");
    for _ in 0..depth {
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
                "intervals must refute the post-freeze contradiction"
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
        for mode in [FeasibilityMode::Intervals, FeasibilityMode::Full] {
            let report = analyze_with(
                &module.source,
                &module.edl,
                module.entry,
                branch_heavy_options(mode, 1),
            );
            assert_eq!(
                classification(&baseline.findings),
                classification(&report.findings),
                "seed {seed}: mode {} changed the violation set",
                mode.as_str()
            );
            assert_eq!(
                baseline.is_secure(),
                report.is_secure(),
                "seed {seed}: mode {} flipped the verdict",
                mode.as_str()
            );
        }
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
    let [syntactic, intervals, full] = by_mode.as_slice() else {
        unreachable!("three modes analyzed")
    };
    assert!(
        intervals.stats.paths < syntactic.stats.paths,
        "intervals ({}) must prune below syntactic ({})",
        intervals.stats.paths,
        syntactic.stats.paths
    );
    assert!(
        full.stats.paths < intervals.stats.paths,
        "full ({}) must prune below intervals ({}) — the variable-order \
         cycle is invisible to a non-relational domain",
        full.stats.paths,
        intervals.stats.paths
    );
    assert!(
        intervals.stats.tier1_refuted > 0,
        "interval refutations recorded"
    );
    assert!(full.stats.tier2_refuted > 0, "solver refutations recorded");
    assert!(
        full.profile.total_steps() < syntactic.profile.total_steps(),
        "full ({} steps) must interpret fewer statements than syntactic ({})",
        full.profile.total_steps(),
        syntactic.profile.total_steps()
    );
    assert_eq!(
        syntactic.findings, full.findings,
        "pruning never changes findings"
    );
}
