//! Feasibility-pruning benchmarks.
//!
//! The `bench_feasibility` group measures the one feasibility pipeline:
//!
//! * **per-fork refutation latency by tier** — what one probe costs when
//!   it is settled by the syntactic check (tier 0), the
//!   interval/congruence domain (tier 1), and the SAT-lite solver's
//!   difference-logic theory (tier 2);
//! * **end-to-end wall time** on the deliberately branch-heavy synthetic
//!   corpus (`mlcorpus::synth::generate_branch_heavy`).
//!
//! The pipeline's contract (each tier refutes its own fixture; the
//! default explores strictly fewer paths and steps than the syntactic
//! reference) is asserted deterministically by `symexec::constraints`'
//! unit tests and `tests/feasibility_props.rs`; end-to-end times are
//! tracked by `perfbench`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use minic::ast::BinOp;
use privacyscope::{Analyzer, AnalyzerOptions, FeasibilityMode, Report};
use symexec::constraints::{probe_pipeline, ConstraintManager, ProbeOutcome};
use symexec::domain::AbstractDomain;
use symexec::path::PathCondition;
use symexec::value::{SVal, Symbol};

/// Seed and cluster count of the branch-heavy module: two contradiction
/// clusters multiply the syntactic path count by 36², most of which the
/// pipeline prunes.
const BH_SEED: u64 = 3;
const BH_CLUSTERS: usize = 2;

fn sym(id: u32, hint: &str) -> SVal {
    SVal::Sym(Symbol::new(id, hint))
}

/// A probe settled by tier 0: `x > 50` already assumed, `x < 5` probed.
fn tier0_fixture() -> (ConstraintManager, AbstractDomain, PathCondition, SVal) {
    let mut cm = ConstraintManager::new();
    let guard = SVal::binary(BinOp::Gt, sym(0, "x"), SVal::Int(50));
    cm.assume(&guard, true);
    let mut path = PathCondition::new();
    path.push(guard, true);
    let cond = SVal::binary(BinOp::Lt, sym(0, "x"), SVal::Int(5));
    (cm, AbstractDomain::new(), path, cond)
}

/// A probe only tier 1 settles: `37 < x < 1000` assumed, `x * 3 < 90`
/// probed — the syntactic tier deliberately keeps multiplication
/// feasible, and the upper bound keeps `x * 3` from wrapping.
fn tier1_fixture() -> (ConstraintManager, AbstractDomain, PathCondition, SVal) {
    let mut cm = ConstraintManager::new();
    let mut domain = AbstractDomain::new();
    let mut path = PathCondition::new();
    for guard in [
        SVal::binary(BinOp::Gt, sym(0, "x"), SVal::Int(37)),
        SVal::binary(BinOp::Lt, sym(0, "x"), SVal::Int(1000)),
    ] {
        cm.assume(&guard, true);
        domain.assume(&guard, true);
        path.push(guard, true);
    }
    let cond = SVal::binary(
        BinOp::Lt,
        SVal::binary(BinOp::Mul, sym(0, "x"), SVal::Int(3)),
        SVal::Int(90),
    );
    (cm, domain, path, cond)
}

/// A probe only tier 2 settles: `x < y` on the path, `y < x` probed — a
/// variable-order cycle no non-relational domain can see.
fn tier2_fixture() -> (ConstraintManager, AbstractDomain, PathCondition, SVal) {
    let mut cm = ConstraintManager::new();
    let mut domain = AbstractDomain::new();
    let guard = SVal::binary(BinOp::Lt, sym(0, "x"), sym(1, "y"));
    cm.assume(&guard, true);
    domain.assume(&guard, true);
    let mut path = PathCondition::new();
    path.push(guard, true);
    let cond = SVal::binary(BinOp::Lt, sym(1, "y"), sym(0, "x"));
    (cm, domain, path, cond)
}

fn probe_outcome(
    fixture: &(ConstraintManager, AbstractDomain, PathCondition, SVal),
) -> ProbeOutcome {
    let (cm, domain, path, cond) = fixture;
    probe_pipeline(FeasibilityMode::default(), cm, domain, path, cond, true)
}

fn branch_heavy_report() -> Report {
    let module = mlcorpus::synth::generate_branch_heavy(BH_SEED, BH_CLUSTERS);
    let options = AnalyzerOptions {
        max_paths: 8192,
        workers: 1,
        ..AnalyzerOptions::default()
    };
    Analyzer::from_sources(&module.source, &module.edl, options)
        .expect("branch-heavy module builds")
        .analyze(module.entry)
        .expect("branch-heavy module analyzes")
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("bench_feasibility");
    let t0 = tier0_fixture();
    let t1 = tier1_fixture();
    let t2 = tier2_fixture();
    group.bench_function("probe_refute/syntactic", |b| {
        b.iter(|| probe_outcome(black_box(&t0)))
    });
    group.bench_function("probe_refute/intervals", |b| {
        b.iter(|| probe_outcome(black_box(&t1)))
    });
    group.bench_function("probe_refute/solver", |b| {
        b.iter(|| probe_outcome(black_box(&t2)))
    });
    group.sample_size(5);
    group.bench_function("branch_heavy", |b| b.iter(branch_heavy_report));
    group.finish();
}

criterion_group!(benches, bench_feasibility);
criterion_main!(benches);
