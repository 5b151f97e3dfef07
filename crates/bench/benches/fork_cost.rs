//! Fork-cost microbenchmarks for the copy-on-write state representation,
//! plus the `BENCH_5.json` perf-smoke summary.
//!
//! The `bench_fork_cost` group compares what a fork costs now (an `Arc`
//! bump per persistent container) against what the pre-COW representation
//! paid (a full `BTreeMap`/`Vec` deep copy of the same contents), and
//! times the end-to-end ML-corpus recommender analysis the paper's
//! evaluation leans on.
//!
//! Custom `main` (harness = false): after running the criterion group it
//! re-measures the three headline numbers — per-fork time (COW vs. deep),
//! bytes-shared ratio after a divergent write, recommender wall time — and
//! writes them to `BENCH_5.json` (path overridable via `BENCH_OUT`) so CI
//! can track the perf trajectory. `BENCH_QUICK=1` shrinks sample counts
//! for the smoke job.

use std::collections::BTreeMap;
use std::time::Instant;

use criterion::{black_box, Criterion};
use minic::ast::{BinOp, ExprId};
use privacyscope::{Analyzer, AnalyzerOptions};
use symexec::state::ExecState;
use symexec::value::{Region, SVal, Symbol};
use taint::{SourceId, TaintSet};

/// How many writes the synthetic fork fixture performs.
const STATE_ENTRIES: usize = 1024;

/// A state shaped like a long-running path: a mix of scalar, element and
/// field regions, symbolic values, partial taint, env bindings and a long
/// write log.
fn populated_state(n: usize) -> ExecState {
    let mut state = ExecState::new();
    let buf = Region::Sym {
        symbol: Symbol::new(0, "buf"),
    };
    for i in 0..n {
        let region = match i % 4 {
            0 => Region::Var {
                frame: 0,
                name: format!("v{i}").into(),
            },
            1 => Region::element(buf.clone(), SVal::Int(i as i64)),
            2 => Region::field(
                Region::Var {
                    frame: 0,
                    name: format!("s{}", i / 4).into(),
                },
                "f",
            ),
            _ => Region::Global {
                name: format!("g{i}").into(),
            },
        };
        let value = SVal::binary(
            BinOp::Add,
            SVal::Sym(Symbol::new(i as u32, "x")),
            SVal::Int(i as i64),
        );
        let taint = if i % 3 == 0 {
            TaintSet::source(SourceId::new((i % 8) as u32))
        } else {
            TaintSet::bottom()
        };
        state.write(region, value, taint);
        if i % 5 == 0 {
            state.env.bind(ExprId(i as u32), buf.clone());
        }
    }
    state
}

/// The pre-COW representation of the same contents: what `ExecState::clone`
/// used to copy on every fork.
type DeepMirror = (
    BTreeMap<Region, SVal>,
    BTreeMap<Region, TaintSet>,
    BTreeMap<ExprId, Region>,
    Vec<Region>,
);

fn deep_mirror(state: &ExecState) -> DeepMirror {
    (
        state
            .store
            .iter()
            .map(|(r, v)| (r.clone(), v.clone()))
            .collect(),
        state
            .taints
            .iter()
            .map(|(r, t)| (r.clone(), t.clone()))
            .collect(),
        state.env.iter().map(|(e, r)| (*e, r.clone())).collect(),
        state.write_log.to_vec(),
    )
}

fn recommender_report() -> privacyscope::Report {
    let module = mlcorpus::recommender::module();
    let options = AnalyzerOptions {
        max_paths: 32,
        workers: 1,
        ..AnalyzerOptions::default()
    };
    Analyzer::from_sources(module.source, module.edl, options)
        .expect("recommender builds")
        .analyze(module.entry)
        .expect("recommender analyzes")
}

fn bench_fork_cost(c: &mut Criterion) {
    let state = populated_state(STATE_ENTRIES);
    let mirror = deep_mirror(&state);
    let mut group = c.benchmark_group("bench_fork_cost");
    group.bench_function(format!("fork_cow/{STATE_ENTRIES}"), |b| {
        b.iter(|| state.clone())
    });
    group.bench_function(format!("fork_deep/{STATE_ENTRIES}"), |b| {
        b.iter(|| mirror.clone())
    });
    group
        .sample_size(5)
        .bench_function("recommender_end_to_end", |b| b.iter(recommender_report));
    group.finish();
}

/// Median per-iteration nanoseconds over `samples` batches of `iters`.
fn median_ns<O, F: FnMut() -> O>(samples: usize, iters: u32, mut f: F) -> f64 {
    let mut costs: Vec<f64> = (0..samples.max(2))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    costs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    costs[costs.len() / 2]
}

fn main() {
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    // `cargo bench` passes --bench; a bare run (or --test in CI) must not
    // choke on unknown flags, so arguments are simply ignored.
    let mut c = Criterion::default().sample_size(if quick { 10 } else { 50 });
    bench_fork_cost(&mut c);

    // Headline numbers for BENCH_5.json.
    let state = populated_state(STATE_ENTRIES);
    let mirror = deep_mirror(&state);
    let (samples, iters) = if quick { (5, 200) } else { (20, 1000) };
    let cow_ns = median_ns(samples, iters, || state.clone());
    let deep_ns = median_ns(samples, iters, || mirror.clone());
    let speedup = deep_ns / cow_ns;

    // Bytes-shared ratio: fork, make one divergent write, then count how
    // much of the fork is still the parent's allocation.
    let mut fork = state.clone();
    fork.write(
        Region::Var {
            frame: 0,
            name: "diverge".into(),
        },
        SVal::Int(1),
        TaintSet::source(SourceId::new(9)),
    );
    let (shared, total) = fork.shared_allocations(&state);
    let ratio = shared as f64 / total.max(1) as f64;

    let rec_samples = if quick { 3 } else { 10 };
    let rec_ms = median_ns(rec_samples, 1, recommender_report) / 1e6;
    let paths = recommender_report().stats.paths;

    assert!(
        speedup >= 2.0,
        "per-fork speedup regressed below the 2x floor: deep {deep_ns:.0}ns / cow {cow_ns:.0}ns = {speedup:.2}x"
    );

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| String::from("BENCH_5.json"));
    let json = format!(
        "{{\n  \"bench\": \"fork_cost\",\n  \"quick\": {quick},\n  \"fork\": {{\n    \"state_entries\": {STATE_ENTRIES},\n    \"cow_ns\": {cow_ns:.1},\n    \"deep_ns\": {deep_ns:.1},\n    \"speedup\": {speedup:.2}\n  }},\n  \"sharing\": {{\n    \"shared_allocations\": {shared},\n    \"total_allocations\": {total},\n    \"ratio\": {ratio:.4}\n  }},\n  \"recommender\": {{\n    \"wall_ms\": {rec_ms:.1},\n    \"paths\": {paths}\n  }}\n}}\n"
    );
    std::fs::write(&out, json).expect("write bench summary");
    println!(
        "fork speedup {speedup:.1}x, shared ratio {ratio:.3}, recommender {rec_ms:.1}ms -> {out}"
    );
}
