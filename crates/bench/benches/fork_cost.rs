//! Fork-cost microbenchmarks for the copy-on-write state representation.
//!
//! The `bench_fork_cost` group compares what a fork costs now (an `Arc`
//! bump per persistent container) against what the pre-COW representation
//! paid (a full `BTreeMap`/`Vec` deep copy of the same contents), and
//! times the end-to-end ML-corpus recommender analysis the paper's
//! evaluation leans on. How much of a fork stays shared is asserted
//! deterministically by `symexec::state`'s unit tests; end-to-end times
//! are tracked by `perfbench`.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, Criterion};
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

criterion_group!(benches, bench_fork_cost);
criterion_main!(benches);
