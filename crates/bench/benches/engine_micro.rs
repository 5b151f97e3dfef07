//! Microbenchmarks of the engine's building blocks: frontend parsing,
//! expression simplification, constraint management, taint joins, PRIML
//! analysis, the enclave runtime interpreter, and the supervised-runtime
//! overhead (deadline polling).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use minic::ast::BinOp;
use symexec::constraints::ConstraintManager;
use symexec::engine::{Engine, EngineConfig, ParamBinding};
use symexec::simplify::simplify;
use symexec::value::{SVal, Symbol};
use taint::{SourceId, TaintSet};

fn bench_frontend(c: &mut Criterion) {
    let source = mlcorpus::kmeans::module().source;
    c.bench_function("minic_parse_kmeans", |b| {
        b.iter(|| minic::parse(source).expect("parses"))
    });
    let edl_text = mlcorpus::kmeans::module().edl;
    c.bench_function("edl_parse", |b| {
        b.iter(|| edl::parse_edl(edl_text).expect("parses"))
    });
}

fn deep_expr(symbol: u64, depth: usize) -> SVal {
    let mut expr = SVal::Sym(Symbol::new(symbol, "x"));
    for i in 0..depth {
        expr = SVal::binary(
            if i % 2 == 0 { BinOp::Add } else { BinOp::Mul },
            expr,
            SVal::Int((i % 7) as i64 + 1),
        );
    }
    expr
}

fn bench_simplify(c: &mut Criterion) {
    // Cold: every input roots a fresh symbol, so none of its operator
    // nodes has been simplified before and the whole chain is walked.
    let mut symbol = 0;
    c.bench_function("simplify_depth64_cold", |b| {
        b.iter_batched(
            || {
                symbol += 1;
                deep_expr(symbol, 64)
            },
            |expr| simplify(&expr),
            BatchSize::SmallInput,
        )
    });
    // Already normal: the engine's common case, re-simplifying a value
    // built from simplified operands.
    let normal = simplify(&deep_expr(0, 64));
    c.bench_function("simplify_depth64_normal", |b| b.iter(|| simplify(&normal)));
}

fn bench_constraints(c: &mut Criterion) {
    c.bench_function("constraints_assume_chain", |b| {
        b.iter(|| {
            let mut cm = ConstraintManager::new();
            for i in 0..32 {
                let sym = SVal::Sym(Symbol::new(i % 4, format!("s{}", i % 4)));
                let cond = SVal::binary(BinOp::Gt, sym, SVal::Int(i as i64 - 16));
                let _ = cm.assume(&cond, true);
            }
            cm
        })
    });
}

fn bench_taint(c: &mut Criterion) {
    let sets: Vec<TaintSet> = (0..16)
        .map(|i| TaintSet::from_sources((0..i % 5).map(SourceId::new)))
        .collect();
    c.bench_function("taint_join_fold", |b| {
        b.iter(|| {
            let mut acc = TaintSet::bottom();
            for s in &sets {
                acc = taint::binop(&acc, s);
            }
            acc
        })
    });
    // Subsumed operands: a wide accumulator joined with its own subsets,
    // the shape of a loop body mixing one more use of sources it already
    // carries.
    let wide = TaintSet::from_sources((0..24).map(SourceId::new));
    c.bench_function("taint_join_fold_subsumed", |b| {
        b.iter(|| {
            let mut acc = wide.clone();
            for s in &sets {
                acc = taint::binop(&acc, s);
            }
            acc
        })
    });
}

fn bench_priml(c: &mut Criterion) {
    let program = priml::parse(priml::examples::EXAMPLE2).expect("parses");
    c.bench_function("priml_analyze_example2", |b| {
        b.iter(|| priml::analysis::analyze(&program))
    });
    c.bench_function("priml_concrete_run", |b| {
        b.iter(|| priml::concrete::run(&program, &[9]).expect("runs"))
    });
}

fn bench_runtime(c: &mut Criterion) {
    let module = mlcorpus::kmeans::module();
    let enclave = sgx_sim::Enclave::load(module.source, module.edl).expect("enclave loads");
    let points: Vec<sgx_sim::interp::Word> = mlcorpus::datasets::kmeans_points(7)
        .into_iter()
        .map(sgx_sim::interp::Word::Float)
        .collect();
    c.bench_function("sgx_sim_kmeans_ecall", |b| {
        b.iter(|| {
            enclave
                .ecall(
                    module.entry,
                    &[
                        sgx_sim::EcallArg::In(points.clone()),
                        sgx_sim::EcallArg::Out(7),
                    ],
                )
                .expect("runs")
        })
    });
}

fn bench_supervisor(c: &mut Criterion) {
    // The deadline supervisor polls a monotonic clock every 64 interpreted
    // steps; this pair quantifies that overhead on a fork-heavy workload
    // (the far-future deadline never fires, so both runs explore the same
    // paths).
    let mut source = String::from("int f(int a) { int s = 0;\n");
    for i in 0..8 {
        source.push_str(&format!("if ((a >> {i}) & 1) s += {i};\n"));
    }
    source.push_str("return s; }");
    let unit = minic::parse(&source).expect("parses");
    let run = |deadline: Option<Duration>| {
        let config = EngineConfig {
            workers: 1,
            deadline,
            ..EngineConfig::default()
        };
        Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .expect("explores")
    };
    c.bench_function("explore_unsupervised", |b| b.iter(|| run(None)));
    c.bench_function("explore_with_deadline", |b| {
        b.iter(|| run(Some(Duration::from_secs(3600))))
    });
}

fn bench_checkpoint(c: &mut Criterion) {
    // Per-wave snapshot overhead: the same fork-heavy workload with a
    // snapshot serialized, fsynced and atomically renamed at *every* wave
    // boundary versus checkpointing disabled. Real runs checkpoint far less
    // often, so this is the worst case.
    let mut source = String::from("int f(int a) { int s = 0;\n");
    for i in 0..8 {
        source.push_str(&format!("if ((a >> {i}) & 1) s += {i};\n"));
    }
    source.push_str("return s; }");
    let unit = minic::parse(&source).expect("parses");
    let path = std::env::temp_dir().join(format!("ps_bench_ckpt_{}.snap", std::process::id()));
    let run = |checkpoint: Option<std::path::PathBuf>| {
        let config = EngineConfig {
            workers: 1,
            checkpoint_every: usize::from(checkpoint.is_some()),
            checkpoint,
            ..EngineConfig::default()
        };
        Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .expect("explores")
    };
    c.bench_function("explore_without_checkpoint", |b| b.iter(|| run(None)));
    c.bench_function("explore_checkpoint_every_wave", |b| {
        b.iter(|| run(Some(path.clone())))
    });
    let _ = std::fs::remove_file(&path);
}

fn bench_telemetry(c: &mut Criterion) {
    // Telemetry overhead per exploration, in three postures: handle
    // disabled (the default — the per-step hot loop must see zero
    // telemetry cost), metrics-only (per-wave counter/histogram updates,
    // no I/O), and full JSONL tracing (per-wave + per-path-task spans
    // through a buffered writer). The workload is the recommender
    // ML-corpus module (kmeans explores for seconds per run — too heavy
    // for an iteration loop).
    let module = mlcorpus::recommender::module();
    let unit = minic::parse(module.source).expect("parses");
    let trace_path =
        std::env::temp_dir().join(format!("ps_bench_trace_{}.jsonl", std::process::id()));
    let metrics_path =
        std::env::temp_dir().join(format!("ps_bench_metrics_{}.json", std::process::id()));
    let run = |telemetry: telemetry::Telemetry| {
        let config = EngineConfig {
            workers: 1,
            max_paths: 32,
            telemetry,
            ..EngineConfig::default()
        };
        Engine::new(&unit, config)
            .run(
                module.entry,
                &[ParamBinding::SecretPointer, ParamBinding::OutPointer],
            )
            .expect("explores")
    };
    c.bench_function("explore_telemetry_off", |b| {
        b.iter(|| run(telemetry::Telemetry::disabled()))
    });
    c.bench_function("explore_telemetry_metrics", |b| {
        let handle = telemetry::TelemetryConfig {
            metrics_out: Some(metrics_path.clone()),
            ..telemetry::TelemetryConfig::default()
        }
        .build()
        .expect("metrics sink opens");
        b.iter(|| run(handle.clone()))
    });
    c.bench_function("explore_telemetry_full", |b| {
        let handle = telemetry::TelemetryConfig {
            trace_out: Some(trace_path.clone()),
            metrics_out: Some(metrics_path.clone()),
            ..telemetry::TelemetryConfig::default()
        }
        .build()
        .expect("trace sink opens");
        b.iter(|| run(handle.clone()))
    });
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
}

criterion_group!(
    benches,
    bench_frontend,
    bench_simplify,
    bench_constraints,
    bench_taint,
    bench_priml,
    bench_runtime,
    bench_supervisor,
    bench_checkpoint,
    bench_telemetry
);
criterion_main!(benches);
