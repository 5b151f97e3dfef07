//! Determinism and accounting guarantees of the worklist engine.
//!
//! 1. Parallel exploration is **byte-identical** to sequential: running any
//!    ML-corpus module with `workers = 4` yields exactly the `Exploration`
//!    that `workers = 1` (the legacy engine) produces — same path order,
//!    same symbol/source numbering, same event log, same counters.
//! 2. The harvest accounts for every finished path: across path budgets and
//!    worker counts, `completed + dropped_paths` is the program's true path
//!    count, `completed` equals the collected paths, and — since the fix to
//!    the declassify-event asymmetry — the global event log carries one
//!    return observation per finished path, dropped or kept.

use privacyscope::analyzer::param_bindings;
use proptest::prelude::*;
use symexec::engine::{Engine, EngineConfig, Exploration, ParamBinding};
use symexec::state::Channel;
use symexec::Degradation;

/// The analyzer's bindings for a corpus entry with no configuration
/// overrides.
fn bindings_from_edl(edl_text: &str, entry: &str) -> Vec<ParamBinding> {
    let edl_file = edl::parse_edl(edl_text).expect("corpus EDL parses");
    let proto = edl_file.ecall(entry).expect("entry is a declared ECALL");
    param_bindings(proto, &edl::AnalysisConfig::default())
}

/// Explores one corpus module with the analyzer's sink/source wiring.
fn explore_module(module: &mlcorpus::Module, workers: usize) -> Exploration {
    let unit = minic::parse(module.source).expect("corpus source parses");
    let edl_file = edl::parse_edl(module.edl).expect("corpus EDL parses");
    let mut config = EngineConfig {
        max_paths: 32,
        workers,
        ..EngineConfig::default()
    };
    for sink in edl_file.ocall_names() {
        config.sink_functions.insert(sink);
    }
    for source in privacyscope::analyzer::DEFAULT_DECRYPT_FUNCTIONS {
        config.source_functions.insert(source.to_string());
    }
    let bindings = bindings_from_edl(module.edl, module.entry);
    Engine::new(&unit, config)
        .run(module.entry, &bindings)
        .expect("corpus module explores")
}

#[test]
fn ml_corpus_explorations_are_identical_at_any_worker_count() {
    for module in mlcorpus::modules() {
        let sequential = explore_module(&module, 1);
        let parallel = explore_module(&module, 4);
        assert_eq!(
            sequential, parallel,
            "{}: workers=4 diverged from workers=1",
            module.name
        );
        assert!(
            !sequential.paths.is_empty(),
            "{}: exploration collected no paths",
            module.name
        );
    }
}

/// Four independent branches on secret bits: exactly 16 feasible paths.
const BRANCHY: &str = "
int classify(int a, int b, int c, int d) {
    int acc = 0;
    if (a > 0) { acc = acc + 1; }
    if (b > 0) { acc = acc + 2; }
    if (c > 0) { acc = acc + 4; }
    if (d > 0) { acc = acc + 8; }
    return acc;
}
";

const BRANCHY_PATHS: usize = 16;

fn explore_branchy(max_paths: usize, workers: usize) -> Exploration {
    let unit = minic::parse(BRANCHY).expect("branchy program parses");
    let config = EngineConfig {
        max_paths,
        workers,
        ..EngineConfig::default()
    };
    let bindings = vec![ParamBinding::SecretScalar; 4];
    Engine::new(&unit, config)
        .run("classify", &bindings)
        .expect("branchy program explores")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every finished path is accounted for, at any budget and worker
    /// count: kept paths show up in `paths`/`completed`, budget-dropped
    /// ones in `dropped_paths`, and both leave a return observation in the
    /// global event log. Budgets stay ≥ 8 so the fork backstop
    /// (`max_paths * 4`) never truncates the 15-fork exploration.
    #[test]
    fn harvest_accounts_for_every_path(budget in 8usize..40, workers in 1usize..5) {
        let exploration = explore_branchy(budget, workers);
        let stats = &exploration.stats;

        prop_assert_eq!(stats.completed, exploration.paths.len());
        prop_assert_eq!(stats.completed, budget.min(BRANCHY_PATHS));
        prop_assert_eq!(stats.completed + stats.dropped_paths, BRANCHY_PATHS);
        prop_assert_eq!(exploration.exhausted, budget < BRANCHY_PATHS);

        let return_events = exploration
            .events
            .iter()
            .filter(|event| matches!(event.channel, Channel::Return))
            .count();
        prop_assert_eq!(return_events, BRANCHY_PATHS);

        // And the whole exploration is budget-deterministic: workers only
        // change wall-clock time, never the result. (`Exploration`
        // equality covers the degradation ledger too.)
        prop_assert_eq!(exploration, explore_branchy(budget, 1));
    }
}

/// The feasibility-cache hit/miss counters are part of the deterministic
/// output: probes are classified against the canonical probe set at merge
/// time (first sighting in merge order = miss, repeat = hit), so the split
/// is invariant under worker count *and* live-cache capacity — it measures
/// the workload's probe redundancy, not scheduling-dependent occupancy.
#[test]
fn cache_counters_are_worker_count_invariant() {
    let sequential = explore_branchy(40, 1);
    assert!(
        sequential.stats.cache_hits + sequential.stats.cache_misses > 0,
        "the branchy program must exercise the feasibility cache"
    );
    for workers in [2, 4] {
        let parallel = explore_branchy(40, workers);
        assert_eq!(
            (sequential.stats.cache_hits, sequential.stats.cache_misses),
            (parallel.stats.cache_hits, parallel.stats.cache_misses),
            "workers={workers} changed the cache accounting"
        );
    }

    // Capacity-independence: shrinking the live cache to nothing changes
    // what `cache.check` memoizes, but not the deterministic accounting.
    let unit = minic::parse(BRANCHY).expect("branchy program parses");
    let config = EngineConfig {
        max_paths: 40,
        workers: 4,
        feasibility_cache: 0,
        ..EngineConfig::default()
    };
    let bindings = vec![ParamBinding::SecretScalar; 4];
    let uncached = Engine::new(&unit, config)
        .run("classify", &bindings)
        .expect("branchy program explores");
    assert_eq!(
        (sequential.stats.cache_hits, sequential.stats.cache_misses),
        (uncached.stats.cache_hits, uncached.stats.cache_misses),
        "cache capacity changed the deterministic accounting"
    );
}

/// The degradation ledger is part of the deterministic output: a
/// budget-truncated exploration reports the same coalesced entries at
/// every worker count, in the same order.
#[test]
fn degradation_ledger_is_worker_count_invariant() {
    let sequential = explore_branchy(8, 1);
    let parallel = explore_branchy(8, 4);
    assert_eq!(sequential.ledger, parallel.ledger);
    assert!(
        sequential
            .ledger
            .entries()
            .iter()
            .any(|d| matches!(d, Degradation::PathBudget { .. })),
        "a truncated run must disclose the path budget: {:?}",
        sequential.ledger
    );
    // An untruncated run keeps a clean ledger.
    let clean = explore_branchy(40, 4);
    assert!(clean.ledger.is_empty(), "{:?}", clean.ledger);
    assert!(clean.ledger.is_complete());
}
