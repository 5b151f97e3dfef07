//! Fork-heavy stress fixture for copy-on-write path states.
//!
//! A cascade of independent branches doubles the path population at every
//! step, so by the end the engine holds hundreds of sibling states that
//! all share the structure built before their fork points. The test pins
//! down (a) the combinatorial population survives with per-path results
//! intact, and (b) worker count does not change a single observable —
//! byte-level determinism is the invariant structural sharing must not
//! break.

use symexec::engine::{Engine, EngineConfig, ParamBinding};

/// `levels` sequential two-way branches over a secret array: 2^levels
/// feasible paths, each writing a distinct cell pattern.
fn cascade_source(levels: usize) -> String {
    let mut body = String::new();
    body.push_str("int acc = 0;\nint cells[16];\n");
    for i in 0..levels {
        body.push_str(&format!(
            "if (secrets[{i}] > {threshold}) {{ cells[{i}] = secrets[{i}] + {i}; acc = acc + cells[{i}]; }} else {{ cells[{i}] = {i}; }}\n",
            threshold = 10 + i,
        ));
    }
    body.push_str("return acc;\n");
    format!("int cascade(int *secrets) {{\n{body}}}\n")
}

fn run_cascade(levels: usize, workers: usize) -> symexec::engine::Exploration {
    let unit = minic::parse(&cascade_source(levels)).expect("fixture parses");
    let config = EngineConfig {
        workers,
        max_paths: 4096,
        ..EngineConfig::default()
    };
    Engine::new(&unit, config)
        .run("cascade", &[ParamBinding::SecretPointer])
        .expect("exploration succeeds")
}

#[test]
fn cascade_explores_every_fork() {
    let levels = 8;
    let exploration = run_cascade(levels, 1);
    assert_eq!(
        exploration.paths.len(),
        1 << levels,
        "2^{levels} feasible paths expected"
    );
    // Every completed path carries its own divergent store: the final
    // branch's cell differs between the sibling halves.
    let taken: Vec<bool> = exploration
        .paths
        .iter()
        .map(|p| {
            p.state
                .path
                .assumptions()
                .last()
                .expect("at least one assumption")
                .taken
        })
        .collect();
    assert!(taken.iter().any(|t| *t) && taken.iter().any(|t| !*t));
    assert_eq!(exploration.stats.forks, (1 << levels) - 1);
}

#[test]
fn cascade_is_identical_across_worker_counts() {
    let levels = 7;
    let sequential = run_cascade(levels, 1);
    let parallel = run_cascade(levels, 4);
    assert_eq!(sequential.paths.len(), parallel.paths.len());
    for (a, b) in sequential.paths.iter().zip(parallel.paths.iter()) {
        assert_eq!(a.return_value, b.return_value);
        assert_eq!(a.state, b.state, "path state diverged across worker counts");
    }
    assert_eq!(sequential.stats, parallel.stats);
}

#[test]
fn sibling_paths_do_not_alias_writes() {
    // Two paths from one fork must hold different values for the same
    // region — the classic aliasing bug a broken COW layer would cause.
    let unit = minic::parse(
        "int pick(int secret) { int out = 0; if (secret > 5) { out = 1; } else { out = 2; } return out; }",
    )
    .expect("fixture parses");
    let exploration = Engine::new(&unit, EngineConfig::default())
        .run("pick", &[ParamBinding::SecretScalar])
        .expect("exploration succeeds");
    assert_eq!(exploration.paths.len(), 2);
    let out = symexec::value::Region::Var {
        frame: 0,
        name: "out".into(),
    };
    let values: Vec<_> = exploration
        .paths
        .iter()
        .map(|p| p.state.store.lookup(&out).cloned())
        .collect();
    assert_ne!(
        values[0], values[1],
        "sibling paths alias the same store node"
    );
}

#[test]
fn sibling_final_states_share_structure_across_waves() {
    // A straight-line prologue reads and copies 32 secret cells, then the
    // cascade forks. Every top-level statement is its own wave, so each
    // final state has been through dozens of merges. A merge rewrites only
    // what its task created: the env, store and taint nodes and the log
    // chunks built in earlier waves must stay shared between siblings
    // instead of being rebuilt per path.
    let levels = 6;
    let prologue: String = (0..32)
        .map(|i| format!("warm[{i}] = secrets[{i}] * {i};\n"))
        .collect();
    let source =
        cascade_source(levels).replacen("{\n", &format!("{{\nint warm[32];\n{prologue}"), 1);
    let unit = minic::parse(&source).expect("fixture parses");
    for workers in [1, 2] {
        let config = EngineConfig {
            workers,
            max_paths: 4096,
            ..EngineConfig::default()
        };
        let exploration = Engine::new(&unit, config)
            .run("cascade", &[ParamBinding::SecretPointer])
            .expect("exploration succeeds");
        assert_eq!(exploration.paths.len(), 1 << levels);
        for pair in exploration.paths.chunks(2) {
            let (shared, total) = pair[0].state.shared_allocations(&pair[1].state);
            assert!(
                2 * shared > total,
                "siblings share only {shared} of {total} allocations (workers {workers})"
            );
        }
    }
}
