//! Sema resolves every name once, and the engine keys a local's region by
//! that resolution and its frame. Each module below computes, in C terms,
//! a number that a wrong scope would change:
//!
//! * a local shadowed in a nested block keeps its own value;
//! * a local shadowed in a loop body is a fresh variable each iteration;
//! * a `for`-init declaration shadows only for the loop;
//! * a use before the shadowing declaration in the same block reads the
//!   outer variable;
//! * a local shadowing a global hides it from its block only, and a
//!   callee still reads the global;
//! * the same local name in the entry, an inlined callee and each frame of
//!   a recursive call is a distinct variable, and so is a shadow inside a
//!   callee.
//!
//! Every module first forks on a public input, so each wave holds two
//! paths; the exploration must be identical at one and at four workers.

use std::collections::BTreeSet;

use symexec::engine::{Engine, EngineConfig, ParamBinding};
use symexec::SVal;

/// Runs `f(long pub)` of `source` at one and at four workers, requires the
/// two explorations to be identical, and returns the return values.
fn returns(source: &str) -> BTreeSet<i64> {
    let unit = minic::parse(source).expect("module parses");
    let run = |workers| {
        let config = EngineConfig {
            workers,
            ..EngineConfig::default()
        };
        Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .expect("module runs")
    };
    let sequential = run(1);
    assert_eq!(sequential, run(4), "the exploration depends on workers");
    assert!(sequential.ledger.is_complete(), "{:?}", sequential.ledger);
    sequential
        .paths
        .iter()
        .map(|path| match path.return_value {
            Some((SVal::Int(value), _)) => value,
            ref other => panic!("non-constant return {other:?}"),
        })
        .collect()
}

/// `f` forks on `pub`, runs `body`, and returns `base * 10000 + r`, so the
/// two paths return `r` and `10000 + r`.
fn entry(globals: &str, body: &str) -> String {
    format!(
        "{globals}\nlong f(long pub) {{\nlong base = 0;\nif (pub > 0) base = 1;\n{body}\nreturn base * 10000 + r;\n}}\n"
    )
}

fn both(r: i64) -> BTreeSet<i64> {
    BTreeSet::from([r, 10000 + r])
}

#[test]
fn shadow_in_a_nested_block() {
    let body =
        "long x = 1;\nlong y = 0;\n{ long x = 2; x = x + 10; y = x; }\nlong r = x * 100 + y;";
    assert_eq!(returns(&entry("", body)), both(112));
}

#[test]
fn shadow_in_a_loop_body() {
    let body = "long x = 1;\nlong s = 0;\nlong i = 0;\n\
                while (i < 3) { long x = i * 10; x = x + 1; s = s + x; i = i + 1; }\n\
                long r = x * 1000 + s;";
    assert_eq!(returns(&entry("", body)), both(1033));
}

#[test]
fn for_init_declaration() {
    let body =
        "long i = 7;\nlong s = 0;\nfor (long i = 0; i < 3; i++) s = s + i;\nlong r = i * 100 + s;";
    assert_eq!(returns(&entry("", body)), both(703));
}

#[test]
fn use_before_the_shadowing_declaration() {
    let body = "long x = 5;\nlong a = 0;\nlong b = 0;\n\
                { a = x; long x = 9; b = x; }\n\
                long r = a * 100 + b * 10 + x;";
    assert_eq!(returns(&entry("", body)), both(595));
}

#[test]
fn local_shadowing_a_global() {
    let globals = "long g = 3;\nlong read_g(void) { return g; }";
    let body = "g = g + 1;\nlong seen = g;\n\
                { long g = 40; g = g + 1; seen = seen * 1000 + g * 10 + read_g(); }\n\
                long r = seen * 10 + g;";
    // seen = 4, then 4 * 1000 + 41 * 10 + 4 = 4414; r = 44140 + 4.
    assert_eq!(returns(&entry(globals, body)), both(44144));
}

#[test]
fn same_name_in_callee_and_recursive_frames() {
    let globals = "long down(long n) {\n\
                   long x = n * 10;\n\
                   if (n > 0) { long r = down(n - 1); return x + r; }\n\
                   return x;\n\
                   }\n\
                   long twice(long v) { long x = v; { long x = v * 2; v = x; } return x + v; }";
    let body = "long x = 1;\nlong r = x * 1000 + down(2) * 10 + twice(3) + x;";
    // down(2) = 20 + 10 + 0 = 30; twice(3) = 3 + 6 = 9.
    assert_eq!(returns(&entry(globals, body)), both(1000 + 300 + 9 + 1));
}
