//! A returned call frees its frame when no pointer can reach it: the
//! callee takes no address (`&`) and every parameter and local is a scalar
//! or a pointer. Its locals then leave the store when the call returns,
//! so a long run of calls does not pile up dead bindings.
//!
//! * LinearRegression's one finished path holds fewer than 200 store
//!   bindings (tens of thousands of its calls' locals stayed before).
//! * A callee that stores `&local` in its caller's memory, one that passes
//!   a local array to a helper, and one with a struct local each keep
//!   their frame, and report what their hand-inlined twins report.
//! * A secret written to a callee local and returned still gives its
//!   finding, and so does a loop of such calls cut by widening, which must
//!   not bind the freed locals again.
//!
//! Every check runs at one and at four workers, whose explorations must
//! be identical.

use privacyscope::{Analyzer, AnalyzerOptions, FindingKind};
use symexec::engine::{Engine, EngineConfig, Exploration, ParamBinding};
use symexec::Region;

const EDL: &str = r#"
enclave {
    trusted { public void f([in, count=8] long *secret, long pub, [out] long *out); };
};
"#;

type Key = (FindingKind, String, String);

/// Every finding of `source` at one and at four workers, which must agree.
fn findings(source: &str) -> Vec<Key> {
    let run = |workers| {
        let options = AnalyzerOptions {
            workers,
            ..AnalyzerOptions::default()
        };
        let report = Analyzer::from_sources(source, EDL, options)
            .expect("module builds")
            .analyze("f")
            .expect("module analyzes");
        assert!(!report.is_degraded(), "{report}");
        report
            .findings
            .into_iter()
            .map(|f| (f.kind, f.channel, f.secret))
            .collect::<Vec<Key>>()
    };
    let sequential = run(1);
    assert_eq!(sequential, run(4), "findings depend on workers");
    sequential
}

/// Explores `entry` of `source` at one and at four workers, requiring the
/// two explorations to be identical.
fn explore(
    source: &str,
    entry: &str,
    bindings: &[ParamBinding],
    config: EngineConfig,
) -> Exploration {
    let unit = minic::parse(source).expect("module parses");
    let run = |workers| {
        let config = EngineConfig {
            workers,
            ..config.clone()
        };
        Engine::new(&unit, config)
            .run(entry, bindings)
            .expect("module runs")
    };
    let sequential = run(1);
    assert_eq!(sequential, run(4), "the exploration depends on workers");
    sequential
}

/// For each finished path of `f(secret, pub, out)`, how many locals of
/// inlined calls its store binds. Freeing a frame unbinds exactly those;
/// every callee below has a scalar parameter, so a kept frame counts.
fn callee_bindings(source: &str) -> Vec<usize> {
    let bindings = [
        ParamBinding::SecretPointer,
        ParamBinding::Scalar,
        ParamBinding::OutPointer,
    ];
    let exploration = explore(source, "f", &bindings, EngineConfig::default());
    assert!(exploration.ledger.is_complete(), "{:?}", exploration.ledger);
    exploration
        .paths
        .iter()
        .map(|path| {
            path.state
                .store
                .iter()
                .filter(|(region, _, _)| matches!(region, Region::Var { frame, .. } if *frame != 0))
                .count()
        })
        .collect()
}

fn entry(globals: &str, body: &str) -> String {
    format!("{globals}\nvoid f(long *secret, long pub, long *out) {{\n{body}\n}}\n")
}

fn explicit_secret0() -> Vec<Key> {
    vec![(
        FindingKind::Explicit,
        "out[0]".to_string(),
        "secret[0]".to_string(),
    )]
}

/// Requires the callee form to keep its frame on every path and to report
/// exactly what its hand-inlined twin reports, namely `expected`.
fn assert_kept_like_twin(callee: &str, twin: &str, expected: &[Key]) {
    let kept = callee_bindings(callee);
    assert!(!kept.is_empty(), "no finished path");
    assert!(
        kept.iter().all(|&n| n > 0),
        "a frame a pointer may reach was freed: {kept:?}"
    );
    assert_eq!(findings(callee), expected, "callee form");
    assert_eq!(findings(twin), expected, "inlined twin");
}

#[test]
fn linear_regression_ends_with_a_small_store() {
    let module = mlcorpus::linear_regression::module();
    let edl_file = edl::parse_edl(module.edl).expect("corpus EDL parses");
    let proto = edl_file
        .ecall(module.entry)
        .expect("entry is a declared ECALL");
    let bindings: Vec<ParamBinding> = proto
        .params
        .iter()
        .map(|param| {
            match (
                param.is_pointer(),
                param.attributes.is_in(),
                param.attributes.is_out(),
            ) {
                (false, _, _) => ParamBinding::Scalar,
                (true, true, true) => ParamBinding::InOutPointer,
                (true, true, false) => ParamBinding::SecretPointer,
                (true, false, true) => ParamBinding::OutPointer,
                (true, false, false) => ParamBinding::Pointer,
            }
        })
        .collect();
    let mut config = EngineConfig {
        max_paths: 16,
        ..EngineConfig::default()
    };
    config.sink_functions.extend(edl_file.ocall_names());
    let exploration = explore(module.source, module.entry, &bindings, config);
    assert!(exploration.ledger.is_complete(), "{:?}", exploration.ledger);
    assert_eq!(
        exploration.paths.len(),
        1,
        "LinearRegression runs as one path"
    );
    let store = exploration.paths[0].state.store.len();
    assert!(
        store < 200,
        "LinearRegression's finished path holds {store} store bindings"
    );
}

#[test]
fn callee_storing_a_local_address_in_caller_memory_keeps_its_frame() {
    let globals = "void keep(long **slot, long v) { long t = v; *slot = &t; }";
    assert_kept_like_twin(
        &entry(
            globals,
            "long *p = out;\nkeep(&p, secret[0]);\nout[0] = *p;",
        ),
        &entry(
            "",
            "long *p = out;\nlong t = secret[0];\np = &t;\nout[0] = *p;",
        ),
        &explicit_secret0(),
    );
}

#[test]
fn callee_passing_a_local_array_to_a_helper_keeps_its_frame() {
    let globals = "void put(long *buf, long v) { buf[1] = v; }\n\
                   long pick(long v) { long buf[2]; buf[0] = 0; put(buf, v); return buf[1]; }";
    assert_kept_like_twin(
        &entry(globals, "out[0] = pick(secret[0]);"),
        &entry(
            "",
            "long buf[2];\nbuf[0] = 0;\nbuf[1] = secret[0];\nout[0] = buf[1];",
        ),
        &explicit_secret0(),
    );
}

#[test]
fn callee_with_a_struct_local_keeps_its_frame() {
    let globals = "struct pair { long a; long b; };\n\
                   long first(long x, long y) { struct pair p; p.a = x; p.b = y; return p.a; }";
    assert_kept_like_twin(
        &entry(globals, "out[0] = first(secret[0], pub);"),
        &entry(
            "struct pair { long a; long b; };",
            "struct pair p;\np.a = secret[0];\np.b = pub;\nout[0] = p.a;",
        ),
        &explicit_secret0(),
    );
}

#[test]
fn secret_returned_through_a_freed_local_keeps_its_finding() {
    let globals = "long copy(long v) { long t = 0; t = v + 1; return t; }";
    let callee = entry(globals, "out[0] = copy(secret[0]);");
    assert_eq!(
        callee_bindings(&callee),
        vec![0],
        "the callee's frame is freed"
    );
    assert_eq!(findings(&callee), explicit_secret0());
    assert_eq!(
        findings(&entry("", "long t = 0;\nt = secret[0] + 1;\nout[0] = t;")),
        explicit_secret0()
    );
}

#[test]
fn widening_over_freed_calls_keeps_the_findings() {
    // `pub` bounds the loop, so it forks until widening cuts it; the
    // widened write log holds the freed locals of every unrolled call.
    let globals = "long step(long acc, long v) { long t = acc + v; return t; }";
    let callee = entry(
        globals,
        "long acc = 0;\nlong i = 0;\n\
         while (i < pub) { acc = step(acc, secret[0]); i = i + 1; }\nout[0] = acc;",
    );
    let twin = entry(
        "",
        "long acc = 0;\nlong i = 0;\n\
         while (i < pub) { long t = acc + secret[0]; acc = t; i = i + 1; }\nout[0] = acc;",
    );
    let freed = callee_bindings(&callee);
    assert!(freed.len() > 1, "the loop forks");
    assert!(
        freed.iter().all(|&n| n == 0),
        "freed locals came back: {freed:?}"
    );
    assert_eq!(findings(&callee), explicit_secret0());
    assert_eq!(findings(&twin), explicit_secret0());
}
