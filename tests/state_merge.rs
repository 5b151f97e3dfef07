//! Call-return merging keeps every finding. Each module below calls a
//! side-effect-free helper that branches; its twin has the helper written
//! out in the entry function, where no path ever merges. The two must
//! report the same finding keys:
//!
//! * (a) a merged index selects between two single-source slots, so each
//!   slot's source is flagged;
//! * (b) a write through a merged index leaves one slot ⊥ on one arm, so
//!   a later `+ secret[3]` reveals that source alone;
//! * (c) a helper branching on one secret returns 1/0 into an OCALL: π is
//!   single-source, nothing merges, and the implicit leak is found;
//! * (d) a helper branching on a public parameter, followed by a secret
//!   branch around an OCALL of its result: π is ⊥ at the return, nothing
//!   merges, and the implicit leak is found (the secret is read before
//!   the helper, so every path observes the same source).
//!
//! Kmeans, whose only secret branch sits in such a helper, runs as one
//! complete path, and merged states survive a checkpoint.

use std::collections::BTreeSet;

use privacyscope::oracle::finding_keys;
use privacyscope::{Analyzer, AnalyzerOptions, Report};
use symexec::engine::{Engine, EngineConfig, ParamBinding};
use symexec::Snapshot;

const EDL: &str = r#"
enclave {
    trusted { public int entry([in] int *secret, int pub, [out] int *out); };
    untrusted { void ocall_send(int v); };
};
"#;

/// Helpers shared by the merged modules. `mixed` branches on two secrets
/// (its π is ⊤ and its paths merge), `positive` on one secret, `public`
/// on a public value. The squares keep the conditions out of the
/// feasibility constraints, so only the π rule keeps the last two apart.
const HELPERS: &str = r#"
void ocall_send(int v);

int mixed(int a, int b) {
    if (a + b > 0) {
        return 1;
    }
    return 0;
}

int positive(int v) {
    if (v * v > 10) {
        return 1;
    }
    return 0;
}

int public(int p) {
    if (p * p > 10) {
        return 1;
    }
    return 0;
}
"#;

struct Shape {
    name: &'static str,
    /// The entry body calling a helper.
    merged: &'static str,
    /// The same body with the helper written out.
    inlined: &'static str,
    /// Whether the helper's paths merge at its return.
    merges: bool,
    /// The finding keys both must report.
    expected: &'static [(bool, &'static str, &'static str)],
}

const A: Shape = Shape {
    name: "a: merged index reads two single-source slots",
    merged: r#"
    int buf[2];
    buf[0] = secret[3];
    buf[1] = secret[4];
    int k = mixed(secret[0], secret[1]);
    out[0] = buf[k];
    return 0;"#,
    inlined: r#"
    int buf[2];
    buf[0] = secret[3];
    buf[1] = secret[4];
    int k = 0;
    if (secret[0] + secret[1] > 0) {
        k = 1;
    } else {
        k = 0;
    }
    out[0] = buf[k];
    return 0;"#,
    merges: true,
    expected: &[(true, "out[0]", "secret[3]"), (true, "out[0]", "secret[4]")],
};

const B: Shape = Shape {
    name: "b: merged index write leaves a ⊥ arm",
    merged: r#"
    int buf[2];
    int k = mixed(secret[0], secret[1]);
    buf[k] = secret[2];
    out[0] = buf[1] + secret[3];
    return 0;"#,
    inlined: r#"
    int buf[2];
    int k = 0;
    if (secret[0] + secret[1] > 0) {
        k = 1;
    } else {
        k = 0;
    }
    buf[k] = secret[2];
    out[0] = buf[1] + secret[3];
    return 0;"#,
    merges: true,
    expected: &[(true, "out[0]", "secret[3]")],
};

const C: Shape = Shape {
    name: "c: single-source branch into an OCALL",
    merged: r#"
    int r = positive(secret[0]);
    ocall_send(r);
    return 0;"#,
    inlined: r#"
    int r = 0;
    if (secret[0] * secret[0] > 10) {
        r = 1;
    } else {
        r = 0;
    }
    ocall_send(r);
    return 0;"#,
    merges: false,
    expected: &[(false, "argument 0 of `ocall_send`", "secret[0]")],
};

const D: Shape = Shape {
    name: "d: public branch, then a secret branch around an OCALL",
    merged: r#"
    int s = secret[0];
    int r = public(pub);
    if (s > 0) {
        ocall_send(r);
    }
    return 0;"#,
    inlined: r#"
    int s = secret[0];
    int r = 0;
    if (pub * pub > 10) {
        r = 1;
    } else {
        r = 0;
    }
    if (s > 0) {
        ocall_send(r);
    }
    return 0;"#,
    merges: false,
    expected: &[(false, "argument 0 of `ocall_send`", "secret[0]")],
};

fn analyze(source: &str, edl: &str, entry: &str, max_paths: usize) -> Report {
    let options = AnalyzerOptions {
        max_paths,
        workers: 1,
        ..AnalyzerOptions::default()
    };
    Analyzer::from_sources(source, edl, options)
        .expect("module builds")
        .analyze(entry)
        .expect("module analyzes")
}

fn module(body: &str) -> String {
    format!("{HELPERS}\nint entry(int *secret, int pub, int *out) {{{body}\n}}\n")
}

/// The merged module and its inlined twin report `shape.expected`, and
/// only the merged module merges (when the shape merges at all).
fn check(shape: &Shape) {
    let merged = analyze(&module(shape.merged), EDL, "entry", 4096);
    let inlined = analyze(&module(shape.inlined), EDL, "entry", 4096);
    let expected: BTreeSet<(bool, String, String)> = shape
        .expected
        .iter()
        .map(|(explicit, channel, secret)| (*explicit, channel.to_string(), secret.to_string()))
        .collect();
    assert_eq!(
        finding_keys(&inlined),
        expected,
        "{}: inlined twin",
        shape.name
    );
    assert_eq!(
        finding_keys(&merged),
        expected,
        "{}: merged module",
        shape.name
    );
    let merges = merged.profile.totals().merges;
    assert_eq!(
        merges > 0,
        shape.merges,
        "{}: {merges} merge(s)",
        shape.name
    );
    assert_eq!(
        inlined.profile.totals().merges,
        0,
        "{}: twin merged",
        shape.name
    );
    if shape.merges {
        assert!(
            merged.stats.paths < inlined.stats.paths,
            "{}: merging kept {} paths against {}",
            shape.name,
            merged.stats.paths,
            inlined.stats.paths
        );
    }
}

#[test]
fn a_merged_index_read_flags_both_slots() {
    check(&A);
}

#[test]
fn b_merged_index_write_keeps_the_bottom_arm() {
    check(&B);
}

#[test]
fn c_single_source_branch_does_not_merge() {
    check(&C);
}

#[test]
fn d_public_branch_does_not_merge() {
    check(&D);
}

#[test]
fn noninterference_never_merges() {
    let options = AnalyzerOptions {
        property: privacyscope::Property::Noninterference,
        workers: 1,
        ..AnalyzerOptions::default()
    };
    let report = Analyzer::from_sources(&module(A.merged), EDL, options)
        .expect("module builds")
        .analyze("entry")
        .expect("module analyzes");
    assert_eq!(report.profile.totals().merges, 0);
    assert_eq!(report.stats.paths, 2);
}

#[test]
fn kmeans_runs_as_one_complete_path() {
    let module = mlcorpus::kmeans::module();
    for max_paths in [16, 4096] {
        let report = analyze(module.source, module.edl, module.entry, max_paths);
        assert!(!report.stats.exhausted, "max_paths {max_paths}: exhausted");
        assert_eq!(report.stats.paths, 1, "max_paths {max_paths}");
        assert_eq!(report.stats.forks, 30, "max_paths {max_paths}");
        assert_eq!(report.profile.totals().merges, 30, "max_paths {max_paths}");
        assert!(report.findings.is_empty(), "{report}");
    }
    let implicit = mlcorpus::inject::kmeans_injections()
        .expect("corpus anchors intact")
        .into_iter()
        .find(|injection| injection.name == "implicit-ocall")
        .expect("the implicit-ocall injection");
    let report = analyze(
        implicit.module.source,
        implicit.module.edl,
        implicit.module.entry,
        16,
    );
    assert!(!report.stats.exhausted);
    assert_eq!(report.stats.paths, 2);
    assert_eq!(report.stats.forks, 61);
}

#[test]
fn generated_callee_branch_modules_merge_only_the_mixed_helper() {
    // Every generated module calls `cb_pick` (⊤ π, merges) once per path
    // that reaches its epilogue, and `cb_above` or `cb_public` (never
    // merges) in its prologue.
    for seed in 0..4u64 {
        let module = mlcorpus::synth::generate_callee_branch(seed);
        let report = analyze(&module.source, &module.edl, module.entry, 4096);
        assert_eq!(
            report.profile.totals().merges,
            report.stats.paths as u64,
            "seed {seed}: one merge per path, at `cb_pick`"
        );
        assert!(!report.stats.exhausted, "seed {seed}");
    }
}

#[test]
fn merged_states_resume_from_a_checkpoint() {
    // Shape b leaves an `ite` value with an arm-aware taint in the store at
    // every later wave boundary; the periodic snapshot must carry both and
    // resume to the uninterrupted exploration.
    let source = module(B.merged);
    let unit = minic::parse(&source).expect("module parses");
    let bindings = [
        ParamBinding::SecretPointer,
        ParamBinding::Scalar,
        ParamBinding::OutPointer,
    ];
    let path = std::env::temp_dir().join(format!(
        "privacyscope_state_merge_{}.snap",
        std::process::id()
    ));
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let mut full = Engine::new(
        &unit,
        EngineConfig {
            checkpoint: Some(path.clone()),
            checkpoint_every: 1,
            ..config.clone()
        },
    )
    .run("entry", &bindings)
    .expect("module explores");
    let text = std::fs::read_to_string(&path).expect("snapshot written");
    assert!(
        text.contains(r#""Ite":"#),
        "no merged value in the snapshot"
    );
    assert!(
        text.contains(r#""solo":"#),
        "no merged taint in the snapshot"
    );
    let snapshot = Snapshot::load(&path).expect("snapshot loads");
    let resumed = Engine::new(&unit, config)
        .resume("entry", &bindings, snapshot)
        .expect("snapshot resumes");
    full.checkpoint = None;
    assert_eq!(resumed, full);
    let _ = std::fs::remove_file(&path);
}
