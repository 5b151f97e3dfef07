//! Byte-identity goldens for the structural-sharing state representation.
//!
//! The copy-on-write refactor (persistent maps, hash-consed values, chunked
//! logs) is a pure performance change: reports, rendered traces and
//! checkpoint files must be **byte-identical** to the deep-clone
//! representation at every worker count. The golden files under
//! `tests/golden/` were generated from the pre-refactor tree; these tests
//! assert the current tree still produces the same bytes at workers 1 and 4.
//! The one intentional change since: the environment is bound only while
//! traces are recorded, so the checkpoint golden's `env` objects are empty.
//!
//! Regenerate (only when an *intentional* output change lands) with:
//! `PS_UPDATE_GOLDENS=1 cargo test --test cow_golden`

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use privacyscope::{Analyzer, AnalyzerOptions};
use symexec::engine::{Engine, EngineConfig, ParamBinding};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compares `actual` against the named golden file, or rewrites the golden
/// when `PS_UPDATE_GOLDENS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("PS_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden {} unreadable ({e}); run with PS_UPDATE_GOLDENS=1",
            name
        )
    });
    assert_eq!(
        expected, actual,
        "output diverged from pre-refactor golden {name}"
    );
}

/// A fork-heavy fixture: independent branches over a secret buffer plus
/// array writes, so states carry non-trivial stores when they fork.
fn branches_fixture() -> (String, String) {
    let mut source = String::from("int entry(char *secrets, char *output) {\n    int acc = 0;\n");
    for i in 0..6 {
        source.push_str(&format!(
            "    if ((secrets[{i}] >> {}) & 1) acc += {i}; else acc -= {};\n",
            i % 7,
            i + 1
        ));
    }
    source.push_str("    output[0] = acc + secrets[0];\n    return 0;\n}\n");
    let edl = "enclave { trusted { public int entry([in] char *secrets, [out] char *output); }; };"
        .to_string();
    (source, edl)
}

fn report_json(source: &str, edl: &str, entry: &str, workers: usize, max_paths: usize) -> String {
    let options = AnalyzerOptions {
        workers,
        max_paths,
        ..AnalyzerOptions::default()
    };
    let analyzer = Analyzer::from_sources(source, edl, options).expect("fixture builds");
    let mut report = analyzer.analyze(entry).expect("fixture analyzes");
    // Wall-clock time is the one legitimately nondeterministic field.
    report.stats.time = Duration::ZERO;
    report.to_json()
}

#[test]
fn branches_report_bytes_match_golden_at_workers_1_and_4() {
    let (source, edl) = branches_fixture();
    let w1 = report_json(&source, &edl, "entry", 1, 4096);
    let w4 = report_json(&source, &edl, "entry", 4, 4096);
    assert_eq!(w1, w4, "report differs across worker counts");
    assert_golden("branches_report.json", &w1);
}

#[test]
fn recommender_report_bytes_match_golden_at_workers_1_and_4() {
    let module = mlcorpus::recommender::module();
    let w1 = report_json(module.source, module.edl, module.entry, 1, 32);
    let w4 = report_json(module.source, module.edl, module.entry, 4, 32);
    assert_eq!(w1, w4, "report differs across worker counts");
    assert_golden("recommender_report.json", &w1);
}

/// Checks (or, with `PS_UPDATE_GOLDENS` set, rewrites) the checkpoint
/// golden, once per test binary, and returns its path. Both checkpoint
/// tests go through here, so the resume test never reads the file while
/// the other test thread is rewriting it, and one update run regenerates
/// every golden.
fn checkpoint_golden() -> PathBuf {
    static CHECKED: OnceLock<()> = OnceLock::new();
    CHECKED.get_or_init(|| {
        let (source, _) = branches_fixture();
        let unit = minic::parse(&source).expect("fixture parses");
        let run = |workers: usize| {
            let path = std::env::temp_dir().join(format!(
                "ps_cow_golden_{}_{workers}.snap",
                std::process::id()
            ));
            let config = EngineConfig {
                workers,
                checkpoint: Some(path.clone()),
                checkpoint_every: 1,
                ..EngineConfig::default()
            };
            Engine::new(&unit, config)
                .run(
                    "entry",
                    &[ParamBinding::SecretPointer, ParamBinding::OutPointer],
                )
                .expect("fixture explores");
            let bytes = std::fs::read_to_string(&path).expect("snapshot written");
            let _ = std::fs::remove_file(&path);
            bytes
        };
        let w1 = run(1);
        let w4 = run(4);
        assert_eq!(w1, w4, "checkpoint differs across worker counts");
        assert_golden("branches_checkpoint.snap", &w1);
    });
    golden_dir().join("branches_checkpoint.snap")
}

#[test]
fn checkpoint_bytes_match_golden_at_workers_1_and_4() {
    checkpoint_golden();
}

/// The golden snapshot keeps the `store`/`taints` layout of the separate
/// σ and τ maps; it loads and resumes to the uninterrupted exploration.
#[test]
fn golden_checkpoint_resumes_to_the_uninterrupted_result() {
    let golden = checkpoint_golden();
    let (source, _) = branches_fixture();
    let unit = minic::parse(&source).expect("fixture parses");
    let bindings = [ParamBinding::SecretPointer, ParamBinding::OutPointer];
    let engine = Engine::new(
        &unit,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let snapshot = symexec::Snapshot::load(&golden).expect("golden snapshot loads");
    let resumed = engine
        .resume("entry", &bindings, snapshot)
        .expect("golden snapshot resumes");
    let uninterrupted = engine.run("entry", &bindings).expect("fixture explores");
    assert_eq!(resumed, uninterrupted);
}

#[test]
fn rendered_trace_matches_golden() {
    let source = "int f(char *s, char *out) {\n    int t = s[0] + 100;\n    if (t > 110) { out[0] = 1; return 1; }\n    out[0] = 0;\n    return 0;\n}\n";
    let unit = minic::parse(source).expect("fixture parses");
    let config = EngineConfig {
        workers: 1,
        record_trace: true,
        ..EngineConfig::default()
    };
    let exploration = Engine::new(&unit, config)
        .run(
            "f",
            &[ParamBinding::SecretPointer, ParamBinding::OutPointer],
        )
        .expect("fixture explores");
    let table = symexec::trace::render_table(&exploration.traces());
    assert_golden("trace_table.txt", &table);
}
