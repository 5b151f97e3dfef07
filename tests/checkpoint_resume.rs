//! Crash-safe checkpoint/resume guarantees of the worklist engine.
//!
//! 1. A run interrupted by a deadline leaves a snapshot behind, and
//!    resuming it produces a final result **byte-identical** to an
//!    uninterrupted run — at any worker count.
//! 2. A periodic (`checkpoint_every`) snapshot taken mid-run survives the
//!    death of the writing engine: a fresh engine resumes from the file
//!    alone and reproduces the identical exploration.
//! 3. Stale, truncated, corrupt, or mismatched snapshots are rejected with
//!    typed errors before any exploration starts — never a panic, never a
//!    silently different result. That includes a well-formed snapshot whose
//!    `stats` disagree with the exploration profile they are derived from.

use std::path::PathBuf;

use privacyscope::analyzer::param_bindings;
use privacyscope::{Analyzer, AnalyzerOptions};
use symexec::checkpoint::fnv1a;
use symexec::engine::{Engine, EngineConfig, Exploration, ParamBinding};
use symexec::{CheckpointError, Snapshot};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "privacyscope_resume_{tag}_{}.ckpt",
        std::process::id()
    ))
}

/// The analyzer's bindings for a corpus entry with no configuration
/// overrides.
fn bindings_from_edl(edl_text: &str, entry: &str) -> Vec<ParamBinding> {
    let edl_file = edl::parse_edl(edl_text).expect("corpus EDL parses");
    let proto = edl_file.ecall(entry).expect("entry is a declared ECALL");
    param_bindings(proto, &edl::AnalysisConfig::default())
}

/// The analyzer's engine wiring for one corpus module, open for overrides.
fn module_config(module: &mlcorpus::Module, workers: usize) -> EngineConfig {
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
    config
}

fn explore(module: &mlcorpus::Module, config: EngineConfig) -> Exploration {
    let unit = minic::parse(module.source).expect("corpus source parses");
    let bindings = bindings_from_edl(module.edl, module.entry);
    Engine::new(&unit, config)
        .run(module.entry, &bindings)
        .expect("corpus module explores")
}

fn resume(module: &mlcorpus::Module, config: EngineConfig, snapshot: Snapshot) -> Exploration {
    let unit = minic::parse(module.source).expect("corpus source parses");
    let bindings = bindings_from_edl(module.edl, module.entry);
    Engine::new(&unit, config)
        .resume(module.entry, &bindings, snapshot)
        .expect("corpus module resumes")
}

#[test]
fn resume_after_deadline_matches_uninterrupted_on_ml_corpus() {
    for module in mlcorpus::modules() {
        for workers in [1, 4] {
            let path = tmp_path(&format!("deadline_{}_w{workers}", module.entry));
            let interrupted = explore(
                &module,
                EngineConfig {
                    deadline: Some(std::time::Duration::ZERO),
                    checkpoint: Some(path.clone()),
                    ..module_config(&module, workers)
                },
            );
            assert_eq!(
                interrupted.checkpoint.as_deref(),
                Some(path.as_path()),
                "{}: the cut run must report its snapshot",
                module.name
            );

            let snapshot = Snapshot::load(&path).expect("snapshot loads");
            let resumed = resume(&module, module_config(&module, workers), snapshot);
            let uninterrupted = explore(&module, module_config(&module, workers));
            assert_eq!(
                resumed, uninterrupted,
                "{}: resume diverged at workers={workers}",
                module.name
            );
            assert!(!resumed.paths.is_empty(), "{}: no paths", module.name);
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn mid_run_snapshot_outlives_its_engine_and_resumes_identically() {
    let module = mlcorpus::recommender::module();
    for workers in [1, 4] {
        let path = tmp_path(&format!("periodic_w{workers}"));
        let full = {
            // The writing engine lives only in this scope: once it is
            // dropped, the file is the sole carrier of the frontier — the
            // same situation as a process killed after the write.
            explore(
                &module,
                EngineConfig {
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 1,
                    ..module_config(&module, workers)
                },
            )
        };
        let snapshot = Snapshot::load(&path).expect("snapshot loads");
        assert!(snapshot.wave() > 0, "snapshot is from a mid-run boundary");
        let resumed = resume(&module, module_config(&module, workers), snapshot);
        let mut full = full;
        full.checkpoint = None; // the only permitted difference
        assert_eq!(
            resumed, full,
            "resume from a mid-run snapshot diverged at workers={workers}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Writes a small valid snapshot and returns its path and text.
fn valid_snapshot(tag: &str) -> (PathBuf, String) {
    let module = mlcorpus::recommender::module();
    let path = tmp_path(tag);
    explore(
        &module,
        EngineConfig {
            deadline: Some(std::time::Duration::ZERO),
            checkpoint: Some(path.clone()),
            ..module_config(&module, 1)
        },
    );
    let text = std::fs::read_to_string(&path).expect("snapshot is readable");
    (path, text)
}

#[test]
fn truncated_snapshot_is_rejected_with_a_typed_error() {
    let (path, text) = valid_snapshot("truncated");
    std::fs::write(&path, &text[..text.len() - 10]).expect("rewrite");
    assert!(matches!(
        Snapshot::load(&path),
        Err(CheckpointError::Truncated { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_snapshot_is_rejected_with_a_typed_error() {
    let (path, text) = valid_snapshot("corrupt");
    // Flip one payload byte (same length, ASCII stays ASCII).
    let mut bytes = text.into_bytes();
    let last = bytes.len() - 2;
    bytes[last] ^= 1;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(matches!(
        Snapshot::load(&path),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_snapshot_is_rejected_with_a_typed_error() {
    let path = tmp_path("garbage");
    std::fs::write(&path, "not a checkpoint at all\n").expect("write");
    assert!(matches!(
        Snapshot::load(&path),
        Err(CheckpointError::Malformed { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyzer_resume_reproduces_the_uninterrupted_report() {
    let module = mlcorpus::recommender::module();
    let path = tmp_path("analyzer");
    let options = |checkpoint: Option<PathBuf>, resume: Option<PathBuf>| AnalyzerOptions {
        max_paths: 32,
        checkpoint,
        resume,
        ..AnalyzerOptions::default()
    };
    let analyze = |options: AnalyzerOptions| {
        Analyzer::from_sources(module.source, module.edl, options)
            .expect("builds")
            .analyze(module.entry)
            .expect("analyzes")
    };

    let interrupted = analyze(AnalyzerOptions {
        deadline_ms: Some(0),
        ..options(Some(path.clone()), None)
    });
    assert_eq!(
        interrupted.checkpoint.as_deref(),
        Some(path.display().to_string().as_str()),
        "the cut report must carry the snapshot path"
    );
    assert!(interrupted.is_degraded());

    // Fresh analyzer, fresh engine: only the file survives.
    let mut resumed = analyze(options(None, Some(path.clone())));
    let mut uninterrupted = analyze(options(None, None));
    resumed.stats.time = std::time::Duration::ZERO;
    uninterrupted.stats.time = std::time::Duration::ZERO;
    assert_eq!(resumed, uninterrupted);
    let _ = std::fs::remove_file(&path);
}

/// Applies `edit` to a snapshot's payload and re-seals the header's
/// checksum and length, so only the payload's content can be rejected.
fn reseal(text: &str, edit: impl FnOnce(&str) -> String) -> String {
    let (header, payload) = text.split_once('\n').expect("header line");
    let payload = edit(payload);
    let header: Vec<String> = header
        .split(' ')
        .map(|token| match token.split_once('=') {
            Some(("checksum", _)) => format!("checksum={:016x}", fnv1a(payload.as_bytes())),
            Some(("len", _)) => format!("len={}", payload.len()),
            _ => token.to_string(),
        })
        .collect();
    format!("{}\n{payload}", header.join(" "))
}

#[test]
fn snapshot_whose_stats_disagree_with_its_profile_is_rejected() {
    let module = mlcorpus::recommender::module();
    let path = tmp_path("stats_edit");
    let options = |checkpoint: Option<PathBuf>, resume: Option<PathBuf>| AnalyzerOptions {
        max_paths: 32,
        checkpoint_every: usize::from(checkpoint.is_some()),
        checkpoint,
        resume,
        ..AnalyzerOptions::default()
    };
    let analyze = |options: AnalyzerOptions| {
        Analyzer::from_sources(module.source, module.edl, options)
            .expect("builds")
            .analyze(module.entry)
    };
    let mut uninterrupted = analyze(options(Some(path.clone()), None)).expect("analyzes");
    let text = std::fs::read_to_string(&path).expect("snapshot is readable");

    // The untouched snapshot, resealed as-is, still resumes identically.
    std::fs::write(&path, reseal(&text, str::to_string)).expect("rewrite");
    let mut resumed = analyze(options(None, Some(path.clone()))).expect("resumes");
    resumed.stats.time = std::time::Duration::ZERO;
    uninterrupted.stats.time = std::time::Duration::ZERO;
    uninterrupted.checkpoint = None;
    assert_eq!(resumed.to_json(), uninterrupted.to_json());

    // One more fork in `stats` than the profile recorded: rejected.
    let edited = reseal(&text, |payload| {
        let key = "\"stats\":{\"forks\":";
        let (before, after) = payload.split_once(key).expect("stats.forks");
        let digits = after.len() - after.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let forks: u64 = after[..digits].parse().expect("fork count");
        assert!(forks > 0, "the snapshot is taken after some forks");
        format!("{before}{key}{}{}", forks + 1, &after[digits..])
    });
    assert_ne!(edited, text);
    std::fs::write(&path, &edited).expect("rewrite");
    assert!(matches!(
        Snapshot::load(&path),
        Err(CheckpointError::Malformed { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyzer_rejects_a_mismatched_snapshot() {
    let module = mlcorpus::recommender::module();
    let path = tmp_path("mismatch_analyzer");
    Analyzer::from_sources(
        module.source,
        module.edl,
        AnalyzerOptions {
            deadline_ms: Some(0),
            checkpoint: Some(path.clone()),
            ..AnalyzerOptions::default()
        },
    )
    .expect("builds")
    .analyze(module.entry)
    .expect("analyzes");

    // A different loop bound shapes the result, so the fingerprint differs.
    let err = Analyzer::from_sources(
        module.source,
        module.edl,
        AnalyzerOptions {
            loop_bound: 2,
            resume: Some(path.clone()),
            ..AnalyzerOptions::default()
        },
    )
    .expect("builds")
    .analyze(module.entry)
    .expect_err("mismatched snapshot must be rejected");
    match err {
        privacyscope::Error::Engine(symexec::EngineError::Checkpoint(
            CheckpointError::FingerprintMismatch { .. },
        )) => {}
        other => panic!("expected a typed fingerprint mismatch, got: {other}"),
    }
    let _ = std::fs::remove_file(&path);
}
