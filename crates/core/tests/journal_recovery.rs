//! Service-level crash recovery, through the real journal and spool: a
//! spool left behind by a "crashed" daemon (journal written by hand, as a
//! hard kill would leave it) must be recovered by [`AnalysisService::start`]
//! into jobs that run to completion with reports byte-identical to direct
//! runs. Every damaged-spool shape — torn tail, checksum rot, stale or
//! missing checkpoint — surfaces as a typed [`RecoveryError`] in the
//! summary, never a panic or a refused start; and recovering the same
//! spool twice yields the same job set (idempotence via compaction).

use std::path::PathBuf;

use privacyscope::analyzer::{Analyzer, AnalyzerOptions};
use privacyscope::journal::{self, Journal, JournalRecord, RecoveryError};
use privacyscope::service::{AnalysisService, JobSpec, ServiceConfig};

/// Zeroes the wall-clock `"time"` stat, the only non-deterministic bytes
/// in a rendered report.
fn normalize(json: &str) -> String {
    let marker = "\"time\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find(marker) {
        let (head, tail) = rest.split_at(pos + marker.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spool dir");
    dir
}

fn corpus_spec(name: &str, max_paths: usize) -> JobSpec {
    let module = mlcorpus::modules()
        .into_iter()
        .chain(std::iter::once(mlcorpus::recommender_vulnerable()))
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("corpus has no module named `{name}`"));
    JobSpec {
        source: module.source.to_string(),
        edl: module.edl.to_string(),
        function: Some(module.entry.to_string()),
        max_paths,
        loop_bound: 2,
        workers: 1,
        ..JobSpec::default()
    }
}

fn direct_report(spec: &JobSpec) -> String {
    let options = AnalyzerOptions {
        max_paths: spec.max_paths,
        loop_bound: spec.loop_bound,
        workers: spec.workers,
        ..AnalyzerOptions::default()
    };
    let analyzer =
        Analyzer::from_sources(&spec.source, &spec.edl, options).expect("corpus module parses");
    let function = spec.function.as_deref().expect("spec names its entry");
    normalize(
        &analyzer
            .analyze(function)
            .expect("direct analysis succeeds")
            .to_json(),
    )
}

/// A crash after `Submitted` (and `Started`) but before any terminal
/// record: the restarted service must requeue the jobs, run them, and
/// produce reports byte-identical to uninterrupted direct runs.
#[test]
fn journaled_jobs_recover_and_complete_byte_identical() {
    let dir = spool("complete");
    let specs = [corpus_spec("Recommender", 12), corpus_spec("Kmeans", 12)];
    {
        let mut journal = Journal::open(&dir).expect("open journal");
        for (index, spec) in specs.iter().enumerate() {
            let id = index as u64 + 1;
            journal
                .append(&JournalRecord::Submitted {
                    id,
                    spec: spec.clone(),
                })
                .expect("append");
            // Job 1 was mid-slice when the "crash" hit; job 2 never ran.
            if id == 1 {
                journal
                    .append(&JournalRecord::Started { id })
                    .expect("append");
            }
        }
    }

    let service = AnalysisService::start(ServiceConfig {
        pool: 2,
        slice: None,
        spool: dir,
        ..ServiceConfig::default()
    })
    .expect("service recovers the spool");
    let recovery = service.recovery().clone();
    assert_eq!(recovery.requeued, 2, "both live jobs re-enter the queue");
    assert_eq!(recovery.resumed, 0);
    assert_eq!(recovery.errors, Vec::new(), "clean spool, clean recovery");

    for (index, spec) in specs.iter().enumerate() {
        let id = index as u64 + 1;
        let outcome = service
            .wait(id)
            .unwrap_or_else(|| panic!("recovered job {id} is unknown to the service"));
        assert_eq!(outcome.error, None, "recovered job {id} failed");
        assert_eq!(
            normalize(&outcome.reports[0].to_json()),
            direct_report(spec),
            "job {id}: recovered report diverged from the direct run"
        );
    }
    service.shutdown();
}

/// A torn final record (crash mid-append) must cost exactly the torn
/// record: the intact jobs recover and run, the damage is a typed
/// `TornRecord`, and the start never aborts.
#[test]
fn torn_journal_tail_recovers_intact_jobs() {
    let dir = spool("torn");
    let spec = corpus_spec("Recommender", 12);
    {
        let mut journal = Journal::open(&dir).expect("open journal");
        journal
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: spec.clone(),
            })
            .expect("append");
    }
    let path = dir.join(journal::JOURNAL_FILE);
    let mut text = std::fs::read_to_string(&path).expect("read journal");
    text.push_str("0123456789abcdef 900 {\"Submitted\":{\"id\":2,\"spec\":{\"sou");
    std::fs::write(&path, text).expect("write torn tail");

    let service = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: None,
        spool: dir,
        ..ServiceConfig::default()
    })
    .expect("torn journal must not refuse the start");
    let recovery = service.recovery().clone();
    assert_eq!(recovery.requeued, 1, "the intact job survives");
    assert!(
        recovery
            .errors
            .iter()
            .any(|e| matches!(e, RecoveryError::TornRecord { .. })),
        "the torn tail is reported as typed: {:?}",
        recovery.errors
    );
    let outcome = service.wait(1).expect("job 1 recovered");
    assert_eq!(outcome.error, None);
    assert_eq!(
        normalize(&outcome.reports[0].to_json()),
        direct_report(&spec)
    );
    service.shutdown();
}

/// Interior checksum rot skips exactly the rotten record, typed.
#[test]
fn corrupt_interior_record_is_skipped_with_typed_error() {
    let dir = spool("rot");
    let keep = corpus_spec("Recommender", 12);
    {
        let mut journal = Journal::open(&dir).expect("open journal");
        journal
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: corpus_spec("Recommender", 16),
            })
            .expect("append");
        journal
            .append(&JournalRecord::Submitted {
                id: 2,
                spec: keep.clone(),
            })
            .expect("append");
    }
    let path = dir.join(journal::JOURNAL_FILE);
    let text = std::fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[1] = lines[1].replace("\"id\":1", "\"id\":5");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write rot");

    let service = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: None,
        spool: dir,
        ..ServiceConfig::default()
    })
    .expect("corrupt record must not refuse the start");
    let recovery = service.recovery().clone();
    assert_eq!(recovery.requeued, 1, "only the undamaged job survives");
    assert!(
        recovery
            .errors
            .iter()
            .any(|e| matches!(e, RecoveryError::ChecksumMismatch { .. })),
        "rot is typed: {:?}",
        recovery.errors
    );
    let outcome = service.wait(2).expect("job 2 recovered");
    assert_eq!(outcome.error, None);
    service.shutdown();
}

/// A suspended job whose spooled checkpoint no longer matches the
/// journaled fingerprint (stale, swapped, or rewritten by another build)
/// must restart from scratch — typed `StaleCheckpoint`, the stale file
/// garbage-collected, and the job still finishing correctly.
#[test]
fn stale_checkpoint_restarts_from_scratch_and_gcs_the_file() {
    // A syntactically valid snapshot header whose fingerprint is not the
    // journaled one: `peek_fingerprint` reads it fine, recovery refuses it.
    assert_stale_spool_restarts(
        "stale",
        &format!(
            "privacyscope-checkpoint v{} fingerprint=00000000deadbeef checksum=0000000000000000 len=0\n",
            symexec::checkpoint::FORMAT_VERSION
        ),
    );
}

/// A checkpoint spooled by a build with an older file format (v1 numbered
/// symbols from counters) is stale the same way: `peek_fingerprint`
/// refuses its version, and the job restarts from scratch.
#[test]
fn v1_checkpoint_restarts_from_scratch_and_gcs_the_file() {
    assert_stale_spool_restarts(
        "stale-v1",
        "privacyscope-checkpoint v1 fingerprint=0000000000001234 checksum=0000000000000000 len=0\n",
    );
}

/// Spools `header` as job 1's checkpoint under a journaled fingerprint of
/// 0x1234 and checks that recovery requeues the job from scratch.
fn assert_stale_spool_restarts(tag: &str, header: &str) {
    let dir = spool(tag);
    let spec = corpus_spec("Recommender", 12);
    let ckpt = dir.join("job-1.ckpt");
    std::fs::write(&ckpt, header).expect("write stale checkpoint");
    {
        let mut journal = Journal::open(&dir).expect("open journal");
        journal
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: spec.clone(),
            })
            .expect("append");
        journal
            .append(&JournalRecord::Suspended {
                id: 1,
                ckpt: ckpt.display().to_string(),
                fingerprint: 0x1234,
            })
            .expect("append");
    }

    let service = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: None,
        spool: dir,
        ..ServiceConfig::default()
    })
    .expect("stale checkpoint must not refuse the start");
    let recovery = service.recovery().clone();
    assert_eq!(recovery.resumed, 0, "the stale snapshot is never resumed");
    assert_eq!(recovery.requeued, 1, "the job restarts from scratch");
    assert!(
        recovery
            .errors
            .iter()
            .any(|e| matches!(e, RecoveryError::StaleCheckpoint { job: 1, .. })),
        "staleness is typed: {:?}",
        recovery.errors
    );
    assert!(
        recovery.orphans_removed >= 1 && !ckpt.exists(),
        "the stale checkpoint is garbage-collected"
    );
    let outcome = service.wait(1).expect("job 1 recovered");
    assert_eq!(outcome.error, None, "from-scratch rerun failed");
    assert_eq!(
        normalize(&outcome.reports[0].to_json()),
        direct_report(&spec),
        "from-scratch rerun diverged"
    );
    service.shutdown();
}

/// A missing checkpoint behaves like a stale one: typed error, from-scratch
/// rerun.
#[test]
fn missing_checkpoint_restarts_from_scratch() {
    let dir = spool("missing");
    let spec = corpus_spec("Recommender", 12);
    {
        let mut journal = Journal::open(&dir).expect("open journal");
        journal
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: spec.clone(),
            })
            .expect("append");
        journal
            .append(&JournalRecord::Suspended {
                id: 1,
                ckpt: dir.join("job-1.ckpt").display().to_string(),
                fingerprint: 0x1234,
            })
            .expect("append");
    }
    let service = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: None,
        spool: dir,
        ..ServiceConfig::default()
    })
    .expect("missing checkpoint must not refuse the start");
    assert!(
        service
            .recovery()
            .errors
            .iter()
            .any(|e| matches!(e, RecoveryError::MissingCheckpoint { job: 1, .. })),
        "the missing file is typed: {:?}",
        service.recovery().errors
    );
    let outcome = service.wait(1).expect("job 1 recovered");
    assert_eq!(outcome.error, None);
    service.shutdown();
}

/// Recovering twice must be idempotent: after the first service ran the
/// journaled work to completion and shut down, a second start finds a
/// compacted journal with nothing live — finished jobs never resurrect.
#[test]
fn double_recovery_does_not_resurrect_finished_jobs() {
    let dir = spool("idempotent");
    {
        let mut journal = Journal::open(&dir).expect("open journal");
        journal
            .append(&JournalRecord::Submitted {
                id: 1,
                spec: corpus_spec("Recommender", 12),
            })
            .expect("append");
    }
    let first = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: None,
        spool: dir.clone(),
        ..ServiceConfig::default()
    })
    .expect("first start");
    assert_eq!(first.recovery().requeued, 1);
    let outcome = first.wait(1).expect("job 1 recovered");
    assert_eq!(outcome.error, None);
    first.shutdown();

    let second = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: None,
        spool: dir,
        ..ServiceConfig::default()
    })
    .expect("second start");
    let recovery = second.recovery().clone();
    assert_eq!(
        (recovery.requeued, recovery.resumed),
        (0, 0),
        "a finished job must not run again: {recovery:?}"
    );
    assert_eq!(recovery.errors, Vec::new());
    second.shutdown();
}
