//! Service determinism: the same job run directly through [`Analyzer`]
//! and through the [`AnalysisService`] must produce byte-identical
//! reports — with a pool of 1, with a pool of 4, and across a forced
//! suspend/resume migration through the checkpoint format. A saturated
//! single-worker queue with a fair-share slice must not starve any job.

use std::path::PathBuf;
use std::time::Duration;

use privacyscope::analyzer::{Analyzer, AnalyzerOptions};
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
    std::env::temp_dir().join(format!("ps-svc-det-{}-{tag}", std::process::id()))
}

fn corpus_spec(name: &str, max_paths: usize) -> JobSpec {
    let module = mlcorpus::modules()
        .into_iter()
        .chain(std::iter::once(mlcorpus::kmeans::entry_branching()))
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

/// The report the CLI would print for this spec, analyzing in-process
/// with no service in the picture.
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

#[test]
fn pool_sizes_do_not_change_reports() {
    let spec = corpus_spec("Kmeans", 16);
    let direct = direct_report(&spec);
    for pool in [1usize, 4] {
        let service = AnalysisService::start(ServiceConfig {
            pool,
            slice: None,
            spool: spool(&format!("pool{pool}")),
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let id = service
            .submit(spec.clone())
            .expect("submission is admitted");
        let outcome = service.wait(id).expect("job reaches a terminal state");
        assert_eq!(outcome.error, None, "pool {pool}: job failed");
        assert_eq!(
            outcome.reports.len(),
            1,
            "pool {pool}: one target, one report"
        );
        assert_eq!(
            normalize(&outcome.reports[0].to_json()),
            direct,
            "pool {pool}: service report diverged from the direct run"
        );
        service.shutdown();
    }
}

#[test]
fn suspend_resume_migration_is_byte_identical() {
    let spec = corpus_spec("Kmeans", 16);
    let direct = direct_report(&spec);
    let service = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: None,
        spool: spool("migrate"),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    // Suspending a job that has not started yet is deterministic: its
    // first slice parks at wave 0 into the checkpoint, requeues, and the
    // second slice resumes from the spooled snapshot — a full migration
    // through the on-disk format.
    let id = service.submit(spec).expect("submission is admitted");
    assert!(
        service.suspend(id),
        "a queued job accepts a suspend request"
    );
    let outcome = service.wait(id).expect("job reaches a terminal state");
    assert_eq!(outcome.error, None, "migrated job failed");
    assert!(
        outcome.suspensions >= 1,
        "expected at least one suspension, saw {}",
        outcome.suspensions
    );
    assert_eq!(
        normalize(&outcome.reports[0].to_json()),
        direct,
        "report changed across a suspend/resume migration"
    );
    service.shutdown();
}

#[test]
fn saturated_queue_does_not_starve_any_job() {
    // Three jobs dumped at once on a single worker with a short fair-share
    // slice: every job must reach a terminal state with its own correct
    // report, and the preempted ones must match their unpreempted runs.
    let specs = [
        corpus_spec("KmeansEntryBranching", 16),
        corpus_spec("Recommender", 12),
        corpus_spec("KmeansEntryBranching", 12),
    ];
    let expected: Vec<String> = specs.iter().map(direct_report).collect();
    let service = AnalysisService::start(ServiceConfig {
        pool: 1,
        slice: Some(Duration::from_millis(50)),
        spool: spool("saturate"),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| service.submit(s.clone()).expect("submission is admitted"))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let outcome = service
            .wait(*id)
            .unwrap_or_else(|| panic!("job {i} never reached a terminal state"));
        assert_eq!(outcome.error, None, "job {i} failed under saturation");
        assert_eq!(
            normalize(&outcome.reports[0].to_json()),
            expected[i],
            "job {i}: report diverged under a saturated queue"
        );
    }
    service.shutdown();
}
