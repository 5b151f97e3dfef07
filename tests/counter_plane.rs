//! One counter plane: the per-site exploration profile is the only place
//! the exploration counters are incremented, and every other view of them
//! is derived from it. With telemetry on, over the corpus modules, the
//! vulnerable recommender, a branch-heavy synthetic module and a module
//! whose global initializer runs a branching helper before wave 0, at
//! workers 1 and 4:
//!
//! * every `wave` span carries every counter;
//! * every `engine.*` counter in the metrics summary equals the profile
//!   total, init-phase probes included;
//! * every exploration field of `Report.stats` equals the profile total;
//! * the branch-heavy module's feasibility tiers refuted something, so the
//!   tier counters are exercised;
//! * Kmeans merged paths at call returns, so the merge counter is
//!   exercised.

use std::path::PathBuf;

use privacyscope::{Analyzer, AnalyzerOptions, Report};
use serde_json::Value;
use symexec::profile::Counter;
use telemetry::{Level, TelemetryConfig};

/// A global initialized through a call, so steps and probes happen while
/// globals are bound, before the first wave.
const INIT_PHASE_SOURCE: &str = r#"
int clamp(int v) {
    if (v > 10) {
        return 10;
    }
    return v;
}

int limit = clamp(42);

int enclave_entry(int *secrets, int *out) {
    if (secrets[0] > limit) {
        out[0] = 1;
    }
    return 0;
}
"#;

const INIT_PHASE_EDL: &str = r#"
enclave { trusted {
    public int enclave_entry([in] int *secrets, [out] int *out);
}; };
"#;

struct Subject {
    name: String,
    source: String,
    edl: String,
    entry: &'static str,
    /// Whether the feasibility tiers must refute something here.
    branch_heavy: bool,
}

fn subjects() -> Vec<Subject> {
    let mut modules = mlcorpus::modules();
    modules.push(mlcorpus::recommender_vulnerable());
    let mut subjects: Vec<Subject> = modules
        .into_iter()
        .map(|module| Subject {
            name: module.name.to_string(),
            source: module.source.to_string(),
            edl: module.edl.to_string(),
            entry: module.entry,
            branch_heavy: false,
        })
        .collect();
    let synth = mlcorpus::synth::generate_branch_heavy(3, 1);
    subjects.push(Subject {
        name: synth.name,
        source: synth.source,
        edl: synth.edl,
        entry: synth.entry,
        branch_heavy: true,
    });
    subjects.push(Subject {
        name: "init-phase".to_string(),
        source: INIT_PHASE_SOURCE.to_string(),
        edl: INIT_PHASE_EDL.to_string(),
        entry: "enclave_entry",
        branch_heavy: false,
    });
    subjects
}

fn tmp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "privacyscope_counter_plane_{tag}_{}.{ext}",
        std::process::id()
    ))
}

/// Analyzes `subject` with trace and metrics sinks open; returns the
/// report, the parsed trace records and the parsed metrics summary.
fn analyze_traced(subject: &Subject, workers: usize) -> (Report, Vec<Value>, Value) {
    let tag = format!("{}_w{workers}", subject.entry);
    let trace = tmp_path(&tag, "jsonl");
    let metrics = tmp_path(&tag, "json");
    let telemetry = TelemetryConfig {
        trace_out: Some(trace.clone()),
        metrics_out: Some(metrics.clone()),
        log_level: Level::Off,
        timings: false,
        collect_metrics: false,
    }
    .build()
    .expect("telemetry sinks open");
    let options = AnalyzerOptions {
        max_paths: 32,
        loop_bound: 2,
        workers,
        telemetry: telemetry.clone(),
        ..AnalyzerOptions::default()
    };
    let report = Analyzer::from_sources(&subject.source, &subject.edl, options)
        .expect("module configures")
        .analyze(subject.entry)
        .expect("module analyzes");
    telemetry.finish().expect("telemetry flushes");
    let records = std::fs::read_to_string(&trace)
        .expect("trace readable")
        .lines()
        .map(|line| serde_json::parse(line).expect("trace line parses"))
        .collect();
    let summary = serde_json::parse(&std::fs::read_to_string(&metrics).expect("metrics readable"))
        .expect("metrics summary parses");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
    (report, records, summary)
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Number(number) => number.as_u64(),
        _ => None,
    }
}

#[test]
fn spans_metrics_and_stats_agree_with_the_profile() {
    for subject in subjects() {
        for workers in [1, 4] {
            let label = format!("{} at workers {workers}", subject.name);
            let (report, records, summary) = analyze_traced(&subject, workers);
            let totals = report.profile.totals();
            assert!(totals.steps > 0, "{label}: nothing was explored");

            let waves: Vec<&Value> = records
                .iter()
                .filter(|record| {
                    matches!(&record["type"], Value::String(kind) if kind == "span")
                        && matches!(&record["name"], Value::String(name) if name == "wave")
                })
                .collect();
            assert!(!waves.is_empty(), "{label}: no wave spans");
            for wave in waves {
                for counter in Counter::ALL {
                    assert!(
                        as_u64(&wave["fields"][counter.name()]).is_some(),
                        "{label}: a wave span lacks `{}`",
                        counter.name()
                    );
                }
            }

            for counter in Counter::ALL {
                assert_eq!(
                    as_u64(&summary["counters"][counter.metric()]),
                    Some(totals.get(counter)),
                    "{label}: metric `{}` disagrees with the profile",
                    counter.metric()
                );
            }

            let stats = &report.stats;
            let derived = [
                (stats.forks, Counter::Forks),
                (stats.infeasible, Counter::Infeasible),
                (stats.cache_hits, Counter::CacheHits),
                (stats.cache_misses, Counter::CacheMisses),
                (stats.tier1_refuted, Counter::Tier1Refuted),
                (stats.tier2_refuted, Counter::Tier2Refuted),
                (stats.tier2_unknown, Counter::Tier2Unknown),
            ];
            for (value, counter) in derived {
                assert_eq!(
                    value as u64,
                    totals.get(counter),
                    "{label}: Report.stats.{} disagrees with the profile",
                    counter.name()
                );
            }
            if subject.branch_heavy {
                assert!(
                    totals.tier1_refuted + totals.tier2_refuted > 0,
                    "{label}: the tiers refuted nothing"
                );
            }
            if subject.name == "Kmeans" {
                assert!(totals.merges > 0, "{label}: nothing merged");
            }
        }
    }
}
