//! CLI guard rails, end to end against the real binary: flag misuse must
//! exit 2 with a pointed message before any analysis starts, and a failing
//! run must still leave valid telemetry files behind (the flush guard
//! covers every exit path, not just success).

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_privacyscope"))
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps-cli-guard-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A source/EDL pair that exists on disk but would fail the frontend —
/// the guard-rail errors under test must fire before it is ever parsed.
fn unparsable_inputs(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch(tag);
    let source = dir.join("broken.c");
    let edl = dir.join("broken.edl");
    std::fs::write(&source, "int broken( { ;;; }").expect("write source");
    std::fs::write(&edl, "enclave { trusted { public void broken(); }; };").expect("write edl");
    (source, edl)
}

#[test]
fn duplicate_flags_exit_2_before_touching_files() {
    let output = cli()
        .args([
            "analyze",
            "no-such-file.c",
            "no-such-file.edl",
            "--max-paths",
            "4",
            "--max-paths",
            "8",
        ])
        .output()
        .expect("run privacyscope");
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert!(
        err.contains("duplicate `--max-paths`"),
        "stderr should name the duplicated flag: {err}"
    );
    // The duplicate is caught during flag parsing, before the (missing)
    // input files are ever opened.
    assert!(
        !err.contains("cannot read"),
        "duplicate detection must precede file IO: {err}"
    );
}

#[test]
fn explicit_zero_workers_exits_2_with_a_hint() {
    let (source, edl) = unparsable_inputs("workers0");
    let output = cli()
        .args(["analyze"])
        .arg(&source)
        .arg(&edl)
        .args(["--workers", "0"])
        .output()
        .expect("run privacyscope");
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert!(
        err.contains("--workers 0") && err.contains("ambiguous"),
        "stderr should explain why an explicit 0 is rejected: {err}"
    );
}

#[test]
fn explicit_zero_checkpoint_every_exits_2_with_a_hint() {
    let (source, edl) = unparsable_inputs("ckpt0");
    let output = cli()
        .args(["analyze"])
        .arg(&source)
        .arg(&edl)
        .args(["--checkpoint", "unused.ckpt", "--checkpoint-every", "0"])
        .output()
        .expect("run privacyscope");
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert!(
        err.contains("--checkpoint-every 0") && err.contains("never snapshot"),
        "stderr should explain why an explicit 0 is rejected: {err}"
    );
}

#[test]
fn failing_run_still_writes_valid_telemetry() {
    let dir = scratch("telemetry");
    let (source, edl) = unparsable_inputs("telemetry-inputs");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");
    let output = cli()
        .args(["analyze"])
        .arg(&source)
        .arg(&edl)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .args(["--log-level", "info"])
        .output()
        .expect("run privacyscope");
    // The broken source makes the run fail with a usage/input error…
    assert_eq!(output.status.code(), Some(2));
    // …but the scope guard still flushes both sinks into parseable files.
    let trace_text = std::fs::read_to_string(&trace).expect("trace file exists after a failure");
    for (i, line) in trace_text.lines().filter(|l| !l.is_empty()).enumerate() {
        serde_json::parse(line)
            .unwrap_or_else(|e| panic!("trace line {i} is not valid JSON ({e}): {line}"));
    }
    let metrics_text =
        std::fs::read_to_string(&metrics).expect("metrics file exists after a failure");
    serde_json::parse(&metrics_text)
        .unwrap_or_else(|e| panic!("metrics file is not valid JSON ({e}): {metrics_text}"));
}

#[test]
fn the_one_pipeline_reports_a_wraparound_leak_and_takes_no_mode_flag() {
    let dir = scratch("wraparound");
    let source = dir.join("wrap.c");
    let edl = dir.join("wrap.edl");
    std::fs::write(
        &source,
        "long enclave_wrap(char *secrets, long pub0) { long r = 0; \
         if (pub0 - 1 > 5) { if (pub0 < 0) { r = secrets[0]; } } return r; }\n",
    )
    .expect("write source");
    std::fs::write(
        &edl,
        "enclave { trusted { public long enclave_wrap([in, count=1] char *secrets, long pub0); }; };",
    )
    .expect("write edl");
    let output = cli()
        .args(["analyze"])
        .arg(&source)
        .arg(&edl)
        .output()
        .expect("run privacyscope");
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    let report = String::from_utf8_lossy(&output.stdout);
    assert!(
        report.contains("[EXPLICIT] return value reveals secret `secrets[0]`"),
        "{report}"
    );
    let output = cli()
        .args(["analyze"])
        .arg(&source)
        .arg(&edl)
        .args(["--feasibility", "full"])
        .output()
        .expect("run privacyscope");
    assert_eq!(output.status.code(), Some(2));
    assert!(
        stderr(&output).contains("feasibility"),
        "{}",
        stderr(&output)
    );
}
