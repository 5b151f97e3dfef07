//! Schema validator for telemetry output, used by the CI observability
//! smoke step (a small Rust binary so CI needs no `jq`).
//!
//! Usage: `tracecheck [--profile <profile.json>] [--stats <stats.jsonl>]
//!                    [<trace.jsonl> [metrics.json]]`
//!
//! Validates every trace JSONL line against the record schema documented
//! in the `telemetry` crate: `span` records carry `id`/`parent`/`name`/
//! `t_us`/`dur_us`, `event` records the same minus `dur_us`, `log` records
//! carry `level`/`message`. Because a parent span closes — and is therefore
//! written — *after* its children, parent links are resolved in a second
//! pass over the collected span ids.
//!
//! `--profile` validates a `privacyscope --profile-out` document: a
//! `profiles` array whose entries carry a `function` and line-ordered
//! `rows`, each row with the full seven-counter `counters` object and at
//! least one nonzero counter (empty sites are never emitted).
//!
//! `--stats` validates a `privacyscoped --stats-out` JSONL stream: every
//! record carries a monotone `ts_ms`, a `service` snapshot (queue depth,
//! pool ≥ busy, id-ordered jobs), and a `metrics` snapshot whose counter
//! names are sorted-unique and whose histograms satisfy the bucket
//! invariants (`counts` = bounds + overflow, summing to `count`).
//!
//! Exits 0 and prints a one-line summary on success; prints the offending
//! line number and reason and exits 1 on the first violation.

use std::collections::BTreeSet;
use std::process::ExitCode;

use serde_json::Value;

fn get<'a>(object: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    object
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, value)| value)
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Number(number) => number.as_u64(),
        _ => None,
    }
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::String(text) => Some(text.as_str()),
        _ => None,
    }
}

fn check_fields(object: &[(String, Value)]) -> Result<(), String> {
    match get(object, "fields") {
        None => Ok(()),
        Some(Value::Object(fields)) => {
            for (key, value) in fields {
                match value {
                    Value::String(_) | Value::Number(_) | Value::Bool(_) => {}
                    other => {
                        return Err(format!(
                            "field `{key}` must be a string, number, or bool, got {other:?}"
                        ))
                    }
                }
            }
            Ok(())
        }
        Some(other) => Err(format!("`fields` must be an object, got {other:?}")),
    }
}

struct Summary {
    spans: usize,
    events: usize,
    logs: usize,
    span_ids: BTreeSet<u64>,
    /// (line number, parent id) pairs to resolve once all spans are known.
    parents: Vec<(usize, u64)>,
}

fn check_line(line: &str, lineno: usize, summary: &mut Summary) -> Result<(), String> {
    let value =
        serde_json::parse(line).map_err(|error| format!("does not parse as JSON: {error}"))?;
    let Value::Object(object) = &value else {
        return Err("record is not a JSON object".to_string());
    };
    let kind = get(object, "type")
        .and_then(as_str)
        .ok_or("missing string `type`")?;
    get(object, "t_us")
        .and_then(as_u64)
        .ok_or("missing u64 `t_us`")?;
    match kind {
        "span" | "event" => {
            let id = get(object, "id")
                .and_then(as_u64)
                .ok_or("missing u64 `id`")?;
            let name = get(object, "name")
                .and_then(as_str)
                .ok_or("missing string `name`")?;
            if name.is_empty() {
                return Err("empty `name`".to_string());
            }
            match get(object, "parent") {
                Some(Value::Null) | None => {}
                Some(parent) => {
                    let parent = as_u64(parent).ok_or("`parent` must be null or a u64")?;
                    summary.parents.push((lineno, parent));
                }
            }
            check_fields(object)?;
            if kind == "span" {
                get(object, "dur_us")
                    .and_then(as_u64)
                    .ok_or("span missing u64 `dur_us`")?;
                if !summary.span_ids.insert(id) {
                    return Err(format!("duplicate span id {id}"));
                }
                summary.spans += 1;
            } else {
                summary.events += 1;
            }
        }
        "log" => {
            let level = get(object, "level")
                .and_then(as_str)
                .ok_or("log missing string `level`")?;
            if !matches!(level, "warn" | "info" | "debug") {
                return Err(format!("unknown log level `{level}`"));
            }
            get(object, "message")
                .and_then(as_str)
                .ok_or("log missing string `message`")?;
            summary.logs += 1;
        }
        other => return Err(format!("unknown record type `{other}`")),
    }
    Ok(())
}

fn check_trace(path: &str) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("{path}: cannot read trace: {error}"))?;
    let mut summary = Summary {
        spans: 0,
        events: 0,
        logs: 0,
        span_ids: BTreeSet::new(),
        parents: Vec::new(),
    };
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        check_line(line, index + 1, &mut summary)
            .map_err(|reason| format!("{path}:{}: {reason}", index + 1))?;
    }
    // Second pass: every parent link must point at an emitted span. Parents
    // legitimately appear after their children in the file (a wave span
    // closes after its path-task spans), hence the deferred resolution.
    for (lineno, parent) in &summary.parents {
        if !summary.span_ids.contains(parent) {
            return Err(format!(
                "{path}:{lineno}: parent {parent} is not an emitted span id"
            ));
        }
    }
    Ok(summary)
}

fn check_metrics(path: &str) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("{path}: cannot read metrics: {error}"))?;
    let value =
        serde_json::parse(&text).map_err(|error| format!("{path}: does not parse: {error}"))?;
    let Value::Object(object) = &value else {
        return Err(format!("{path}: summary is not a JSON object"));
    };
    let Some(Value::Object(counters)) = get(object, "counters") else {
        return Err(format!("{path}: missing `counters` object"));
    };
    for (name, value) in counters {
        as_u64(value).ok_or(format!("{path}: counter `{name}` is not a u64"))?;
    }
    let Some(Value::Object(histograms)) = get(object, "histograms") else {
        return Err(format!("{path}: missing `histograms` object"));
    };
    for (name, value) in histograms {
        let Value::Object(histogram) = value else {
            return Err(format!("{path}: histogram `{name}` is not an object"));
        };
        check_histogram_body(name, histogram).map_err(|reason| format!("{path}: {reason}"))?;
    }
    Ok((counters.len(), histograms.len()))
}

/// Shared histogram bucket invariants, used by both the end-of-run metrics
/// summary (`histograms` object) and the live `metrics` snapshot embedded
/// in stats records (`histograms` array): `counts` has one bucket per
/// bound plus the overflow bucket, and the buckets sum to `count`.
fn check_histogram_body(name: &str, histogram: &[(String, Value)]) -> Result<(), String> {
    let Some(Value::Array(bounds)) = get(histogram, "bounds_us") else {
        return Err(format!("histogram `{name}` missing `bounds_us`"));
    };
    let Some(Value::Array(counts)) = get(histogram, "counts") else {
        return Err(format!("histogram `{name}` missing `counts`"));
    };
    if counts.len() != bounds.len() + 1 {
        return Err(format!(
            "histogram `{name}` needs {} counts (bounds + overflow), got {}",
            bounds.len() + 1,
            counts.len()
        ));
    }
    let mut previous_bound: Option<u64> = None;
    for bound in bounds {
        let bound = as_u64(bound).ok_or(format!("histogram `{name}` non-u64 bound"))?;
        if previous_bound.is_some_and(|p| p >= bound) {
            return Err(format!(
                "histogram `{name}` bounds are not strictly increasing"
            ));
        }
        previous_bound = Some(bound);
    }
    let mut tallied: u64 = 0;
    for count in counts {
        tallied += as_u64(count).ok_or(format!("histogram `{name}` non-u64 count"))?;
    }
    let declared = get(histogram, "count")
        .and_then(as_u64)
        .ok_or(format!("histogram `{name}` missing u64 `count`"))?;
    if tallied != declared {
        return Err(format!(
            "histogram `{name}` bucket counts sum to {tallied}, `count` says {declared}"
        ));
    }
    get(histogram, "sum_us")
        .and_then(as_u64)
        .ok_or(format!("histogram `{name}` missing u64 `sum_us`"))?;
    Ok(())
}

/// The eleven per-site counters a profile row must carry, in the order
/// `symexec::profile::SiteCounters` declares them.
const PROFILE_COUNTERS: [&str; 11] = [
    "steps",
    "forks",
    "infeasible",
    "widenings",
    "cache_hits",
    "cache_misses",
    "secret_branches",
    "tier1_refuted",
    "tier2_refuted",
    "tier2_unknown",
    "merges",
];

/// Validates a `privacyscope --profile-out` document. Returns
/// (profiles, rows).
fn check_profile(path: &str) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("{path}: cannot read profile: {error}"))?;
    let value =
        serde_json::parse(&text).map_err(|error| format!("{path}: does not parse: {error}"))?;
    let Value::Object(document) = &value else {
        return Err(format!("{path}: document is not a JSON object"));
    };
    let Some(Value::Array(profiles)) = get(document, "profiles") else {
        return Err(format!("{path}: missing `profiles` array"));
    };
    let mut total_rows = 0usize;
    for (index, profile) in profiles.iter().enumerate() {
        let label = format!("{path}: profiles[{index}]");
        let Value::Object(profile) = profile else {
            return Err(format!("{label}: not a JSON object"));
        };
        let target = get(profile, "function")
            .and_then(as_str)
            .ok_or(format!("{label}: missing string `function`"))?;
        if target.is_empty() {
            return Err(format!("{label}: empty `function`"));
        }
        let Some(Value::Array(rows)) = get(profile, "rows") else {
            return Err(format!("{label}: missing `rows` array"));
        };
        let mut previous_line = 0u64;
        for (row_index, row) in rows.iter().enumerate() {
            let label = format!("{label}.rows[{row_index}]");
            let Value::Object(row) = row else {
                return Err(format!("{label}: not a JSON object"));
            };
            get(row, "function")
                .and_then(as_str)
                .ok_or(format!("{label}: missing string `function`"))?;
            let line = get(row, "line")
                .and_then(as_u64)
                .ok_or(format!("{label}: missing u64 `line`"))?;
            if line == 0 {
                return Err(format!("{label}: `line` is 0 (lines are 1-based)"));
            }
            if line < previous_line {
                return Err(format!("{label}: rows are not in line order"));
            }
            previous_line = line;
            get(row, "text")
                .and_then(as_str)
                .ok_or(format!("{label}: missing string `text`"))?;
            let Some(Value::Object(counters)) = get(row, "counters") else {
                return Err(format!("{label}: missing `counters` object"));
            };
            let mut any_nonzero = false;
            for counter in PROFILE_COUNTERS {
                let count = get(counters, counter)
                    .and_then(as_u64)
                    .ok_or(format!("{label}: counters missing u64 `{counter}`"))?;
                any_nonzero |= count > 0;
            }
            if !any_nonzero {
                return Err(format!(
                    "{label}: all counters are zero (empty sites are never emitted)"
                ));
            }
            total_rows += 1;
        }
    }
    Ok((profiles.len(), total_rows))
}

/// Validates one `service` snapshot inside a stats record.
fn check_service_snapshot(label: &str, service: &[(String, Value)]) -> Result<(), String> {
    let pool = get(service, "pool")
        .and_then(as_u64)
        .ok_or(format!("{label}: service missing u64 `pool`"))?;
    let busy = get(service, "busy")
        .and_then(as_u64)
        .ok_or(format!("{label}: service missing u64 `busy`"))?;
    if busy > pool {
        return Err(format!("{label}: busy {busy} exceeds pool {pool}"));
    }
    get(service, "queue_depth")
        .and_then(as_u64)
        .ok_or(format!("{label}: service missing u64 `queue_depth`"))?;
    if !matches!(get(service, "draining"), Some(Value::Bool(_))) {
        return Err(format!("{label}: service missing bool `draining`"));
    }
    let Some(Value::Array(jobs)) = get(service, "jobs") else {
        return Err(format!("{label}: service missing `jobs` array"));
    };
    let mut previous_id: Option<u64> = None;
    for (index, job) in jobs.iter().enumerate() {
        let label = format!("{label}.jobs[{index}]");
        let Value::Object(job) = job else {
            return Err(format!("{label}: not a JSON object"));
        };
        let id = get(job, "id")
            .and_then(as_u64)
            .ok_or(format!("{label}: missing u64 `id`"))?;
        if previous_id.is_some_and(|p| p >= id) {
            return Err(format!("{label}: job ids are not strictly increasing"));
        }
        previous_id = Some(id);
        let state = get(job, "state")
            .and_then(as_str)
            .ok_or(format!("{label}: missing string `state`"))?;
        if state.is_empty() {
            return Err(format!("{label}: empty `state`"));
        }
        for field in ["suspensions", "waves", "frontier", "steps"] {
            get(job, field)
                .and_then(as_u64)
                .ok_or(format!("{label}: missing u64 `{field}`"))?;
        }
    }
    Ok(())
}

/// Validates one `metrics` snapshot inside a stats record: sorted-unique
/// counter names and well-formed histograms.
fn check_metrics_snapshot(label: &str, metrics: &[(String, Value)]) -> Result<(), String> {
    let Some(Value::Array(counters)) = get(metrics, "counters") else {
        return Err(format!("{label}: metrics missing `counters` array"));
    };
    let mut previous_name: Option<&str> = None;
    for (index, pair) in counters.iter().enumerate() {
        let Value::Array(pair) = pair else {
            return Err(format!(
                "{label}.counters[{index}]: not a [name, value] pair"
            ));
        };
        let [name, value] = pair.as_slice() else {
            return Err(format!(
                "{label}.counters[{index}]: not a [name, value] pair"
            ));
        };
        let name = as_str(name).ok_or(format!("{label}.counters[{index}]: non-string name"))?;
        as_u64(value).ok_or(format!("{label}.counters[{index}]: non-u64 value"))?;
        if previous_name.is_some_and(|p| p >= name) {
            return Err(format!(
                "{label}.counters[{index}]: names are not sorted-unique (`{name}`)"
            ));
        }
        previous_name = Some(name);
    }
    let Some(Value::Array(histograms)) = get(metrics, "histograms") else {
        return Err(format!("{label}: metrics missing `histograms` array"));
    };
    for (index, histogram) in histograms.iter().enumerate() {
        let Value::Object(histogram) = histogram else {
            return Err(format!("{label}.histograms[{index}]: not a JSON object"));
        };
        let name = get(histogram, "name").and_then(as_str).ok_or(format!(
            "{label}.histograms[{index}]: missing string `name`"
        ))?;
        check_histogram_body(name, histogram).map_err(|reason| format!("{label}: {reason}"))?;
    }
    Ok(())
}

/// Validates a `privacyscoped --stats-out` JSONL stream. Returns the
/// record count.
fn check_stats(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("{path}: cannot read stats: {error}"))?;
    let mut records = 0usize;
    let mut previous_ts: Option<u64> = None;
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let label = format!("{path}:{}", index + 1);
        let value = serde_json::parse(line)
            .map_err(|error| format!("{label}: does not parse as JSON: {error}"))?;
        let Value::Object(record) = &value else {
            return Err(format!("{label}: record is not a JSON object"));
        };
        let ts_ms = get(record, "ts_ms")
            .and_then(as_u64)
            .ok_or(format!("{label}: missing u64 `ts_ms`"))?;
        if previous_ts.is_some_and(|p| p > ts_ms) {
            return Err(format!("{label}: `ts_ms` {ts_ms} went backwards"));
        }
        previous_ts = Some(ts_ms);
        let Some(Value::Object(service)) = get(record, "service") else {
            return Err(format!("{label}: missing `service` object"));
        };
        check_service_snapshot(&label, service)?;
        let Some(Value::Object(metrics)) = get(record, "metrics") else {
            return Err(format!("{label}: missing `metrics` object"));
        };
        check_metrics_snapshot(&label, metrics)?;
        records += 1;
    }
    if records == 0 {
        return Err(format!("{path}: no stats records (empty stream)"));
    }
    Ok(records)
}

const USAGE: &str =
    "usage: tracecheck [--profile <profile.json>] [--stats <stats.jsonl>] [<trace.jsonl> [metrics.json]]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile_path: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--profile" => match iter.next() {
                Some(value) => profile_path = Some(value),
                None => {
                    eprintln!("tracecheck: --profile needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--stats" => match iter.next() {
                Some(value) => stats_path = Some(value),
                None => {
                    eprintln!("tracecheck: --stats needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ => positional.push(arg),
        }
    }
    let (trace_path, metrics_path) = match positional.as_slice() {
        [] if profile_path.is_some() || stats_path.is_some() => (None, None),
        [trace] => (Some(trace.as_str()), None),
        [trace, metrics] => (Some(trace.as_str()), Some(metrics.as_str())),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = "tracecheck: ok".to_string();
    if let Some(trace_path) = trace_path {
        let summary = match check_trace(trace_path) {
            Ok(summary) => summary,
            Err(reason) => {
                eprintln!("tracecheck: {reason}");
                return ExitCode::FAILURE;
            }
        };
        report.push_str(&format!(
            ": {} spans, {} events, {} logs, {} parent links",
            summary.spans,
            summary.events,
            summary.logs,
            summary.parents.len()
        ));
    }
    if let Some(metrics_path) = metrics_path {
        match check_metrics(metrics_path) {
            Ok((counters, histograms)) => {
                report.push_str(&format!(
                    "; metrics: {counters} counters, {histograms} histograms"
                ));
            }
            Err(reason) => {
                eprintln!("tracecheck: {reason}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(profile_path) = &profile_path {
        match check_profile(profile_path) {
            Ok((profiles, rows)) => {
                report.push_str(&format!("; profile: {profiles} targets, {rows} rows"));
            }
            Err(reason) => {
                eprintln!("tracecheck: {reason}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(stats_path) = &stats_path {
        match check_stats(stats_path) {
            Ok(records) => {
                report.push_str(&format!("; stats: {records} records"));
            }
            Err(reason) => {
                eprintln!("tracecheck: {reason}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{report}");
    ExitCode::SUCCESS
}
