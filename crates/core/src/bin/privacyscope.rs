//! The PrivacyScope command-line driver.
//!
//! ```text
//! privacyscope analyze <enclave.c> <enclave.edl> [options]
//!     --config <file.xml>   XML analysis configuration (§V-C)
//!     --function <name>     analyze one ECALL (default: all targets)
//!     --json                emit machine-readable reports
//!     --trace               print the Table-IV-style exploration table
//!     --baseline            run the path-insensitive DFA baseline instead
//!     --max-paths <n>       path budget (default 4096)
//!     --loop-bound <n>      symbolic loop bound (default 4)
//!     --workers <n>         exploration threads (0 = all cores, 1 = sequential)
//!     --deadline-ms <n>     wall-clock deadline; exploration stops at the
//!                           first wave boundary past it and the dropped
//!                           paths land in the degradation ledger
//!     --checkpoint <file>   write a crash-safe resumable snapshot when a
//!                           deadline/cancellation cuts the run (the path is
//!                           reported in the JSON report and on stderr)
//!     --checkpoint-every <n> additionally snapshot every n wave boundaries
//!                           (requires --checkpoint)
//!     --resume <file>       continue a previous run from its snapshot; the
//!                           final report is byte-identical to an
//!                           uninterrupted run at any --workers setting
//!     --trace-out <file>    write a JSONL span/event trace (wave, path-task,
//!                           analyzer-phase, checkpoint-write spans)
//!     --metrics-out <file>  write an end-of-run JSON metrics summary
//!                           (counters + fixed-bucket histograms)
//!     --log-level <level>   stderr logger: off|warn|info|debug (default off)
//!     --timings             print a per-phase timing table on stderr
//!     --daemon <addr>       submit the job to a running `privacyscoped`
//!                           (`host:port` or `unix:/path`) instead of
//!                           analyzing in-process; the rendered report and
//!                           exit code are byte-identical to a local run.
//!                           `--trace-out` then receives the daemon's
//!                           streamed progress records; local-only flags
//!                           (--baseline, --trace, --checkpoint*, --resume,
//!                           --metrics-out, --timings, --log-level) are
//!                           rejected
//!
//! Telemetry is purely observational: reports and checkpoints are
//! byte-identical with it on or off, at any worker count.
//!
//! Every fork is pruned by one feasibility pipeline: the paper's
//! syntactic range check, then an interval/congruence domain and a
//! budgeted SAT-lite solver on the branch condition's independent slice
//! of π. All tiers respect the program's wrapping i64 arithmetic, so they
//! only drop branch sides no input can reach; findings are those of the
//! syntactic check alone.
//!
//! privacyscope priml <program.priml>
//!     analyze a PRIML program with the formal semantics and print the
//!     simulation table (Tables II/III style)
//! ```
//!
//! Exit codes: 0 when every analyzed function satisfies nonreversibility
//! and the exploration was complete, 1 when violations were found, 2 on
//! usage or input errors, 3 when every function *looks* secure but paths
//! were lost (budget/deadline/panic) — the clean verdict is a lower bound.

use std::process::ExitCode;

use privacyscope::{Analyzer, AnalyzerOptions};

/// What one CLI run concluded, before mapping onto an exit code.
struct Verdict {
    /// Every analyzed function was free of violations.
    secure: bool,
    /// At least one exploration lost paths (see `Report::is_degraded`).
    degraded: bool,
}

impl Verdict {
    fn clean() -> Verdict {
        Verdict {
            secure: true,
            degraded: false,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Verdict { secure: false, .. }) => ExitCode::from(1),
        Ok(Verdict {
            secure: true,
            degraded: true,
        }) => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("privacyscope: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<Verdict, String> {
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("priml") => priml_mode(&args[1..]),
        Some("top") => top_mode(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(Verdict::clean())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "\
usage:
  privacyscope analyze <enclave.c> <enclave.edl> [--config <xml>] [--function <name>]
                       [--json] [--trace] [--baseline] [--max-paths <n>] [--loop-bound <n>]
                       [--workers <n>] [--deadline-ms <n>] [--checkpoint <file>]
                       [--checkpoint-every <n>] [--resume <file>] [--trace-out <file>]
                       [--metrics-out <file>] [--log-level off|warn|info|debug] [--timings]
                       [--profile] [--profile-out <file>]
                       [--daemon <host:port | unix:/path>]
  privacyscope priml <program.priml>
  privacyscope top <host:port | unix:/path> [--interval-ms <n>] [--iterations <n>]

exit codes: 0 secure and complete, 1 violations found, 2 usage/input error,
            3 secure but paths were lost (verdict is a lower bound)
";

struct Cli {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

fn parse_cli(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Cli, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!(
                    "duplicate `--{name}`: pass each option at most once"
                ));
            }
            if value_flags.contains(&name) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), Some(value.clone())));
            } else if bool_flags.contains(&name) {
                flags.push((name.to_string(), None));
            } else {
                return Err(format!("unknown option `--{name}`\n{USAGE}"));
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Cli { positional, flags })
}

impl Cli {
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn usize_value(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{text}`")),
        }
    }

    /// Like [`Cli::usize_value`], but an explicit `0` is rejected with the
    /// given hint — for flags where zero silently meant something else
    /// entirely (all cores, never snapshot) instead of what it says.
    fn positive_usize_value(
        &self,
        name: &str,
        default: usize,
        zero_hint: &str,
    ) -> Result<usize, String> {
        let value = self.usize_value(name, default)?;
        if self.value(name).is_some() && value == 0 {
            return Err(format!("--{name} 0 {zero_hint}"));
        }
        Ok(value)
    }

    fn u64_opt_value(&self, name: &str) -> Result<Option<u64>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects a number, got `{text}`")),
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn analyze(args: &[String]) -> Result<Verdict, String> {
    let cli = parse_cli(
        args,
        &[
            "config",
            "function",
            "max-paths",
            "loop-bound",
            "workers",
            "deadline-ms",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "trace-out",
            "metrics-out",
            "log-level",
            "daemon",
            "profile-out",
        ],
        &["json", "trace", "baseline", "timings", "profile"],
    )?;
    let [source_path, edl_path] = cli.positional.as_slice() else {
        return Err(format!(
            "`analyze` needs <enclave.c> and <enclave.edl>\n{USAGE}"
        ));
    };
    let source = read(source_path)?;
    let edl_text = read(edl_path)?;

    if let Some(addr) = cli.value("daemon") {
        return daemon_submit(&cli, addr, &source, &edl_text);
    }

    let checkpoint = cli.value("checkpoint").map(std::path::PathBuf::from);
    let checkpoint_every = cli.positive_usize_value(
        "checkpoint-every",
        0,
        "would never snapshot: omit the flag, or pass a positive wave interval",
    )?;
    let resume = cli.value("resume").map(std::path::PathBuf::from);
    if checkpoint_every > 0 && checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint <file>".into());
    }
    if cli.has("baseline") && (checkpoint.is_some() || resume.is_some()) {
        return Err("--checkpoint/--resume do not apply to the --baseline DFA".into());
    }
    if cli.has("baseline") && (cli.has("profile") || cli.value("profile-out").is_some()) {
        return Err(
            "--profile/--profile-out need the exploring engine and do not apply \
             to the --baseline DFA"
                .into(),
        );
    }

    let log_level = match cli.value("log-level") {
        None => telemetry::Level::Off,
        Some(text) => text.parse().map_err(|e| format!("{e}"))?,
    };
    let telemetry = telemetry::TelemetryConfig {
        trace_out: cli.value("trace-out").map(std::path::PathBuf::from),
        metrics_out: cli.value("metrics-out").map(std::path::PathBuf::from),
        log_level,
        timings: cli.has("timings"),
        collect_metrics: false,
    }
    .build()
    .map_err(|e| format!("cannot open telemetry sink: {e}"))?;
    // Flush the sinks on *every* exit path — usage errors (`?` returns
    // below) and panics included — so `--trace-out`/`--metrics-out` are
    // never left buffered or truncated. `finish` is idempotent, so the
    // explicit success-path call below still reports write errors.
    let _telemetry_flush = telemetry.flush_guard();

    let options = AnalyzerOptions {
        max_paths: cli.usize_value("max-paths", 4096)?,
        loop_bound: cli.usize_value("loop-bound", 4)?,
        workers: cli.positive_usize_value(
            "workers",
            0,
            "is ambiguous: omit the flag to use every core, or pass a positive thread count",
        )?,
        deadline_ms: cli.u64_opt_value("deadline-ms")?,
        checkpoint,
        checkpoint_every,
        resume,
        telemetry: telemetry.clone(),
        ..AnalyzerOptions::default()
    };

    let analyzer = match cli.value("config") {
        Some(config_path) => {
            let xml = read(config_path)?;
            Analyzer::with_config(&source, &edl_text, &xml, options)
        }
        None => Analyzer::from_sources(&source, &edl_text, options),
    }
    .map_err(|e| e.to_string())?;

    let targets = match cli.value("function") {
        Some(name) => vec![name.to_string()],
        None => analyzer.targets(),
    };
    if targets.is_empty() {
        return Err("no public ECALLs to analyze (and no --function given)".into());
    }
    if targets.len() > 1 && (cli.value("checkpoint").is_some() || cli.value("resume").is_some()) {
        return Err(format!(
            "--checkpoint/--resume snapshot one exploration, but {} targets were selected; \
             pick one with --function",
            targets.len()
        ));
    }

    let mut verdict = Verdict::clean();
    let mut profiles: Vec<(String, privacyscope::SourceProfile)> = Vec::new();
    for target in &targets {
        if cli.has("baseline") {
            let report = privacyscope::baseline::analyze(&source, &edl_text, target)
                .map_err(|e| e.to_string())?;
            emit(&report, cli.has("json"));
            verdict.secure &= report.is_secure();
            continue;
        }
        if cli.has("trace") {
            let table = analyzer.trace_table(target).map_err(|e| e.to_string())?;
            println!("── exploration of `{target}` ──");
            println!("{table}");
        }
        let report = analyzer.analyze(target).map_err(|e| e.to_string())?;
        emit(&report, cli.has("json"));
        if cli.has("profile") {
            eprint!("{}", report.profile.render_table(target));
        }
        if cli.value("profile-out").is_some() {
            profiles.push((target.clone(), report.profile.clone()));
        }
        if let Some(path) = &report.checkpoint {
            eprintln!(
                "privacyscope: wrote resumable checkpoint to `{path}`; \
                 continue with `--resume {path}`"
            );
        }
        verdict.secure &= report.is_secure();
        verdict.degraded |= report.is_degraded();
    }
    if let Some(path) = cli.value("profile-out") {
        let text = render_profile_document(&profiles);
        std::fs::write(path, text)
            .map_err(|e| format!("cannot write profile output `{path}`: {e}"))?;
    }
    telemetry
        .finish()
        .map_err(|e| format!("cannot write telemetry output: {e}"))?;
    Ok(verdict)
}

fn emit(report: &privacyscope::Report, json: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
}

/// The machine JSON document `--profile-out` writes:
/// `{"profiles": [{"function": ..., "rows": [...]}, ...]}`, one entry per
/// analyzed target in target order. Deterministic: profile collection is
/// worker-count-invariant and rows come out in line order.
fn render_profile_document(profiles: &[(String, privacyscope::SourceProfile)]) -> String {
    let entries = profiles
        .iter()
        .map(|(function, profile)| {
            serde_json::parse(&profile.to_json(function)).expect("profile JSON parses")
        })
        .collect();
    let document =
        serde::Value::Object(vec![("profiles".to_string(), serde::Value::Array(entries))]);
    serde_json::to_string_pretty(&document).expect("profile document serializes") + "\n"
}

/// `top <addr>`: poll the daemon's `Stats` frame and render a refreshing
/// fleet table — queue depth, pool utilization, per-job progress, service
/// counters, and latency histograms.
fn top_mode(args: &[String]) -> Result<Verdict, String> {
    use privacyscope::protocol::{self, ClientFrame, ServerFrame};
    use std::io::{BufRead, BufReader, Write};

    let cli = parse_cli(args, &["interval-ms", "iterations"], &[])?;
    let [addr] = cli.positional.as_slice() else {
        return Err(format!("`top` needs a daemon address\n{USAGE}"));
    };
    let interval =
        std::time::Duration::from_millis(cli.u64_opt_value("interval-ms")?.unwrap_or(1000));
    let iterations = cli.u64_opt_value("iterations")?.unwrap_or(0);

    let (read_half, mut write_half): (Box<dyn std::io::Read>, Box<dyn std::io::Write>) =
        if let Some(path) = addr.strip_prefix("unix:") {
            let stream = std::os::unix::net::UnixStream::connect(path)
                .map_err(|e| format!("cannot connect to daemon at `unix:{path}`: {e}"))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?;
            (Box::new(reader), Box::new(stream))
        } else {
            let stream = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("cannot connect to daemon at `{addr}`: {e}"))?;
            let reader = stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?;
            (Box::new(reader), Box::new(stream))
        };
    let mut lines = BufReader::new(read_half).lines();
    let request = protocol::encode(&ClientFrame::Stats)?;

    let mut round = 0u64;
    loop {
        round += 1;
        write_half
            .write_all(request.as_bytes())
            .and_then(|()| write_half.write_all(b"\n"))
            .and_then(|()| write_half.flush())
            .map_err(|e| format!("cannot query the daemon: {e}"))?;
        let reply = loop {
            let Some(next) = lines.next() else {
                return Err("daemon closed the connection".into());
            };
            let text = next.map_err(|e| format!("lost the daemon connection: {e}"))?;
            if text.trim().is_empty() {
                continue;
            }
            break text;
        };
        match protocol::decode::<ServerFrame>(&reply)? {
            ServerFrame::Stats { service, metrics } => {
                // Refresh in place only when watching continuously; a
                // single-shot poll (scripts, CI) stays pipe-friendly.
                if iterations != 1 {
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render_top(&service, &metrics));
                let _ = std::io::stdout().flush();
            }
            other => return Err(format!("unexpected frame from daemon: {other:?}")),
        }
        if iterations > 0 && round >= iterations {
            return Ok(Verdict::clean());
        }
        std::thread::sleep(interval);
    }
}

/// One `top` screen: the fleet table rendered from a `Stats` answer.
fn render_top(
    service: &privacyscope::ServiceStats,
    metrics: &telemetry::MetricsSnapshot,
) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "── privacyscoped fleet ── pool {}/{} busy · queue {} · {}",
        service.busy,
        service.pool,
        service.queue_depth,
        if service.draining {
            "draining"
        } else {
            "accepting"
        }
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>6} {:>7} {:>9} {:>10}",
        "job", "state", "susp", "waves", "frontier", "steps"
    );
    for job in &service.jobs {
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>6} {:>7} {:>9} {:>10}",
            job.id, job.state, job.suspensions, job.waves, job.frontier, job.steps
        );
    }
    if !metrics.counters.is_empty() {
        let _ = writeln!(out, "── counters ──");
        for (name, value) in &metrics.counters {
            let _ = writeln!(out, "{name:<40} {value:>12}");
        }
    }
    if !metrics.histograms.is_empty() {
        let _ = writeln!(out, "── latency histograms ──");
        for histogram in &metrics.histograms {
            let mean_us = histogram.sum_us.checked_div(histogram.count).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<40} n={:<8} mean={}µs",
                histogram.name, histogram.count, mean_us
            );
        }
    }
    out
}

/// `--daemon <addr>` client mode: submit the job to a running
/// `privacyscoped` and render exactly what a local run would have printed
/// (the daemon ships reports pre-rendered in both forms).
fn daemon_submit(cli: &Cli, addr: &str, source: &str, edl_text: &str) -> Result<Verdict, String> {
    use privacyscope::protocol::{self, ClientFrame, ServerFrame};
    use std::io::{BufRead, BufReader, Write};

    for flag in [
        "baseline",
        "trace",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "metrics-out",
        "timings",
        "log-level",
        "profile",
        "profile-out",
    ] {
        if cli.has(flag) {
            return Err(format!(
                "--{flag} runs locally and does not apply with --daemon \
                 (the daemon owns checkpoints and metrics)"
            ));
        }
    }

    let config = match cli.value("config") {
        Some(path) => read(path)?,
        None => String::new(),
    };
    let progress_out = cli.value("trace-out");
    let submit = ClientFrame::Submit {
        source: source.to_string(),
        edl: edl_text.to_string(),
        config,
        function: cli.value("function").unwrap_or("").to_string(),
        max_paths: cli.usize_value("max-paths", 4096)? as u64,
        loop_bound: cli.usize_value("loop-bound", 4)? as u64,
        workers: cli.positive_usize_value(
            "workers",
            0,
            "is ambiguous: omit the flag to use every core, or pass a positive thread count",
        )? as u64,
        deadline_ms: cli.u64_opt_value("deadline-ms")?.unwrap_or(0),
        progress: progress_out.is_some(),
    };

    let mut stream: Box<dyn ReadWriteStream> = if let Some(path) = addr.strip_prefix("unix:") {
        Box::new(
            std::os::unix::net::UnixStream::connect(path)
                .map_err(|e| format!("cannot connect to daemon at `unix:{path}`: {e}"))?,
        )
    } else {
        Box::new(
            std::net::TcpStream::connect(addr)
                .map_err(|e| format!("cannot connect to daemon at `{addr}`: {e}"))?,
        )
    };
    let line = protocol::encode(&submit)?;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot submit job: {e}"))?;

    let mut progress_file = match progress_out {
        Some(path) => Some(
            std::fs::File::create(path)
                .map_err(|e| format!("cannot open trace output `{path}`: {e}"))?,
        ),
        None => None,
    };

    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line.map_err(|e| format!("lost the daemon connection: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        match protocol::decode::<ServerFrame>(&line)? {
            ServerFrame::Accepted { .. } | ServerFrame::State { .. } | ServerFrame::Pong => {}
            ServerFrame::Progress { record, .. } => {
                if let Some(file) = &mut progress_file {
                    writeln!(file, "{record}")
                        .map_err(|e| format!("cannot write trace output: {e}"))?;
                }
            }
            ServerFrame::Error { message, .. } => return Err(message),
            ServerFrame::Rejected { code, reason, .. } => {
                return Err(format!("daemon rejected the submission ({code}): {reason}"));
            }
            ServerFrame::Recovery { .. } | ServerFrame::Stats { .. } => {}
            ServerFrame::Done {
                exit,
                reports,
                rendered,
                ..
            } => {
                let json = cli.has("json");
                let pick = if json { &reports } else { &rendered };
                for text in pick {
                    println!("{text}");
                }
                return match exit {
                    0 => Ok(Verdict::clean()),
                    1 => Ok(Verdict {
                        secure: false,
                        degraded: false,
                    }),
                    3 => Ok(Verdict {
                        secure: true,
                        degraded: true,
                    }),
                    other => Err(format!("daemon reported unexpected exit code {other}")),
                };
            }
        }
    }
    Err("daemon closed the connection before the job finished".into())
}

/// The two local stream flavours a `--daemon` address can name.
trait ReadWriteStream: std::io::Read + std::io::Write {}
impl ReadWriteStream for std::net::TcpStream {}
impl ReadWriteStream for std::os::unix::net::UnixStream {}

fn priml_mode(args: &[String]) -> Result<Verdict, String> {
    let cli = parse_cli(args, &[], &[])?;
    let [path] = cli.positional.as_slice() else {
        return Err(format!("`priml` needs a program file\n{USAGE}"));
    };
    let source = read(path)?;
    let program = priml::parse(&source).map_err(|e| e.to_string())?;
    let outcome = priml::analysis::analyze(&program);
    println!("{}", priml::analysis::render_table3(&outcome));
    for violation in &outcome.violations {
        println!("violation: {violation}");
    }
    if outcome.is_secure() {
        println!("nonreversibility holds.");
    }
    Ok(Verdict {
        secure: outcome.is_secure(),
        degraded: false,
    })
}
