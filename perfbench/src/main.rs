//! The repository's benchmark: time-to-verdict of the analyzer and job
//! latency of the analysis service, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <table5|branch-heavy|service-mix|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics; with `--trace 1`
//! it makes a separate traced run and prints the per-layer metrics. Every
//! verdict is checked against ground truth and every deterministic count
//! against its repetitions; any mismatch makes the result `"correct":
//! false` and the exit code 1. The last line of standard output is the
//! JSON result. `--workload all` runs every workload, untraced and traced,
//! each in a fresh process, and also checks that the counts agree across
//! those processes.

mod analysis;
mod batch;
mod inputs;
mod mix;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use analysis::Counts;
use inputs::Module;
use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table5", "branch-heavy", "service-mix"];

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Where runs leave traces and service spools: inside the checkout, next
/// to the build.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// The run's arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got `{}`",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// A value built by a timed set-up repeated [`SETUP_REPS`] times.
pub struct Setup<T> {
    /// The last set-up's value.
    pub value: T,
    /// Median set-up seconds.
    pub secs: f64,
}

impl<T> Setup<T> {
    pub fn repeat(mut f: impl FnMut() -> T) -> Setup<T> {
        let mut secs = Vec::with_capacity(SETUP_REPS);
        let mut value = None;
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            let next = f();
            secs.push(started.elapsed().as_secs_f64());
            // The previous set-up is torn down here, outside the timing.
            value = Some(next);
        }
        Setup {
            value: value.expect("at least one set-up"),
            secs: stats::median(&secs),
        }
    }
}

/// Exploration threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's resident-set high-water mark, in MiB. Each run is a
/// fresh process running one workload, so the mark is the workload's own.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints a digest of the deterministic counts, keyed by module, so that
/// separate processes on the same seed can be compared.
pub fn print_digest(modules: &[Module], counts: &[Option<Counts>]) {
    let mut rows: Vec<String> = modules
        .iter()
        .zip(counts)
        .map(|(m, c)| format!("{}@{}/{}:{c:?}", m.name, m.max_paths, m.loop_bound))
        .collect();
    rows.sort();
    // FNV-1a: stable across builds and platforms.
    let hash = rows
        .join("\n")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    println!("counts-digest {hash:016x}");
}

/// Writes the traced run's spans; a write failure fails the run.
pub fn write_trace(tracer: &trace::Tracer, path: &std::path::Path, outcome: &mut Outcome) {
    outcome.check(
        tracer
            .write(path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display())),
    );
}

/// Runs one workload in this process.
fn run_one(args: &Args) -> Outcome {
    let trace_path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let seed = args.seed;
    let outcome = match args.workload.as_str() {
        // table5's traced run already makes three passes of ~30 s; a
        // fourth for the speed-up would push it past three minutes.
        "table5" => batch::run(
            &|| inputs::table5(seed),
            args.seconds,
            args.trace,
            false,
            &trace_path,
        ),
        "branch-heavy" => batch::run(
            &|| inputs::branch_heavy(seed),
            args.seconds,
            args.trace,
            true,
            &trace_path,
        ),
        _ => mix::run(seed, args.seconds, args.trace, &trace_path),
    };
    if args.trace {
        println!("trace spans: {}", trace_path.display());
    }
    outcome
}

/// Runs every workload, untraced then traced, each in a fresh process,
/// and checks that each pair printed the same count digest.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for trace in ["0", "1"] {
            println!("== {workload} --trace {trace}");
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            ok &= out.status.success();
            digests.extend(
                stdout
                    .lines()
                    .filter_map(|l| l.strip_prefix("counts-digest "))
                    .map(str::to_string),
            );
        }
        if digests.len() != 2 || digests[0] != digests[1] {
            eprintln!(
                "count drift between the untraced and traced runs of {workload}: {digests:?}"
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(error) => {
                eprintln!("perfbench: {error}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = run_one(&args);
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    for error in &outcome.errors {
        eprintln!("FAIL {error}");
    }
    print!("{}", outcome.table(registry));
    println!("{}", outcome.json(registry));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line_flags() {
        let parsed = args(&[
            "--workload",
            "table5",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            parsed,
            Ok(Args {
                workload: "table5".into(),
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "table5", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "table5", "--seed"]).is_err());
    }
}
