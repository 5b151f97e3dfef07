//! Differential soundness fuzzing driver.
//!
//! ```text
//! soundfuzz --seeds <a>..<b> [options]
//!     --seeds <a>..<b>        seed range, half-open (required)
//!     --vectors <n>           concrete probe vectors per question (default 3)
//!     --max-paths <n>         analyzer path budget (default 256)
//!     --loop-bound <n>        analyzer symbolic loop bound (default 4)
//!     --deadline-ms <n>       cooperative analyzer deadline per module
//!     --hard-timeout-ms <n>   hard wall-clock ceiling per analyzer run
//!                             (default 30000); a blown ceiling isolates the
//!                             run as a typed degradation
//!     --corpus <dir>          write disagreeing modules, their shrunk
//!                             reproducers, ground-truth labels, and repro
//!                             commands under <dir>/seed-<n>/
//!     --blind explicit|implicit
//!                             ablation: run the analyzer with one check
//!                             disabled (planted leaks of that kind become
//!                             missed-leak disagreements — the self-test)
//!     --feasibility syntactic|full
//!                             feasibility pipeline of the analyzer under
//!                             test: `full` (default) is the analyzer's one
//!                             pipeline, `syntactic` its tier-0 reference;
//!                             the CI differential campaign asserts both
//!                             report zero missed leaks
//!     --preflight             run the cross-interpreter agreement check on
//!                             each module before the campaign and fail fast
//!                             on drift
//!     --json                  print the machine-readable campaign summary
//!                             (deterministic: same seeds, same bytes)
//! ```
//!
//! Exit codes: 0 when every module agreed, 1 when any disagreement
//! (missed-leak or false-alarm) was found, 2 on usage errors, 3 when all
//! modules agreed but at least one recorded a harness degradation — the
//! clean verdict is then a lower bound.

use std::process::ExitCode;

use privacyscope::oracle::{self, OracleConfig};
use privacyscope::preflight::{self, Agreement, PreflightConfig};

/// What one campaign concluded, before mapping onto an exit code.
struct Verdict {
    /// No disagreement of either class.
    agreed: bool,
    /// At least one module recorded a harness degradation.
    degraded: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Verdict { agreed: false, .. }) => ExitCode::from(1),
        Ok(Verdict {
            agreed: true,
            degraded: true,
        }) => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("soundfuzz: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  soundfuzz --seeds <a>..<b> [--vectors <n>] [--max-paths <n>] [--loop-bound <n>]
            [--deadline-ms <n>] [--hard-timeout-ms <n>] [--corpus <dir>]
            [--blind explicit|implicit] [--feasibility syntactic|full]
            [--preflight] [--json]

exit codes: 0 all modules agreed, 1 disagreements found, 2 usage error,
            3 agreed but degraded (the verdict is a lower bound)
";

struct Cli {
    flags: Vec<(String, Option<String>)>,
}

fn parse_cli(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<Cli, String> {
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`\n{USAGE}"));
        };
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
    }
    Ok(Cli { flags })
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

    fn u64_value(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} expects a number, got `{text}`")),
        }
    }
}

fn parse_seed_range(text: &str) -> Result<(u64, u64), String> {
    let (a, b) = text
        .split_once("..")
        .ok_or_else(|| format!("--seeds expects `<a>..<b>`, got `{text}`"))?;
    let start: u64 = a
        .parse()
        .map_err(|_| format!("--seeds start `{a}` is not a number"))?;
    let end: u64 = b
        .parse()
        .map_err(|_| format!("--seeds end `{b}` is not a number"))?;
    if end <= start {
        return Err(format!("--seeds range `{text}` is empty"));
    }
    Ok((start, end))
}

fn run(args: &[String]) -> Result<Verdict, String> {
    if matches!(
        args.first().map(String::as_str),
        Some("--help") | Some("-h")
    ) || args.is_empty()
    {
        print!("{USAGE}");
        return Ok(Verdict {
            agreed: true,
            degraded: false,
        });
    }
    let cli = parse_cli(
        args,
        &[
            "seeds",
            "vectors",
            "max-paths",
            "loop-bound",
            "deadline-ms",
            "hard-timeout-ms",
            "corpus",
            "blind",
            "feasibility",
        ],
        &["json", "preflight"],
    )?;
    let (seed_start, seed_end) = parse_seed_range(
        cli.value("seeds")
            .ok_or_else(|| format!("--seeds <a>..<b> is required\n{USAGE}"))?,
    )?;
    let mut config = OracleConfig {
        vectors: cli.usize_value("vectors", 3)?,
        max_paths: cli.usize_value("max-paths", 256)?,
        loop_bound: cli.usize_value("loop-bound", 4)?,
        hard_timeout_ms: cli.u64_value("hard-timeout-ms", 30_000)?,
        ..OracleConfig::default()
    };
    if let Some(ms) = cli.value("deadline-ms") {
        config.deadline_ms = Some(
            ms.parse()
                .map_err(|_| format!("--deadline-ms expects a number, got `{ms}`"))?,
        );
    }
    if let Some(text) = cli.value("feasibility") {
        config.feasibility = privacyscope::FeasibilityMode::parse(text)
            .ok_or_else(|| format!("--feasibility expects syntactic or full, got `{text}`"))?;
    }
    match cli.value("blind") {
        None => {}
        Some("explicit") => config.check_explicit = false,
        Some("implicit") => config.check_implicit = false,
        Some(other) => {
            return Err(format!(
                "--blind expects `explicit` or `implicit`, got `{other}`"
            ))
        }
    }
    let corpus_dir = cli.value("corpus").map(std::path::PathBuf::from);

    if cli.has("preflight") {
        for seed in seed_start..seed_end {
            let module = mlcorpus::synth::generate(seed);
            let preflight_config = PreflightConfig {
                seed,
                max_paths: config.max_paths,
                loop_bound: config.loop_bound,
                deadline_ms: config.deadline_ms,
                ..PreflightConfig::default()
            };
            match preflight::check_agreement(
                &module.source,
                &module.edl,
                module.entry,
                &preflight_config,
            ) {
                Ok(Agreement::Match { .. }) | Ok(Agreement::PathNotKept) => {}
                Ok(Agreement::Mismatch { details }) => {
                    return Err(format!(
                        "interpreter drift on seed {seed}: {}",
                        details.join("; ")
                    ));
                }
                Err(reason) => {
                    return Err(format!("pre-flight failed on seed {seed}: {reason}"));
                }
            }
        }
        eprintln!("soundfuzz: pre-flight clean on seeds {seed_start}..{seed_end}");
    }

    let campaign = oracle::run_campaign(seed_start, seed_end, &config, corpus_dir.as_deref());
    if let Some(dir) = &corpus_dir {
        if !campaign.shrunk.is_empty() {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join("summary.json"), campaign.to_json()))
                .map_err(|e| format!("cannot write campaign summary: {e}"))?;
        }
    }
    if cli.has("json") {
        print!("{}", campaign.to_json());
    } else {
        render_human(&campaign);
    }
    Ok(Verdict {
        agreed: campaign.all_agreed(),
        degraded: campaign.degraded_modules() > 0,
    })
}

fn render_human(campaign: &oracle::Campaign) {
    println!(
        "soundfuzz: seeds {}..{} — {} modules, {} missed leaks, {} false alarms, {} degraded",
        campaign.seed_start,
        campaign.seed_end,
        campaign.verdicts.len(),
        campaign.missed_leaks(),
        campaign.false_alarms(),
        campaign.degraded_modules(),
    );
    for verdict in &campaign.verdicts {
        for disagreement in &verdict.disagreements {
            println!(
                "  seed {}: {} — {} channel `{}`, secret `{}`",
                verdict.seed,
                disagreement.class,
                if disagreement.explicit {
                    "explicit"
                } else {
                    "implicit"
                },
                disagreement.channel,
                disagreement.secret,
            );
        }
        for degradation in &verdict.degradations {
            println!("  seed {}: degraded — {degradation}", verdict.seed);
        }
    }
    for shrunk in &campaign.shrunk {
        let location = shrunk
            .path
            .as_ref()
            .map(|p| format!(" → {}", p.display()))
            .unwrap_or_default();
        println!(
            "  seed {}: shrunk {} reproducer {} → {} LoC{location}",
            shrunk.seed, shrunk.class, shrunk.original_loc, shrunk.loc,
        );
    }
}
