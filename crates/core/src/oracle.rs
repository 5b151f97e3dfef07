//! The differential soundness oracle (soundness fuzzing, ROADMAP item 3).
//!
//! For a generated [`SynthModule`] the oracle runs three executions and
//! cross-checks them:
//!
//! 1. **Symbolic**: the [`Analyzer`] over the module, crash-isolated in
//!    its own thread — a panic, cooperative-deadline blow-up, or hard
//!    wall-clock timeout becomes a typed [`HarnessDegradation`], never an
//!    aborted campaign.
//! 2. **Concrete**: the module runs in `sgx-sim` across seeded input
//!    vectors; for every channel the analyzer talks about (`return
//!    value`, OCALL arguments, `out[...]` slots) the oracle replays the
//!    run with one secret byte flipped and observes whether the channel
//!    actually changes.
//! 3. **Ground truth**: the generator's [`Expectation`] labels say which
//!    findings the analyzer *must* produce.
//!
//! Disagreements are classified by [`DisagreementClass`]:
//!
//! * **missed-leak** — an expectation has no matching finding and the
//!   exploration was complete: the analyzer is *unsound* for this module.
//!   (A degraded exploration is excluded: its leak set is an explicit
//!   lower bound, so a missing finding is a typed degradation instead.)
//! * **false-alarm** — the analyzer reported a finding that is neither
//!   labeled nor concretely reproducible: flipping the named secret never
//!   changes the named channel on any probe vector. Unlabeled findings
//!   that *do* reproduce concretely are counted (`unlabeled_confirmed`)
//!   but are not disagreements — the analyzer was right and the label was
//!   missing.
//!
//! [`run_campaign`] sweeps a seed range, auto-shrinks each disagreeing
//! module (see [`crate::shrink`]) into a corpus directory together with
//! the exact repro command, and renders a deterministic JSON summary —
//! the same seeds always produce byte-identical output.

use std::collections::BTreeSet;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use edl::Prototype;
use mlcorpus::expect::{Expectation, LeakKind};
use mlcorpus::synth::{self, SynthModule};
use sgx_sim::interp::Word;
use sgx_sim::{EcallArg, EcallResult, Enclave};
use symexec::concrete::CVal;

use crate::preflight::{const_bound, is_float_type, nums_agree, value_num, word_num};
use crate::report::{FindingKind, Report};
use crate::{Analyzer, AnalyzerOptions};

/// Oracle tuning: budgets, probe vectors, blinding, and failure-injection
/// test hooks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleConfig {
    /// Concrete probe vectors per (channel, secret) dependence question.
    pub vectors: usize,
    /// Analyzer path budget per module.
    pub max_paths: usize,
    /// Analyzer symbolic loop bound.
    pub loop_bound: usize,
    /// Cooperative analyzer deadline (engine stops at a wave boundary and
    /// records the cut in the degradation ledger).
    pub deadline_ms: Option<u64>,
    /// Hard wall-clock ceiling for one crash-isolated analyzer run; when
    /// it fires the runaway thread is abandoned and the module records an
    /// [`HarnessDegradation::AnalyzerTimeout`].
    pub hard_timeout_ms: u64,
    /// Ablation/blinding switch: run the analyzer without its explicit
    /// check (planted explicit leaks then become missed-leaks).
    pub check_explicit: bool,
    /// Ablation/blinding switch for the implicit check.
    pub check_implicit: bool,
    /// Test hook: panic inside the crash-isolated analyzer thread.
    pub inject_panic: bool,
    /// Test hook: stall the analyzer thread for this many milliseconds
    /// before it starts (exercises the hard timeout).
    pub inject_stall_ms: Option<u64>,
    /// Feasibility pipeline the analyzer runs with (`--feasibility`). The
    /// differential soundness gate runs the same seeds under the default
    /// and under the tier-0 `syntactic` reference and asserts zero missed
    /// leaks and identical leak classifications.
    pub feasibility: symexec::FeasibilityMode,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            vectors: 3,
            max_paths: 256,
            loop_bound: 4,
            deadline_ms: None,
            hard_timeout_ms: 30_000,
            check_explicit: true,
            check_implicit: true,
            inject_panic: false,
            inject_stall_ms: None,
            feasibility: symexec::FeasibilityMode::default(),
        }
    }
}

impl OracleConfig {
    /// The analyzer options this configuration induces.
    #[must_use]
    pub fn analyzer_options(&self) -> AnalyzerOptions {
        AnalyzerOptions {
            max_paths: self.max_paths,
            loop_bound: self.loop_bound,
            deadline_ms: self.deadline_ms,
            check_explicit: self.check_explicit,
            check_implicit: self.check_implicit,
            feasibility: self.feasibility,
            ..AnalyzerOptions::default()
        }
    }
}

/// How a verdict disagreement is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DisagreementClass {
    /// Ground truth says the module leaks; the analyzer (with a complete
    /// exploration) did not report it — unsoundness.
    MissedLeak,
    /// The analyzer reported a leak that is neither labeled nor
    /// concretely reproducible — imprecision.
    FalseAlarm,
}

impl fmt::Display for DisagreementClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisagreementClass::MissedLeak => write!(f, "missed-leak"),
            DisagreementClass::FalseAlarm => write!(f, "false-alarm"),
        }
    }
}

/// What concrete execution said about a disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// Flipping the secret byte changed the channel on some vector.
    Confirmed,
    /// No probe vector showed the channel depending on the secret.
    Refuted,
    /// Concrete probing was not possible (reason attached).
    Unavailable(String),
}

impl Evidence {
    fn label(&self) -> &str {
        match self {
            Evidence::Confirmed => "confirmed",
            Evidence::Refuted => "refuted",
            Evidence::Unavailable(_) => "unavailable",
        }
    }
}

/// One verdict disagreement between ground truth, analyzer, and concrete
/// execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// Missed leak (unsoundness) or false alarm (imprecision).
    pub class: DisagreementClass,
    /// `true` when the flow at issue is explicit.
    pub explicit: bool,
    /// The channel, in the analyzer's naming scheme.
    pub channel: String,
    /// The secret, in the analyzer's naming scheme.
    pub secret: String,
    /// The ground-truth label behind a missed leak.
    pub expectation_id: Option<String>,
    /// What concrete execution said.
    pub evidence: Evidence,
}

/// A harness-level failure that was isolated instead of aborting the
/// campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessDegradation {
    /// The analyzer thread panicked; the payload is attached.
    AnalyzerPanic {
        /// Rendered panic payload.
        detail: String,
    },
    /// The analyzer blew through the hard wall-clock ceiling and its
    /// thread was abandoned.
    AnalyzerTimeout {
        /// The ceiling that fired, in milliseconds.
        ms: u64,
    },
    /// The analyzer returned a typed error (bad parse, unknown entry…).
    AnalyzerError {
        /// Rendered error.
        detail: String,
    },
    /// The exploration completed but lost paths (budget/deadline/panic
    /// ledger) — the leak set is a lower bound, so missing findings are
    /// not classified as missed-leaks.
    IncompleteExploration {
        /// Number of ledger entries.
        dropped: usize,
    },
    /// Concrete execution in `sgx-sim` failed.
    ConcreteError {
        /// Rendered simulator error.
        detail: String,
    },
    /// Writing the reproducer corpus failed.
    CorpusIo {
        /// Rendered I/O error.
        detail: String,
    },
}

impl HarnessDegradation {
    fn kind(&self) -> &str {
        match self {
            HarnessDegradation::AnalyzerPanic { .. } => "analyzer-panic",
            HarnessDegradation::AnalyzerTimeout { .. } => "analyzer-timeout",
            HarnessDegradation::AnalyzerError { .. } => "analyzer-error",
            HarnessDegradation::IncompleteExploration { .. } => "incomplete-exploration",
            HarnessDegradation::ConcreteError { .. } => "concrete-error",
            HarnessDegradation::CorpusIo { .. } => "corpus-io",
        }
    }

    fn detail(&self) -> String {
        match self {
            HarnessDegradation::AnalyzerPanic { detail }
            | HarnessDegradation::AnalyzerError { detail }
            | HarnessDegradation::ConcreteError { detail }
            | HarnessDegradation::CorpusIo { detail } => detail.clone(),
            HarnessDegradation::AnalyzerTimeout { ms } => format!("hard timeout after {ms} ms"),
            HarnessDegradation::IncompleteExploration { dropped } => {
                format!("{dropped} degradation ledger entries")
            }
        }
    }
}

impl fmt::Display for HarnessDegradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

/// The oracle's verdict on one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleVerdict {
    /// Module name (`Synth-<seed>`).
    pub name: String,
    /// Generator seed.
    pub seed: u64,
    /// Source LoC.
    pub loc: usize,
    /// Paths the analyzer explored (0 when the run degraded away).
    pub paths: usize,
    /// Distinct (kind, channel, secret) findings reported.
    pub findings: usize,
    /// Ground-truth labels on the module.
    pub expectations: usize,
    /// Unlabeled findings that concrete execution confirmed — counted,
    /// not disagreements.
    pub unlabeled_confirmed: usize,
    /// Classified disagreements.
    pub disagreements: Vec<Disagreement>,
    /// Isolated harness failures.
    pub degradations: Vec<HarnessDegradation>,
}

impl ModuleVerdict {
    /// Whether the three executions agreed (no disagreement of either
    /// class; degradations do not count as disagreement).
    #[must_use]
    pub fn agreed(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// Missed-leak disagreements.
    pub fn missed_leaks(&self) -> impl Iterator<Item = &Disagreement> {
        self.disagreements
            .iter()
            .filter(|d| d.class == DisagreementClass::MissedLeak)
    }

    /// False-alarm disagreements.
    pub fn false_alarms(&self) -> impl Iterator<Item = &Disagreement> {
        self.disagreements
            .iter()
            .filter(|d| d.class == DisagreementClass::FalseAlarm)
    }
}

// ---- crash-isolated analyzer invocation -----------------------------------

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the analyzer on `source`/`edl_text` in a dedicated thread with
/// panic capture and a hard wall-clock ceiling.
///
/// # Errors
///
/// Returns the typed [`HarnessDegradation`] describing the isolated
/// failure; the caller's campaign continues either way.
pub fn invoke_analyzer(
    source: &str,
    edl_text: &str,
    entry: &str,
    config: &OracleConfig,
) -> Result<Report, HarnessDegradation> {
    let (tx, rx) = mpsc::channel();
    let source = source.to_string();
    let edl_text = edl_text.to_string();
    let entry = entry.to_string();
    let options = config.analyzer_options();
    let inject_panic = config.inject_panic;
    let inject_stall = config.inject_stall_ms;
    let spawned = thread::Builder::new()
        .name("oracle-analyzer".to_string())
        .spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("oracle test hook: injected analyzer panic");
                }
                if let Some(ms) = inject_stall {
                    thread::sleep(Duration::from_millis(ms));
                }
                Analyzer::from_sources(&source, &edl_text, options)
                    .and_then(|analyzer| analyzer.analyze(&entry))
            }));
            // The receiver may have timed out and gone away; that is fine.
            let _ = tx.send(outcome);
        });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(error) => {
            return Err(HarnessDegradation::AnalyzerError {
                detail: format!("could not spawn analyzer thread: {error}"),
            })
        }
    };
    match rx.recv_timeout(Duration::from_millis(config.hard_timeout_ms)) {
        Ok(Ok(Ok(report))) => {
            let _ = handle.join();
            Ok(report)
        }
        Ok(Ok(Err(error))) => {
            let _ = handle.join();
            Err(HarnessDegradation::AnalyzerError {
                detail: error.to_string(),
            })
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            Err(HarnessDegradation::AnalyzerPanic {
                detail: panic_message(payload),
            })
        }
        // The thread is abandoned, not joined: it may be stuck for good.
        Err(_) => Err(HarnessDegradation::AnalyzerTimeout {
            ms: config.hard_timeout_ms,
        }),
    }
}

// ---- concrete execution ----------------------------------------------------

/// A channel name parsed back into an observable location.
enum ChannelRef {
    Return,
    OcallArg { func: String, arg: usize },
    OutSlot { param: String, index: usize },
}

fn parse_channel(channel: &str) -> Option<ChannelRef> {
    if channel == "return value" {
        return Some(ChannelRef::Return);
    }
    if let Some(rest) = channel.strip_prefix("argument ") {
        let (arg, func) = rest.split_once(" of `")?;
        return Some(ChannelRef::OcallArg {
            func: func.strip_suffix('`')?.to_string(),
            arg: arg.parse().ok()?,
        });
    }
    let (param, rest) = channel.split_once('[')?;
    let index = rest.strip_suffix(']')?.parse().ok()?;
    Some(ChannelRef::OutSlot {
        param: param.to_string(),
        index,
    })
}

/// Parses `name[index]` secret labels.
fn parse_secret(secret: &str) -> Option<(String, usize)> {
    let (param, rest) = secret.split_once('[')?;
    let index = rest.strip_suffix(']')?.parse().ok()?;
    Some((param.to_string(), index))
}

/// The deterministic secret byte pool for one probe vector: every value
/// is below any implicit-leak threshold the generator emits, so flipping
/// a byte to 255 always crosses it.
fn probe_pool(seed: u64, vector: usize, len: usize) -> Vec<i64> {
    (0..len)
        .map(|j| {
            let mixed = seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(vector as u64 * 131)
                .wrapping_add(j as u64 * 7);
            (mixed % 40) as i64
        })
        .collect()
}

/// Builds ECALL arguments for `proto` from a secret pool and public
/// scalars, optionally flipping one element of one `[in]` buffer.
fn build_args(
    proto: &Prototype,
    pool: &[i64],
    pubs: &[i64],
    flip: Option<(&str, usize)>,
) -> Result<Vec<EcallArg>, String> {
    let mut args = Vec::new();
    let mut pool_i = 0usize;
    let mut pub_i = 0usize;
    for param in &proto.params {
        if param.is_pointer() {
            let count = const_bound(param)?;
            let float = is_float_type(&param.c_type);
            let fill = |pool_i: &mut usize| -> Vec<Word> {
                (0..count)
                    .map(|k| {
                        let mut v = pool[*pool_i % pool.len()];
                        *pool_i += 1;
                        if let Some((name, index)) = flip {
                            if name == param.name && k == index {
                                v = 255;
                            }
                        }
                        if float {
                            Word::Float(v as f64)
                        } else {
                            Word::Int(v)
                        }
                    })
                    .collect()
            };
            let is_in = param.attributes.is_in();
            let is_out = param.attributes.is_out();
            args.push(match (is_in, is_out) {
                (true, true) => EcallArg::InOut(fill(&mut pool_i)),
                (true, false) => EcallArg::In(fill(&mut pool_i)),
                (false, true) => EcallArg::Out(count),
                (false, false) => {
                    return Err(format!("parameter `{}` has no direction", param.name))
                }
            });
        } else {
            let v = pubs[pub_i % pubs.len()];
            pub_i += 1;
            args.push(if is_float_type(&param.c_type) {
                EcallArg::Float(v as f64)
            } else {
                EcallArg::Int(v)
            });
        }
    }
    Ok(args)
}

/// What one concrete run observed on a channel.
fn observe(result: &EcallResult, channel: &ChannelRef) -> Vec<Option<CVal>> {
    match channel {
        ChannelRef::Return => vec![result.ret.as_ref().and_then(value_num)],
        ChannelRef::OcallArg { func, arg } => result
            .ocalls
            .iter()
            .filter(|(name, _)| name == func)
            .map(|(_, args)| args.get(*arg).and_then(value_num))
            .collect(),
        ChannelRef::OutSlot { param, index } => vec![result
            .outs
            .get(param)
            .and_then(|words| words.get(*index))
            .and_then(word_num)],
    }
}

fn observations_agree(a: &[Option<CVal>], b: &[Option<CVal>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| nums_agree(*x, *y))
}

/// The fixed public scalars probe vectors use.
const PROBE_PUBS: &[i64] = &[5, 77];

/// Asks concrete execution whether `channel` depends on `secret`: the
/// module runs on seeded probe vectors, then again with the named secret
/// byte flipped to 255; any observed difference is dependence.
///
/// # Errors
///
/// Returns a rendered reason when the question cannot be answered
/// concretely (unparseable names, non-constant EDL bounds, simulator
/// faults).
pub fn concrete_dependence(
    source: &str,
    edl_text: &str,
    entry: &str,
    channel: &str,
    secret: &str,
    config: &OracleConfig,
    seed: u64,
) -> Result<bool, String> {
    let channel_ref =
        parse_channel(channel).ok_or_else(|| format!("unparseable channel `{channel}`"))?;
    let (secret_param, secret_index) =
        parse_secret(secret).ok_or_else(|| format!("unparseable secret `{secret}`"))?;
    let enclave = Enclave::load(source, edl_text).map_err(|e| e.to_string())?;
    let proto = enclave
        .edl()
        .ecall(entry)
        .ok_or_else(|| format!("no ECALL `{entry}`"))?
        .clone();
    for vector in 0..config.vectors.max(1) {
        let pool = probe_pool(seed, vector, 32);
        let base_args = build_args(&proto, &pool, PROBE_PUBS, None)?;
        let flip_args = build_args(
            &proto,
            &pool,
            PROBE_PUBS,
            Some((&secret_param, secret_index)),
        )?;
        let base = enclave
            .ecall(&proto.name, &base_args)
            .map_err(|e| e.to_string())?;
        let flipped = enclave
            .ecall(&proto.name, &flip_args)
            .map_err(|e| e.to_string())?;
        if !observations_agree(
            &observe(&base, &channel_ref),
            &observe(&flipped, &channel_ref),
        ) {
            return Ok(true);
        }
    }
    Ok(false)
}

// ---- classification --------------------------------------------------------

/// Distinct (explicit?, channel, secret) triples in a report. Timing
/// findings (off by default) are excluded — they have no ground truth.
#[must_use]
pub fn finding_keys(report: &Report) -> BTreeSet<(bool, String, String)> {
    report
        .findings
        .iter()
        .filter(|f| matches!(f.kind, FindingKind::Explicit | FindingKind::Implicit))
        .map(|f| {
            (
                f.kind == FindingKind::Explicit,
                f.channel.clone(),
                f.secret.clone(),
            )
        })
        .collect()
}

fn expectation_matched(e: &Expectation, keys: &BTreeSet<(bool, String, String)>) -> bool {
    keys.iter()
        .any(|(explicit, channel, secret)| e.matches(*explicit, channel, secret))
}

/// Cross-checks one synthetic module: analyzer vs ground truth vs
/// concrete execution. Never panics and never aborts — every harness
/// failure lands in the verdict's degradation list.
#[must_use]
pub fn check_module(module: &SynthModule, config: &OracleConfig) -> ModuleVerdict {
    let mut verdict = ModuleVerdict {
        name: module.name.clone(),
        seed: module.seed,
        loc: minic::count_loc(&module.source),
        paths: 0,
        findings: 0,
        expectations: module.expectations.len(),
        unlabeled_confirmed: 0,
        disagreements: Vec::new(),
        degradations: Vec::new(),
    };
    let report = match invoke_analyzer(&module.source, &module.edl, module.entry, config) {
        Ok(report) => report,
        Err(degradation) => {
            verdict.degradations.push(degradation);
            return verdict;
        }
    };
    verdict.paths = report.stats.paths;
    let degraded = report.is_degraded();
    if degraded {
        verdict
            .degradations
            .push(HarnessDegradation::IncompleteExploration {
                dropped: report.degradations.len(),
            });
    }
    let keys = finding_keys(&report);
    verdict.findings = keys.len();

    // Ground truth → findings: a complete exploration must report every
    // labeled leak.
    for expectation in &module.expectations {
        if expectation_matched(expectation, &keys) || degraded {
            continue;
        }
        let evidence = match concrete_dependence(
            &module.source,
            &module.edl,
            module.entry,
            &expectation.channel,
            &expectation.secret,
            config,
            module.seed,
        ) {
            Ok(true) => Evidence::Confirmed,
            Ok(false) => Evidence::Refuted,
            Err(reason) => Evidence::Unavailable(reason),
        };
        verdict.disagreements.push(Disagreement {
            class: DisagreementClass::MissedLeak,
            explicit: expectation.kind == LeakKind::Explicit,
            channel: expectation.channel.clone(),
            secret: expectation.secret.clone(),
            expectation_id: Some(expectation.id.clone()),
            evidence,
        });
    }

    // Findings → ground truth: anything unlabeled must reproduce
    // concretely, or it is a false alarm.
    for (explicit, channel, secret) in &keys {
        let labeled = module
            .expectations
            .iter()
            .any(|e| e.matches(*explicit, channel, secret));
        if labeled {
            continue;
        }
        match concrete_dependence(
            &module.source,
            &module.edl,
            module.entry,
            channel,
            secret,
            config,
            module.seed,
        ) {
            Ok(true) => verdict.unlabeled_confirmed += 1,
            Ok(false) => verdict.disagreements.push(Disagreement {
                class: DisagreementClass::FalseAlarm,
                explicit: *explicit,
                channel: channel.clone(),
                secret: secret.clone(),
                expectation_id: None,
                evidence: Evidence::Refuted,
            }),
            Err(reason) => verdict
                .degradations
                .push(HarnessDegradation::ConcreteError { detail: reason }),
        }
    }
    verdict
        .disagreements
        .sort_by(|a, b| (a.class, &a.channel, &a.secret).cmp(&(b.class, &b.channel, &b.secret)));
    verdict
}

// ---- campaign --------------------------------------------------------------

/// A shrunk reproducer written to the corpus directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrunkRecord {
    /// Seed of the disagreeing module.
    pub seed: u64,
    /// The disagreement the reproducer preserves.
    pub class: DisagreementClass,
    /// Channel of the preserved disagreement.
    pub channel: String,
    /// Secret of the preserved disagreement.
    pub secret: String,
    /// LoC before shrinking.
    pub original_loc: usize,
    /// LoC of the reproducer.
    pub loc: usize,
    /// Where the reproducer was written, when a corpus dir was given.
    pub path: Option<PathBuf>,
}

/// A completed seed-range campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// First seed swept (inclusive).
    pub seed_start: u64,
    /// Last seed swept (exclusive).
    pub seed_end: u64,
    /// Per-module verdicts, in seed order.
    pub verdicts: Vec<ModuleVerdict>,
    /// Shrunk reproducers, in seed order.
    pub shrunk: Vec<ShrunkRecord>,
}

impl Campaign {
    /// Total missed-leak disagreements.
    #[must_use]
    pub fn missed_leaks(&self) -> usize {
        self.verdicts.iter().map(|v| v.missed_leaks().count()).sum()
    }

    /// Total false-alarm disagreements.
    #[must_use]
    pub fn false_alarms(&self) -> usize {
        self.verdicts.iter().map(|v| v.false_alarms().count()).sum()
    }

    /// Modules that recorded at least one harness degradation.
    #[must_use]
    pub fn degraded_modules(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| !v.degradations.is_empty())
            .count()
    }

    /// Whether every module agreed (the campaign's CI gate is stricter:
    /// zero *missed leaks*).
    #[must_use]
    pub fn all_agreed(&self) -> bool {
        self.verdicts.iter().all(ModuleVerdict::agreed)
    }

    /// Renders the deterministic JSON summary: stable field order, no
    /// wall-clock values, byte-identical for identical seeds and config.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed_start\": {},\n", self.seed_start));
        out.push_str(&format!("  \"seed_end\": {},\n", self.seed_end));
        out.push_str(&format!("  \"modules\": {},\n", self.verdicts.len()));
        out.push_str(&format!("  \"missed_leaks\": {},\n", self.missed_leaks()));
        out.push_str(&format!("  \"false_alarms\": {},\n", self.false_alarms()));
        out.push_str(&format!(
            "  \"degraded_modules\": {},\n",
            self.degraded_modules()
        ));
        out.push_str("  \"verdicts\": [");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&v.name)));
            out.push_str(&format!("\"seed\": {}, ", v.seed));
            out.push_str(&format!("\"loc\": {}, ", v.loc));
            out.push_str(&format!("\"paths\": {}, ", v.paths));
            out.push_str(&format!("\"expectations\": {}, ", v.expectations));
            out.push_str(&format!("\"findings\": {}, ", v.findings));
            out.push_str(&format!(
                "\"unlabeled_confirmed\": {}, ",
                v.unlabeled_confirmed
            ));
            out.push_str(&format!("\"agreed\": {}, ", v.agreed()));
            out.push_str("\"disagreements\": [");
            for (j, d) in v.disagreements.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"class\": {}, \"explicit\": {}, \"channel\": {}, \"secret\": {}, \"expectation\": {}, \"evidence\": {}}}",
                    json_str(&d.class.to_string()),
                    d.explicit,
                    json_str(&d.channel),
                    json_str(&d.secret),
                    d.expectation_id
                        .as_deref()
                        .map_or_else(|| "null".to_string(), json_str),
                    json_str(d.evidence.label()),
                ));
            }
            out.push_str("], \"degradations\": [");
            for (j, deg) in v.degradations.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"kind\": {}, \"detail\": {}}}",
                    json_str(deg.kind()),
                    json_str(&deg.detail())
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"shrunk\": [");
        for (i, s) in self.shrunk.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seed\": {}, \"class\": {}, \"channel\": {}, \"secret\": {}, \"original_loc\": {}, \"loc\": {}}}",
                s.seed,
                json_str(&s.class.to_string()),
                json_str(&s.channel),
                json_str(&s.secret),
                s.original_loc,
                s.loc,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The exact command that reproduces one module's check.
#[must_use]
pub fn repro_command(seed: u64, config: &OracleConfig) -> String {
    let mut cmd = format!(
        "cargo run --release --bin soundfuzz -- --seeds {seed}..{} --vectors {} --max-paths {}",
        seed + 1,
        config.vectors,
        config.max_paths
    );
    if !config.check_explicit {
        cmd.push_str(" --blind explicit");
    }
    if !config.check_implicit {
        cmd.push_str(" --blind implicit");
    }
    if let Some(ms) = config.deadline_ms {
        cmd.push_str(&format!(" --deadline-ms {ms}"));
    }
    if config.feasibility != symexec::FeasibilityMode::default() {
        cmd.push_str(&format!(" --feasibility {}", config.feasibility.as_str()));
    }
    cmd
}

fn expectations_json(expectations: &[Expectation]) -> String {
    let mut out = String::from("[");
    for (i, e) in expectations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"id\": {}, \"kind\": {}, \"secret\": {}, \"channel\": {}, \"payload\": {}}}",
            json_str(&e.id),
            json_str(&e.kind.to_string()),
            json_str(&e.secret),
            json_str(&e.channel),
            json_str(&e.payload)
        ));
    }
    out.push_str("\n]\n");
    out
}

fn write_corpus_entry(
    dir: &Path,
    module: &SynthModule,
    config: &OracleConfig,
    shrunk_source: Option<&str>,
) -> Result<PathBuf, String> {
    let entry_dir = dir.join(format!("seed-{}", module.seed));
    std::fs::create_dir_all(&entry_dir).map_err(|e| e.to_string())?;
    let write = |name: &str, contents: &str| -> Result<(), String> {
        std::fs::write(entry_dir.join(name), contents).map_err(|e| e.to_string())
    };
    write("module.c", &module.source)?;
    write("module.edl", &module.edl)?;
    write(
        "expectations.json",
        &expectations_json(&module.expectations),
    )?;
    write(
        "repro.txt",
        &format!("{}\n", repro_command(module.seed, config)),
    )?;
    if let Some(shrunk) = shrunk_source {
        write("shrunk.c", shrunk)?;
    }
    Ok(entry_dir)
}

/// Sweeps `seed_start..seed_end`, checking every generated module,
/// auto-shrinking each disagreeing one, and (when `corpus_dir` is given)
/// writing reproducers to disk. Degradations never abort the sweep.
#[must_use]
pub fn run_campaign(
    seed_start: u64,
    seed_end: u64,
    config: &OracleConfig,
    corpus_dir: Option<&Path>,
) -> Campaign {
    let mut campaign = Campaign {
        seed_start,
        seed_end,
        verdicts: Vec::new(),
        shrunk: Vec::new(),
    };
    for seed in seed_start..seed_end {
        let module = synth::generate(seed);
        let mut verdict = check_module(&module, config);
        if let Some(target) = verdict.disagreements.first().cloned() {
            let outcome = crate::shrink::shrink(&module, &target, config);
            let mut record = ShrunkRecord {
                seed,
                class: target.class,
                channel: target.channel.clone(),
                secret: target.secret.clone(),
                original_loc: outcome.original_loc,
                loc: outcome.loc,
                path: None,
            };
            if let Some(dir) = corpus_dir {
                match write_corpus_entry(dir, &module, config, Some(&outcome.source)) {
                    Ok(path) => record.path = Some(path),
                    Err(detail) => verdict
                        .degradations
                        .push(HarnessDegradation::CorpusIo { detail }),
                }
            }
            campaign.shrunk.push(record);
        }
        campaign.verdicts.push(verdict);
    }
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_parsing_roundtrips() {
        assert!(matches!(
            parse_channel("return value"),
            Some(ChannelRef::Return)
        ));
        match parse_channel("argument 1 of `ocall_sink`") {
            Some(ChannelRef::OcallArg { func, arg }) => {
                assert_eq!(func, "ocall_sink");
                assert_eq!(arg, 1);
            }
            other => panic!("bad parse: {:?}", other.is_some()),
        }
        match parse_channel("out[4]") {
            Some(ChannelRef::OutSlot { param, index }) => {
                assert_eq!(param, "out");
                assert_eq!(index, 4);
            }
            other => panic!("bad parse: {:?}", other.is_some()),
        }
        assert!(parse_channel("weird").is_none());
    }

    #[test]
    fn probe_pool_is_deterministic_and_bounded() {
        let a = probe_pool(7, 2, 32);
        assert_eq!(a, probe_pool(7, 2, 32));
        assert!(a.iter().all(|v| (0..40).contains(v)));
        assert_ne!(a, probe_pool(7, 3, 32));
    }

    #[test]
    fn injected_panic_is_isolated() {
        let module = synth::generate(0);
        let config = OracleConfig {
            inject_panic: true,
            ..OracleConfig::default()
        };
        let result = invoke_analyzer(&module.source, &module.edl, module.entry, &config);
        assert!(matches!(
            result,
            Err(HarnessDegradation::AnalyzerPanic { .. })
        ));
    }

    #[test]
    fn injected_stall_hits_the_hard_timeout() {
        let module = synth::generate(0);
        let config = OracleConfig {
            inject_stall_ms: Some(5_000),
            hard_timeout_ms: 50,
            ..OracleConfig::default()
        };
        let result = invoke_analyzer(&module.source, &module.edl, module.entry, &config);
        assert!(matches!(
            result,
            Err(HarnessDegradation::AnalyzerTimeout { ms: 50 })
        ));
    }

    #[test]
    fn bad_source_is_a_typed_analyzer_error() {
        let result = invoke_analyzer(
            "int f( {",
            "enclave { trusted { public int f(); }; };",
            "f",
            &OracleConfig::default(),
        );
        assert!(matches!(
            result,
            Err(HarnessDegradation::AnalyzerError { .. })
        ));
    }
}
