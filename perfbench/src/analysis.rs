//! One module's analysis through the public layer entry points, the
//! deterministic counts it yields, and its check against ground truth.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use privacyscope::analyzer::DEFAULT_DECRYPT_FUNCTIONS;
use privacyscope::{Analyzer, Report};
use symexec::{Engine, EngineConfig, Exploration, ParamBinding};

use crate::inputs::{Key, Module, Truth};
use crate::trace::Tracer;

/// The deterministic counts of one analysis. Two analyses of the same
/// module must agree on every field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub paths: usize,
    pub forks: usize,
    pub infeasible: usize,
    pub probe_hits: usize,
    pub probe_misses: usize,
    pub tier1_refuted: usize,
    pub tier2_refuted: usize,
    pub tier2_unknown: usize,
    pub steps: u64,
    pub exhausted: bool,
    /// Finding keys; empty for counts taken from an exploration.
    pub findings: Vec<Key>,
}

impl Counts {
    pub fn of_report(report: &Report) -> Counts {
        let s = &report.stats;
        Counts {
            paths: s.paths,
            forks: s.forks,
            infeasible: s.infeasible,
            probe_hits: s.cache_hits,
            probe_misses: s.cache_misses,
            tier1_refuted: s.tier1_refuted,
            tier2_refuted: s.tier2_refuted,
            tier2_unknown: s.tier2_unknown,
            steps: report.profile.total_steps(),
            exhausted: s.exhausted,
            findings: privacyscope::oracle::finding_keys(report)
                .into_iter()
                .collect(),
        }
    }

    pub fn of_exploration(exploration: &Exploration) -> Counts {
        let s = &exploration.stats;
        Counts {
            paths: exploration.paths.len(),
            forks: s.forks,
            infeasible: s.infeasible,
            probe_hits: s.cache_hits,
            probe_misses: s.cache_misses,
            tier1_refuted: s.tier1_refuted,
            tier2_refuted: s.tier2_refuted,
            tier2_unknown: s.tier2_unknown,
            steps: s.steps as u64,
            exhausted: exploration.exhausted,
            findings: Vec::new(),
        }
    }

    /// The same counts without the findings, for comparing a report with
    /// an exploration.
    pub fn without_findings(&self) -> Counts {
        Counts {
            findings: Vec::new(),
            ..self.clone()
        }
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(format!("{what} panicked")))
}

/// A finished standalone analysis.
pub struct Analysis {
    pub analyzer: Analyzer,
    pub report: Report,
    /// Wall seconds of `from_sources` + `analyze`.
    pub secs: f64,
}

/// `Analyzer::from_sources` then `Analyzer::analyze`, each in its own
/// span under `parent`.
pub fn analyze(
    module: &Module,
    tracer: &Tracer,
    trace: u64,
    parent: Option<u64>,
) -> Result<Analysis, String> {
    guarded(&module.name, || {
        let start = Instant::now();
        let analyzer = tracer
            .span("frontend", trace, parent, || {
                Analyzer::from_sources(&module.source, &module.edl, module.options())
            })
            .map_err(|e| format!("{}: frontend: {e}", module.name))?;
        let report = tracer
            .span("analyze", trace, parent, || analyzer.analyze(&module.entry))
            .map_err(|e| format!("{}: analyze: {e}", module.name))?;
        Ok(Analysis {
            analyzer,
            report,
            secs: start.elapsed().as_secs_f64(),
        })
    })
}

/// `Engine::run` on the module with the engine configuration the analyzer
/// derives from its options and EDL, at `workers` exploration threads,
/// timed in a span named `name`. Returns the exploration and its seconds.
pub fn explore(
    module: &Module,
    analyzer: &Analyzer,
    workers: usize,
    tracer: &Tracer,
    name: &'static str,
    trace: u64,
    parent: Option<u64>,
) -> Result<(Exploration, f64), String> {
    guarded(&module.name, || {
        let edl = edl::parse_edl(&module.edl).map_err(|e| format!("{}: {e}", module.name))?;
        let proto = edl
            .ecall(&module.entry)
            .ok_or_else(|| format!("{}: no ECALL `{}`", module.name, module.entry))?;
        // The analyzer's default bindings: `[in]` buffers are secret,
        // `[out]` buffers are observable.
        let bindings: Vec<ParamBinding> = proto
            .params
            .iter()
            .map(|param| {
                if !param.is_pointer() {
                    return ParamBinding::Scalar;
                }
                match (param.attributes.is_in(), param.attributes.is_out()) {
                    (true, true) => ParamBinding::InOutPointer,
                    (true, false) => ParamBinding::SecretPointer,
                    (false, true) => ParamBinding::OutPointer,
                    (false, false) => ParamBinding::Pointer,
                }
            })
            .collect();
        let options = module.options();
        let config = EngineConfig {
            loop_bound: options.loop_bound,
            max_paths: options.max_paths,
            inline_depth: options.inline_depth,
            workers,
            feasibility: options.feasibility,
            sink_functions: edl.ocall_names().into_iter().collect(),
            source_functions: DEFAULT_DECRYPT_FUNCTIONS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..EngineConfig::default()
        };
        let engine = Engine::new(analyzer.unit(), config).with_source(module.source.clone());
        let started = Instant::now();
        let exploration = tracer
            .span(name, trace, parent, || engine.run(&module.entry, &bindings))
            .map_err(|e| format!("{}: engine: {e}", module.name))?;
        Ok((exploration, started.elapsed().as_secs_f64()))
    })
}

/// Checks a report against the module's ground truth.
pub fn check_truth(module: &Module, report: &Report) -> Result<(), String> {
    match &module.truth {
        Truth::Keys(expected) => {
            let got = privacyscope::oracle::finding_keys(report);
            if &got != expected {
                return Err(format!(
                    "{}: findings {got:?}, expected {expected:?}",
                    module.name
                ));
            }
        }
        Truth::Counts { explicit, implicit } => {
            let got = (
                report.explicit_findings().count(),
                report.implicit_findings().count(),
            );
            if got != (*explicit, *implicit) || report.findings.len() != explicit + implicit {
                return Err(format!(
                    "{}: {} findings ({} explicit, {} implicit), expected {explicit} explicit + {implicit} implicit",
                    module.name,
                    report.findings.len(),
                    got.0,
                    got.1
                ));
            }
        }
    }
    Ok(())
}

/// Fails when two count records of the same module differ.
pub fn check_drift(what: &str, expected: &Counts, got: &Counts) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("count drift in {what}: {expected:?} vs {got:?}"))
    }
}
