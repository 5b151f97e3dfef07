//! The PrivacyScope analyzer: EDL-driven symbolic exploration plus the
//! nonreversibility policy checks of §V-B/§VI-B.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use edl::{AnalysisConfig, EdlFile, Prototype};
use minic::ast::TranslationUnit;
use symexec::degrade::{CancelToken, YieldToken};
use symexec::engine::{region_hint, Engine, EngineConfig, ParamBinding};
use symexec::state::Channel;
use taint::SourceId;
use telemetry::Telemetry;

use crate::error::Error;
use crate::invert::recovery_formula;
use crate::nonrev::Property;
use crate::report::{AnalysisStats, Finding, FindingKind, PathObservation, Report};

/// The paper's predefined decrypt-function list (§VI-B): calls to these
/// turn ciphertext into fresh secret data.
pub const DEFAULT_DECRYPT_FUNCTIONS: &[&str] = &[
    "ipp_aes_decrypt",
    "sgx_rijndael128GCM_decrypt",
    "sgx_unseal_data",
];

/// A secret source as the findings maps key it: its name, then its id.
type Secret = (String, SourceId);

/// Analyzer tuning and ablation switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerOptions {
    /// Symbolic loop bound (see [`EngineConfig::loop_bound`]).
    pub loop_bound: usize,
    /// Path budget.
    pub max_paths: usize,
    /// Call-inlining depth.
    pub inline_depth: usize,
    /// Record per-statement traces (Table IV).
    pub record_trace: bool,
    /// Check for explicit leaks (ablation switch).
    pub check_explicit: bool,
    /// Check for implicit leaks via the `hm` cross-path comparison
    /// (ablation switch; off reproduces what a path-sensitive engine
    /// *without* Alg. 1's hashmap would find).
    pub check_implicit: bool,
    /// Extra sink functions (beyond the EDL's OCALLs).
    pub sinks: Vec<String>,
    /// Extra decrypt-style source functions (beyond the IPP defaults).
    pub decrypt_functions: Vec<String>,
    /// Detect timing channels (the §VIII-A extension): simulate per-path
    /// execution cost as interpreted-statement counts and flag branches
    /// over a single secret whose sides cost differently. Off by default —
    /// it is future work in the paper.
    pub check_timing: bool,
    /// Which information-flow property to enforce. The default is the
    /// paper's nonreversibility; classical noninterference is available to
    /// make the paper's §IV contrast executable (ML code always fails it).
    pub property: Property,
    /// Worker threads for path exploration (see [`EngineConfig::workers`]):
    /// `0` = available parallelism, `1` = sequential. Results are
    /// byte-identical at every setting.
    pub workers: usize,
    /// Which feasibility tiers run at each fork (see
    /// [`EngineConfig::feasibility`]). The default is the one pipeline the
    /// CLI runs; [`symexec::FeasibilityMode::Syntactic`] is its tier-0
    /// reference. Findings are identical across modes.
    pub feasibility: symexec::FeasibilityMode,
    /// Wall-clock deadline in milliseconds (see [`EngineConfig::deadline`]):
    /// exploration stops deterministically at the first wave boundary after
    /// the deadline, recording the dropped paths in the ledger.
    pub deadline_ms: Option<u64>,
    /// Cooperative cancellation handle shared with the engine.
    pub cancel: CancelToken,
    /// Cooperative suspension handle shared with the engine (see
    /// [`EngineConfig::yield_hook`]): requesting a yield parks the
    /// exploration at the next wave boundary into the checkpoint, from
    /// which a later run resumes byte-identically. The analysis service
    /// uses this for job migration under load.
    pub yield_hook: YieldToken,
    /// Test hook: panic when this function is called (exercises the
    /// engine's panic isolation end to end).
    pub inject_panic_on_call: Option<String>,
    /// Write a crash-safe, resumable snapshot to this path whenever the
    /// exploration is cut by a deadline or cancellation (see
    /// [`EngineConfig::checkpoint`]).
    pub checkpoint: Option<PathBuf>,
    /// Additionally snapshot every N wave boundaries (0 = only at a cut).
    /// Requires [`AnalyzerOptions::checkpoint`].
    pub checkpoint_every: usize,
    /// Resume exploration from a snapshot previously written via
    /// `checkpoint`. The snapshot must match the current source, EDL
    /// bindings and analysis options byte-for-byte — a mismatch is a typed
    /// [`Error::Checkpoint`], never a silently different result.
    pub resume: Option<PathBuf>,
    /// Observation channel for per-phase spans, engine instrumentation,
    /// metrics, and logs (CLI: `--trace-out`, `--metrics-out`,
    /// `--log-level`, `--timings`). Disabled by default; never changes any
    /// analysis result — reports and checkpoints are byte-identical with
    /// telemetry on or off.
    pub telemetry: Telemetry,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            loop_bound: 4,
            max_paths: 4096,
            inline_depth: 8,
            record_trace: false,
            check_explicit: true,
            check_implicit: true,
            sinks: Vec::new(),
            decrypt_functions: Vec::new(),
            check_timing: false,
            property: Property::default(),
            workers: 0,
            feasibility: symexec::FeasibilityMode::default(),
            deadline_ms: None,
            cancel: CancelToken::new(),
            yield_hook: YieldToken::new(),
            inject_panic_on_call: None,
            checkpoint: None,
            checkpoint_every: 0,
            resume: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The configured analyzer for one enclave (source + EDL + options).
#[derive(Debug)]
pub struct Analyzer {
    unit: TranslationUnit,
    source: String,
    edl: EdlFile,
    config: AnalysisConfig,
    options: AnalyzerOptions,
}

impl Analyzer {
    /// Builds an analyzer from enclave source and EDL text.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if either input fails to parse.
    pub fn from_sources(
        source: &str,
        edl_text: &str,
        options: AnalyzerOptions,
    ) -> Result<Analyzer, Error> {
        // Frontend phases are staged explicitly (instead of one
        // `minic::parse` call) so each gets its own telemetry phase span;
        // the composition is identical to `minic::parse`.
        let telemetry = options.telemetry.clone();
        let mut unit = {
            let _span = telemetry.phase("parse", None);
            let tokens = minic::lexer::lex(source)?;
            minic::parser::parse_tokens(source, tokens)?
        };
        {
            let _span = telemetry.phase("sema", None);
            minic::sema::check(&mut unit)?;
        }
        let edl_file = {
            let _span = telemetry.phase("edl_ingest", None);
            edl::parse_edl(edl_text)?
        };
        Ok(Analyzer {
            unit,
            source: source.to_string(),
            edl: edl_file,
            config: AnalysisConfig::default(),
            options,
        })
    }

    /// Builds an analyzer that additionally honours an XML configuration
    /// file (§V-C): targets, secret/public overrides, sinks, decrypt list.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] if any of the three inputs fails to parse.
    pub fn with_config(
        source: &str,
        edl_text: &str,
        config_xml: &str,
        mut options: AnalyzerOptions,
    ) -> Result<Analyzer, Error> {
        let config = AnalysisConfig::from_xml(config_xml)?;
        options.loop_bound = config.option_usize("loop-bound", options.loop_bound);
        options.max_paths = config.option_usize("max-paths", options.max_paths);
        options.inline_depth = config.option_usize("inline-depth", options.inline_depth);
        let mut analyzer = Analyzer::from_sources(source, edl_text, options)?;
        analyzer.config = config;
        Ok(analyzer)
    }

    /// The parsed enclave unit.
    pub fn unit(&self) -> &TranslationUnit {
        &self.unit
    }

    /// The target functions: the XML config's `<target>` list, or every
    /// public ECALL.
    pub fn targets(&self) -> Vec<String> {
        if !self.config.targets.is_empty() {
            return self.config.targets.clone();
        }
        self.edl
            .trusted
            .iter()
            .filter(|p| p.public)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Analyzes every target, in order.
    ///
    /// # Errors
    ///
    /// Returns the first per-function error.
    pub fn analyze_all(&self) -> Result<Vec<Report>, Error> {
        self.targets()
            .iter()
            .map(|name| self.analyze(name))
            .collect()
    }

    /// Analyzes one ECALL and reports all nonreversibility violations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTarget`] if `function` is not a declared
    /// ECALL with a definition, or an engine error for invalid setups.
    pub fn analyze(&self, function: &str) -> Result<Report, Error> {
        let started = Instant::now();
        let telemetry = self.options.telemetry.clone();
        let mut analyze_span = telemetry.span("analyze", None);
        analyze_span.field("function", function);
        let analyze_id = analyze_span.id();
        let proto = self
            .edl
            .ecall(function)
            .ok_or_else(|| Error::UnknownTarget(function.to_string()))?;
        let bindings = param_bindings(proto, &self.config);

        // The engine's wave spans nest under this phase span; the span
        // also feeds the `--timings` table as the "explore" row.
        let explore_span = telemetry.phase("explore", analyze_id);
        let engine_config = EngineConfig {
            telemetry: telemetry.clone(),
            telemetry_parent: explore_span.id(),
            ..self.engine_config(false)
        };
        let engine = Engine::new(&self.unit, engine_config).with_source(self.source.clone());
        let exploration = match &self.options.resume {
            Some(path) => {
                let snapshot = symexec::Snapshot::load(path)?;
                engine.resume(function, &bindings, snapshot)?
            }
            None => engine.run(function, &bindings)?,
        };
        explore_span.finish();
        telemetry.info(|| {
            format!(
                "explored `{function}`: {} paths, {} forks, {} events",
                exploration.paths.len(),
                exploration.stats.forks,
                exploration.events.len()
            )
        });
        let policy_span = telemetry.phase("policy", analyze_id);

        // Secrets are keyed by name, then id: the report order is readable
        // and does not depend on the ids' digest values.
        let secret = |id: SourceId| -> Secret {
            let name = exploration.secret_sources.get(&id);
            (name.cloned().unwrap_or_else(|| id.to_string()), id)
        };

        // (channel, secret) → explicit finding
        let mut explicit: BTreeMap<(String, Secret), Finding> = BTreeMap::new();
        // (secret, channel) → value → example path condition
        let mut implicit_obs: BTreeMap<(Secret, String), BTreeMap<String, String>> =
            BTreeMap::new();

        // Algorithm 1 runs at declassification time: the engine's global
        // event log now carries every sink *and* return observation —
        // including ones from paths later dropped by a budget — so it is
        // the single source of truth here (per-path copies would only
        // duplicate it).
        for event in exploration.events.iter() {
            let channel = match &event.channel {
                Channel::Return => "return value".to_string(),
                Channel::SinkCall { func, arg } => {
                    format!("argument {arg} of `{func}`")
                }
                Channel::OutParam { region } => region_hint(region),
            };
            let line = Some(event.span.line_col(&self.source).line);
            self.check_observation(
                &channel,
                &event.value,
                &event.taint,
                &event.pi_taint,
                &|| event.pi.clone(),
                line,
                &secret,
                &mut explicit,
                &mut implicit_obs,
            );
        }

        for path in &exploration.paths {
            // π is rendered only when an observation is new.
            let final_pi = || path.state.path.to_string();
            // `[out]` buffer contents at function exit. Only *program
            // writes* count: a lazily-materialized read of never-written
            // `[out]` memory is not an observable emission.
            let written: std::collections::BTreeSet<&symexec::Region> = path
                .state
                .write_log
                .iter()
                .filter(|region| {
                    exploration
                        .out_bases
                        .iter()
                        .any(|(_, base)| region.is_within(base))
                })
                .collect();
            for (_, base) in &exploration.out_bases {
                for (region, value, taint) in path.state.store.regions_within(base) {
                    if !written.contains(region) {
                        continue;
                    }
                    let channel = region_hint(region);
                    self.check_observation(
                        &channel,
                        value,
                        taint,
                        &path.state.pi_taint,
                        &final_pi,
                        None,
                        &secret,
                        &mut explicit,
                        &mut implicit_obs,
                    );
                }
            }
        }

        // Timing extension (§VIII-A): per-path simulated cost, compared
        // across paths whose π depends on a single secret.
        let mut timing_obs: BTreeMap<Secret, BTreeMap<usize, String>> = BTreeMap::new();
        if self.options.check_timing {
            for path in &exploration.paths {
                for source in path.state.pi_taint.solo_sources() {
                    timing_obs
                        .entry(secret(source))
                        .or_default()
                        .entry(path.state.steps)
                        .or_insert_with(|| path.state.path.to_string());
                }
            }
        }

        let mut findings: Vec<Finding> = explicit.into_values().collect();
        for (((name, _), channel), observations) in implicit_obs {
            if observations.len() < 2 {
                continue;
            }
            findings.push(Finding {
                kind: FindingKind::Implicit,
                channel,
                secret: name,
                value: None,
                recovery: None,
                observations: observations
                    .into_iter()
                    .map(|(value, path_condition)| PathObservation {
                        path_condition,
                        value,
                    })
                    .collect(),
                line: None,
            });
        }

        for ((name, _), costs) in timing_obs {
            if costs.len() < 2 {
                continue;
            }
            findings.push(Finding {
                kind: FindingKind::Timing,
                channel: "execution time".into(),
                secret: name,
                value: None,
                recovery: None,
                observations: costs
                    .into_iter()
                    .map(|(steps, path_condition)| PathObservation {
                        path_condition,
                        value: format!("{steps} simulated steps"),
                    })
                    .collect(),
                line: None,
            });
        }
        policy_span.finish();

        let report_span = telemetry.phase("report", analyze_id);
        let report = Report {
            function: function.to_string(),
            findings,
            degradations: exploration.ledger.entries().to_vec(),
            checkpoint: exploration
                .checkpoint
                .as_ref()
                .map(|path| path.display().to_string()),
            stats: AnalysisStats {
                paths: exploration.paths.len(),
                forks: exploration.stats.forks,
                infeasible: exploration.stats.infeasible,
                cache_hits: exploration.stats.cache_hits,
                cache_misses: exploration.stats.cache_misses,
                tier1_refuted: exploration.stats.tier1_refuted,
                tier2_refuted: exploration.stats.tier2_refuted,
                tier2_unknown: exploration.stats.tier2_unknown,
                exhausted: exploration.exhausted,
                time: started.elapsed(),
                loc: minic::count_loc(&self.source),
            },
            profile: symexec::profile::SourceProfile::resolve(
                &exploration.profile,
                &self.unit,
                &self.source,
            ),
        };
        report_span.finish();
        telemetry.counter(telemetry::names::ANALYZER_TARGETS, 1);
        telemetry.counter(
            telemetry::names::ANALYZER_FINDINGS,
            report.findings.len() as u64,
        );
        analyze_span.field("findings", report.findings.len());
        analyze_span.field("paths", report.stats.paths);
        Ok(report)
    }

    /// Runs the engine with tracing enabled and renders the Table IV-style
    /// state table for `function`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Analyzer::analyze`].
    pub fn trace_table(&self, function: &str) -> Result<String, Error> {
        let proto = self
            .edl
            .ecall(function)
            .ok_or_else(|| Error::UnknownTarget(function.to_string()))?;
        let bindings = param_bindings(proto, &self.config);
        let engine =
            Engine::new(&self.unit, self.engine_config(true)).with_source(self.source.clone());
        let exploration = engine.run(function, &bindings)?;
        Ok(symexec::trace::render_table(&exploration.traces()))
    }

    /// The engine configuration of an analysis, or with `trace` of its
    /// trace table: the same exploration, with every state recorded and
    /// no checkpoint written.
    fn engine_config(&self, trace: bool) -> EngineConfig {
        let sinks = self
            .edl
            .ocall_names()
            .into_iter()
            .chain(self.config.sinks.iter().cloned())
            .chain(self.options.sinks.iter().cloned());
        let sources = DEFAULT_DECRYPT_FUNCTIONS
            .iter()
            .map(|s| s.to_string())
            .chain(self.config.decrypt_functions.iter().cloned())
            .chain(self.options.decrypt_functions.iter().cloned());
        EngineConfig {
            loop_bound: self.options.loop_bound,
            max_paths: self.options.max_paths,
            inline_depth: self.options.inline_depth,
            sink_functions: sinks.collect(),
            source_functions: sources.collect(),
            record_trace: trace || self.options.record_trace,
            workers: self.options.workers,
            merge_returns: self.merges_returns(),
            feasibility: self.options.feasibility,
            deadline: self.options.deadline_ms.map(Duration::from_millis),
            cancel: self.options.cancel.clone(),
            yield_hook: self.options.yield_hook.clone(),
            inject_panic_on_call: self.options.inject_panic_on_call.clone(),
            checkpoint: self.options.checkpoint.clone().filter(|_| !trace),
            checkpoint_every: self.options.checkpoint_every,
            ..EngineConfig::default()
        }
    }

    /// Whether the engine may merge paths at side-effect-free call
    /// returns: only nonreversibility, which flags single-source
    /// observations, keeps every finding over a merged path.
    fn merges_returns(&self) -> bool {
        self.options.property == Property::Nonreversibility
    }

    #[allow(clippy::too_many_arguments)]
    fn check_observation(
        &self,
        channel: &str,
        value: &symexec::SVal,
        taint: &taint::TaintSet,
        pi_taint: &taint::TaintSet,
        pi_render: &dyn Fn() -> String,
        line: Option<usize>,
        secret: &dyn Fn(SourceId) -> Secret,
        explicit: &mut BTreeMap<(String, Secret), Finding>,
        implicit_obs: &mut BTreeMap<(Secret, String), BTreeMap<String, String>>,
    ) {
        // Algorithm 1: explicit check first; only when it passes, consult
        // the path constraint. Which taints count as violations depends on
        // the enforced property: nonreversibility flags only single-source
        // values (for a value merged from several paths, every source some
        // arm reveals on its own), noninterference flags any tainted value.
        let explicit_sources: Vec<SourceId> = match self.options.property {
            Property::Nonreversibility => taint.solo_sources().collect(),
            Property::Noninterference => taint.sources().collect(),
        };
        if !explicit_sources.is_empty() {
            if self.options.check_explicit {
                for source in explicit_sources {
                    let secret = secret(source);
                    let name = secret.0.clone();
                    explicit
                        .entry((channel.to_string(), secret))
                        .or_insert_with(|| Finding {
                            kind: FindingKind::Explicit,
                            channel: channel.to_string(),
                            secret: name,
                            value: Some(value.to_string()),
                            // A source's id is the id of its symbol.
                            recovery: recovery_formula(value, source.index()),
                            observations: Vec::new(),
                            line,
                        });
                }
            }
            return;
        }
        if !self.options.check_implicit {
            return;
        }
        let pi_sources: Vec<SourceId> = match self.options.property {
            Property::Nonreversibility => pi_taint.solo_sources().collect(),
            Property::Noninterference => pi_taint.sources().collect(),
        };
        for source in pi_sources {
            implicit_obs
                .entry((secret(source), channel.to_string()))
                .or_default()
                .entry(value.to_string())
                .or_insert_with(pi_render);
        }
    }
}

/// Derives an ECALL's parameter bindings from its EDL attributes and the
/// XML overrides in `config` — the paper's default: `[in]` buffers are
/// secrets, `[out]` buffers are leak points.
pub fn param_bindings(proto: &Prototype, config: &AnalysisConfig) -> Vec<ParamBinding> {
    let secret_override: BTreeSet<&str> = config.secret_params.iter().map(String::as_str).collect();
    let public_override: BTreeSet<&str> = config.public_params.iter().map(String::as_str).collect();
    proto
        .params
        .iter()
        .map(|param| {
            let name = param.name.as_str();
            let forced_secret = secret_override.contains(name);
            let forced_public = public_override.contains(name);
            if param.is_pointer() {
                let is_in = (param.attributes.is_in() || forced_secret) && !forced_public;
                let is_out = param.attributes.is_out();
                match (is_in, is_out) {
                    (true, true) => ParamBinding::InOutPointer,
                    (true, false) => ParamBinding::SecretPointer,
                    (false, true) => ParamBinding::OutPointer,
                    (false, false) => ParamBinding::Pointer,
                }
            } else if forced_secret {
                ParamBinding::SecretScalar
            } else {
                ParamBinding::Scalar
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING1: &str = r#"
int enclave_process_data(char *secrets, char *output) {
    int temporary = secrets[0] + 100;
    output[0] = temporary + 1;
    if (secrets[1] == 0)
        return 0;
    else
        return 1;
}
"#;

    const LISTING1_EDL: &str = r#"
enclave {
    trusted {
        public int enclave_process_data([in] char *secrets, [out] char *output);
    };
};
"#;

    fn analyze(source: &str, edl_text: &str, function: &str) -> Report {
        Analyzer::from_sources(source, edl_text, AnalyzerOptions::default())
            .expect("builds")
            .analyze(function)
            .expect("analyzes")
    }

    #[test]
    fn listing1_explicit_and_implicit() {
        let report = analyze(LISTING1, LISTING1_EDL, "enclave_process_data");
        assert_eq!(report.explicit_findings().count(), 1);
        assert_eq!(report.implicit_findings().count(), 1);

        let explicit = report.explicit_findings().next().unwrap();
        assert_eq!(explicit.channel, "output[0]");
        assert_eq!(explicit.secret, "secrets[0]");
        assert!(explicit.value.as_deref().unwrap().contains("secrets[0]"));

        let implicit = report.implicit_findings().next().unwrap();
        assert_eq!(implicit.channel, "return value");
        assert_eq!(implicit.secret, "secrets[1]");
        assert_eq!(implicit.observations.len(), 2);
    }

    #[test]
    fn mixed_output_is_secure() {
        let source = r#"
int mix(char *secrets, char *output) {
    output[0] = secrets[0] + secrets[1];
    return 0;
}
"#;
        let edl_text = r#"
enclave { trusted { public int mix([in] char *secrets, [out] char *output); }; };
"#;
        let report = analyze(source, edl_text, "mix");
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn same_value_on_both_branches_is_secure() {
        let source = r#"
int f(char *secrets) {
    if (secrets[0] > 10) return 7;
    return 7;
}
"#;
        let edl_text = "enclave { trusted { public int f([in] char *secrets); }; };";
        let report = analyze(source, edl_text, "f");
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn sink_calls_are_checked() {
        let source = r#"
void ocall_send(int v);
void helper(char *secrets) {
    ocall_send(secrets[0] * 2);
}
"#;
        let edl_text = r#"
enclave {
    trusted { public void helper([in] char *secrets); };
    untrusted { void ocall_send(int v); };
};
"#;
        let report = analyze(source, edl_text, "helper");
        let finding = report.explicit_findings().next().expect("finds the leak");
        assert!(finding.channel.contains("ocall_send"));
        assert_eq!(finding.secret, "secrets[0]");
    }

    #[test]
    fn decrypt_output_is_secret() {
        let source = r#"
int process(char *blob, char *plain) {
    int k = ipp_aes_decrypt(plain, blob, 4);
    return k + 1;
}
"#;
        let edl_text = r#"
enclave { trusted { public int process([in] char *blob, [out] char *plain); }; };
"#;
        let report = analyze(source, edl_text, "process");
        // the decrypt status value is single-source → returning it leaks,
        assert!(
            report
                .explicit_findings()
                .any(|f| f.channel == "return value"),
            "{report}"
        );
        // and decrypting straight into an [out] buffer emits the plaintext
        // to the host — one finding per written element.
        assert_eq!(
            report
                .explicit_findings()
                .filter(|f| f.channel.starts_with("plain["))
                .count(),
            4,
            "{report}"
        );
    }

    #[test]
    fn ablation_disables_implicit() {
        let options = AnalyzerOptions {
            check_implicit: false,
            ..AnalyzerOptions::default()
        };
        let analyzer = Analyzer::from_sources(LISTING1, LISTING1_EDL, options).unwrap();
        let report = analyzer.analyze("enclave_process_data").unwrap();
        assert_eq!(report.explicit_findings().count(), 1);
        assert_eq!(report.implicit_findings().count(), 0);
    }

    #[test]
    fn xml_config_overrides() {
        let xml = r#"
<privacyscope>
  <target function="enclave_process_data"/>
  <public param="secrets"/>
  <option name="loop-bound" value="2"/>
</privacyscope>
"#;
        let analyzer =
            Analyzer::with_config(LISTING1, LISTING1_EDL, xml, AnalyzerOptions::default()).unwrap();
        assert_eq!(analyzer.targets(), vec!["enclave_process_data"]);
        // `secrets` forced public: nothing is secret, so nothing can leak.
        let report = analyzer.analyze("enclave_process_data").unwrap();
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn unknown_target_errors() {
        let analyzer =
            Analyzer::from_sources(LISTING1, LISTING1_EDL, AnalyzerOptions::default()).unwrap();
        assert!(matches!(
            analyzer.analyze("nope"),
            Err(Error::UnknownTarget(_))
        ));
    }

    #[test]
    fn analyze_all_covers_public_ecalls() {
        let source = "int a(char *s) { return s[0]; }\nint b(char *s) { return 0; }";
        let edl_text = r#"
enclave { trusted {
    public int a([in] char *s);
    public int b([in] char *s);
}; };
"#;
        let analyzer =
            Analyzer::from_sources(source, edl_text, AnalyzerOptions::default()).unwrap();
        let reports = analyzer.analyze_all().unwrap();
        assert_eq!(reports.len(), 2);
        assert!(!reports[0].is_secure());
        assert!(reports[1].is_secure());
    }

    #[test]
    fn trace_table_renders_listing1() {
        let analyzer =
            Analyzer::from_sources(LISTING1, LISTING1_EDL, AnalyzerOptions::default()).unwrap();
        let table = analyzer.trace_table("enclave_process_data").unwrap();
        assert!(table.contains("secrets[0]"), "{table}");
        assert!(table.contains("SymRegion"), "{table}");
    }

    #[test]
    fn trace_table_explores_what_the_report_analyzes() {
        // The trace runs with the report's sinks and decrypt sources, so
        // the decrypt's row binds the plaintext it writes.
        let source = r#"
void ipp_aes_decrypt(long *dst, long *src, long n);
void f(long *secret, long *out) {
    long buf[2];
    ipp_aes_decrypt(buf, secret, 2);
    out[0] = buf[0] + buf[1];
}
"#;
        let edl_text = r#"
enclave { trusted { public void f([in] long *secret, [out] long *out); }; };
"#;
        let analyzer =
            Analyzer::from_sources(source, edl_text, AnalyzerOptions::default()).unwrap();
        let table = analyzer.trace_table("f").unwrap();
        let row = table
            .lines()
            .find(|line| line.contains("| ipp_aes_decrypt(buf, secret, 2); |"))
            .expect("a row for the decrypt");
        assert!(row.contains("buf[0] ↦ $buf[0]"), "{row}");
        assert!(row.contains("buf[1] ↦ $buf[1]"), "{row}");
    }

    #[test]
    fn loop_accumulator_that_mixes_is_secure() {
        // The ML pattern: a model aggregates many secret points — ⊤, safe.
        let source = r#"
double train(double *data, int n, double *model) {
    double acc = 0.0;
    for (int i = 0; i < 8; i++) {
        acc = acc + data[i];
    }
    model[0] = acc / 8.0;
    return model[0];
}
"#;
        let edl_text = r#"
enclave { trusted { public double train([in] double *data, int n, [out] double *model); }; };
"#;
        let report = analyze(source, edl_text, "train");
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn single_element_copy_in_loop_is_flagged() {
        let source = r#"
void copy(double *data, double *out) {
    for (int i = 0; i < 4; i++) {
        out[i] = data[i];
    }
}
"#;
        let edl_text = r#"
enclave { trusted { public void copy([in] double *data, [out] double *out); }; };
"#;
        let report = analyze(source, edl_text, "copy");
        // every out[i] is a single-source leak
        assert_eq!(report.explicit_findings().count(), 4, "{report}");
    }
}
