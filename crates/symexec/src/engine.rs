//! The symbolic exploration engine.
//!
//! [`Engine::run`] abstractly interprets one entry function of a Mini-C
//! unit, forking at branches and returning every feasible completed path.
//! Taint is introduced at secret parameters (per the entry's
//! [`ParamBinding`]s) and at configured *source functions* (the paper's
//! predefined decrypt list), propagated per the `taint` crate's policy, and
//! joined into the path-condition taint at every fork (the `P_cond` rule).
//!
//! Exploration is organized as a deterministic *worklist*: the entry body
//! is executed one top-level statement per wave, with every live path state
//! handed to an independent task that may run on a worker thread
//! ([`EngineConfig::workers`]). Symbol and source ids are digests of what
//! they denote, never of which task made them, so appending the tasks'
//! results in canonical order makes the resulting [`Exploration`]
//! byte-identical to a sequential run — see the `worklist` module.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use minic::ast::{
    BinOp, Expr, ExprId, ExprKind, Function, Init, Stmt, StmtKind, TranslationUnit, UnOp, Var,
    VarDecl,
};
use minic::types::Type;
use minic::Span;
use serde::{Deserialize, Serialize};
use taint::{SourceId, TaintSet};
use telemetry::{FieldValue, PendingSpan, Telemetry};

use crate::checkpoint::{self, Frontier, Snapshot};
use crate::constraints::{Feasibility, FeasibilityCache, FeasibilityMode, ProbeOutcome};
use crate::degrade::{CancelToken, Degradation, Ledger, StopKind, Supervisor, YieldToken};
use crate::error::EngineError;
use crate::intern::HC;
use crate::outcomes::Outcomes;
use crate::profile::{Counter, Profile, SiteCounters};
use crate::simplify::{fold_binary, fold_ite, fold_unary, simplify};
use crate::state::{Channel, DeclassifyEvent, ExecState};
use crate::trace::TraceStep;
use crate::value::{Region, SVal, Symbol, SymbolKey};
use crate::worklist::{release_worker_arenas, run_tasks};

/// How an entry-function parameter is bound at the start of exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamBinding {
    /// An unconstrained, non-secret scalar (a *low* input).
    Scalar,
    /// A secret scalar: its value is a secret source (a *high* input).
    SecretScalar,
    /// A pointer to an unknown, non-secret block.
    Pointer,
    /// A pointer to secret data (an `[in]` ECALL buffer): each element is
    /// its own taint source, matching `get_secret` per element.
    SecretPointer,
    /// A pointer to an observable output buffer (an `[out]` ECALL buffer).
    OutPointer,
    /// Both secret input and observable output (`[in, out]`).
    InOutPointer,
    /// A concrete integer value.
    Concrete(i64),
}

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum *symbolic* loop unrollings (iterations whose guard truly
    /// forked) before havoc-widening forces an exit.
    pub loop_bound: usize,
    /// Maximum *concrete* loop iterations (guard decided without forking)
    /// before widening — a termination backstop, not a precision knob.
    pub concrete_loop_limit: usize,
    /// Maximum number of completed paths to collect.
    pub max_paths: usize,
    /// Maximum interpreted statements per path.
    pub max_steps_per_path: usize,
    /// Maximum call-inlining depth; deeper calls become uninterpreted.
    pub inline_depth: usize,
    /// Functions whose arguments are observable sinks (e.g. OCALLs).
    pub sink_functions: BTreeSet<String>,
    /// Decrypt-style functions: their result (and first pointed-to buffer)
    /// becomes fresh secret data — the paper's predefined IPP decrypt list.
    pub source_functions: BTreeSet<String>,
    /// Capture per-statement state snapshots (Table IV traces).
    pub record_trace: bool,
    /// Maximum node count of a stored symbolic value; larger values are
    /// *summarized* into a fresh symbol that keeps the original taint.
    /// Bounds expression growth in iterative numeric code (e.g. gradient
    /// descent) at the cost of value precision — taint precision is
    /// unaffected, which is what the nonreversibility policy needs.
    pub max_value_size: usize,
    /// Worker threads for the worklist exploration: `0` selects the
    /// machine's available parallelism, `1` forces a fully sequential run
    /// (the legacy behaviour). The exploration result is byte-identical at
    /// every setting — parallelism only changes wall-clock time.
    pub workers: usize,
    /// Capacity (in memoized probes) of the feasibility cache shared across
    /// workers; `0` disables memoization. Caching never changes results:
    /// only *speculative* probes go through it, and feasibility is a pure
    /// function of the probed constraints.
    pub feasibility_cache: usize,
    /// Merge the arms of a side-effect-free inlined call, or of a
    /// conditional expression (`?:`, `&&`, `||`), into one state whose
    /// value is an `ite` over the arms (see DESIGN.md "Call-return
    /// merging"). Merging keeps every finding of a nonreversibility check,
    /// which flags single-source observations only; the analyzer derives
    /// this from its property and turns it off under noninterference. Part
    /// of the checkpoint fingerprint.
    pub merge_returns: bool,
    /// Which feasibility tiers run at each fork probe. The default runs
    /// the whole pipeline; [`FeasibilityMode::Syntactic`] is the tier-0
    /// reference tests compare it against. Every tier is sound for
    /// refutation and deterministic, so findings are identical across
    /// modes and worker counts. Part of the checkpoint fingerprint.
    pub feasibility: FeasibilityMode,
    /// Wall-clock deadline for the whole exploration. When it expires, the
    /// run stops at the first wave boundary after the deadline: every
    /// in-flight path is discarded and recorded in the degradation ledger
    /// ([`Degradation::DeadlineExceeded`]). Only *which wave* is the cut
    /// depends on timing — the result is a pure function of the cut wave,
    /// so a deadline-degraded run is still byte-identical at every worker
    /// count for the same cutoff.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: keep a clone of this token and call
    /// [`CancelToken::cancel`] to stop the run at the next wave boundary
    /// (recorded as [`Degradation::Cancelled`]).
    pub cancel: CancelToken,
    /// Cooperative suspension: keep a clone of this token and call
    /// [`YieldToken::request`] to park the run at the next wave boundary.
    /// The frontier is snapshotted to [`EngineConfig::checkpoint`] and the
    /// cut is recorded as [`Degradation::Suspended`]; resuming the snapshot
    /// later reconstructs the byte-identical uninterrupted result (job
    /// migration). Like the cancel token this is control plumbing, not
    /// configuration: all handles compare equal and the checkpoint
    /// fingerprint ignores it.
    pub yield_hook: YieldToken,
    /// Test/fault-injection hook: panic on entry to calls of this function,
    /// exercising the per-task panic isolation. `None` in production.
    pub inject_panic_on_call: Option<String>,
    /// Write a resumable [`Snapshot`] to this path when the supervisor
    /// stops the run (deadline/cancel), and — see
    /// [`EngineConfig::checkpoint_every`] — periodically at wave
    /// boundaries. `None` disables checkpointing entirely. A failed write
    /// never aborts the exploration; it lands in the ledger as
    /// [`Degradation::CheckpointFailed`].
    pub checkpoint: Option<PathBuf>,
    /// Additionally write a snapshot at the start of every `N`th wave
    /// (crash insurance against process death, not just clean supervisor
    /// stops). `0` = only on a supervisor stop. Ignored unless
    /// [`EngineConfig::checkpoint`] is set.
    pub checkpoint_every: usize,
    /// Observation channel for spans, events, metrics, and logs. Like the
    /// cancellation token, the handle is control plumbing rather than
    /// configuration: all handles compare equal, the checkpoint fingerprint
    /// ignores it, and instrumentation never feeds wall-clock data back
    /// into the exploration result. The disabled default costs one `None`
    /// check at wave granularity and nothing in the per-step hot loop.
    pub telemetry: Telemetry,
    /// Span id the engine's wave spans are parented under (the analyzer
    /// passes its `explore` phase span). Purely observational.
    pub telemetry_parent: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            loop_bound: 4,
            concrete_loop_limit: 4096,
            max_paths: 4096,
            max_steps_per_path: 200_000,
            inline_depth: 8,
            sink_functions: BTreeSet::new(),
            source_functions: BTreeSet::new(),
            record_trace: false,
            max_value_size: 64,
            workers: 0,
            feasibility_cache: 1 << 16,
            merge_returns: true,
            feasibility: FeasibilityMode::default(),
            deadline: None,
            cancel: CancelToken::new(),
            yield_hook: YieldToken::new(),
            inject_panic_on_call: None,
            checkpoint: None,
            checkpoint_every: 0,
            telemetry: Telemetry::disabled(),
            telemetry_parent: None,
        }
    }
}

impl EngineConfig {
    /// The worker-thread count a run will actually use: `0` resolves to
    /// the machine's available parallelism, and explicit requests are
    /// clamped to it — asking for 512 workers on an 8-core box spawns 8.
    pub fn effective_workers(&self) -> usize {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if self.workers == 0 {
            available
        } else {
            self.workers.min(available)
        }
    }
}

/// One completed path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOutcome {
    /// The final state (store, π, taints, events, trace).
    pub state: ExecState,
    /// The entry function's return value on this path, with its taint.
    pub return_value: Option<(SVal, TaintSet)>,
}

/// Exploration statistics.
///
/// The path-level fields (`completed`, `dropped_*`) are counted as paths
/// finish or drop. The exploration counters (`forks`, `steps`, the probe
/// and tier counters, …) are never incremented here: they are the totals
/// of the run's [`Profile`], filled in by [`Stats::with_totals`] when the
/// counters leave the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stats {
    /// State forks performed.
    pub forks: usize,
    /// Branches pruned as infeasible.
    pub infeasible: usize,
    /// Completed paths collected.
    pub completed: usize,
    /// Loop widenings applied.
    pub widenings: usize,
    /// Paths dropped for exceeding the per-path step budget.
    pub dropped_steps: usize,
    /// Paths dropped for exceeding the path budget.
    pub dropped_paths: usize,
    /// In-flight path states discarded at a deadline/cancellation cut.
    pub dropped_deadline: usize,
    /// Path tasks whose panic was isolated (their states discarded).
    pub dropped_panics: usize,
    /// Total statements interpreted.
    pub steps: usize,
    /// Feasibility probes answered by the memoized probe set: probes whose
    /// key a prior probe (in canonical merge order) already computed. This
    /// is the redundancy a sequential run would observe — it is accounted
    /// deterministically at wave boundaries and is therefore invariant
    /// under worker count *and* under the real cache's capacity (which is
    /// a scheduling-dependent performance detail; see `Explorer::probe`).
    #[serde(default)]
    pub cache_hits: usize,
    /// Feasibility probes with a first-seen key (the complement of
    /// [`Stats::cache_hits`]).
    #[serde(default)]
    pub cache_misses: usize,
    /// Branch sides refuted by Tier 1 (interval/congruence domain) after
    /// the syntactic tier passed. Always 0 in syntactic mode. Counted
    /// per probe *event* — the tier outcome is a pure function of the
    /// probe key, so the count is worker-count invariant.
    #[serde(default)]
    pub tier1_refuted: usize,
    /// Branch sides refuted by Tier 2 (the SAT-lite solver) after tiers
    /// 0–1 passed. Always 0 in syntactic mode.
    #[serde(default)]
    pub tier2_refuted: usize,
    /// Tier-2 invocations that exhausted their deterministic budget (the
    /// probe then counts as feasible).
    #[serde(default)]
    pub tier2_unknown: usize,
}

impl Stats {
    /// Adds another set's path-level counters into this one (worklist
    /// merge). The exploration counters are merged with the profile.
    pub fn absorb(&mut self, other: &Stats) {
        self.completed += other.completed;
        self.dropped_steps += other.dropped_steps;
        self.dropped_paths += other.dropped_paths;
        self.dropped_deadline += other.dropped_deadline;
        self.dropped_panics += other.dropped_panics;
    }

    /// These path-level counters, with the exploration counters taken from
    /// the profile `totals`.
    pub fn with_totals(self, totals: &SiteCounters) -> Stats {
        Stats {
            forks: totals.forks as usize,
            infeasible: totals.infeasible as usize,
            widenings: totals.widenings as usize,
            steps: totals.steps as usize,
            cache_hits: totals.cache_hits as usize,
            cache_misses: totals.cache_misses as usize,
            tier1_refuted: totals.tier1_refuted as usize,
            tier2_refuted: totals.tier2_refuted as usize,
            tier2_unknown: totals.tier2_unknown as usize,
            ..self
        }
    }
}

/// The result of exploring one entry function.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Entry function name.
    pub entry: String,
    /// Every feasible completed path.
    pub paths: Vec<PathOutcome>,
    /// Whether any budget was exhausted (results are then a subset).
    pub exhausted: bool,
    /// Every degradation the run absorbed, typed and coalesced; empty for
    /// a clean, complete exploration. See [`Ledger::is_complete`] for the
    /// soundness reading.
    pub ledger: Ledger,
    /// Counters.
    pub stats: Stats,
    /// `[out]`-marked base regions, with the parameter name each came from.
    pub out_bases: Vec<(String, Region)>,
    /// Every sink-call declassification event observed during exploration,
    /// including ones on paths later dropped by budgets (Alg. 1 checks at
    /// declassify time).
    pub events: Vec<DeclassifyEvent>,
    /// Human-readable description of every secret source found. A
    /// source's id is the id of the symbol holding the secret (used for
    /// recovery-formula synthesis).
    pub secret_sources: BTreeMap<SourceId, String>,
    /// Path of the last resumable snapshot written during this run (on a
    /// supervisor stop or a periodic boundary), `None` when checkpointing
    /// was disabled or nothing was written. Operators can feed it back via
    /// [`Engine::resume`].
    pub checkpoint: Option<PathBuf>,
    /// Per-source-site exploration profile: where the steps/forks/prunes
    /// were spent. Collected unconditionally (it is deterministic and
    /// observational — see [`crate::profile`]) and merged in canonical wave
    /// order, so it is byte-identical at every worker count.
    pub profile: Profile,
}

impl Exploration {
    /// Per-path traces (empty unless tracing was enabled).
    pub fn traces(&self) -> Vec<Vec<TraceStep>> {
        self.paths.iter().map(|p| p.state.trace.to_vec()).collect()
    }
}

/// A symbolic execution engine over one translation unit.
#[derive(Debug)]
pub struct Engine<'u> {
    unit: &'u TranslationUnit,
    config: EngineConfig,
    source: Option<String>,
    /// The functions whose frame no pointer can reach ([`frame_escapes`]
    /// is false): a returned call of one frees its locals.
    freed_on_return: BTreeSet<&'u str>,
}

impl<'u> Engine<'u> {
    /// Creates an engine for `unit` with the given configuration. The unit
    /// must have passed [`minic::sema::check`], which resolves the variable
    /// each identifier denotes ([`minic::parse`] runs it).
    pub fn new(unit: &'u TranslationUnit, config: EngineConfig) -> Self {
        let freed_on_return = unit
            .functions()
            .filter(|func| !frame_escapes(func))
            .map(|func| func.name.as_str())
            .collect();
        Engine {
            unit,
            config,
            source: None,
            freed_on_return,
        }
    }

    /// Attaches the original source text, enabling readable statement text
    /// in recorded traces.
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Explores `entry`, binding its parameters as described.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the entry function is missing, the
    /// binding list does not match the signature, or a binding is
    /// incompatible with the parameter type.
    pub fn run(&self, entry: &str, bindings: &[ParamBinding]) -> Result<Exploration, EngineError> {
        self.run_from(entry, bindings, None)
    }

    /// Continues an exploration from a [`Snapshot`] written by an earlier
    /// run with [`EngineConfig::checkpoint`] set. The final [`Exploration`]
    /// is byte-identical to an uninterrupted run of the same analysis, at
    /// any worker count.
    ///
    /// # Errors
    ///
    /// All of [`Engine::run`]'s conditions, plus
    /// [`EngineError::Checkpoint`] with
    /// [`CheckpointError::FingerprintMismatch`](crate::CheckpointError::FingerprintMismatch)
    /// when the snapshot was written for a different source, entry,
    /// bindings, or analysis-relevant configuration.
    pub fn resume(
        &self,
        entry: &str,
        bindings: &[ParamBinding],
        snapshot: Snapshot,
    ) -> Result<Exploration, EngineError> {
        self.run_from(entry, bindings, Some(snapshot))
    }

    fn run_from(
        &self,
        entry: &str,
        bindings: &[ParamBinding],
        resume: Option<Snapshot>,
    ) -> Result<Exploration, EngineError> {
        let func = self
            .unit
            .function(entry)
            .filter(|f| f.body.is_some())
            .ok_or_else(|| EngineError::UnknownFunction(entry.to_string()))?;
        if func.params.len() != bindings.len() {
            return Err(EngineError::BindingArity {
                function: entry.to_string(),
                expected: func.params.len(),
                got: bindings.len(),
            });
        }
        let Some(body) = func.body.as_deref() else {
            // Unreachable after the filter above, but a typed error beats
            // an unwrap reachable from user input.
            return Err(EngineError::UnknownFunction(entry.to_string()));
        };

        // Only computed when checkpointing or resuming is in play: the
        // fingerprint pretty-prints the whole unit.
        let fingerprint = (resume.is_some() || self.config.checkpoint.is_some())
            .then(|| checkpoint::fingerprint(self.unit, entry, bindings, &self.config));

        let cache = FeasibilityCache::new(self.config.feasibility_cache);
        let supervisor = Supervisor::new(
            self.config.deadline,
            self.config.cancel.clone(),
            self.config.yield_hook.clone(),
        );
        let mut explorer = Explorer {
            unit: self.unit,
            config: &self.config,
            source: self.source.as_deref(),
            freed_on_return: &self.freed_on_return,
            cache: &cache,
            supervisor: &supervisor,
            base_forks: 0,
            sources: SourceTable::new(),
            collision: None,
            stats: Stats::default(),
            exhausted: false,
            interrupted: false,
            ledger: Ledger::new(),
            event_log: Vec::new(),
            probe_log: Vec::new(),
            probe_seen: BTreeSet::new(),
            profile: Profile::new(),
        };

        let (start_wave, start_entries, out_bases) = match resume {
            Some(snapshot) => {
                snapshot
                    .verify_fingerprint(fingerprint.unwrap_or_default())
                    .map_err(EngineError::Checkpoint)?;
                let Frontier {
                    wave,
                    entries,
                    sources,
                    stats,
                    exhausted,
                    ledger,
                    events,
                    out_bases,
                    probe_seen,
                    profile,
                } = snapshot.frontier;
                explorer.sources = sources;
                // The exploration counters resume from `profile`, which
                // `Snapshot::load` checked against `stats`.
                explorer.stats.absorb(&stats);
                explorer.exhausted = exhausted;
                explorer.ledger = ledger;
                explorer.event_log = events;
                explorer.probe_seen = probe_seen;
                explorer.profile = profile;
                (wave, entries, out_bases)
            }
            None => {
                let mut state = ExecState::new();
                state.frames.push(0);
                explorer.init_globals(&mut state);
                let mut out_bases = Vec::new();
                explorer.bind_params(&mut state, func, bindings, &mut out_bases)?;
                if let Some(error) = explorer.collision.take() {
                    return Err(error);
                }
                // Globals/parameter binding may itself evaluate (and probe)
                // before wave 0; account those probes first so the counters
                // line up with a purely sequential run. A resumed run has
                // them in the snapshot's profile and seen-set already.
                let initial_probes = std::mem::take(&mut explorer.probe_log);
                explorer.absorb_probes(initial_probes);
                emit_counters(&self.config.telemetry, &explorer.profile.totals(), None);
                (0, vec![(state, Flow::Normal)], out_bases)
            }
        };

        let mut checkpoint_written = None;
        let sink = CheckpointSink {
            path: self.config.checkpoint.as_deref(),
            every: self.config.checkpoint_every,
            fingerprint: fingerprint.unwrap_or_default(),
            out_bases: &out_bases,
            written: &mut checkpoint_written,
            telemetry: self.config.telemetry.clone(),
        };
        let finished = self.drive_worklist(
            &mut explorer,
            &cache,
            &supervisor,
            start_wave,
            start_entries,
            body,
            sink,
        )?;

        let mut paths = Vec::new();
        for (mut st, flow) in finished {
            let return_value = match flow {
                Flow::Return(v) => v,
                _ => None,
            };
            let return_event = return_value.as_ref().map(|(value, taint)| DeclassifyEvent {
                channel: Channel::Return,
                value: value.clone(),
                taint: taint.clone(),
                pi_taint: st.pi_taint.clone(),
                pi: st.path.to_string(),
                span: func.span,
            });
            // Algorithm 1 checks at declassification time: every return
            // observation lands in the global event log, whether the path
            // is kept or dropped by the budget below — mirroring how sink
            // events are recorded when they happen.
            if let Some(event) = &return_event {
                explorer.event_log.push(event.clone());
            }
            if paths.len() >= self.config.max_paths {
                explorer.exhausted = true;
                explorer.stats.dropped_paths += 1;
                explorer
                    .ledger
                    .record(Degradation::PathBudget { dropped: 1 });
                continue;
            }
            if let Some(event) = return_event {
                st.events.push(event);
            }
            explorer.stats.completed += 1;
            paths.push(PathOutcome {
                state: st,
                return_value,
            });
        }
        if self.config.effective_workers() > 1 {
            release_worker_arenas();
        }

        Ok(Exploration {
            entry: entry.to_string(),
            paths,
            exhausted: explorer.exhausted,
            ledger: explorer.ledger,
            stats: explorer.stats.with_totals(&explorer.profile.totals()),
            out_bases,
            events: explorer.event_log,
            secret_sources: explorer
                .sources
                .into_iter()
                .map(|(id, (_, name))| (SourceId::new(id), name))
                .collect(),
            checkpoint: checkpoint_written,
            profile: explorer.profile,
        })
    }

    /// Explores the entry body as a sequence of *waves*: one wave per
    /// top-level statement, in which every live path state becomes an
    /// independent task fanned out over the worker pool. Results are
    /// appended in task order, so the outcome is byte-identical to a
    /// sequential run (see the `worklist` module docs for the argument).
    ///
    /// # Errors
    ///
    /// [`EngineError::SourceCollision`] when two secret sources' keys have
    /// the same digest.
    #[allow(clippy::too_many_arguments)]
    fn drive_worklist(
        &self,
        explorer: &mut Explorer<'u, '_>,
        cache: &FeasibilityCache,
        supervisor: &Supervisor,
        start_wave: usize,
        start_entries: StateFlows,
        body: &[Stmt],
        mut sink: CheckpointSink<'_>,
    ) -> Result<StateFlows, EngineError> {
        let workers = self.config.effective_workers();
        let tele = self.config.telemetry.clone();
        let mut entries = start_entries;
        for (wave, stmt) in body.iter().enumerate().skip(start_wave) {
            let live = entries
                .iter()
                .filter(|(_, flow)| *flow == Flow::Normal)
                .count();
            if live == 0 {
                break;
            }
            // Periodic crash insurance: at every Nth boundary the merged
            // frontier is a complete restart point, whether or not the run
            // later stops cleanly.
            if sink.due(wave) {
                sink.write(explorer, &entries, wave);
            }
            // Deadline/cancellation is decided only at wave boundaries:
            // the merged result is a pure function of the cut wave, so the
            // clock can only choose *when* to stop, never *what* the
            // surviving output looks like.
            if let Some(kind) = supervisor.stop() {
                // Snapshot the full frontier *before* the cut discards the
                // in-flight states — this is what `--resume` continues from.
                sink.write(explorer, &entries, wave);
                entries.retain(|(_, flow)| *flow != Flow::Normal);
                cut_exploration(explorer, kind, wave, live);
                return Ok(entries);
            }
            // Non-Normal entries (already returned / broken) pass through
            // positionally; Normal entries become tasks.
            let mut tasks = Vec::new();
            let mut layout = Vec::new();
            for (st, flow) in std::mem::take(&mut entries) {
                if flow == Flow::Normal {
                    layout.push(None);
                    tasks.push(st);
                } else {
                    layout.push(Some((st, flow)));
                }
            }
            let dropped = tasks.len();
            // When checkpointing, keep the pre-wave states: a mid-wave
            // interrupt discards the whole wave, and the snapshot must
            // carry the frontier as of *this* boundary.
            let backup = sink.enabled().then(|| tasks.clone());
            // Per-wave instrumentation lives at this boundary only: workers
            // carry plain per-task buffers (stats, probe logs, pending
            // spans) that are folded in canonical order below, so telemetry
            // adds no cross-worker ordering. Timestamps go to the sinks —
            // never into the merged exploration state.
            let mut wave_span = tele.begin("wave", self.config.telemetry_parent);
            if let Some(span) = wave_span.as_mut() {
                span.field("wave", wave);
                span.field("frontier", live);
            }
            let wave_id = wave_span.as_ref().map(PendingSpan::id);
            let wave_started = tele.is_enabled().then(Instant::now);
            let before = explorer.profile.totals();
            // All tasks of a wave share the wave-start fork count for the
            // fork backstop, keeping the check worker-count-invariant.
            let base_forks = before.forks;
            let results = run_tasks(workers, tasks, |_, task_state| {
                self.run_stmt_task(cache, supervisor, base_forks, task_state, stmt, wave_id)
            });
            // A mid-wave deadline hit discards the *whole* wave — partial
            // waves would make the output depend on worker scheduling. The
            // result is then exactly "stopped before this wave".
            if results.iter().any(|task| task.interrupted) {
                let kind = supervisor.stop().unwrap_or(StopKind::Deadline);
                if let Some(backup) = backup {
                    // Rebuild the boundary frontier in canonical order:
                    // pass-through slots plus the saved pre-wave states.
                    let mut saved = backup.into_iter();
                    let frontier: StateFlows = layout
                        .iter()
                        .map(|slot| match slot {
                            Some(entry) => entry.clone(),
                            None => (
                                saved.next().expect("one saved state per task slot"),
                                Flow::Normal,
                            ),
                        })
                        .collect();
                    sink.write(explorer, &frontier, wave);
                }
                entries.extend(layout.into_iter().flatten());
                if let Some(mut span) = wave_span {
                    span.field("interrupted", true);
                    tele.emit(span);
                }
                cut_exploration(explorer, kind, wave, dropped);
                return Ok(entries);
            }
            let mut results = results.into_iter();
            for slot in layout {
                match slot {
                    Some(entry) => entries.push(entry),
                    None => {
                        if let Some(task) = results.next() {
                            entries.extend(merge_task(explorer, task)?);
                        }
                    }
                }
            }
            if tele.is_enabled() {
                let delta = explorer.profile.totals().since(&before);
                tele.counter(telemetry::names::ENGINE_WAVES, 1);
                if let Some(started) = wave_started {
                    tele.observe(
                        telemetry::names::ENGINE_WAVE_US,
                        started.elapsed().as_micros() as u64,
                    );
                }
                emit_counters(&tele, &delta, wave_span.as_mut());
                if let Some(span) = wave_span {
                    tele.emit(span);
                }
                tele.debug(|| {
                    format!(
                        "wave {wave}: frontier {live}, {} forks, {} steps, cache {}/{}",
                        delta.forks,
                        delta.steps,
                        delta.cache_hits,
                        delta.cache_hits + delta.cache_misses
                    )
                });
            }
        }
        Ok(entries)
    }

    /// Executes one statement in one path state.
    ///
    /// The whole task runs under `catch_unwind`: a panic anywhere inside a
    /// path becomes a [`Degradation::PathPanicked`] entry (the task's
    /// states are discarded), never a process abort. The shared structures
    /// a task touches are poison-safe — the feasibility cache tolerates
    /// poisoned locks by recomputing (a pure function), and the worklist's
    /// result slots are only locked after the task closure has returned.
    fn run_stmt_task(
        &self,
        cache: &FeasibilityCache,
        supervisor: &Supervisor,
        base_forks: u64,
        state: ExecState,
        stmt: &Stmt,
        wave_span: Option<u64>,
    ) -> TaskResult {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Per-task telemetry is buffered as plain data (a pending span
            // and the probe log) and handed back with the result: the merge
            // thread emits it in canonical order, so workers never touch
            // the sink and never synchronize on telemetry.
            let mut span = self.config.telemetry.begin("path_task", wave_span);
            let started = self.config.telemetry.is_enabled().then(Instant::now);
            let mut task = Explorer {
                unit: self.unit,
                config: &self.config,
                source: self.source.as_deref(),
                freed_on_return: &self.freed_on_return,
                cache,
                supervisor,
                base_forks,
                sources: SourceTable::new(),
                collision: None,
                stats: Stats::default(),
                exhausted: false,
                interrupted: false,
                ledger: Ledger::new(),
                event_log: Vec::new(),
                probe_log: Vec::new(),
                probe_seen: BTreeSet::new(),
                profile: Profile::new(),
            };
            // The states go back to the frontier unboxed here, so each box
            // is freed by the worker thread that allocated it.
            let flows: StateFlows = task
                .exec(Box::new(state), stmt)
                .into_iter()
                .map(|(state, flow)| (*state, flow))
                .collect();
            if let Some(span) = span.as_mut() {
                let totals = task.profile.totals();
                span.field("steps", totals.steps);
                span.field("forks", totals.forks);
                span.field("out_states", flows.len());
                span.complete();
            }
            TaskResult {
                flows,
                sources: task.sources,
                collision: task.collision,
                stats: task.stats,
                exhausted: task.exhausted,
                interrupted: task.interrupted,
                ledger: task.ledger,
                events: task.event_log,
                probes: task.probe_log,
                profile: task.profile,
                span,
                elapsed_us: started.map_or(0, |at| at.elapsed().as_micros() as u64),
            }
        }));
        outcome.unwrap_or_else(|payload| TaskResult::panicked(panic_message(payload)))
    }
}

/// Renders a panic payload (the argument of `panic!`) as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(text) => (*text).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

/// Adds a profile delta to the telemetry counters and, one field per
/// counter, to `span`.
fn emit_counters(tele: &Telemetry, delta: &SiteCounters, mut span: Option<&mut PendingSpan>) {
    if !tele.is_enabled() {
        return;
    }
    for counter in Counter::ALL {
        let value = delta.get(counter);
        tele.counter(counter.metric(), value);
        if let Some(span) = span.as_mut() {
            span.field(counter.name(), value);
        }
    }
}

/// Marks an exploration as cut by the supervisor: the surviving entries
/// are exactly those of "stopped before wave `wave`", the `dropped`
/// in-flight states are accounted in the stats and the ledger.
fn cut_exploration(explorer: &mut Explorer<'_, '_>, kind: StopKind, wave: usize, dropped: usize) {
    let kind_name = match &kind {
        StopKind::Deadline => "deadline",
        StopKind::Cancelled => "cancelled",
        StopKind::Suspended => "suspended",
    };
    let telemetry = &explorer.config.telemetry;
    telemetry.event(
        "supervisor_stop",
        explorer.config.telemetry_parent,
        |fields| {
            fields.push(("kind", FieldValue::from(kind_name)));
            fields.push(("wave", FieldValue::from(wave)));
            fields.push(("dropped", FieldValue::from(dropped)));
        },
    );
    telemetry.warn(|| {
        format!(
            "exploration cut at wave {wave} ({kind_name}): \
             {dropped} in-flight path state(s) dropped"
        )
    });
    let degradation = match kind {
        StopKind::Deadline => Degradation::DeadlineExceeded { wave, dropped },
        StopKind::Cancelled => Degradation::Cancelled { wave, dropped },
        StopKind::Suspended => Degradation::Suspended { wave, dropped },
    };
    explorer.ledger.record(degradation);
    explorer.stats.dropped_deadline += dropped;
    explorer.exhausted = true;
}

/// Where (and how often) `drive_worklist` persists resumable snapshots.
///
/// A disabled sink (`path: None`) makes every call a no-op, so the hot loop
/// pays nothing when checkpointing is off. Write failures are downgraded to
/// a [`Degradation::CheckpointFailed`] ledger entry: durability must never
/// cost the run its (otherwise intact) result.
struct CheckpointSink<'a> {
    path: Option<&'a std::path::Path>,
    every: usize,
    fingerprint: u64,
    out_bases: &'a [(String, Region)],
    written: &'a mut Option<PathBuf>,
    telemetry: Telemetry,
}

impl CheckpointSink<'_> {
    fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Whether the periodic policy wants a snapshot at this boundary.
    fn due(&self, wave: usize) -> bool {
        self.enabled() && self.every > 0 && wave.is_multiple_of(self.every)
    }

    /// Serializes the boundary frontier plus the explorer's merged global
    /// state and writes it atomically.
    fn write(&mut self, explorer: &mut Explorer<'_, '_>, entries: &StateFlows, wave: usize) {
        let Some(path) = self.path else {
            return;
        };
        let mut span = self.telemetry.begin("checkpoint_write", None);
        if let Some(span) = span.as_mut() {
            span.field("wave", wave);
            span.field("entries", entries.len());
        }
        let snapshot = Snapshot {
            fingerprint: self.fingerprint,
            frontier: Frontier {
                wave,
                entries: entries.clone(),
                sources: explorer.sources.clone(),
                stats: explorer.stats.with_totals(&explorer.profile.totals()),
                exhausted: explorer.exhausted,
                ledger: explorer.ledger.clone(),
                events: explorer.event_log.clone(),
                out_bases: self.out_bases.to_vec(),
                probe_seen: explorer.probe_seen.clone(),
                profile: explorer.profile.clone(),
            },
        };
        let result = snapshot.write_atomic(path);
        self.telemetry
            .counter(telemetry::names::ENGINE_CHECKPOINT_WRITES, 1);
        if let Some(mut span) = span {
            span.field("ok", result.is_ok());
            self.telemetry.emit(span);
        }
        match result {
            Ok(()) => *self.written = Some(path.to_path_buf()),
            Err(error) => {
                self.telemetry
                    .warn(|| format!("checkpoint write to {} failed: {error}", path.display()));
                explorer.ledger.record(Degradation::CheckpointFailed {
                    message: error.to_string(),
                });
            }
        }
    }
}

/// Everything one statement-task produced.
struct TaskResult {
    flows: StateFlows,
    /// The secret sources the task's paths hold.
    sources: SourceTable,
    /// The first digest collision among them, if any.
    collision: Option<EngineError>,
    stats: Stats,
    exhausted: bool,
    /// The supervisor fired mid-task; this wave's results must be discarded.
    interrupted: bool,
    ledger: Ledger,
    events: Vec<DeclassifyEvent>,
    /// Feasibility-probe (key hash, attribution site) pairs in program
    /// order, classified at merge.
    probes: Vec<(u64, usize)>,
    /// The task's per-site exploration profile, absorbed at merge in
    /// canonical order.
    profile: Profile,
    /// Buffered telemetry span, emitted by the merging thread.
    span: Option<PendingSpan>,
    /// Task wall-clock in microseconds (0 when telemetry is off); feeds
    /// the metrics histogram only, never the exploration result.
    elapsed_us: u64,
}

impl TaskResult {
    /// The result of a task whose path panicked: the path is dropped, the
    /// panic becomes a ledger entry, and nothing else survives.
    fn panicked(message: String) -> Self {
        let mut ledger = Ledger::new();
        ledger.record(Degradation::PathPanicked { message });
        let stats = Stats {
            dropped_panics: 1,
            ..Stats::default()
        };
        TaskResult {
            flows: Vec::new(),
            sources: SourceTable::new(),
            collision: None,
            stats,
            exhausted: true,
            interrupted: false,
            ledger,
            events: Vec::new(),
            probes: Vec::new(),
            profile: Profile::new(),
            span: None,
            elapsed_us: 0,
        }
    }
}

/// Folds a task's results into the global explorer. Called in canonical
/// task order; ids need no translation, so this only appends.
///
/// # Errors
///
/// [`EngineError::SourceCollision`] when one of the task's sources has the
/// id of a different source already known.
fn merge_task(
    explorer: &mut Explorer<'_, '_>,
    mut task: TaskResult,
) -> Result<StateFlows, EngineError> {
    // Emit the task's buffered telemetry from the merging thread, in
    // canonical task order; timings go to the sinks only.
    let telemetry = &explorer.config.telemetry;
    if telemetry.is_enabled() {
        telemetry.counter(telemetry::names::ENGINE_PATH_TASKS, 1);
        telemetry.observe(telemetry::names::ENGINE_PATH_TASK_US, task.elapsed_us);
        if let Some(span) = task.span.take() {
            telemetry.emit(span);
        }
    }
    if let Some(error) = task.collision {
        return Err(error);
    }
    for (id, (key, name)) in task.sources {
        add_source(&mut explorer.sources, id, key, name)?;
    }
    let probes = std::mem::take(&mut task.probes);
    explorer.absorb_probes(probes);
    explorer.stats.absorb(&task.stats);
    explorer.profile.absorb(&task.profile);
    explorer.exhausted |= task.exhausted;
    explorer.ledger.absorb(task.ledger);
    explorer.event_log.extend(task.events);
    Ok(task.flows)
}

/// Secret sources by id, each with the key of the symbol holding the
/// secret and its human-readable name.
pub(crate) type SourceTable = BTreeMap<u64, (SymbolKey, String)>;

/// Adds a source to `table`. One id under two different keys is a digest
/// collision, which would silently merge two secrets into one source: it
/// is an error, never an alias.
fn add_source(
    table: &mut SourceTable,
    id: u64,
    key: SymbolKey,
    name: String,
) -> Result<(), EngineError> {
    match table.entry(id) {
        Entry::Vacant(slot) => {
            slot.insert((key, name));
            Ok(())
        }
        Entry::Occupied(slot) if slot.get().0 == key => Ok(()),
        Entry::Occupied(slot) => Err(EngineError::SourceCollision {
            id,
            first: slot.get().0.to_string(),
            second: key.to_string(),
        }),
    }
}

/// The symbol holding the initial contents of `region`, with its key.
fn region_value(region: &Region) -> (SymbolKey, Symbol) {
    let key = SymbolKey::RegionValue(region.clone());
    let sym = Symbol::of(&key, region_hint(region));
    (key, sym)
}

/// The key of the `slot`-th value created by the `visit`-th visit of this
/// path to `site`.
fn conjured(site: usize, visit: u32, slot: u64) -> SymbolKey {
    SymbolKey::Conjured {
        site: site as u32,
        visit,
        slot,
    }
}

/// Control flow out of a statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<(SVal, TaintSet)>),
}

/// A path state as the interpreter passes it around: by pointer, so a
/// step's results move a word instead of the whole [`ExecState`]. Past
/// the box a statement task starts from, only a fork allocates one; the
/// wave frontier, checkpoints and [`PathOutcome`] hold plain states.
type State = Box<ExecState>;

// One `EvalResults` element is what every interpreter level moves; a field
// added to `ExecState` must not bring back copying the state along with it.
const _: () = assert!(std::mem::size_of::<(State, SVal, TaintSet)>() <= 64);

/// A wave frontier: every path state with the flow that left it there.
type StateFlows = Vec<(ExecState, Flow)>;
/// What one statement turned a path state into.
type Flows = Outcomes<(State, Flow)>;
/// What evaluating one expression turned a path state into.
type EvalResults = Outcomes<(State, SVal, TaintSet)>;
/// What resolving one lvalue turned a path state into.
type LvalResults = Outcomes<(State, Option<Region>)>;

struct Explorer<'u, 'c> {
    unit: &'u TranslationUnit,
    config: &'c EngineConfig,
    source: Option<&'c str>,
    /// [`Engine`]'s functions whose returned calls free their frame.
    freed_on_return: &'c BTreeSet<&'u str>,
    cache: &'c FeasibilityCache,
    /// Deadline/cancellation oracle, polled at step granularity.
    supervisor: &'c Supervisor,
    /// Fork count accumulated before this task's wave started; the fork
    /// backstop compares `base_forks` plus this explorer's profile fork
    /// total, so every task of a wave sees the same, scheduling-invariant
    /// number.
    base_forks: u64,
    /// The secret sources this explorer's paths hold.
    sources: SourceTable,
    /// The first digest collision among `sources`, reported at merge.
    collision: Option<EngineError>,
    /// Path-level counters only; the exploration counters live in
    /// `profile`.
    stats: Stats,
    exhausted: bool,
    /// Set when the supervisor fired mid-execution: the task's results are
    /// timing-dependent and the wave must be discarded for determinism.
    interrupted: bool,
    ledger: Ledger,
    event_log: Vec<DeclassifyEvent>,
    /// Hashes of every feasibility-probe key this explorer issued (with the
    /// source site the probe belongs to), in program order. Task logs are
    /// drained into the global explorer's [`Explorer::probe_seen`] at the
    /// wave boundary, in canonical merge order, which is what makes the
    /// hit/miss counters scheduling-free.
    probe_log: Vec<(u64, usize)>,
    /// Every probe key already accounted (global explorer only). Persisted
    /// in checkpoints so a resumed run counts exactly like an
    /// uninterrupted one.
    probe_seen: BTreeSet<u64>,
    /// Per-source-site cost attribution: the one place the exploration
    /// counters are incremented.
    profile: Profile,
}

impl<'u, 'c> Explorer<'u, 'c> {
    /// Checks branch feasibility through the shared memoization cache and
    /// logs the probe key for deterministic hit/miss accounting.
    ///
    /// The *result* comes from [`FeasibilityCache::probe`] (a pure function
    /// of the key, so memoization can never change it). The *counters* do
    /// not: whether a concrete probe hits the shared cache depends on what
    /// other workers inserted first, so instead each probe's FNV-hashed key
    /// is logged here and classified later against the keys already seen in
    /// canonical merge order — i.e. the redundancy a sequential run would
    /// observe. That keeps `Stats` (and everything downstream: reports,
    /// checkpoints, determinism tests) invariant under worker count and
    /// cache capacity.
    /// Per-tier counters, by contrast, *are* incremented per probe event:
    /// the tier outcome is itself a pure function of the key, so the same
    /// probe always lands in the same counter no matter which worker runs
    /// it or whether the cache answered — the totals stay deterministic
    /// without the seen-set machinery.
    fn probe(&mut self, state: &ExecState, cond: &SVal, taken: bool, at: usize) -> Feasibility {
        // The cache's accounting key feeds the deterministic hit/miss log.
        // `at` is the source byte offset the probe is attributed to in the
        // exploration profile.
        let (outcome, key) = self.cache.probe(
            self.config.feasibility,
            &state.constraints,
            &state.domain,
            &state.path,
            cond,
            taken,
        );
        self.probe_log.push((key, at));
        let tier = match outcome {
            ProbeOutcome::RefutedIntervals => Some(Counter::Tier1Refuted),
            ProbeOutcome::RefutedSolver => Some(Counter::Tier2Refuted),
            ProbeOutcome::SolverUnknown => Some(Counter::Tier2Unknown),
            ProbeOutcome::Feasible | ProbeOutcome::RefutedSyntactic => None,
        };
        if let Some(counter) = tier {
            self.profile.bump(at, counter, 1);
        }
        outcome.feasibility()
    }

    /// Classifies a drained probe log against the global seen-set. Must be
    /// called in canonical merge order (it is: from `merge_task` and for
    /// the init phase in `run_from`).
    fn absorb_probes(&mut self, probes: Vec<(u64, usize)>) {
        for (key, at) in probes {
            let counter = if self.probe_seen.insert(key) {
                Counter::CacheMisses
            } else {
                Counter::CacheHits
            };
            self.profile.bump(at, counter, 1);
        }
    }

    /// Records that `sym`, minted from `key`, holds a secret, and returns
    /// the taint of its source, which shares the symbol's id.
    fn secret_source(&mut self, key: SymbolKey, sym: &Symbol) -> TaintSet {
        if let Err(error) = add_source(&mut self.sources, sym.id, key, sym.hint.to_string()) {
            self.collision.get_or_insert(error);
        }
        TaintSet::source(SourceId::new(sym.id))
    }

    /// Replaces an oversized value with a summary symbol conjured at `at`;
    /// the taint (tracked separately) is preserved by the caller. The
    /// symbol's hint is rendered only then.
    fn summarize(
        &mut self,
        state: &mut ExecState,
        at: usize,
        value: SVal,
        hint: impl FnOnce() -> String,
    ) -> SVal {
        if value.size_within(self.config.max_value_size).is_some() {
            value
        } else {
            self.ledger.record(Degradation::ValueWidened { count: 1 });
            let key = conjured(at, state.visit(at), 0);
            SVal::Sym(Symbol::of(&key, format!("summary({})", hint())))
        }
    }

    /// Records that `id` denotes `region`, for traces only: the environment
    /// has no other reader.
    fn bind_env(&self, state: &mut ExecState, id: ExprId, region: &Region) {
        if self.config.record_trace {
            state.env.bind(id, region.clone());
        }
    }

    // ---- entry setup ------------------------------------------------------

    fn init_globals(&mut self, state: &mut ExecState) {
        let globals: Vec<VarDecl> = self.unit.globals().cloned().collect();
        for decl in globals {
            let region = var_region(state, &decl.var);
            if let Some(init) = decl.init.clone() {
                self.bind_init(state, &region, &init, &decl.ty);
            }
        }
    }

    fn bind_init(&mut self, state: &mut ExecState, region: &Region, init: &Init, ty: &Type) {
        match init {
            Init::Expr(expr) => {
                // Global/local initializer expressions do not fork: the
                // evaluation is forced down the first (and in practice only)
                // result; corpus initializers are side-effect-free.
                let results = self.eval(Box::new(state.clone()), expr);
                if let Some((st, value, taint)) = results.into_iter().next() {
                    *state = *st;
                    state.write(region.clone(), value, taint);
                }
            }
            Init::List(items) => match ty {
                Type::Array(elem, _) => {
                    for (i, item) in items.iter().enumerate() {
                        let sub = Region::element(region.clone(), SVal::Int(i as i64));
                        self.bind_init(state, &sub, item, elem);
                    }
                }
                Type::Struct(name) => {
                    if let Some(def) = self.unit.struct_def(name) {
                        let fields: Vec<_> = def
                            .fields
                            .iter()
                            .map(|f| (f.name.clone(), f.ty.clone()))
                            .collect();
                        for (item, (fname, fty)) in items.iter().zip(fields) {
                            let sub = Region::field(region.clone(), fname);
                            self.bind_init(state, &sub, item, &fty);
                        }
                    }
                }
                _ => {}
            },
        }
    }

    fn bind_params(
        &mut self,
        state: &mut ExecState,
        func: &Function,
        bindings: &[ParamBinding],
        out_bases: &mut Vec<(String, Region)>,
    ) -> Result<(), EngineError> {
        for (index, (param, binding)) in func.params.iter().zip(bindings).enumerate() {
            let region = var_region(state, &param.var);
            let scalar_ok = param.ty.is_arithmetic();
            let pointer_ok = param.ty.is_pointer();
            match binding {
                ParamBinding::Scalar | ParamBinding::SecretScalar | ParamBinding::Concrete(_)
                    if !scalar_ok =>
                {
                    return Err(EngineError::BindingType {
                        function: func.name.clone(),
                        index,
                        reason: format!("scalar binding for `{}` parameter", param.ty),
                    });
                }
                ParamBinding::Pointer
                | ParamBinding::SecretPointer
                | ParamBinding::OutPointer
                | ParamBinding::InOutPointer
                    if !pointer_ok =>
                {
                    return Err(EngineError::BindingType {
                        function: func.name.clone(),
                        index,
                        reason: format!("pointer binding for `{}` parameter", param.ty),
                    });
                }
                _ => {}
            }

            match binding {
                ParamBinding::Concrete(v) => {
                    state.write(region, SVal::Int(*v), TaintSet::bottom());
                }
                ParamBinding::Scalar => {
                    let (_, sym) = region_value(&region);
                    state.write(region, SVal::Sym(sym), TaintSet::bottom());
                }
                ParamBinding::SecretScalar => {
                    let (key, sym) = region_value(&region);
                    let taint = self.secret_source(key, &sym);
                    state.write(region, SVal::Sym(sym), taint);
                }
                ParamBinding::Pointer
                | ParamBinding::SecretPointer
                | ParamBinding::OutPointer
                | ParamBinding::InOutPointer => {
                    let (_, sym) = region_value(&region);
                    let base = Region::Sym { symbol: sym };
                    if matches!(
                        binding,
                        ParamBinding::SecretPointer | ParamBinding::InOutPointer
                    ) {
                        state.secret_bases.insert(base.clone());
                    }
                    if matches!(
                        binding,
                        ParamBinding::OutPointer | ParamBinding::InOutPointer
                    ) {
                        out_bases.push((param.name.clone(), base.clone()));
                    }
                    state.write(region, SVal::Loc(base), TaintSet::bottom());
                }
            }
        }
        Ok(())
    }

    // ---- memory -----------------------------------------------------------

    /// Reads a region; never-written memory reads as its region-value
    /// symbol, the same on every path. A region under a secret base is a
    /// taint source of its own, keyed like its symbol — the `get_secret`
    /// rule, per element.
    ///
    /// A read through an `ite` element index reads each arm:
    /// `a[ite(c, i, j)]` is `ite(c, a[i], a[j])`, tainted by both arms.
    fn read(&mut self, state: &mut ExecState, region: &Region) -> (SVal, TaintSet) {
        if let Some(binding) = state.store.get(region) {
            return binding.clone();
        }
        if let Some((cond, then, els)) = split_ite_region(region) {
            let (then_value, then_taint) = self.read(state, &then);
            let (else_value, else_taint) = self.read(state, &els);
            return (
                fold_ite(cond, then_value, else_value),
                TaintSet::merge([&then_taint, &else_taint]),
            );
        }
        let (key, sym) = region_value(region);
        let taint = if state.is_secret_region(region) {
            self.secret_source(key, &sym)
        } else {
            TaintSet::bottom()
        };
        let value = SVal::Sym(sym);
        state
            .store
            .bind(region.clone(), value.clone(), taint.clone());
        (value, taint)
    }

    /// Writes `value` to `region` for the statement at `at`. A write
    /// through an `ite` element index expands over the arms, each keeping
    /// its old value where the other arm is taken: `a[ite(c, i, j)] = v`
    /// writes `a[i] = ite(c, v, a[i])` and `a[j] = ite(c, a[j], v)`.
    fn write(
        &mut self,
        state: &mut ExecState,
        at: usize,
        region: Region,
        value: SVal,
        taint: TaintSet,
    ) {
        let Some((cond, then, els)) = split_ite_region(&region) else {
            state.write(region, value, taint);
            return;
        };
        let (old, old_taint) = self.read(state, &then);
        let merged = fold_ite(cond.clone(), value.clone(), old);
        let merged = self.summarize(state, at, merged, || region_hint(&then));
        self.write(
            state,
            at,
            then,
            merged,
            TaintSet::merge([&taint, &old_taint]),
        );
        let (old, old_taint) = self.read(state, &els);
        let merged = fold_ite(cond, old, value);
        let merged = self.summarize(state, at, merged, || region_hint(&els));
        self.write(
            state,
            at,
            els,
            merged,
            TaintSet::merge([&old_taint, &taint]),
        );
    }

    /// Turns a pointer value into the region it points at.
    fn pointee_region(&mut self, ptr: &SVal) -> Option<Region> {
        match ptr {
            SVal::Loc(region) => Some(region.clone()),
            SVal::Sym(sym) => Some(Region::Sym {
                symbol: sym.clone(),
            }),
            _ => None,
        }
    }

    /// Pointer arithmetic: `ptr ± offset` in element units.
    fn ptr_offset(&mut self, ptr: &SVal, offset: SVal, negate: bool) -> SVal {
        let offset = if negate {
            fold_unary(UnOp::Neg, offset)
        } else {
            offset
        };
        let Some(region) = self.pointee_region(ptr) else {
            return SVal::Unknown;
        };
        let adjusted = match region {
            Region::Element { base, index } => Region::Element {
                base,
                index: HC::new(simplify(&SVal::binary(
                    BinOp::Add,
                    index.as_ref().clone(),
                    offset,
                ))),
            },
            other => Region::element(other, simplify(&offset)),
        };
        SVal::Loc(adjusted)
    }

    // ---- expression evaluation -------------------------------------------

    fn eval(&mut self, state: State, expr: &Expr) -> EvalResults {
        match &expr.kind {
            ExprKind::IntLit(v) => Outcomes::one((state, SVal::Int(*v), TaintSet::bottom())),
            ExprKind::CharLit(v) => Outcomes::one((state, SVal::Int(*v), TaintSet::bottom())),
            ExprKind::FloatLit(v) => Outcomes::one((state, SVal::float(*v), TaintSet::bottom())),
            ExprKind::StrLit(text) => Outcomes::one((
                state,
                SVal::Loc(Region::Str {
                    text: text.as_str().into(),
                }),
                TaintSet::bottom(),
            )),
            ExprKind::SizeofType(ty) => {
                let size = self.size_of(ty);
                Outcomes::one((state, size, TaintSet::bottom()))
            }
            ExprKind::SizeofExpr(inner) => {
                let size = inner
                    .ty
                    .as_ref()
                    .map(|ty| self.size_of(ty))
                    .unwrap_or(SVal::Unknown);
                Outcomes::one((state, size, TaintSet::bottom()))
            }
            ExprKind::Ident { var, .. } => {
                let mut state = state;
                let region = var_region(&state, var);
                self.bind_env(&mut state, expr.id, &region);
                if matches!(expr.ty, Some(Type::Array(..))) {
                    Outcomes::one((state, SVal::Loc(region), TaintSet::bottom()))
                } else {
                    let (value, taint) = self.read(&mut state, &region);
                    Outcomes::one((state, value, taint))
                }
            }
            ExprKind::Unary { op, expr: inner } => self
                .eval(state, inner)
                .map(|(st, v, t)| (st, fold_unary(*op, v), taint::unop(&t))),
            ExprKind::Deref(_) | ExprKind::Index { .. } | ExprKind::Member { .. } => {
                let array_result = matches!(expr.ty, Some(Type::Array(..)));
                self.lvalue(state, expr)
                    .map(|(mut st, region)| match region {
                        Some(region) if array_result => (st, SVal::Loc(region), TaintSet::bottom()),
                        Some(region) => {
                            let (v, t) = self.read(&mut st, &region);
                            (st, v, t)
                        }
                        None => (st, SVal::Unknown, TaintSet::bottom()),
                    })
            }
            ExprKind::AddrOf(inner) => self.lvalue(state, inner).map(|(st, region)| match region {
                Some(region) => (st, SVal::Loc(region), TaintSet::bottom()),
                None => (st, SVal::Unknown, TaintSet::bottom()),
            }),
            ExprKind::Binary {
                op: op @ (BinOp::LogAnd | BinOp::LogOr),
                lhs,
                rhs,
            } => {
                // `a && b` is `a ? (b != 0) : 0` and `a || b` is
                // `a ? 1 : (b != 0)`: `b` runs only where `a` does not decide.
                let decided_by = *op == BinOp::LogOr;
                let arms = self.branch(state, lhs, |this, side, taken| {
                    if taken == decided_by {
                        return Outcomes::one((
                            side,
                            SVal::Int(i64::from(taken)),
                            TaintSet::bottom(),
                        ));
                    }
                    this.eval(side, rhs).map(|(st, v, t)| {
                        (st, simplify(&fold_binary(BinOp::Ne, v, SVal::Int(0))), t)
                    })
                });
                self.join(arms, false, expr.span.start, || op.to_string())
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let mut out = Outcomes::none();
                for (st, lv, lt) in self.eval(state, lhs) {
                    for (st2, rv, rt) in self.eval(st, rhs) {
                        let value = self.combine_binary(*op, &lv, rv, lhs, rhs);
                        out.push((st2, value, taint::binop(&lt, &rt)));
                    }
                }
                out
            }
            ExprKind::Assign { op, lhs, rhs } => self.eval_assign(state, *op, lhs, rhs),
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                let arms = self.branch(state, cond, |this, side, taken| {
                    this.eval(side, if taken { then_e } else { else_e })
                });
                let pointer = expr.ty.as_ref().is_some_and(|ty| ty.decay().is_pointer());
                self.join(arms, pointer, expr.span.start, || "?:".to_string())
            }
            ExprKind::Call { callee, args } => self.eval_call(state, expr, callee, args),
            ExprKind::Cast { expr: inner, ty } => self
                .eval(state, inner)
                .map(|(st, v, t)| (st, cast_value(v, ty), t)),
            ExprKind::IncDec { op, expr: inner } => {
                let delta = op.delta();
                let is_post = op.is_post();
                self.lvalue(state, inner)
                    .map(|(mut st, region)| match region {
                        Some(region) => {
                            let (old, taint) = self.read(&mut st, &region);
                            let new = if matches!(old, SVal::Loc(_)) {
                                self.ptr_offset(&old, SVal::Int(delta.abs()), delta < 0)
                            } else {
                                simplify(&SVal::binary(BinOp::Add, old.clone(), SVal::Int(delta)))
                            };
                            self.write(
                                &mut st,
                                expr.span.start,
                                region,
                                new.clone(),
                                taint.clone(),
                            );
                            let value = if is_post { old } else { new };
                            (st, value, taint)
                        }
                        None => (st, SVal::Unknown, TaintSet::bottom()),
                    })
            }
            ExprKind::Comma(lhs, rhs) => {
                let mut out = Outcomes::none();
                for (st, _, _) in self.eval(state, lhs) {
                    out.append(self.eval(st, rhs));
                }
                out
            }
        }
    }

    fn combine_binary(&mut self, op: BinOp, lv: &SVal, rv: SVal, lhs: &Expr, rhs: &Expr) -> SVal {
        let lhs_ptr = lhs
            .ty
            .as_ref()
            .map(|t| t.decay().is_pointer())
            .unwrap_or(false);
        let rhs_ptr = rhs
            .ty
            .as_ref()
            .map(|t| t.decay().is_pointer())
            .unwrap_or(false);
        match (op, lhs_ptr, rhs_ptr) {
            (BinOp::Add, true, false) => self.ptr_offset(lv, rv, false),
            (BinOp::Add, false, true) => self.ptr_offset(&rv, lv.clone(), false),
            (BinOp::Sub, true, false) => self.ptr_offset(lv, rv, true),
            (BinOp::Sub, true, true) => {
                // pointer difference: precise only for same-base elements
                match (self.pointee_region(lv), self.pointee_region(&rv)) {
                    (
                        Some(Region::Element {
                            base: b1,
                            index: i1,
                        }),
                        Some(Region::Element {
                            base: b2,
                            index: i2,
                        }),
                    ) if b1 == b2 => simplify(&SVal::binary(
                        BinOp::Sub,
                        i1.as_ref().clone(),
                        i2.as_ref().clone(),
                    )),
                    (Some(r1), Some(r2)) if r1 == r2 => SVal::Int(0),
                    _ => SVal::Unknown,
                }
            }
            _ => simplify(&fold_binary(op, lv.clone(), rv)),
        }
    }

    fn eval_assign(
        &mut self,
        state: State,
        op: Option<BinOp>,
        lhs: &Expr,
        rhs: &Expr,
    ) -> EvalResults {
        let mut out = Outcomes::none();
        for (st, region) in self.lvalue(state, lhs) {
            for (mut st2, rv, rt) in self.eval(st, rhs) {
                let Some(region) = region.clone() else {
                    out.push((st2, rv, rt));
                    continue;
                };
                let (value, taint) = match op {
                    None => (rv, taint::assign(&rt)),
                    Some(binop) => {
                        let (old, ot) = self.read(&mut st2, &region);
                        let value = if matches!(old, SVal::Loc(_)) {
                            match binop {
                                BinOp::Add => self.ptr_offset(&old, rv, false),
                                BinOp::Sub => self.ptr_offset(&old, rv, true),
                                _ => SVal::Unknown,
                            }
                        } else {
                            simplify(&fold_binary(binop, old, rv))
                        };
                        (value, taint::binop(&ot, &rt))
                    }
                };
                let at = lhs.span.start;
                let value = self.summarize(&mut st2, at, value, || region_hint(&region));
                self.write(&mut st2, at, region, value.clone(), taint.clone());
                out.push((st2, value, taint));
            }
        }
        out
    }

    fn lvalue(&mut self, state: State, expr: &Expr) -> LvalResults {
        match &expr.kind {
            ExprKind::Ident { var, .. } => {
                let mut state = state;
                let region = var_region(&state, var);
                self.bind_env(&mut state, expr.id, &region);
                Outcomes::one((state, Some(region)))
            }
            ExprKind::Deref(inner) => self.eval(state, inner).map(|(mut st, v, _)| {
                let region = self.pointee_region(&v);
                if let Some(region) = &region {
                    self.bind_env(&mut st, expr.id, region);
                }
                (st, region)
            }),
            ExprKind::Index { base, index } => {
                let mut out = Outcomes::none();
                for (st, bv, _) in self.eval(state, base) {
                    for (mut st2, iv, _) in self.eval(st, index) {
                        let ptr = self.ptr_offset(&bv, iv, false);
                        let region = self.pointee_region(&ptr);
                        if let Some(region) = &region {
                            self.bind_env(&mut st2, expr.id, region);
                        }
                        out.push((st2, region));
                    }
                }
                out
            }
            ExprKind::Member { base, field, arrow } => {
                let results: LvalResults = if *arrow {
                    self.eval(state, base)
                        .map(|(st, v, _)| (st, self.pointee_region(&v)))
                } else {
                    self.lvalue(state, base)
                };
                results.map(|(mut st, region)| {
                    let region = region.map(|base| Region::field(base, field.clone()));
                    if let Some(region) = &region {
                        self.bind_env(&mut st, expr.id, region);
                    }
                    (st, region)
                })
            }
            // Casts of lvalues, e.g. `*(int*)buf = …`, pass through.
            ExprKind::Cast { expr: inner, .. } => self.lvalue(state, inner),
            _ => Outcomes::one((state, None)),
        }
    }

    fn size_of(&self, ty: &Type) -> SVal {
        match ty {
            Type::Struct(name) => minic::sema::struct_size(self.unit, name)
                .map(|s| SVal::Int(s as i64))
                .unwrap_or(SVal::Unknown),
            Type::Array(inner, n) => match self.size_of(inner) {
                SVal::Int(s) => SVal::Int(s * *n as i64),
                _ => SVal::Unknown,
            },
            other => other
                .size()
                .map(|s| SVal::Int(s as i64))
                .unwrap_or(SVal::Unknown),
        }
    }

    // ---- calls -------------------------------------------------------------

    fn eval_call(&mut self, state: State, expr: &Expr, callee: &str, args: &[Expr]) -> EvalResults {
        if self.config.inject_panic_on_call.as_deref() == Some(callee) {
            panic!("injected panic in `{callee}`");
        }
        // Evaluate arguments left to right, threading forks.
        let mut evaluated = Outcomes::one((state, Vec::with_capacity(args.len())));
        for arg in args {
            let mut next = Outcomes::none();
            for (st, mut values) in evaluated {
                let mut results = self.eval(st, arg).into_iter().peekable();
                while let Some((st2, v, t)) = results.next() {
                    let mut values = if results.peek().is_some() {
                        values.clone()
                    } else {
                        std::mem::take(&mut values)
                    };
                    values.push((v, t));
                    next.push((st2, values));
                }
            }
            evaluated = next;
        }

        let mut out = Outcomes::none();
        for (mut st, values) in evaluated {
            // Sinks: every argument value escapes.
            if self.config.sink_functions.contains(callee) {
                for (i, (v, t)) in values.iter().enumerate() {
                    let event = DeclassifyEvent {
                        channel: Channel::SinkCall {
                            func: callee.to_string(),
                            arg: i,
                        },
                        value: v.clone(),
                        taint: t.clone(),
                        pi_taint: st.pi_taint.clone(),
                        pi: st.path.to_string(),
                        span: expr.span,
                    };
                    // Algorithm 1 checks at declassification time: keep a
                    // global log so observations survive even when the
                    // path itself is later dropped by a budget.
                    self.event_log.push(event.clone());
                    st.events.push(event);
                }
            }
            // Sources: decrypt-like. The result (slot 0) is secret data
            // conjured by this call; the first pointer argument receives
            // secret plaintext (slot i + 1 for element i, one source per
            // element, like `get_secret`), and its whole block is marked
            // secret so out-of-bound-of-the-model reads stay tainted.
            if self.config.source_functions.contains(callee) {
                let at = expr.span.start;
                let visit = st.visit(at);
                if let Some(region) = values.first().and_then(|(v, _)| self.pointee_region(v)) {
                    let len = values
                        .get(2)
                        .and_then(|(v, _)| v.as_int())
                        .unwrap_or(8)
                        .clamp(0, 64);
                    for i in 0..len {
                        let elem = element(&region, i);
                        let key = conjured(at, visit, i as u64 + 1);
                        let sym = Symbol::of(&key, region_hint(&elem));
                        let taint = self.secret_source(key, &sym);
                        st.write(elem, SVal::Sym(sym), taint);
                    }
                    st.secret_bases.insert(region);
                }
                let key = conjured(at, visit, 0);
                let sym = Symbol::of(&key, format!("{callee}#out"));
                let taint = self.secret_source(key, &sym);
                out.push((st, SVal::Sym(sym), taint));
                continue;
            }

            out.append(self.call_body_or_model(st, expr, callee, &values));
        }
        out
    }

    fn call_body_or_model(
        &mut self,
        state: State,
        expr: &Expr,
        callee: &str,
        values: &[(SVal, TaintSet)],
    ) -> EvalResults {
        // Borrow the callee from the translation unit, which outlives the
        // explorer, so no `self` borrow is held across the call.
        let unit = self.unit;
        if let Some(func) = unit.function(callee).filter(|f| f.body.is_some()) {
            if state.frames.len() <= self.config.inline_depth {
                let results = self.inline_call(state, expr.span.start, func, values);
                let pointer = func.ret.decay().is_pointer();
                return self.join(results, pointer, expr.span.start, || format!("{callee}()"));
            }
        }
        Outcomes::one(self.model_builtin(state, expr, callee, values))
    }

    fn inline_call(
        &mut self,
        mut state: State,
        at: usize,
        func: &Function,
        values: &[(SVal, TaintSet)],
    ) -> EvalResults {
        // A declaration without a definition cannot be inlined; treat the
        // call as opaque (joined taint, unknown result) instead of
        // panicking on malformed user input.
        let Some(body) = func.body.as_ref() else {
            return Outcomes::one((state, SVal::Unknown, join_all(values)));
        };
        let frame = state.next_frame;
        state.frames.push(frame);
        state.next_frame += 1;
        for (param, (value, taint)) in func.params.iter().zip(values) {
            let region = var_region(&state, &param.var);
            let value = self.summarize(&mut state, at, value.clone(), || param.name.clone());
            state.write(region, value, taint.clone());
        }
        let free = self.freed_on_return.contains(func.name.as_str());
        self.exec_block(state, body).map(|(mut st, flow)| {
            st.frames.pop();
            if free {
                st.store.unbind_frame(frame);
            }
            match flow {
                Flow::Return(Some((v, t))) => (st, v, t),
                _ => (st, SVal::Int(0), TaintSet::bottom()),
            }
        })
    }

    /// Joins the arms of an inlined call or a conditional expression (`?:`,
    /// `&&`, `||`) at site `at` into one state whose value is an `ite` over
    /// the arms' π suffixes, or hands them back unchanged when they may not
    /// merge (a `pointer` value, or see [`mergeable`]). The merged state
    /// keeps the arms' common π prefix, the first arm's trace and
    /// environment, and the most steps and site visits any arm took; its
    /// value's taint remembers each arm ([`TaintSet::merge`]), and `hint`
    /// names its summary if it grows too large.
    fn join(
        &mut self,
        results: EvalResults,
        pointer: bool,
        at: usize,
        hint: impl FnOnce() -> String,
    ) -> EvalResults {
        if !self.config.merge_returns || results.len() < 2 || pointer || !mergeable(&results) {
            return results;
        }
        let mut arms: Vec<(State, SVal, TaintSet)> = results.into_iter().collect();
        let first = &arms[0].0;
        let prefix = arms[1..].iter().fold(first.path.len(), |len, (st, _, _)| {
            first.path.assumptions()[..len]
                .iter()
                .zip(st.path.assumptions())
                .take_while(|(a, b)| a == b)
                .count()
        });
        let steps = arms.iter().map(|(st, _, _)| st.steps).max().unwrap_or(0);
        let taint = TaintSet::merge(arms.iter().map(|(_, _, t)| t));
        let (mut state, mut value, _) = arms.pop().expect("at least two arms");
        for (mut st, arm_value, _) in arms.into_iter().rev() {
            let cond = st.path.assumptions()[prefix..]
                .iter()
                .map(|a| {
                    if a.taken {
                        a.cond.clone()
                    } else {
                        fold_unary(UnOp::Not, a.cond.clone())
                    }
                })
                .reduce(|all, next| fold_binary(BinOp::LogAnd, all, next))
                .unwrap_or(SVal::Int(1));
            value = fold_ite(cond, arm_value, value);
            // The merged path holds every symbol any arm conjured, so its
            // next visit to a site must come after all of theirs.
            for (site, visits) in state.visits.iter() {
                if st.visits.get(site).is_none_or(|own| own < visits) {
                    st.visits.insert(*site, *visits);
                }
            }
            state = st;
        }
        state.path.truncate(prefix);
        state.steps = steps;
        self.profile.bump(at, Counter::Merges, 1);
        let value = self.summarize(&mut state, at, value, hint);
        Outcomes::one((state, value, taint))
    }

    fn model_builtin(
        &mut self,
        mut state: State,
        expr: &Expr,
        callee: &str,
        values: &[(SVal, TaintSet)],
    ) -> (State, SVal, TaintSet) {
        match callee {
            "memcpy" => {
                let n = values.get(2).and_then(|(v, _)| v.as_int());
                if let (Some((dst, _)), Some((src, _)), Some(n)) =
                    (values.first(), values.get(1), n)
                {
                    let dst_r = self.pointee_region(dst);
                    let src_r = self.pointee_region(src);
                    if let (Some(dst_r), Some(src_r)) = (dst_r, src_r) {
                        for i in 0..n.clamp(0, 64) {
                            let from = element(&src_r, i);
                            let to = element(&dst_r, i);
                            let (v, t) = self.read(&mut state, &from);
                            self.write(&mut state, expr.span.start, to, v, t);
                        }
                        let first = values[0].clone();
                        return (state, first.0, TaintSet::bottom());
                    }
                }
                (state, SVal::Unknown, join_all(values))
            }
            "memset" => {
                let n = values.get(2).and_then(|(v, _)| v.as_int());
                if let (Some((dst, _)), Some((byte, bt)), Some(n)) =
                    (values.first(), values.get(1), n)
                {
                    if let Some(dst_r) = self.pointee_region(dst) {
                        for i in 0..n.clamp(0, 64) {
                            let to = element(&dst_r, i);
                            self.write(&mut state, expr.span.start, to, byte.clone(), bt.clone());
                        }
                        let first = values[0].clone();
                        return (state, first.0, TaintSet::bottom());
                    }
                }
                (state, SVal::Unknown, join_all(values))
            }
            "sgx_read_rand" => {
                // Fills the buffer with conjured, non-secret symbols.
                let n = values.get(1).and_then(|(v, _)| v.as_int()).unwrap_or(8);
                if let Some(region) = values.first().and_then(|(v, _)| self.pointee_region(v)) {
                    let visit = state.visit(expr.span.start);
                    for i in 0..n.clamp(0, 64) {
                        let key = conjured(expr.span.start, visit, i as u64);
                        let sym = Symbol::of(&key, format!("rand[{i}]"));
                        state.write(element(&region, i), SVal::Sym(sym), TaintSet::bottom());
                    }
                }
                (state, SVal::Int(0), TaintSet::bottom())
            }
            "rand" => {
                let key = conjured(expr.span.start, state.visit(expr.span.start), 0);
                (
                    state,
                    SVal::Sym(Symbol::of(&key, "rand()")),
                    TaintSet::bottom(),
                )
            }
            _ => {
                // Uninterpreted pure call: sqrt(x), unknown prototypes, or
                // too-deep recursion. Taint flows from every argument.
                (
                    state,
                    SVal::Call {
                        func: callee.into(),
                        args: values.iter().map(|(v, _)| v.clone()).collect(),
                    },
                    join_all(values),
                )
            }
        }
    }

    // ---- statements --------------------------------------------------------

    fn exec_block(&mut self, state: State, stmts: &[Stmt]) -> Flows {
        let mut flows = Outcomes::one((state, Flow::Normal));
        for stmt in stmts {
            let mut next = Outcomes::none();
            for (st, flow) in flows {
                if flow == Flow::Normal {
                    next.append(self.exec(st, stmt));
                } else {
                    next.push((st, flow));
                }
            }
            flows = next;
        }
        flows
    }

    fn exec(&mut self, mut state: State, stmt: &Stmt) -> Flows {
        state.steps += 1;
        self.profile.bump(stmt.span.start, Counter::Steps, 1);
        // Poll the supervisor at step granularity (every 64th step keeps
        // the Instant::now syscall off the hot path). Once it fires, the
        // task unwinds fast by dropping every remaining state; the caller
        // discards the whole wave, so partial results never leak into the
        // deterministic output.
        if self.interrupted || (state.steps.is_multiple_of(64) && self.supervisor.stop().is_some())
        {
            self.interrupted = true;
            return Outcomes::none();
        }
        if state.steps > self.config.max_steps_per_path {
            self.stats.dropped_steps += 1;
            self.exhausted = true;
            self.ledger.record(Degradation::StepBudget { dropped: 1 });
            return Outcomes::none();
        }
        match &stmt.kind {
            StmtKind::Decl(decl) => {
                let region = var_region(&state, &decl.var);
                let states = match &decl.init {
                    Some(init) => self.exec_decl_init(state, &region, init, &decl.ty),
                    None => Outcomes::one(state),
                };
                states.map(|st| (self.snapshot(st, stmt.span), Flow::Normal))
            }
            StmtKind::Expr(None) => Outcomes::one((state, Flow::Normal)),
            StmtKind::Expr(Some(expr)) => self
                .eval(state, expr)
                .map(|(st, _, _)| (self.snapshot(st, stmt.span), Flow::Normal)),
            StmtKind::Block(stmts) => self.exec_block(state, stmts),
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => self.branch(state, cond, |this, side, taken| match (taken, else_s) {
                (true, _) => this.exec(side, then_s),
                (false, Some(else_s)) => this.exec(side, else_s),
                (false, None) => Outcomes::one((side, Flow::Normal)),
            }),
            StmtKind::While { cond, body } => self.exec_loop(state, Some(cond), body, None, false),
            StmtKind::DoWhile { body, cond } => self.exec_loop(state, Some(cond), body, None, true),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let initialized = match init {
                    Some(init) => self.exec(state, init),
                    None => Outcomes::one((state, Flow::Normal)),
                };
                let mut out = Outcomes::none();
                for (st, flow) in initialized {
                    if flow != Flow::Normal {
                        out.push((st, flow));
                        continue;
                    }
                    out.append(self.exec_loop(st, cond.as_ref(), body, step.as_ref(), false));
                }
                out
            }
            StmtKind::Return(value) => match value {
                None => Outcomes::one((state, Flow::Return(None))),
                Some(expr) => self.eval(state, expr).map(|(st, v, t)| {
                    let mut st = self.snapshot(st, stmt.span);
                    let v = self.summarize(&mut st, stmt.span.start, simplify(&v), || {
                        "return".to_string()
                    });
                    (st, Flow::Return(Some((v, t))))
                }),
            },
            StmtKind::Break => Outcomes::one((state, Flow::Break)),
            StmtKind::Continue => Outcomes::one((state, Flow::Continue)),
        }
    }

    fn exec_decl_init(
        &mut self,
        state: State,
        region: &Region,
        init: &Init,
        ty: &Type,
    ) -> Outcomes<State> {
        match init {
            Init::Expr(expr) => self.eval(state, expr).map(|(mut st, v, t)| {
                let v = self.summarize(&mut st, expr.span.start, v, || region_hint(region));
                st.write(region.clone(), v, t);
                st
            }),
            Init::List(items) => {
                let unit = self.unit;
                let subobjects: Vec<(Region, &Init, &Type)> = match ty {
                    Type::Array(elem, _) => items
                        .iter()
                        .enumerate()
                        .map(|(i, item)| (element(region, i as i64), item, elem.as_ref()))
                        .collect(),
                    Type::Struct(name) => unit
                        .struct_def(name)
                        .map(|def| {
                            items
                                .iter()
                                .zip(&def.fields)
                                .map(|(item, f)| {
                                    (Region::field(region.clone(), f.name.as_str()), item, &f.ty)
                                })
                                .collect()
                        })
                        .unwrap_or_default(),
                    _ => Vec::new(),
                };
                let mut states = Outcomes::one(state);
                for (sub, item, sub_ty) in &subobjects {
                    let mut next = Outcomes::none();
                    for st in states {
                        next.append(self.exec_decl_init(st, sub, item, sub_ty));
                    }
                    states = next;
                }
                states
            }
        }
    }

    /// Evaluates the condition of an `if`, a ternary, or the left operand
    /// of `&&` or `||`, forks on each of its values, and runs `arm` on
    /// every feasible side in order.
    fn branch<T>(
        &mut self,
        state: State,
        cond: &Expr,
        mut arm: impl FnMut(&mut Self, State, bool) -> Outcomes<T>,
    ) -> Outcomes<T> {
        let mut out = Outcomes::none();
        for (st, cv, ct) in self.eval(state, cond) {
            for (side, taken) in self.fork(st, &simplify(&cv), &ct, cond.span) {
                out.append(arm(self, side, taken));
            }
        }
        out
    }

    /// Decides a branch on `cond`: probes both sides, then commits each
    /// feasible one (taken side first) to its own state, cloning the state
    /// only when both survive.
    fn fork(
        &mut self,
        state: State,
        cond: &SVal,
        cond_taint: &TaintSet,
        span: Span,
    ) -> Outcomes<(State, bool)> {
        // Decide feasibility with cheap, memoized probes first, then clone
        // the (heavy) state only when both directions survive. The cache is
        // safe here because these probes are speculative: the committed
        // `assume` in `commit_side` still runs directly on the path's
        // constraints.
        let [then_ok, mut else_ok] = [true, false]
            .map(|taken| self.probe(&state, cond, taken, span.start) == Feasibility::Feasible);
        let pruned = u64::from(!then_ok) + u64::from(!else_ok);
        self.profile.bump(span.start, Counter::Infeasible, pruned);
        if cond_taint.is_tainted() {
            self.profile.bump(span.start, Counter::SecretBranches, 1);
        }
        // Bound the work, not just the harvest: once the fork count could
        // already produce `max_paths` leaves, stop splitting and keep only
        // the taken side. `base_forks` carries the count from before this
        // wave, so the decision is identical for every worker layout.
        if then_ok && else_ok {
            let forks = self.base_forks + self.profile.totals().forks;
            if forks >= self.config.max_paths.saturating_mul(4) as u64 {
                self.exhausted = true;
                self.ledger.record(Degradation::PathBudget { dropped: 1 });
                else_ok = false;
            } else {
                self.profile.bump(span.start, Counter::Forks, 1);
            }
        }
        let mut sides = Outcomes::none();
        match (then_ok, else_ok) {
            (true, true) => {
                sides.push(self.commit_side(state.clone(), cond, cond_taint, true, span));
                sides.push(self.commit_side(state, cond, cond_taint, false, span));
            }
            (true, false) => sides.push(self.commit_side(state, cond, cond_taint, true, span)),
            (false, true) => sides.push(self.commit_side(state, cond, cond_taint, false, span)),
            (false, false) => {}
        }
        sides
    }

    /// Commits one feasible branch side to `state`: the constraint and the
    /// Tier-1 refinement, π and π's taint, then the trace snapshot.
    fn commit_side(
        &mut self,
        mut state: State,
        cond: &SVal,
        cond_taint: &TaintSet,
        taken: bool,
        span: Span,
    ) -> (State, bool) {
        let feasibility = state.constraints.assume(cond, taken);
        debug_assert_eq!(feasibility, Feasibility::Feasible);
        // Commit the Tier-1 refinement too; in the default mode the probe
        // already found this very replay feasible.
        state.domain.assume(cond, taken);
        if !cond.is_const() {
            state.path.push(cond.clone(), taken);
        }
        state.pi_taint = taint::cond(cond_taint, &state.pi_taint);
        (self.snapshot(state, span), taken)
    }

    fn exec_loop(
        &mut self,
        state: State,
        cond: Option<&Expr>,
        body: &Stmt,
        step: Option<&Expr>,
        body_first: bool,
    ) -> Flows {
        let write_mark = state.write_log.len();
        let mut out = Outcomes::none();
        // stack of (state, symbolic iterations, concrete iterations,
        // condition already satisfied?)
        let mut queue = Outcomes::one((state, 0, 0, body_first));

        while let Some((st, sym_iter, conc_iter, skip_cond)) = queue.pop() {
            // 1. Evaluate the continuation condition (unless do-while's
            //    first body execution is pending). Track whether the guard
            //    decided concretely (no real fork) — concrete iterations do
            //    not cost path explosion and get a far larger budget.
            let continuing = match cond {
                // for(;;), or do-while's first body execution.
                None => Outcomes::one((st, true)),
                Some(_) if skip_cond => Outcomes::one((st, true)),
                Some(cond_expr) => {
                    let mut conts = Outcomes::none();
                    for (cst, cv, ct) in self.eval(st, cond_expr) {
                        let cv = simplify(&cv);
                        let concrete = cv.is_const()
                            || self.probe(&cst, &cv, true, cond_expr.span.start)
                                == Feasibility::Infeasible
                            || self.probe(&cst, &cv, false, cond_expr.span.start)
                                == Feasibility::Infeasible;
                        for (branch, taken) in self.fork(cst, &cv, &ct, cond_expr.span) {
                            if taken {
                                conts.push((branch, concrete));
                            } else {
                                out.push((branch, Flow::Normal));
                            }
                        }
                    }
                    conts
                }
            };

            // 2. Execute the body in each continuing state.
            for (body_state, concrete) in continuing {
                let over_budget = if concrete {
                    conc_iter >= self.config.concrete_loop_limit
                } else {
                    sym_iter >= self.config.loop_bound
                };
                if over_budget {
                    // Widen: havoc everything the loop wrote, then exit.
                    let mut widened = body_state;
                    let at = cond.map_or(body.span.start, |c| c.span.start);
                    self.widen(&mut widened, write_mark, at);
                    self.profile.bump(at, Counter::Widenings, 1);
                    out.push((widened, Flow::Normal));
                    continue;
                }
                let (next_sym, next_conc) = if concrete {
                    (sym_iter, conc_iter + 1)
                } else {
                    (sym_iter + 1, conc_iter)
                };
                for (after_body, flow) in self.exec(body_state, body) {
                    match flow {
                        Flow::Normal | Flow::Continue => {
                            let stepped = match step {
                                None => Outcomes::one(after_body),
                                Some(step_expr) => {
                                    self.eval(after_body, step_expr).map(|(s, _, _)| s)
                                }
                            };
                            for s in stepped {
                                queue.push((s, next_sym, next_conc, false));
                            }
                        }
                        Flow::Break => out.push((after_body, Flow::Normal)),
                        Flow::Return(v) => out.push((after_body, Flow::Return(v))),
                    }
                }
            }
        }
        out
    }

    /// Havoc-widening at loop `at`: every region written since `mark` is
    /// rebound to a symbol conjured for it (slot i for the i-th region)
    /// that keeps the region's (joined) taint, so bounded unrolling stays
    /// sound for taint while guaranteeing termination.
    fn widen(&mut self, state: &mut ExecState, mark: usize, at: usize) {
        self.ledger.record(Degradation::LoopWidened { count: 1 });
        let written: BTreeSet<Region> = state.write_log.iter_from(mark).cloned().collect();
        let visit = state.visit(at);
        for (slot, region) in written.into_iter().enumerate() {
            // A freed frame's locals are the only written regions the store
            // no longer binds: binding them again would bring them back.
            // They keep their slot, so every other symbol keeps its key.
            if state.store.get(&region).is_none() {
                continue;
            }
            let key = conjured(at, visit, slot as u64);
            let sym = Symbol::of(&key, format!("widened({})", region_hint(&region)));
            let taint = state.taint_of(&region);
            state.store.bind(region, SVal::Sym(sym), taint);
        }
    }

    fn snapshot(&mut self, mut state: State, span: Span) -> State {
        if self.config.record_trace && state.frames.len() == 1 {
            let text = self
                .source
                .map(|src| span.slice(src).to_string())
                .unwrap_or_else(|| format!("<bytes {span}>"));
            let step = TraceStep::capture(&text, &state);
            state.trace.push(step);
        }
        state
    }
}

/// The region of a variable sema resolved: a local in the current frame,
/// or a global.
fn var_region(state: &ExecState, var: &Option<Var>) -> Region {
    match var.as_ref().expect("sema resolves every variable") {
        Var::Local(name) => Region::Var {
            frame: state.frame(),
            name: name.clone(),
        },
        Var::Global(name) => Region::Global { name: name.clone() },
    }
}

/// Whether a pointer may reach a local of `func`'s frame, so that its
/// bindings must outlive the call: the body takes an address (`&`), or a
/// parameter or local is neither a scalar nor a pointer (an array decays
/// to a pointer to its own region; a struct's fields are subregions of
/// it). A frame that no pointer reaches is dead once the call returns:
/// frame ids are never reused, so nothing can name its locals again.
fn frame_escapes(func: &Function) -> bool {
    fn takes_address(expr: &Expr) -> bool {
        let mut found = false;
        expr.walk(&mut |e| found |= matches!(e.kind, ExprKind::AddrOf(_)));
        found
    }
    fn init_escapes(init: &Init) -> bool {
        match init {
            Init::Expr(expr) => takes_address(expr),
            Init::List(items) => items.iter().any(init_escapes),
        }
    }
    fn stmt_escapes(stmt: &Stmt) -> bool {
        match &stmt.kind {
            StmtKind::Decl(decl) => {
                !decl.ty.is_scalar() || decl.init.as_ref().is_some_and(init_escapes)
            }
            StmtKind::Expr(expr) | StmtKind::Return(expr) => {
                expr.as_ref().is_some_and(takes_address)
            }
            StmtKind::Block(stmts) => stmts.iter().any(stmt_escapes),
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => {
                takes_address(cond)
                    || stmt_escapes(then_s)
                    || else_s.as_deref().is_some_and(stmt_escapes)
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                takes_address(cond) || stmt_escapes(body)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                init.as_deref().is_some_and(stmt_escapes)
                    || cond.as_ref().is_some_and(takes_address)
                    || step.as_ref().is_some_and(takes_address)
                    || stmt_escapes(body)
            }
            StmtKind::Break | StmtKind::Continue => false,
        }
    }
    func.params.iter().any(|param| !param.ty.is_scalar())
        || func.body.iter().flatten().any(stmt_escapes)
}

fn element(base: &Region, index: i64) -> Region {
    Region::element(base.clone(), SVal::Int(index))
}

fn join_all(values: &[(SVal, TaintSet)]) -> TaintSet {
    let mut out = TaintSet::bottom();
    for (_, t) in values {
        out.join_assign(t);
    }
    out
}

/// Whether the arms of a call return or a conditional expression may
/// join: every arm agrees with the first on everything but π, the step
/// count, the trace and the environment; no value is a pointer; and the
/// shared π-taint is a plain ⊤. ⊤ absorbs every later join, so no
/// observation on the merged path can reach `hm` or the timing check,
/// which compare values across paths whose π depends on a single secret. A ⊥ or single-source π must
/// stay forked: one `ite` observation would stand in for two distinct
/// values.
fn mergeable(results: &EvalResults) -> bool {
    let mut arms = results.iter();
    let Some((first, first_value, _)) = arms.next() else {
        return false;
    };
    let pi = &first.pi_taint;
    let plain = |value: &SVal| !matches!(value, SVal::Loc(_));
    pi.len() >= 2
        && !pi.is_merged()
        && plain(first_value)
        && arms.all(|(st, value, _)| {
            plain(value)
                && st.next_frame == first.next_frame
                && st.pi_taint == *pi
                && st.secret_bases == first.secret_bases
                && st.events == first.events
                && st.write_log == first.write_log
                && st.constraints == first.constraints
                && st.domain == first.domain
                && st.store == first.store
        })
}

/// Splits a region reached through an `ite` element index into its two
/// arms, `(cond, then, else)`, when every arm index is a constant; any
/// other index stays one symbolic element.
fn split_ite_region(region: &Region) -> Option<(SVal, Region, Region)> {
    fn constant_arms(index: &SVal) -> bool {
        match index {
            SVal::Int(_) => true,
            SVal::Ite { then, els, .. } => constant_arms(then) && constant_arms(els),
            _ => false,
        }
    }
    match region {
        Region::Element { base, index } => match index.as_ref() {
            SVal::Ite { cond, then, els } if constant_arms(index) => {
                let arm = |index: &HC<SVal>| Region::Element {
                    base: base.clone(),
                    index: index.clone(),
                };
                Some((cond.as_ref().clone(), arm(then), arm(els)))
            }
            _ => {
                let (cond, then, els) = split_ite_region(base)?;
                let arm = |base| Region::Element {
                    base: HC::new(base),
                    index: index.clone(),
                };
                Some((cond, arm(then), arm(els)))
            }
        },
        Region::Field { base, field } => {
            let (cond, then, els) = split_ite_region(base)?;
            Some((
                cond,
                Region::field(then, field.clone()),
                Region::field(els, field.clone()),
            ))
        }
        _ => None,
    }
}

fn cast_value(value: SVal, ty: &Type) -> SVal {
    match (&value, ty) {
        (SVal::Float(f), t) if t.is_integer() => SVal::Int(f.0 as i64),
        (SVal::Int(v), t) if t.is_float() => SVal::float(*v as f64),
        (SVal::Int(v), Type::Char) => SVal::Int(*v as i8 as i64),
        (SVal::Int(v), Type::Int) => SVal::Int(*v as i32 as i64),
        // Symbolic values pass through casts unchanged (documented
        // imprecision, identical to the paper's prototype).
        _ => value,
    }
}

/// Renders a region as a human-readable hint (`secrets[0]`, `p.x`).
pub fn region_hint(region: &Region) -> String {
    match region {
        Region::Var { name, .. } | Region::Global { name } => name.to_string(),
        Region::Sym { symbol } => symbol.hint.to_string(),
        Region::Element { base, index } => format!("{}[{index}]", region_hint(base)),
        Region::Field { base, field } => format!("{}.{field}", region_hint(base)),
        Region::Str { .. } => "str".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explore(src: &str, entry: &str, bindings: &[ParamBinding]) -> Exploration {
        let unit = minic::parse(src).expect("parses");
        Engine::new(&unit, EngineConfig::default())
            .run(entry, bindings)
            .expect("runs")
    }

    #[test]
    fn straight_line_single_path() {
        let ex = explore(
            "int f(int a) { int b = a + 1; return b * 2; }",
            "f",
            &[ParamBinding::Scalar],
        );
        assert_eq!(ex.paths.len(), 1);
        let (value, _) = ex.paths[0].return_value.as_ref().unwrap();
        assert_eq!(value.to_string(), "(($a + 1) * 2)");
    }

    #[test]
    fn branch_forks_two_paths() {
        let ex = explore(
            "int f(int a) { if (a > 0) return 1; return 0; }",
            "f",
            &[ParamBinding::Scalar],
        );
        assert_eq!(ex.paths.len(), 2);
        let returns: BTreeSet<String> = ex
            .paths
            .iter()
            .map(|p| p.return_value.as_ref().unwrap().0.to_string())
            .collect();
        assert_eq!(returns, ["0", "1"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn infeasible_branch_is_pruned() {
        let ex = explore(
            "int f(int a) { if (a > 10) { if (a < 5) return 99; return 1; } return 0; }",
            "f",
            &[ParamBinding::Scalar],
        );
        let returns: Vec<String> = ex
            .paths
            .iter()
            .map(|p| p.return_value.as_ref().unwrap().0.to_string())
            .collect();
        assert!(!returns.contains(&"99".to_string()));
        assert_eq!(ex.paths.len(), 2);
        assert!(ex.stats.infeasible >= 1);
    }

    #[test]
    fn concrete_condition_does_not_fork() {
        let ex = explore(
            "int f() { int a = 3; if (a > 1) return 1; return 0; }",
            "f",
            &[],
        );
        assert_eq!(ex.paths.len(), 1);
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(1));
    }

    #[test]
    fn secret_scalar_taints_return() {
        let ex = explore(
            "int f(int h) { return h + 4; }",
            "f",
            &[ParamBinding::SecretScalar],
        );
        let (value, taint) = ex.paths[0].return_value.as_ref().unwrap();
        assert_eq!(value.to_string(), "($h + 4)");
        assert!(taint.is_reversible());
    }

    #[test]
    fn two_secrets_mix_to_top() {
        let ex = explore(
            "int f(int h1, int h2) { return h1 + 4 + h2; }",
            "f",
            &[ParamBinding::SecretScalar, ParamBinding::SecretScalar],
        );
        let (_, taint) = ex.paths[0].return_value.as_ref().unwrap();
        assert_eq!(taint.label(), taint::Label::Top);
    }

    #[test]
    fn secret_pointer_elements_mint_distinct_sources() {
        let ex = explore(
            "int f(char *s) { return s[0] + s[1]; }",
            "f",
            &[ParamBinding::SecretPointer],
        );
        let (_, taint) = ex.paths[0].return_value.as_ref().unwrap();
        assert_eq!(taint.len(), 2);
        assert_eq!(ex.secret_sources.len(), 2);
        let names: Vec<&str> = ex.secret_sources.values().map(|s| s.as_str()).collect();
        assert!(names.contains(&"s[0]") && names.contains(&"s[1]"));
    }

    #[test]
    fn a_secret_read_after_a_fork_is_one_source_on_both_paths() {
        let ex = explore(
            "int f(char *s, int p) { int r = 0; if (p > 0) r = 1; return s[0] + r; }",
            "f",
            &[ParamBinding::SecretPointer, ParamBinding::Scalar],
        );
        assert_eq!(ex.paths.len(), 2);
        assert_eq!(ex.secret_sources.len(), 1);
        let taints: BTreeSet<_> = ex
            .paths
            .iter()
            .map(|p| p.return_value.as_ref().unwrap().1.clone())
            .collect();
        assert_eq!(taints.len(), 1, "both paths hold the one source");
    }

    #[test]
    fn one_id_under_two_keys_is_a_collision() {
        let mut table = SourceTable::new();
        let key = |name: &str| SymbolKey::RegionValue(Region::Global { name: name.into() });
        assert_eq!(add_source(&mut table, 7, key("a"), "a".into()), Ok(()));
        // The same key again is the same source.
        assert_eq!(add_source(&mut table, 7, key("a"), "a".into()), Ok(()));
        let error = add_source(&mut table, 7, key("b"), "b".into()).unwrap_err();
        assert!(
            matches!(&error, EngineError::SourceCollision { id: 7, first, second }
                if first == "value of ::a" && second == "value of ::b"),
            "{error:?}"
        );
        assert_eq!(table.len(), 1, "the first key keeps the id");
    }

    #[test]
    fn same_element_read_twice_is_same_source() {
        let ex = explore(
            "int f(char *s) { return s[0] + s[0]; }",
            "f",
            &[ParamBinding::SecretPointer],
        );
        let (_, taint) = ex.paths[0].return_value.as_ref().unwrap();
        assert_eq!(taint.len(), 1);
    }

    #[test]
    fn out_pointer_writes_are_visible_in_store() {
        let ex = explore(
            "void f(char *s, char *out) { out[0] = s[0] + 100; }",
            "f",
            &[ParamBinding::SecretPointer, ParamBinding::OutPointer],
        );
        assert_eq!(ex.out_bases.len(), 1);
        let (_, base) = &ex.out_bases[0];
        let st = &ex.paths[0].state;
        let writes: Vec<_> = st.store.regions_within(base).collect();
        assert_eq!(writes.len(), 1);
        let (region, value, taint) = writes[0];
        assert!(taint.is_reversible());
        assert_eq!(st.taint_of(region), *taint);
        assert!(value.to_string().contains("s[0]"));
    }

    #[test]
    fn branch_on_secret_taints_pi() {
        let ex = explore(
            "int f(int h) { if (h == 19) return 0; return 1; }",
            "f",
            &[ParamBinding::SecretScalar],
        );
        assert_eq!(ex.paths.len(), 2);
        for path in &ex.paths {
            assert!(path.state.pi_taint.is_reversible());
        }
    }

    #[test]
    fn loops_are_bounded_and_widen() {
        let ex = explore(
            "int f(int n) { int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
            "f",
            &[ParamBinding::Scalar],
        );
        assert!(!ex.paths.is_empty());
        assert!(ex.stats.widenings >= 1);
        // the widened return is a fresh symbol, not a concrete sum
        let widened = ex.paths.iter().any(|p| {
            p.return_value
                .as_ref()
                .unwrap()
                .0
                .to_string()
                .contains("widened")
        });
        assert!(widened);
    }

    #[test]
    fn concrete_loop_unrolls_exactly() {
        let ex = explore(
            "int f() { int s = 0; for (int i = 0; i < 3; i++) s += 2; return s; }",
            "f",
            &[],
        );
        assert_eq!(ex.paths.len(), 1);
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(6));
    }

    #[test]
    fn taint_survives_widening() {
        let ex = explore(
            "int f(char *s, int n) { int acc = 0; int i = 0; while (i < n) { acc = acc + s[0]; i++; } return acc; }",
            "f",
            &[ParamBinding::SecretPointer, ParamBinding::Scalar],
        );
        // at least one path returns a secret-tainted accumulator
        assert!(ex
            .paths
            .iter()
            .any(|p| p.return_value.as_ref().unwrap().1.is_tainted()));
    }

    #[test]
    fn calls_are_inlined() {
        let ex = explore(
            "int dbl(int x) { return 2 * x; }\nint f(int h) { return dbl(h); }",
            "f",
            &[ParamBinding::SecretScalar],
        );
        let (value, taint) = ex.paths[0].return_value.as_ref().unwrap();
        assert_eq!(value.to_string(), "(2 * $h)");
        assert!(taint.is_reversible());
    }

    #[test]
    fn callee_branches_fork_caller_paths() {
        let ex = explore(
            "int sgn(int x) { if (x < 0) return -1; return 1; }\nint f(int a) { return sgn(a); }",
            "f",
            &[ParamBinding::Scalar],
        );
        assert_eq!(ex.paths.len(), 2);
    }

    #[test]
    fn recursion_beyond_depth_is_uninterpreted() {
        let src = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\nint f(int n) { return fact(n); }";
        let unit = minic::parse(src).unwrap();
        let config = EngineConfig {
            inline_depth: 3,
            ..EngineConfig::default()
        };
        let ex = Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
        assert!(!ex.paths.is_empty());
        assert!(ex.paths.iter().any(|p| p
            .return_value
            .as_ref()
            .unwrap()
            .0
            .to_string()
            .contains("fact")));
    }

    #[test]
    fn uninterpreted_builtins_carry_taint() {
        let ex = explore(
            "double f(double h) { return sqrt(h); }",
            "f",
            &[ParamBinding::SecretScalar],
        );
        let (value, taint) = ex.paths[0].return_value.as_ref().unwrap();
        assert_eq!(value.to_string(), "sqrt($h)");
        assert!(taint.is_reversible());
    }

    #[test]
    fn sink_function_records_events() {
        let src = "void send(int v);\nvoid f(int h) { send(h * 2); }";
        let unit = minic::parse(src).unwrap();
        let mut config = EngineConfig::default();
        config.sink_functions.insert("send".into());
        let ex = Engine::new(&unit, config)
            .run("f", &[ParamBinding::SecretScalar])
            .unwrap();
        let events = &ex.paths[0].state.events;
        assert_eq!(events.len(), 1);
        let event = events.get(0).expect("one event");
        assert!(matches!(event.channel, Channel::SinkCall { .. }));
        assert!(event.taint.is_reversible());
    }

    #[test]
    fn source_function_mints_secret() {
        let src = "int ipp_aes_decrypt(char *dst, char *src, int n);\nint f(char *buf) { int k = ipp_aes_decrypt(buf, buf, 4); return k; }";
        let unit = minic::parse(src).unwrap();
        let mut config = EngineConfig::default();
        config.source_functions.insert("ipp_aes_decrypt".into());
        let ex = Engine::new(&unit, config)
            .run("f", &[ParamBinding::Pointer])
            .unwrap();
        let (_, taint) = ex.paths[0].return_value.as_ref().unwrap();
        assert!(taint.is_reversible());
    }

    #[test]
    fn struct_fields_are_separate_regions() {
        let ex = explore(
            "struct p { int x; int y; };\nint f(struct p *q) { q->x = 1; q->y = 2; return q->x + q->y; }",
            "f",
            &[ParamBinding::Pointer],
        );
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(3));
    }

    #[test]
    fn arrays_and_pointer_arithmetic_agree() {
        let ex = explore(
            "int f() { int xs[3]; xs[0] = 7; *(xs + 1) = 8; return xs[0] + xs[1]; }",
            "f",
            &[],
        );
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(15));
    }

    #[test]
    fn binding_errors() {
        let unit = minic::parse("int f(int a) { return a; }").unwrap();
        let engine = Engine::new(&unit, EngineConfig::default());
        assert!(matches!(
            engine.run("g", &[]),
            Err(EngineError::UnknownFunction(_))
        ));
        assert!(matches!(
            engine.run("f", &[]),
            Err(EngineError::BindingArity { .. })
        ));
        assert!(matches!(
            engine.run("f", &[ParamBinding::Pointer]),
            Err(EngineError::BindingType { .. })
        ));
    }

    #[test]
    fn trace_records_listing1_shape() {
        let src = "int enclave_process_data(char *secrets, char *output) {\n    int temporary = secrets[0] + 100;\n    output[0] = temporary + 1;\n    if (secrets[1] == 0)\n        return 0;\n    else\n        return 1;\n}";
        let unit = minic::parse(src).unwrap();
        let config = EngineConfig {
            record_trace: true,
            ..EngineConfig::default()
        };
        let ex = Engine::new(&unit, config)
            .with_source(src)
            .run(
                "enclave_process_data",
                &[ParamBinding::SecretPointer, ParamBinding::OutPointer],
            )
            .unwrap();
        assert_eq!(ex.paths.len(), 2);
        let traces = ex.traces();
        assert!(traces.iter().all(|t| !t.is_empty()));
        let rendered = crate::trace::render_table(&traces);
        assert!(rendered.contains("secrets[0]"));
    }

    #[test]
    fn break_and_continue() {
        let ex = explore(
            "int f() { int s = 0; for (int i = 0; i < 10; i++) { if (i == 2) continue; if (i == 4) break; s += i; } return s; }",
            "f",
            &[],
        );
        assert_eq!(ex.paths.len(), 1);
        // 0 + 1 + 3 = 4
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(4));
    }

    #[test]
    fn do_while_executes_body_first() {
        let ex = explore(
            "int f() { int i = 10; int c = 0; do { c++; i++; } while (i < 5); return c; }",
            "f",
            &[],
        );
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(1));
    }

    #[test]
    fn memcpy_copies_values_and_taint() {
        let ex = explore(
            "void f(char *s, char *out) { char tmp[4]; memcpy(tmp, s, 2); out[0] = tmp[0]; }",
            "f",
            &[ParamBinding::SecretPointer, ParamBinding::OutPointer],
        );
        let (_, base) = &ex.out_bases[0];
        let st = &ex.paths[0].state;
        let (_, _, taint) = st.store.regions_within(base).next().expect("a write");
        assert!(taint.is_reversible());
    }

    #[test]
    fn ternary_on_secret_forks_like_if() {
        // Like an `if`, a secret condition forks and taints π, not the
        // selected value; a single-source π keeps the two paths apart.
        let ex = explore(
            "int f(int h) { int r = h > 0 ? 1 : 0; return r; }",
            "f",
            &[ParamBinding::SecretScalar],
        );
        let returns: Vec<_> = ex
            .paths
            .iter()
            .map(|p| {
                assert!(p.state.pi_taint.is_tainted());
                p.return_value.clone().expect("returns")
            })
            .collect();
        assert_eq!(
            returns,
            [
                (SVal::Int(1), TaintSet::bottom()),
                (SVal::Int(0), TaintSet::bottom())
            ]
        );
    }

    #[test]
    fn global_initializers_are_applied() {
        let ex = explore("int limit = 41;\nint f() { return limit + 1; }", "f", &[]);
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(42));
    }

    #[test]
    fn shadowed_locals_do_not_collide() {
        let ex = explore(
            "int f() { int x = 1; { int x = 2; x = x + 1; } return x; }",
            "f",
            &[],
        );
        assert_eq!(ex.paths[0].return_value.as_ref().unwrap().0, SVal::Int(1));
    }

    #[test]
    fn incdec_forms() {
        let ex = explore(
            "int f() { int i = 5; int a = i++; int b = ++i; int c = i--; int d = --i; return a * 1000 + b * 100 + c * 10 + d; }",
            "f",
            &[],
        );
        // a=5, b=7, c=7, d=5
        assert_eq!(
            ex.paths[0].return_value.as_ref().unwrap().0,
            SVal::Int(5 * 1000 + 7 * 100 + 7 * 10 + 5)
        );
    }

    #[test]
    fn return_events_cover_dropped_paths() {
        // 2^4 = 16 paths from 4 independent bit tests, budget 4: every
        // return observation must reach the global event log, kept or
        // dropped alike (Algorithm 1 checks at declassify time).
        let mut body = String::from("int f(int a) { int s = 0;\n");
        for i in 0..4 {
            body.push_str(&format!("if ((a >> {i}) & 1) s += 1;\n"));
        }
        body.push_str("return s; }");
        let unit = minic::parse(&body).unwrap();
        let config = EngineConfig {
            max_paths: 4,
            ..EngineConfig::default()
        };
        let ex = Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
        assert!(ex.exhausted);
        assert_eq!(ex.stats.completed, 4);
        assert_eq!(ex.stats.dropped_paths, 12);
        let global_returns = ex
            .events
            .iter()
            .filter(|e| matches!(e.channel, Channel::Return))
            .count();
        assert_eq!(global_returns, ex.stats.completed + ex.stats.dropped_paths);
        // Kept paths still carry their own copy, like sink events do.
        assert!(ex.paths.iter().all(|p| p
            .state
            .events
            .iter()
            .any(|e| matches!(e.channel, Channel::Return))));
    }

    #[test]
    fn workers_produce_identical_explorations() {
        // Branches, a widened loop, an inlined call, a sink and a source
        // function all create symbols; the parallel run must be
        // byte-identical.
        let src = "int ipp_decrypt(char *dst, char *src, int n);\n\
                   void send(int v);\n\
                   int helper(int x) { if (x > 3) return x + 1; return x; }\n\
                   int f(char *s, int n, char *out) {\n\
                       int acc = 0;\n\
                       int i = 0;\n\
                       while (i < n) { acc = acc + s[0]; i = i + 1; }\n\
                       if (s[1] > 7) acc = helper(acc);\n\
                       ipp_decrypt(out, s, 2);\n\
                       send(acc);\n\
                       out[0] = acc;\n\
                       return acc;\n\
                   }";
        let unit = minic::parse(src).unwrap();
        let bindings = [
            ParamBinding::SecretPointer,
            ParamBinding::Scalar,
            ParamBinding::InOutPointer,
        ];
        let mut base = EngineConfig::default();
        base.sink_functions.insert("send".into());
        base.source_functions.insert("ipp_decrypt".into());
        let sequential = Engine::new(
            &unit,
            EngineConfig {
                workers: 1,
                ..base.clone()
            },
        )
        .run("f", &bindings)
        .unwrap();
        for workers in [2, 4] {
            let parallel = Engine::new(
                &unit,
                EngineConfig {
                    workers,
                    ..base.clone()
                },
            )
            .run("f", &bindings)
            .unwrap();
            assert_eq!(sequential, parallel, "workers={workers} diverged");
        }
        // Sanity: the workload actually forked and minted secret sources.
        assert!(sequential.paths.len() > 1);
        assert!(!sequential.secret_sources.is_empty());
    }

    #[test]
    fn path_budget_truncates() {
        // 2^12 paths from 12 independent bit tests (the range-based
        // constraint manager cannot correlate them); budget of 16.
        let mut body = String::from("int f(int a) { int s = 0;\n");
        for i in 0..12 {
            body.push_str(&format!("if ((a >> {i}) & 1) s += 1;\n"));
        }
        body.push_str("return s; }");
        let unit = minic::parse(&body).unwrap();
        let config = EngineConfig {
            max_paths: 16,
            ..EngineConfig::default()
        };
        let ex = Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
        assert!(ex.exhausted);
        assert_eq!(ex.paths.len(), 16);
        assert!(ex
            .ledger
            .entries()
            .iter()
            .any(|d| matches!(d, Degradation::PathBudget { .. })));
    }

    #[test]
    fn effective_workers_clamps_to_available_parallelism() {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let auto = EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        };
        assert_eq!(auto.effective_workers(), available);
        let oversubscribed = EngineConfig {
            workers: available + 512,
            ..EngineConfig::default()
        };
        assert_eq!(oversubscribed.effective_workers(), available);
        let modest = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        assert_eq!(modest.effective_workers(), 1);
    }

    const BRANCHY: &str = "int f(int a) {\n\
                           int s = 0;\n\
                           if ((a >> 0) & 1) s += 1;\n\
                           if ((a >> 1) & 1) s += 2;\n\
                           if ((a >> 2) & 1) s += 4;\n\
                           if ((a >> 3) & 1) s += 8;\n\
                           return s; }";

    #[test]
    fn expired_deadline_cuts_at_wave_zero_deterministically() {
        let unit = minic::parse(BRANCHY).unwrap();
        let mut runs = Vec::new();
        for workers in [1, 4] {
            let config = EngineConfig {
                workers,
                deadline: Some(Duration::ZERO),
                ..EngineConfig::default()
            };
            let ex = Engine::new(&unit, config)
                .run("f", &[ParamBinding::Scalar])
                .unwrap();
            assert!(ex.exhausted);
            assert_eq!(ex.paths.len(), 0);
            assert_eq!(ex.stats.dropped_deadline, 1);
            assert!(matches!(
                ex.ledger.entries(),
                [Degradation::DeadlineExceeded {
                    wave: 0,
                    dropped: 1
                }]
            ));
            runs.push(ex);
        }
        assert_eq!(runs[0], runs[1], "deadline cut diverged across workers");
    }

    #[test]
    fn cancellation_token_stops_the_run() {
        let unit = minic::parse(BRANCHY).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let config = EngineConfig {
            cancel: cancel.clone(),
            ..EngineConfig::default()
        };
        let ex = Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
        assert!(ex.exhausted);
        assert!(ex.paths.is_empty());
        assert!(matches!(
            ex.ledger.entries(),
            [Degradation::Cancelled { wave: 0, .. }]
        ));
    }

    #[test]
    fn panicking_path_is_isolated_and_deterministic() {
        // The fork happens one wave before the panicking call, so `boom`
        // runs in its own path-task; the other path must survive
        // untouched, identically at every worker count.
        let src = "void boom(void);\n\
                   int f(int a) {\n\
                       int hit = 0;\n\
                       if (a > 0) hit = 1;\n\
                       if (hit) boom();\n\
                       return hit; }";
        let unit = minic::parse(src).unwrap();
        let mut runs = Vec::new();
        for workers in [1, 4] {
            let config = EngineConfig {
                workers,
                inject_panic_on_call: Some("boom".into()),
                ..EngineConfig::default()
            };
            let ex = Engine::new(&unit, config)
                .run("f", &[ParamBinding::Scalar])
                .unwrap();
            assert!(ex.exhausted);
            assert_eq!(ex.stats.dropped_panics, 1);
            assert_eq!(ex.paths.len(), 1);
            assert_eq!(
                ex.paths[0].return_value.as_ref().map(|(v, _)| v.clone()),
                Some(SVal::Int(0))
            );
            assert!(ex.ledger.entries().iter().any(|d| matches!(
                d,
                Degradation::PathPanicked { message } if message.contains("boom")
            )));
            runs.push(ex);
        }
        assert_eq!(runs[0], runs[1], "panic isolation diverged across workers");
    }

    #[test]
    fn step_budget_lands_in_the_ledger() {
        let src = "int f(int a) { int i = 0; while (i < 100) { i = i + 1; } return i; }";
        let unit = minic::parse(src).unwrap();
        let config = EngineConfig {
            max_steps_per_path: 10,
            ..EngineConfig::default()
        };
        let ex = Engine::new(&unit, config)
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
        assert!(ex.exhausted);
        assert!(ex
            .ledger
            .entries()
            .iter()
            .any(|d| matches!(d, Degradation::StepBudget { .. })));
    }

    fn tmp_snapshot_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "privacyscope_engine_{tag}_{}.ckpt",
            std::process::id()
        ))
    }

    #[test]
    fn deadline_checkpoint_resumes_to_identical_exploration() {
        let unit = minic::parse(BRANCHY).unwrap();
        for workers in [1, 4] {
            let path = tmp_snapshot_path(&format!("deadline_w{workers}"));
            let interrupted = Engine::new(
                &unit,
                EngineConfig {
                    workers,
                    deadline: Some(Duration::ZERO),
                    checkpoint: Some(path.clone()),
                    ..EngineConfig::default()
                },
            )
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
            // The interrupted run still reports its own degradation, but it
            // left a resumable snapshot behind and says so.
            assert!(matches!(
                interrupted.ledger.entries(),
                [Degradation::DeadlineExceeded { .. }]
            ));
            assert_eq!(interrupted.checkpoint.as_deref(), Some(path.as_path()));

            let snapshot = Snapshot::load(&path).expect("snapshot loads");
            let resumed = Engine::new(
                &unit,
                EngineConfig {
                    workers,
                    ..EngineConfig::default()
                },
            )
            .resume("f", &[ParamBinding::Scalar], snapshot)
            .unwrap();
            let uninterrupted = Engine::new(
                &unit,
                EngineConfig {
                    workers,
                    ..EngineConfig::default()
                },
            )
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
            assert_eq!(
                resumed, uninterrupted,
                "resume diverged from the uninterrupted run at workers={workers}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn yield_hook_suspends_into_a_resumable_snapshot() {
        let unit = minic::parse(BRANCHY).unwrap();
        for workers in [1, 4] {
            let path = tmp_snapshot_path(&format!("yield_w{workers}"));
            let hook = YieldToken::new();
            hook.request();
            let suspended = Engine::new(
                &unit,
                EngineConfig {
                    workers,
                    yield_hook: hook.clone(),
                    checkpoint: Some(path.clone()),
                    ..EngineConfig::default()
                },
            )
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
            // The suspended run is honestly partial (its paths were parked,
            // not explored) and points at the snapshot to resume from.
            assert!(suspended.paths.is_empty());
            assert!(matches!(
                suspended.ledger.entries(),
                [Degradation::Suspended {
                    wave: 0,
                    dropped: 1
                }]
            ));
            assert!(!suspended.ledger.is_complete());
            assert_eq!(suspended.checkpoint.as_deref(), Some(path.as_path()));

            // Migration: clear the token, resume elsewhere — the result is
            // byte-identical to a run that was never suspended.
            hook.clear();
            let snapshot = Snapshot::load(&path).expect("snapshot loads");
            let resumed = Engine::new(
                &unit,
                EngineConfig {
                    workers,
                    yield_hook: hook,
                    ..EngineConfig::default()
                },
            )
            .resume("f", &[ParamBinding::Scalar], snapshot)
            .unwrap();
            let uninterrupted = Engine::new(
                &unit,
                EngineConfig {
                    workers,
                    ..EngineConfig::default()
                },
            )
            .run("f", &[ParamBinding::Scalar])
            .unwrap();
            assert_eq!(
                resumed, uninterrupted,
                "suspend/resume diverged from the uninterrupted run at workers={workers}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn periodic_snapshot_survives_engine_drop_and_resumes_identically() {
        let unit = minic::parse(BRANCHY).unwrap();
        let path = tmp_snapshot_path("periodic");
        let full = {
            // Scope the writing engine so resume happens against a fresh
            // engine with nothing shared — the snapshot on disk is the only
            // carrier, as after a process death.
            let engine = Engine::new(
                &unit,
                EngineConfig {
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 1,
                    ..EngineConfig::default()
                },
            );
            engine.run("f", &[ParamBinding::Scalar]).unwrap()
        };
        assert_eq!(full.checkpoint.as_deref(), Some(path.as_path()));

        let snapshot = Snapshot::load(&path).expect("snapshot loads");
        assert!(snapshot.wave() > 0, "periodic snapshot is past wave zero");
        let resumed = Engine::new(&unit, EngineConfig::default())
            .resume("f", &[ParamBinding::Scalar], snapshot)
            .unwrap();
        // The writing run records the snapshot path it produced; the resumed
        // run wrote none. Every analysis-visible field must match exactly.
        let mut full = full;
        full.checkpoint = None;
        assert_eq!(resumed, full, "resume from a mid-run snapshot diverged");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_with_mismatched_config_is_a_typed_error() {
        let unit = minic::parse(BRANCHY).unwrap();
        let path = tmp_snapshot_path("mismatch");
        Engine::new(
            &unit,
            EngineConfig {
                deadline: Some(Duration::ZERO),
                checkpoint: Some(path.clone()),
                ..EngineConfig::default()
            },
        )
        .run("f", &[ParamBinding::Scalar])
        .unwrap();
        let snapshot = Snapshot::load(&path).expect("snapshot loads");
        let err = Engine::new(
            &unit,
            EngineConfig {
                loop_bound: 7,
                ..EngineConfig::default()
            },
        )
        .resume("f", &[ParamBinding::Scalar], snapshot)
        .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Checkpoint(
                    crate::checkpoint::CheckpointError::FingerprintMismatch { .. }
                )
            ),
            "expected a typed fingerprint mismatch, got: {err}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
