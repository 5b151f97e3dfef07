//! Analysis as a service: a shared, long-lived [`AnalysisService`] that
//! runs many analysis jobs concurrently on a fixed worker pool.
//!
//! This is the in-process engine behind the `privacyscoped` daemon, but it
//! is a plain library type: embedders submit [`JobSpec`]s, get back opaque
//! job ids, and wait for [`JobOutcome`]s. The service owns:
//!
//! * a FIFO **run queue** drained by `pool` worker threads — admission
//!   order is service order, so no job starves behind later arrivals;
//! * the **job lifecycle** `queued → running → suspended → done/failed`.
//!   A suspended job parked its exploration into a PR 3 checkpoint at a
//!   wave boundary and re-entered the queue at the tail; when it reaches
//!   the front again the next worker resumes it from the snapshot —
//!   possibly a *different* worker thread (job migration). The checkpoint
//!   invariant guarantees the final report is byte-identical to an
//!   uninterrupted run;
//! * **fair round-robin scheduling**: with a time slice configured, a
//!   background scheduler arms the [`YieldToken`] of any running job that
//!   has held a worker past its slice while other jobs wait, converting
//!   pool monopolisation into suspension + requeue;
//! * **per-job deadlines**: a job's wall-clock budget is fixed at first
//!   start and each slice runs with the *remaining* budget, so suspension
//!   cannot be used to outlive a deadline;
//! * **progress streaming**: a job submitted with a progress callback gets
//!   a private telemetry handle whose JSONL trace records are forwarded,
//!   line by line, as they happen (the daemon relays them to the client).
//!
//! Telemetry is observational and the yield/cancel tokens are excluded
//! from checkpoint fingerprints, so none of this machinery perturbs
//! analysis results: the same [`JobSpec`] yields the same reports whether
//! it ran via the CLI, on a 1-worker pool, on an 8-worker pool, or across
//! a suspend/resume migration.
//!
//! # Crash recovery and overload resilience
//!
//! Every lifecycle transition is durably journaled (see [`crate::journal`])
//! before it takes effect, so a `kill -9` loses no admitted job: on the
//! next [`AnalysisService::start`] with the same spool directory, a
//! recovery pass replays the journal, re-enqueues jobs that never
//! finished (resuming suspended ones from their validated spool
//! checkpoints), garbage-collects orphaned spool files, and compacts the
//! journal. A recovered job's report is byte-identical to an
//! uninterrupted run — re-execution and checkpoint resume are both
//! deterministic.
//!
//! Admission is bounded: [`ServiceConfig::max_queue`] caps queue depth
//! and [`ServiceConfig::max_job_paths`] caps the per-job path budget;
//! [`AnalysisService::submit`] returns a typed [`RejectReason`] instead
//! of wedging the pool. [`AnalysisService::drain`] implements graceful
//! shutdown: stop admitting, park running jobs at their next wave
//! boundary into the spool (journaled), and leave the queue for the next
//! start to recover.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use symexec::degrade::{CancelToken, Degradation, YieldToken};

use crate::analyzer::{Analyzer, AnalyzerOptions};
use crate::journal::{self, Journal, JournalRecord, RecoverySummary};
use crate::report::Report;

/// Locks a mutex, riding through poisoning: a worker that panicked while
/// holding the scheduler lock must not wedge the whole service (the state
/// it guards is a queue + status map, always structurally valid).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything needed to run one analysis job: the enclave inputs plus the
/// per-job engine options the CLI would have taken from flags.
/// Serializable so the job journal can persist admitted jobs across a
/// daemon crash.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Mini-C enclave source.
    pub source: String,
    /// EDL interface text.
    pub edl: String,
    /// Optional XML analysis configuration (§V-C).
    pub config_xml: Option<String>,
    /// Analyze one ECALL (`None` = every target).
    pub function: Option<String>,
    /// Path budget (see [`AnalyzerOptions::max_paths`]).
    pub max_paths: usize,
    /// Symbolic loop bound (see [`AnalyzerOptions::loop_bound`]).
    pub loop_bound: usize,
    /// Engine exploration threads *within* the job (0 = all cores). This is
    /// orthogonal to the service pool size; reports are byte-identical at
    /// any setting.
    pub workers: usize,
    /// Wall-clock budget for the whole job, across suspensions.
    pub deadline_ms: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            source: String::new(),
            edl: String::new(),
            config_xml: None,
            function: None,
            max_paths: 4096,
            loop_bound: 4,
            workers: 0,
            deadline_ms: None,
        }
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the run queue (first submission, or requeued after a
    /// suspension — [`JobState::Suspended`] is reported until it requeues).
    Queued,
    /// A pool worker is exploring it right now.
    Running,
    /// Parked in a checkpoint at a wave boundary; back in the queue tail.
    Suspended,
    /// Finished; the outcome carries the reports.
    Done,
    /// The analyzer rejected the inputs (parse/sema/EDL/config error).
    Failed,
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Suspended => "suspended",
            JobState::Done => "done",
            JobState::Failed => "failed",
        })
    }
}

/// Terminal result of a job, with the CLI's exit-code convention: 0 secure
/// and complete, 1 violations found, 2 input error, 3 secure but paths
/// were lost (the verdict is a lower bound).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// One report per analyzed target, in target order. Empty on failure.
    pub reports: Vec<Report>,
    /// CLI-convention exit code for this job.
    pub exit: u8,
    /// The input error, when `exit == 2`.
    pub error: Option<String>,
    /// How many times the job was suspended and migrated before finishing.
    pub suspensions: u32,
    /// Queue wait before the first slice started.
    pub queued_for: Duration,
    /// Submission-to-completion wall time.
    pub total: Duration,
}

/// Progress callback: receives the job id and each JSONL telemetry record
/// (no trailing newline) emitted while the job runs. The id is passed so a
/// consumer registered at submission time can frame records without racing
/// the pool (a worker may start the job before `submit` returns).
pub type ProgressFn = Arc<dyn Fn(u64, &str) + Send + Sync>;

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool worker threads (clamped to at least 1).
    pub pool: usize,
    /// Fair-share time slice: a running job past this age is suspended
    /// whenever other jobs are waiting. `None` disables preemption (jobs
    /// still round-robin through the FIFO queue).
    pub slice: Option<Duration>,
    /// Directory for suspension checkpoints and the job journal (created
    /// if missing).
    pub spool: PathBuf,
    /// Admission cap on queue depth: a submit that would leave more than
    /// this many jobs waiting is rejected with
    /// [`RejectReason::QueueFull`]. `0` = unbounded.
    pub max_queue: usize,
    /// Admission cap on a job's path budget ([`JobSpec::max_paths`]):
    /// larger requests are rejected with [`RejectReason::PathBudget`]
    /// instead of letting one job monopolise memory. `0` = uncapped.
    pub max_job_paths: usize,
    /// Telemetry handle for recovery spans and shed/reject/park counters
    /// (disabled = all no-ops; observational either way).
    pub telemetry: telemetry::Telemetry,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool: 2,
            slice: None,
            spool: std::env::temp_dir().join(format!("privacyscope-spool-{}", std::process::id())),
            max_queue: 0,
            max_job_paths: 0,
            telemetry: telemetry::Telemetry::disabled(),
        }
    }
}

/// Why a submission was refused at the door. Admission control converts
/// overload into a typed, observable answer — never a dropped connection
/// or a wedged queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The run queue is at its configured depth cap.
    QueueFull { depth: usize, limit: usize },
    /// The job asked for a larger path budget than the service admits.
    PathBudget { requested: usize, cap: usize },
    /// The service is draining for shutdown and admits nothing new.
    Draining,
}

impl RejectReason {
    /// Stable machine-readable class, used in protocol frames and
    /// telemetry counter names.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::PathBudget { .. } => "path_budget",
            RejectReason::Draining => "draining",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { depth, limit } => write!(
                f,
                "queue is full ({depth} waiting, limit {limit}); retry later"
            ),
            RejectReason::PathBudget { requested, cap } => write!(
                f,
                "requested path budget {requested} exceeds the service cap {cap}"
            ),
            RejectReason::Draining => {
                f.write_str("service is draining for shutdown and admits no new jobs")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

/// One job's row in a [`ServiceStats`] snapshot. Field order is the wire
/// order (`ServerFrame::Stats` serializes these structs directly), so it
/// is part of the protocol's deterministic-field-order contract.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSnapshot {
    /// The job id.
    pub id: u64,
    /// Lifecycle state name (`queued`/`running`/`suspended`/`done`/
    /// `failed`).
    pub state: String,
    /// How many times the job has suspended and migrated so far.
    pub suspensions: u64,
    /// Waves completed at the last suspension (0 until first legible
    /// boundary).
    pub waves: u64,
    /// In-flight path states parked at the last suspension (0 once
    /// terminal).
    pub frontier: u64,
    /// Exploration steps attributed so far (from the per-source profile at
    /// the last suspension or completion).
    pub steps: u64,
}

/// A point-in-time snapshot of the service: queue, pool utilization, and
/// per-job lifecycle + progress. Deterministic: jobs come out in id order
/// and field order is fixed by declaration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Jobs waiting in the run queue right now.
    pub queue_depth: u64,
    /// Configured pool size (worker threads).
    pub pool: u64,
    /// Workers currently running a slice.
    pub busy: u64,
    /// Whether the service is draining for shutdown.
    pub draining: bool,
    /// Every job the service knows about, in id order.
    pub jobs: Vec<JobSnapshot>,
}

struct Job {
    spec: JobSpec,
    progress: Option<ProgressFn>,
    state: JobState,
    /// Cooperative suspension handle, shared with the engine while running.
    yield_hook: YieldToken,
    cancel: CancelToken,
    /// Checkpoint to resume from (set while suspended).
    resume_from: Option<PathBuf>,
    /// Absolute deadline, fixed when the first slice starts.
    deadline_at: Option<Instant>,
    submitted: Instant,
    first_started: Option<Instant>,
    /// When the current slice started (running jobs only).
    slice_start: Option<Instant>,
    /// Whether the current slice can honour a yield request (single-target
    /// explorations only — multi-target jobs run to completion).
    suspendable: bool,
    /// Park instead of requeue at the next suspension (disconnect policy
    /// or drain): the job stays `Suspended` in the spool until a later
    /// recovery pass picks it back up.
    parked: bool,
    suspensions: u32,
    outcome: Option<JobOutcome>,
    /// Progress observed at the last wave-boundary suspension (or
    /// completion): waves completed, in-flight frontier parked, and steps
    /// attributed so far. Zero until the job first suspends or finishes —
    /// progress is only legible at deterministic boundaries.
    waves_done: u64,
    frontier: u64,
    steps_done: u64,
}

struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    shutdown: bool,
    /// Drain mode: admission rejects, workers stop dequeuing, running
    /// jobs park at their next wave boundary.
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes pool workers when the queue grows or shutdown begins.
    work_cv: Condvar,
    /// Wakes `wait()`ers when any job reaches a terminal state (and
    /// `drain()`ers when a running job parks).
    done_cv: Condvar,
    spool: PathBuf,
    slice: Option<Duration>,
    max_queue: usize,
    max_job_paths: usize,
    /// Durable job journal; a failed append degrades crash durability,
    /// never availability (`None` only if the spool became unwritable).
    journal: Mutex<Option<Journal>>,
    /// What the recovery pass at start did (empty summary on a cold
    /// spool).
    recovery: RecoverySummary,
    telemetry: telemetry::Telemetry,
}

impl Shared {
    /// Durably appends one journal record. Failures are typed into
    /// telemetry (`service.journal_failed`) and otherwise ignored: the
    /// job still runs, only crash durability for this transition is lost.
    fn journal_append(&self, record: &JournalRecord) {
        let mut guard = lock(&self.journal);
        if let Some(journal) = guard.as_mut() {
            if let Err(error) = journal.append(record) {
                self.telemetry
                    .counter(telemetry::names::SERVICE_JOURNAL_FAILED, 1);
                self.telemetry
                    .warn(|| format!("journal append failed: {error}"));
            }
        }
    }
}

/// The analysis service. `Send + Sync`: share it behind an `Arc` and
/// submit from any thread.
pub struct AnalysisService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
}

impl fmt::Debug for AnalysisService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisService")
            .field("pool", &self.workers.len())
            .field("slice", &self.shared.slice)
            .field("spool", &self.shared.spool)
            .finish()
    }
}

impl AnalysisService {
    /// Starts the worker pool (and the preemption scheduler, when a slice
    /// is configured), after running a crash-recovery pass over the spool
    /// directory: journaled jobs that never finished are re-enqueued
    /// (suspended ones resume from their validated checkpoints), orphaned
    /// spool files are garbage-collected, and the journal is compacted.
    /// Every defect found on the way is a typed entry in
    /// [`AnalysisService::recovery`], never an abort.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the spool directory cannot be created or
    /// the journal cannot be opened for appending.
    pub fn start(config: ServiceConfig) -> io::Result<AnalysisService> {
        std::fs::create_dir_all(&config.spool)?;

        let mut span = config.telemetry.span("recovery", None);
        let replayed = journal::replay(&config.spool);
        let mut summary = replayed.summary;
        journal::gc_orphans(&config.spool, &replayed.live, &mut summary);
        if let Err(error) = journal::compact(&config.spool, &replayed.live) {
            summary.errors.push(journal::RecoveryError::Io {
                path: config.spool.display().to_string(),
                message: error.to_string(),
            });
        }
        let journal = Journal::open(&config.spool)?;
        span.field("requeued", summary.requeued);
        span.field("resumed", summary.resumed);
        span.field("discarded", summary.discarded);
        span.field("orphans_removed", summary.orphans_removed);
        span.field("errors", summary.errors.len() as u64);
        span.finish();
        config.telemetry.counter(
            telemetry::names::SERVICE_RECOVERY_REQUEUED,
            summary.requeued,
        );
        config
            .telemetry
            .counter(telemetry::names::SERVICE_RECOVERY_RESUMED, summary.resumed);
        config.telemetry.counter(
            telemetry::names::SERVICE_RECOVERY_ORPHANS_REMOVED,
            summary.orphans_removed,
        );
        config.telemetry.counter(
            telemetry::names::SERVICE_RECOVERY_ERRORS,
            summary.errors.len() as u64,
        );
        if summary.requeued + summary.resumed + summary.orphans_removed > 0
            || !summary.errors.is_empty()
        {
            config.telemetry.info(|| summary.render());
        }

        let now = Instant::now();
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        for recovered in &replayed.live {
            jobs.insert(
                recovered.id,
                Job {
                    spec: recovered.spec.clone(),
                    progress: None,
                    state: JobState::Queued,
                    yield_hook: YieldToken::new(),
                    cancel: CancelToken::new(),
                    resume_from: recovered.resume_from.clone(),
                    deadline_at: None,
                    submitted: now,
                    first_started: None,
                    slice_start: None,
                    suspendable: false,
                    parked: false,
                    suspensions: 0,
                    outcome: None,
                    waves_done: 0,
                    frontier: 0,
                    steps_done: 0,
                },
            );
            queue.push_back(recovered.id);
        }

        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue,
                jobs,
                next_id: replayed.next_id,
                shutdown: false,
                draining: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            spool: config.spool,
            slice: config.slice,
            max_queue: config.max_queue,
            max_job_paths: config.max_job_paths,
            journal: Mutex::new(Some(journal)),
            recovery: summary,
            telemetry: config.telemetry,
        });
        let pool = config.pool.max(1);
        let workers = (0..pool)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("analysis-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let scheduler = match config.slice {
            Some(slice) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("analysis-scheduler".to_string())
                        .spawn(move || scheduler_loop(&shared, slice))?,
                )
            }
            None => None,
        };
        Ok(AnalysisService {
            shared,
            workers,
            scheduler,
        })
    }

    /// Enqueues a job; returns its id immediately, or a typed
    /// [`RejectReason`] when admission control sheds it (queue at depth
    /// cap, path budget over the per-job cap, or the service draining).
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`]; the job was not admitted and left no
    /// trace.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, RejectReason> {
        self.submit_inner(spec, None)
    }

    /// Enqueues a job with a progress callback: every JSONL telemetry
    /// record the exploration emits is forwarded as it happens.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] when admission control sheds the job.
    pub fn submit_with_progress(
        &self,
        spec: JobSpec,
        progress: ProgressFn,
    ) -> Result<u64, RejectReason> {
        self.submit_inner(spec, Some(progress))
    }

    fn submit_inner(
        &self,
        spec: JobSpec,
        progress: Option<ProgressFn>,
    ) -> Result<u64, RejectReason> {
        let mut state = lock(&self.shared.state);
        if let Some(reason) = self.admission_check(&state, &spec) {
            drop(state);
            self.shared
                .telemetry
                .counter(telemetry::names::SERVICE_REJECTED, 1);
            match reason {
                RejectReason::QueueFull { .. } => self
                    .shared
                    .telemetry
                    .counter(telemetry::names::SERVICE_REJECTED_QUEUE_FULL, 1),
                RejectReason::PathBudget { .. } => self
                    .shared
                    .telemetry
                    .counter(telemetry::names::SERVICE_REJECTED_PATH_BUDGET, 1),
                RejectReason::Draining => self
                    .shared
                    .telemetry
                    .counter(telemetry::names::SERVICE_REJECTED_DRAINING, 1),
            }
            return Err(reason);
        }
        let id = state.next_id;
        state.next_id += 1;
        // WAL discipline: the admission is durable before the job becomes
        // visible to workers (the journal mutex is separate, but we hold
        // the state lock, so no worker can observe the job early).
        self.shared.journal_append(&JournalRecord::Submitted {
            id,
            spec: spec.clone(),
        });
        state.jobs.insert(
            id,
            Job {
                spec,
                progress,
                state: JobState::Queued,
                yield_hook: YieldToken::new(),
                cancel: CancelToken::new(),
                resume_from: None,
                deadline_at: None,
                submitted: Instant::now(),
                first_started: None,
                slice_start: None,
                suspendable: false,
                parked: false,
                suspensions: 0,
                outcome: None,
                waves_done: 0,
                frontier: 0,
                steps_done: 0,
            },
        );
        state.queue.push_back(id);
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(id)
    }

    /// Admission decision for one spec against the current state.
    fn admission_check(&self, state: &State, spec: &JobSpec) -> Option<RejectReason> {
        if state.draining || state.shutdown {
            return Some(RejectReason::Draining);
        }
        if self.shared.max_job_paths > 0 && spec.max_paths > self.shared.max_job_paths {
            return Some(RejectReason::PathBudget {
                requested: spec.max_paths,
                cap: self.shared.max_job_paths,
            });
        }
        if self.shared.max_queue > 0 && state.queue.len() >= self.shared.max_queue {
            return Some(RejectReason::QueueFull {
                depth: state.queue.len(),
                limit: self.shared.max_queue,
            });
        }
        None
    }

    /// Current lifecycle state, or `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobState> {
        lock(&self.shared.state).jobs.get(&id).map(|job| job.state)
    }

    /// Requests cooperative suspension: the job parks into a checkpoint at
    /// its next wave boundary and re-enters the queue tail. Works on a
    /// queued job too (it then suspends at wave 0 of its first slice —
    /// a full migration through the checkpoint format). Returns `false`
    /// for unknown or already-terminal jobs.
    pub fn suspend(&self, id: u64) -> bool {
        let state = lock(&self.shared.state);
        match state.jobs.get(&id) {
            Some(job) if !matches!(job.state, JobState::Done | JobState::Failed) => {
                job.yield_hook.request();
                true
            }
            _ => false,
        }
    }

    /// Cancels a job: a running exploration is cut at the next boundary
    /// (terminal, with a `Cancelled` degradation in its report). The
    /// cancellation is journaled immediately, so a crash between the
    /// request and the cut does not resurrect abandoned work on restart.
    pub fn cancel(&self, id: u64) -> bool {
        let state = lock(&self.shared.state);
        match state.jobs.get(&id) {
            Some(job) if !matches!(job.state, JobState::Done | JobState::Failed) => {
                job.cancel.cancel();
                drop(state);
                self.shared
                    .telemetry
                    .counter(telemetry::names::SERVICE_CANCELLED, 1);
                self.shared.journal_append(&JournalRecord::Cancelled { id });
                true
            }
            _ => false,
        }
    }

    /// Parks a job out of the pool: a running job suspends into its spool
    /// checkpoint at the next wave boundary and stays `Suspended` (it is
    /// *not* requeued); a queued job is pulled out of the queue
    /// immediately. Parked work is journaled and picked back up by the
    /// recovery pass of the next service start on this spool. This is the
    /// disconnect policy that keeps the pool from finishing work nobody
    /// will read, without discarding it either. Returns `false` for
    /// unknown or already-terminal jobs.
    pub fn park(&self, id: u64) -> bool {
        let mut state = lock(&self.shared.state);
        let Some(job) = state.jobs.get_mut(&id) else {
            return false;
        };
        match job.state {
            JobState::Done | JobState::Failed => false,
            JobState::Queued => {
                job.parked = true;
                job.state = JobState::Suspended;
                state.queue.retain(|&queued| queued != id);
                drop(state);
                self.shared
                    .telemetry
                    .counter(telemetry::names::SERVICE_PARKED, 1);
                true
            }
            JobState::Running | JobState::Suspended => {
                job.parked = true;
                job.yield_hook.request();
                drop(state);
                self.shared
                    .telemetry
                    .counter(telemetry::names::SERVICE_PARKED, 1);
                true
            }
        }
    }

    /// Graceful drain for shutdown: stop admitting (submissions now
    /// reject with [`RejectReason::Draining`]), stop dequeuing, and ask
    /// every running job to park at its next wave boundary. Blocks until
    /// no job is `Running` or the timeout elapses; returns `true` when
    /// the pool drained completely. Queued and parked jobs stay durably
    /// journaled for the next start to recover.
    pub fn drain(&self, timeout: Duration) -> bool {
        {
            let mut state = lock(&self.shared.state);
            state.draining = true;
        }
        self.shared.work_cv.notify_all();
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.shared.state);
        loop {
            // Re-arm each pass: a job may become suspendable only after
            // its slice has built the analyzer.
            let mut running = 0usize;
            for job in state.jobs.values_mut() {
                if job.state == JobState::Running {
                    running += 1;
                    job.parked = true;
                    job.yield_hook.request();
                }
            }
            if running == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let wait = deadline
                .saturating_duration_since(now)
                .min(Duration::from_millis(25));
            let (next, _) = self
                .shared
                .done_cv
                .wait_timeout(state, wait)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
    }

    /// What the recovery pass at [`AnalysisService::start`] found and did.
    pub fn recovery(&self) -> &RecoverySummary {
        &self.shared.recovery
    }

    /// Non-blocking outcome lookup: `Some` only once the job is terminal.
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        lock(&self.shared.state)
            .jobs
            .get(&id)
            .and_then(|job| job.outcome.clone())
    }

    /// A point-in-time introspection snapshot: queue depth, pool
    /// utilization, drain flag, and one row per known job (id order).
    /// This is what `ClientFrame::Stats` answers with.
    pub fn stats(&self) -> ServiceStats {
        let state = lock(&self.shared.state);
        let busy = state
            .jobs
            .values()
            .filter(|job| job.state == JobState::Running)
            .count() as u64;
        ServiceStats {
            queue_depth: state.queue.len() as u64,
            pool: self.workers.len() as u64,
            busy,
            draining: state.draining,
            jobs: state
                .jobs
                .iter()
                .map(|(&id, job)| JobSnapshot {
                    id,
                    state: job.state.to_string(),
                    suspensions: u64::from(job.suspensions),
                    waves: job.waves_done,
                    frontier: job.frontier,
                    steps: job.steps_done,
                })
                .collect(),
        }
    }

    /// Ids of every job the service knows about, with their states —
    /// diagnostics for the daemon's recovery reporting.
    pub fn jobs(&self) -> Vec<(u64, JobState)> {
        lock(&self.shared.state)
            .jobs
            .iter()
            .map(|(&id, job)| (id, job.state))
            .collect()
    }

    /// Blocks until the job reaches a terminal state; returns its outcome
    /// (`None` for an unknown id).
    pub fn wait(&self, id: u64) -> Option<JobOutcome> {
        let mut state = lock(&self.shared.state);
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(job) => {
                    if let Some(outcome) = &job.outcome {
                        return Some(outcome.clone());
                    }
                }
            }
            state = self
                .shared
                .done_cv
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Stops accepting work and joins the pool. Running slices finish (or
    /// suspend, under a slice); queued jobs stay queued forever — callers
    /// that need drain semantics should `wait()` first.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Arms the yield token of every over-slice running job whenever other
/// jobs are waiting for a worker. Sleeps a fraction of the slice so the
/// overshoot past the nominal slice stays small.
///
/// A mid-wave suspension reruns the interrupted wave on resume (the PR 3
/// snapshot parks whole waves), so a job whose single wave outlasts the
/// slice would otherwise be preempted forever without progressing. Each
/// suspension therefore doubles that job's effective slice: total wasted
/// re-execution stays within a constant factor of useful work, and every
/// job eventually gets a slice long enough to clear its longest wave.
fn scheduler_loop(shared: &Shared, slice: Duration) {
    let tick = (slice / 4)
        .min(Duration::from_millis(50))
        .max(Duration::from_millis(1));
    loop {
        std::thread::sleep(tick);
        let state = lock(&shared.state);
        if state.shutdown {
            return;
        }
        if state.queue.is_empty() {
            continue;
        }
        let now = Instant::now();
        for job in state.jobs.values() {
            if job.state != JobState::Running || !job.suspendable {
                continue;
            }
            let effective = slice.saturating_mul(1 << job.suspensions.min(16));
            if let Some(started) = job.slice_start {
                if now.duration_since(started) >= effective {
                    if !job.yield_hook.is_requested() {
                        shared.telemetry.debug(|| {
                            format!(
                                "arm yield (slice {:?} elapsed {:?})",
                                effective,
                                now.duration_since(started)
                            )
                        });
                    }
                    job.yield_hook.request();
                }
            }
        }
    }
}

/// What a worker copies out of the scheduler lock to run one slice.
struct SliceWork {
    id: u64,
    spec: JobSpec,
    progress: Option<ProgressFn>,
    yield_hook: YieldToken,
    cancel: CancelToken,
    resume_from: Option<PathBuf>,
    deadline_ms: Option<u64>,
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if !state.draining {
                    if let Some(id) = state.queue.pop_front() {
                        if let Some(work) = begin_slice(&mut state, id, &shared.telemetry) {
                            break work;
                        }
                        continue; // cancelled-while-queued edge: next item
                    }
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared.journal_append(&JournalRecord::Started { id: work.id });
        run_slice(shared, work);
    }
}

/// Transitions a dequeued job to `Running` and snapshots what the slice
/// needs. The per-job deadline is pinned at first start; later slices get
/// only the remaining budget.
fn begin_slice(state: &mut State, id: u64, telemetry: &telemetry::Telemetry) -> Option<SliceWork> {
    let job = state.jobs.get_mut(&id)?;
    if matches!(job.state, JobState::Done | JobState::Failed) {
        return None;
    }
    let now = Instant::now();
    if job.first_started.is_none() {
        job.first_started = Some(now);
        job.deadline_at = job
            .spec
            .deadline_ms
            .map(|ms| now + Duration::from_millis(ms));
    }
    job.state = JobState::Running;
    job.slice_start = Some(now);
    telemetry.debug(|| {
        format!(
            "begin job {id} resume={:?} suspensions={}",
            job.resume_from, job.suspensions
        )
    });
    let deadline_ms = job
        .deadline_at
        .map(|at| u64::try_from(at.saturating_duration_since(now).as_millis()).unwrap_or(u64::MAX));
    Some(SliceWork {
        id,
        spec: job.spec.clone(),
        progress: job.progress.clone(),
        yield_hook: job.yield_hook.clone(),
        cancel: job.cancel.clone(),
        resume_from: job.resume_from.take(),
        deadline_ms,
    })
}

/// Forwards complete trace lines to the job's progress callback. Partial
/// lines are buffered; the telemetry layer writes record-at-a-time so a
/// flush between records never splits one.
struct ProgressWriter {
    job: u64,
    buffer: Vec<u8>,
    progress: ProgressFn,
}

impl io::Write for ProgressWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buffer.extend_from_slice(data);
        while let Some(end) = self.buffer.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buffer.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            (self.progress)(self.job, &text);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn run_slice(shared: &Shared, work: SliceWork) {
    let telemetry = match &work.progress {
        Some(progress) => {
            let writer = ProgressWriter {
                job: work.id,
                buffer: Vec::new(),
                progress: Arc::clone(progress),
            };
            telemetry::TelemetryConfig::default()
                .build_streaming(Box::new(writer))
                .unwrap_or_else(|_| telemetry::Telemetry::disabled())
        }
        None => telemetry::Telemetry::disabled(),
    };

    // A suspendable slice snapshots into the spool; multi-target jobs run
    // to completion (a checkpoint snapshots exactly one exploration), so
    // they get a detached yield token the scheduler never arms.
    let spool_path = shared.spool.join(format!("job-{}.ckpt", work.id));
    let base = AnalyzerOptions {
        max_paths: work.spec.max_paths,
        loop_bound: work.spec.loop_bound,
        workers: work.spec.workers,
        deadline_ms: work.deadline_ms,
        cancel: work.cancel.clone(),
        telemetry: telemetry.clone(),
        ..AnalyzerOptions::default()
    };
    let suspendable_options = AnalyzerOptions {
        yield_hook: work.yield_hook.clone(),
        checkpoint: Some(spool_path.clone()),
        resume: work.resume_from.clone(),
        ..base.clone()
    };

    let built = match &work.spec.config_xml {
        Some(xml) => {
            Analyzer::with_config(&work.spec.source, &work.spec.edl, xml, suspendable_options)
        }
        None => Analyzer::from_sources(&work.spec.source, &work.spec.edl, suspendable_options),
    };
    let analyzer = match built {
        Ok(analyzer) => analyzer,
        Err(error) => {
            finish_job(shared, work.id, Vec::new(), Some(error.to_string()));
            return;
        }
    };
    let targets = match &work.spec.function {
        Some(name) => vec![name.clone()],
        None => analyzer.targets(),
    };
    if targets.is_empty() {
        finish_job(
            shared,
            work.id,
            Vec::new(),
            Some("no public ECALLs to analyze (and no function given)".to_string()),
        );
        return;
    }

    let single_target = targets.len() == 1;
    let analyzer = if single_target {
        analyzer
    } else {
        // Rebuild without suspension plumbing; mark the job unsuspendable
        // so the preemption scheduler leaves it alone.
        let detached = AnalyzerOptions {
            yield_hook: YieldToken::new(),
            checkpoint: None,
            resume: None,
            ..base
        };
        let rebuilt = match &work.spec.config_xml {
            Some(xml) => Analyzer::with_config(&work.spec.source, &work.spec.edl, xml, detached),
            None => Analyzer::from_sources(&work.spec.source, &work.spec.edl, detached),
        };
        match rebuilt {
            Ok(analyzer) => analyzer,
            Err(error) => {
                finish_job(shared, work.id, Vec::new(), Some(error.to_string()));
                return;
            }
        }
    };
    {
        let mut state = lock(&shared.state);
        if let Some(job) = state.jobs.get_mut(&work.id) {
            job.suspendable = single_target;
        }
    }

    let mut reports = Vec::with_capacity(targets.len());
    for target in &targets {
        match analyzer.analyze(target) {
            Ok(report) => {
                let suspended = report
                    .degradations
                    .iter()
                    .any(|d| matches!(d, Degradation::Suspended { .. }));
                if suspended && single_target {
                    suspend_job(shared, work.id, &report, &spool_path);
                    return;
                }
                reports.push(report);
            }
            Err(error) => {
                finish_job(shared, work.id, Vec::new(), Some(error.to_string()));
                return;
            }
        }
    }
    finish_job(shared, work.id, reports, None);
}

/// Parks a suspended job: records the snapshot to resume from, clears the
/// (consumed) yield request, and requeues at the tail — unless the job
/// was parked (disconnect policy or drain), in which case it stays
/// `Suspended` in the spool for a later recovery pass. Either way the
/// suspension is journaled with the snapshot's fingerprint so recovery
/// can detect a stale file.
fn suspend_job(shared: &Shared, id: u64, report: &Report, spool_path: &std::path::Path) {
    let mut state = lock(&shared.state);
    let Some(job) = state.jobs.get_mut(&id) else {
        return;
    };
    let ckpt = report
        .checkpoint
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| spool_path.to_path_buf());
    job.resume_from = Some(ckpt.clone());
    job.state = JobState::Suspended;
    job.slice_start = None;
    job.suspensions += 1;
    if let Some(Degradation::Suspended { wave, dropped }) = report
        .degradations
        .iter()
        .rev()
        .find(|d| matches!(d, Degradation::Suspended { .. }))
    {
        job.waves_done = *wave as u64;
        job.frontier = *dropped as u64;
    }
    job.steps_done = report.profile.total_steps();
    shared.telemetry.debug(|| {
        format!(
            "suspend job {id} -> {:?} (#{} parked={})",
            job.resume_from, job.suspensions, job.parked
        )
    });
    job.yield_hook.clear();
    let parked = job.parked || state.draining;
    if !parked {
        state.queue.push_back(id);
    }
    drop(state);
    shared
        .telemetry
        .counter(telemetry::names::SERVICE_SUSPENDED, 1);
    let fingerprint = symexec::Snapshot::peek_fingerprint(&ckpt).unwrap_or(0);
    shared.journal_append(&JournalRecord::Suspended {
        id,
        ckpt: ckpt.display().to_string(),
        fingerprint,
    });
    if parked {
        // Wake drain()ers polling for the pool to empty.
        shared.done_cv.notify_all();
    } else {
        shared.work_cv.notify_one();
    }
}

fn finish_job(shared: &Shared, id: u64, reports: Vec<Report>, error: Option<String>) {
    // Journal the terminal state *before* removing the spool checkpoint:
    // a crash in between leaves only an orphan file for the next
    // recovery's GC, never a lost outcome.
    let exit_for_journal = match &error {
        Some(_) => 2u64,
        None => {
            let secure = reports.iter().all(Report::is_secure);
            let degraded = reports.iter().any(Report::is_degraded);
            if !secure {
                1
            } else if degraded {
                3
            } else {
                0
            }
        }
    };
    match &error {
        Some(message) => shared.journal_append(&JournalRecord::Failed {
            id,
            error: message.clone(),
        }),
        None => shared.journal_append(&JournalRecord::Done {
            id,
            exit: exit_for_journal,
        }),
    }
    let spool_path = shared.spool.join(format!("job-{id}.ckpt"));
    let _ = std::fs::remove_file(spool_path);
    let mut state = lock(&shared.state);
    let Some(job) = state.jobs.get_mut(&id) else {
        return;
    };
    let now = Instant::now();
    let exit = u8::try_from(exit_for_journal).unwrap_or(2);
    shared
        .telemetry
        .debug(|| format!("finish job {id} exit={exit} err={error:?}"));
    job.state = if error.is_some() {
        JobState::Failed
    } else {
        JobState::Done
    };
    job.slice_start = None;
    job.frontier = 0;
    let final_steps: u64 = reports.iter().map(|r| r.profile.total_steps()).sum();
    if final_steps > 0 {
        job.steps_done = final_steps;
    }
    job.outcome = Some(JobOutcome {
        reports,
        exit,
        error,
        suspensions: job.suspensions,
        queued_for: job
            .first_started
            .unwrap_or(now)
            .duration_since(job.submitted),
        total: now.duration_since(job.submitted),
    });
    drop(state);
    shared.done_cv.notify_all();
}
