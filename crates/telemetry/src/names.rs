//! The canonical telemetry metric namespace.
//!
//! Every counter and histogram name used anywhere in the stack lives here,
//! as a `&'static str` constant, so `--metrics-out` summaries, `Stats`
//! wire frames, and `--stats-out` dumps all agree byte-for-byte on the
//! names — and so a grep for a name has exactly one definition to find.
//!
//! Naming convention: `<component>.<event>[_<unit>]`, lower-snake within
//! segments. Histogram names end in a unit suffix (`_us`); counters do
//! not. Components:
//!
//! * `engine.*` — symbolic-execution engine (per-run exploration work)
//! * `analyzer.*` — the leak analyzer driving the engine
//! * `service.*` — the daemon's job service (admission, lifecycle,
//!   recovery)
//! * `daemon.*` — the wire front-end (framing, connection hygiene)
//! * `sgx.*` — the SGX enclave-boundary simulator

// ── engine.* ────────────────────────────────────────────────────────────

/// Waves (top-level statements) executed.
pub const ENGINE_WAVES: &str = "engine.waves";
/// Statements interpreted.
pub const ENGINE_STEPS: &str = "engine.steps";
/// Two-sided state forks.
pub const ENGINE_FORKS: &str = "engine.forks";
/// Branch sides pruned as infeasible.
pub const ENGINE_INFEASIBLE: &str = "engine.infeasible";
/// Loop widenings applied.
pub const ENGINE_WIDENINGS: &str = "engine.widenings";
/// Feasibility probes answered from the memoized probe set.
pub const ENGINE_CACHE_HITS: &str = "engine.cache_hits";
/// Feasibility probes computed fresh.
pub const ENGINE_CACHE_MISSES: &str = "engine.cache_misses";
/// Branch-condition evaluations on a secret-tainted condition.
pub const ENGINE_SECRET_BRANCHES: &str = "engine.secret_branches";
/// Branch sides refuted by the Tier-1 interval/congruence domain.
pub const ENGINE_TIER1_REFUTED: &str = "engine.tier_one_refuted";
/// Branch sides refuted by the Tier-2 SAT-lite solver.
pub const ENGINE_TIER2_REFUTED: &str = "engine.tier_two_refuted";
/// Tier-2 invocations that exhausted their deterministic budget.
pub const ENGINE_TIER2_UNKNOWN: &str = "engine.tier_two_unknown";
/// Inlined calls whose results merged into one state at the return.
pub const ENGINE_MERGES: &str = "engine.merges";
/// Path tasks executed by the worklist.
pub const ENGINE_PATH_TASKS: &str = "engine.path_tasks";
/// Checkpoint snapshots written.
pub const ENGINE_CHECKPOINT_WRITES: &str = "engine.checkpoint_writes";
/// Histogram: wall-clock per wave, microseconds.
pub const ENGINE_WAVE_US: &str = "engine.wave_us";
/// Histogram: wall-clock per path task, microseconds.
pub const ENGINE_PATH_TASK_US: &str = "engine.path_task_us";

// ── analyzer.* ──────────────────────────────────────────────────────────

/// Target functions analyzed.
pub const ANALYZER_TARGETS: &str = "analyzer.targets";
/// Nonreversibility findings reported.
pub const ANALYZER_FINDINGS: &str = "analyzer.findings";

// ── service.* ───────────────────────────────────────────────────────────

/// Jobs rejected at admission (all causes; the `.…` variants below break
/// the total down by cause).
pub const SERVICE_REJECTED: &str = "service.rejected";
/// Rejected: queue at capacity.
pub const SERVICE_REJECTED_QUEUE_FULL: &str = "service.rejected.queue_full";
/// Rejected: declared path budget over the admission ceiling.
pub const SERVICE_REJECTED_PATH_BUDGET: &str = "service.rejected.path_budget";
/// Rejected: service draining for shutdown.
pub const SERVICE_REJECTED_DRAINING: &str = "service.rejected.draining";
/// Jobs cancelled (client request or disconnect policy).
pub const SERVICE_CANCELLED: &str = "service.cancelled";
/// Jobs parked (suspended on disconnect, resumable).
pub const SERVICE_PARKED: &str = "service.parked";
/// Jobs suspended by the fair-share scheduler.
pub const SERVICE_SUSPENDED: &str = "service.suspended";
/// Journal append failures (job proceeded; durability degraded).
pub const SERVICE_JOURNAL_FAILED: &str = "service.journal_failed";
/// Crash recovery: queued jobs re-queued from the journal.
pub const SERVICE_RECOVERY_REQUEUED: &str = "service.recovery.requeued";
/// Crash recovery: running jobs resumed from their spooled checkpoint.
pub const SERVICE_RECOVERY_RESUMED: &str = "service.recovery.resumed";
/// Crash recovery: orphaned spool files removed.
pub const SERVICE_RECOVERY_ORPHANS_REMOVED: &str = "service.recovery.orphans_removed";
/// Crash recovery: journal entries that could not be recovered.
pub const SERVICE_RECOVERY_ERRORS: &str = "service.recovery.errors";

// ── daemon.* ────────────────────────────────────────────────────────────

/// Frames dropped for exceeding the size limit.
pub const DAEMON_FRAME_OVERSIZED: &str = "daemon.frame_oversized";
/// Frames that failed to parse.
pub const DAEMON_FRAME_MALFORMED: &str = "daemon.frame_malformed";
/// Connections closed by the idle timeout.
pub const DAEMON_IDLE_TIMEOUT: &str = "daemon.idle_timeout";
/// Jobs cancelled because their client disconnected.
pub const DAEMON_DISCONNECT_CANCELLED: &str = "daemon.disconnect_cancelled";
/// Jobs parked because their client disconnected.
pub const DAEMON_DISCONNECT_PARKED: &str = "daemon.disconnect_parked";

// ── sgx.* ───────────────────────────────────────────────────────────────

/// ECALLs crossing into the simulated enclave.
pub const SGX_ECALLS: &str = "sgx.ecalls";
/// OCALLs crossing out of the simulated enclave.
pub const SGX_OCALLS: &str = "sgx.ocalls";
/// Bytes copied out across the boundary.
pub const SGX_OUT_BYTES: &str = "sgx.out_bytes";
/// Injected boundary faults observed.
pub const SGX_FAULTS: &str = "sgx.faults";
/// Boundary calls retried after a transient fault.
pub const SGX_RETRIES: &str = "sgx.retries";

/// Every counter name, in summary order — the audit surface: a name used
/// at a call site but missing here (or vice versa) fails the namespace
/// test.
pub const ALL_COUNTERS: &[&str] = &[
    ANALYZER_FINDINGS,
    ANALYZER_TARGETS,
    DAEMON_DISCONNECT_CANCELLED,
    DAEMON_DISCONNECT_PARKED,
    DAEMON_FRAME_MALFORMED,
    DAEMON_FRAME_OVERSIZED,
    DAEMON_IDLE_TIMEOUT,
    ENGINE_CACHE_HITS,
    ENGINE_CACHE_MISSES,
    ENGINE_CHECKPOINT_WRITES,
    ENGINE_FORKS,
    ENGINE_INFEASIBLE,
    ENGINE_MERGES,
    ENGINE_PATH_TASKS,
    ENGINE_SECRET_BRANCHES,
    ENGINE_STEPS,
    ENGINE_TIER1_REFUTED,
    ENGINE_TIER2_REFUTED,
    ENGINE_TIER2_UNKNOWN,
    ENGINE_WAVES,
    ENGINE_WIDENINGS,
    SERVICE_CANCELLED,
    SERVICE_JOURNAL_FAILED,
    SERVICE_PARKED,
    SERVICE_RECOVERY_ERRORS,
    SERVICE_RECOVERY_ORPHANS_REMOVED,
    SERVICE_RECOVERY_REQUEUED,
    SERVICE_RECOVERY_RESUMED,
    SERVICE_REJECTED,
    SERVICE_REJECTED_DRAINING,
    SERVICE_REJECTED_PATH_BUDGET,
    SERVICE_REJECTED_QUEUE_FULL,
    SERVICE_SUSPENDED,
    SGX_ECALLS,
    SGX_FAULTS,
    SGX_OCALLS,
    SGX_OUT_BYTES,
    SGX_RETRIES,
];

/// Every histogram name, in summary order.
pub const ALL_HISTOGRAMS: &[&str] = &[ENGINE_PATH_TASK_US, ENGINE_WAVE_US];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_sorted() {
        for name in ALL_COUNTERS.iter().chain(ALL_HISTOGRAMS) {
            assert!(
                name.split('.').count() >= 2,
                "{name}: needs a component prefix"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{name}: lower-snake segments only"
            );
            assert!(!name.ends_with('.') && !name.starts_with('.'), "{name}");
        }
        let mut sorted = ALL_COUNTERS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, ALL_COUNTERS, "ALL_COUNTERS sorted and unique");
        for histogram in ALL_HISTOGRAMS {
            assert!(
                histogram.ends_with("_us"),
                "{histogram}: histograms carry a unit suffix"
            );
            assert!(!ALL_COUNTERS.contains(histogram));
        }
    }
}
