//! Warning reports (the paper's Box 1) and their JSON export.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use symexec::Degradation;

/// Whether a finding is an explicit or implicit information leak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FindingKind {
    /// Observable output carries a single-source secret directly.
    Explicit,
    /// Observable behaviour differs across branches over a single secret.
    Implicit,
    /// Execution cost differs across branches over a single secret — the
    /// §VIII-A timing-channel extension (simulated time = interpreted
    /// statements per path).
    Timing,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingKind::Explicit => write!(f, "EXPLICIT"),
            FindingKind::Implicit => write!(f, "IMPLICIT"),
            FindingKind::Timing => write!(f, "TIMING"),
        }
    }
}

/// One observation supporting an implicit finding: a path condition and
/// the value declassified under it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathObservation {
    /// The rendered path condition π.
    pub path_condition: String,
    /// The observable value on that path.
    pub value: String,
}

/// One nonreversibility violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Explicit or implicit.
    pub kind: FindingKind,
    /// Where the value escapes: `output[0]`, `return value`, `argument 0
    /// of \`ocall_send\``.
    pub channel: String,
    /// The secret being leaked (human-readable, e.g. `secrets[0]`).
    pub secret: String,
    /// For explicit leaks: the escaping symbolic value (how to invert it).
    pub value: Option<String>,
    /// For explicit leaks of invertible computations: the attacker's
    /// concrete recovery formula in terms of `observed` (§V-C).
    pub recovery: Option<String>,
    /// For implicit leaks: the per-path observations that differ.
    pub observations: Vec<PathObservation>,
    /// 1-based source line of the responsible statement, when known.
    pub line: Option<usize>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} reveals secret `{}`",
            self.kind, self.channel, self.secret
        )?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        writeln!(f)?;
        if let Some(value) = &self.value {
            writeln!(f, "    observable value: {value}")?;
            match &self.recovery {
                Some(formula) => writeln!(f, "    recovery: {} = {formula}", self.secret)?,
                None => writeln!(
                    f,
                    "    recovery: invert the computation over the single tainted source"
                )?,
            }
        }
        for obs in &self.observations {
            writeln!(f, "    path {}: observes {}", obs.path_condition, obs.value)?;
        }
        Ok(())
    }
}

/// Analysis statistics attached to a report.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Paths explored to completion.
    pub paths: usize,
    /// State forks performed.
    pub forks: usize,
    /// Branches pruned as infeasible.
    pub infeasible: usize,
    /// Feasibility probes answered by the memoized probe set. Counted
    /// deterministically at wave boundaries (canonical merge order), so
    /// the value is invariant under worker count and cache capacity —
    /// it measures the *workload's* probe redundancy, not live cache
    /// occupancy (which is scheduling-dependent and goes to telemetry
    /// sinks only).
    #[serde(default)]
    pub cache_hits: usize,
    /// Feasibility probes computed fresh (first-seen keys).
    #[serde(default)]
    pub cache_misses: usize,
    /// Branch sides refuted by the Tier-1 interval/congruence domain
    /// (0 under the syntactic reference mode).
    #[serde(default)]
    pub tier1_refuted: usize,
    /// Branch sides refuted by the Tier-2 SAT-lite solver
    /// (0 under the syntactic reference mode).
    #[serde(default)]
    pub tier2_refuted: usize,
    /// Tier-2 probes that exhausted their deterministic budget.
    #[serde(default)]
    pub tier2_unknown: usize,
    /// Whether any exploration budget was exhausted.
    pub exhausted: bool,
    /// Wall-clock analysis time.
    #[serde(with = "duration_micros")]
    pub time: Duration,
    /// Lines of code of the analyzed unit (Table V metric).
    pub loc: usize,
}

mod duration_micros {
    use std::time::Duration;

    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_micros() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_micros(u64::deserialize(d)?))
    }
}

/// The analysis report for one ECALL (Box 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// The analyzed function.
    pub function: String,
    /// All findings, explicit first.
    pub findings: Vec<Finding>,
    /// The exploration's degradation ledger: every way the analysis fell
    /// short of a complete exploration, typed (empty = complete).
    #[serde(default)]
    pub degradations: Vec<Degradation>,
    /// Path of the last resumable snapshot the exploration wrote, if any
    /// (`--checkpoint`): pass it back via `--resume` to continue the run.
    #[serde(default)]
    pub checkpoint: Option<String>,
    /// Exploration statistics.
    pub stats: AnalysisStats,
    /// Per-source-line exploration profile (hotspot attribution), resolved
    /// against the analyzed unit. Observational and `serde(skip)`ped:
    /// report JSON and rendered bytes are identical whether or not anyone
    /// looks at the profile — `--profile-out` serializes it separately.
    #[serde(skip)]
    pub profile: symexec::profile::SourceProfile,
}

impl Report {
    /// Whether the function satisfies nonreversibility.
    pub fn is_secure(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether the exploration lost *paths* (budget, deadline, cancel or a
    /// panicked task): the leak set is then a lower bound, and a "secure"
    /// verdict is under-approximate. Precision-only degradations
    /// (widening) do not count — they keep the leak set intact.
    pub fn is_degraded(&self) -> bool {
        self.degradations.iter().any(Degradation::loses_paths)
    }

    /// The explicit findings.
    pub fn explicit_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.kind == FindingKind::Explicit)
    }

    /// The implicit findings.
    pub fn implicit_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.kind == FindingKind::Implicit)
    }

    /// The timing-channel findings (§VIII-A extension).
    pub fn timing_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.kind == FindingKind::Timing)
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Never — the report structure is always serializable.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== PrivacyScope warning report ===")?;
        writeln!(
            f,
            "Function `{}` — {} path(s), {} finding(s), {:.3} ms{}",
            self.function,
            self.stats.paths,
            self.findings.len(),
            self.stats.time.as_secs_f64() * 1000.0,
            if self.stats.exhausted {
                " [budget exhausted: results are a lower bound]"
            } else {
                ""
            }
        )?;
        if !self.degradations.is_empty() {
            writeln!(f, "Degradations:")?;
            for degradation in &self.degradations {
                writeln!(f, "  - {degradation}")?;
            }
            if self.is_degraded() {
                writeln!(
                    f,
                    "Soundness: paths were lost — the leak set is a lower bound \
                     (a clean verdict is under-approximate)."
                )?;
            } else {
                writeln!(
                    f,
                    "Soundness: every feasible path was explored; only value \
                     precision was reduced (taint preserved) — the leak set is \
                     complete."
                )?;
            }
        }
        if let Some(path) = &self.checkpoint {
            writeln!(
                f,
                "Checkpoint: resumable snapshot at `{path}` (continue with --resume)."
            )?;
        }
        if self.findings.is_empty() {
            writeln!(f, "No nonreversibility violations detected.")?;
        }
        for finding in &self.findings {
            write!(f, "{finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            function: "enclave_process_data".into(),
            findings: vec![
                Finding {
                    kind: FindingKind::Explicit,
                    channel: "output[0]".into(),
                    secret: "secrets[0]".into(),
                    value: Some("($secrets[0] + 101)".into()),
                    recovery: Some("(observed - 101)".into()),
                    observations: vec![],
                    line: Some(3),
                },
                Finding {
                    kind: FindingKind::Implicit,
                    channel: "return value".into(),
                    secret: "secrets[1]".into(),
                    value: None,
                    recovery: None,
                    observations: vec![
                        PathObservation {
                            path_condition: "($secrets[1] == 0)".into(),
                            value: "0".into(),
                        },
                        PathObservation {
                            path_condition: "!(($secrets[1] == 0))".into(),
                            value: "1".into(),
                        },
                    ],
                    line: Some(4),
                },
            ],
            degradations: vec![],
            checkpoint: None,
            stats: AnalysisStats {
                paths: 2,
                forks: 1,
                infeasible: 0,
                cache_hits: 3,
                cache_misses: 5,
                tier1_refuted: 0,
                tier2_refuted: 0,
                tier2_unknown: 0,
                exhausted: false,
                time: Duration::from_micros(1234),
                loc: 9,
            },
            profile: symexec::profile::SourceProfile::default(),
        }
    }

    #[test]
    fn rendering_is_box1_shaped() {
        let text = sample().to_string();
        assert!(text.contains("PrivacyScope warning report"));
        assert!(text.contains("[EXPLICIT] output[0] reveals secret `secrets[0]`"));
        assert!(text.contains("observable value: ($secrets[0] + 101)"));
        assert!(text.contains("recovery: secrets[0] = (observed - 101)"));
        assert!(text.contains("[IMPLICIT] return value reveals secret `secrets[1]`"));
        assert!(text.contains("path ($secrets[1] == 0): observes 0"));
    }

    #[test]
    fn json_round_trip() {
        let report = sample();
        let json = report.to_json();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn finding_filters() {
        let report = sample();
        assert_eq!(report.explicit_findings().count(), 1);
        assert_eq!(report.implicit_findings().count(), 1);
        assert!(!report.is_secure());
    }

    #[test]
    fn secure_report_renders() {
        let report = Report {
            function: "f".into(),
            findings: vec![],
            degradations: vec![],
            checkpoint: None,
            stats: AnalysisStats::default(),
            profile: symexec::profile::SourceProfile::default(),
        };
        assert!(report.is_secure());
        assert!(!report.is_degraded());
        assert!(report
            .to_string()
            .contains("No nonreversibility violations"));
    }

    #[test]
    fn degraded_report_states_soundness() {
        let mut report = Report {
            function: "f".into(),
            findings: vec![],
            degradations: vec![Degradation::LoopWidened { count: 2 }],
            checkpoint: None,
            stats: AnalysisStats::default(),
            profile: symexec::profile::SourceProfile::default(),
        };
        // Precision-only: the leak set is still complete.
        assert!(!report.is_degraded());
        let text = report.to_string();
        assert!(text.contains("2 loop(s) havoc-widened"), "{text}");
        assert!(text.contains("the leak set is complete"), "{text}");

        report.degradations.push(Degradation::DeadlineExceeded {
            wave: 4,
            dropped: 7,
        });
        assert!(report.is_degraded());
        let text = report.to_string();
        assert!(text.contains("deadline exceeded at wave 4"), "{text}");
        assert!(text.contains("lower bound"), "{text}");
    }
}
