//! Crash-safe checkpointing of an exploration at wave boundaries.
//!
//! The worklist engine only mutates its global state (secret sources, stats,
//! ledger, event log) at deterministic *wave boundaries* — between two
//! top-level statements every surviving path state is fully merged and the
//! exploration is a pure function of the frontier. A [`Snapshot`] captures
//! exactly that boundary state, so a run killed by a deadline, a
//! cancellation, or the OS can be resumed later and finish **byte-identical**
//! to an uninterrupted run at any worker count.
//!
//! # File layout
//!
//! A checkpoint file is one header line followed by the raw JSON payload:
//!
//! ```text
//! privacyscope-checkpoint v3 fingerprint=<16 hex> checksum=<16 hex> len=<bytes>
//! {"wave": 3, "entries": [...], ...}
//! ```
//!
//! * `fingerprint` — FNV-1a hash of the pretty-printed `TranslationUnit`,
//!   the entry name, the parameter bindings, and every analysis-relevant
//!   [`EngineConfig`] field (worker count, deadline, cancellation and cache
//!   sizing never change the result and are excluded). A snapshot only
//!   resumes against the exact analysis that wrote it.
//! * `checksum` / `len` — FNV-1a hash and byte length of the payload, so a
//!   truncated or bit-flipped file is rejected before deserialization.
//!
//! # Atomic-write protocol
//!
//! Snapshots are written to `<path>.tmp`, fsynced, then renamed over
//! `<path>` — a crash mid-write leaves either the previous snapshot or a
//! stray temp file, never a half-written checkpoint at the published path.
//!
//! Every rejection is a typed [`CheckpointError`]; loading never panics and
//! can never yield a silently wrong exploration (the payload is only
//! trusted after magic, version, length, checksum, and fingerprint all
//! pass).

use std::collections::BTreeSet;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::degrade::Ledger;
use crate::engine::{EngineConfig, Flow, ParamBinding, SourceTable, Stats};
use crate::profile::Profile;
use crate::state::{DeclassifyEvent, ExecState};
use crate::value::Region;

/// The checkpoint file-format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &str = "privacyscope-checkpoint";

/// Why a checkpoint file was rejected (or could not be produced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file is not a checkpoint, its header is unreadable, the payload
    /// does not deserialize into a frontier, or the frontier's `stats`
    /// disagree with its profile totals.
    Malformed {
        /// What failed to parse.
        detail: String,
    },
    /// The payload is shorter (or longer) than the header promised — the
    /// classic signature of a file truncated by a crash or a partial copy.
    Truncated {
        /// Payload bytes the header declared.
        expected: usize,
        /// Payload bytes actually present.
        found: usize,
    },
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The payload bytes do not hash to the header's checksum (bit rot,
    /// concurrent modification, or a corrupt copy).
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the bytes on disk.
        found: u64,
    },
    /// The snapshot belongs to a different analysis: source text, entry,
    /// bindings, or an analysis-relevant config knob changed since it was
    /// written. Resuming it would silently explore the wrong program.
    FingerprintMismatch {
        /// Fingerprint of the analysis being resumed.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O on `{}`: {message}", path.display())
            }
            CheckpointError::Malformed { detail } => {
                write!(f, "malformed checkpoint: {detail}")
            }
            CheckpointError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated checkpoint: header promises {expected} payload byte(s), \
                     file has {found}"
                )
            }
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported checkpoint version v{found} (this build reads v{supported})"
                )
            }
            CheckpointError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: header says {expected:016x}, \
                     payload hashes to {found:016x}"
                )
            }
            CheckpointError::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint fingerprint mismatch: this analysis is {expected:016x}, \
                     the snapshot was written for {found:016x} (source, entry, bindings, \
                     or analysis config changed)"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The boundary state a snapshot carries: everything `drive_worklist` and
/// the harvest need to continue as if never interrupted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Frontier {
    /// The 0-based wave (top-level statement) to execute next.
    pub wave: usize,
    /// Live path states with their control flow, in canonical order.
    pub entries: Vec<(ExecState, Flow)>,
    /// Secret sources found so far: source id → the key of its symbol
    /// and its human-readable name.
    pub sources: SourceTable,
    /// Counters accumulated so far. Written for the file format; on
    /// resume the path-level fields come from here and the exploration
    /// counters from `profile`, which must agree with them.
    pub stats: Stats,
    /// Whether `ledger` is not complete; redundant with it, and checked
    /// against it on load.
    pub exhausted: bool,
    /// Degradations accumulated so far.
    pub ledger: Ledger,
    /// Declassification events observed so far.
    pub events: Vec<DeclassifyEvent>,
    /// `[out]`-marked base regions from parameter binding.
    pub out_bases: Vec<(String, Region)>,
    /// FNV hashes of every feasibility-probe key accounted so far (the
    /// deterministic hit/miss counters in [`Stats`] are classifications
    /// against this set). Persisted so a resumed run counts probe
    /// redundancy exactly like an uninterrupted one.
    pub probe_seen: BTreeSet<u64>,
    /// Per-source-site exploration profile accumulated so far: the source
    /// of the exploration counters. Merged in canonical wave order, so a
    /// resumed run's final profile is byte-identical to an uninterrupted
    /// one.
    pub profile: Profile,
}

/// A validated, resumable exploration snapshot.
///
/// Produced by the engine when [`EngineConfig::checkpoint`] is set; loaded
/// with [`Snapshot::load`] and handed to
/// [`Engine::resume`](crate::Engine::resume), which additionally checks the
/// compatibility fingerprint against the analysis being resumed.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) fingerprint: u64,
    pub(crate) frontier: Frontier,
}

impl Snapshot {
    /// Reads and validates a checkpoint file (magic, version, length,
    /// checksum — the fingerprint is checked at resume time, when the
    /// analysis it must match is known).
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for unreadable, malformed,
    /// truncated, version-incompatible, or corrupt files. Never panics.
    pub fn load(path: &Path) -> Result<Snapshot, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Snapshot::parse(&text)
    }

    /// Reads only the header line of a checkpoint file and returns its
    /// compatibility fingerprint, without parsing (or even reading past)
    /// the payload. Recovery passes use this to detect stale snapshots —
    /// one written for a different analysis than the job on record —
    /// before committing to a full resume.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for unreadable files or headers
    /// that are not a supported checkpoint header. Never panics.
    pub fn peek_fingerprint(path: &Path) -> Result<u64, CheckpointError> {
        use std::io::{BufRead, BufReader};
        let io_err = |e: std::io::Error| CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let mut header = String::new();
        BufReader::new(std::fs::File::open(path).map_err(io_err)?)
            .read_line(&mut header)
            .map_err(io_err)?;
        Ok(Header::parse(header.trim_end_matches('\n'))?.fingerprint)
    }

    /// Parses checkpoint file contents (see the module docs for the layout).
    fn parse(text: &str) -> Result<Snapshot, CheckpointError> {
        let Some((header, payload)) = text.split_once('\n') else {
            return Err(CheckpointError::Malformed {
                detail: "missing header line".into(),
            });
        };
        let Header {
            fingerprint,
            checksum,
            len,
        } = Header::parse(header)?;
        if payload.len() != len {
            return Err(CheckpointError::Truncated {
                expected: len,
                found: payload.len(),
            });
        }
        let found = fnv1a(payload.as_bytes());
        if found != checksum {
            return Err(CheckpointError::ChecksumMismatch {
                expected: checksum,
                found,
            });
        }
        let frontier: Frontier =
            serde_json::from_str(payload).map_err(|e| CheckpointError::Malformed {
                detail: format!("payload does not deserialize: {e}"),
            })?;
        let derived = frontier.stats.with_totals(&frontier.profile.totals());
        if frontier.stats != derived {
            return Err(CheckpointError::Malformed {
                detail: format!(
                    "stats {:?} disagree with the profile totals {derived:?}",
                    frontier.stats
                ),
            });
        }
        if frontier.exhausted == frontier.ledger.is_complete() {
            return Err(CheckpointError::Malformed {
                detail: format!(
                    "exhausted {} disagrees with the ledger {:?}",
                    frontier.exhausted,
                    frontier.ledger.entries()
                ),
            });
        }
        Ok(Snapshot {
            fingerprint,
            frontier,
        })
    }

    /// Writes the snapshot atomically: serialize, write `<path>.tmp`,
    /// fsync, rename over `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on any filesystem failure and
    /// [`CheckpointError::Malformed`] if serialization fails (which the
    /// engine's own state never does).
    pub(crate) fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let payload =
            serde_json::to_string(&self.frontier).map_err(|e| CheckpointError::Malformed {
                detail: format!("frontier does not serialize: {e}"),
            })?;
        let header = format!(
            "{MAGIC} v{FORMAT_VERSION} fingerprint={:016x} checksum={:016x} len={}\n",
            self.fingerprint,
            fnv1a(payload.as_bytes()),
            payload.len(),
        );
        let io_err = |e: std::io::Error| CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(header.as_bytes()).map_err(io_err)?;
        file.write_all(payload.as_bytes()).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Checks the compatibility fingerprint against the analysis about to
    /// be resumed.
    pub(crate) fn verify_fingerprint(&self, expected: u64) -> Result<(), CheckpointError> {
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(CheckpointError::FingerprintMismatch {
                expected,
                found: self.fingerprint,
            })
        }
    }

    /// The wave the snapshot resumes at (diagnostics).
    pub fn wave(&self) -> usize {
        self.frontier.wave
    }

    /// Live path states the snapshot carries (diagnostics).
    pub fn frontier_len(&self) -> usize {
        self.frontier.entries.len()
    }

    /// Steps already attributed in the carried exploration profile
    /// (diagnostics — nonzero for any snapshot taken past wave 0).
    pub fn profile_steps(&self) -> u64 {
        self.frontier.profile.totals().steps
    }
}

/// A checkpoint's header line: `MAGIC v<version> fingerprint=<hex>
/// checksum=<hex> len=<bytes>`.
struct Header {
    fingerprint: u64,
    checksum: u64,
    len: usize,
}

impl Header {
    /// Parses a header line (without its newline): the magic first, then
    /// the version, which must be [`FORMAT_VERSION`], then the three
    /// fields in any order.
    fn parse(line: &str) -> Result<Header, CheckpointError> {
        let mut tokens = line.split(' ');
        if tokens.next() != Some(MAGIC) {
            return Err(CheckpointError::Malformed {
                detail: format!("not a `{MAGIC}` file"),
            });
        }
        let Some(raw) = tokens.next().and_then(|t| t.strip_prefix('v')) else {
            return Err(CheckpointError::Malformed {
                detail: "missing version token".into(),
            });
        };
        let version = raw.parse::<u32>().map_err(|_| CheckpointError::Malformed {
            detail: format!("unreadable version `{raw}`"),
        })?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let (mut fingerprint, mut checksum, mut len) = (None, None, None);
        for token in tokens {
            match token.split_once('=') {
                Some(("fingerprint", raw)) => fingerprint = u64::from_str_radix(raw, 16).ok(),
                Some(("checksum", raw)) => checksum = u64::from_str_radix(raw, 16).ok(),
                Some(("len", raw)) => len = raw.parse::<usize>().ok(),
                _ => {}
            }
        }
        let (Some(fingerprint), Some(checksum), Some(len)) = (fingerprint, checksum, len) else {
            return Err(CheckpointError::Malformed {
                detail: "header lacks fingerprint/checksum/len".into(),
            });
        };
        Ok(Header {
            fingerprint,
            checksum,
            len,
        })
    }
}

/// The compatibility fingerprint of one analysis: pretty-printed unit,
/// entry, bindings, and every [`EngineConfig`] field that shapes the
/// exploration *result*. Workers, feasibility cache, deadline, cancellation
/// and the checkpoint policy itself only affect wall-clock behaviour and
/// are deliberately excluded — a snapshot from a 4-worker deadline run
/// resumes fine under 1 worker and no deadline.
pub(crate) fn fingerprint(
    unit: &minic::TranslationUnit,
    entry: &str,
    bindings: &[ParamBinding],
    config: &EngineConfig,
) -> u64 {
    let text = format!(
        "{}\u{1f}{entry}\u{1f}{bindings:?}\u{1f}{}|{}|{}|{}|{}|{:?}|{:?}|{}|{}",
        minic::pretty::unit(unit),
        config.loop_bound,
        config.concrete_loop_limit,
        config.max_paths,
        config.max_steps_per_path,
        config.inline_depth,
        config.sink_functions,
        config.source_functions,
        config.record_trace,
        config.max_value_size,
    );
    // The feasibility pipeline decides which branch sides survive, and
    // the join of call returns and conditional expressions which states
    // the frontier holds, so their tags and settings always join the
    // fingerprint: a snapshot never resumes under another mode, or under a
    // pipeline with other rules (an `&&` that did not fork, say). The
    // frame tag marks stores that drop a returned call's dead locals: a
    // frontier that still holds them must not resume, since arms that
    // differ only there merge under one rule and not the other.
    let text = format!(
        "{text}|feasibility=wrap-faithful-slice/{}|merge=call-return+ternary+short-circuit/{}|frames=freed-at-return",
        config.feasibility.as_str(),
        config.merge_returns
    );
    fnv1a(text.as_bytes())
}

/// 64-bit FNV-1a — dependency-free, stable across platforms, good enough
/// to catch truncation/corruption and source drift (not an adversarial
/// integrity check; checkpoints are operator-local files). Public so the
/// service's job journal can checksum its records with the same function
/// the checkpoint header uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut hasher = FnvHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// [`std::hash::Hasher`] over FNV-1a, for hashing `Hash` types (feasibility
/// probe keys) with a *stable* function — `RandomState` would make the
/// hashes differ between processes, which would break checkpointed probe
/// accounting across a kill/resume boundary.
pub(crate) struct FnvHasher(u64);

impl FnvHasher {
    pub(crate) fn new() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The stable 64-bit key of one feasibility probe `(constraints, cond,
/// taken)`, as logged by `Explorer::probe` and accumulated in
/// [`Frontier::probe_seen`].
pub(crate) fn probe_key(
    constraints: &crate::constraints::ConstraintManager,
    cond: &crate::value::SVal,
    taken: bool,
) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = FnvHasher::new();
    constraints.hash(&mut hasher);
    cond.hash(&mut hasher);
    taken.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Counter;
    use crate::value::SymbolKey;

    fn sample() -> Snapshot {
        Snapshot {
            fingerprint: 0xfeed,
            frontier: Frontier {
                wave: 2,
                entries: vec![(ExecState::new(), Flow::Normal)],
                sources: SourceTable::from([(
                    1,
                    (
                        SymbolKey::RegionValue(Region::Global { name: "s".into() }),
                        "s".to_string(),
                    ),
                )]),
                stats: Stats {
                    forks: 4,
                    ..Stats::default()
                },
                exhausted: false,
                ledger: Ledger::new(),
                events: Vec::new(),
                out_bases: Vec::new(),
                probe_seen: BTreeSet::from([0xfeed_f00d]),
                profile: {
                    let mut profile = Profile::new();
                    profile.bump(7, Counter::Forks, 4);
                    profile
                },
            },
        }
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_and_load_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ps_ckpt_roundtrip_{}.snap", std::process::id()));
        let snapshot = sample();
        snapshot.write_atomic(&path).expect("writes");
        let back = Snapshot::load(&path).expect("loads");
        assert_eq!(back, snapshot);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        assert!(matches!(
            Snapshot::parse("not-a-checkpoint v1 x=y\n{}"),
            Err(CheckpointError::Malformed { .. })
        ));
        assert!(matches!(
            Snapshot::parse(&format!("{MAGIC} v999 fingerprint=0 checksum=0 len=0\n")),
            Err(CheckpointError::UnsupportedVersion { found: 999, .. })
        ));
        assert!(matches!(
            Snapshot::parse("no newline at all"),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ps_ckpt_corrupt_{}.snap", std::process::id()));
        sample().write_atomic(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");

        // Truncated payload: length check fires before deserialization.
        let cut = &text[..text.len() - 10];
        assert!(matches!(
            Snapshot::parse(cut),
            Err(CheckpointError::Truncated { .. })
        ));

        // Same length, flipped byte: the checksum fires.
        let mut bytes = text.clone().into_bytes();
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        let corrupt = String::from_utf8(bytes).expect("still utf-8");
        assert!(matches!(
            Snapshot::parse(&corrupt),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_stats_that_disagree_with_the_profile() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ps_ckpt_stats_{}.snap", std::process::id()));
        let mut snapshot = sample();
        snapshot.frontier.stats.forks = 5;
        snapshot.write_atomic(&path).expect("writes");
        assert!(matches!(
            Snapshot::load(&path),
            Err(CheckpointError::Malformed { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_exhausted_that_disagrees_with_the_ledger() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ps_ckpt_exhausted_{}.snap", std::process::id()));
        let mut snapshot = sample();
        snapshot.frontier.exhausted = true;
        snapshot.write_atomic(&path).expect("writes");
        assert!(matches!(
            Snapshot::load(&path),
            Err(CheckpointError::Malformed { .. })
        ));
        snapshot
            .frontier
            .ledger
            .record(crate::Degradation::StepBudget { dropped: 1 });
        snapshot.write_atomic(&path).expect("writes");
        assert_eq!(Snapshot::load(&path), Ok(snapshot.clone()));
        snapshot.frontier.exhausted = false;
        snapshot.write_atomic(&path).expect("writes");
        assert!(matches!(
            Snapshot::load(&path),
            Err(CheckpointError::Malformed { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn peek_and_load_read_one_header() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ps_ckpt_header_{}.snap", std::process::id()));
        sample().write_atomic(&path).expect("writes");
        assert_eq!(Snapshot::peek_fingerprint(&path), Ok(0xfeed));
        for header in [
            "not-a-checkpoint v3 fingerprint=1 checksum=0 len=0".to_string(),
            format!("{MAGIC} v999 fingerprint=1 checksum=0 len=0"),
            format!("{MAGIC} vx fingerprint=1 checksum=0 len=0"),
            format!("{MAGIC} v{FORMAT_VERSION} checksum=0 len=0"),
        ] {
            std::fs::write(&path, format!("{header}\n")).expect("writes");
            let peeked = Snapshot::peek_fingerprint(&path).expect_err("rejected");
            assert_eq!(Snapshot::load(&path).expect_err("rejected"), peeked);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_tracks_analysis_relevant_config_only() {
        let unit = minic::parse("int f(int a) { return a; }").expect("parses");
        let base = EngineConfig::default();
        let fp = |config: &EngineConfig| fingerprint(&unit, "f", &[ParamBinding::Scalar], config);
        let reference = fp(&base);

        // Result-shaping knobs change the fingerprint…
        let mut tighter = base.clone();
        tighter.loop_bound = 2;
        assert_ne!(fp(&tighter), reference);

        // …scheduling knobs do not.
        let mut scheduled = base.clone();
        scheduled.workers = 7;
        scheduled.deadline = Some(std::time::Duration::from_millis(1));
        scheduled.feasibility_cache = 0;
        scheduled.checkpoint = Some(PathBuf::from("/tmp/x.snap"));
        scheduled.checkpoint_every = 1;
        assert_eq!(fp(&scheduled), reference);

        // Different entry or bindings: different analysis.
        assert_ne!(
            fingerprint(&unit, "g", &[ParamBinding::Scalar], &base),
            reference
        );
        assert_ne!(
            fingerprint(&unit, "f", &[ParamBinding::SecretScalar], &base),
            reference
        );

        // The feasibility mode shapes which sides survive.
        let mut syntactic = base.clone();
        syntactic.feasibility = crate::constraints::FeasibilityMode::Syntactic;
        assert_ne!(fp(&syntactic), reference);

        // So does call-return merging.
        let mut unmerged = base.clone();
        unmerged.merge_returns = false;
        assert_ne!(fp(&unmerged), reference);
    }

    #[test]
    fn verify_fingerprint_is_typed() {
        let snapshot = sample();
        assert!(snapshot.verify_fingerprint(0xfeed).is_ok());
        assert_eq!(
            snapshot.verify_fingerprint(0xbeef),
            Err(CheckpointError::FingerprintMismatch {
                expected: 0xbeef,
                found: 0xfeed,
            })
        );
    }
}
