//! Range-based constraint management and feasibility checking.
//!
//! This deliberately matches the power of Clang Static Analyzer's
//! `RangeConstraintManager` (the engine the paper's prototype runs on)
//! rather than an SMT solver: it tracks per-symbol integer intervals and
//! disequality sets, normalizes `±constant` terms, and answers "is this
//! fork still feasible?". Constraints it cannot represent are simply not
//! recorded — the fork stays feasible, which is sound for a *detector*
//! (never prunes a real path) at the cost of possible extra paths.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::RwLock;

use minic::ast::{BinOp, UnOp};
use serde::{Deserialize, Serialize};

use crate::concrete::Assignment;
use crate::domain::AbstractDomain;
use crate::path::PathCondition;
use crate::solver::{self, Verdict};
use crate::value::SVal;

/// Outcome of adding an assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// The constraint set remains satisfiable (as far as the manager can
    /// tell).
    Feasible,
    /// The constraint set became contradictory; the path must be dropped.
    Infeasible,
}

/// How much feasibility machinery a run enables (`--feasibility=…`).
///
/// The tiers are strictly layered: each mode runs every cheaper tier
/// first and only escalates on "unknown", so a stronger mode can only
/// refute *more* branch sides, never fewer — and never a concretely
/// satisfiable one (each tier is sound for refutation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FeasibilityMode {
    /// Tier 0 only: the Clang-SA-faithful syntactic check above. The
    /// default — probe keys, counters, and reports are byte-identical to
    /// earlier releases.
    #[default]
    Syntactic,
    /// Tier 0 + Tier 1: interval/congruence abstract domain
    /// ([`crate::domain`]).
    Intervals,
    /// Tiers 0–2: also the SAT-lite DPLL solver ([`crate::solver`]) when
    /// the domain answers "unknown".
    Full,
}

impl FeasibilityMode {
    /// Parses a `--feasibility` flag value.
    pub fn parse(s: &str) -> Option<FeasibilityMode> {
        match s {
            "syntactic" => Some(FeasibilityMode::Syntactic),
            "intervals" => Some(FeasibilityMode::Intervals),
            "full" => Some(FeasibilityMode::Full),
            _ => None,
        }
    }

    /// The canonical flag spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            FeasibilityMode::Syntactic => "syntactic",
            FeasibilityMode::Intervals => "intervals",
            FeasibilityMode::Full => "full",
        }
    }
}

/// Which tier settled a feasibility probe — the unit the per-tier
/// `Stats`/profiler counters are denominated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// No tier could refute the branch side.
    Feasible,
    /// Tier 0 (syntactic range/disequality check) refuted it.
    RefutedSyntactic,
    /// Tier 1 (interval/congruence domain) refuted it.
    RefutedIntervals,
    /// Tier 2 (SAT-lite solver) refuted it.
    RefutedSolver,
    /// Tier 2 ran and exhausted its budget; treated as feasible.
    SolverUnknown,
}

impl ProbeOutcome {
    /// Collapses the outcome to the engine's two-valued answer.
    pub fn feasibility(&self) -> Feasibility {
        match self {
            ProbeOutcome::Feasible | ProbeOutcome::SolverUnknown => Feasibility::Feasible,
            _ => Feasibility::Infeasible,
        }
    }
}

/// The layered feasibility pipeline: syntactic → interval/congruence →
/// SAT-lite → assume-feasible. A pure function of its arguments, so it
/// memoizes and parallelizes freely.
pub fn probe_pipeline(
    mode: FeasibilityMode,
    cm: &ConstraintManager,
    domain: &AbstractDomain,
    path: &PathCondition,
    cond: &SVal,
    truth: bool,
) -> ProbeOutcome {
    // Tier 0: the syntactic check is the cheapest and also what the
    // committed `assume` will replay, so it always runs first.
    if cm.clone().assume(cond, truth) == Feasibility::Infeasible {
        return ProbeOutcome::RefutedSyntactic;
    }
    if mode == FeasibilityMode::Syntactic {
        return ProbeOutcome::Feasible;
    }
    // Tier 1: refine a clone of the per-path abstract domain.
    if domain.clone().assume(cond, truth) == Feasibility::Infeasible {
        return ProbeOutcome::RefutedIntervals;
    }
    if mode == FeasibilityMode::Intervals {
        return ProbeOutcome::Feasible;
    }
    // Tier 2: SAT-lite over π ∧ cond with a deterministic budget.
    match solver::check_path(path, cond, truth, domain, solver::Budget::default()) {
        Verdict::Unsat => ProbeOutcome::RefutedSolver,
        Verdict::Unknown => ProbeOutcome::SolverUnknown,
        Verdict::Sat => ProbeOutcome::Feasible,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct Range {
    lo: i128,
    hi: i128,
}

impl Range {
    fn full() -> Range {
        Range {
            lo: i64::MIN as i128,
            hi: i64::MAX as i128,
        }
    }

    fn is_empty(&self) -> bool {
        self.lo > self.hi
    }
}

/// Tracks per-symbol ranges and disequalities; cloned on every fork.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConstraintManager {
    ranges: BTreeMap<u32, Range>,
    diseqs: BTreeMap<u32, BTreeSet<i64>>,
}

impl ConstraintManager {
    /// Creates an unconstrained manager.
    pub fn new() -> Self {
        ConstraintManager::default()
    }

    /// Assumes `cond` is non-zero (`truth = true`) or zero (`false`),
    /// returning whether the accumulated constraints remain satisfiable.
    pub fn assume(&mut self, cond: &SVal, truth: bool) -> Feasibility {
        match cond {
            SVal::Int(v) => {
                if (*v != 0) == truth {
                    Feasibility::Feasible
                } else {
                    Feasibility::Infeasible
                }
            }
            SVal::Float(v) => {
                if (v.0 != 0.0) == truth {
                    Feasibility::Feasible
                } else {
                    Feasibility::Infeasible
                }
            }
            SVal::Unary { op: UnOp::Not, arg } => self.assume(arg, !truth),
            SVal::Binary { op, lhs, rhs } => self.assume_binary(*op, lhs, rhs, truth),
            SVal::Sym(sym) => {
                // `if (s)` — s != 0 when taken, s == 0 otherwise.
                if truth {
                    self.add_diseq(sym.id, 0)
                } else {
                    self.add_eq(sym.id, 0)
                }
            }
            // Pointers, calls, unknowns: unconstrained.
            _ => Feasibility::Feasible,
        }
    }

    fn assume_binary(&mut self, op: BinOp, lhs: &SVal, rhs: &SVal, truth: bool) -> Feasibility {
        match (op, truth) {
            (BinOp::LogAnd, true) | (BinOp::LogOr, false) => {
                // conjunction: both sides constrained
                let first = self.assume(lhs, op == BinOp::LogAnd);
                if first == Feasibility::Infeasible {
                    return first;
                }
                self.assume(rhs, op == BinOp::LogAnd)
            }
            (BinOp::LogAnd, false) | (BinOp::LogOr, true) => {
                // disjunction: representable only if one side is constant
                Feasibility::Feasible
            }
            _ if op.is_comparison() => {
                let op = if truth { op } else { negate_cmp(op) };
                // Try `expr cmp const` in both orientations.
                if let Some(c) = const_of(rhs) {
                    if let Some((sym, offset)) = linear_sym(lhs) {
                        return self.apply_cmp(sym, op, c as i128 - offset);
                    }
                }
                if let Some(c) = const_of(lhs) {
                    if let Some((sym, offset)) = linear_sym(rhs) {
                        return self.apply_cmp(sym, flip_cmp(op), c as i128 - offset);
                    }
                }
                Feasibility::Feasible
            }
            _ => Feasibility::Feasible,
        }
    }

    fn apply_cmp(&mut self, sym: u32, op: BinOp, c: i128) -> Feasibility {
        match op {
            BinOp::Lt => self.narrow(sym, i64::MIN as i128, c - 1),
            BinOp::Le => self.narrow(sym, i64::MIN as i128, c),
            BinOp::Gt => self.narrow(sym, c + 1, i64::MAX as i128),
            BinOp::Ge => self.narrow(sym, c, i64::MAX as i128),
            BinOp::Eq => {
                if let Ok(v) = i64::try_from(c) {
                    self.add_eq(sym, v)
                } else {
                    Feasibility::Infeasible
                }
            }
            BinOp::Ne => {
                if let Ok(v) = i64::try_from(c) {
                    self.add_diseq(sym, v)
                } else {
                    Feasibility::Feasible
                }
            }
            _ => Feasibility::Feasible,
        }
    }

    fn narrow(&mut self, sym: u32, lo: i128, hi: i128) -> Feasibility {
        let range = self.ranges.entry(sym).or_insert_with(Range::full);
        range.lo = range.lo.max(lo);
        range.hi = range.hi.min(hi);
        if range.is_empty() {
            return Feasibility::Infeasible;
        }
        self.check_sym(sym)
    }

    fn add_eq(&mut self, sym: u32, v: i64) -> Feasibility {
        if self.diseqs.get(&sym).is_some_and(|set| set.contains(&v)) {
            return Feasibility::Infeasible;
        }
        self.narrow(sym, v as i128, v as i128)
    }

    fn add_diseq(&mut self, sym: u32, v: i64) -> Feasibility {
        self.diseqs.entry(sym).or_default().insert(v);
        self.check_sym(sym)
    }

    /// Re-checks a symbol after an update: a range collapsed onto its
    /// disequalities is contradictory.
    fn check_sym(&mut self, sym: u32) -> Feasibility {
        let Some(range) = self.ranges.get(&sym) else {
            return Feasibility::Feasible;
        };
        if range.is_empty() {
            return Feasibility::Infeasible;
        }
        if let Some(diseqs) = self.diseqs.get(&sym) {
            // Only decidable cheaply when the range is small.
            let width = range.hi - range.lo;
            if width <= diseqs.len() as i128 {
                let all_excluded = (range.lo..=range.hi).all(|v| {
                    i64::try_from(v)
                        .map(|v| diseqs.contains(&v))
                        .unwrap_or(false)
                });
                if all_excluded {
                    return Feasibility::Infeasible;
                }
            }
        }
        Feasibility::Feasible
    }

    /// The currently known value of a symbol, if its range is a singleton.
    pub fn known_value(&self, sym: u32) -> Option<i64> {
        let range = self.ranges.get(&sym)?;
        if range.lo == range.hi {
            i64::try_from(range.lo).ok()
        } else {
            None
        }
    }

    /// Rewrites every constrained symbol id through `f`.
    ///
    /// Used by the worklist engine's deterministic merge to translate
    /// task-local symbol ids into the global numbering. `f` must be
    /// injective over the recorded ids or constraints would collide.
    pub(crate) fn remap_symbols<F: Fn(u32) -> u32>(&mut self, f: &F) {
        self.ranges = std::mem::take(&mut self.ranges)
            .into_iter()
            .map(|(sym, range)| (f(sym), range))
            .collect();
        self.diseqs = std::mem::take(&mut self.diseqs)
            .into_iter()
            .map(|(sym, set)| (f(sym), set))
            .collect();
    }

    /// The ids of every symbol the manager holds a fact about.
    pub(crate) fn symbol_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges.keys().chain(self.diseqs.keys()).copied()
    }

    /// Produces a concrete assignment satisfying the recorded constraints
    /// for the given symbols (best effort; constraints the manager did not
    /// record are not reflected).
    pub fn model(&self, symbols: &BTreeSet<u32>) -> Assignment {
        let mut out = Assignment::new();
        for &sym in symbols {
            let range = self.ranges.get(&sym).copied().unwrap_or_else(Range::full);
            let empty = BTreeSet::new();
            let diseqs = self.diseqs.get(&sym).unwrap_or(&empty);
            // Prefer small non-negative witnesses.
            let mut candidates = (0..=64).map(i128::from).collect::<Vec<_>>();
            candidates.push(range.lo);
            candidates.push(range.hi);
            let pick = candidates
                .into_iter()
                .filter(|v| *v >= range.lo && *v <= range.hi)
                .find(|v| {
                    i64::try_from(*v)
                        .map(|v64| !diseqs.contains(&v64))
                        .unwrap_or(false)
                })
                .unwrap_or(range.lo.max(i64::MIN as i128));
            out.insert(sym, i64::try_from(pick).unwrap_or(0));
        }
        out
    }
}

/// One memoized probe: the full key (for exact verification on a digest
/// hit) and the tier outcome. `domain`/`path` stay empty in
/// [`FeasibilityMode::Syntactic`] (they are not part of that mode's key).
#[derive(Debug)]
struct CacheEntry {
    cm: ConstraintManager,
    domain: AbstractDomain,
    path: PathCondition,
    cond: SVal,
    truth: bool,
    outcome: ProbeOutcome,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Probes bucketed by their FNV probe-key digest (the same digest the
    /// engine logs for deterministic hit/miss accounting). Digest
    /// collisions are tolerated: a bucket holds every distinct triple that
    /// hashed to it, and hits verify structurally.
    buckets: HashMap<u64, Vec<CacheEntry>>,
    /// Total entries across all buckets (capacity accounting).
    len: usize,
}

/// Memoizes the tiered feasibility pipeline across path states and worker
/// threads.
///
/// Probes are bucketed by their 64-bit probe-key digest
/// ([`crate::checkpoint::probe_key_tiered`]) — the digest the engine has
/// already computed for its deterministic hit/miss counters, so the common
/// path hashes the constraint set exactly once. A digest hit is verified
/// structurally against the stored key *by reference* — no clone is taken
/// to look up — so a hit can never alias two different probes; the key is
/// cloned only when a miss inserts. The `RwLock`/`HashMap` pair (imported
/// at the top of this file) exists solely for this cache: many engine
/// workers probe concurrently under the read lock, and only misses briefly
/// take the write lock.
///
/// There is no separate syntactic pre-check in front of the cache anymore:
/// the syntactic check is simply tier 0 of [`probe_pipeline`], which runs
/// behind the memo table like every other tier. The engine only consults
/// the cache for *speculative* checks (fork pre-probes, loop concreteness
/// probes) whose constraint sets are discarded afterwards; committed
/// `assume` calls still execute directly so their narrowing is recorded in
/// the path state. Because the pipeline is a pure function of the key,
/// caching never changes results — only wall-clock.
#[derive(Debug)]
pub struct FeasibilityCache {
    entries: RwLock<CacheInner>,
    capacity: usize,
}

impl FeasibilityCache {
    /// Creates a cache holding at most `capacity` memoized probes.
    /// A capacity of 0 disables memoization entirely.
    pub fn new(capacity: usize) -> FeasibilityCache {
        FeasibilityCache {
            entries: RwLock::new(CacheInner::default()),
            capacity,
        }
    }

    /// Returns the feasibility of assuming `cond == truth` under `cm` in
    /// [`FeasibilityMode::Syntactic`], memoizing the (pure) computation.
    ///
    /// Computes the probe digest itself; the engine (which already holds a
    /// digest and a full path state) uses [`Self::check_outcome`].
    pub fn check(&self, cm: &ConstraintManager, cond: &SVal, truth: bool) -> Feasibility {
        let digest = crate::checkpoint::probe_key(cm, cond, truth);
        self.check_outcome(
            digest,
            FeasibilityMode::Syntactic,
            cm,
            &AbstractDomain::new(),
            &PathCondition::new(),
            cond,
            truth,
        )
        .feasibility()
    }

    /// Runs the tiered pipeline for `cond == truth`, with the probe digest
    /// supplied by the caller (avoiding a second hash of the constraint
    /// set), and memoizes the per-tier outcome.
    ///
    /// `domain` and `path` are only part of the key when `mode` enables
    /// the tiers that read them — in [`FeasibilityMode::Syntactic`] the
    /// lookup is byte-compatible with earlier releases.
    #[allow(clippy::too_many_arguments)]
    pub fn check_outcome(
        &self,
        digest: u64,
        mode: FeasibilityMode,
        cm: &ConstraintManager,
        domain: &AbstractDomain,
        path: &PathCondition,
        cond: &SVal,
        truth: bool,
    ) -> ProbeOutcome {
        if self.capacity == 0 {
            return probe_pipeline(mode, cm, domain, path, cond, truth);
        }
        let tiered = mode != FeasibilityMode::Syntactic;
        if let Ok(inner) = self.entries.read() {
            if let Some(bucket) = inner.buckets.get(&digest) {
                for entry in bucket {
                    if entry.truth == truth
                        && entry.cond == *cond
                        && entry.cm == *cm
                        && (!tiered || (entry.domain == *domain && entry.path == *path))
                    {
                        return entry.outcome;
                    }
                }
            }
        }
        let outcome = probe_pipeline(mode, cm, domain, path, cond, truth);
        if let Ok(mut inner) = self.entries.write() {
            if inner.len < self.capacity {
                inner.len += 1;
                inner.buckets.entry(digest).or_default().push(CacheEntry {
                    cm: cm.clone(),
                    domain: if tiered {
                        domain.clone()
                    } else {
                        AbstractDomain::new()
                    },
                    path: if tiered {
                        path.clone()
                    } else {
                        PathCondition::new()
                    },
                    cond: cond.clone(),
                    truth,
                    outcome,
                });
            }
        }
        outcome
    }

    /// Number of memoized probes currently held.
    pub fn len(&self) -> usize {
        self.entries.read().map(|e| e.len).unwrap_or(0)
    }

    /// Whether the cache holds no memoized probes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

pub(crate) fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

pub(crate) fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

pub(crate) fn const_of(sval: &SVal) -> Option<i64> {
    sval.as_int()
}

/// Matches `sym (± const)*`, returning the symbol id and accumulated offset
/// such that the expression equals `sym + offset`.
///
/// Deliberately *not* handling multiplication: `2·s == 19` must stay
/// unconstrained rather than be refuted by divisibility — the paper's
/// engine explores that branch (Table III) and so do we.
fn linear_sym(sval: &SVal) -> Option<(u32, i128)> {
    match sval {
        SVal::Sym(sym) => Some((sym.id, 0)),
        SVal::Binary { op, lhs, rhs } => match op {
            BinOp::Add => {
                if let Some(c) = const_of(rhs) {
                    let (sym, off) = linear_sym(lhs)?;
                    Some((sym, off + c as i128))
                } else if let Some(c) = const_of(lhs) {
                    let (sym, off) = linear_sym(rhs)?;
                    Some((sym, off + c as i128))
                } else {
                    None
                }
            }
            BinOp::Sub => {
                let c = const_of(rhs)?;
                let (sym, off) = linear_sym(lhs)?;
                Some((sym, off - c as i128))
            }
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Symbol;

    fn s(id: u32) -> SVal {
        SVal::Sym(Symbol::new(id, format!("s{id}")))
    }

    fn cmp(op: BinOp, lhs: SVal, rhs: SVal) -> SVal {
        SVal::binary(op, lhs, rhs)
    }

    #[test]
    fn contradictory_ranges_are_infeasible() {
        let mut cm = ConstraintManager::new();
        assert_eq!(
            cm.assume(&cmp(BinOp::Gt, s(1), SVal::Int(10)), true),
            Feasibility::Feasible
        );
        assert_eq!(
            cm.assume(&cmp(BinOp::Lt, s(1), SVal::Int(5)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn negation_flips_the_comparison() {
        let mut cm = ConstraintManager::new();
        // !(s < 5)  ⇒  s >= 5
        assert_eq!(
            cm.assume(&cmp(BinOp::Lt, s(1), SVal::Int(5)), false),
            Feasibility::Feasible
        );
        assert_eq!(
            cm.assume(&cmp(BinOp::Eq, s(1), SVal::Int(3)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn equality_then_disequality_conflicts() {
        let mut cm = ConstraintManager::new();
        cm.assume(&cmp(BinOp::Eq, s(1), SVal::Int(7)), true);
        assert_eq!(cm.known_value(1), Some(7));
        assert_eq!(
            cm.assume(&cmp(BinOp::Ne, s(1), SVal::Int(7)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn disequality_then_equality_conflicts() {
        let mut cm = ConstraintManager::new();
        cm.assume(&cmp(BinOp::Ne, s(1), SVal::Int(7)), true);
        assert_eq!(
            cm.assume(&cmp(BinOp::Eq, s(1), SVal::Int(7)), true),
            Feasibility::Infeasible
        );
        assert_eq!(
            cm.assume(&cmp(BinOp::Eq, s(1), SVal::Int(8)), true),
            Feasibility::Feasible
        );
    }

    #[test]
    fn offset_normalization() {
        let mut cm = ConstraintManager::new();
        // (s + 5) == 14  ⇒  s == 9
        let e = cmp(
            BinOp::Eq,
            SVal::binary(BinOp::Add, s(1), SVal::Int(5)),
            SVal::Int(14),
        );
        cm.assume(&e, true);
        assert_eq!(cm.known_value(1), Some(9));
        // (s - 3) > 0  ⇒  s > 3 — consistent
        let e2 = cmp(
            BinOp::Gt,
            SVal::binary(BinOp::Sub, s(1), SVal::Int(3)),
            SVal::Int(0),
        );
        assert_eq!(cm.assume(&e2, true), Feasibility::Feasible);
    }

    #[test]
    fn flipped_orientation() {
        let mut cm = ConstraintManager::new();
        // 5 > s ⇒ s < 5
        cm.assume(&cmp(BinOp::Gt, SVal::Int(5), s(1)), true);
        assert_eq!(
            cm.assume(&cmp(BinOp::Ge, s(1), SVal::Int(5)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn multiplication_is_not_refuted() {
        // 2*s == 19 has no integer solution, but the manager must stay
        // Clang-SA-faithful and keep the branch alive (paper Table III).
        let mut cm = ConstraintManager::new();
        let e = cmp(
            BinOp::Eq,
            SVal::binary(BinOp::Mul, SVal::Int(2), s(1)),
            SVal::Int(19),
        );
        assert_eq!(cm.assume(&e, true), Feasibility::Feasible);
    }

    #[test]
    fn conjunctions_decompose() {
        let mut cm = ConstraintManager::new();
        let e = SVal::binary(
            BinOp::LogAnd,
            cmp(BinOp::Gt, s(1), SVal::Int(0)),
            cmp(BinOp::Lt, s(1), SVal::Int(0)),
        );
        assert_eq!(cm.assume(&e, true), Feasibility::Infeasible);
    }

    #[test]
    fn negated_disjunction_decomposes() {
        let mut cm = ConstraintManager::new();
        // !(s < 0 || s > 10)  ⇒  0 <= s <= 10
        let e = SVal::binary(
            BinOp::LogOr,
            cmp(BinOp::Lt, s(1), SVal::Int(0)),
            cmp(BinOp::Gt, s(1), SVal::Int(10)),
        );
        assert_eq!(cm.assume(&e, false), Feasibility::Feasible);
        assert_eq!(
            cm.assume(&cmp(BinOp::Eq, s(1), SVal::Int(11)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn bare_symbol_condition() {
        let mut cm = ConstraintManager::new();
        assert_eq!(cm.assume(&s(1), false), Feasibility::Feasible); // s == 0
        assert_eq!(cm.known_value(1), Some(0));
        assert_eq!(cm.assume(&s(1), true), Feasibility::Infeasible); // s != 0
    }

    #[test]
    fn constants_decide_immediately() {
        let mut cm = ConstraintManager::new();
        assert_eq!(cm.assume(&SVal::Int(1), true), Feasibility::Feasible);
        assert_eq!(cm.assume(&SVal::Int(0), true), Feasibility::Infeasible);
        assert_eq!(cm.assume(&SVal::Int(0), false), Feasibility::Feasible);
    }

    #[test]
    fn model_respects_constraints() {
        let mut cm = ConstraintManager::new();
        cm.assume(&cmp(BinOp::Ge, s(1), SVal::Int(10)), true);
        cm.assume(&cmp(BinOp::Ne, s(1), SVal::Int(10)), true);
        let mut syms = BTreeSet::new();
        syms.insert(1);
        let model = cm.model(&syms);
        let v = model[&1];
        assert!(v > 10, "bad witness {v}");
    }

    #[test]
    fn remap_symbols_translates_constraint_keys() {
        let mut cm = ConstraintManager::new();
        cm.assume(&cmp(BinOp::Ge, s(7), SVal::Int(3)), true);
        cm.assume(&cmp(BinOp::Ne, s(8), SVal::Int(0)), true);
        cm.remap_symbols(&|id| id + 100);
        assert_eq!(cm.known_value(7), None);
        assert_eq!(
            cm.assume(&cmp(BinOp::Lt, s(107), SVal::Int(3)), true),
            Feasibility::Infeasible
        );
        assert_eq!(
            cm.assume(&cmp(BinOp::Eq, s(108), SVal::Int(0)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn feasibility_cache_agrees_with_direct_assume() {
        let cache = FeasibilityCache::new(64);
        let mut cm = ConstraintManager::new();
        cm.assume(&cmp(BinOp::Gt, s(1), SVal::Int(10)), true);
        let cond = cmp(BinOp::Lt, s(1), SVal::Int(5));
        // Miss, then hit — both must match the uncached answer.
        for _ in 0..2 {
            assert_eq!(cache.check(&cm, &cond, true), Feasibility::Infeasible);
            assert_eq!(cache.check(&cm, &cond, false), Feasibility::Feasible);
        }
        assert_eq!(cache.len(), 2);
        // The probe must not have mutated the manager.
        assert_eq!(cm.clone().assume(&cond, true), Feasibility::Infeasible);
    }

    #[test]
    fn feasibility_cache_capacity_caps_inserts() {
        let cache = FeasibilityCache::new(1);
        let cm = ConstraintManager::new();
        cache.check(&cm, &cmp(BinOp::Gt, s(1), SVal::Int(0)), true);
        cache.check(&cm, &cmp(BinOp::Gt, s(2), SVal::Int(0)), true);
        assert_eq!(cache.len(), 1);
        let disabled = FeasibilityCache::new(0);
        disabled.check(&cm, &cmp(BinOp::Gt, s(1), SVal::Int(0)), true);
        assert!(disabled.is_empty());
    }

    #[test]
    fn small_range_fully_excluded_is_infeasible() {
        let mut cm = ConstraintManager::new();
        cm.assume(&cmp(BinOp::Ge, s(1), SVal::Int(0)), true);
        cm.assume(&cmp(BinOp::Le, s(1), SVal::Int(1)), true);
        cm.assume(&cmp(BinOp::Ne, s(1), SVal::Int(0)), true);
        assert_eq!(
            cm.assume(&cmp(BinOp::Ne, s(1), SVal::Int(1)), true),
            Feasibility::Infeasible
        );
    }
}
