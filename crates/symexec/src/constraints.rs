//! Range-based constraint management and feasibility checking.
//!
//! This deliberately matches the power of Clang Static Analyzer's
//! `RangeConstraintManager` (the engine the paper's prototype runs on)
//! rather than an SMT solver: it tracks per-symbol integer intervals and
//! disequality sets, normalizes `±constant` terms, and answers "is this
//! fork still feasible?". Like Clang SA's manager it reasons over the
//! program's fixed-width integers: `sym + c` wraps at i64 exactly as the
//! engine folds it. Constraints it cannot represent are simply not
//! recorded — the fork stays feasible, which is sound for a *detector*
//! (never prunes a real path) at the cost of possible extra paths.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

use minic::ast::{BinOp, UnOp};
use serde::{Deserialize, Serialize};

use crate::checkpoint::FnvHasher;
use crate::domain::{AbstractDomain, Fact};
use crate::intern::Intern;
use crate::path::{Assumption, PathCondition};
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

/// Which tiers of the feasibility pipeline a run enables.
///
/// [`FeasibilityMode::Full`] is the default and the only pipeline the CLI
/// runs; [`FeasibilityMode::Syntactic`] is the paper-faithful tier-0
/// reference tests and soundfuzz compare it against. Each tier is sound
/// for refutation, so the default refutes more, never a reachable side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FeasibilityMode {
    /// Tier 0 only: the Clang-SA-faithful syntactic check.
    Syntactic,
    /// Tier 0, then the interval/congruence domain ([`crate::domain`]) and
    /// the SAT-lite solver ([`crate::solver`]) on the condition's
    /// independent slice.
    #[default]
    Full,
}

impl FeasibilityMode {
    /// Parses a mode name (`syntactic` or `full`).
    pub fn parse(s: &str) -> Option<FeasibilityMode> {
        match s {
            "syntactic" => Some(FeasibilityMode::Syntactic),
            "full" => Some(FeasibilityMode::Full),
            _ => None,
        }
    }

    /// The canonical mode name.
    pub fn as_str(&self) -> &'static str {
        match self {
            FeasibilityMode::Syntactic => "syntactic",
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
/// SAT-lite → assume-feasible, with tiers 1–2 run on the condition's
/// independent slice. A pure function of its arguments; this is the
/// uncached form of [`FeasibilityCache::probe`].
pub fn probe_pipeline(
    mode: FeasibilityMode,
    cm: &ConstraintManager,
    domain: &AbstractDomain,
    path: &PathCondition,
    cond: &SVal,
    truth: bool,
) -> ProbeOutcome {
    FeasibilityCache::new(0)
        .probe(mode, cm, domain, path, cond, truth)
        .0
}

/// Tiers 1–2 on a condition's slice. Tier 1 refines a clone of the whole
/// domain but reads only the facts of the condition's symbols; tier 2
/// reads only the slice's assumptions and the facts of their symbols. The
/// outcome is therefore a pure function of the [`SliceKey`].
fn slice_tiers(key: &SliceKey, domain: &AbstractDomain) -> ProbeOutcome {
    if domain.clone().assume(&key.cond, key.truth) == Feasibility::Infeasible {
        return ProbeOutcome::RefutedIntervals;
    }
    let budget = solver::Budget::default();
    match solver::check_path(&key.assumptions, &key.cond, key.truth, domain, budget) {
        Verdict::Unsat => ProbeOutcome::RefutedSolver,
        Verdict::Unknown => ProbeOutcome::SolverUnknown,
        Verdict::Sat => ProbeOutcome::Feasible,
    }
}

/// A probed condition with its independent slice of the path state
/// (KLEE's constraint independence): the π assumptions that transitively
/// share a symbol with the condition, oldest first, and the domain facts
/// of those symbols. Assumptions outside the slice constrain other
/// symbols only, so they cannot decide the condition.
#[derive(Debug, Clone, PartialEq)]
struct SliceKey {
    cond: SVal,
    truth: bool,
    assumptions: Vec<Assumption>,
    facts: Vec<(u64, Fact)>,
}

thread_local! {
    /// The slice walk's scratch: the symbols reached so far (sorted) and a
    /// membership flag per π index. Reused, so the walk allocates nothing
    /// once it has grown to the longest π seen.
    static WALK: RefCell<(Vec<u64>, Vec<bool>)> = RefCell::default();
}

impl SliceKey {
    fn of(domain: &AbstractDomain, path: &PathCondition, cond: &SVal, truth: bool) -> SliceKey {
        WALK.with(|walk| {
            let (symbols, members) = &mut *walk.borrow_mut();
            symbols.clear();
            members.clear();
            members.resize(path.len(), false);
            let add = |symbols: &mut Vec<u64>, sym: u64| {
                if let Err(at) = symbols.binary_search(&sym) {
                    symbols.insert(at, sym);
                }
                false
            };
            cond.any_symbol(&mut |sym| add(symbols, sym));
            // Grow to a fixpoint: a member can link the condition to an
            // older assumption only through a symbol it introduced.
            let mut grew = !symbols.is_empty();
            while grew {
                grew = false;
                for (i, assumption) in path.assumptions().iter().enumerate() {
                    if !members[i]
                        && assumption
                            .cond
                            .any_symbol(&mut |sym| symbols.binary_search(&sym).is_ok())
                    {
                        members[i] = true;
                        grew = true;
                        assumption.cond.any_symbol(&mut |sym| add(symbols, sym));
                    }
                }
            }
            SliceKey {
                cond: cond.clone(),
                truth,
                assumptions: path
                    .assumptions()
                    .iter()
                    .zip(members.iter())
                    .filter(|(_, member)| **member)
                    .map(|(assumption, _)| assumption.clone())
                    .collect(),
                facts: symbols
                    .iter()
                    .filter_map(|&sym| domain.recorded(sym).map(|fact| (sym, fact)))
                    .collect(),
            }
        })
    }

    /// Whether tiers 1–2 see nothing but the condition itself.
    fn is_empty(&self) -> bool {
        self.assumptions.is_empty() && self.facts.is_empty()
    }

    /// The stable digest of the key, hashing nodes through their cached
    /// shallow hashes: one word per assumption, not a walk of its tree.
    fn digest(&self) -> u64 {
        let mut hasher = FnvHasher::new();
        "slice".hash(&mut hasher);
        self.cond.shallow_hash().hash(&mut hasher);
        self.truth.hash(&mut hasher);
        for assumption in &self.assumptions {
            assumption.cond.shallow_hash().hash(&mut hasher);
            assumption.taken.hash(&mut hasher);
        }
        self.facts.hash(&mut hasher);
        hasher.finish()
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
    ranges: BTreeMap<u64, Range>,
    diseqs: BTreeMap<u64, BTreeSet<i64>>,
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
                if let Some(k) = const_of(rhs) {
                    if let Some((sym, offset)) = linear_sym(lhs) {
                        return self.apply_cmp(sym, op, offset, k);
                    }
                }
                if let Some(k) = const_of(lhs) {
                    if let Some((sym, offset)) = linear_sym(rhs) {
                        return self.apply_cmp(sym, flip_cmp(op), offset, k);
                    }
                }
                Feasibility::Feasible
            }
            _ => Feasibility::Feasible,
        }
    }

    /// Assumes `sym + offset ⋈ k`, where the left side wraps at i64 as the
    /// engine computes it. `==`/`!=` are exact through the wrapped shift
    /// `k − offset mod 2⁶⁴`. An order comparison narrows only when the
    /// symbol's current range shifted by `offset` stays inside i64 — then
    /// no value of the symbol wraps — and is left unrecorded otherwise.
    fn apply_cmp(&mut self, sym: u64, op: BinOp, offset: i128, k: i64) -> Feasibility {
        let target = i128::from(k) - offset;
        // `as` keeps the low 64 bits: the wrapped shift.
        let wrapped = target as i64;
        let range = self.ranges.get(&sym).copied().unwrap_or_else(Range::full);
        let no_wrap =
            range.lo + offset >= i64::MIN as i128 && range.hi + offset <= i64::MAX as i128;
        match op {
            BinOp::Eq => self.add_eq(sym, wrapped),
            BinOp::Ne => self.add_diseq(sym, wrapped),
            _ if !no_wrap => Feasibility::Feasible,
            BinOp::Lt => self.narrow(sym, i64::MIN as i128, target - 1),
            BinOp::Le => self.narrow(sym, i64::MIN as i128, target),
            BinOp::Gt => self.narrow(sym, target + 1, i64::MAX as i128),
            BinOp::Ge => self.narrow(sym, target, i64::MAX as i128),
            _ => Feasibility::Feasible,
        }
    }

    fn narrow(&mut self, sym: u64, lo: i128, hi: i128) -> Feasibility {
        let range = self.ranges.entry(sym).or_insert_with(Range::full);
        range.lo = range.lo.max(lo);
        range.hi = range.hi.min(hi);
        if range.is_empty() {
            return Feasibility::Infeasible;
        }
        self.check_sym(sym)
    }

    fn add_eq(&mut self, sym: u64, v: i64) -> Feasibility {
        if self.diseqs.get(&sym).is_some_and(|set| set.contains(&v)) {
            return Feasibility::Infeasible;
        }
        self.narrow(sym, v as i128, v as i128)
    }

    fn add_diseq(&mut self, sym: u64, v: i64) -> Feasibility {
        self.diseqs.entry(sym).or_default().insert(v);
        self.check_sym(sym)
    }

    /// Re-checks a symbol after an update: a range collapsed onto its
    /// disequalities is contradictory.
    fn check_sym(&mut self, sym: u64) -> Feasibility {
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
    pub fn known_value(&self, sym: u64) -> Option<i64> {
        let range = self.ranges.get(&sym)?;
        if range.lo == range.hi {
            i64::try_from(range.lo).ok()
        } else {
            None
        }
    }
}

/// The verified key of one memoized probe.
#[derive(Debug)]
enum ProbeKey {
    /// Tier 0: the constraint set and the condition.
    Syntactic {
        cm: ConstraintManager,
        cond: SVal,
        truth: bool,
    },
    /// Tiers 1–2: the condition and its slice.
    Slice(SliceKey),
}

/// One memoized probe: the full key (for exact verification on a digest
/// hit) and the outcome of the tiers it covers.
#[derive(Debug)]
struct CacheEntry {
    key: ProbeKey,
    outcome: ProbeOutcome,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Probes bucketed by their FNV digest (the digests the engine logs
    /// for deterministic hit/miss accounting). Digest collisions are
    /// tolerated: a bucket holds every distinct key that hashed to it, and
    /// hits verify structurally.
    buckets: HashMap<u64, Vec<CacheEntry>>,
    /// Total entries across all buckets (capacity accounting).
    len: usize,
}

/// Memoizes the feasibility pipeline across path states and worker
/// threads.
///
/// A probe takes two keys. Tier 0 runs first, memoized under the
/// syntactic key `checkpoint::probe_key` (constraint set,
/// condition, direction). A side it does not refute goes on to tiers 1–2,
/// memoized under the digest of the condition's independent slice —
/// which leaves out every constraint on unrelated symbols, so paths that
/// differ only there share the entry. A digest hit is verified
/// structurally against the stored key; the constraint set is cloned only
/// when a miss inserts. Many engine workers probe concurrently under the
/// read lock, and only misses briefly take the write lock.
///
/// The engine only consults the cache for *speculative* checks (fork
/// pre-probes, loop concreteness probes) whose constraint sets are
/// discarded afterwards; committed `assume` calls still execute directly
/// so their narrowing is recorded in the path state. Because each tier is
/// a pure function of its key, caching never changes results — only
/// wall-clock.
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

    /// Runs the pipeline for `cond == truth` and returns the outcome with
    /// the probe's accounting key: the syntactic key when tier 0 settles
    /// the probe, when `mode` stops there, or when the slice is empty (the
    /// tiers then see the condition alone); the slice digest otherwise.
    pub fn probe(
        &self,
        mode: FeasibilityMode,
        cm: &ConstraintManager,
        domain: &AbstractDomain,
        path: &PathCondition,
        cond: &SVal,
        truth: bool,
    ) -> (ProbeOutcome, u64) {
        let digest = crate::checkpoint::probe_key(cm, cond, truth);
        let syntactic = self.memo(
            digest,
            |key| {
                matches!(key, ProbeKey::Syntactic { cm: c, cond: v, truth: t }
                    if *t == truth && v == cond && c == cm)
            },
            || {
                // Tier 0, which is also what the committed `assume` replays.
                let outcome = match cm.clone().assume(cond, truth) {
                    Feasibility::Infeasible => ProbeOutcome::RefutedSyntactic,
                    Feasibility::Feasible => ProbeOutcome::Feasible,
                };
                let key = ProbeKey::Syntactic {
                    cm: cm.clone(),
                    cond: cond.clone(),
                    truth,
                };
                (outcome, key)
            },
        );
        // Tier 0 decides a constant condition exactly.
        if syntactic != ProbeOutcome::Feasible
            || mode == FeasibilityMode::Syntactic
            || cond.is_const()
        {
            return (syntactic, digest);
        }
        let slice = SliceKey::of(domain, path, cond, truth);
        let slice_digest = slice.digest();
        let accounting = if slice.is_empty() {
            digest
        } else {
            slice_digest
        };
        let outcome = self.memo(
            slice_digest,
            |key| matches!(key, ProbeKey::Slice(stored) if *stored == slice),
            || (slice_tiers(&slice, domain), ProbeKey::Slice(slice.clone())),
        );
        (outcome, accounting)
    }

    /// Looks `digest` up, verifying the stored key with `matches`; on a
    /// miss runs `compute` and stores the outcome under the key it returns
    /// while capacity lasts.
    fn memo(
        &self,
        digest: u64,
        matches: impl Fn(&ProbeKey) -> bool,
        compute: impl FnOnce() -> (ProbeOutcome, ProbeKey),
    ) -> ProbeOutcome {
        if self.capacity == 0 {
            return compute().0;
        }
        if let Ok(inner) = self.entries.read() {
            let hit = inner
                .buckets
                .get(&digest)
                .and_then(|bucket| bucket.iter().find(|entry| matches(&entry.key)));
            if let Some(entry) = hit {
                return entry.outcome;
            }
        }
        let (outcome, key) = compute();
        if let Ok(mut inner) = self.entries.write() {
            if inner.len < self.capacity {
                inner.len += 1;
                inner
                    .buckets
                    .entry(digest)
                    .or_default()
                    .push(CacheEntry { key, outcome });
            }
        }
        outcome
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
/// such that the expression equals `sym + offset` modulo 2⁶⁴ (wrapping
/// addition is exact modulo 2⁶⁴, whatever the intermediate sums do).
///
/// Deliberately *not* handling multiplication: `2·s == 19` must stay
/// unconstrained rather than be refuted by divisibility — the paper's
/// engine explores that branch (Table III) and so do we.
fn linear_sym(sval: &SVal) -> Option<(u64, i128)> {
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

    fn s(id: u64) -> SVal {
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

    fn len(cache: &FeasibilityCache) -> usize {
        cache.entries.read().map(|inner| inner.len).unwrap_or(0)
    }

    #[test]
    fn feasibility_cache_agrees_with_the_uncached_pipeline() {
        let cache = FeasibilityCache::new(64);
        let mut cm = ConstraintManager::new();
        let mut domain = AbstractDomain::new();
        let mut path = PathCondition::new();
        let guard = cmp(BinOp::Gt, s(1), SVal::Int(10));
        cm.assume(&guard, true);
        domain.assume(&guard, true);
        path.push(guard, true);
        let cond = cmp(BinOp::Lt, s(1), SVal::Int(5));
        // Miss, then hit — both must match the uncached answer.
        for mode in [FeasibilityMode::Syntactic, FeasibilityMode::Full] {
            for _ in 0..2 {
                for truth in [true, false] {
                    let (outcome, _) = cache.probe(mode, &cm, &domain, &path, &cond, truth);
                    assert_eq!(
                        outcome,
                        probe_pipeline(mode, &cm, &domain, &path, &cond, truth)
                    );
                }
            }
        }
        // One syntactic entry per direction, one slice entry for the side
        // tier 0 keeps.
        assert_eq!(len(&cache), 3);
        // The probe must not have mutated the manager.
        assert_eq!(cm.clone().assume(&cond, true), Feasibility::Infeasible);
    }

    #[test]
    fn feasibility_cache_capacity_caps_inserts() {
        let cache = FeasibilityCache::new(1);
        let (cm, domain, path) = (
            ConstraintManager::new(),
            AbstractDomain::new(),
            PathCondition::new(),
        );
        let mode = FeasibilityMode::Syntactic;
        cache.probe(
            mode,
            &cm,
            &domain,
            &path,
            &cmp(BinOp::Gt, s(1), SVal::Int(0)),
            true,
        );
        cache.probe(
            mode,
            &cm,
            &domain,
            &path,
            &cmp(BinOp::Gt, s(2), SVal::Int(0)),
            true,
        );
        assert_eq!(len(&cache), 1);
        let disabled = FeasibilityCache::new(0);
        disabled.probe(
            mode,
            &cm,
            &domain,
            &path,
            &cmp(BinOp::Gt, s(1), SVal::Int(0)),
            true,
        );
        assert_eq!(len(&disabled), 0);
    }

    /// A probe with `guards` assumed on the path (syntactically, in the
    /// domain and in π) and `cond` probed true.
    fn probe_after(guards: &[SVal], cond: &SVal, mode: FeasibilityMode) -> ProbeOutcome {
        let mut cm = ConstraintManager::new();
        let mut domain = AbstractDomain::new();
        let mut path = PathCondition::new();
        for guard in guards {
            cm.assume(guard, true);
            domain.assume(guard, true);
            path.push(guard.clone(), true);
        }
        probe_pipeline(mode, &cm, &domain, &path, cond, true)
    }

    #[test]
    fn each_tier_refutes_exactly_its_own_fixture() {
        use FeasibilityMode::{Full, Syntactic};
        // Tier 0: `x > 50` assumed, `x < 5` probed.
        let tier0 = |mode| {
            let guard = cmp(BinOp::Gt, s(0), SVal::Int(50));
            probe_after(&[guard], &cmp(BinOp::Lt, s(0), SVal::Int(5)), mode)
        };
        // Tier 1: `37 < x < 1000` assumed, `x * 3 < 90` probed; the
        // syntactic tier keeps multiplication feasible, and the bound
        // keeps `x * 3` from wrapping.
        let tier1 = |mode| {
            let guards = [
                cmp(BinOp::Gt, s(0), SVal::Int(37)),
                cmp(BinOp::Lt, s(0), SVal::Int(1000)),
            ];
            let tripled = cmp(BinOp::Mul, s(0), SVal::Int(3));
            probe_after(&guards, &cmp(BinOp::Lt, tripled, SVal::Int(90)), mode)
        };
        // Tier 2: `x < y` assumed, `y < x` probed; a variable-order cycle
        // no non-relational domain sees.
        let tier2 = |mode| {
            probe_after(
                &[cmp(BinOp::Lt, s(0), s(1))],
                &cmp(BinOp::Lt, s(1), s(0)),
                mode,
            )
        };
        for mode in [Syntactic, Full] {
            assert_eq!(tier0(mode), ProbeOutcome::RefutedSyntactic);
        }
        assert_eq!(tier1(Syntactic), ProbeOutcome::Feasible);
        assert_eq!(tier1(Full), ProbeOutcome::RefutedIntervals);
        assert_eq!(tier2(Syntactic), ProbeOutcome::Feasible);
        assert_eq!(tier2(Full), ProbeOutcome::RefutedSolver);
    }

    #[test]
    fn slice_keeps_only_assumptions_linked_to_the_condition() {
        let mut path = PathCondition::new();
        path.push(cmp(BinOp::Lt, s(0), s(1)), true); // linked through s1
        path.push(cmp(BinOp::Gt, s(5), SVal::Int(3)), true); // unrelated
        path.push(cmp(BinOp::Lt, s(1), s(2)), true); // shares s2
        let mut domain = AbstractDomain::new();
        domain.assume(&cmp(BinOp::Gt, s(1), SVal::Int(0)), true);
        domain.assume(&cmp(BinOp::Gt, s(5), SVal::Int(3)), true);
        let cond = cmp(BinOp::Eq, s(2), SVal::Int(0));
        let slice = SliceKey::of(&domain, &path, &cond, true);
        let linked = [&path.assumptions()[0], &path.assumptions()[2]];
        assert!(slice.assumptions.iter().eq(linked));
        assert_eq!(slice.facts, vec![(1, domain.fact_of(1))]);
        assert!(SliceKey::of(&domain, &path, &SVal::Int(1), true).is_empty());
    }

    #[test]
    fn probe_keys_ignore_constraints_outside_the_slice() {
        let cache = FeasibilityCache::new(64);
        let domain = AbstractDomain::new();
        let cond = cmp(BinOp::Lt, s(1), s(0));
        let mut path = PathCondition::new();
        path.push(cmp(BinOp::Lt, s(0), s(1)), true);
        let key = |path: &PathCondition, cm: &ConstraintManager| {
            cache.probe(FeasibilityMode::Full, cm, &domain, path, &cond, true)
        };
        let (outcome, linked) = key(&path, &ConstraintManager::new());
        assert_eq!(outcome, ProbeOutcome::RefutedSolver);
        // An unrelated assumption changes the syntactic key, not the slice.
        let mut other = ConstraintManager::new();
        other.assume(&cmp(BinOp::Gt, s(9), SVal::Int(0)), true);
        let mut longer = path.clone();
        longer.push(cmp(BinOp::Gt, s(9), SVal::Int(0)), true);
        assert_eq!(key(&longer, &other), (outcome, linked));
        // With no linked assumption and no facts, the syntactic key stands.
        let cm = ConstraintManager::new();
        let (_, empty) = key(&PathCondition::new(), &cm);
        assert_eq!(empty, crate::checkpoint::probe_key(&cm, &cond, true));
    }
}
