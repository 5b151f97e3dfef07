//! Tier-1 feasibility: a relationalless abstract domain of intervals plus
//! congruences (stride/parity) over the integer fragment.
//!
//! Modeled on the abstract-interpreter/widening-strategy split in the kirin
//! exemplar: each symbol carries a [`Fact`] — an [`Interval`] meet a
//! [`Congruence`] — and the domain refines facts as branch assumptions
//! accumulate along a path. The domain is *sound for refutation only*: a
//! [`Feasibility::Infeasible`] answer means no i64 assignment satisfies
//! the recorded assumptions under the engine's wrapping arithmetic;
//! [`Feasibility::Feasible`] means "unknown", and the next tier (the
//! SAT-lite solver, `symexec::solver`) takes over.
//!
//! # Wrapping
//!
//! The concrete semantics (`simplify::fold_ints`, `concrete::ceval`) wrap
//! at i64. Forward abstract evaluation therefore computes in i128 and
//! degrades to ⊤ whenever a result *could* leave the i64 range — a wrapped
//! value is never assigned a precise fact. Backward guard refinement
//! (solving `a·x + b ⋈ c` for `x`) runs only when the symbol's current
//! interval proves that `a·x + b` stays inside i64. `+`, `−`, `·` and `<<`
//! are exact modulo 2⁶⁴, so the wrapped value of the affine form always
//! equals `a·x + b` modulo 2⁶⁴; inside i64 the two are then equal, and the
//! ideal-integer solution is exact. DESIGN.md §12 records the contract.
//!
//! # Widening / termination
//!
//! Loop havoc in the engine replaces loop-carried values with *fresh*
//! symbols, which start at ⊤ — that is the widen-to-top step, and it keeps
//! facts for the old symbols sound (they still describe the pre-iteration
//! values). Within a path, each symbol's refinement chain is frozen after
//! [`WIDEN_AFTER`] meets: further refinements still *check* for bottom
//! (refutation power is kept) but no longer narrow the stored fact, so
//! chains are finite even on adversarial guard sequences.

use serde::{Deserialize, Serialize};

use im::OrdMap;
use minic::ast::{BinOp, UnOp};

use crate::constraints::{const_of, flip_cmp, negate_cmp, Feasibility};
use crate::value::SVal;

/// Per-symbol refinement chains freeze after this many meets (the widening
/// backstop; see module docs).
pub const WIDEN_AFTER: u32 = 64;

/// Modulus cap for congruences: a CRT meet whose lcm exceeds this keeps the
/// finer operand instead (sound: each operand over-approximates the
/// intersection).
const MODULUS_CAP: i128 = 1 << 31;

/// Cap on the number of tracked symbols; refinements for further symbols
/// are dropped (sound).
const MAX_TRACKED: usize = 1 << 16;

const I64_MIN: i128 = i64::MIN as i128;
const I64_MAX: i128 = i64::MAX as i128;

// ── Interval ────────────────────────────────────────────────────────────

/// A closed integer interval `[lo, hi]`, always within the i64 range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i128,
    /// Inclusive upper bound.
    pub hi: i128,
}

impl Interval {
    /// The full i64 range (⊤).
    pub fn top() -> Self {
        Interval {
            lo: I64_MIN,
            hi: I64_MAX,
        }
    }

    /// The singleton `[c, c]`.
    pub fn constant(c: i128) -> Self {
        Interval { lo: c, hi: c }
    }

    /// Whether the interval is the full i64 range.
    pub fn is_top(&self) -> bool {
        self.lo == I64_MIN && self.hi == I64_MAX
    }

    /// Whether the interval is a singleton.
    pub fn as_const(&self) -> Option<i128> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Intersection; `None` when empty.
    pub fn meet(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    fn contains(&self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    fn fits_i64(lo: i128, hi: i128) -> Option<Interval> {
        if lo >= I64_MIN && hi <= I64_MAX {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }
}

// ── Congruence ──────────────────────────────────────────────────────────

/// A congruence fact `x ≡ residue (mod modulus)`.
///
/// Representation: `modulus == 0` means "exactly `residue`" (the constants
/// sit at the bottom of the stride lattice), `modulus == 1` is ⊤, and
/// `modulus > 1` carries `0 <= residue < modulus`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Congruence {
    /// The stride; see type docs for the `0` and `1` conventions.
    pub modulus: i128,
    /// The residue class (an exact value when `modulus == 0`).
    pub residue: i128,
}

impl Congruence {
    /// The ⊤ congruence (`x ≡ 0 (mod 1)`).
    pub fn top() -> Self {
        Congruence {
            modulus: 1,
            residue: 0,
        }
    }

    /// The exact congruence `x == c`.
    pub fn constant(c: i128) -> Self {
        Congruence {
            modulus: 0,
            residue: c,
        }
    }

    /// Whether this is the ⊤ congruence.
    pub fn is_top(&self) -> bool {
        self.modulus == 1
    }

    /// Normalizes `(m, r)` into the representation invariant, capping the
    /// modulus (an over-cap stride degrades to ⊤, which is sound).
    fn normalize(modulus: i128, residue: i128) -> Congruence {
        let m = modulus.abs();
        if m == 0 {
            return Congruence::constant(residue);
        }
        if m == 1 || m > MODULUS_CAP {
            return Congruence::top();
        }
        Congruence {
            modulus: m,
            residue: residue.rem_euclid(m),
        }
    }

    /// Whether a concrete value belongs to the congruence class.
    fn contains(&self, v: i128) -> bool {
        if self.modulus == 0 {
            v == self.residue
        } else {
            (v - self.residue).rem_euclid(self.modulus) == 0
        }
    }

    /// Abstract addition.
    fn add(&self, other: &Congruence) -> Congruence {
        if self.modulus == 0 && other.modulus == 0 {
            return Congruence::constant(self.residue + other.residue);
        }
        Congruence::normalize(
            gcd(self.modulus, other.modulus),
            self.residue + other.residue,
        )
    }

    /// Abstract negation.
    fn neg(&self) -> Congruence {
        if self.modulus == 0 {
            Congruence::constant(-self.residue)
        } else {
            Congruence::normalize(self.modulus, -self.residue)
        }
    }

    /// Abstract multiplication: `gcd(m₁m₂, m₁r₂, m₂r₁)` stride.
    fn mul(&self, other: &Congruence) -> Congruence {
        if self.modulus == 0 && other.modulus == 0 {
            return Congruence::constant(self.residue * other.residue);
        }
        let m = gcd(
            gcd(self.modulus * other.modulus, self.modulus * other.residue),
            other.modulus * self.residue,
        );
        Congruence::normalize(m, self.residue * other.residue)
    }

    /// Intersection of the two congruence classes (CRT); `None` when the
    /// classes are disjoint. When the combined modulus would exceed the
    /// cap, the finer operand is kept (a sound over-approximation).
    pub fn meet(&self, other: &Congruence) -> Option<Congruence> {
        match (self.modulus, other.modulus) {
            (0, 0) => (self.residue == other.residue).then_some(*self),
            (0, _) => other.contains(self.residue).then_some(*self),
            (_, 0) => self.contains(other.residue).then_some(*other),
            (m1, m2) => {
                let g = gcd(m1, m2);
                if (self.residue - other.residue).rem_euclid(g) != 0 {
                    return None;
                }
                let lcm = m1 / g * m2;
                if lcm > MODULUS_CAP {
                    // Keep the finer operand.
                    return Some(if m1 >= m2 { *self } else { *other });
                }
                // CRT: find x ≡ r1 (mod m1), x ≡ r2 (mod m2). Walk the
                // residue ladder of the coarser class; lcm is capped, so
                // the scan is bounded.
                let (big, small) = if m1 >= m2 {
                    (self, other)
                } else {
                    (other, self)
                };
                let mut x = big.residue;
                while !small.contains(x) {
                    x += big.modulus;
                }
                Some(Congruence::normalize(lcm, x))
            }
        }
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

// ── Fact ────────────────────────────────────────────────────────────────

/// What the domain knows about one symbol: interval ∧ congruence, plus the
/// refinement-chain length used for the widening freeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fact {
    /// Range component.
    pub interval: Interval,
    /// Stride component.
    pub congruence: Congruence,
    /// How many meets refined this fact (frozen at [`WIDEN_AFTER`]).
    pub meets: u32,
}

impl Default for Fact {
    fn default() -> Self {
        Fact::top()
    }
}

impl Fact {
    /// The ⊤ fact: any i64.
    pub fn top() -> Self {
        Fact {
            interval: Interval::top(),
            congruence: Congruence::top(),
            meets: 0,
        }
    }

    /// The singleton fact `x == c` (⊤ if `c` is outside the i64 range).
    pub fn constant(c: i128) -> Self {
        if !(I64_MIN..=I64_MAX).contains(&c) {
            return Fact::top();
        }
        Fact {
            interval: Interval::constant(c),
            congruence: Congruence::constant(c),
            meets: 0,
        }
    }

    /// Whether the fact carries no information.
    pub fn is_top(&self) -> bool {
        self.interval.is_top() && self.congruence.is_top()
    }

    /// The exact value, when the fact pins one down.
    pub fn as_const(&self) -> Option<i128> {
        if let Some(c) = self.interval.as_const() {
            return Some(c);
        }
        if self.congruence.modulus == 0 {
            return Some(self.congruence.residue);
        }
        None
    }

    /// Whether a concrete value is allowed by the fact.
    pub fn contains(&self, v: i128) -> bool {
        self.interval.contains(v) && self.congruence.contains(v)
    }

    /// Intersection; `None` when the components contradict (bottom).
    pub fn meet(&self, other: &Fact) -> Option<Fact> {
        let interval = self.interval.meet(&other.interval)?;
        let congruence = self.congruence.meet(&other.congruence)?;
        let fact = Fact {
            interval,
            congruence,
            meets: self.meets.max(other.meets),
        };
        fact.check_consistent()
    }

    /// Bottom check: is there any value in the interval that belongs to
    /// the congruence class? Returns the (possibly tightened) fact.
    fn check_consistent(mut self) -> Option<Fact> {
        match self.congruence.modulus {
            0 => self.interval.contains(self.congruence.residue).then(|| {
                self.interval = Interval::constant(self.congruence.residue);
                self
            }),
            1 => Some(self),
            m => {
                let first =
                    self.interval.lo + (self.congruence.residue - self.interval.lo).rem_euclid(m);
                (first <= self.interval.hi).then_some(self)
            }
        }
    }

    /// Truthiness of the fact, when decided: `Some(false)` iff the fact is
    /// exactly zero, `Some(true)` iff zero is excluded.
    pub fn truth(&self) -> Option<bool> {
        if self.as_const() == Some(0) {
            return Some(false);
        }
        if !self.contains(0) {
            return Some(true);
        }
        None
    }

    // ── forward abstract arithmetic (wrap-aware: ⊤ on possible wrap) ──

    fn add(&self, other: &Fact) -> Fact {
        match Interval::fits_i64(
            self.interval.lo + other.interval.lo,
            self.interval.hi + other.interval.hi,
        ) {
            Some(interval) => Fact {
                interval,
                congruence: self.congruence.add(&other.congruence),
                meets: 0,
            },
            None => Fact::top(),
        }
    }

    fn sub(&self, other: &Fact) -> Fact {
        self.add(&other.neg())
    }

    fn neg(&self) -> Fact {
        match Interval::fits_i64(-self.interval.hi, -self.interval.lo) {
            Some(interval) => Fact {
                interval,
                congruence: self.congruence.neg(),
                meets: 0,
            },
            None => Fact::top(),
        }
    }

    fn mul(&self, other: &Fact) -> Fact {
        let products = [
            self.interval.lo * other.interval.lo,
            self.interval.lo * other.interval.hi,
            self.interval.hi * other.interval.lo,
            self.interval.hi * other.interval.hi,
        ];
        let lo = products.iter().copied().min().unwrap_or(0);
        let hi = products.iter().copied().max().unwrap_or(0);
        match Interval::fits_i64(lo, hi) {
            Some(interval) => Fact {
                interval,
                congruence: self.congruence.mul(&other.congruence),
                meets: 0,
            },
            None => Fact::top(),
        }
    }

    /// Truncated division by a *constant* divisor (matching `fold_ints`;
    /// division by zero is `Unknown` concretely, ⊤ here).
    fn div_const(&self, k: i128) -> Fact {
        if k == 0 {
            return Fact::top();
        }
        // Truncated division is monotone in the dividend for either sign
        // of k, with direction flipped for k < 0.
        let (a, b) = (self.interval.lo / k, self.interval.hi / k);
        let (lo, hi) = if k > 0 { (a, b) } else { (b, a) };
        match Interval::fits_i64(lo, hi) {
            Some(interval) => Fact {
                interval,
                congruence: Congruence::top(),
                meets: 0,
            },
            None => Fact::top(),
        }
    }

    /// Truncated remainder by a *constant* divisor. The result has the
    /// sign of the dividend and magnitude below `|k|`.
    fn rem_const(&self, k: i128) -> Fact {
        if k == 0 {
            return Fact::top();
        }
        let bound = k.abs() - 1;
        let lo = if self.interval.lo >= 0 { 0 } else { -bound };
        let hi = if self.interval.hi <= 0 { 0 } else { bound };
        // Tighter when the dividend interval is narrower than the band.
        let lo = lo.max(self.interval.lo.min(0));
        let hi = hi.min(self.interval.hi.max(0));
        let congruence = match self.congruence.modulus {
            0 => {
                return Fact::constant(wrap_rem(self.congruence.residue, k));
            }
            m if self.interval.lo >= 0 && m % k.abs() == 0 => {
                // x = r + t·m with x ≥ 0 and k | m ⇒ x % k == r % k.
                Congruence::normalize(k.abs(), self.congruence.residue)
            }
            _ => Congruence::top(),
        };
        Fact {
            interval: Interval { lo, hi },
            congruence,
            meets: 0,
        }
    }

    fn shl_const(&self, k: i128) -> Fact {
        // fold_ints masks the shift to six bits; only model small shifts.
        if !(0..=32).contains(&k) {
            return Fact::top();
        }
        self.mul(&Fact::constant(1i128 << k))
    }

    fn shr_const(&self, k: i128) -> Fact {
        if !(0..=62).contains(&k) || self.interval.lo < 0 {
            return Fact::top();
        }
        self.div_const(1i128 << k)
    }

    fn bitand(&self, other: &Fact) -> Fact {
        // Nonnegative & nonnegative stays within [0, min(hi)].
        if self.interval.lo < 0 || other.interval.lo < 0 {
            return Fact::top();
        }
        Fact {
            interval: Interval {
                lo: 0,
                hi: self.interval.hi.min(other.interval.hi),
            },
            congruence: Congruence::top(),
            meets: 0,
        }
    }

    /// Decides `lhs op rhs` from the two facts, when possible.
    pub fn cmp(op: BinOp, lhs: &Fact, rhs: &Fact) -> Option<bool> {
        match op {
            BinOp::Lt => {
                if lhs.interval.hi < rhs.interval.lo {
                    Some(true)
                } else if lhs.interval.lo >= rhs.interval.hi {
                    Some(false)
                } else {
                    None
                }
            }
            BinOp::Le => Fact::cmp(BinOp::Lt, rhs, lhs).map(|b| !b),
            BinOp::Gt => Fact::cmp(BinOp::Lt, rhs, lhs),
            BinOp::Ge => Fact::cmp(BinOp::Lt, lhs, rhs).map(|b| !b),
            BinOp::Eq => {
                if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
                    return Some(a == b);
                }
                // Disjoint sets ⇒ definitely unequal; the meet performs
                // both the interval and the congruence (gcd) test.
                if lhs.meet(rhs).is_none() {
                    return Some(false);
                }
                None
            }
            BinOp::Ne => Fact::cmp(BinOp::Eq, lhs, rhs).map(|b| !b),
            _ => None,
        }
    }
}

/// Truncated remainder in i128 (total: zero divisor yields zero, never
/// reached — callers guard).
fn wrap_rem(a: i128, k: i128) -> i128 {
    if k == 0 {
        0
    } else {
        a % k
    }
}

// ── Affine decomposition ────────────────────────────────────────────────

/// Matches `a·x + b` over one symbol with `a != 0`; coefficients are
/// bounded so backward refinement stays in comfortably-exact i128 range.
pub(crate) fn affine_of(v: &SVal) -> Option<(i128, u32, i128)> {
    const A_CAP: i128 = 1 << 32;
    const B_CAP: i128 = 1 << 62;
    let (a, s, b) = affine_rec(v)?;
    if a == 0 || a.abs() > A_CAP || b.abs() > B_CAP {
        return None;
    }
    Some((a, s, b))
}

fn affine_rec(v: &SVal) -> Option<(i128, u32, i128)> {
    match v {
        SVal::Sym(s) => Some((1, s.id, 0)),
        SVal::Unary { op: UnOp::Neg, arg } => {
            let (a, s, b) = affine_rec(arg)?;
            Some((-a, s, -b))
        }
        SVal::Unary {
            op: UnOp::Plus,
            arg,
        } => affine_rec(arg),
        SVal::Binary { op, lhs, rhs } => {
            let lc = const_of(lhs).map(i128::from);
            let rc = const_of(rhs).map(i128::from);
            match op {
                BinOp::Add => match (lc, rc) {
                    (Some(c), None) => {
                        let (a, s, b) = affine_rec(rhs)?;
                        Some((a, s, b.checked_add(c)?))
                    }
                    (None, Some(c)) => {
                        let (a, s, b) = affine_rec(lhs)?;
                        Some((a, s, b.checked_add(c)?))
                    }
                    _ => None,
                },
                BinOp::Sub => match (lc, rc) {
                    (Some(c), None) => {
                        let (a, s, b) = affine_rec(rhs)?;
                        Some((-a, s, c.checked_sub(b)?))
                    }
                    (None, Some(c)) => {
                        let (a, s, b) = affine_rec(lhs)?;
                        Some((a, s, b.checked_sub(c)?))
                    }
                    _ => None,
                },
                BinOp::Mul => match (lc, rc) {
                    (Some(c), None) if c != 0 => {
                        let (a, s, b) = affine_rec(rhs)?;
                        Some((a.checked_mul(c)?, s, b.checked_mul(c)?))
                    }
                    (None, Some(c)) if c != 0 => {
                        let (a, s, b) = affine_rec(lhs)?;
                        Some((a.checked_mul(c)?, s, b.checked_mul(c)?))
                    }
                    _ => None,
                },
                BinOp::Shl => match rc {
                    Some(c) if (0..=32).contains(&c) => {
                        let (a, s, b) = affine_rec(lhs)?;
                        let f = 1i128 << c;
                        Some((a.checked_mul(f)?, s, b.checked_mul(f)?))
                    }
                    _ => None,
                },
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whether `a·x + b` stays inside i64 for every `x` in `range`.
pub(crate) fn no_wrap(a: i128, range: &Interval, b: i128) -> bool {
    let fits = |x: i128| (I64_MIN..=I64_MAX).contains(&(a * x + b));
    fits(range.lo) && fits(range.hi)
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

// ── AbstractDomain ──────────────────────────────────────────────────────

/// The per-path abstract state: a persistent map from symbol id to
/// [`Fact`]. Forks clone the `im::OrdMap` in O(1); refinements along one
/// branch share structure with the sibling (O(log n) per insert).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AbstractDomain {
    facts: OrdMap<u32, Fact>,
}

impl AbstractDomain {
    /// The empty (all-⊤) domain.
    pub fn new() -> Self {
        AbstractDomain::default()
    }

    /// The recorded fact for a symbol (⊤ when untracked).
    pub fn fact_of(&self, sym: u32) -> Fact {
        self.recorded(sym).unwrap_or_else(Fact::top)
    }

    /// The fact recorded for a symbol, if any.
    pub(crate) fn recorded(&self, sym: u32) -> Option<Fact> {
        self.facts.get(&sym).copied()
    }

    /// Forward abstract evaluation of a symbolic value.
    pub fn eval(&self, v: &SVal) -> Fact {
        match v {
            SVal::Int(c) => Fact::constant(i128::from(*c)),
            SVal::Sym(s) => self.fact_of(s.id),
            SVal::Unary { op, arg } => {
                let f = self.eval(arg);
                match op {
                    UnOp::Neg => f.neg(),
                    UnOp::Plus => f,
                    UnOp::Not => match f.truth() {
                        Some(b) => Fact::constant(i128::from(!b)),
                        None => bool_fact(),
                    },
                    UnOp::BitNot => Fact::top(),
                }
            }
            SVal::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs);
                let r = self.eval(rhs);
                match op {
                    BinOp::Add => l.add(&r),
                    BinOp::Sub => l.sub(&r),
                    BinOp::Mul => l.mul(&r),
                    BinOp::Div => match r.as_const() {
                        Some(k) => l.div_const(k),
                        None => Fact::top(),
                    },
                    BinOp::Rem => match r.as_const() {
                        Some(k) => l.rem_const(k),
                        None => Fact::top(),
                    },
                    BinOp::Shl => match r.as_const() {
                        Some(k) => l.shl_const(k),
                        None => Fact::top(),
                    },
                    BinOp::Shr => match r.as_const() {
                        Some(k) => l.shr_const(k),
                        None => Fact::top(),
                    },
                    BinOp::BitAnd => l.bitand(&r),
                    BinOp::BitXor | BinOp::BitOr => Fact::top(),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                        match Fact::cmp(*op, &l, &r) {
                            Some(b) => Fact::constant(i128::from(b)),
                            None => bool_fact(),
                        }
                    }
                    BinOp::LogAnd => match (l.truth(), r.truth()) {
                        (Some(a), Some(b)) => Fact::constant(i128::from(a && b)),
                        (Some(false), _) | (_, Some(false)) => Fact::constant(0),
                        _ => bool_fact(),
                    },
                    BinOp::LogOr => match (l.truth(), r.truth()) {
                        (Some(a), Some(b)) => Fact::constant(i128::from(a || b)),
                        (Some(true), _) | (_, Some(true)) => Fact::constant(1),
                        _ => bool_fact(),
                    },
                }
            }
            _ => Fact::top(),
        }
    }

    /// Records the assumption `cond == truth` and reports whether the
    /// domain can already refute it. Mirrors the decomposition
    /// `ConstraintManager::assume` performs, but refines interval and
    /// congruence facts instead of ranges/disequalities.
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
            SVal::Binary { op, lhs, rhs } => match (op, truth) {
                (BinOp::LogAnd, true) | (BinOp::LogOr, false) => {
                    if self.assume(lhs, truth) == Feasibility::Infeasible {
                        return Feasibility::Infeasible;
                    }
                    self.assume(rhs, truth)
                }
                _ if op.is_comparison() => self.assume_cmp(*op, lhs, rhs, truth),
                _ => self.assume_other(cond, truth),
            },
            SVal::Sym(sym) => {
                let fact = self.fact_of(sym.id);
                match (fact.truth(), truth) {
                    (Some(b), t) if b != t => Feasibility::Infeasible,
                    (_, false) => self.meet_fact(sym.id, Fact::constant(0)),
                    (_, true) => {
                        // x != 0 trims an interval whose bound sits at 0.
                        let mut refined = fact;
                        if refined.interval.lo == 0 {
                            refined.interval.lo = 1;
                        } else if refined.interval.hi == 0 {
                            refined.interval.hi = -1;
                        } else {
                            return Feasibility::Feasible;
                        }
                        refined.meets = 0;
                        self.meet_fact(sym.id, refined)
                    }
                }
            }
            _ => self.assume_other(cond, truth),
        }
    }

    /// Fallback for shapes with no dedicated refinement: evaluate the
    /// condition and refute only when its truthiness is decided.
    fn assume_other(&mut self, cond: &SVal, truth: bool) -> Feasibility {
        match self.eval(cond).truth() {
            Some(b) if b != truth => Feasibility::Infeasible,
            _ => Feasibility::Feasible,
        }
    }

    fn assume_cmp(&mut self, op: BinOp, lhs: &SVal, rhs: &SVal, truth: bool) -> Feasibility {
        let op = if truth { op } else { negate_cmp(op) };
        // Decide from current facts first: catches var-vs-var and
        // congruence-incompatible equalities with no refinement needed.
        if Fact::cmp(op, &self.eval(lhs), &self.eval(rhs)) == Some(false) {
            return Feasibility::Infeasible;
        }
        if let Some(c) = const_of(rhs) {
            self.refine_vs_const(lhs, op, i128::from(c))
        } else if let Some(c) = const_of(lhs) {
            self.refine_vs_const(rhs, flip_cmp(op), i128::from(c))
        } else {
            Feasibility::Feasible
        }
    }

    /// Backward refinement of `expr op c`, exact only where `expr` cannot
    /// wrap (see module docs).
    fn refine_vs_const(&mut self, expr: &SVal, op: BinOp, c: i128) -> Feasibility {
        // `x % k op c`: congruence refinement and band refutation.
        if let SVal::Binary {
            op: BinOp::Rem,
            lhs,
            rhs,
        } = expr
        {
            if let (Some((1, sym, 0)), Some(k)) = (affine_of(lhs), const_of(rhs).map(i128::from)) {
                if k > 0 {
                    return self.refine_rem(sym, k, op, c);
                }
            }
        }
        let Some((a, sym, b)) = affine_of(expr) else {
            return Feasibility::Feasible;
        };
        if !no_wrap(a, &self.fact_of(sym).interval, b) {
            return Feasibility::Feasible;
        }
        let t = c - b;
        let mut refined = Fact::top();
        match op {
            BinOp::Eq => {
                if t % a != 0 {
                    return Feasibility::Infeasible;
                }
                refined = Fact::constant(t / a);
            }
            BinOp::Ne => {
                if t % a == 0 && self.fact_of(sym).as_const() == Some(t / a) {
                    return Feasibility::Infeasible;
                }
                return Feasibility::Feasible;
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                // Reduce to a·x ≤ t or a·x ≥ t, then divide with the
                // correct rounding for the sign of a.
                let (le, bound) = match op {
                    BinOp::Lt => (true, t - 1),
                    BinOp::Le => (true, t),
                    BinOp::Gt => (false, t + 1),
                    _ => (false, t),
                };
                // a·x ≤ bound  ⇔  x ≤ ⌊bound/a⌋ (a>0) | x ≥ ⌈bound/a⌉ (a<0)
                // a·x ≥ bound  ⇔  x ≥ ⌈bound/a⌉ (a>0) | x ≤ ⌊bound/a⌋ (a<0)
                if le == (a > 0) {
                    refined.interval.hi = div_floor(bound, a).min(I64_MAX);
                } else {
                    refined.interval.lo = div_ceil(bound, a).max(I64_MIN);
                }
                if refined.interval.lo > refined.interval.hi {
                    return Feasibility::Infeasible;
                }
            }
            _ => return Feasibility::Feasible,
        }
        self.meet_fact(sym, refined)
    }

    /// Refinement for `x % k op c` with `k > 0`.
    fn refine_rem(&mut self, sym: u32, k: i128, op: BinOp, c: i128) -> Feasibility {
        let fact = self.fact_of(sym);
        match op {
            BinOp::Eq => {
                if c.abs() >= k {
                    // |x % k| < k always.
                    return Feasibility::Infeasible;
                }
                if c < 0 && fact.interval.lo >= 0 {
                    // Nonnegative dividend ⇒ nonnegative remainder.
                    return Feasibility::Infeasible;
                }
                // Congruence refinement is sound when the remainder sign is
                // pinned: r == 0 works for either sign; otherwise require a
                // nonnegative dividend.
                if c == 0 || (c > 0 && fact.interval.lo >= 0) {
                    return self.meet_fact(
                        sym,
                        Fact {
                            interval: Interval::top(),
                            congruence: Congruence::normalize(k, c),
                            meets: 0,
                        },
                    );
                }
                Feasibility::Feasible
            }
            BinOp::Ne => {
                // Definite-equality refutation is already covered by the
                // forward `Fact::cmp` check in `assume_cmp`.
                Feasibility::Feasible
            }
            _ => Feasibility::Feasible,
        }
    }

    /// Meets `refinement` into the fact for `sym`. Bottom ⇒ infeasible.
    /// Past the widening freeze the narrowing is dropped (but the bottom
    /// check still runs, keeping refutation power).
    fn meet_fact(&mut self, sym: u32, refinement: Fact) -> Feasibility {
        let current = self.fact_of(sym);
        match current.meet(&refinement) {
            None => Feasibility::Infeasible,
            Some(mut met) => {
                if current.meets < WIDEN_AFTER
                    && met != current
                    && (self.facts.contains_key(&sym) || self.facts.len() < MAX_TRACKED)
                {
                    met.meets = current.meets + 1;
                    self.facts.insert(sym, met);
                }
                Feasibility::Feasible
            }
        }
    }

    /// The ids of every symbol the domain holds a fact about.
    pub(crate) fn symbol_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.facts.keys().copied()
    }

    /// Rewrites symbol ids (worklist merge canonicalization).
    pub fn remap_symbols(&mut self, f: impl Fn(u32) -> u32) {
        if self.facts.is_empty() {
            return;
        }
        self.facts = self.facts.iter().map(|(k, v)| (f(*k), *v)).collect();
    }
}

/// The `[0, 1]` fact comparisons and logical operators produce.
fn bool_fact() -> Fact {
    Fact {
        interval: Interval { lo: 0, hi: 1 },
        congruence: Congruence::top(),
        meets: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Symbol;

    fn sym(id: u32) -> SVal {
        SVal::Sym(Symbol::new(id, ""))
    }

    fn int(v: i64) -> SVal {
        SVal::Int(v)
    }

    fn bin(op: BinOp, l: SVal, r: SVal) -> SVal {
        SVal::binary(op, l, r)
    }

    #[test]
    fn interval_meet() {
        let a = Interval { lo: 0, hi: 10 };
        let b = Interval { lo: 5, hi: 20 };
        assert_eq!(a.meet(&b), Some(Interval { lo: 5, hi: 10 }));
        assert_eq!(Interval { lo: 11, hi: 20 }.meet(&a), None);
    }

    #[test]
    fn congruence_meet_crt() {
        // x ≡ 1 (mod 4) ∧ x ≡ 3 (mod 6): gcd 2 does not divide 1-3 = -2…
        // it does (2 | 2), lcm 12, residue 9.
        let a = Congruence {
            modulus: 4,
            residue: 1,
        };
        let b = Congruence {
            modulus: 6,
            residue: 3,
        };
        let met = a.meet(&b).expect("compatible classes");
        assert_eq!((met.modulus, met.residue), (12, 9));
        // x ≡ 0 (mod 4) ∧ x ≡ 1 (mod 4) is bottom.
        let c = Congruence {
            modulus: 4,
            residue: 0,
        };
        let d = Congruence {
            modulus: 4,
            residue: 1,
        };
        assert!(c.meet(&d).is_none());
    }

    #[test]
    fn affine_multiplication_refutes_only_without_wrap() {
        let tripled_below_90 = bin(BinOp::Lt, bin(BinOp::Mul, sym(0), int(3)), int(90));
        // pub0 > 37 ∧ pub0 * 3 < 90 is satisfiable: pub0 = i64::MAX / 2
        // makes pub0 * 3 wrap negative.
        let mut dom = AbstractDomain::new();
        dom.assume(&bin(BinOp::Gt, sym(0), int(37)), true);
        assert_eq!(
            dom.clone().assume(&tripled_below_90, true),
            Feasibility::Feasible
        );
        // Bounded above, pub0 * 3 cannot wrap: pub0 ≤ 29 contradicts.
        dom.assume(&bin(BinOp::Lt, sym(0), int(1000)), true);
        assert_eq!(dom.assume(&tripled_below_90, true), Feasibility::Infeasible);
    }

    #[test]
    fn affine_forms_reject_coefficient_overflow() {
        let huge = bin(
            BinOp::Mul,
            bin(
                BinOp::Mul,
                bin(BinOp::Mul, sym(0), int(i64::MAX)),
                int(i64::MAX),
            ),
            int(i64::MAX),
        );
        assert_eq!(affine_of(&huge), None);
    }

    #[test]
    fn parity_contradiction_refutes() {
        // x ≥ 0 ∧ x % 4 == 1 ∧ x % 4 == 3 is contradictory.
        let mut dom = AbstractDomain::new();
        let x_mod4 = bin(BinOp::Rem, sym(1), int(4));
        assert_eq!(
            dom.assume(&bin(BinOp::Ge, sym(1), int(0)), true),
            Feasibility::Feasible
        );
        assert_eq!(
            dom.assume(&bin(BinOp::Eq, x_mod4.clone(), int(1)), true),
            Feasibility::Feasible
        );
        assert_eq!(
            dom.assume(&bin(BinOp::Eq, x_mod4, int(3)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn negative_dividend_parity_is_not_refuted() {
        // Without a nonnegative lower bound the truncated-rem sign makes
        // the congruence refinement unsound — the domain must stay ⊤-ish
        // and NOT refute: x = -3 has x % 4 == -3, x = 1 has x % 4 == 1.
        let mut dom = AbstractDomain::new();
        let x_mod4 = bin(BinOp::Rem, sym(2), int(4));
        assert_eq!(
            dom.assume(&bin(BinOp::Eq, x_mod4.clone(), int(1)), true),
            Feasibility::Feasible
        );
        assert_eq!(
            dom.assume(&bin(BinOp::Eq, x_mod4, int(-3)), true),
            Feasibility::Feasible
        );
    }

    #[test]
    fn interval_contradiction_refutes() {
        let mut dom = AbstractDomain::new();
        assert_eq!(
            dom.assume(&bin(BinOp::Lt, sym(0), int(10)), true),
            Feasibility::Feasible
        );
        assert_eq!(
            dom.assume(&bin(BinOp::Gt, sym(0), int(20)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn negated_guard_refutes() {
        // !(x < 10) ∧ x < 5 is contradictory.
        let mut dom = AbstractDomain::new();
        assert_eq!(
            dom.assume(&bin(BinOp::Lt, sym(0), int(10)), false),
            Feasibility::Feasible
        );
        assert_eq!(
            dom.assume(&bin(BinOp::Lt, sym(0), int(5)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn eval_is_wrap_aware() {
        // i64::MAX + 1 wraps concretely; the abstract result must be ⊤,
        // not [i64::MAX + 1, i64::MAX + 1].
        let mut dom = AbstractDomain::new();
        dom.assume(&bin(BinOp::Eq, sym(0), int(i64::MAX)), true);
        let f = dom.eval(&bin(BinOp::Add, sym(0), int(1)));
        assert!(f.is_top());
    }

    #[test]
    fn widening_freeze_terminates_refinement() {
        let mut dom = AbstractDomain::new();
        // An adversarial chain of ever-tighter bounds stops narrowing at
        // the freeze, but bottom checks still fire.
        for i in 0..(WIDEN_AFTER + 20) {
            let f = dom.assume(&bin(BinOp::Le, sym(0), int(1_000_000 - i as i64)), true);
            assert_eq!(f, Feasibility::Feasible);
        }
        let frozen = dom.fact_of(0);
        assert_eq!(frozen.meets, WIDEN_AFTER);
        // The stored bound reflects the first WIDEN_AFTER refinements only.
        assert_eq!(frozen.interval.hi, 1_000_000 - i128::from(WIDEN_AFTER) + 1);
        // Refutation power is retained past the freeze.
        assert_eq!(
            dom.assume(&bin(BinOp::Gt, sym(0), int(2_000_000)), true),
            Feasibility::Infeasible
        );
    }

    #[test]
    fn remap_symbols_moves_facts() {
        let mut dom = AbstractDomain::new();
        dom.assume(&bin(BinOp::Eq, sym(7), int(42)), true);
        dom.remap_symbols(|id| id + 100);
        assert_eq!(dom.fact_of(107).as_const(), Some(42));
        assert!(dom.fact_of(7).is_top());
    }

    #[test]
    fn logical_structure_decomposes() {
        // (x > 5 && x < 3) assumed true is contradictory.
        let mut dom = AbstractDomain::new();
        let c = bin(
            BinOp::LogAnd,
            bin(BinOp::Gt, sym(0), int(5)),
            bin(BinOp::Lt, sym(0), int(3)),
        );
        assert_eq!(dom.assume(&c, true), Feasibility::Infeasible);
    }

    #[test]
    fn division_by_zero_stays_top() {
        let dom = AbstractDomain::new();
        let f = dom.eval(&bin(BinOp::Div, sym(0), int(0)));
        assert!(f.is_top());
        let f = dom.eval(&bin(BinOp::Rem, sym(0), int(0)));
        assert!(f.is_top());
    }
}
