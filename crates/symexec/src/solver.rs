//! Tier-2 feasibility: a vendored DPLL-style SAT-lite solver over the
//! bool/comparison fragment the Mini-C frontend emits.
//!
//! The path condition plus the probed branch condition are translated into
//! a conjunction of formula trees over *atoms* (comparisons and other
//! truthiness leaves). Boolean structure — `LogAnd`/`LogOr`/`Not` — becomes
//! And/Or/Lit nodes; everything else is an opaque atom. A small DPLL loop
//! (3-valued evaluation, unit propagation, first-unassigned-atom decisions
//! with true tried first) searches for a propositionally satisfying
//! assignment; each candidate is checked against two theory lenses:
//!
//! 1. the Tier-1 abstract domain, re-assuming every assigned atom into a
//!    clone of the per-path seed domain, and
//! 2. a difference-logic pass: atoms whose sides are unit-coefficient
//!    affine forms become edges `x − y ≤ c` (with a virtual zero node
//!    carrying the domain's interval bounds), and a Bellman–Ford negative
//!    cycle is a conflict. This is what catches `x < y ∧ y < x`, which no
//!    per-symbol domain can see. A side `x + b` joins only when the
//!    refined interval of `x` proves it cannot wrap at i64; otherwise the
//!    atom means something else concretely (`x + 1 < y` holds for
//!    `x = i64::MAX`, `y = 0`) and is left out.
//!
//! Only [`Verdict::Unsat`] is load-bearing (a sound refutation). The
//! search is bounded by a deterministic decision/conflict [`Budget`], so
//! results are identical at every worker count; exhausting the budget
//! yields [`Verdict::Unknown`], which the pipeline treats as feasible.

use minic::ast::{BinOp, UnOp};

use crate::constraints::{negate_cmp, Feasibility};
use crate::domain::{affine_of, no_wrap, AbstractDomain};
use crate::path::Assumption;
use crate::value::SVal;

/// Atom-count ceiling; formulas beyond it return [`Verdict::Unknown`].
const MAX_ATOMS: usize = 64;

/// Solver verdict for a conjunction of assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A propositionally satisfying, theory-consistent assignment exists.
    Sat,
    /// The conjunction is unsatisfiable (sound refutation).
    Unsat,
    /// The budget ran out, or the formula left the supported fragment.
    Unknown,
}

/// Deterministic search budget. Decisions and conflicts are counted
/// identically regardless of scheduling, so the verdict is a pure function
/// of the formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum DPLL decisions (branch points).
    pub decisions: u32,
    /// Maximum conflicts (propositional or theory).
    pub conflicts: u32,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            decisions: 256,
            conflicts: 256,
        }
    }
}

/// One node of a translated formula tree.
#[derive(Debug, Clone)]
enum Node {
    True,
    False,
    Lit { atom: usize, positive: bool },
    And(Vec<Node>),
    Or(Vec<Node>),
}

/// Checks the conjunction of `assumptions` (π, or a slice of it) and
/// `cond == taken`, seeded with the Tier-1 domain accumulated along the
/// path.
pub fn check_path<'a>(
    assumptions: impl IntoIterator<Item = &'a Assumption>,
    cond: &SVal,
    taken: bool,
    seed: &AbstractDomain,
    budget: Budget,
) -> Verdict {
    let mut atoms: Vec<SVal> = Vec::new();
    let mut conjuncts: Vec<Node> = Vec::new();
    for a in assumptions {
        conjuncts.push(translate(&a.cond, a.taken, &mut atoms));
    }
    conjuncts.push(translate(cond, taken, &mut atoms));
    if atoms.len() > MAX_ATOMS {
        return Verdict::Unknown;
    }
    let mut search = Search {
        atoms: &atoms,
        conjuncts: &conjuncts,
        seed,
        assign: vec![None; atoms.len()],
        decisions_left: budget.decisions,
        conflicts_left: budget.conflicts,
    };
    match search.dpll() {
        Some(true) => Verdict::Sat,
        Some(false) => Verdict::Unsat,
        None => Verdict::Unknown,
    }
}

/// Translates an assumption into a formula node, interning atoms.
/// `positive == false` pushes the negation inward (De Morgan).
fn translate(v: &SVal, positive: bool, atoms: &mut Vec<SVal>) -> Node {
    match v {
        SVal::Int(c) => {
            if (*c != 0) == positive {
                Node::True
            } else {
                Node::False
            }
        }
        SVal::Float(f) => {
            if (f.0 != 0.0) == positive {
                Node::True
            } else {
                Node::False
            }
        }
        SVal::Unary { op: UnOp::Not, arg } => translate(arg, !positive, atoms),
        SVal::Binary {
            op: BinOp::LogAnd,
            lhs,
            rhs,
        } => {
            let l = translate(lhs, positive, atoms);
            let r = translate(rhs, positive, atoms);
            if positive {
                Node::And(vec![l, r])
            } else {
                Node::Or(vec![l, r])
            }
        }
        SVal::Binary {
            op: BinOp::LogOr,
            lhs,
            rhs,
        } => {
            let l = translate(lhs, positive, atoms);
            let r = translate(rhs, positive, atoms);
            if positive {
                Node::Or(vec![l, r])
            } else {
                Node::And(vec![l, r])
            }
        }
        _ => {
            let atom = match atoms.iter().position(|a| a == v) {
                Some(i) => i,
                None => {
                    atoms.push(v.clone());
                    atoms.len() - 1
                }
            };
            Node::Lit { atom, positive }
        }
    }
}

struct Search<'a> {
    atoms: &'a [SVal],
    conjuncts: &'a [Node],
    seed: &'a AbstractDomain,
    assign: Vec<Option<bool>>,
    decisions_left: u32,
    conflicts_left: u32,
}

impl Search<'_> {
    /// `Some(true)` = satisfiable, `Some(false)` = exhausted (unsat),
    /// `None` = budget ran out.
    fn dpll(&mut self) -> Option<bool> {
        // Unit propagation to fixpoint; record the trail for backtracking.
        let mut trail: Vec<usize> = Vec::new();
        loop {
            let mut all_true = true;
            let mut forced: Option<(usize, bool)> = None;
            for node in self.conjuncts {
                match self.eval(node) {
                    Some(true) => {}
                    Some(false) => {
                        self.undo(&trail);
                        return self.conflict();
                    }
                    None => {
                        all_true = false;
                        if forced.is_none() {
                            forced = self.find_unit(node);
                        }
                    }
                }
            }
            if all_true {
                if self.theory_consistent() {
                    return Some(true);
                }
                self.undo(&trail);
                return self.conflict();
            }
            match forced {
                Some((atom, value)) => {
                    self.assign[atom] = Some(value);
                    trail.push(atom);
                }
                None => break,
            }
        }
        // Early theory pruning on the partial assignment.
        if !self.theory_consistent() {
            self.undo(&trail);
            return self.conflict();
        }
        // Decide: lowest-indexed unassigned atom, true first.
        let Some(atom) = self.assign.iter().position(Option::is_none) else {
            self.undo(&trail);
            return Some(false);
        };
        if self.decisions_left == 0 {
            self.undo(&trail);
            return None;
        }
        self.decisions_left -= 1;
        for value in [true, false] {
            self.assign[atom] = Some(value);
            match self.dpll() {
                Some(true) => return Some(true),
                Some(false) => {}
                None => {
                    self.assign[atom] = None;
                    self.undo(&trail);
                    return None;
                }
            }
        }
        self.assign[atom] = None;
        self.undo(&trail);
        Some(false)
    }

    fn conflict(&mut self) -> Option<bool> {
        if self.conflicts_left == 0 {
            return None;
        }
        self.conflicts_left -= 1;
        Some(false)
    }

    fn undo(&mut self, trail: &[usize]) {
        for &atom in trail {
            self.assign[atom] = None;
        }
    }

    /// 3-valued evaluation of a node under the current assignment.
    fn eval(&self, node: &Node) -> Option<bool> {
        match node {
            Node::True => Some(true),
            Node::False => Some(false),
            Node::Lit { atom, positive } => self.assign[*atom].map(|v| v == *positive),
            Node::And(children) => {
                let mut open = false;
                for c in children {
                    match self.eval(c) {
                        Some(false) => return Some(false),
                        None => open = true,
                        Some(true) => {}
                    }
                }
                if open {
                    None
                } else {
                    Some(true)
                }
            }
            Node::Or(children) => {
                let mut open = false;
                for c in children {
                    match self.eval(c) {
                        Some(true) => return Some(true),
                        None => open = true,
                        Some(false) => {}
                    }
                }
                if open {
                    None
                } else {
                    Some(false)
                }
            }
        }
    }

    /// Finds a literal forced true by an undecided conjunct, if any: an
    /// unassigned Lit, every child of an And, or the single undecided
    /// child of an Or whose siblings are all false.
    fn find_unit(&self, node: &Node) -> Option<(usize, bool)> {
        match node {
            Node::Lit { atom, positive } if self.assign[*atom].is_none() => {
                Some((*atom, *positive))
            }
            Node::And(children) => children
                .iter()
                .filter(|c| self.eval(c).is_none())
                .find_map(|c| self.find_unit(c)),
            Node::Or(children) => {
                let mut undecided = None;
                for c in children {
                    match self.eval(c) {
                        Some(true) => return None,
                        Some(false) => {}
                        None => {
                            if undecided.is_some() {
                                return None;
                            }
                            undecided = Some(c);
                        }
                    }
                }
                undecided.and_then(|c| self.find_unit(c))
            }
            _ => None,
        }
    }

    /// Theory check over the currently assigned atoms: Tier-1 domain
    /// refinement plus a difference-logic negative-cycle pass.
    fn theory_consistent(&self) -> bool {
        let mut dom = self.seed.clone();
        for (i, value) in self.assign.iter().enumerate() {
            if let Some(truth) = *value {
                if dom.assume(&self.atoms[i], truth) == Feasibility::Infeasible {
                    return false;
                }
            }
        }
        self.difference_logic_consistent(&dom)
    }

    /// Builds `x − y ≤ c` edges from assigned unit-coefficient comparison
    /// atoms (plus interval bounds via a virtual zero node) and runs
    /// Bellman–Ford; a negative cycle refutes the assignment.
    fn difference_logic_consistent(&self, dom: &AbstractDomain) -> bool {
        const ZERO: u32 = u32::MAX;
        // Edge (from, to, w) encodes `to − from ≤ w`.
        let mut edges: Vec<(u32, u32, i128)> = Vec::new();
        let mut nodes: Vec<u32> = vec![ZERO];
        let touch = |nodes: &mut Vec<u32>, s: u32| {
            if !nodes.contains(&s) {
                nodes.push(s);
            }
        };
        for (i, value) in self.assign.iter().enumerate() {
            let Some(truth) = *value else { continue };
            let SVal::Binary { op, lhs, rhs } = &self.atoms[i] else {
                continue;
            };
            if !op.is_comparison() {
                continue;
            }
            let op = if truth { *op } else { negate_cmp(*op) };
            let (Some((1, x, bx)), Some((1, y, by))) = (affine_of(lhs), affine_of(rhs)) else {
                continue;
            };
            if x == y
                || !no_wrap(1, &dom.fact_of(x).interval, bx)
                || !no_wrap(1, &dom.fact_of(y).interval, by)
            {
                continue;
            }
            touch(&mut nodes, x);
            touch(&mut nodes, y);
            // (x + bx) op (y + by)  ⇒  x − y ⋈ by − bx.
            let d = by - bx;
            match op {
                BinOp::Lt => edges.push((y, x, d - 1)),
                BinOp::Le => edges.push((y, x, d)),
                BinOp::Gt => edges.push((x, y, -d - 1)),
                BinOp::Ge => edges.push((x, y, -d)),
                BinOp::Eq => {
                    edges.push((y, x, d));
                    edges.push((x, y, -d));
                }
                _ => {}
            }
        }
        if edges.is_empty() {
            return true;
        }
        // Interval bounds from the refined domain, through the zero node.
        for &s in nodes.iter().skip(1) {
            let f = dom.fact_of(s);
            if f.interval.hi < i128::from(i64::MAX) {
                edges.push((ZERO, s, f.interval.hi));
            }
            if f.interval.lo > i128::from(i64::MIN) {
                edges.push((s, ZERO, -f.interval.lo));
            }
        }
        // Bellman–Ford from an implicit super-source (all distances 0):
        // |V| rounds of relaxation; any relaxation in round |V| means a
        // negative cycle.
        let index_of = |s: u32| nodes.iter().position(|&n| n == s).unwrap_or(0);
        let mut dist = vec![0i128; nodes.len()];
        for round in 0..=nodes.len() {
            let mut changed = false;
            for &(from, to, w) in &edges {
                let (fi, ti) = (index_of(from), index_of(to));
                if dist[fi] + w < dist[ti] {
                    dist[ti] = dist[fi] + w;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if round == nodes.len() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathCondition;
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

    fn check(assumptions: &[(SVal, bool)], cond: SVal, taken: bool) -> Verdict {
        let mut path = PathCondition::new();
        for (c, t) in assumptions {
            path.push(c.clone(), *t);
        }
        check_path(
            path.assumptions(),
            &cond,
            taken,
            &AbstractDomain::new(),
            Budget::default(),
        )
    }

    #[test]
    fn var_vs_var_cycle_is_unsat() {
        // x < y ∧ y < x: invisible to per-symbol domains, caught by the
        // difference-logic pass.
        let verdict = check(
            &[(bin(BinOp::Lt, sym(0), sym(1)), true)],
            bin(BinOp::Lt, sym(1), sym(0)),
            true,
        );
        assert_eq!(verdict, Verdict::Unsat);
    }

    #[test]
    fn var_chain_with_offsets_is_unsat() {
        // x > 0 ∧ x ≤ y ∧ y ≤ x − 1 is a negative cycle (without x > 0,
        // x = i64::MIN wraps x − 1 to i64::MAX and satisfies it).
        let verdict = check(
            &[
                (bin(BinOp::Gt, sym(0), int(0)), true),
                (bin(BinOp::Le, sym(0), sym(1)), true),
            ],
            bin(BinOp::Le, sym(1), bin(BinOp::Sub, sym(0), int(1))),
            true,
        );
        assert_eq!(verdict, Verdict::Unsat);
    }

    #[test]
    fn offsets_that_may_wrap_build_no_edge() {
        // x + 1 < y ∧ y < x holds for x = i64::MAX, y = 0.
        let verdict = check(
            &[(
                bin(BinOp::Lt, bin(BinOp::Add, sym(0), int(1)), sym(1)),
                true,
            )],
            bin(BinOp::Lt, sym(1), sym(0)),
            true,
        );
        assert_eq!(verdict, Verdict::Sat);
        // Once x is bounded below i64::MAX the offset is exact again.
        let verdict = check(
            &[
                (bin(BinOp::Lt, sym(0), int(100)), true),
                (
                    bin(BinOp::Lt, bin(BinOp::Add, sym(0), int(1)), sym(1)),
                    true,
                ),
            ],
            bin(BinOp::Lt, sym(1), sym(0)),
            true,
        );
        assert_eq!(verdict, Verdict::Unsat);
    }

    #[test]
    fn satisfiable_chain_is_sat() {
        let verdict = check(
            &[(bin(BinOp::Lt, sym(0), sym(1)), true)],
            bin(BinOp::Lt, sym(1), sym(2)),
            true,
        );
        assert_eq!(verdict, Verdict::Sat);
    }

    #[test]
    fn disjunction_forces_contradiction() {
        // (x < 0 || x > 10) ∧ x == 5: both disjuncts conflict with the
        // domain refinement of x == 5.
        let disj = bin(
            BinOp::LogOr,
            bin(BinOp::Lt, sym(0), int(0)),
            bin(BinOp::Gt, sym(0), int(10)),
        );
        let verdict = check(&[(disj, true)], bin(BinOp::Eq, sym(0), int(5)), true);
        assert_eq!(verdict, Verdict::Unsat);
    }

    #[test]
    fn negated_conjunction_de_morgans() {
        // !(x ≥ 0 && x ≤ 10) ∧ x == 5 is unsat.
        let conj = bin(
            BinOp::LogAnd,
            bin(BinOp::Ge, sym(0), int(0)),
            bin(BinOp::Le, sym(0), int(10)),
        );
        let verdict = check(&[(conj, false)], bin(BinOp::Eq, sym(0), int(5)), true);
        assert_eq!(verdict, Verdict::Unsat);
    }

    #[test]
    fn seed_domain_constrains_atoms() {
        // Seed: x ∈ [0, 3]. Probe x > 7 — unsat against the seed.
        let mut seed = AbstractDomain::new();
        seed.assume(&bin(BinOp::Ge, sym(0), int(0)), true);
        seed.assume(&bin(BinOp::Le, sym(0), int(3)), true);
        let verdict = check_path(
            &[],
            &bin(BinOp::Gt, sym(0), int(7)),
            true,
            &seed,
            Budget::default(),
        );
        assert_eq!(verdict, Verdict::Unsat);
    }

    #[test]
    fn zero_budget_is_unknown_when_deciding() {
        // Two independent free atoms force a decision; a zero budget must
        // give Unknown, never a wrong Unsat.
        let a = bin(
            BinOp::LogOr,
            bin(BinOp::Lt, sym(0), int(0)),
            bin(BinOp::Lt, sym(1), int(0)),
        );
        let b = bin(
            BinOp::LogOr,
            bin(BinOp::Gt, sym(0), int(5)),
            bin(BinOp::Gt, sym(1), int(5)),
        );
        let mut path = PathCondition::new();
        path.push(a, true);
        let verdict = check_path(
            path.assumptions(),
            &b,
            true,
            &AbstractDomain::new(),
            Budget {
                decisions: 0,
                conflicts: 0,
            },
        );
        assert_eq!(verdict, Verdict::Unknown);
    }

    #[test]
    fn trivially_true_condition_is_sat() {
        let verdict = check(&[], int(1), true);
        assert_eq!(verdict, Verdict::Sat);
    }

    #[test]
    fn constant_false_condition_is_unsat() {
        let verdict = check(&[], int(0), true);
        assert_eq!(verdict, Verdict::Unsat);
    }
}
