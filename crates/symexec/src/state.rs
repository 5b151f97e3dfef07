//! The per-path execution state: environment, store, path condition, taint.
//!
//! Forking a path clones the whole [`ExecState`]. To keep that cheap the
//! bulk containers are *persistent* (structurally shared): the environment,
//! store and taint map sit on `im::OrdMap` (O(1) clone; an O(log n) update
//! mutates in place the tree nodes this state owns alone and copies only
//! those it still shares with a sibling path), and the append-mostly logs
//! (`write_log`, `events`, `trace`) sit on `im::Vector` (frozen `Arc`
//! chunks plus a small mutable tail). Both containers serialize and hash
//! byte-identically to the `std` types they replaced, so reports and
//! checkpoint files do not change.
//!
//! Region names and symbol hints are `Arc<str>`, so the key and value
//! clones an update makes (the write log entry, a copied shared node) bump
//! a reference count instead of copying the string.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use im::{OrdMap, Vector};
use minic::ast::ExprId;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use taint::{TaintMap, TaintSet};

use crate::constraints::ConstraintManager;
use crate::path::PathCondition;
use crate::value::{Region, SVal};

/// The environment: maps lvalue expressions (by [`ExprId`]) to the memory
/// region they currently denote (§VI-B).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    bindings: OrdMap<ExprId, Region>,
}

impl Environment {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Environment::default()
    }

    /// Records that expression `id` denotes `region`. Rebinding the region
    /// it already denotes (the common case inside loops) leaves the map,
    /// and any node it shares with a sibling path, untouched.
    pub fn bind(&mut self, id: ExprId, region: Region) {
        if self.bindings.get(&id) != Some(&region) {
            self.bindings.insert(id, region);
        }
    }

    /// The region an expression denotes, if recorded.
    pub fn region_of(&self, id: ExprId) -> Option<&Region> {
        self.bindings.get(&id)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterates bindings in expression-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ExprId, &Region)> {
        self.bindings.iter()
    }

    /// Rewrites the bindings not shared with `base` through `f` (see
    /// [`OrdMap::update_unshared`]).
    pub(crate) fn update_unshared<F>(&mut self, base: &Environment, f: F)
    where
        F: FnMut(&ExprId, &Region) -> Option<(ExprId, Region)>,
    {
        self.bindings.update_unshared(&base.bindings, f);
    }

    /// Diagnostic: (shared-with-`other`, total) map-node counts.
    pub fn sharing(&self, other: &Environment) -> (usize, usize) {
        (
            self.bindings.shared_node_count(&other.bindings),
            self.bindings.node_count(),
        )
    }
}

/// The store σ: maps regions to symbolic values.
#[derive(Debug, Clone, Default)]
pub struct Store {
    bindings: OrdMap<Region, SVal>,
    /// Sticky flag: set when a subobject binding was ever created whose
    /// immediate parent region was unbound at that moment (or a parent was
    /// unbound out from under its children). The prefix-window walk of
    /// [`Store::regions_within`] discovers descendants through chains of
    /// *bound* intermediate regions, so such orphans force the slow
    /// full-scan fallback. Conservative (never unset), purely a
    /// performance hint — both paths return the same entries.
    has_orphans: bool,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Binds `region` to `value`, returning the previous binding.
    pub fn bind(&mut self, region: Region, value: SVal) -> Option<SVal> {
        if !self.has_orphans {
            if let Some(parent) = region.parent() {
                if parent.parent().is_some() && !self.bindings.contains_key(parent) {
                    self.has_orphans = true;
                }
            }
        }
        self.bindings.insert(region, value)
    }

    /// The value bound to `region`.
    pub fn lookup(&self, region: &Region) -> Option<&SVal> {
        self.bindings.get(region)
    }

    /// Removes a binding.
    pub fn unbind(&mut self, region: &Region) -> Option<SVal> {
        let old = self.bindings.remove(region);
        if old.is_some() && !self.has_orphans && !self.children_of(region).is_empty() {
            // Removing an intermediate region orphans its bound children.
            self.has_orphans = true;
        }
        old
    }

    /// Iterates bindings in region order.
    pub fn iter(&self) -> impl Iterator<Item = (&Region, &SVal)> {
        self.bindings.iter()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Bound regions whose *immediate* parent is `parent`, via two
    /// O(log n + m) prefix-window queries (the derived [`Region`] ordering
    /// keeps all `Element{parent, _}` keys contiguous, and likewise all
    /// `Field{parent, _}` keys).
    fn children_of<'a>(&'a self, parent: &Region) -> Vec<(&'a Region, &'a SVal)> {
        use std::cmp::Ordering;
        // Region variants order as Var < Global < Element < Field < Sym <
        // Str; within Element (resp. Field) keys order by base first. Both
        // comparators below are therefore monotone over the full key order.
        let mut out = self.bindings.range_by(|key| match key {
            Region::Var { .. } | Region::Global { .. } => Ordering::Less,
            Region::Element { base, .. } => base.as_ref().cmp(parent),
            Region::Field { .. } | Region::Sym { .. } | Region::Str { .. } => Ordering::Greater,
        });
        out.extend(self.bindings.range_by(|key| match key {
            Region::Var { .. } | Region::Global { .. } | Region::Element { .. } => Ordering::Less,
            Region::Field { base, .. } => base.as_ref().cmp(parent),
            Region::Sym { .. } | Region::Str { .. } => Ordering::Greater,
        }));
        out
    }

    /// All regions lying within `base` (itself included) that have bindings.
    ///
    /// Fast path: a worklist of prefix-window queries ([`Self::children_of`])
    /// walking the subobject tree downward from `base`, O((log n + m) · d)
    /// for m matches of maximum depth d — instead of scanning the whole
    /// store. The walk only reaches descendants connected to `base` through
    /// bound intermediates, so stores that ever held an orphaned subobject
    /// fall back to the full filter.
    pub fn regions_within<'a>(
        &'a self,
        base: &'a Region,
    ) -> impl Iterator<Item = (&'a Region, &'a SVal)> {
        let mut out: Vec<(&'a Region, &'a SVal)> = Vec::new();
        if self.has_orphans {
            out.extend(self.bindings.iter().filter(|(r, _)| r.is_within(base)));
        } else {
            if let Some(value) = self.bindings.get(base) {
                out.push((base, value));
            }
            let mut frontier = vec![base];
            while let Some(parent) = frontier.pop() {
                for (child, value) in self.children_of(parent) {
                    out.push((child, value));
                    frontier.push(child);
                }
            }
            // Deliver in global region order, exactly like the filter did.
            out.sort_by_key(|(region, _)| *region);
        }
        out.into_iter()
    }

    /// Rewrites the bindings not shared with `base` through `f` (see
    /// [`OrdMap::update_unshared`]).
    ///
    /// Leaves `has_orphans` as it is: `f` renames symbols consistently in
    /// every key, so each child keeps its parent (or its missing parent)
    /// and no orphan is created or repaired.
    pub(crate) fn update_unshared<F>(&mut self, base: &Store, f: F)
    where
        F: FnMut(&Region, &SVal) -> Option<(Region, SVal)>,
    {
        self.bindings.update_unshared(&base.bindings, f);
    }

    /// The sticky orphan hint (see the field docs).
    #[cfg(test)]
    pub(crate) fn has_orphans(&self) -> bool {
        self.has_orphans
    }

    /// Diagnostic: (shared-with-`other`, total) map-node counts.
    pub fn sharing(&self, other: &Store) -> (usize, usize) {
        (
            self.bindings.shared_node_count(&other.bindings),
            self.bindings.node_count(),
        )
    }
}

impl PartialEq for Store {
    fn eq(&self, other: &Self) -> bool {
        // `has_orphans` is a query-plan hint derived from binding history,
        // not part of the store's meaning.
        self.bindings == other.bindings
    }
}

impl Serialize for Store {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Matches the derived shape `{"bindings": …}` — the orphan hint is
        // recomputed on load so checkpoint bytes are unchanged.
        serializer.serialize_value(serde::Value::Object(vec![(
            String::from("bindings"),
            serde::to_value(&self.bindings)?,
        )]))
    }
}

impl<'de> Deserialize<'de> for Store {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut obj = serde::expect_object(deserializer.take_value()?, "Store")?;
        let bindings: OrdMap<Region, SVal> =
            serde::from_value(serde::take_field(&mut obj, "bindings", "Store")?)?;
        let has_orphans = bindings.keys().any(|region| {
            region
                .parent()
                .is_some_and(|p| p.parent().is_some() && !bindings.contains_key(p))
        });
        Ok(Store {
            bindings,
            has_orphans,
        })
    }
}

impl fmt::Display for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (region, value)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{region} ↦ {value}")?;
        }
        write!(f, "}}")
    }
}

/// Where a declassified value escaped the enclave.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Channel {
    /// The entry function's return value (observable by the host).
    Return,
    /// A write into an `[out]`-marked buffer (read back by the host).
    OutParam {
        /// The region written.
        region: Region,
    },
    /// An argument passed to a configured sink function (e.g. an OCALL).
    SinkCall {
        /// Sink function name.
        func: String,
        /// Zero-based argument index.
        arg: usize,
    },
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Channel::Return => write!(f, "return value"),
            Channel::OutParam { region } => write!(f, "[out] write to {region}"),
            Channel::SinkCall { func, arg } => write!(f, "argument {arg} of `{func}`"),
        }
    }
}

/// A declassification event: a value crossed the enclave boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeclassifyEvent {
    /// Through which channel.
    pub channel: Channel,
    /// The value that escaped.
    pub value: SVal,
    /// The value's taint at that moment.
    pub taint: TaintSet,
    /// The taint of the path condition π at that moment (implicit flows).
    pub pi_taint: TaintSet,
    /// The rendered path condition π at that moment.
    pub pi: String,
    /// Source span of the statement responsible.
    pub span: minic::Span,
}

/// One call frame of the interpreted program (the entry function is frame
/// 0; inlined callees push further frames).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Unique frame id within the exploration (keys [`Region::Var`]).
    pub id: u32,
    /// The function this frame executes.
    pub func: String,
    /// Lexical scopes, innermost last; each maps a source name to the
    /// region chosen for it at declaration (shadowing-safe).
    pub scopes: Vec<BTreeMap<String, Region>>,
}

impl Frame {
    /// Creates a frame with one empty scope.
    pub fn new(id: u32, func: impl Into<String>) -> Self {
        Frame {
            id,
            func: func.into(),
            scopes: vec![BTreeMap::new()],
        }
    }

    /// Resolves a name through the scope chain.
    pub fn lookup(&self, name: &str) -> Option<&Region> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }
}

/// One complete symbolic execution state (a path being explored).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecState {
    /// The environment (lvalue expression → region).
    pub env: Environment,
    /// The store σ (region → symbolic value).
    pub store: Store,
    /// The path condition π.
    pub path: PathCondition,
    /// Range constraints backing feasibility checks for π.
    pub constraints: ConstraintManager,
    /// Taint of each region (τΔ restricted to memory).
    pub taints: TaintMap<Region>,
    /// Taint of the path condition (τΔ\[π\] in the paper's semantics).
    pub pi_taint: TaintSet,
    /// Declassification events recorded on this path so far (persistent —
    /// forked siblings share the common prefix).
    pub events: Vector<DeclassifyEvent>,
    /// Every region written on this path, in order (drives loop widening).
    /// Persistent — forked siblings share the common prefix.
    pub write_log: Vector<Region>,
    /// Statements interpreted so far (budget accounting).
    pub steps: usize,
    /// The call stack (frame 0 = entry function).
    pub frames: Vec<Frame>,
    /// Recorded state snapshots (when tracing is enabled). Persistent —
    /// forked siblings share the common prefix.
    pub trace: Vector<crate::trace::TraceStep>,
    /// Next frame id to hand out for an inlined call on this path.
    ///
    /// Per-state (not global) so frame numbering depends only on the path's
    /// own history — a prerequisite for the worklist engine's determinism
    /// guarantee, since frame ids appear in rendered trace text.
    pub next_frame: u32,
    /// Next shadow-rename counter for re-declared locals on this path.
    pub next_shadow: u32,
    /// Base regions holding secret data on this path (entry parameters
    /// marked secret, plus regions written by configured source functions).
    pub secret_bases: BTreeSet<Region>,
    /// Tier-1 feasibility facts (interval/congruence per symbol),
    /// maintained incrementally alongside `constraints` when the run's
    /// [`crate::constraints::FeasibilityMode`] enables them. Empty — and
    /// absent from old checkpoints, hence the default — in syntactic mode.
    #[serde(default)]
    pub domain: crate::domain::AbstractDomain,
}

impl ExecState {
    /// Creates a pristine state. Frame id 0 is reserved for the entry
    /// function, so inlined callees start at 1.
    pub fn new() -> Self {
        ExecState {
            next_frame: 1,
            ..ExecState::default()
        }
    }

    /// The innermost call frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame has been pushed (engine misuse).
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("at least one frame")
    }

    /// The innermost call frame, mutably.
    ///
    /// # Panics
    ///
    /// Panics if no frame has been pushed (engine misuse).
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("at least one frame")
    }

    /// Binds a region to a value with taint, recording the write.
    pub fn write(&mut self, region: Region, value: SVal, taint: TaintSet) {
        self.write_log.push(region.clone());
        self.taints.set(region.clone(), taint);
        self.store.bind(region, value);
    }

    /// The taint of a region (⊥ if never set).
    pub fn taint_of(&self, region: &Region) -> TaintSet {
        self.taints.get(region)
    }

    /// Whether `region` lies within any base marked secret on this path.
    ///
    /// Probes the region's base chain against the set directly —
    /// O(depth · log n) instead of a linear scan over every secret base.
    pub fn is_secret_region(&self, region: &Region) -> bool {
        let mut current = region;
        loop {
            if self.secret_bases.contains(current) {
                return true;
            }
            match current.parent() {
                Some(parent) => current = parent,
                None => return false,
            }
        }
    }

    /// Diagnostic: how much of this state's persistent structure is the
    /// *same allocation* as `other`'s — `(shared, total)` counts over the
    /// store, taint and environment tree nodes plus the frozen elements of
    /// the event/write/trace logs. A fresh fork shares everything
    /// (`shared == total`); each divergent write then unshares only an
    /// O(log n) path. Drives the bytes-shared ratio in `bench_fork_cost`.
    pub fn shared_allocations(&self, other: &ExecState) -> (usize, usize) {
        let mut shared = 0;
        let mut total = 0;
        for (s, t) in [
            self.store.sharing(&other.store),
            self.taints.sharing(&other.taints),
            self.env.sharing(&other.env),
        ] {
            shared += s;
            total += t;
        }
        shared += self.events.shared_len(&other.events)
            + self.write_log.shared_len(&other.write_log)
            + self.trace.shared_len(&other.trace);
        total += self.events.len() + self.write_log.len() + self.trace.len();
        (shared, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Symbol;
    use taint::SourceId;

    fn var(name: &str) -> Region {
        Region::Var {
            frame: 0,
            name: name.into(),
        }
    }

    #[test]
    fn environment_bindings() {
        let mut env = Environment::new();
        env.bind(ExprId(3), var("x"));
        assert_eq!(env.region_of(ExprId(3)), Some(&var("x")));
        assert_eq!(env.region_of(ExprId(4)), None);
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn store_bind_and_lookup() {
        let mut store = Store::new();
        assert!(store.bind(var("x"), SVal::Int(3)).is_none());
        assert_eq!(store.lookup(&var("x")), Some(&SVal::Int(3)));
        assert_eq!(store.bind(var("x"), SVal::Int(4)), Some(SVal::Int(3)));
        assert_eq!(store.unbind(&var("x")), Some(SVal::Int(4)));
        assert!(store.is_empty());
    }

    #[test]
    fn regions_within_filters_subregions() {
        let base = Region::Sym {
            symbol: Symbol::new(0, "buf"),
        };
        let elem0 = Region::element(base.clone(), SVal::Int(0));
        let mut store = Store::new();
        store.bind(elem0.clone(), SVal::Int(9));
        store.bind(var("x"), SVal::Int(1));
        let within: Vec<_> = store.regions_within(&base).collect();
        assert_eq!(within.len(), 1);
        assert_eq!(within[0].0, &elem0);
    }

    #[test]
    fn state_write_records_log_and_taint() {
        let mut state = ExecState::new();
        let ts = TaintSet::source(SourceId::new(1));
        state.write(var("h"), SVal::Int(5), ts.clone());
        assert_eq!(state.write_log.to_vec(), vec![var("h")]);
        assert_eq!(state.taint_of(&var("h")), ts);
        assert_eq!(state.store.lookup(&var("h")), Some(&SVal::Int(5)));
    }

    #[test]
    fn store_display_is_deterministic() {
        let mut store = Store::new();
        store.bind(var("b"), SVal::Int(2));
        store.bind(var("a"), SVal::Int(1));
        assert_eq!(store.to_string(), "{a ↦ 1, b ↦ 2}");
    }

    #[test]
    fn fork_shares_all_but_the_divergent_write() {
        let buf = Region::Sym {
            symbol: Symbol::new(0, "buf"),
        };
        let mut state = ExecState::new();
        for i in 0..1024 {
            let region = match i % 4 {
                0 => var(&format!("v{i}")),
                1 => Region::element(buf.clone(), SVal::Int(i)),
                2 => Region::field(var(&format!("s{}", i / 4)), "f"),
                _ => Region::Global {
                    name: format!("g{i}").into(),
                },
            };
            let value = SVal::binary(
                minic::ast::BinOp::Add,
                SVal::Sym(Symbol::new(i as u32, "x")),
                SVal::Int(i),
            );
            let taint = if i % 3 == 0 {
                TaintSet::source(SourceId::new((i % 8) as u32))
            } else {
                TaintSet::bottom()
            };
            state.write(region, value, taint);
            if i % 5 == 0 {
                state.env.bind(ExprId(i as u32), buf.clone());
            }
        }
        let (shared, total) = state.clone().shared_allocations(&state);
        assert_eq!(shared, total, "a fresh fork shares every allocation");
        let mut fork = state.clone();
        fork.write(
            var("diverge"),
            SVal::Int(1),
            TaintSet::source(SourceId::new(9)),
        );
        let (shared, total) = fork.shared_allocations(&state);
        assert!(
            shared * 100 >= total * 99,
            "one divergent write unshared {} of {total} allocations",
            total - shared
        );
    }
}
