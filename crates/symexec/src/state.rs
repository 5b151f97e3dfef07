//! The per-path execution state: store, path condition, taint, call stack.
//!
//! Forking a path clones the whole [`ExecState`]. To keep that cheap the
//! bulk containers are *persistent* (structurally shared): the store and
//! the environment sit on `im::OrdMap` (O(1) clone; an O(log n) update
//! mutates in place the tree nodes this state owns alone and copies only
//! those it still shares with a sibling path), and the append-mostly logs
//! (`write_log`, `events`, `trace`) sit on `im::Vector` (frozen `Arc`
//! chunks plus a small mutable tail).
//!
//! The store holds σ and the memory part of τΔ in one map: each region is
//! bound to its value *and* that value's taint, so a read is one lookup and
//! a write one insert. The environment is trace data: the engine binds it
//! only when traces are recorded, since [`crate::trace::TraceStep`] is its
//! only reader.
//!
//! Serialization keeps the shape of the separate maps: a state's JSON has
//! a `store` object holding the values and a `taints` object holding the
//! non-⊥ taints, so checkpoint files written before the maps merged still
//! load, and reports do not change.
//!
//! Region names and symbol hints are `Arc<str>`, so the key and value
//! clones an update makes (the write log entry, a copied shared node) bump
//! a reference count instead of copying the string.
//!
//! The state holds no scopes: sema resolves every identifier to a
//! [`minic::ast::Var`] once, and a local's region is that name in the
//! innermost frame of [`ExecState::frames`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use im::{OrdMap, Vector};
use minic::ast::ExprId;
use serde::{Deserialize, Deserializer, Error, Serialize, Serializer, Value};
use taint::TaintSet;

use crate::constraints::ConstraintManager;
use crate::path::PathCondition;
use crate::value::{Region, SVal};

/// The environment: maps lvalue expressions (by [`ExprId`]) to the memory
/// region they currently denote (§VI-B). Only recorded traces read it, so
/// the engine binds it only when [`crate::engine::EngineConfig::record_trace`]
/// is on.
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

    /// Diagnostic: (shared-with-`other`, total) map-node counts.
    pub fn sharing(&self, other: &Environment) -> (usize, usize) {
        (
            self.bindings.shared_node_count(&other.bindings),
            self.bindings.node_count(),
        )
    }
}

/// The store: σ and the memory part of τΔ in one map. Each bound region
/// carries its symbolic value and that value's taint, so reading both is
/// one lookup and writing both one insert.
#[derive(Debug, Clone, Default)]
pub struct Store {
    bindings: OrdMap<Region, (SVal, TaintSet)>,
    /// Sticky flag: set when a subobject binding was ever created whose
    /// immediate parent region was unbound at that moment (or a parent was
    /// unbound out from under its children). The prefix-window walk of
    /// [`Store::regions_within`] discovers descendants through chains of
    /// *bound* intermediate regions, so such orphans force the slow
    /// full-scan fallback. Conservative (never unset), purely a
    /// performance hint — both paths return the same entries.
    has_orphans: bool,
}

/// One store entry as the iterators hand it out.
type Entry<'a> = (&'a Region, &'a SVal, &'a TaintSet);

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Binds `region` to `value` with `taint`, returning the previous
    /// binding.
    pub fn bind(
        &mut self,
        region: Region,
        value: SVal,
        taint: TaintSet,
    ) -> Option<(SVal, TaintSet)> {
        if !self.has_orphans {
            if let Some(parent) = region.parent() {
                if parent.parent().is_some() && !self.bindings.contains_key(parent) {
                    self.has_orphans = true;
                }
            }
        }
        self.bindings.insert(region, (value, taint))
    }

    /// The value bound to `region` and its taint.
    pub fn get(&self, region: &Region) -> Option<&(SVal, TaintSet)> {
        self.bindings.get(region)
    }

    /// The value bound to `region`.
    pub fn lookup(&self, region: &Region) -> Option<&SVal> {
        self.get(region).map(|(value, _)| value)
    }

    /// The taint of `region`'s value (⊥ if unbound).
    pub fn taint_of(&self, region: &Region) -> TaintSet {
        self.get(region)
            .map(|(_, taint)| taint.clone())
            .unwrap_or_default()
    }

    /// Removes a binding, value and taint together.
    pub fn unbind(&mut self, region: &Region) -> Option<(SVal, TaintSet)> {
        let old = self.bindings.remove(region);
        if old.is_some() && !self.has_orphans && !self.children_of(region).is_empty() {
            // Removing an intermediate region orphans its bound children.
            self.has_orphans = true;
        }
        old
    }

    /// Removes every local of frame `frame`: the [`Region::Var`]s with
    /// that frame id, which lie in one window of the region order. The
    /// engine calls it when a call returns whose locals are scalars or
    /// pointers that no pointer reaches, so no subregion lies below them.
    pub fn unbind_frame(&mut self, frame: u32) {
        let window = |key: &Region| match key {
            Region::Var { frame: own, .. } => own.cmp(&frame),
            _ => std::cmp::Ordering::Greater,
        };
        while let Some(local) = self.bindings.first_by(window).cloned() {
            self.bindings.remove(&local);
        }
    }

    /// Iterates bindings in region order.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_>> {
        self.bindings
            .iter()
            .map(|(region, (value, taint))| (region, value, taint))
    }

    /// The tainted (non-⊥) regions with their taints, in region order —
    /// τΔ restricted to memory.
    pub fn taints(&self) -> impl Iterator<Item = (&Region, &TaintSet)> + Clone {
        self.bindings
            .iter()
            .filter(|(_, (_, taint))| taint.is_tainted())
            .map(|(region, (_, taint))| (region, taint))
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
    fn children_of<'a>(&'a self, parent: &Region) -> Vec<(&'a Region, &'a (SVal, TaintSet))> {
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
    /// Fast path: a worklist of prefix-window queries (`children_of`)
    /// walking the subobject tree downward from `base`, O((log n + m) · d)
    /// for m matches of maximum depth d — instead of scanning the whole
    /// store. The walk only reaches descendants connected to `base` through
    /// bound intermediates, so stores that ever held an orphaned subobject
    /// fall back to the full filter.
    pub fn regions_within<'a>(&'a self, base: &'a Region) -> impl Iterator<Item = Entry<'a>> {
        let mut out: Vec<(&'a Region, &'a (SVal, TaintSet))> = Vec::new();
        if self.has_orphans {
            out.extend(self.bindings.iter().filter(|(r, _)| r.is_within(base)));
        } else {
            if let Some(binding) = self.bindings.get(base) {
                out.push((base, binding));
            }
            let mut frontier = vec![base];
            while let Some(parent) = frontier.pop() {
                for (child, binding) in self.children_of(parent) {
                    out.push((child, binding));
                    frontier.push(child);
                }
            }
            // Deliver in global region order, exactly like the filter did.
            out.sort_by_key(|(region, _)| *region);
        }
        out.into_iter()
            .map(|(region, (value, taint))| (region, value, taint))
    }

    /// Diagnostic: (shared-with-`other`, total) map-node counts.
    pub fn sharing(&self, other: &Store) -> (usize, usize) {
        (
            self.bindings.shared_node_count(&other.bindings),
            self.bindings.node_count(),
        )
    }

    /// The two JSON objects the store serializes to: `{"bindings": …}` with
    /// every value, and `{"entries": …}` with every non-⊥ taint.
    fn to_values(&self) -> Result<(Value, Value), Error> {
        let values = self
            .bindings
            .iter()
            .map(|(region, (value, _))| (region, value));
        let object = |name: &str, entries: Value| Value::Object(vec![(name.to_string(), entries)]);
        Ok((
            object(
                "bindings",
                serde::serialize_map_entries(values, serde::ValueSerializer)?,
            ),
            object(
                "entries",
                serde::serialize_map_entries(self.taints(), serde::ValueSerializer)?,
            ),
        ))
    }

    /// Rebuilds a store from the two objects of [`Store::to_values`]. A
    /// taint for an unbound region is rejected: the engine never makes one.
    fn from_values(store: Value, taints: Value) -> Result<Store, Error> {
        let mut store = serde::expect_object(store, "Store")?;
        let values: Vec<(Region, SVal)> =
            serde::deserialize_map_entries(serde::take_field(&mut store, "bindings", "Store")?)?;
        let mut taints = serde::expect_object(taints, "TaintMap")?;
        let taints: Vec<(Region, TaintSet)> =
            serde::deserialize_map_entries(serde::take_field(&mut taints, "entries", "TaintMap")?)?;
        let mut bindings: BTreeMap<Region, (SVal, TaintSet)> = values
            .into_iter()
            .map(|(region, value)| (region, (value, TaintSet::bottom())))
            .collect();
        for (region, taint) in taints {
            match bindings.get_mut(&region) {
                Some(binding) => binding.1 = taint,
                None => return Err(Error::custom(format!("taint for unbound region {region}"))),
            }
        }
        let has_orphans = bindings.keys().any(|region| {
            region
                .parent()
                .is_some_and(|p| p.parent().is_some() && !bindings.contains_key(p))
        });
        Ok(Store {
            bindings: bindings.into_iter().collect(),
            has_orphans,
        })
    }
}

impl PartialEq for Store {
    fn eq(&self, other: &Self) -> bool {
        // `has_orphans` is a query-plan hint derived from binding history,
        // not part of the store's meaning.
        self.bindings == other.bindings
    }
}

impl fmt::Display for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (region, value)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{region} ↦ {}", value.0)?;
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

/// One complete symbolic execution state (a path being explored).
///
/// Serializes field by field like a derived impl, except that the store
/// becomes two objects, `store` (values) and `taints` (non-⊥ taints) — the
/// layout from when σ and τΔ were separate maps, kept so existing
/// checkpoints resume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecState {
    /// The environment (lvalue expression → region); bound only while
    /// traces are recorded.
    pub env: Environment,
    /// The store: σ and τΔ restricted to memory (region → value, taint).
    pub store: Store,
    /// The path condition π.
    pub path: PathCondition,
    /// Range constraints backing feasibility checks for π.
    pub constraints: ConstraintManager,
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
    /// The call stack: the id of each active frame, innermost last (frame
    /// 0 is the entry function's). A local's [`Region::Var`] carries the
    /// id of the frame it lives in.
    pub frames: Vec<u32>,
    /// Recorded state snapshots (when tracing is enabled). Persistent —
    /// forked siblings share the common prefix.
    pub trace: Vector<crate::trace::TraceStep>,
    /// Next frame id to hand out for an inlined call on this path.
    ///
    /// Per-state (not global) so frame numbering depends only on the path's
    /// own history — a prerequisite for the worklist engine's determinism
    /// guarantee, since frame ids appear in rendered trace text.
    pub next_frame: u32,
    /// How many times this path has created symbols at each site (source
    /// byte offset): the `visit` of a conjured [`crate::value::SymbolKey`].
    /// Like `next_frame`, it depends only on the path's own history.
    pub visits: OrdMap<u32, u32>,
    /// Base regions holding secret data on this path (entry parameters
    /// marked secret, plus regions written by configured source functions).
    pub secret_bases: BTreeSet<Region>,
    /// Tier-1 feasibility facts (interval/congruence per symbol),
    /// maintained incrementally alongside `constraints` when the run's
    /// [`crate::constraints::FeasibilityMode`] enables them. Empty in
    /// syntactic mode.
    pub domain: crate::domain::AbstractDomain,
}

impl Serialize for ExecState {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (store, taints) = self.store.to_values()?;
        let fields = [
            ("env", serde::to_value(&self.env)?),
            ("store", store),
            ("path", serde::to_value(&self.path)?),
            ("constraints", serde::to_value(&self.constraints)?),
            ("taints", taints),
            ("pi_taint", serde::to_value(&self.pi_taint)?),
            ("events", serde::to_value(&self.events)?),
            ("write_log", serde::to_value(&self.write_log)?),
            ("steps", serde::to_value(&self.steps)?),
            ("frames", serde::to_value(&self.frames)?),
            ("trace", serde::to_value(&self.trace)?),
            ("next_frame", serde::to_value(&self.next_frame)?),
            ("visits", serde::to_value(&self.visits)?),
            ("secret_bases", serde::to_value(&self.secret_bases)?),
            ("domain", serde::to_value(&self.domain)?),
        ];
        serializer.serialize_value(Value::Object(
            fields
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        ))
    }
}

impl<'de> Deserialize<'de> for ExecState {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut obj = serde::expect_object(deserializer.take_value()?, "ExecState")?;
        let mut field = |name: &str| serde::take_field(&mut obj, name, "ExecState");
        let env = serde::from_value(field("env")?)?;
        let store = field("store")?;
        let path = serde::from_value(field("path")?)?;
        let constraints = serde::from_value(field("constraints")?)?;
        let store = Store::from_values(store, field("taints")?)?;
        Ok(ExecState {
            env,
            store,
            path,
            constraints,
            pi_taint: serde::from_value(field("pi_taint")?)?,
            events: serde::from_value(field("events")?)?,
            write_log: serde::from_value(field("write_log")?)?,
            steps: serde::from_value(field("steps")?)?,
            frames: serde::from_value(field("frames")?)?,
            trace: serde::from_value(field("trace")?)?,
            next_frame: serde::from_value(field("next_frame")?)?,
            visits: serde::from_value(field("visits")?)?,
            secret_bases: serde::from_value(field("secret_bases")?)?,
            domain: serde::from_value(field("domain")?)?,
        })
    }
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

    /// The id of the innermost call frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame has been pushed (engine misuse).
    pub fn frame(&self) -> u32 {
        *self.frames.last().expect("at least one frame")
    }

    /// Binds a region to a value with taint, recording the write.
    pub fn write(&mut self, region: Region, value: SVal, taint: TaintSet) {
        self.write_log.push(region.clone());
        self.store.bind(region, value, taint);
    }

    /// Counts one more visit to `site`, returning how many came before.
    pub(crate) fn visit(&mut self, site: usize) -> u32 {
        let site = site as u32;
        let visit = self.visits.get(&site).copied().unwrap_or(0);
        self.visits.insert(site, visit + 1);
        visit
    }

    /// The taint of a region (⊥ if never set).
    pub fn taint_of(&self, region: &Region) -> TaintSet {
        self.store.taint_of(region)
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
    /// store and environment tree nodes plus the frozen elements of
    /// the event/write/trace logs. A fresh fork shares everything
    /// (`shared == total`); each divergent write then unshares only an
    /// O(log n) path. Drives the bytes-shared ratio in `bench_fork_cost`.
    pub fn shared_allocations(&self, other: &ExecState) -> (usize, usize) {
        let mut shared = 0;
        let mut total = 0;
        for (s, t) in [
            self.store.sharing(&other.store),
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
        let t1 = TaintSet::source(SourceId::new(1));
        assert!(store.bind(var("x"), SVal::Int(3), t1.clone()).is_none());
        assert_eq!(store.lookup(&var("x")), Some(&SVal::Int(3)));
        assert_eq!(store.taint_of(&var("x")), t1);
        assert_eq!(
            store.bind(var("x"), SVal::Int(4), TaintSet::bottom()),
            Some((SVal::Int(3), t1))
        );
        assert_eq!(store.taints().count(), 0, "⊥ is not listed as a taint");
        assert_eq!(
            store.unbind(&var("x")),
            Some((SVal::Int(4), TaintSet::bottom()))
        );
        assert!(store.is_empty());
        assert!(store.taint_of(&var("x")).is_empty());
    }

    #[test]
    fn json_keeps_separate_store_and_taint_objects() {
        let mut state = ExecState::new();
        state.write(var("h"), SVal::Int(5), TaintSet::source(SourceId::new(2)));
        state.write(var("l"), SVal::Int(6), TaintSet::bottom());
        let json = serde_json::to_string(&state).expect("serializes");
        let value: serde_json::Value = serde_json::from_str(&json).expect("parses");
        let keys: Vec<&str> = match &value {
            serde_json::Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("state is not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            [
                "env",
                "store",
                "path",
                "constraints",
                "taints",
                "pi_taint",
                "events",
                "write_log",
                "steps",
                "frames",
                "trace",
                "next_frame",
                "visits",
                "secret_bases",
                "domain"
            ]
        );
        assert_eq!(
            serde_json::to_string(&value["store"]).unwrap(),
            r#"{"bindings":[[{"Var":{"frame":0,"name":"h"}},{"Int":5}],[{"Var":{"frame":0,"name":"l"}},{"Int":6}]]}"#
        );
        assert_eq!(
            serde_json::to_string(&value["taints"]).unwrap(),
            r#"{"entries":[[{"Var":{"frame":0,"name":"h"}},{"sources":[2]}]]}"#
        );
        let back: ExecState = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, state);
        // A taint for a region the store does not bind is malformed.
        let orphan = json.replace(r#"[{"Var":{"frame":0,"name":"h"}},{"Int":5}],"#, "");
        assert!(serde_json::from_str::<ExecState>(&orphan).is_err());
    }

    #[test]
    fn regions_within_filters_subregions() {
        let base = Region::Sym {
            symbol: Symbol::new(0, "buf"),
        };
        let elem0 = Region::element(base.clone(), SVal::Int(0));
        let mut store = Store::new();
        store.bind(elem0.clone(), SVal::Int(9), TaintSet::bottom());
        store.bind(var("x"), SVal::Int(1), TaintSet::bottom());
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
        store.bind(var("b"), SVal::Int(2), TaintSet::bottom());
        store.bind(var("a"), SVal::Int(1), TaintSet::bottom());
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
                SVal::Sym(Symbol::new(i as u64, "x")),
                SVal::Int(i),
            );
            let taint = if i % 3 == 0 {
                TaintSet::source(SourceId::new((i % 8) as u64))
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
