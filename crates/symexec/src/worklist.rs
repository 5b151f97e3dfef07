//! Deterministic fan-out support for the worklist engine.
//!
//! The engine explores one top-level statement per *wave*: every live path
//! state becomes an independent task, tasks run on a scoped thread pool
//! ([`run_tasks`]), and the results are merged back **in task order**. Two
//! pieces make the merged output byte-identical to a sequential run:
//!
//! 1. **Partitioned id allocation.** Each task mints symbol and source ids
//!    from a private namespace starting at [`LOCAL_ID_BASE`] (the upper
//!    half of the `u32` space), so concurrent tasks can never race on the
//!    global counters.
//! 2. **Order-preserving remap.** During the merge, [`IdRemap`] translates
//!    each task's local ids onto the global counters in canonical task
//!    order — reproducing exactly the numbering a sequential left-to-right
//!    exploration would have produced.
//!
//! Frame ids and shadow-rename counters need no translation: they live in
//! [`ExecState`](crate::state::ExecState) and depend only on the path's own
//! history, which is scheduling-invariant by construction.
//!
//! ## The merge costs what the task changed
//!
//! The merge runs serially, so its cost caps the parallel speed-up. It is
//! kept proportional to what a task created, not to the size of the
//! state, by three facts:
//!
//! * a task's input state is post-merge, so it holds no local ids;
//! * `write_log`, `events` and the path are append-only within a task, so
//!   only the entries past the input's lengths can hold local ids;
//! * persistent map nodes are immutable, so any env or store node that is
//!   still the *same allocation* as the input's node for its key holds only
//!   global ids — and so does its whole subtree.
//!
//! [`TaskBase`] keeps the input's log lengths and O(1) clones of its two
//! maps: the environment (empty unless traces are recorded) and the store,
//! whose entries carry each region's value *and* taint, so one walk over
//! its unshared entries remaps regions, values and taints together.
//! [`IdRemap::remap_state`] rewrites only the log suffixes and the map
//! entries outside shared subtrees (found by `OrdMap::update_unshared`),
//! rekeying them in place; a task that minted no ids skips the remap
//! altogether. The constraints, the abstract domain, the secret bases, the
//! frames and π's taint are small and are remapped whole. Because untouched
//! nodes are never rebuilt, sibling paths keep sharing the structure they
//! inherited across any number of waves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use im::Vector;
use taint::{SourceId, TaintSet};

use crate::state::{Channel, DeclassifyEvent, Environment, ExecState, Store};
use crate::value::Region;

/// First id of the task-local symbol/source namespace (2³¹).
///
/// Global counters stay far below this in any realistic exploration; the
/// engine debug-asserts the invariant at merge time.
pub(crate) const LOCAL_ID_BASE: u32 = 0x8000_0000;

/// What every output state of a task inherited from the task's input
/// state, which is post-merge and so holds only global ids: O(1) clones of
/// its persistent maps and the lengths of its append-only logs.
#[derive(Default)]
pub(crate) struct TaskBase {
    env: Environment,
    store: Store,
    path: usize,
    write_log: usize,
    events: usize,
}

impl TaskBase {
    /// Records a task's input state before the task runs.
    pub fn of(state: &ExecState) -> Self {
        TaskBase {
            env: state.env.clone(),
            store: state.store.clone(),
            path: state.path.len(),
            write_log: state.write_log.len(),
            events: state.events.len(),
        }
    }
}

/// Translates task-local symbol and source ids onto the global counters.
pub(crate) struct IdRemap {
    /// Global id assigned to the task's first local symbol.
    pub symbol_base: u32,
    /// Global id assigned to the task's first local source.
    pub source_base: u32,
}

impl IdRemap {
    /// Maps a symbol id; ids below [`LOCAL_ID_BASE`] pre-date the task and
    /// pass through unchanged.
    pub fn symbol(&self, id: u32) -> u32 {
        if id >= LOCAL_ID_BASE {
            self.symbol_base + (id - LOCAL_ID_BASE)
        } else {
            id
        }
    }

    /// Maps a source id (same scheme as [`IdRemap::symbol`]).
    pub fn source(&self, id: SourceId) -> SourceId {
        let raw = id.index();
        if raw >= LOCAL_ID_BASE {
            SourceId::new(self.source_base + (raw - LOCAL_ID_BASE))
        } else {
            id
        }
    }

    /// Rebuilds a taint set with all source ids mapped.
    pub fn taint(&self, ts: &TaintSet) -> TaintSet {
        TaintSet::from_sources(ts.sources().map(|s| self.source(s)))
    }

    /// The remapped taint set, or `None` when it holds no local source.
    fn remapped_taint(&self, ts: &TaintSet) -> Option<TaintSet> {
        ts.sources()
            .any(|s| s.index() >= LOCAL_ID_BASE)
            .then(|| self.taint(ts))
    }

    /// Rewrites every local id in a declassification event.
    pub fn remap_event(&self, event: &mut DeclassifyEvent) {
        let sym = |id| self.symbol(id);
        event.value.remap_symbols(&sym);
        event.taint = self.taint(&event.taint);
        event.pi_taint = self.taint(&event.pi_taint);
        if let Channel::OutParam { region } = &mut event.channel {
            region.remap_symbols(&sym);
        }
        // `event.pi` is rendered text; symbols print as `$hint`, never as a
        // raw id, so it needs no translation.
    }

    /// Rewrites every local id in an output state of the task whose input
    /// `base` describes, touching only what the task created (see the
    /// module docs).
    pub fn remap_state(&self, state: &mut ExecState, base: &TaskBase) {
        let sym = |id| self.symbol(id);

        state.env.update_unshared(&base.env, |expr, region| {
            region.remapped(&sym).map(|region| (*expr, region))
        });
        state
            .store
            .update_unshared(&base.store, |region, (value, taint)| {
                let (new_region, new_value, new_taint) = (
                    region.remapped(&sym),
                    value.remapped(&sym),
                    self.remapped_taint(taint),
                );
                if new_region.is_none() && new_value.is_none() && new_taint.is_none() {
                    return None;
                }
                Some((
                    new_region.unwrap_or_else(|| region.clone()),
                    (
                        new_value.unwrap_or_else(|| value.clone()),
                        new_taint.unwrap_or_else(|| taint.clone()),
                    ),
                ))
            });
        state.path.remap_symbols_from(base.path, &sym);
        remap_log(&mut state.write_log, base.write_log, |region| {
            region.remapped(&sym)
        });
        remap_log(&mut state.events, base.events, |event| {
            let mut event = event.clone();
            self.remap_event(&mut event);
            Some(event)
        });

        state.constraints.remap_symbols(&sym);
        state.domain.remap_symbols(sym);
        state.pi_taint = self.taint(&state.pi_taint);
        state.secret_bases = std::mem::take(&mut state.secret_bases)
            .into_iter()
            .map(|mut region| {
                region.remap_symbols(&sym);
                region
            })
            .collect();
        for frame in &mut state.frames {
            for scope in &mut frame.scopes {
                for region in scope.values_mut() {
                    region.remap_symbols(&sym);
                }
            }
        }
        // `state.trace` holds rendered text only — nothing to translate.
    }
}

/// Rewrites an append-only log from index `start` on, where `remap` returns
/// `Some` for each element it changes. The log is cut at the first changed
/// element, so the frozen chunks before it stay shared.
fn remap_log<T: Clone>(log: &mut Vector<T>, start: usize, remap: impl Fn(&T) -> Option<T>) {
    let mut first = None;
    let mut rewritten = Vec::new();
    for (offset, item) in log.iter_from(start).enumerate() {
        match (first, remap(item)) {
            (None, None) => {}
            (None, Some(new)) => {
                first = Some(start + offset);
                rewritten.push(new);
            }
            (Some(_), new) => rewritten.push(new.unwrap_or_else(|| item.clone())),
        }
    }
    if let Some(first) = first {
        log.truncate(first);
        log.extend(rewritten);
    }
}

/// Panics, naming the component, if a symbol or source id at or above
/// [`LOCAL_ID_BASE`] survives in a merged state. A read-only walk, run
/// after every merge in debug builds.
pub(crate) fn assert_no_local_ids(state: &ExecState) {
    // Clearing the top bit changes exactly the local ids, so `remapped`
    // answers `Some` iff one is present (and allocates only then).
    let local_bit = |id: u32| id & !LOCAL_ID_BASE;
    let region_ok = |region: &Region| region.remapped(&local_bit).is_none();
    let value_ok = |value: &crate::value::SVal| value.remapped(&local_bit).is_none();
    let taint_ok = |ts: &TaintSet| ts.sources().all(|s| s.index() < LOCAL_ID_BASE);
    let event_ok = |event: &DeclassifyEvent| {
        value_ok(&event.value)
            && taint_ok(&event.taint)
            && taint_ok(&event.pi_taint)
            && match &event.channel {
                Channel::OutParam { region } => region_ok(region),
                Channel::Return | Channel::SinkCall { .. } => true,
            }
    };
    let checks = [
        ("env", state.env.iter().all(|(_, r)| region_ok(r))),
        (
            "store",
            state
                .store
                .iter()
                .all(|(r, v, ts)| region_ok(r) && value_ok(v) && taint_ok(ts)),
        ),
        (
            "path",
            state.path.assumptions().iter().all(|a| value_ok(&a.cond)),
        ),
        (
            "constraints",
            state.constraints.symbol_ids().all(|id| id < LOCAL_ID_BASE),
        ),
        (
            "domain",
            state.domain.symbol_ids().all(|id| id < LOCAL_ID_BASE),
        ),
        ("pi_taint", taint_ok(&state.pi_taint)),
        ("events", state.events.iter().all(event_ok)),
        ("write_log", state.write_log.iter().all(region_ok)),
        ("secret_bases", state.secret_bases.iter().all(region_ok)),
        (
            "frames",
            state
                .frames
                .iter()
                .flat_map(|frame| &frame.scopes)
                .flat_map(|scope| scope.values())
                .all(region_ok),
        ),
    ];
    for (component, ok) in checks {
        assert!(ok, "a task-local id survived the merge in {component}");
    }
}

/// Returns the free pages of the allocator's per-thread arenas to the OS,
/// after a run that fanned out over worker threads.
///
/// Worker threads allocate from their own glibc arenas, and because merged
/// states keep the nodes a task built, those allocations outlive the wave
/// and are freed later, out of order. A non-main arena hands memory back
/// only from the top of its heap, so the holes stay resident and pile up
/// over the analyses of one process. Repeating the `table5` benchmark
/// workload in one process raised its peak RSS from 75 MB after the
/// first pass to 97–116 MB within 20 s on a 2-vCPU host; with this call
/// it stays near 70 MB, at 0.03–5 ms per run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) fn release_worker_arenas() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, works only on
    // allocator state under the arenas' own locks (it is thread-safe), and
    // releases free pages only, never a live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Elsewhere the allocator keeps its own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub(crate) fn release_worker_arenas() {}

/// Runs `run` over `inputs` on up to `workers` scoped threads, returning
/// the results **in input order** regardless of completion order.
///
/// With `workers <= 1` (or a single input) this degrades to a plain
/// sequential loop — the legacy engine behaviour — using the very same
/// task closure, so parallel and sequential runs share one code path.
pub(crate) fn run_tasks<T, R, F>(workers: usize, inputs: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = inputs.len();
    if workers <= 1 || n <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(index, input)| run(index, input))
            .collect();
    }
    let tasks: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let input = tasks[index]
                    .lock()
                    .expect("task slot")
                    .take()
                    .expect("each task is claimed exactly once");
                let output = run(index, input);
                *results[index].lock().expect("result slot") = Some(output);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{SVal, Symbol};

    #[test]
    fn run_tasks_preserves_input_order() {
        let inputs: Vec<usize> = (0..64).collect();
        let sequential = run_tasks(1, inputs.clone(), |i, v| (i, v * v));
        let parallel = run_tasks(8, inputs, |i, v| {
            if v % 3 == 0 {
                std::thread::yield_now();
            }
            (i, v * v)
        });
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[10], (10, 100));
    }

    #[test]
    fn remap_translates_local_ids_and_keeps_global_ones() {
        let remap = IdRemap {
            symbol_base: 5,
            source_base: 9,
        };
        assert_eq!(remap.symbol(3), 3);
        assert_eq!(remap.symbol(LOCAL_ID_BASE), 5);
        assert_eq!(remap.symbol(LOCAL_ID_BASE + 2), 7);
        assert_eq!(remap.source(SourceId::new(1)), SourceId::new(1));
        assert_eq!(
            remap.source(SourceId::new(LOCAL_ID_BASE + 1)),
            SourceId::new(10)
        );
        let ts = TaintSet::from_sources([SourceId::new(1), SourceId::new(LOCAL_ID_BASE)]);
        let mapped: Vec<_> = remap.taint(&ts).sources().collect();
        assert_eq!(mapped, vec![SourceId::new(1), SourceId::new(9)]);
    }

    #[test]
    fn remap_state_walks_every_component() {
        let remap = IdRemap {
            symbol_base: 100,
            source_base: 200,
        };
        let local_sym = Symbol::new(LOCAL_ID_BASE, "fresh");
        let region = Region::element(
            Region::Sym {
                symbol: local_sym.clone(),
            },
            SVal::Sym(local_sym.clone()),
        );
        let mut state = ExecState::new();
        state.write(
            region.clone(),
            SVal::Sym(local_sym.clone()),
            TaintSet::source(SourceId::new(LOCAL_ID_BASE)),
        );
        state.path.push(SVal::Sym(local_sym.clone()), true);
        state.constraints.assume(&SVal::Sym(local_sym), true);
        state.secret_bases.insert(region);

        remap.remap_state(&mut state, &TaskBase::default());

        let expected = Symbol::new(100, "fresh");
        let expected_region = Region::element(
            Region::Sym {
                symbol: expected.clone(),
            },
            SVal::Sym(expected.clone()),
        );
        assert_eq!(
            state.store.lookup(&expected_region),
            Some(&SVal::Sym(expected.clone()))
        );
        assert_eq!(
            state
                .taint_of(&expected_region)
                .sources()
                .collect::<Vec<_>>(),
            vec![SourceId::new(200)]
        );
        assert_eq!(state.path.assumptions()[0].cond, SVal::Sym(expected));
        assert_eq!(state.write_log.to_vec(), vec![expected_region.clone()]);
        assert!(state.is_secret_region(&expected_region));
        // The remapped constraint key must now answer for the global id.
        assert_eq!(state.constraints.known_value(100), None);
        assert_eq!(
            state
                .constraints
                .clone()
                .assume(&SVal::Sym(Symbol::new(100, "fresh")), false),
            crate::constraints::Feasibility::Infeasible
        );
    }

    /// The remap as a full rebuild: every entry of every component is
    /// re-inserted into fresh containers. It ignores what the task input
    /// shares with its outputs, which makes it the oracle for the
    /// delta remap of [`IdRemap::remap_state`].
    fn full_rebuild(remap: &IdRemap, state: &mut ExecState) {
        let sym = |id| remap.symbol(id);

        let mut env = Environment::new();
        for (expr, region) in std::mem::take(&mut state.env).iter() {
            let mut region = region.clone();
            region.remap_symbols(&sym);
            env.bind(*expr, region);
        }
        state.env = env;

        let mut store = Store::new();
        for (region, value, taint) in std::mem::take(&mut state.store).iter() {
            let mut region = region.clone();
            let mut value = value.clone();
            region.remap_symbols(&sym);
            value.remap_symbols(&sym);
            store.bind(region, value, remap.taint(taint));
        }
        state.store = store;

        let old_path = std::mem::take(&mut state.path);
        for assumption in old_path.assumptions() {
            let mut cond = assumption.cond.clone();
            cond.remap_symbols(&sym);
            state.path.push(cond, assumption.taken);
        }

        state.constraints.remap_symbols(&sym);
        state.domain.remap_symbols(sym);

        state.pi_taint = remap.taint(&state.pi_taint);

        state.events = state
            .events
            .iter()
            .map(|event| {
                let mut event = event.clone();
                remap.remap_event(&mut event);
                event
            })
            .collect();
        state.write_log = state
            .write_log
            .iter()
            .map(|region| {
                let mut region = region.clone();
                region.remap_symbols(&sym);
                region
            })
            .collect();
        state.secret_bases = std::mem::take(&mut state.secret_bases)
            .into_iter()
            .map(|mut region| {
                region.remap_symbols(&sym);
                region
            })
            .collect();
        for frame in &mut state.frames {
            for scope in &mut frame.scopes {
                for region in scope.values_mut() {
                    region.remap_symbols(&sym);
                }
            }
        }
    }

    /// Mints symbols and sources like an explorer: from 0 for the global
    /// one, from [`LOCAL_ID_BASE`] inside a task. Everything minted so far
    /// is a candidate for the regions, values and taints of later steps.
    struct Minter {
        next_symbol: u32,
        next_source: u32,
        symbols: Vec<Symbol>,
        sources: Vec<SourceId>,
    }

    impl Minter {
        fn symbol(&mut self) -> Symbol {
            let hint = ["secrets[0]", "p", "n", "summary(x)"][self.symbols.len() % 4];
            let sym = Symbol::new(self.next_symbol, hint);
            self.next_symbol += 1;
            self.symbols.push(sym.clone());
            sym
        }

        fn source(&mut self) -> SourceId {
            let id = SourceId::new(self.next_source);
            self.next_source += 1;
            self.sources.push(id);
            id
        }

        fn pick(&self, k: usize) -> Symbol {
            self.symbols[k % self.symbols.len()].clone()
        }

        fn region(&self, k: usize) -> Region {
            let base = Region::Sym {
                symbol: self.pick(k / 6),
            };
            match k % 6 {
                0 => Region::Var {
                    frame: (k % 3) as u32,
                    name: format!("v{}", k % 5).into(),
                },
                1 => Region::Global {
                    name: format!("g{}", k % 3).into(),
                },
                2 => base,
                3 => Region::element(base, SVal::Int((k % 4) as i64)),
                4 => Region::element(base, SVal::Sym(self.pick(k / 7))),
                _ => Region::field(Region::element(base, SVal::Int(0)), "w"),
            }
        }

        fn value(&self, k: usize) -> SVal {
            match k % 4 {
                0 => SVal::Int(k as i64),
                1 => SVal::Sym(self.pick(k / 4)),
                2 => SVal::binary(
                    minic::ast::BinOp::Add,
                    SVal::Sym(self.pick(k / 4)),
                    SVal::Int(3),
                ),
                _ => SVal::Loc(self.region(k / 4)),
            }
        }

        fn taint(&self, k: usize) -> TaintSet {
            let n = self.sources.len();
            TaintSet::from_sources([self.sources[k % n], self.sources[(k / 3) % n]])
        }
    }

    /// One step of a random path: `(kind, a, b, flag)`.
    type Step = (u8, usize, usize, bool);

    /// Applies `step` to `state`; a fork (kind 2) hands a sibling copy to
    /// `forks`.
    fn apply(state: &mut ExecState, ids: &mut Minter, step: Step, forks: &mut Vec<ExecState>) {
        let (kind, a, b, flag) = step;
        match kind {
            0 => state.write(ids.region(a), ids.value(b), ids.taint(a + b)),
            1 => {
                // A lazy read: a fresh symbol and source for unseen memory.
                let region = ids.region(a);
                let sym = ids.symbol();
                let source = ids.source();
                state
                    .store
                    .bind(region, SVal::Sym(sym), TaintSet::source(source));
            }
            2 => forks.push(state.clone()),
            3 => {
                let channel = if flag {
                    Channel::OutParam {
                        region: ids.region(a),
                    }
                } else {
                    Channel::Return
                };
                state.events.push(DeclassifyEvent {
                    channel,
                    value: ids.value(b),
                    taint: ids.taint(a),
                    pi_taint: state.pi_taint.clone(),
                    pi: state.path.to_string(),
                    span: minic::Span::default(),
                });
            }
            4 => {
                let cond = SVal::binary(minic::ast::BinOp::Gt, ids.value(a), SVal::Int(b as i64));
                state.path.push(cond.clone(), flag);
                state.constraints.assume(&cond, flag);
                state.domain.assume(&cond, flag);
                state.pi_taint.join_assign(&ids.taint(b));
            }
            5 => {
                // An inlined call binding a parameter.
                let mut frame = crate::state::Frame::new(state.next_frame, "callee");
                state.next_frame += 1;
                frame.scopes[0].insert("p".into(), ids.region(a));
                state.frames.push(frame);
            }
            6 => {
                state.secret_bases.insert(ids.region(a));
            }
            7 => {
                state.store.unbind(&ids.region(a));
            }
            _ => state
                .env
                .bind(minic::ast::ExprId((a % 16) as u32), ids.region(b)),
        }
    }

    fn step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        (0u8..9, 0usize..96, 0usize..96, any::<bool>())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Builds a post-merge state, runs a random task on it (forks,
        /// writes, lazy reads minting local ids, events, path pushes,
        /// inlined frames) and checks every output state: the delta remap
        /// must equal the full rebuild by `==`, by serialized bytes and by
        /// the FNV probe key, and must leave the orphan hint alone.
        #[test]
        fn delta_remap_equals_full_rebuild(
            history in proptest::collection::vec(step(), 0..80),
            task in proptest::collection::vec(step(), 0..40),
            earlier in (0u32..50, 0u32..50),
        ) {
            let mut global = Minter {
                next_symbol: 0,
                next_source: 0,
                symbols: Vec::new(),
                sources: Vec::new(),
            };
            global.symbol();
            global.symbol();
            global.source();
            let mut input = ExecState::new();
            input.frames.push(crate::state::Frame::new(0, "entry"));
            for &(kind, a, b, flag) in &history {
                // The input is one path: its history has no forks.
                let kind = if kind == 2 { 0 } else { kind };
                apply(&mut input, &mut global, (kind, a, b, flag), &mut Vec::new());
            }

            let base = TaskBase::of(&input);
            let mut ids = Minter {
                next_symbol: LOCAL_ID_BASE,
                next_source: LOCAL_ID_BASE,
                symbols: global.symbols.clone(),
                sources: global.sources.clone(),
            };
            let mut outputs = Vec::new();
            let mut state = input.clone();
            for &step in &task {
                apply(&mut state, &mut ids, step, &mut outputs);
            }
            outputs.push(state);

            // Tasks merged earlier in the wave moved the global counters on.
            let remap = IdRemap {
                symbol_base: global.next_symbol + earlier.0,
                source_base: global.next_source + earlier.1,
            };
            for output in outputs {
                let mut delta = output.clone();
                remap.remap_state(&mut delta, &base);
                let mut oracle = output.clone();
                full_rebuild(&remap, &mut oracle);
                assert_no_local_ids(&delta);
                proptest::prop_assert!(delta == oracle, "delta remap differs from the rebuild");
                proptest::prop_assert_eq!(
                    serde_json::to_string(&delta).expect("serializes"),
                    serde_json::to_string(&oracle).expect("serializes")
                );
                let probe = |st: &ExecState| {
                    crate::checkpoint::probe_key(&st.constraints, &SVal::Int(1), true)
                };
                proptest::prop_assert_eq!(probe(&delta), probe(&oracle));
                proptest::prop_assert_eq!(delta.store.has_orphans(), output.store.has_orphans());
            }
        }
    }
}
