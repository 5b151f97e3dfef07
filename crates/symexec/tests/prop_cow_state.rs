//! Property tests for copy-on-write path states.
//!
//! An [`ExecState`] clone is a structural share (persistent maps, chunked
//! logs, hash-consed values), not a deep copy. These tests drive random
//! operation sequences against a state *and* a deep `std`-container model
//! in lockstep — including forking into divergent siblings — and assert
//! the shared representation is observationally identical to the model:
//! no write on one sibling may ever leak into the other, and every query
//! (store, taint, environment, secret bases, subregion windows) must agree
//! with the deep baseline. The store keeps each region's value and taint
//! in one map, so every operation below acts on both together.

use std::collections::{BTreeMap, BTreeSet};

use minic::ast::ExprId;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use symexec::state::ExecState;
use symexec::value::{Region, SVal, Symbol};
use taint::{SourceId, TaintSet};

/// A small fixed universe of regions: plain bases, nested subobjects
/// (including chains whose intermediate region may never be bound — the
/// orphan case for window queries) and a symbolic element index.
fn universe() -> Vec<Region> {
    let var_x = Region::Var {
        frame: 0,
        name: "x".into(),
    };
    let global_g = Region::Global { name: "g".into() };
    let sym_p = Region::Sym {
        symbol: Symbol::new(1, "p"),
    };
    let buf = Region::Sym {
        symbol: Symbol::new(2, "buf"),
    };
    let elem0 = Region::element(buf.clone(), SVal::Int(0));
    let elem1 = Region::element(buf.clone(), SVal::Int(1));
    let elem_sym = Region::element(buf.clone(), SVal::Sym(Symbol::new(3, "i")));
    let field_a = Region::field(sym_p.clone(), "a");
    let deep = Region::field(field_a.clone(), "b");
    let deeper = Region::element(deep.clone(), SVal::Int(2));
    let elem_of_elem = Region::element(elem0.clone(), SVal::Int(5));
    vec![
        var_x,
        global_g,
        sym_p,
        buf,
        elem0,
        elem1,
        elem_sym,
        field_a,
        deep,
        deeper,
        elem_of_elem,
    ]
}

#[derive(Clone, Debug)]
enum Op {
    /// `ExecState::write`: value + taint + write log.
    Write {
        region: usize,
        value: i64,
        source: u64,
    },
    /// Remove a store binding, value and taint.
    Unbind { region: usize },
    /// Join extra taint into a bound region's taint.
    Join { region: usize, source: u64 },
    /// Bind an lvalue expression to a region.
    BindEnv { expr: u32, region: usize },
    /// Mark a region as a secret base.
    MarkSecret { region: usize },
}

/// Deep baseline built on plain `std` containers with fresh allocations —
/// what a deep-cloned state would hold.
#[derive(Clone, Debug, Default)]
struct Model {
    store: BTreeMap<Region, (SVal, TaintSet)>,
    env: BTreeMap<ExprId, Region>,
    write_log: Vec<Region>,
    secrets: BTreeSet<Region>,
}

fn taint_of(source: u64) -> TaintSet {
    if source == 0 {
        TaintSet::bottom()
    } else {
        TaintSet::source(SourceId::new(source))
    }
}

fn apply(op: &Op, state: &mut ExecState, model: &mut Model, regions: &[Region]) {
    match *op {
        Op::Write {
            region,
            value,
            source,
        } => {
            let r = regions[region % regions.len()].clone();
            let ts = taint_of(source);
            state.write(r.clone(), SVal::Int(value), ts.clone());
            model.write_log.push(r.clone());
            model.store.insert(r, (SVal::Int(value), ts));
        }
        Op::Unbind { region } => {
            let r = &regions[region % regions.len()];
            let got = state.store.unbind(r);
            assert_eq!(got, model.store.remove(r));
        }
        Op::Join { region, source } => {
            let r = regions[region % regions.len()].clone();
            let ts = taint_of(source);
            if let Some((value, taint)) = state.store.get(&r).cloned() {
                state.store.bind(r.clone(), value, taint.join(&ts));
            }
            if let Some((_, taint)) = model.store.get_mut(&r) {
                taint.join_assign(&ts);
            }
        }
        Op::BindEnv { expr, region } => {
            let r = regions[region % regions.len()].clone();
            state.env.bind(ExprId(expr), r.clone());
            model.env.insert(ExprId(expr), r);
        }
        Op::MarkSecret { region } => {
            let r = regions[region % regions.len()].clone();
            state.secret_bases.insert(r.clone());
            model.secrets.insert(r);
        }
    }
}

/// Asserts a COW state is observationally identical to its deep model.
fn check(state: &ExecState, model: &Model, regions: &[Region]) -> Result<(), TestCaseError> {
    // Store: same values and taints, same iteration order.
    let got: Vec<_> = state
        .store
        .iter()
        .map(|(r, v, t)| (r.clone(), v.clone(), t.clone()))
        .collect();
    let want: Vec<_> = model
        .store
        .iter()
        .map(|(r, (v, t))| (r.clone(), v.clone(), t.clone()))
        .collect();
    prop_assert_eq!(got, want, "store content/order diverged");

    // Taints: canonical (no ⊥ entries), same order, same as single reads.
    let got: Vec<_> = state
        .store
        .taints()
        .map(|(r, t)| (r.clone(), t.clone()))
        .collect();
    let want: Vec<_> = model
        .store
        .iter()
        .filter(|(_, (_, t))| t.is_tainted())
        .map(|(r, (_, t))| (r.clone(), t.clone()))
        .collect();
    prop_assert_eq!(got, want, "taint map diverged");
    for r in regions {
        let want = model
            .store
            .get(r)
            .map(|(_, t)| t.clone())
            .unwrap_or_default();
        prop_assert_eq!(state.taint_of(r), want, "taint read diverged for {}", r);
    }

    // Environment lookups.
    for id in 0..8u32 {
        prop_assert_eq!(
            state.env.region_of(ExprId(id)),
            model.env.get(&ExprId(id)),
            "env binding diverged for expr {}",
            id
        );
    }

    // Write log: same sequence.
    prop_assert_eq!(
        state.write_log.to_vec(),
        model.write_log.clone(),
        "write log diverged"
    );

    // Secret-base chain probe vs. linear scan over the model.
    for r in regions {
        let want = model.secrets.iter().any(|base| r.is_within(base));
        prop_assert_eq!(
            state.is_secret_region(r),
            want,
            "is_secret_region diverged for {}",
            r
        );
    }

    // Subregion window query vs. naive full filter over the model.
    for base in regions {
        let got: Vec<Region> = state
            .store
            .regions_within(base)
            .map(|(r, _, _)| r.clone())
            .collect();
        let want: Vec<Region> = model
            .store
            .iter()
            .filter(|(r, _)| r.is_within(base))
            .map(|(r, _)| r.clone())
            .collect();
        prop_assert_eq!(got, want, "regions_within diverged for base {}", base);
    }
    Ok(())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..16, -100i64..100, 0u64..4).prop_map(|(region, value, source)| Op::Write {
            region,
            value,
            source
        }),
        (0usize..16).prop_map(|region| Op::Unbind { region }),
        (0usize..16, 0u64..4).prop_map(|(region, source)| Op::Join { region, source }),
        (0u32..8, 0usize..16).prop_map(|(expr, region)| Op::BindEnv { expr, region }),
        (0usize..16).prop_map(|region| Op::MarkSecret { region }),
    ]
}

proptest! {
    /// Fork a state, drive the two siblings (and their deep models) down
    /// divergent suffixes, and require both to match their baselines —
    /// i.e. structural sharing never lets one sibling observe the other.
    #[test]
    fn cow_siblings_match_deep_clone_baselines(
        prefix in pvec(arb_op(), 0..25),
        left in pvec(arb_op(), 0..25),
        right in pvec(arb_op(), 0..25),
    ) {
        let regions = universe();
        let mut state = ExecState::new();
        let mut model = Model::default();
        for op in &prefix {
            apply(op, &mut state, &mut model, &regions);
        }

        // Fork: O(1) structural share vs. deep model copy.
        let mut left_state = state.clone();
        let mut left_model = model.clone();
        let mut right_state = state;
        let mut right_model = model;

        for op in &left {
            apply(op, &mut left_state, &mut left_model, &regions);
        }
        for op in &right {
            apply(op, &mut right_state, &mut right_model, &regions);
        }

        check(&left_state, &left_model, &regions)?;
        check(&right_state, &right_model, &regions)?;
    }

    /// `Store::regions_within` (prefix-window walk with orphan fallback)
    /// agrees with the naive full filter on stores with unbound
    /// intermediate regions and symbolic indexes.
    #[test]
    fn regions_within_matches_naive_filter(
        bind_mask in 0u32..(1 << 11),
    ) {
        let regions = universe();
        let mut store = symexec::state::Store::new();
        let mut reference: BTreeMap<Region, SVal> = BTreeMap::new();
        for (i, r) in regions.iter().enumerate() {
            if bind_mask & (1 << i) != 0 {
                store.bind(r.clone(), SVal::Int(i as i64), TaintSet::bottom());
                reference.insert(r.clone(), SVal::Int(i as i64));
            }
        }
        for base in &regions {
            let got: Vec<Region> = store.regions_within(base).map(|(r, _, _)| r.clone()).collect();
            let want: Vec<Region> = reference
                .iter()
                .filter(|(r, _)| r.is_within(base))
                .map(|(r, _)| r.clone())
                .collect();
            prop_assert_eq!(got, want, "base {}", base);
        }
    }
}
