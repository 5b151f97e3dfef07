//! Cross-interpreter agreement pre-flight.
//!
//! The differential oracle (see [`crate::oracle`]) is only as good as the
//! two executions it compares: if the symbolic engine's semantics and the
//! `sgx-sim` interpreter's semantics drift apart, every disagreement it
//! reports is suspect. [`check_agreement`] pins them together: it runs
//! the symbolic engine over a module, instantiates the path that the
//! concrete inputs select (by evaluating each path's branch assumptions
//! under a concrete assignment built from the engine's own symbol hints),
//! and demands that the instantiated return value, `[out]`-buffer writes,
//! and OCALL argument sequence all equal what `sgx-sim` observes for the
//! same inputs.
//!
//! For modules the engine explores exhaustively this is a hard check:
//! exactly one path must match the inputs and every observable must
//! agree. For modules whose path space outruns the budget (e.g. the
//! Kmeans case study), the concrete input's path may have been dropped —
//! [`Agreement::PathNotKept`] reports that honestly instead of vacuously
//! passing.

use std::collections::BTreeMap;
use std::time::Duration;

use symexec::concrete::{ceval, ceval_bool, CAssignment, CVal};
use symexec::engine::{region_hint, Engine, EngineConfig, ParamBinding};
use symexec::state::Channel;
use symexec::value::{Region, SVal};
use symexec::Exploration;

use edl::Prototype;
use sgx_sim::interp::{Value, Word};
use sgx_sim::{EcallArg, EcallResult, Enclave};

use crate::analyzer::DEFAULT_DECRYPT_FUNCTIONS;

/// Pre-flight tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreflightConfig {
    /// Seed for the concrete input derivation.
    pub seed: u64,
    /// Engine path budget.
    pub max_paths: usize,
    /// Engine symbolic loop bound.
    pub loop_bound: usize,
    /// Engine wall-clock deadline, if any.
    pub deadline_ms: Option<u64>,
    /// Engine value-size cap. The analyzer's production default (64)
    /// summarizes large values into opaque symbols, which the concrete
    /// instantiation cannot see through; the pre-flight raises the cap so
    /// semantic drift is not masked by abstraction. Values that *still*
    /// get summarized are counted as abstracted, not compared.
    pub max_value_size: usize,
}

impl Default for PreflightConfig {
    fn default() -> Self {
        PreflightConfig {
            seed: 0,
            max_paths: 4096,
            loop_bound: 4,
            deadline_ms: None,
            max_value_size: 4096,
        }
    }
}

/// The pre-flight verdict for one module and one concrete input.
#[derive(Debug, Clone, PartialEq)]
pub enum Agreement {
    /// The concrete input selected exactly one symbolic path and every
    /// evaluable observable agreed with `sgx-sim`.
    Match {
        /// Total paths the engine kept.
        paths: usize,
        /// Observables skipped because their symbolic value contains an
        /// abstraction symbol (summarization/widening) that no concrete
        /// input maps to. Zero means the comparison was complete.
        abstracted: usize,
    },
    /// The exploration was budget-limited and none of the kept paths is
    /// the one the concrete input takes — nothing to compare.
    PathNotKept,
    /// Observable drift between the interpreters (the reason to fail the
    /// fuzzing campaign before it starts).
    Mismatch {
        /// One line per drifting observable.
        details: Vec<String>,
    },
}

/// The concrete input derivation: buffer/scalar values assigned to the
/// ECALL parameters, kept alongside the `EcallArg`s so the symbolic side
/// can be instantiated with the same numbers.
struct ConcreteInputs {
    args: Vec<EcallArg>,
    /// `[in]` / `[in,out]` buffer contents, by parameter name.
    buffers: BTreeMap<String, Vec<CVal>>,
    /// Scalar parameter values, by name.
    scalars: BTreeMap<String, CVal>,
    /// `[out]`-only parameter names (zero-filled by the simulator).
    out_params: Vec<String>,
}

fn is_float_type(c_type: &str) -> bool {
    c_type.contains("float") || c_type.contains("double")
}

/// Deterministic input values: small non-negative integers (exact in both
/// `i64` and `f64`, and below every threshold the synthetic generator
/// plants).
fn input_value(seed: u64, ordinal: usize) -> i64 {
    (seed
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(ordinal as u64 * 11)
        % 37) as i64
}

fn derive_inputs(proto: &Prototype, seed: u64) -> Result<ConcreteInputs, String> {
    let mut inputs = ConcreteInputs {
        args: Vec::new(),
        buffers: BTreeMap::new(),
        scalars: BTreeMap::new(),
        out_params: Vec::new(),
    };
    let mut ordinal = 0usize;
    for param in &proto.params {
        if param.is_pointer() {
            let bound = param
                .attributes
                .count
                .as_ref()
                .or(param.attributes.size.as_ref())
                .ok_or_else(|| format!("parameter `{}` has no bound", param.name))?;
            let count = match bound {
                edl::ast::Bound::Const(n) => *n as usize,
                edl::ast::Bound::Param(name) => {
                    return Err(format!(
                        "parameter `{}` has non-constant bound `{name}`",
                        param.name
                    ))
                }
            };
            let float = is_float_type(&param.c_type);
            let is_in = param.attributes.is_in();
            let is_out = param.attributes.is_out();
            if is_in {
                let mut words = Vec::with_capacity(count);
                let mut cvals = Vec::with_capacity(count);
                for _ in 0..count {
                    let v = input_value(seed, ordinal);
                    ordinal += 1;
                    if float {
                        words.push(Word::Float(v as f64));
                        cvals.push(CVal::Float(v as f64));
                    } else {
                        words.push(Word::Int(v));
                        cvals.push(CVal::Int(v));
                    }
                }
                inputs.buffers.insert(param.name.clone(), cvals);
                inputs.args.push(if is_out {
                    EcallArg::InOut(words)
                } else {
                    EcallArg::In(words)
                });
            } else if is_out {
                inputs.out_params.push(param.name.clone());
                inputs.args.push(EcallArg::Out(count));
            } else {
                return Err(format!("parameter `{}` has no direction", param.name));
            }
        } else {
            let v = input_value(seed, ordinal);
            ordinal += 1;
            let cval = if is_float_type(&param.c_type) {
                inputs.args.push(EcallArg::Float(v as f64));
                CVal::Float(v as f64)
            } else {
                inputs.args.push(EcallArg::Int(v));
                CVal::Int(v)
            };
            inputs.scalars.insert(param.name.clone(), cval);
        }
    }
    Ok(inputs)
}

/// The analyzer's parameter bindings, replicated (no config overrides).
fn bindings(proto: &Prototype) -> Vec<ParamBinding> {
    proto
        .params
        .iter()
        .map(|param| {
            if param.is_pointer() {
                match (param.attributes.is_in(), param.attributes.is_out()) {
                    (true, true) => ParamBinding::InOutPointer,
                    (true, false) => ParamBinding::SecretPointer,
                    (false, true) => ParamBinding::OutPointer,
                    (false, false) => ParamBinding::Pointer,
                }
            } else {
                ParamBinding::Scalar
            }
        })
        .collect()
}

fn collect_symbols(value: &SVal, out: &mut BTreeMap<u32, String>) {
    match value {
        SVal::Sym(sym) => {
            out.insert(sym.id, sym.hint.to_string());
        }
        SVal::Binary { lhs, rhs, .. } => {
            collect_symbols(lhs, out);
            collect_symbols(rhs, out);
        }
        SVal::Unary { arg, .. } => collect_symbols(arg, out),
        SVal::Call { args, .. } => {
            for arg in args {
                collect_symbols(arg, out);
            }
        }
        SVal::Ite { cond, then, els } => {
            collect_symbols(cond, out);
            collect_symbols(then, out);
            collect_symbols(els, out);
        }
        SVal::Int(_) | SVal::Float(_) | SVal::Loc(_) | SVal::Unknown => {}
    }
}

/// Maps a symbol hint (the engine's own naming: `pub0`, `secret[3]`,
/// `out[1]`) to the concrete value the simulator received.
fn hint_value(hint: &str, inputs: &ConcreteInputs) -> Option<CVal> {
    if let Some(v) = inputs.scalars.get(hint) {
        return Some(*v);
    }
    let (name, rest) = hint.split_once('[')?;
    let index: usize = rest.strip_suffix(']')?.parse().ok()?;
    if let Some(buffer) = inputs.buffers.get(name) {
        return buffer.get(index).copied();
    }
    // `[out]`-only slots read before any write: the simulator zero-fills.
    inputs
        .out_params
        .iter()
        .any(|p| p == name)
        .then_some(CVal::Int(0))
}

/// Builds the concrete assignment for every symbol reachable from the
/// exploration's observables and path conditions. Unmappable symbols
/// (widening, summarization, uninterpreted calls) stay unassigned and
/// make the affected evaluation indeterminate rather than wrong.
fn build_assignment(exploration: &Exploration, inputs: &ConcreteInputs) -> CAssignment {
    let mut hints = BTreeMap::new();
    for path in &exploration.paths {
        for assumption in path.state.path.assumptions() {
            collect_symbols(&assumption.cond, &mut hints);
        }
        if let Some((value, _)) = &path.return_value {
            collect_symbols(value, &mut hints);
        }
        for event in path.state.events.iter() {
            collect_symbols(&event.value, &mut hints);
        }
        for (_, base) in &exploration.out_bases {
            for (region, value, _) in path.state.store.regions_within(base) {
                if let Region::Element { index, .. } = region {
                    collect_symbols(index, &mut hints);
                }
                collect_symbols(value, &mut hints);
            }
        }
    }
    let mut assignment = CAssignment::new();
    for (id, hint) in hints {
        if let Some(v) = hint_value(&hint, inputs) {
            assignment.insert(id, v);
        }
    }
    assignment
}

/// Whether the concrete inputs drive execution down this path: every
/// branch assumption must evaluate, concretely, to the side taken.
fn path_matches(path: &symexec::PathOutcome, assignment: &CAssignment) -> bool {
    path.state
        .path
        .assumptions()
        .iter()
        .all(|a| ceval_bool(&a.cond, assignment) == Some(a.taken))
}

fn value_num(value: &Value) -> Option<CVal> {
    match value {
        Value::Int(v) => Some(CVal::Int(*v)),
        Value::Float(v) => Some(CVal::Float(*v)),
        Value::Ptr { .. } => None,
    }
}

fn word_num(word: &Word) -> Option<CVal> {
    match word {
        Word::Int(v) => Some(CVal::Int(*v)),
        Word::Float(v) => Some(CVal::Float(*v)),
        Word::Uninit => None,
    }
}

fn agree(a: Option<CVal>, b: Option<CVal>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.same_number(b),
        (None, None) => true,
        _ => false,
    }
}

fn render(v: Option<CVal>) -> String {
    match v {
        Some(CVal::Int(x)) => x.to_string(),
        Some(CVal::Float(x)) => format!("{x:?}"),
        None => "<none>".to_string(),
    }
}

/// Whether `value` references a symbol the concrete input cannot supply
/// (summarization, widening, uninterpreted calls): the value is then an
/// abstraction artifact, not comparable concretely.
fn has_unmapped(value: &SVal, assignment: &CAssignment) -> bool {
    let mut symbols = std::collections::BTreeSet::new();
    value.symbols(&mut symbols);
    symbols.iter().any(|id| !assignment.contains_key(id))
}

/// Compares the matched symbolic path's observables against the
/// simulator's, appending one line per drift; observables whose symbolic
/// value is abstracted (unmapped symbols) are counted, not compared.
fn compare_path(
    path: &symexec::PathOutcome,
    exploration: &Exploration,
    assignment: &CAssignment,
    result: &EcallResult,
    details: &mut Vec<String>,
    abstracted: &mut usize,
) {
    // Return value.
    let sim_ret = result.ret.as_ref().and_then(value_num);
    match &path.return_value {
        Some((v, _)) if has_unmapped(v, assignment) => *abstracted += 1,
        ret => {
            let engine_ret = ret.as_ref().and_then(|(v, _)| ceval(v, assignment));
            if !agree(engine_ret, sim_ret) {
                details.push(format!(
                    "return value: engine {} vs sim {}",
                    render(engine_ret),
                    render(sim_ret)
                ));
            }
        }
    }
    // `[out]` buffer writes: every slot the engine bound must hold the
    // simulator's final value (untouched slots stay zero-filled on both
    // sides by construction).
    for (name, base) in &exploration.out_bases {
        for (region, value, _) in path.state.store.regions_within(base) {
            let Region::Element { index, .. } = region else {
                continue;
            };
            let Some(CVal::Int(slot)) = ceval(index, assignment) else {
                continue;
            };
            let Ok(slot) = usize::try_from(slot) else {
                continue;
            };
            if has_unmapped(value, assignment) {
                *abstracted += 1;
                continue;
            }
            let engine_v = ceval(value, assignment);
            let sim_v = result
                .outs
                .get(name)
                .and_then(|words| words.get(slot))
                .and_then(word_num);
            if !agree(engine_v, sim_v) {
                details.push(format!(
                    "{}: engine {} vs sim {}",
                    region_hint(region),
                    render(engine_v),
                    render(sim_v)
                ));
            }
        }
    }
    // OCALL argument sequence, in program order. The engine logs one
    // event per (call, argument); flatten the simulator's log the same
    // way.
    let engine_calls: Vec<(String, usize, Option<CVal>, bool)> = path
        .state
        .events
        .iter()
        .filter_map(|event| match &event.channel {
            Channel::SinkCall { func, arg } => {
                let opaque = has_unmapped(&event.value, assignment);
                Some((func.clone(), *arg, ceval(&event.value, assignment), opaque))
            }
            Channel::Return | Channel::OutParam { .. } => None,
        })
        .collect();
    let sim_calls: Vec<(String, usize, Option<CVal>)> = result
        .ocalls
        .iter()
        .flat_map(|(name, args)| {
            args.iter()
                .enumerate()
                .map(|(i, v)| (name.clone(), i, value_num(v)))
        })
        .collect();
    if engine_calls.len() != sim_calls.len() {
        details.push(format!(
            "ocall sequence length: engine {} vs sim {}",
            engine_calls.len(),
            sim_calls.len()
        ));
        return;
    }
    for ((ef, ea, ev, opaque), (sf, sa, sv)) in engine_calls.iter().zip(&sim_calls) {
        if *opaque {
            *abstracted += 1;
            if ef != sf || ea != sa {
                details.push(format!("ocall position: engine {ef}#{ea} vs sim {sf}#{sa}"));
            }
            continue;
        }
        if ef != sf || ea != sa || !agree(*ev, *sv) {
            details.push(format!(
                "ocall argument: engine {ef}#{ea}={} vs sim {sf}#{sa}={}",
                render(*ev),
                render(*sv)
            ));
        }
    }
}

/// Runs the agreement check for one module under one seed.
///
/// # Errors
///
/// Returns a rendered reason when the check itself cannot run (parse
/// errors, unsupported EDL bounds, simulator faults, engine errors) —
/// distinct from [`Agreement::Mismatch`], which means the check ran and
/// the interpreters drifted.
pub fn check_agreement(
    source: &str,
    edl_text: &str,
    entry: &str,
    config: &PreflightConfig,
) -> Result<Agreement, String> {
    let unit = minic::parse(source).map_err(|e| e.to_string())?;
    let edl_file = edl::parse_edl(edl_text).map_err(|e| e.to_string())?;
    let proto = edl_file
        .ecall(entry)
        .ok_or_else(|| format!("no ECALL `{entry}`"))?
        .clone();
    let inputs = derive_inputs(&proto, config.seed)?;

    // Symbolic side, configured exactly like the analyzer.
    let mut engine_config = EngineConfig {
        loop_bound: config.loop_bound,
        max_paths: config.max_paths,
        deadline: config.deadline_ms.map(Duration::from_millis),
        max_value_size: config.max_value_size,
        ..EngineConfig::default()
    };
    for sink in edl_file.ocall_names() {
        engine_config.sink_functions.insert(sink);
    }
    for func in DEFAULT_DECRYPT_FUNCTIONS {
        engine_config.source_functions.insert((*func).to_string());
    }
    let engine = Engine::new(&unit, engine_config).with_source(source.to_string());
    let exploration = engine
        .run(entry, &bindings(&proto))
        .map_err(|e| e.to_string())?;

    // Concrete side.
    let enclave = Enclave::load(source, edl_text).map_err(|e| e.to_string())?;
    let result = enclave
        .ecall(entry, &inputs.args)
        .map_err(|e| e.to_string())?;

    let assignment = build_assignment(&exploration, &inputs);
    let complete = !exploration.exhausted && exploration.ledger.is_empty();
    let matched: Vec<_> = exploration
        .paths
        .iter()
        .filter(|p| path_matches(p, &assignment))
        .collect();
    match matched.as_slice() {
        [] if complete => Err(format!(
            "no kept path matches the concrete input despite a complete \
             exploration ({} paths)",
            exploration.paths.len()
        )),
        [] => Ok(Agreement::PathNotKept),
        [path] => {
            let mut details = Vec::new();
            let mut abstracted = 0usize;
            compare_path(
                path,
                &exploration,
                &assignment,
                &result,
                &mut details,
                &mut abstracted,
            );
            if details.is_empty() {
                Ok(Agreement::Match {
                    paths: exploration.paths.len(),
                    abstracted,
                })
            } else {
                Ok(Agreement::Mismatch { details })
            }
        }
        many => Err(format!(
            "{} paths match one concrete input — path conditions are not \
             mutually exclusive under evaluation",
            many.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_small() {
        assert_eq!(input_value(3, 5), input_value(3, 5));
        for ordinal in 0..64 {
            let v = input_value(9, ordinal);
            assert!((0..37).contains(&v));
        }
    }

    #[test]
    fn hint_values_map_buffers_scalars_and_out_slots() {
        let mut inputs = ConcreteInputs {
            args: Vec::new(),
            buffers: BTreeMap::new(),
            scalars: BTreeMap::new(),
            out_params: vec!["out".to_string()],
        };
        inputs
            .buffers
            .insert("secret".to_string(), vec![CVal::Int(7), CVal::Int(9)]);
        inputs.scalars.insert("pub0".to_string(), CVal::Int(5));
        assert_eq!(hint_value("pub0", &inputs), Some(CVal::Int(5)));
        assert_eq!(hint_value("secret[1]", &inputs), Some(CVal::Int(9)));
        assert_eq!(hint_value("out[4]", &inputs), Some(CVal::Int(0)));
        assert_eq!(hint_value("secret[9]", &inputs), None);
        assert_eq!(hint_value("widened(x)", &inputs), None);
    }
}
