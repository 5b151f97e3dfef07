//! The DFA-style baseline the paper compares against in §II-B.
//!
//! "An alternative way to find explicit leakage is to use data flow
//! analysis frameworks. […] most data flow frameworks are path insensitive
//! and are hard to be used for finding implicit leakages." This module is
//! that alternative: a classic forward taint propagation to a fixpoint —
//! flow-sensitive but **path-insensitive** (both branch sides merge, no
//! path condition is tracked) and **coarse** (one taint source per secret
//! parameter, not per element).
//!
//! It finds the explicit leaks orders of magnitude faster than symbolic
//! execution and misses every implicit one — exactly the trade-off the
//! paper describes; the `ablation` bench quantifies it. Unlike the
//! symbolic engine, which fans live path states across worker threads
//! (see [`AnalyzerOptions::workers`](crate::AnalyzerOptions)), this
//! baseline stays a single-pass sequential fixpoint: it tracks one merged
//! abstract state, so there is nothing to parallelize over.

use std::collections::{BTreeMap, BTreeSet};

use edl::EdlFile;
use minic::ast::{Expr, ExprKind, Stmt, StmtKind, TranslationUnit};
use taint::{SourceId, TaintSet};

use crate::error::Error;
use crate::nonrev::Verdict;
use crate::report::{Finding, FindingKind, Report};

/// Runs the path-insensitive taint baseline on one ECALL.
///
/// # Errors
///
/// Returns [`Error`] if the source/EDL fail to parse or the target is not
/// a declared ECALL.
pub fn analyze(source: &str, edl_text: &str, function: &str) -> Result<Report, Error> {
    let started = std::time::Instant::now();
    let unit = minic::parse(source)?;
    let edl_file = edl::parse_edl(edl_text)?;
    let proto = edl_file
        .ecall(function)
        .ok_or_else(|| Error::UnknownTarget(function.to_string()))?;
    let func = unit
        .function(function)
        .filter(|f| f.body.is_some())
        .ok_or_else(|| Error::UnknownTarget(function.to_string()))?;

    let mut next_source = 1u64;
    let mut taints: BTreeMap<String, TaintSet> = BTreeMap::new();
    let mut source_names: BTreeMap<SourceId, String> = BTreeMap::new();
    let mut out_params: BTreeSet<String> = BTreeSet::new();
    for param in &proto.params {
        if param.attributes.is_in() {
            let id = SourceId::new(next_source);
            next_source += 1;
            source_names.insert(id, param.name.clone());
            taints.insert(param.name.clone(), TaintSet::source(id));
        }
        if param.attributes.is_out() {
            out_params.insert(param.name.clone());
        }
    }

    let mut pass = Pass {
        unit: &unit,
        edl: &edl_file,
        taints,
        out_params,
        findings: BTreeMap::new(),
        source_names,
        depth: 0,
    };
    // Iterate to a fixpoint: loop-carried taint needs at most |vars|
    // rounds on this lattice; cap generously. Findings recorded during the
    // warm-up iterations can be stale (taint still growing), so clear them
    // and take the verdicts from one final pass over the converged state.
    let body = func.body.as_ref().expect("definition");
    for _ in 0..16 {
        let before = pass.taints.clone();
        for stmt in body {
            pass.stmt(stmt);
        }
        if pass.taints == before {
            break;
        }
    }
    pass.findings.clear();
    for stmt in body {
        pass.stmt(stmt);
    }

    Ok(Report {
        function: function.to_string(),
        findings: pass.findings.into_values().collect(),
        degradations: Vec::new(),
        checkpoint: None,
        stats: crate::report::AnalysisStats {
            paths: 1,
            forks: 0,
            infeasible: 0,
            cache_hits: 0,
            cache_misses: 0,
            tier1_refuted: 0,
            tier2_refuted: 0,
            tier2_unknown: 0,
            exhausted: false,
            time: started.elapsed(),
            loc: minic::count_loc(source),
        },
        profile: symexec::profile::SourceProfile::default(),
    })
}

struct Pass<'u> {
    unit: &'u TranslationUnit,
    edl: &'u EdlFile,
    taints: BTreeMap<String, TaintSet>,
    out_params: BTreeSet<String>,
    findings: BTreeMap<(String, SourceId), Finding>,
    source_names: BTreeMap<SourceId, String>,
    depth: usize,
}

impl<'u> Pass<'u> {
    fn taint_of(&self, name: &str) -> TaintSet {
        self.taints.get(name).cloned().unwrap_or_default()
    }

    /// Taint of an expression: the join over all mentioned variables.
    fn expr_taint(&mut self, expr: &Expr) -> TaintSet {
        let mut taint = TaintSet::bottom();
        let mut calls = Vec::new();
        expr.walk(&mut |e| match &e.kind {
            ExprKind::Ident { name, .. } => {
                taint.join_assign(&self.taint_of(name));
            }
            ExprKind::Call { callee, args } => {
                calls.push((callee.clone(), args.len()));
            }
            _ => {}
        });
        // decrypt-style calls make the result secret
        for (callee, _) in &calls {
            if crate::analyzer::DEFAULT_DECRYPT_FUNCTIONS.contains(&callee.as_str()) {
                let id = SourceId::new(900 + self.source_names.len() as u64);
                self.source_names
                    .entry(id)
                    .or_insert_with(|| format!("{callee}#out"));
                taint.join_assign(&TaintSet::source(id));
            }
        }
        taint
    }

    /// The base variable an lvalue writes through (`out[i]` → `out`).
    fn lvalue_base(expr: &Expr) -> Option<&str> {
        match &expr.kind {
            ExprKind::Ident { name, .. } => Some(name),
            ExprKind::Index { base, .. }
            | ExprKind::Member { base, .. }
            | ExprKind::Deref(base)
            | ExprKind::Cast { expr: base, .. } => Self::lvalue_base(base),
            _ => None,
        }
    }

    fn record(&mut self, channel: &str, value: &Expr, taint: &TaintSet) {
        if let Verdict::Reversible(source) = Verdict::of(taint) {
            let secret = self
                .source_names
                .get(&source)
                .cloned()
                .unwrap_or_else(|| source.to_string());
            self.findings
                .entry((channel.to_string(), source))
                .or_insert_with(|| Finding {
                    kind: FindingKind::Explicit,
                    channel: channel.to_string(),
                    secret,
                    value: Some(minic::pretty::expr(value)),
                    recovery: None,
                    observations: Vec::new(),
                    line: None,
                });
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Decl(decl) => {
                if let Some(minic::ast::Init::Expr(expr)) = &decl.init {
                    let taint = self.handle_expr(expr);
                    self.merge(decl.name.clone(), taint);
                }
            }
            StmtKind::Expr(Some(expr)) => {
                self.handle_expr(expr);
            }
            StmtKind::Expr(None) => {}
            StmtKind::Block(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
            // Path-insensitive: both sides execute, results merge, and the
            // condition's taint is *dropped* — no implicit-flow tracking.
            StmtKind::If { then_s, else_s, .. } => {
                self.stmt(then_s);
                if let Some(else_s) = else_s {
                    self.stmt(else_s);
                }
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                self.stmt(body);
            }
            StmtKind::For {
                init, step, body, ..
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                self.stmt(body);
                if let Some(step) = step {
                    self.handle_expr(step);
                }
            }
            StmtKind::Return(Some(expr)) => {
                let taint = self.handle_expr(expr);
                self.record("return value", expr, &taint);
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        }
    }

    /// Processes assignments/calls inside an expression and returns its
    /// taint.
    fn handle_expr(&mut self, expr: &Expr) -> TaintSet {
        match &expr.kind {
            ExprKind::Assign { lhs, rhs, op } => {
                let mut taint = self.handle_expr(rhs);
                if op.is_some() {
                    if let Some(base) = Self::lvalue_base(lhs) {
                        taint.join_assign(&self.taint_of(base));
                    }
                }
                if let Some(base) = Self::lvalue_base(lhs) {
                    let base = base.to_string();
                    if self.out_params.contains(&base) {
                        self.record(&format!("{base}[...]"), rhs, &taint);
                    }
                    self.merge(base, taint.clone());
                }
                taint
            }
            ExprKind::Call { callee, args } => {
                let mut taint = TaintSet::bottom();
                for arg in args {
                    taint.join_assign(&self.handle_expr(arg));
                }
                // OCALLs are sinks
                if self.edl.ocall(callee).is_some() {
                    for arg in args {
                        let arg_taint = self.expr_taint(arg);
                        self.record(&format!("argument of `{callee}`"), arg, &arg_taint);
                    }
                }
                // inline user functions one level for taint transfer
                if self.depth < 4 {
                    if let Some(func) = self.unit.function(callee).filter(|f| f.body.is_some()) {
                        let func = func.clone();
                        self.depth += 1;
                        for (param, arg) in func.params.iter().zip(args) {
                            let arg_taint = self.expr_taint(arg);
                            self.merge(param.name.clone(), arg_taint);
                        }
                        for s in func.body.as_ref().expect("definition") {
                            self.stmt(s);
                        }
                        self.depth -= 1;
                    }
                }
                let expr_level = self.expr_taint(expr);
                taint.join_assign(&expr_level);
                taint
            }
            _ => {
                // recurse for nested assignments, then compute taint
                let mut nested = Vec::new();
                expr.walk(&mut |e| {
                    if matches!(e.kind, ExprKind::Assign { .. } | ExprKind::Call { .. })
                        && e.id != expr.id
                    {
                        nested.push(e.clone());
                    }
                });
                for e in nested {
                    self.handle_expr(&e);
                }
                self.expr_taint(expr)
            }
        }
    }

    fn merge(&mut self, name: String, taint: TaintSet) {
        self.taints.entry(name).or_default().join_assign(&taint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING1: &str = r#"
int enclave_process_data(char *secrets, char *output) {
    int temporary = secrets[0] + 100;
    output[0] = temporary + 1;
    if (secrets[1] == 0)
        return 0;
    else
        return 1;
}
"#;

    const LISTING1_EDL: &str = r#"
enclave { trusted {
    public int enclave_process_data([in] char *secrets, [out] char *output);
}; };
"#;

    #[test]
    fn finds_explicit_but_misses_implicit() {
        let report = analyze(LISTING1, LISTING1_EDL, "enclave_process_data").unwrap();
        // the explicit copy-out is found…
        assert_eq!(report.explicit_findings().count(), 1);
        // …but the branch leak is invisible to a path-insensitive pass.
        assert_eq!(report.implicit_findings().count(), 0);
    }

    #[test]
    fn coarse_granularity_cannot_distinguish_elements() {
        // element-wise the sum mixes two secrets, but param-level taint
        // sees one source `secrets`, so the baseline (over-)reports — the
        // known precision gap vs the symbolic engine.
        let source = r#"
int mix(char *secrets, char *output) {
    output[0] = secrets[0] + secrets[1];
    return 0;
}
"#;
        let edl_text =
            "enclave { trusted { public int mix([in] char *secrets, [out] char *output); }; };";
        let report = analyze(source, edl_text, "mix").unwrap();
        assert_eq!(report.explicit_findings().count(), 1);
    }

    #[test]
    fn taint_transfers_through_helpers() {
        let source = r#"
int dbl(int x) { return 2 * x; }
int f(char *secrets) { return dbl(secrets[0]); }
"#;
        let edl_text = "enclave { trusted { public int f([in] char *secrets); }; };";
        let report = analyze(source, edl_text, "f").unwrap();
        assert_eq!(report.explicit_findings().count(), 1);
    }

    #[test]
    fn loop_carried_taint_reaches_fixpoint() {
        let source = r#"
int f(char *secrets, char *output) {
    int a = 0;
    int b = 0;
    for (int i = 0; i < 4; i++) {
        a = b;
        b = secrets[0];
    }
    output[0] = a;
    return 0;
}
"#;
        let edl_text =
            "enclave { trusted { public int f([in] char *secrets, [out] char *output); }; };";
        let report = analyze(source, edl_text, "f").unwrap();
        assert_eq!(report.explicit_findings().count(), 1);
    }

    #[test]
    fn ocall_sinks_are_checked() {
        let source = "void ocall_send(int v);\nvoid f(char *secrets) { ocall_send(secrets[0]); }";
        let edl_text = r#"
enclave {
    trusted { public void f([in] char *secrets); };
    untrusted { void ocall_send(int v); };
};
"#;
        let report = analyze(source, edl_text, "f").unwrap();
        assert_eq!(report.explicit_findings().count(), 1);
    }

    #[test]
    fn clean_function_is_secure() {
        let source = "int f(char *secrets) { return 7; }";
        let edl_text = "enclave { trusted { public int f([in] char *secrets); }; };";
        let report = analyze(source, edl_text, "f").unwrap();
        assert!(report.is_secure());
    }
}
