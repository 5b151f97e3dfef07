//! `c ? a : b` is the `if` that selects `a` or `b`. The engine forks on a
//! ternary's condition as it does on an `if`'s, and joins the arms again
//! only where a call return would join (a ⊤ π-taint), so each ternary
//! below gets exactly the findings of its `if` twin:
//!
//! * a public or a secret condition selecting between two secrets is two
//!   explicit findings, one per arm;
//! * a secret condition selecting between constants is one implicit
//!   finding, carried by π rather than by the value;
//! * the same holds nested in an expression and returned from a helper;
//! * a ternary over a two-secret sum in an eight-iteration loop joins its
//!   arms on every iteration and stays one path, where the `if` explores
//!   all 256; neither reports anything, as the sum is two-source.
//!
//! `a && b` is `a ? (b != 0) : 0` and `a || b` is `a ? 1 : (b != 0)`, so
//! each of them, too, gets the findings of its nested-`if` twin:
//!
//! * a right operand that the left one decides never runs, so its write
//!   to `out[1]` is no finding, and neither is the constant result;
//! * a secret left operand selecting a public comparison is one implicit
//!   finding, carried by π rather than by the value.
//!
//! Every check runs at one and at four workers.

use privacyscope::{Analyzer, AnalyzerOptions, FindingKind};

const EDL: &str = r#"
enclave {
    trusted { public void f([in, count=8] long *secret, long pub, [out] long *out); };
};
"#;

type Key = (FindingKind, String, String);

/// Every finding of `source`, in report order and with duplicates kept,
/// and the number of paths explored.
fn analyze(source: &str, workers: usize) -> (Vec<Key>, usize) {
    let options = AnalyzerOptions {
        workers,
        ..AnalyzerOptions::default()
    };
    let report = Analyzer::from_sources(source, EDL, options)
        .expect("module builds")
        .analyze("f")
        .expect("module analyzes");
    assert!(!report.is_degraded(), "{report}");
    let keys = report
        .findings
        .into_iter()
        .map(|f| (f.kind, f.channel, f.secret))
        .collect();
    (keys, report.stats.paths)
}

fn entry(body: &str) -> String {
    format!("void f(long *secret, long pub, long *out) {{\n{body}\n}}\n")
}

fn key(kind: FindingKind, secret: &str) -> Key {
    (kind, "out[0]".to_string(), secret.to_string())
}

/// Requires `ternary` and its `if` twin to report `expected`, at one and
/// at four workers, and returns their path counts.
fn assert_same_findings(ternary: &str, twin: &str, expected: &[Key]) -> (usize, usize) {
    let mut counts = Vec::new();
    for workers in [1, 4] {
        let (ternary_keys, ternary_paths) = analyze(ternary, workers);
        let (twin_keys, twin_paths) = analyze(twin, workers);
        assert_eq!(ternary_keys, expected, "ternary, {workers} worker(s)");
        assert_eq!(twin_keys, expected, "if, {workers} worker(s)");
        counts.push((ternary_paths, twin_paths));
    }
    assert_eq!(counts[0], counts[1], "paths do not depend on workers");
    counts[0]
}

fn both_secrets() -> Vec<Key> {
    vec![
        key(FindingKind::Explicit, "secret[1]"),
        key(FindingKind::Explicit, "secret[2]"),
    ]
}

#[test]
fn public_condition_selecting_secrets() {
    assert_same_findings(
        &entry("out[0] = pub > 0 ? secret[1] : secret[2];"),
        &entry("if (pub > 0) out[0] = secret[1]; else out[0] = secret[2];"),
        &both_secrets(),
    );
}

#[test]
fn secret_condition_selecting_secrets() {
    assert_same_findings(
        &entry("out[0] = secret[0] > 0 ? secret[1] : secret[2];"),
        &entry("if (secret[0] > 0) out[0] = secret[1]; else out[0] = secret[2];"),
        &both_secrets(),
    );
}

#[test]
fn secret_condition_selecting_constants_is_implicit() {
    let paths = assert_same_findings(
        &entry("out[0] = secret[0] > 0 ? 1 : 0;"),
        &entry("if (secret[0] > 0) out[0] = 1; else out[0] = 0;"),
        &[key(FindingKind::Implicit, "secret[0]")],
    );
    assert_eq!(paths, (2, 2), "a single-source π keeps both arms");
}

#[test]
fn ternary_nested_in_an_expression() {
    assert_same_findings(
        &entry("out[0] = 3 + (pub > 0 ? secret[1] : secret[2]) * 2;"),
        &entry("long v;\nif (pub > 0) v = secret[1]; else v = secret[2];\nout[0] = 3 + v * 2;"),
        &both_secrets(),
    );
}

#[test]
fn ternary_returned_from_a_helper() {
    let caller = entry("out[0] = pick(pub, secret[1], secret[2]);");
    assert_same_findings(
        &format!("long pick(long c, long a, long b) {{ return c > 0 ? a : b; }}\n{caller}"),
        &format!(
            "long pick(long c, long a, long b) {{ if (c > 0) return a; return b; }}\n{caller}"
        ),
        &both_secrets(),
    );
}

#[test]
fn two_secret_ternary_in_a_loop_joins_its_arms() {
    let head = "long acc = 0;\nfor (long i = 0; i < 8; i++) {\n";
    let cond = "secret[i] + secret[(i + 1) % 8] > 0";
    let tail = "}\nout[0] = acc;";
    let paths = assert_same_findings(
        &entry(&format!("{head}acc = acc + ({cond} ? 1 : 2);\n{tail}")),
        &entry(&format!(
            "{head}if ({cond}) acc = acc + 1; else acc = acc + 2;\n{tail}"
        )),
        &[],
    );
    assert_eq!(paths, (1, 256));
}

#[test]
fn and_skips_a_right_operand_that_the_left_one_decides() {
    assert_same_findings(
        &entry("long t = 0 && (out[1] = secret[1]);\nout[0] = t;"),
        &entry(
            "long t;\nif (0) { if (out[1] = secret[1]) t = 1; else t = 0; } else t = 0;\nout[0] = t;",
        ),
        &[],
    );
}

#[test]
fn or_skips_a_right_operand_that_the_left_one_decides() {
    assert_same_findings(
        &entry("long t = 1 || (out[1] = secret[1]);\nout[0] = t;"),
        &entry(
            "long t;\nif (1) t = 1; else { if (out[1] = secret[1]) t = 1; else t = 0; }\nout[0] = t;",
        ),
        &[],
    );
}

#[test]
fn and_on_a_secret_left_operand_is_implicit() {
    assert_same_findings(
        &entry("out[0] = secret[0] > 0 && pub > 0;"),
        &entry("if (secret[0] > 0) { if (pub > 0) out[0] = 1; else out[0] = 0; } else out[0] = 0;"),
        &[key(FindingKind::Implicit, "secret[0]")],
    );
}

#[test]
fn or_on_a_secret_left_operand_is_implicit() {
    assert_same_findings(
        &entry("out[0] = secret[0] > 0 || pub > 0;"),
        &entry("if (secret[0] > 0) out[0] = 1; else { if (pub > 0) out[0] = 1; else out[0] = 0; }"),
        &[key(FindingKind::Implicit, "secret[0]")],
    );
}
