//! A secret keeps one source on every path. Each module below puts a
//! secret read, or a decrypt, after a public branch; its twin does the
//! same work before the branch. Because a never-written region reads as
//! its region-value symbol and a decrypt result is conjured per site and
//! per visit, both orders name one source, and the reports agree:
//!
//! * a late `secret[0]` read around an OCALL of a publicly chosen value is
//!   one implicit finding, like the hoisted read;
//! * `secret[0] + r` after a public branch is one explicit finding, not
//!   one per path;
//! * a decrypt after a public branch whose one arm also calls `rand()` is
//!   one implicit finding on `buf[0]`, like the decrypt before the branch.
//!   Only one arm calls `rand()`, so the arms create different numbers of
//!   symbols: a single per-path counter would give the two arms different
//!   `buf[0]` sources, while the per-site visit count gives them one.
//!
//! Every check runs at one and at four workers.

use privacyscope::{Analyzer, AnalyzerOptions, FindingKind};

const EDL: &str = r#"
enclave {
    trusted { public long f([in] long *secret, long pub, [out] long *out); };
    untrusted { void ocall_send(long v); };
};
"#;

const PRELUDE: &str = "void ocall_send(long v);\n\
                       void ipp_aes_decrypt(long *dst, long *src, long n);\n\
                       int rand(void);\n";

/// Every finding of `body` as `(kind, channel, secret)`, in report order,
/// duplicates kept.
fn findings(body: &str, workers: usize) -> Vec<(FindingKind, String, String)> {
    let source = format!("{PRELUDE}long f(long *secret, long pub, long *out) {{\n{body}\n}}\n");
    let options = AnalyzerOptions {
        workers,
        ..AnalyzerOptions::default()
    };
    let report = Analyzer::from_sources(&source, EDL, options)
        .expect("module builds")
        .analyze("f")
        .expect("module analyzes");
    report
        .findings
        .into_iter()
        .map(|f| (f.kind, f.channel, f.secret))
        .collect()
}

fn implicit(channel: &str, secret: &str) -> (FindingKind, String, String) {
    (
        FindingKind::Implicit,
        channel.to_string(),
        secret.to_string(),
    )
}

#[test]
fn late_secret_read_matches_its_hoisted_twin() {
    let late = "long r = 0;\n\
                if (pub > 0) r = 1; else r = 0;\n\
                if (secret[0] > 0) ocall_send(r);\n\
                return 0;";
    let hoisted = "long s = secret[0];\n\
                   long r = 0;\n\
                   if (pub > 0) r = 1; else r = 0;\n\
                   if (s > 0) ocall_send(r);\n\
                   return 0;";
    for workers in [1, 4] {
        let expected = vec![implicit("argument 0 of `ocall_send`", "secret[0]")];
        assert_eq!(
            findings(hoisted, workers),
            expected,
            "hoisted, {workers} worker(s)"
        );
        assert_eq!(
            findings(late, workers),
            expected,
            "late, {workers} worker(s)"
        );
    }
}

#[test]
fn public_branch_does_not_duplicate_an_explicit_finding() {
    let body = "long r = 0;\n\
                if (pub > 0) r = 1; else r = 2;\n\
                out[0] = secret[0] + r;\n\
                return 0;";
    for workers in [1, 4] {
        assert_eq!(
            findings(body, workers),
            vec![(
                FindingKind::Explicit,
                "out[0]".to_string(),
                "secret[0]".to_string()
            )],
            "{workers} worker(s)"
        );
    }
}

#[test]
fn decrypt_after_a_public_branch_matches_decrypt_before_it() {
    let branch = "if (pub > 0) { r = 1; rand(); } else r = 0;\n";
    let decrypt = "ipp_aes_decrypt(buf, secret, 4);\n";
    let observe = "if (buf[0] > 0) ocall_send(r);\nreturn 0;";
    let head = "long buf[4];\nlong r = 0;\n";
    let after = format!("{head}{branch}{decrypt}{observe}");
    let before = format!("{head}{decrypt}{branch}{observe}");
    for workers in [1, 4] {
        let expected = vec![implicit("argument 0 of `ocall_send`", "buf[0]")];
        assert_eq!(
            findings(&before, workers),
            expected,
            "before, {workers} worker(s)"
        );
        assert_eq!(
            findings(&after, workers),
            expected,
            "after, {workers} worker(s)"
        );
    }
}
