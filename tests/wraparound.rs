//! A leak reachable only through i64 wraparound, end to end: the default
//! analyzer reports it, and the simulated enclave shows it is real.
//!
//! `pub0 - 1 > 5` and `pub0 < 0` contradict each other over ideal
//! integers, but `pub0 = i64::MIN` satisfies both, because `pub0 - 1`
//! wraps to `i64::MAX`. A feasibility check that narrowed `pub0 > 6`
//! from the first guard would prune the branch that returns `secrets[0]`.

use privacyscope::report::FindingKind;
use privacyscope::{Analyzer, AnalyzerOptions, FeasibilityMode};
use sgx_sim::enclave::{EcallArg, Enclave};
use sgx_sim::interp::{Value, Word};

const SOURCE: &str = r#"long enclave_wrap(char *secrets, long pub0)
{
    long r = 0;
    if (pub0 - 1 > 5) {
        if (pub0 < 0) {
            r = secrets[0];
        }
    }
    return r;
}
"#;

const EDL: &str = r#"
enclave {
    trusted {
        public long enclave_wrap([in, count=1] char *secrets, long pub0);
    };
};
"#;

#[test]
fn wraparound_guarded_return_leak_is_reported() {
    for feasibility in [FeasibilityMode::default(), FeasibilityMode::Syntactic] {
        let options = AnalyzerOptions {
            feasibility,
            ..AnalyzerOptions::default()
        };
        let report = Analyzer::from_sources(SOURCE, EDL, options)
            .expect("module builds")
            .analyze("enclave_wrap")
            .expect("module analyzes");
        assert!(!report.is_secure(), "{}: {report}", feasibility.as_str());
        assert!(!report.is_degraded());
        assert_eq!(report.findings.len(), 1, "{report}");
        let finding = &report.findings[0];
        assert_eq!(finding.kind, FindingKind::Explicit);
        assert_eq!(finding.channel, "return value");
        assert_eq!(finding.secret, "secrets[0]");
    }
}

#[test]
fn the_simulated_enclave_returns_the_secret_at_i64_min() {
    let enclave = Enclave::load(SOURCE, EDL).expect("loads");
    let run = |pub0: i64| {
        enclave
            .ecall(
                "enclave_wrap",
                &[EcallArg::In(vec![Word::Int(42)]), EcallArg::Int(pub0)],
            )
            .expect("runs")
            .ret
    };
    assert_eq!(run(i64::MIN), Some(Value::Int(42)));
    // Without the wrap, the guards exclude each other.
    assert_eq!(run(7), Some(Value::Int(0)));
    assert_eq!(run(-1), Some(Value::Int(0)));
}
