//! End-to-end differential soundness campaigns: determinism, the blinded
//! self-test (a deliberately disabled check must surface as a missed
//! leak with a small shrunk reproducer), and crash isolation (injected
//! panics and stalls degrade the verdict instead of aborting the run).

use mlcorpus::synth::{
    generate, generate_callee_branch, generate_late_read, hoist_secret_read, shadow_twin,
    ternary_twin, SynthModule,
};
use privacyscope::oracle::{
    check_module, concrete_dependence, finding_keys, invoke_analyzer, run_campaign, Disagreement,
    DisagreementClass, Evidence, HarnessDegradation, OracleConfig,
};
use privacyscope::shrink::shrink;
use privacyscope::FeasibilityMode;
use std::collections::BTreeSet;

/// A campaign-test budget: small enough for CI, big enough to explore the
/// generator's leaky seeds exhaustively — the branch-heavy
/// contradiction-cluster modules peak at 126 syntactic paths (seed 4).
fn fast() -> OracleConfig {
    OracleConfig {
        max_paths: 192,
        ..OracleConfig::default()
    }
}

/// A scratch directory under the system tempdir, unique per test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("soundfuzz-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn same_seeds_same_bytes() {
    let config = fast();
    let first = run_campaign(0, 4, &config, None);
    let second = run_campaign(0, 4, &config, None);
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "a campaign over fixed seeds must be byte-deterministic"
    );
}

#[test]
fn clean_campaign_finds_no_disagreements() {
    let campaign = run_campaign(0, 10, &fast(), None);
    assert_eq!(campaign.verdicts.len(), 10);
    assert_eq!(campaign.missed_leaks(), 0, "{}", campaign.to_json());
    assert_eq!(campaign.false_alarms(), 0, "{}", campaign.to_json());
    assert_eq!(campaign.degraded_modules(), 0, "{}", campaign.to_json());
    assert!(campaign.all_agreed());
    assert!(campaign.shrunk.is_empty());
}

#[test]
fn wraparound_guarded_leaks_are_never_missed() {
    // Every guard pair, both leak variants, under the default pipeline
    // and its tier-0 reference: a leak reachable only through i64
    // wraparound must be reported, and nothing else may be.
    for seed in 0..12u64 {
        let module = mlcorpus::synth::generate_wraparound(seed);
        for feasibility in [FeasibilityMode::default(), FeasibilityMode::Syntactic] {
            let config = OracleConfig {
                feasibility,
                ..fast()
            };
            let verdict = check_module(&module, &config);
            assert!(
                verdict.degradations.is_empty(),
                "seed {seed} {}: {:?}",
                feasibility.as_str(),
                verdict.degradations
            );
            assert_eq!(
                (
                    verdict.missed_leaks().count(),
                    verdict.false_alarms().count()
                ),
                (0, 0),
                "seed {seed} {}: {}\n{:?}",
                feasibility.as_str(),
                module.source,
                verdict.disagreements
            );
            assert_eq!(verdict.findings, 1, "seed {seed}: the one planted leak");
        }
    }
}

#[test]
fn callee_branch_leaks_are_never_missed() {
    // Leaks behind helpers whose paths merge at the return (read and
    // written through the merged index) and behind helpers that must not
    // merge (a single-source or public branch): every one is reported,
    // and nothing else is.
    for seed in 0..12u64 {
        let module = mlcorpus::synth::generate_callee_branch(seed);
        let verdict = check_module(&module, &fast());
        assert!(
            verdict.degradations.is_empty(),
            "seed {seed}: {:?}",
            verdict.degradations
        );
        assert_eq!(
            (
                verdict.missed_leaks().count(),
                verdict.false_alarms().count()
            ),
            (0, 0),
            "seed {seed}: {}\n{:?}",
            module.source,
            verdict.disagreements
        );
        assert_eq!(
            verdict.findings,
            module.expectations.len(),
            "seed {seed}: exactly the planted leaks"
        );
    }
}

/// Analyzes `module` and its equivalent `twin` and requires equal finding
/// keys, returning them. A disagreement is minimized before the test
/// fails: as a missed leak of whichever of the two lacks a key, kept
/// concretely confirmed so the shrinker cannot delete the flow itself.
fn assert_twins_agree(
    seed: u64,
    module: &SynthModule,
    twin: &SynthModule,
) -> BTreeSet<(bool, String, String)> {
    let keys = |module: &SynthModule| {
        let report = invoke_analyzer(&module.source, &module.edl, module.entry, &fast())
            .unwrap_or_else(|e| panic!("{}: {e:?}", module.name));
        assert!(!report.is_degraded(), "{}: {report:?}", module.name);
        finding_keys(&report)
    };
    let (module_keys, twin_keys) = (keys(module), keys(twin));
    if module_keys == twin_keys {
        return module_keys;
    }
    let (missing, (explicit, channel, secret)) = match twin_keys.difference(&module_keys).next() {
        Some(key) => (module, key.clone()),
        None => (
            twin,
            module_keys
                .difference(&twin_keys)
                .next()
                .cloned()
                .expect("the key sets differ"),
        ),
    };
    let evidence = match concrete_dependence(
        &missing.source,
        &missing.edl,
        missing.entry,
        &channel,
        &secret,
        &fast(),
        seed,
    ) {
        Ok(true) => Evidence::Confirmed,
        Ok(false) => Evidence::Refuted,
        Err(reason) => Evidence::Unavailable(reason),
    };
    let target = Disagreement {
        class: DisagreementClass::MissedLeak,
        explicit,
        channel,
        secret,
        expectation_id: None,
        evidence,
    };
    let shrunk = shrink(missing, &target, &fast());
    panic!(
        "seed {seed}: module {module_keys:?}, twin {twin_keys:?}; \
         {target:?} reproduces in {} LoC:\n{}",
        shrunk.loc, shrunk.source
    );
}

#[test]
fn hoisting_a_secret_read_keeps_the_findings() {
    // The metamorphic read-order campaign: a secret read after an
    // independent public branch and the same read hoisted above it are
    // one program. The late read guards an OCALL of a value the branch
    // chose, so a source minted per path instead of per secret shows up
    // as a missed implicit finding.
    for seed in 0..32u64 {
        let late = generate_late_read(seed);
        let keys = assert_twins_agree(seed, &late, &hoist_secret_read(&late));
        assert!(
            keys.iter()
                .any(|(explicit, channel, _)| !explicit && channel == "argument 0 of `ocall_sink`"),
            "seed {seed}: the late read's implicit flow is reported: {keys:?}"
        );
    }
}

#[test]
fn a_ternary_keeps_the_findings_of_its_if() {
    // The metamorphic selection campaign: each callee helper's
    // `if (c) { return a; } return b;` and `return c ? a : b;` are one
    // program. A ternary that joins its arms' taints instead of forking
    // reads a secret selection as explicit, and a two-secret selection
    // as ⊤, so it shows up as a changed or missed finding.
    for seed in 0..32u64 {
        let module = generate_callee_branch(seed);
        assert_twins_agree(seed, &module, &ternary_twin(&module));
    }
}

#[test]
fn shadowing_locals_keeps_the_findings() {
    // The metamorphic scope campaign: the entry body and the same body in
    // a nested block, below an unused outer local of each name it
    // declares, are one program. Every original local then shadows one,
    // so a scope that resolves a use to the wrong declaration, or two
    // declarations to one region, shows up as a changed or missed finding.
    for seed in 0..32u64 {
        let module = generate(seed);
        assert_twins_agree(seed, &module, &shadow_twin(&module));
    }
}

#[test]
fn blinded_implicit_check_is_caught_as_missed_leak() {
    // Seed 4's only planted leak is implicit; blinding the implicit check
    // is the oracle's self-test — it must come back as a concretely
    // confirmed missed leak, with a shrunk reproducer in the corpus.
    let config = OracleConfig {
        check_implicit: false,
        ..fast()
    };
    let corpus = scratch("blind-implicit");
    let campaign = run_campaign(4, 5, &config, Some(&corpus));

    assert_eq!(campaign.missed_leaks(), 1, "{}", campaign.to_json());
    assert_eq!(campaign.false_alarms(), 0);
    let verdict = &campaign.verdicts[0];
    let missed = verdict.missed_leaks().next().expect("one missed leak");
    assert!(!missed.explicit, "seed 4's planted leak is implicit");
    assert_eq!(missed.evidence, Evidence::Confirmed);

    // The shrunk reproducer: within the acceptance bound, never larger
    // than the original, and on disk next to its ground-truth labels.
    assert_eq!(campaign.shrunk.len(), 1);
    let shrunk = &campaign.shrunk[0];
    assert_eq!(shrunk.seed, 4);
    assert_eq!(shrunk.class, DisagreementClass::MissedLeak);
    assert!(shrunk.loc <= shrunk.original_loc);
    assert!(
        shrunk.loc <= 40,
        "reproducer must shrink to <= 40 LoC, got {}",
        shrunk.loc
    );
    let entry = corpus.join("seed-4");
    for file in [
        "module.c",
        "module.edl",
        "expectations.json",
        "repro.txt",
        "shrunk.c",
    ] {
        assert!(entry.join(file).is_file(), "missing corpus file {file}");
    }
    let repro = std::fs::read_to_string(entry.join("repro.txt")).expect("repro file");
    assert!(
        repro.contains("--blind implicit"),
        "repro command must reproduce the blinding: {repro}"
    );
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn blinded_explicit_check_is_caught_as_missed_leak() {
    // Seed 3 plants explicit leaks only.
    let config = OracleConfig {
        check_explicit: false,
        ..fast()
    };
    let campaign = run_campaign(3, 4, &config, None);
    assert!(campaign.missed_leaks() >= 1, "{}", campaign.to_json());
    assert!(campaign.verdicts[0]
        .missed_leaks()
        .all(|d| d.explicit && d.class == DisagreementClass::MissedLeak));
}

#[test]
fn injected_panic_degrades_instead_of_aborting() {
    let config = OracleConfig {
        inject_panic: true,
        ..fast()
    };
    let campaign = run_campaign(0, 3, &config, None);
    // The campaign ran to completion over every seed...
    assert_eq!(campaign.verdicts.len(), 3);
    // ...with no spurious disagreements, only typed degradations.
    assert_eq!(campaign.missed_leaks(), 0);
    assert_eq!(campaign.false_alarms(), 0);
    assert_eq!(campaign.degraded_modules(), 3);
    for verdict in &campaign.verdicts {
        assert!(
            verdict
                .degradations
                .iter()
                .any(|d| matches!(d, HarnessDegradation::AnalyzerPanic { .. })),
            "seed {} should record the panic",
            verdict.seed
        );
    }
}

#[test]
fn stalled_analyzer_is_cut_off_at_the_hard_timeout() {
    let config = OracleConfig {
        inject_stall_ms: Some(3_000),
        hard_timeout_ms: 100,
        ..fast()
    };
    let campaign = run_campaign(0, 2, &config, None);
    assert_eq!(campaign.verdicts.len(), 2);
    assert_eq!(campaign.missed_leaks(), 0);
    assert_eq!(campaign.false_alarms(), 0);
    for verdict in &campaign.verdicts {
        assert!(
            verdict
                .degradations
                .iter()
                .any(|d| matches!(d, HarnessDegradation::AnalyzerTimeout { .. })),
            "seed {} should record the timeout",
            verdict.seed
        );
    }
}
