//! Cross-interpreter agreement pre-flight (the differential oracle's own
//! trust anchor): the symbolic engine, instantiated on a concrete input,
//! must observe exactly what `sgx-sim` observes — return value, `[out]`
//! writes, and the OCALL argument sequence.

use privacyscope::preflight::{check_agreement, Agreement, PreflightConfig};

#[test]
fn linear_regression_matches_on_its_single_path() {
    // LR is branch-free: one path, which the concrete input must select,
    // and every evaluable observable must agree. (The gradient-descent
    // accumulators exceed any practical value-size cap, so some model
    // slots are abstracted rather than compared.)
    let module = mlcorpus::linear_regression::module();
    let config = PreflightConfig {
        max_value_size: 192,
        ..PreflightConfig::default()
    };
    let agreement =
        check_agreement(module.source, module.edl, module.entry, &config).expect("pre-flight runs");
    match agreement {
        Agreement::Match { paths, .. } => assert_eq!(paths, 1, "LR is branch-free"),
        other => panic!("LR should match, got {other:?}"),
    }
}

#[test]
fn recommender_variants_match() {
    for module in [
        mlcorpus::recommender::module(),
        mlcorpus::recommender::fixed(),
    ] {
        let agreement = check_agreement(
            module.source,
            module.edl,
            module.entry,
            &PreflightConfig::default(),
        )
        .expect("pre-flight runs");
        assert!(
            matches!(agreement, Agreement::Match { .. }),
            "{} drifted: {agreement:?}",
            module.name
        );
    }
}

#[test]
fn kmeans_reports_dropped_path_honestly() {
    // With the secret branch in the entry function, Kmeans' path space
    // outruns any small budget; the pre-flight must say so (PathNotKept)
    // — or match — but never report drift.
    let module = mlcorpus::kmeans::entry_branching();
    let config = PreflightConfig {
        max_paths: 8,
        max_value_size: 128,
        ..PreflightConfig::default()
    };
    let agreement =
        check_agreement(module.source, module.edl, module.entry, &config).expect("pre-flight runs");
    assert!(
        matches!(agreement, Agreement::PathNotKept | Agreement::Match { .. }),
        "kmeans drifted: {agreement:?}"
    );
}

#[test]
fn merged_kmeans_matches_on_its_single_path() {
    // Merged at `nearest_centroid`'s return, Kmeans runs as one path whose
    // `ite` values must evaluate to what the simulator computes.
    let module = mlcorpus::kmeans::module();
    let config = PreflightConfig {
        max_paths: 8,
        max_value_size: 128,
        ..PreflightConfig::default()
    };
    let agreement =
        check_agreement(module.source, module.edl, module.entry, &config).expect("pre-flight runs");
    assert!(
        matches!(agreement, Agreement::Match { .. }),
        "merged kmeans drifted: {agreement:?}"
    );
}

#[test]
fn synthetic_modules_match_with_nothing_abstracted() {
    // The generator's integer-only modules stay under the raised value
    // cap: the concrete comparison must be complete (abstracted == 0) and
    // exact on every seed.
    for seed in 0..10u64 {
        let module = mlcorpus::synth::generate(seed);
        let config = PreflightConfig {
            seed,
            ..PreflightConfig::default()
        };
        let agreement = check_agreement(&module.source, &module.edl, module.entry, &config)
            .expect("pre-flight runs");
        match agreement {
            Agreement::Match { abstracted, .. } => {
                assert_eq!(abstracted, 0, "seed {seed}: comparison must be complete")
            }
            other => panic!("seed {seed} should match, got {other:?}"),
        }
    }
}

#[test]
fn ternary_selection_drift_stays_fixed() {
    // Regression: the engine models a symbolic-condition ternary as an
    // uninterpreted `ite(cond, then, else)` call. The concrete evaluator
    // originally had no `ite` case, so a fully-mapped value came back
    // unevaluable and this module reported drift
    // (`out[0]: engine <none> vs sim 0.0`). `ceval` now selects the taken
    // arm lazily, exactly as the simulator executes it.
    let source =
        "int f(double *xs, int p, double *out) { out[0] = p > 2 ? xs[0] : xs[1]; return 0; }";
    let edl = r#"
        enclave { trusted {
            public int f([in, count=4] double *xs, int p, [out, count=4] double *out);
        }; };
    "#;
    for seed in 0..8u64 {
        let config = PreflightConfig {
            seed,
            ..PreflightConfig::default()
        };
        let agreement = check_agreement(source, edl, "f", &config).expect("pre-flight runs");
        match agreement {
            Agreement::Match { abstracted, .. } => assert_eq!(
                abstracted, 0,
                "seed {seed}: the ite value must be compared, not skipped"
            ),
            other => panic!("seed {seed}: ternary drift regressed: {other:?}"),
        }
    }
}
