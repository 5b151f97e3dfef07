//! Standalone passes over a module set: the `table5` and `branch-heavy`
//! workloads, and the reference analyses of the `service-mix` jobs.

use std::path::Path;
use std::time::Instant;

use crate::analysis::{self, check_drift, check_truth, Counts};
use crate::inputs::Module;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use crate::{peak_rss_mb, Setup};

/// One untraced pass: `from_sources` + `analyze` per module.
pub struct Pass {
    /// Seconds of `from_sources` + `analyze`, per module.
    pub secs: Vec<f64>,
    /// Counts per module; `None` where the analysis failed.
    pub counts: Vec<Option<Counts>>,
}

impl Pass {
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    pub fn complete(&self) -> usize {
        self.counts
            .iter()
            .flatten()
            .filter(|c| !c.exhausted)
            .count()
    }
}

/// Analyzes every module once and checks each verdict.
pub fn pass(modules: &[Module], outcome: &mut Outcome) -> Pass {
    let off = Tracer::new(false);
    let mut secs = Vec::with_capacity(modules.len());
    let mut counts = Vec::with_capacity(modules.len());
    for module in modules {
        match analysis::analyze(module, &off, 0, None) {
            Ok(done) => {
                secs.push(done.secs);
                outcome.verdict(check_truth(module, &done.report));
                counts.push(Some(Counts::of_report(&done.report)));
            }
            Err(error) => {
                outcome.verdict(Err(error));
                counts.push(None);
            }
        }
    }
    Pass { secs, counts }
}

/// Fails on any difference between two passes' counts.
pub fn check_passes(modules: &[Module], what: &str, a: &Pass, b: &Pass, outcome: &mut Outcome) {
    for (module, (a, b)) in modules.iter().zip(a.counts.iter().zip(&b.counts)) {
        if let (Some(a), Some(b)) = (a, b) {
            outcome.check(check_drift(&format!("{} ({what})", module.name), a, b));
        }
    }
}

/// Per-layer totals of a traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    pub loc: usize,
    /// Counts per module; `None` where the analysis failed.
    pub counts: Vec<Option<Counts>>,
    pub dropped_paths: usize,
    pub events: usize,
    /// Seconds of `Engine::run` at 1 worker and at all workers.
    pub engine_one: f64,
    pub engine_all: f64,
    /// Modules explored at both worker counts.
    pub speedup_modules: usize,
    /// Seconds of `from_sources` + `analyze`, per module (0 where the
    /// analysis failed).
    pub secs: Vec<f64>,
}

/// The traced pass. Per module, under one `module` span: `from_sources`
/// and `analyze` (the same calls as an untraced pass), then `Engine::run`
/// at the module's own worker count (span `engine.run`, which
/// `analyze` contains, so the policy layer is `analyze` minus it), then,
/// with `speedup`, `Engine::run` at the other worker count for the
/// parallel speed-up.
/// Counts must match `reference` (the untraced pass), and the engine's
/// counts must match the report's at both worker counts.
pub fn traced_pass(
    modules: &[Module],
    tracer: &Tracer,
    reference: Option<&Pass>,
    speedup: bool,
    outcome: &mut Outcome,
) -> Layers {
    let all = crate::nproc();
    let mut layers = Layers::default();
    for (i, module) in modules.iter().enumerate() {
        let trace = i as u64 + 1;
        let root = tracer.begin("module", trace, None);
        let parent = root.as_ref().map(|o| o.id());
        let done = match analysis::analyze(module, tracer, trace, parent) {
            Ok(done) => done,
            Err(error) => {
                outcome.verdict(Err(error));
                layers.counts.push(None);
                layers.secs.push(0.0);
                tracer.end(root);
                continue;
            }
        };
        outcome.verdict(check_truth(module, &done.report));
        layers.secs.push(done.secs);
        layers.loc += minic::count_loc(&module.source);
        let counts = Counts::of_report(&done.report);
        if let Some(Some(expected)) = reference.map(|r| &r.counts[i]) {
            outcome.check(check_drift(
                &format!("{} (untraced vs traced)", module.name),
                expected,
                &counts,
            ));
        }
        let own = if module.workers == 1 { 1 } else { all };
        let other = if own == 1 { all } else { 1 };
        let runs = [(own, "engine.run"), (other, "engine.run.alt")];
        layers.speedup_modules += usize::from(speedup);
        for &(workers, name) in &runs[..if speedup { 2 } else { 1 }] {
            match analysis::explore(module, &done.analyzer, workers, tracer, name, trace, parent) {
                Ok((exploration, secs)) => {
                    if workers == 1 {
                        layers.engine_one += secs;
                    }
                    if workers == all {
                        layers.engine_all += secs;
                    }
                    outcome.check(check_drift(
                        &format!(
                            "{} (report vs Engine::run at {workers} workers)",
                            module.name
                        ),
                        &counts.without_findings(),
                        &Counts::of_exploration(&exploration),
                    ));
                    if name == "engine.run" {
                        layers.dropped_paths += exploration.stats.dropped_paths;
                        layers.events += exploration.events.len();
                    }
                }
                Err(error) => outcome.check(Err(error)),
            }
        }
        layers.counts.push(Some(counts));
        tracer.end(root);
    }
    layers
}

/// The engine and policy layer metrics of a traced pass.
pub fn layer_metrics(outcome: &mut Outcome, tracer: &Tracer, layers: &Layers) {
    let n = layers.counts.len();
    let sum = |f: fn(&Counts) -> usize| layers.counts.iter().flatten().map(f).sum::<usize>();
    let explore = tracer.total("engine.run");
    let steps: u64 = layers.counts.iter().flatten().map(|c| c.steps).sum();
    let hits = sum(|c| c.probe_hits);
    let probes = hits + sum(|c| c.probe_misses);
    outcome.metric("frontend.s", tracer.total("frontend"), n);
    outcome.metric("frontend.loc", layers.loc as f64, n);
    outcome.metric("symexec.explore_s", explore, n);
    outcome.metric("symexec.steps", steps as f64, n);
    outcome.metric("symexec.ns_per_step", ratio(explore * 1e9, steps as f64), n);
    outcome.metric("symexec.forks", sum(|c| c.forks) as f64, n);
    outcome.metric("symexec.paths", sum(|c| c.paths) as f64, n);
    outcome.metric("symexec.dropped_paths", layers.dropped_paths as f64, n);
    outcome.metric("symexec.probes", probes as f64, n);
    outcome.metric(
        "symexec.probe_hit_ratio",
        ratio(hits as f64, probes as f64),
        n,
    );
    outcome.metric("symexec.infeasible", sum(|c| c.infeasible) as f64, n);
    outcome.metric("symexec.tier1_refuted", sum(|c| c.tier1_refuted) as f64, n);
    outcome.metric("symexec.tier2_refuted", sum(|c| c.tier2_refuted) as f64, n);
    outcome.metric("symexec.tier2_unknown", sum(|c| c.tier2_unknown) as f64, n);
    outcome.metric("symexec.events", layers.events as f64, n);
    outcome.metric(
        "symexec.parallel_speedup",
        ratio(layers.engine_one, layers.engine_all),
        layers.speedup_modules,
    );
    outcome.metric("symexec.workers", crate::nproc() as f64, 1);
    outcome.metric("analyzer.policy_s", tracer.total("analyze") - explore, n);
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The set-up of a batch workload: generating the inputs, parsing each
/// module, and analyzing the warm-up module.
fn setup(make: &dyn Fn() -> Vec<Module>, outcome: &mut Outcome) -> Vec<Module> {
    let modules = make();
    for module in &modules {
        if let Err(e) =
            privacyscope::Analyzer::from_sources(&module.source, &module.edl, module.options())
        {
            outcome.check(Err(format!("{}: input does not parse: {e}", module.name)));
        }
    }
    let warm = crate::inputs::warm_up();
    if let Err(e) = analysis::analyze(&warm, &Tracer::new(false), 0, None) {
        outcome.check(Err(e));
    }
    modules
}

/// Runs a batch workload: whole passes for at most `seconds`, and at least
/// one. The traced run measures the parallel speed-up only with
/// `speedup`.
pub fn run(
    make: &dyn Fn() -> Vec<Module>,
    seconds: u64,
    traced: bool,
    speedup: bool,
    trace_path: &Path,
) -> Outcome {
    let mut outcome = Outcome::default();
    let setup = Setup::repeat(|| setup(make, &mut outcome));
    let modules = setup.value;
    if traced {
        let reference = pass(&modules, &mut outcome);
        let tracer = Tracer::new(true);
        let layers = traced_pass(&modules, &tracer, Some(&reference), speedup, &mut outcome);
        layer_metrics(&mut outcome, &tracer, &layers);
        for name in [
            "service.submit_us_p50",
            "service.submit_us_max",
            "service.queue_wait_ms_p50",
            "service.queue_wait_ms_tail",
            "service.suspensions",
            "service.busy_s",
            "service.reexec_ratio",
            "loadgen.late_ms_max",
        ] {
            outcome.metric(name, 0.0, 0);
        }
        let traced_secs: f64 = layers.secs.iter().sum();
        outcome.metric("trace.analyze_s", traced_secs, layers.secs.len());
        outcome.metric("trace.overhead", ratio(traced_secs, reference.total()), 1);
        crate::print_digest(&modules, &reference.counts);
        crate::write_trace(&tracer, trace_path, &mut outcome);
        return outcome;
    }

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let next = pass(&modules, &mut outcome);
        if let Some(first) = passes.first() {
            check_passes(&modules, "repeated pass", first, &next, &mut outcome);
        }
        let expected_end = started.elapsed().as_secs_f64() + next.total();
        passes.push(next);
        if expected_end > seconds as f64 {
            break;
        }
    }
    let totals: Vec<f64> = passes.iter().map(Pass::total).collect();
    let job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.secs.iter().map(|s| s * 1e3))
        .collect();
    let verdicts: usize = passes.iter().map(|p| p.counts.len()).sum();
    let complete: usize = passes.iter().map(Pass::complete).sum();
    let tail = stats::tail(&job_ms);
    outcome.metric("setup_s", setup.secs, crate::SETUP_REPS);
    outcome.metric("analyze_s", stats::median(&totals), totals.len());
    outcome.metric("job_ms_p50", stats::median(&job_ms), job_ms.len());
    outcome.metric("job_ms_tail", tail.map_or(0.0, |t| t.value), job_ms.len());
    outcome.metric(
        "complete_rate",
        ratio(complete as f64, verdicts as f64),
        verdicts,
    );
    outcome.metric("peak_rss_mb", peak_rss_mb(), 1);
    if let Some(t) = tail {
        println!(
            "job_ms_tail is p{:.1} of {} module analyses ({} beyond)",
            t.percentile, t.samples, t.beyond
        );
    }
    crate::print_digest(&modules, &passes[0].counts);
    outcome
}
