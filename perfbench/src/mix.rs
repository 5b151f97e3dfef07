//! The `service-mix` workload: an in-process `AnalysisService` fed by a
//! seeded open-loop job stream, checked job by job against standalone
//! analyses of the same specs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use privacyscope::{AnalysisService, JobOutcome, ServiceConfig};

use crate::analysis::{check_truth, Counts};
use crate::batch::{self, ratio};
use crate::inputs::{self, Mix, Module};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{Open, Tracer};
use crate::{out_dir, peak_rss_mb, Setup};

/// The fair-share slice: a job running longer is suspended whenever
/// others wait. Longer than any light job runs and shorter than the heavy
/// job runs, so each burst's heavy job, which the burst's light jobs wait
/// behind, is suspended and no light job is.
const SLICE: Duration = Duration::from_millis(1000);
/// Standalone passes over the mix's specs in an untraced run; `analyze_s`
/// is their median, which a single slow pass does not move.
const REFERENCE_PASSES: usize = 3;
/// Pool workers: one, not one per core. On a 2-core host two busy workers
/// slow each other by a factor that varies from run to run between 1.3
/// and 2.2, which made the latency quantiles bimodal (see BASELINES.md).
const MIX_POOL: usize = 1;
/// How often the traced run polls `stats()` for busy workers.
const POLL: Duration = Duration::from_millis(10);

/// A running service with its own spool directory, shut down and removed
/// on drop.
struct Service {
    service: Option<AnalysisService>,
    spool: PathBuf,
}

impl Service {
    /// Starts the pool with the fair-share slice.
    fn start() -> Result<Service, String> {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let spool = out_dir().join(format!(
            "spool-{}-{}",
            std::process::id(),
            STARTED.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&spool);
        let service = AnalysisService::start(ServiceConfig {
            pool: MIX_POOL,
            slice: Some(SLICE),
            spool: spool.clone(),
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("cannot start the service in {}: {e}", spool.display()))?;
        Ok(Service {
            service: Some(service),
            spool,
        })
    }

    fn get(&self) -> &AnalysisService {
        self.service.as_ref().expect("present until drop")
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// Set-up: generating the stream, starting the service and running the
/// warm-up job through it.
fn setup(seed: u64, jobs: usize) -> Result<(Mix, Service), String> {
    let mix = inputs::service_mix(seed, jobs);
    let service = Service::start()?;
    let warm = inputs::warm_up();
    let id = service
        .get()
        .submit(warm.spec())
        .map_err(|e| format!("warm-up job rejected: {e}"))?;
    let outcome = service.get().wait(id).ok_or("warm-up job lost")?;
    match outcome.reports.first() {
        Some(report) => check_truth(&warm, report)?,
        None => return Err(format!("warm-up job failed: {:?}", outcome.error)),
    }
    Ok((mix, service))
}

/// One job of a stream.
struct JobRun {
    /// How late the generator submitted it, in seconds.
    late: f64,
    /// Scheduled arrival to terminal outcome, in seconds, or why there is
    /// no outcome.
    result: Result<(f64, JobOutcome), String>,
}

/// One pass of the job stream through a service.
struct StreamRun {
    jobs: Vec<JobRun>,
    /// First scheduled arrival to last terminal outcome, in seconds.
    makespan: f64,
    /// Busy workers summed over `stats()` polls, in worker-seconds (0
    /// when not polled).
    busy: f64,
}

/// Submits each job at its scheduled arrival, whether or not earlier
/// jobs have finished (an open loop), and waits for every outcome on a
/// thread of its own. With tracing on, each job is a `job` span from its
/// scheduled arrival to its outcome, with `service.submit` and
/// `service.wait` children, and a poller records `service.stats` spans.
fn stream(service: &AnalysisService, mix: &Mix, tracer: &Tracer, poll: bool) -> StreamRun {
    let specs: Vec<_> = mix.jobs.iter().map(Module::spec).collect();
    let finished = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let poller = poll.then(|| {
            scope.spawn(|| {
                let mut busy = 0.0;
                let mut last = Instant::now();
                // SeqCst: the flag is set after every waiter has joined.
                while !finished.load(Ordering::SeqCst) {
                    let snapshot = tracer.span("service.stats", 0, None, || service.stats());
                    let now = Instant::now();
                    busy += snapshot.busy as f64 * (now - last).as_secs_f64();
                    last = now;
                    std::thread::sleep(POLL);
                }
                busy
            })
        });
        let mut waiting = Vec::with_capacity(specs.len());
        for (i, spec) in specs.into_iter().enumerate() {
            let scheduled = t0 + Duration::from_secs_f64(mix.arrivals[i]);
            if let Some(ahead) = scheduled.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            let late = Instant::now()
                .saturating_duration_since(scheduled)
                .as_secs_f64();
            let trace = i as u64 + 1;
            let job: Option<Open> = tracer.begin_at("job", trace, None, scheduled);
            let parent = job.as_ref().map(Open::id);
            let submitted = tracer.span("service.submit", trace, parent, || service.submit(spec));
            let waiter = submitted.map(|id| {
                scope.spawn(move || {
                    let outcome = tracer.span("service.wait", trace, parent, || service.wait(id));
                    let done = Instant::now();
                    tracer.end(job);
                    (outcome, done)
                })
            });
            waiting.push((scheduled, late, waiter));
        }
        let mut last_done = t0;
        let jobs = waiting
            .into_iter()
            .map(|(scheduled, late, waiter)| {
                let result = match waiter {
                    Err(reason) => Err(format!("rejected: {reason}")),
                    Ok(handle) => match handle.join() {
                        Err(_) => Err("waiter panicked".to_string()),
                        Ok((None, _)) => Err("the service lost the job".to_string()),
                        Ok((Some(outcome), done)) => {
                            last_done = last_done.max(done);
                            Ok(((done - scheduled).as_secs_f64(), outcome))
                        }
                    },
                };
                JobRun { late, result }
            })
            .collect();
        finished.store(true, Ordering::SeqCst);
        let busy = poller.map_or(0.0, |p| p.join().expect("the stats poller does not panic"));
        StreamRun {
            jobs,
            makespan: (last_done - t0).as_secs_f64(),
            busy,
        }
    })
}

/// Checks one job's outcome against ground truth and against the
/// standalone analysis of its spec.
fn check_job(
    i: usize,
    module: &Module,
    run: &JobRun,
    reference: Option<&Counts>,
) -> Result<(), String> {
    let (_, outcome) = run
        .result
        .as_ref()
        .map_err(|e| format!("job {i} ({}): {e}", module.name))?;
    if let Some(error) = &outcome.error {
        return Err(format!("job {i} ({}): {error}", module.name));
    }
    let [report] = &outcome.reports[..] else {
        return Err(format!(
            "job {i} ({}): {} reports",
            module.name,
            outcome.reports.len()
        ));
    };
    check_truth(module, report).map_err(|e| format!("job {i}: {e}"))?;
    // Suspension counts depend on timing and are not compared; every
    // count of the resumed analysis must equal the standalone one.
    match reference {
        Some(expected) if *expected != Counts::of_report(report) => Err(format!(
            "job {i} ({}): service outcome {:?} differs from the standalone analysis {expected:?}",
            module.name,
            Counts::of_report(report)
        )),
        _ => Ok(()),
    }
}

/// The distinct specs of a mix, and each job's index into them.
fn distinct(mix: &Mix) -> (Vec<Module>, Vec<usize>) {
    let mut index: BTreeMap<&Module, usize> = BTreeMap::new();
    let mut modules = Vec::new();
    let of_job = mix
        .jobs
        .iter()
        .map(|job| {
            *index.entry(job).or_insert_with(|| {
                modules.push(job.clone());
                modules.len() - 1
            })
        })
        .collect();
    (modules, of_job)
}

fn check_stream(
    mix: &Mix,
    run: &StreamRun,
    of_job: &[usize],
    reference: &[Option<Counts>],
    outcome: &mut Outcome,
) {
    for (i, (module, job)) in mix.jobs.iter().zip(&run.jobs).enumerate() {
        outcome.verdict(check_job(i, module, job, reference[of_job[i]].as_ref()));
    }
}

fn job_outcomes(run: &StreamRun) -> impl Iterator<Item = &(f64, JobOutcome)> {
    run.jobs.iter().filter_map(|j| j.result.as_ref().ok())
}

/// Runs the `service-mix` workload.
pub fn run(seed: u64, seconds: u64, traced: bool, trace_path: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let jobs = inputs::mix_jobs(seconds);
    let setup = Setup::repeat(|| setup(seed, jobs));
    let (mix, service) = match setup.value {
        Ok(ready) => ready,
        Err(error) => {
            outcome.verdict(Err(error));
            return outcome;
        }
    };
    let (specs, of_job) = distinct(&mix);
    let off = Tracer::new(false);

    if !traced {
        let reference = batch::pass(&specs, &mut outcome);
        let mut totals = vec![reference.total()];
        for _ in 1..REFERENCE_PASSES {
            let again = batch::pass(&specs, &mut outcome);
            batch::check_passes(&specs, "repeated pass", &reference, &again, &mut outcome);
            totals.push(again.total());
        }
        let run = stream(service.get(), &mix, &off, false);
        drop(service);
        check_stream(&mix, &run, &of_job, &reference.counts, &mut outcome);
        let latency_ms: Vec<f64> = job_outcomes(&run).map(|(s, _)| s * 1e3).collect();
        let complete = job_outcomes(&run)
            .filter(|(_, o)| o.reports.iter().all(|r| !r.stats.exhausted))
            .count();
        let tail = stats::tail(&latency_ms);
        outcome.metric("setup_s", setup.secs, crate::SETUP_REPS);
        outcome.metric("analyze_s", stats::median(&totals), totals.len());
        outcome.metric("job_ms_p50", stats::median(&latency_ms), latency_ms.len());
        outcome.metric(
            "job_ms_tail",
            tail.map_or(0.0, |t| t.value),
            latency_ms.len(),
        );
        outcome.metric("complete_rate", ratio(complete as f64, jobs as f64), jobs);
        outcome.metric("peak_rss_mb", peak_rss_mb(), 1);
        if let Some(t) = tail {
            println!(
                "job_ms_tail is p{:.1} of {} jobs ({} beyond); makespan {:.3} s",
                t.percentile, t.samples, t.beyond, run.makespan
            );
        }
        crate::print_digest(&specs, &reference.counts);
        return outcome;
    }

    let untraced = stream(service.get(), &mix, &off, false);
    drop(service);
    let tracer = Tracer::new(true);
    let traced_run = match Service::start() {
        Ok(service) => stream(service.get(), &mix, &tracer, true),
        Err(error) => {
            outcome.verdict(Err(error));
            return outcome;
        }
    };
    let layers = batch::traced_pass(&specs, &tracer, None, true, &mut outcome);
    for run in [&untraced, &traced_run] {
        check_stream(&mix, run, &of_job, &layers.counts, &mut outcome);
    }
    batch::layer_metrics(&mut outcome, &tracer, &layers);

    let submit_us: Vec<f64> = tracer
        .durations("service.submit")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let queue_ms: Vec<f64> = job_outcomes(&traced_run)
        .map(|(_, o)| o.queued_for.as_secs_f64() * 1e3)
        .collect();
    let suspensions: u32 = job_outcomes(&traced_run).map(|(_, o)| o.suspensions).sum();
    let standalone: f64 = of_job.iter().map(|&s| layers.secs[s]).sum();
    let late_ms = traced_run
        .jobs
        .iter()
        .map(|j| j.late * 1e3)
        .fold(0.0, f64::max);
    let n = traced_run.jobs.len();
    outcome.metric(
        "service.submit_us_p50",
        stats::median(&submit_us),
        submit_us.len(),
    );
    outcome.metric(
        "service.submit_us_max",
        submit_us.iter().copied().fold(0.0, f64::max),
        submit_us.len(),
    );
    outcome.metric(
        "service.queue_wait_ms_p50",
        stats::median(&queue_ms),
        queue_ms.len(),
    );
    outcome.metric(
        "service.queue_wait_ms_tail",
        stats::tail(&queue_ms).map_or(0.0, |t| t.value),
        queue_ms.len(),
    );
    outcome.metric("service.suspensions", f64::from(suspensions), n);
    outcome.metric(
        "service.busy_s",
        traced_run.busy,
        tracer.durations("service.stats").len(),
    );
    outcome.metric(
        "service.reexec_ratio",
        ratio(traced_run.busy, standalone) - 1.0,
        n,
    );
    outcome.metric("loadgen.late_ms_max", late_ms, n);
    outcome.metric("trace.analyze_s", layers.secs.iter().sum(), specs.len());
    outcome.metric(
        "trace.overhead",
        ratio(traced_run.makespan, untraced.makespan),
        1,
    );
    crate::print_digest(&specs, &layers.counts);
    crate::write_trace(&tracer, trace_path, &mut outcome);
    outcome
}
