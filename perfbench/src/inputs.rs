//! Seeded workload inputs. Everything the program under test sees is
//! generated here from the `--seed` argument, so the same seed gives
//! byte-identical inputs.

use std::collections::BTreeSet;

use mlcorpus::expect::{Expectation, LeakKind};
use privacyscope::{AnalyzerOptions, JobSpec};

/// A finding as the oracle keys it: (explicit?, channel, secret).
pub type Key = (bool, String, String);

/// What a module's analysis must report.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Truth {
    /// Exactly these finding keys.
    Keys(BTreeSet<Key>),
    /// Exactly this many explicit and implicit findings (the as-ported
    /// Recommender, whose ground truth the paper gives as counts).
    Counts { explicit: usize, implicit: usize },
}

impl Truth {
    fn none() -> Truth {
        Truth::Keys(BTreeSet::new())
    }

    fn of(expectations: &[Expectation]) -> Truth {
        Truth::Keys(
            expectations
                .iter()
                .map(|e| {
                    (
                        e.kind == LeakKind::Explicit,
                        e.channel.clone(),
                        e.secret.clone(),
                    )
                })
                .collect(),
        )
    }
}

/// One module to analyze, with its budgets and ground truth.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Module {
    pub name: String,
    pub source: String,
    pub edl: String,
    pub entry: String,
    pub max_paths: usize,
    pub loop_bound: usize,
    pub workers: usize,
    pub truth: Truth,
}

impl Module {
    /// A module at the analyzer's default budgets.
    fn new(name: &str, source: &str, edl: &str, entry: &str, truth: Truth) -> Module {
        let defaults = AnalyzerOptions::default();
        Module {
            name: name.to_string(),
            source: source.to_string(),
            edl: edl.to_string(),
            entry: entry.to_string(),
            max_paths: defaults.max_paths,
            loop_bound: defaults.loop_bound,
            workers: defaults.workers,
            truth,
        }
    }

    fn corpus(module: &mlcorpus::Module, truth: Truth) -> Module {
        Module::new(module.name, module.source, module.edl, module.entry, truth)
    }

    fn synth(module: &mlcorpus::synth::SynthModule) -> Module {
        Module::new(
            &module.name,
            &module.source,
            &module.edl,
            module.entry,
            Truth::of(&module.expectations),
        )
    }

    /// Analyzer options for a standalone analysis: the defaults apart from
    /// the module's pinned budgets.
    pub fn options(&self) -> AnalyzerOptions {
        AnalyzerOptions {
            max_paths: self.max_paths,
            loop_bound: self.loop_bound,
            workers: self.workers,
            ..AnalyzerOptions::default()
        }
    }

    /// The same analysis as a service job.
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            source: self.source.clone(),
            edl: self.edl.clone(),
            function: Some(self.entry.clone()),
            max_paths: self.max_paths,
            loop_bound: self.loop_bound,
            workers: self.workers,
            ..JobSpec::default()
        }
    }
}

/// SplitMix64: small, seedable and stable across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in the open interval (0, 1).
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Path budget of the paper's case studies.
const TABLE5_MAX_PATHS: usize = 16;

/// The paper's Table V and §VI-D inputs, in a seeded order: the three
/// Table V modules, the fixed Recommender and the three Kmeans injections.
pub fn table5(seed: u64) -> Vec<Module> {
    let mut modules = vec![
        Module::corpus(&mlcorpus::linear_regression::module(), Truth::none()),
        Module::corpus(&mlcorpus::kmeans::module(), Truth::none()),
        Module::corpus(
            &mlcorpus::recommender::vulnerable(),
            Truth::Counts {
                explicit: 4,
                implicit: 2,
            },
        ),
        Module::corpus(&mlcorpus::recommender::fixed(), Truth::none()),
    ];
    let injections = mlcorpus::inject::kmeans_injections()
        .expect("the corpus's injection anchors are part of its sources");
    for injection in &injections {
        let mut module = Module::corpus(&injection.module, Truth::of(&injection.expectations));
        module.name = format!("Kmeans+{}", injection.name);
        modules.push(module);
    }
    for module in &mut modules {
        module.max_paths = TABLE5_MAX_PATHS;
    }
    Rng::new(seed, 1).shuffle(&mut modules);
    modules
}

/// Module seeds of the branch-heavy corpus. Fixed, so every run measures
/// the same fork and feasibility work (900–1,440 syntactic paths each).
const BRANCH_HEAVY_SEEDS: [u64; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
const BRANCH_HEAVY_CLUSTERS: usize = 2;

/// The branch-heavy synthetic corpus, in a seeded order.
pub fn branch_heavy(seed: u64) -> Vec<Module> {
    let mut modules: Vec<Module> = BRANCH_HEAVY_SEEDS
        .iter()
        .map(|&s| {
            Module::synth(&mlcorpus::synth::generate_branch_heavy(
                s,
                BRANCH_HEAVY_CLUSTERS,
            ))
        })
        .collect();
    Rng::new(seed, 2).shuffle(&mut modules);
    modules
}

/// Mean arrival rate of the service mix, in jobs per second: about
/// two-thirds of the measured capacity of a one-worker pool on this mix
/// (see BASELINES.md).
pub const MIX_RATE: f64 = 6.0;
/// Jobs per burst: one heavy job, then light ones.
const MIX_BURST: usize = 40;
/// Gap between the jobs of one burst, in seconds.
const MIX_BURST_GAP: f64 = 0.002;
/// The heavy job: the Table V LinearRegression trainer at loop bound 2 and
/// path budget 24, one path that runs for seconds. Every burst repeats it,
/// so the standalone reference analyzes it once. Kmeans is left out:
/// where its suspension lands depends on timing, and so does the size of
/// its checkpoint, which made `peak_rss_mb` bimodal.
const MIX_HEAVY_MAX_PATHS: usize = 24;
const MIX_HEAVY_LOOP_BOUND: usize = 2;

/// A seeded open-loop job stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// One module per job, in arrival order. Every job pins 1 engine
    /// worker.
    pub jobs: Vec<Module>,
    /// Each job's scheduled arrival, in seconds after the stream starts.
    pub arrivals: Vec<f64>,
}

/// The job count of a mix measured for `seconds`: whole bursts whose
/// arrivals span about `seconds`.
pub fn mix_jobs(seconds: u64) -> usize {
    let bursts = (MIX_RATE * seconds as f64 / MIX_BURST as f64).round() as usize;
    bursts.max(1) * MIX_BURST
}

fn heavy_module() -> Module {
    let mut module = Module::corpus(&mlcorpus::linear_regression::module(), Truth::none());
    module.name = format!("LinearRegression@{MIX_HEAVY_MAX_PATHS}");
    module.max_paths = MIX_HEAVY_MAX_PATHS;
    module.loop_bound = MIX_HEAVY_LOOP_BOUND;
    module
}

/// `jobs` jobs (a multiple of [`MIX_BURST`]) in bursts arriving every
/// `MIX_BURST / MIX_RATE` s, each burst start jittered by the seed by up
/// to a tenth of that period. A burst is one heavy job followed by light
/// `mlcorpus::synth::generate` modules of consecutive synth seeds, so the
/// light jobs queue behind the heavy one and the fair-share slice
/// suspends it. Every seed submits the same jobs in the same order, so
/// that runs on different seeds measure the same work: reordering the
/// light jobs moves the latency quantiles by more than the bound.
pub fn service_mix(seed: u64, jobs: usize) -> Mix {
    let mut rng = Rng::new(seed, 3);
    let bursts = jobs / MIX_BURST;
    let period = MIX_BURST as f64 / MIX_RATE;
    let mut mix = Mix {
        jobs: Vec::with_capacity(jobs),
        arrivals: Vec::with_capacity(jobs),
    };
    for burst in 0..bursts {
        let start = (burst as f64 + 0.05 + 0.1 * rng.unit()) * period;
        let heavy = heavy_module();
        let first_light = (burst * (MIX_BURST - 1)) as u64;
        let light = (first_light..first_light + MIX_BURST as u64 - 1)
            .map(|s| Module::synth(&mlcorpus::synth::generate(s)));
        for (k, mut module) in std::iter::once(heavy).chain(light).enumerate() {
            module.workers = 1;
            mix.jobs.push(module);
            mix.arrivals.push(start + k as f64 * MIX_BURST_GAP);
        }
    }
    mix
}

/// A small, fixed module analyzed once during set-up so that lazy
/// initialisation is not timed.
pub fn warm_up() -> Module {
    Module::corpus(
        &mlcorpus::recommender::vulnerable(),
        Truth::Counts {
            explicit: 4,
            implicit: 2,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(modules: &[Module]) -> Vec<String> {
        let mut names: Vec<String> = modules.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn batch_inputs_are_a_pure_function_of_the_seed() {
        for make in [table5 as fn(u64) -> Vec<Module>, branch_heavy] {
            assert_eq!(make(7), make(7));
            // Another seed: the same module set, in another order.
            assert_ne!(make(7), make(8));
            assert_eq!(names(&make(7)), names(&make(8)));
        }
        assert_eq!(table5(1).len(), 7);
        assert_eq!(branch_heavy(1).len(), BRANCH_HEAVY_SEEDS.len());
    }

    #[test]
    fn mix_is_a_pure_function_of_the_seed() {
        let jobs = mix_jobs(20);
        assert_eq!(jobs, 120);
        let a = service_mix(42, jobs);
        assert_eq!(a, service_mix(42, jobs));
        let b = service_mix(43, jobs);
        assert_ne!(a.arrivals, b.arrivals);
        // Same shape: the same jobs in the same bursts, each headed by its
        // heavy job, every job pinned to 1 worker, arrivals in order and
        // spanning about jobs / rate.
        for mix in [&a, &b] {
            assert_eq!(mix.jobs.len(), jobs);
            assert_eq!(mix.arrivals.len(), jobs);
            assert!(mix.arrivals.windows(2).all(|w| w[0] < w[1]));
            assert!(mix.jobs.iter().all(|m| m.workers == 1));
            let heads: Vec<usize> = (0..jobs)
                .filter(|&i| mix.jobs[i].name.starts_with("LinearRegression"))
                .collect();
            assert_eq!(heads, vec![0, MIX_BURST, 2 * MIX_BURST]);
            let span = mix.arrivals[jobs - 1];
            let expected = jobs as f64 / MIX_RATE;
            assert!(span < expected && span > 0.6 * expected, "span {span}");
        }
        assert_eq!(a.jobs, b.jobs);
    }
}
