//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of criterion's API the workspace benches use —
//! `Criterion`, benchmark groups, `bench_function` / `bench_with_input`,
//! `Bencher::iter` / `iter_batched`, `BenchmarkId`, `BatchSize`,
//! `black_box`, and the `criterion_group!` /
//! `criterion_main!` macros — over a simple wall-clock measurement loop:
//! a short warm-up, then `sample_size` timed samples whose median is
//! reported on stdout. This keeps `cargo bench` runnable (and its relative
//! numbers meaningful) without the statistical machinery or plotting of
//! real criterion.

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque value barrier, mirroring `criterion::black_box`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifier for one parameterized benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter display.
    pub fn new<P: fmt::Display>(function: &str, parameter: P) -> BenchmarkId {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    /// Creates an id from the parameter display alone.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Types usable as a benchmark label (`&str`, `String`, [`BenchmarkId`]).
pub trait IntoLabel {
    /// Renders the label text.
    fn into_label(self) -> String;
}

impl IntoLabel for &str {
    fn into_label(self) -> String {
        self.to_string()
    }
}

impl IntoLabel for String {
    fn into_label(self) -> String {
        self
    }
}

impl IntoLabel for BenchmarkId {
    fn into_label(self) -> String {
        self.label
    }
}

/// Per-iteration timer handle passed to bench closures.
pub struct Bencher {
    /// Number of inner iterations per timed sample.
    iters: u64,
    /// Collected per-iteration durations (one per sample).
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, recording the mean per-iteration cost of a batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        let total = start.elapsed();
        self.samples.push(total / self.iters as u32);
    }

    /// Times `routine` on inputs built by `setup`, which runs outside the
    /// timed region, as do the drops of the routine's outputs.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let inputs: Vec<I> = (0..self.iters).map(|_| setup()).collect();
        let mut outputs = Vec::with_capacity(inputs.len());
        let start = Instant::now();
        for input in inputs {
            outputs.push(black_box(routine(input)));
        }
        let total = start.elapsed();
        drop(outputs);
        self.samples.push(total / self.iters as u32);
    }
}

/// Batch sizing hint for [`Bencher::iter_batched`], mirroring criterion's;
/// the stand-in always prepares one input per timed iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are cheap to hold in memory.
    SmallInput,
}

/// Top-level harness handle.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Criterion {
        run_bench(name, self.sample_size, f);
        self
    }
}

/// A named collection of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<L: IntoLabel, F: FnMut(&mut Bencher)>(
        &mut self,
        id: L,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_label());
        run_bench(&label, self.sample_size, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<L, I, F>(&mut self, id: L, input: &I, mut f: F) -> &mut Self
    where
        L: IntoLabel,
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_label());
        run_bench(&label, self.sample_size, |b| f(b, input));
        self
    }

    /// Finishes the group (reporting is per-bench; nothing left to flush).
    pub fn finish(self) {}
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut f: F) {
    // Calibration pass: find an iteration count that makes one sample take
    // roughly a millisecond, so per-iteration timings aren't pure clock
    // noise for fast routines.
    let mut bencher = Bencher {
        iters: 1,
        samples: Vec::new(),
    };
    f(&mut bencher);
    let per_iter = bencher.samples.last().copied().unwrap_or(Duration::ZERO);
    let target = Duration::from_millis(1);
    let iters = if per_iter.is_zero() {
        1000
    } else {
        (target.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    let mut bencher = Bencher {
        iters,
        samples: Vec::new(),
    };
    for _ in 0..sample_size {
        f(&mut bencher);
    }
    bencher.samples.sort();
    let median = bencher.samples[bencher.samples.len() / 2];
    let lo = bencher.samples.first().copied().unwrap_or_default();
    let hi = bencher.samples.last().copied().unwrap_or_default();
    println!("{label:<40} time: [{lo:>10.2?} {median:>10.2?} {hi:>10.2?}]");
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default().sample_size(2);
        let mut runs = 0u64;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn group_labels_compose() {
        assert_eq!(BenchmarkId::from_parameter(8).to_string(), "8");
        assert_eq!(BenchmarkId::new("f", 8).to_string(), "f/8");
    }
}
