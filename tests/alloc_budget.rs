//! Allocation budget of one interpreted statement.
//!
//! The interpreter's cost per step is dominated by what it allocates: the
//! values a statement creates are the analysis, everything else is engine
//! plumbing. This binary installs a counting global allocator and explores
//! the two interpretation-bound corpus modules, LinearRegression and
//! Kmeans, at `max_paths` 16 on one worker, counting every allocation (and
//! reallocation) made by the exploring thread during `Engine::run`. A step
//! must average at most [`MAX_ALLOCS_PER_STEP`] allocations and
//! [`MAX_BYTES_PER_STEP`] bytes, in debug and in release builds.
//!
//! Run it alone with `cargo test --release --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use privacyscope::analyzer::param_bindings;
use symexec::engine::{Engine, EngineConfig, ParamBinding};

/// Average allocations per interpreted statement, at most.
const MAX_ALLOCS_PER_STEP: f64 = 8.0;
/// Average bytes allocated per interpreted statement, at most.
const MAX_BYTES_PER_STEP: f64 = 2048.0;

struct Counting;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (and reallocations) counted on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` keeps an allocation during thread teardown from panicking.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
            BYTES.with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are const-initialized thread-locals without destructors, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The analyzer's bindings for a corpus entry with no configuration
/// overrides.
fn bindings_from_edl(edl_text: &str, entry: &str) -> Vec<ParamBinding> {
    let edl_file = edl::parse_edl(edl_text).expect("corpus EDL parses");
    let proto = edl_file.ecall(entry).expect("entry is a declared ECALL");
    param_bindings(proto, &edl::AnalysisConfig::default())
}

/// Explores `module` at `max_paths` 16 on one worker and returns
/// `(steps, allocations, bytes)` counted during `Engine::run`.
fn measure(module: &mlcorpus::Module) -> (u64, u64, u64) {
    let unit = minic::parse(module.source).expect("corpus source parses");
    let bindings = bindings_from_edl(module.edl, module.entry);
    let edl_file = edl::parse_edl(module.edl).expect("corpus EDL parses");
    let mut config = EngineConfig {
        max_paths: 16,
        workers: 1,
        ..EngineConfig::default()
    };
    config.sink_functions.extend(edl_file.ocall_names());
    config.source_functions.extend(
        privacyscope::analyzer::DEFAULT_DECRYPT_FUNCTIONS
            .iter()
            .map(|name| name.to_string()),
    );
    let engine = Engine::new(&unit, config);

    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let exploration = engine.run(module.entry, &bindings);
    COUNTING.with(|on| on.set(false));
    let exploration = exploration.expect("corpus module explores");
    let steps = exploration.stats.steps as u64;
    assert!(steps > 0, "{} interpreted no statement", module.name);
    (steps, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

fn assert_within_budget(module: mlcorpus::Module) {
    let (steps, allocs, bytes) = measure(&module);
    let allocs_per_step = allocs as f64 / steps as f64;
    let bytes_per_step = bytes as f64 / steps as f64;
    eprintln!(
        "{}: {steps} steps, {allocs} allocations ({allocs_per_step:.2}/step), \
         {bytes} bytes ({bytes_per_step:.0} B/step)",
        module.name
    );
    assert!(
        allocs_per_step <= MAX_ALLOCS_PER_STEP,
        "{}: {allocs_per_step:.2} allocations per step exceed the budget of {MAX_ALLOCS_PER_STEP}",
        module.name
    );
    assert!(
        bytes_per_step <= MAX_BYTES_PER_STEP,
        "{}: {bytes_per_step:.0} bytes per step exceed the budget of {MAX_BYTES_PER_STEP}",
        module.name
    );
}

#[test]
fn linear_regression_steps_stay_within_the_allocation_budget() {
    assert_within_budget(mlcorpus::linear_regression::module());
}

#[test]
fn kmeans_steps_stay_within_the_allocation_budget() {
    assert_within_budget(mlcorpus::kmeans::module());
}
