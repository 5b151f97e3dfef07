//! Deterministic fan-out support for the worklist engine.
//!
//! The engine explores one top-level statement per *wave*: every live path
//! state becomes an independent task, tasks run on a scoped thread pool
//! ([`run_tasks`]), and the results are appended back **in task order**.
//! That alone makes the merged output byte-identical to a sequential run,
//! because nothing a task produces depends on which task, or which worker,
//! produced it:
//!
//! * a symbol's id is the digest of what it denotes (the initial contents
//!   of a region, or the value a site creates on its `visit`-th visit by
//!   this path; see [`SymbolKey`](crate::value::SymbolKey)), and a secret
//!   source's id is its symbol's id;
//! * frame ids and site visit counts live in
//!   [`ExecState`](crate::state::ExecState) and depend only on the path's
//!   own history, and a local's region name is the one sema gave its
//!   declaration.
//!
//! So the merge has no ids to translate: each task hands back its own
//! explorer, and the merge appends its states, events, sources and
//! counters in canonical task order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Returns the free pages of the allocator's per-thread arenas to the OS,
/// after a run that fanned out over worker threads.
///
/// Worker threads allocate from their own glibc arenas, and because merged
/// states keep the nodes a task built, those allocations outlive the wave
/// and are freed later, out of order. A non-main arena hands memory back
/// only from the top of its heap, so the holes stay resident and pile up
/// over the analyses of one process. Repeating the `table5` benchmark
/// workload in one process raised its peak RSS from 75 MB after the
/// first pass to 97–116 MB within 20 s on a 2-vCPU host; with this call
/// it stays near 70 MB, at 0.03–5 ms per run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) fn release_worker_arenas() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, works only on
    // allocator state under the arenas' own locks (it is thread-safe), and
    // releases free pages only, never a live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Elsewhere the allocator keeps its own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub(crate) fn release_worker_arenas() {}

/// Runs `run` over `inputs` on up to `workers` scoped threads, returning
/// the results **in input order** regardless of completion order.
///
/// With `workers <= 1` (or a single input) this degrades to a plain
/// sequential loop — the legacy engine behaviour — using the very same
/// task closure, so parallel and sequential runs share one code path.
pub(crate) fn run_tasks<T, R, F>(workers: usize, inputs: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = inputs.len();
    if workers <= 1 || n <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(index, input)| run(index, input))
            .collect();
    }
    let tasks: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let input = tasks[index]
                    .lock()
                    .expect("task slot")
                    .take()
                    .expect("each task is claimed exactly once");
                let output = run(index, input);
                *results[index].lock().expect("result slot") = Some(output);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_preserves_input_order() {
        let inputs: Vec<usize> = (0..64).collect();
        let sequential = run_tasks(1, inputs.clone(), |i, v| (i, v * v));
        let parallel = run_tasks(8, inputs, |i, v| {
            if v % 3 == 0 {
                std::thread::yield_now();
            }
            (i, v * v)
        });
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[10], (10, 100));
    }
}
