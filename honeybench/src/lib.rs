//! `honeybench` — one benchmark for honeylab's two users: the capture
//! operator (a live `honeylab serve` holding idle connections while it
//! captures a trickle of SSH dialogues) and the analyst (re-running the
//! six reports and the §6 clustering over a whole store).
//!
//! * [`live`] drives the real `honeylab serve` binary as a child process
//!   with `serve::barrage`, reads the server's own CPU, syscall and RSS
//!   counters from `/proc`, and gates every run on exact accounting.
//! * [`offline`] generates a sessiondb store with `botnet` and times the
//!   analyst's pass in-process.
//! * [`trace`] replays a workload's session plans through the layers'
//!   public functions in memory, with spans around each call, for the
//!   per-layer numbers. End-to-end numbers never come from a traced run.
//! * [`metrics`] declares every metric; `BENCHMARK.json` must list the
//!   same names (the smoke test checks both directions).

pub mod affinity;
pub mod calib;
pub mod live;
pub mod metrics;
pub mod offline;
pub mod procfs;
pub mod server;
pub mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by a thread while it has
/// [`set_alloc_counting`] on. The count is per thread, so the traced
/// replay's counts repeat exactly whatever other threads do; untraced
/// runs only pay one thread-local read per allocation.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a const-initialized thread-local counter update,
// which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Turns allocation counting on or off for the calling thread (on only
/// during a traced replay).
pub fn set_alloc_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// Allocations (including reallocations) this thread has counted.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "parked_trickle",
    "durable_capture",
    "open_dashboard",
    "offline_analysis",
];

/// What one workload run produced: the metric values it measured, its
/// operation accounting, and whether every correctness gate passed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metric values by name; a declared metric the workload
    /// does not exercise is absent here and reported as 0.
    pub values: std::collections::HashMap<&'static str, f64>,
    /// Operations attempted (sessions, or analyst passes).
    pub attempted: u64,
    /// Operations that failed (shed, error, timeout, failed gate).
    pub failed: u64,
    /// Gate failures, one line each; empty means correct.
    pub gate_failures: Vec<String>,
    /// Extra detail for the `--out` file (sample counts, percentiles).
    pub detail: Vec<(String, hutil::Json)>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Checks one gate, recording a failure message if it does not hold.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Worker threads for the analyst's pass: every core the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }
}
