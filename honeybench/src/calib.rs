//! Host-speed calibration.
//!
//! On a shared virtual machine the same code runs up to 40% slower
//! while neighbours load the host, and that drift moves every timing
//! over minutes. A fixed reference loop, timed on the CPU a measurement
//! ran on, right next to that measurement, shows how fast the CPU was;
//! dividing by it turns a time into a time at reference speed. The
//! reference is this file's own loop, so no change to the system under
//! test can move it.
//!
//! The hypervisor can also stop a virtual CPU outright (steal time).
//! A sample during which it stole more than [`MAX_STOLEN`] of the CPUs'
//! time is set aside: its latency shows the host, not the program.

use crate::affinity::CpuSet;
use std::hint::black_box;
use std::time::Instant;

/// Reference-loop time, ns, on an unloaded host of the kind the bounds
/// in `BENCHMARK.json` were measured on. Only scales the reported
/// numbers; comparisons between runs do not depend on it.
const REFERENCE_NS: f64 = 1_800_000.0;

/// Largest share of the CPUs' time the hypervisor may steal during a
/// sample before the sample is set aside.
pub const MAX_STOLEN: f64 = 0.01;

/// The values of the samples with at most [`MAX_STOLEN`] stolen, or all
/// of them when every sample was disturbed. Samples are `(value, stolen
/// share)`.
pub fn undisturbed(samples: &[(f64, f64)]) -> Vec<f64> {
    let clean: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 <= MAX_STOLEN)
        .map(|s| s.0)
        .collect();
    if clean.is_empty() {
        samples.iter().map(|s| s.0).collect()
    } else {
        clean
    }
}

const TABLE: usize = 16 * 1024;
const STEPS: u32 = 200_000;

/// One pass of the reference loop: integer hashing and dependent loads
/// over a 64 KiB table (L1/L2-resident, branchy), ns of wall time.
fn reference_pass() -> f64 {
    let t = Instant::now();
    let mut table = vec![0u32; TABLE];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (TABLE - 1);
        table[j] = table[j].wrapping_add(i);
        if table[j] & 1 == 0 {
            x = x.wrapping_add(u64::from(table[(j * 7) & (TABLE - 1)]));
        }
    }
    black_box(&table);
    t.elapsed().as_nanos() as f64
}

/// The calling thread's speed now: the fastest of three reference
/// passes (a pass the scheduler interrupted is only ever slower).
fn reference_ns() -> f64 {
    (0..3)
        .map(|_| reference_pass())
        .fold(f64::INFINITY, f64::min)
}

/// Slowdown of the calling thread's CPU relative to the reference host
/// (1.0 at reference speed, 1.3 when 30% slower).
pub fn slowdown() -> f64 {
    reference_ns() / REFERENCE_NS
}

/// Runs [`slowdown`] on a thread pinned to `cpus`.
fn slowdown_on(cpus: &CpuSet) -> Result<f64, String> {
    let cpus = *cpus;
    std::thread::scope(|s| {
        s.spawn(move || {
            crate::affinity::pin(&cpus).map_err(|e| format!("pin calibration: {e}"))?;
            Ok(slowdown())
        })
        .join()
        .map_err(|_| "calibration thread panicked".to_string())?
    })
}

/// Slowdown of each side of a server/generator CPU split (both sides
/// are the calling thread's CPU when there is no split).
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    /// The server's CPUs.
    pub server: f64,
    /// The load generator's (or the analyst's other) CPUs.
    pub generator: f64,
}

impl HostSpeed {
    /// Measures both sides now.
    pub fn measure(split: Option<&(CpuSet, CpuSet)>) -> Result<HostSpeed, String> {
        Ok(match split {
            Some((server, generator)) => HostSpeed {
                server: slowdown_on(server)?,
                generator: slowdown_on(generator)?,
            },
            None => {
                let x = slowdown();
                HostSpeed {
                    server: x,
                    generator: x,
                }
            }
        })
    }

    /// Mean slowdown, for work that spans both sides.
    pub fn mean(&self) -> f64 {
        (self.server + self.generator) / 2.0
    }

    /// The average of two probes, for work that ran between them.
    pub fn between(a: HostSpeed, b: HostSpeed) -> HostSpeed {
        HostSpeed {
            server: (a.server + b.server) / 2.0,
            generator: (a.generator + b.generator) / 2.0,
        }
    }
}
