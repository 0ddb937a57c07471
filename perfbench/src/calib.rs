//! Host-speed calibration.
//!
//! On a shared host the speed of memory-bound and syscall-bound code
//! drifts by tens of percent over minutes as neighbours load the shared
//! cache and memory. A fixed kernel of the benchmark's own — a dependent
//! random walk over a buffer the size of the largest working set, so it
//! feels the same cache contention — is sampled between the measured
//! segments. The end-to-end figures are reported at a reference host
//! speed: each run's raw figure scaled by the reference walk rate over the
//! walk rate measured during that run. The kernel does not use the
//! repository's code, so a change to the program moves only the raw
//! figure, never the scale.

use crate::util::now_ns;
use std::hint::black_box;

/// Buffer entries: 64 MiB of `u32`, the order of the url workload's
/// working set.
const ENTRIES: usize = 16 << 20;
/// Steps per sample.
const STEPS: usize = 200_000;
/// The walk rate that defines the reference host, in million steps per
/// second (a quiet period of the 2-vCPU Xeon the benchmark was tuned on).
pub const REFERENCE_MSTEPS: f64 = 5.0;

pub struct Calibration {
    next: Vec<u32>,
    at: u32,
    steps: u64,
    ns: u64,
}

impl Calibration {
    /// Link the buffer into one cycle in a shuffled order (fixed seed:
    /// the kernel is the same in every run).
    pub fn new() -> Calibration {
        let mut order: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % i as u64) as usize);
        }
        let mut next = vec![0u32; ENTRIES];
        for w in order.windows(2) {
            next[w[0] as usize] = w[1];
        }
        next[order[ENTRIES - 1] as usize] = order[0];
        Calibration {
            next,
            at: 0,
            steps: 0,
            ns: 0,
        }
    }

    /// Walk one sample's worth of steps.
    pub fn sample(&mut self) {
        let t0 = now_ns();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        self.ns += now_ns() - t0;
        self.steps += STEPS as u64;
    }

    /// Walk rate over every sample so far, in million steps per second.
    pub fn msteps(&self) -> f64 {
        self.steps as f64 / self.ns.max(1) as f64 * 1e3
    }

    /// Factor that brings a rate measured in this run to the reference
    /// host (multiply rates, divide times).
    pub fn rate_scale(&self) -> f64 {
        REFERENCE_MSTEPS / self.msteps()
    }
}

/// (stolen, total) CPU ticks of this machine's CPUs so far, from the
/// aggregate line of `/proc/stat`; stolen ticks are time a hypervisor ran
/// something else on them. `None` where the file is missing.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}
