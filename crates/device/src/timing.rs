//! Per-iteration wall-clock models and the simulated clock.
//!
//! Figure 3a of the paper contrasts three devices running one SGD iteration
//! of increasing batch size:
//!
//! - an **ideal parallel device**, which "requires the same amount of time to
//!   process any mini-batch";
//! - a **pure sequential machine**, whose time is linear in the operation
//!   count; and
//! - an **actual GPU**, which is flat like the ideal device for small
//!   batches and turns linear once its parallel capacity `C_G` is exhausted,
//!   plus a fixed per-launch overhead (Amdahl's law — the paper cites
//!   Rodgers 1985).
//!
//! [`iteration_time`] implements all three as functions of the operation
//! count, and [`SimClock`] accumulates them so trainers can report
//! "simulated GPU seconds" next to real CPU seconds.

use crate::ResourceSpec;

/// Which idealisation of the device to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceMode {
    /// Constant time per launch regardless of batch size (no overhead).
    IdealParallel,
    /// Flat-then-linear with per-launch overhead: the realistic GPU model.
    ActualGpu,
    /// Time strictly proportional to the operation count.
    Sequential,
}

impl DeviceMode {
    /// All modes, in the order Figure 3a plots them.
    pub const ALL: [DeviceMode; 3] = [
        DeviceMode::IdealParallel,
        DeviceMode::ActualGpu,
        DeviceMode::Sequential,
    ];
}

impl std::fmt::Display for DeviceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DeviceMode::IdealParallel => "ideal parallel",
            DeviceMode::ActualGpu => "actual GPU",
            DeviceMode::Sequential => "sequential",
        };
        f.write_str(s)
    }
}

/// Seconds to execute `ops` operations in one launch on `spec` under the
/// given device mode.
///
/// - `IdealParallel`: `t_sat = C_G / peak` for any `ops` (constant).
/// - `ActualGpu`: `overhead + max(t_sat, ops / peak)` — flat until the launch
///   saturates `C_G`, then linear.
/// - `Sequential`: `ops / peak` (one lane of the device).
pub fn iteration_time(spec: &ResourceSpec, mode: DeviceMode, ops: f64) -> f64 {
    let t_sat = spec.saturated_launch_time();
    match mode {
        DeviceMode::IdealParallel => t_sat,
        DeviceMode::ActualGpu => spec.launch_overhead + (ops / spec.peak_flops).max(t_sat),
        DeviceMode::Sequential => ops / spec.peak_flops,
    }
}

/// An accumulating simulated clock.
///
/// # Example
///
/// ```
/// use ep2_device::{DeviceMode, ResourceSpec, SimClock};
///
/// let gpu = ResourceSpec::titan_xp();
/// let mut clock = SimClock::new(gpu, DeviceMode::ActualGpu);
/// clock.record_launch(1e9);
/// clock.record_launch(1e9);
/// assert!(clock.elapsed() > 0.0);
/// assert_eq!(clock.launches(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SimClock {
    spec: ResourceSpec,
    mode: DeviceMode,
    elapsed: f64,
    launches: u64,
    total_ops: f64,
}

impl SimClock {
    /// Creates a clock at time zero for the given device and mode.
    pub fn new(spec: ResourceSpec, mode: DeviceMode) -> Self {
        SimClock {
            spec,
            mode,
            elapsed: 0.0,
            launches: 0,
            total_ops: 0.0,
        }
    }

    /// Records one kernel launch of `ops` operations and returns the
    /// simulated seconds it took.
    pub fn record_launch(&mut self, ops: f64) -> f64 {
        let t = iteration_time(&self.spec, self.mode, ops);
        self.elapsed += t;
        self.launches += 1;
        self.total_ops += ops;
        t
    }

    /// Simulated seconds elapsed so far.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Number of launches recorded.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Total operations recorded.
    pub fn total_ops(&self) -> f64 {
        self.total_ops
    }

    /// The device spec this clock simulates.
    pub fn spec(&self) -> &ResourceSpec {
        &self.spec
    }

    /// The device mode this clock simulates.
    pub fn mode(&self) -> DeviceMode {
        self.mode
    }

    /// Resets elapsed time and counters to zero.
    pub fn reset(&mut self) {
        self.elapsed = 0.0;
        self.launches = 0;
        self.total_ops = 0.0;
    }

    /// Restores the clock to a previously recorded state — used by
    /// checkpoint resume so `simulated_seconds` continues the interrupted
    /// trajectory instead of restarting at zero.
    pub fn restore(&mut self, elapsed: f64, launches: u64, total_ops: f64) {
        self.elapsed = elapsed;
        self.launches = launches;
        self.total_ops = total_ops;
    }
}

/// Measures the host CPU's sustained dense-compute throughput (ops/s) with a
/// short calibration loop, for [`ResourceSpec::calibrated_to_host`].
///
/// Runs an in-cache **register-tiled FMA kernel** — an 8x8 f64 accumulator
/// tile updated from two streamed panels, the same shape as `ep2-linalg`'s
/// blocked GEMM microkernel — so the measured rate matches what the actual
/// dense hot paths sustain. (The previous scalar `mul_add` sweep measured a
/// single dependency chain, several times below what the blocked GEMM
/// reaches, which made simulated-vs-wall-clock comparisons dishonest.)
///
/// `floats` sizes the streamed panels (`k = floats/16` tile updates per
/// pass, clamped to stay in L1); returns `2 * 64 * k * repeats / seconds`.
pub fn measure_host_flops(floats: usize, repeats: usize) -> f64 {
    const T: usize = 8;
    let k = (floats.max(1024) / (2 * T)).min(4096);
    let series = |seed: usize| move |i: usize| ((i * 31 + seed) % 97) as f64 * 1e-3 - 0.4;
    let a: Vec<f64> = (0..T * k).map(series(1)).collect();
    let b: Vec<f64> = (0..T * k).map(series(2)).collect();
    let mut acc = [[0.0_f64; T]; T];
    let start = std::time::Instant::now();
    for _ in 0..repeats.max(1) {
        for (ap, bp) in a.chunks_exact(T).zip(b.chunks_exact(T)) {
            let ap: &[f64; T] = ap.try_into().unwrap();
            let bp: &[f64; T] = bp.try_into().unwrap();
            for i in 0..T {
                let ai = ap[i];
                let row = &mut acc[i];
                for j in 0..T {
                    row[j] = ai.mul_add(bp[j], row[j]);
                }
            }
        }
        std::hint::black_box(&mut acc);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    2.0 * (T * T) as f64 * k as f64 * repeats.max(1) as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ResourceSpec {
        ResourceSpec::new("test", 1e6, 1e9, 1e9, 1e-4)
    }

    #[test]
    fn ideal_is_constant() {
        let s = spec();
        let t1 = iteration_time(&s, DeviceMode::IdealParallel, 10.0);
        let t2 = iteration_time(&s, DeviceMode::IdealParallel, 1e12);
        assert_eq!(t1, t2);
        assert_eq!(t1, 1e-3); // C_G / peak
    }

    #[test]
    fn sequential_is_linear() {
        let s = spec();
        let t1 = iteration_time(&s, DeviceMode::Sequential, 1e6);
        let t2 = iteration_time(&s, DeviceMode::Sequential, 2e6);
        assert!((t2 - 2.0 * t1).abs() < 1e-15);
    }

    #[test]
    fn actual_gpu_flat_then_linear() {
        let s = spec();
        // Below capacity: flat at overhead + t_sat.
        let small1 = iteration_time(&s, DeviceMode::ActualGpu, 1e3);
        let small2 = iteration_time(&s, DeviceMode::ActualGpu, 1e5);
        assert_eq!(small1, small2);
        assert!((small1 - (1e-4 + 1e-3)).abs() < 1e-12);
        // Above capacity: grows linearly.
        let big1 = iteration_time(&s, DeviceMode::ActualGpu, 1e7);
        let big2 = iteration_time(&s, DeviceMode::ActualGpu, 2e7);
        assert!(big2 > big1);
        assert!(((big2 - s.launch_overhead) / (big1 - s.launch_overhead) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn knee_is_at_parallel_capacity() {
        let s = spec();
        let at_knee = iteration_time(&s, DeviceMode::ActualGpu, s.parallel_capacity);
        let below = iteration_time(&s, DeviceMode::ActualGpu, s.parallel_capacity * 0.5);
        let above = iteration_time(&s, DeviceMode::ActualGpu, s.parallel_capacity * 2.0);
        assert_eq!(at_knee, below);
        assert!(above > at_knee);
    }

    #[test]
    fn clock_accumulates() {
        let mut c = SimClock::new(spec(), DeviceMode::Sequential);
        c.record_launch(1e6);
        c.record_launch(1e6);
        assert!((c.elapsed() - 2e-3).abs() < 1e-12);
        assert_eq!(c.launches(), 2);
        assert_eq!(c.total_ops(), 2e6);
        c.reset();
        assert_eq!(c.elapsed(), 0.0);
        assert_eq!(c.launches(), 0);
    }

    #[test]
    fn host_flops_measurement_positive() {
        let f = measure_host_flops(4096, 4);
        assert!(f > 1e6, "measured {f} ops/s — implausibly slow");
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceMode::ActualGpu.to_string(), "actual GPU");
        assert_eq!(DeviceMode::ALL.len(), 3);
    }
}
