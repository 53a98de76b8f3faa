//! Multi-device clusters — the paper's Section-6 "next natural step".
//!
//! Section 2 notes that for computational resources like clusters "we need
//! to take into account additional factors such as network bandwidth". This
//! module extends the `(C_G, S_G)` abstraction to `g` identical devices
//! joined by a link, with ring-all-reduce communication costs, so the
//! adaptive-kernel machinery can target the *aggregate* resource:
//!
//! - aggregate parallel capacity `C_total = g · C_G` → the saturating batch
//!   `m^max` grows `g`-fold, and
//! - EigenPro 2.0 raises `m*(k_G)` to match, extending linear scaling
//!   across devices exactly as it does across one device's cores.

use crate::{batch, timing, DeviceMode, Precision, ResourceSpec};

/// A cluster of `g` identical devices with a communication link.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The per-device spec.
    pub device: ResourceSpec,
    /// Number of devices `g`.
    pub n_devices: usize,
    /// Link bandwidth in matrix-element slots per second (e.g. NVLink-class
    /// ≈ 6e9 f32 slots/s, PCIe-class ≈ 3e9).
    pub link_bandwidth: f64,
    /// Per-message link latency in seconds.
    pub link_latency: f64,
}

impl ClusterSpec {
    /// Creates a cluster spec.
    ///
    /// # Panics
    ///
    /// Panics if `n_devices == 0` or the link parameters are not positive /
    /// non-negative respectively.
    pub fn new(
        device: ResourceSpec,
        n_devices: usize,
        link_bandwidth: f64,
        link_latency: f64,
    ) -> Self {
        assert!(n_devices > 0, "cluster needs at least one device");
        assert!(link_bandwidth > 0.0, "link bandwidth must be positive");
        assert!(link_latency >= 0.0, "link latency must be non-negative");
        ClusterSpec {
            device,
            n_devices,
            link_bandwidth,
            link_latency,
        }
    }

    /// A bank of Titan Xp GPUs on an NVLink-class interconnect.
    pub fn titan_xp_bank(n_devices: usize) -> Self {
        ClusterSpec::new(ResourceSpec::titan_xp(), n_devices, 6.0e9, 5.0e-6)
    }

    /// Ring all-reduce time for a tensor of `slots` elements across the
    /// cluster: `2 (g−1)/g · slots / bandwidth + 2 (g−1) · latency`.
    /// Zero for a single device.
    pub fn allreduce_time(&self, slots: f64) -> f64 {
        let g = self.n_devices as f64;
        if self.n_devices <= 1 {
            return 0.0;
        }
        2.0 * (g - 1.0) / g * slots / self.link_bandwidth + 2.0 * (g - 1.0) * self.link_latency
    }

    /// Broadcast time for `slots` elements from one device to all others
    /// (tree broadcast): `slots/bandwidth · log2(g) + latency · log2(g)`.
    pub fn broadcast_time(&self, slots: f64) -> f64 {
        if self.n_devices <= 1 {
            return 0.0;
        }
        let hops = (self.n_devices as f64).log2().ceil().max(1.0);
        hops * (slots / self.link_bandwidth + self.link_latency)
    }

    /// Time for one data-parallel training iteration at global batch `m`
    /// over `n` centers sharded evenly: per-device compute on `n/g` centers
    /// plus the all-reduce of the `m x l` partial predictions and the
    /// broadcast of the `m x d` batch features.
    pub fn iteration_time(&self, mode: DeviceMode, n: usize, m: usize, d: usize, l: usize) -> f64 {
        let g = self.n_devices;
        let n_local = n.div_ceil(g);
        let compute_ops = (n_local * m * (d + l)) as f64;
        let t_compute = timing::iteration_time(&self.device, mode, compute_ops);
        let t_comm = self.allreduce_time((m * l) as f64) + self.broadcast_time((m * d) as f64);
        t_compute + t_comm
    }

    /// Step-1 batch plan against the *aggregate* resource: capacity scales
    /// with `g` (each device works on its `n/g`-center shard), memory holds
    /// the shard plus the batch block.
    ///
    /// Uses the f32 reference slot width (like [`batch::max_batch`]); use
    /// [`ClusterSpec::max_batch_with`] to plan under the precision the
    /// training run will actually execute at.
    pub fn max_batch(&self, n: usize, d: usize, l: usize) -> batch::BatchPlan {
        self.max_batch_with(n, d, l, Precision::F32)
    }

    /// [`ClusterSpec::max_batch`] under an explicit [`Precision`] policy:
    /// each device's memory-limited batch `m^S_G` is computed at the true
    /// slot width (f64 elements cost two f32-reference slots per shard
    /// element), exactly like the single-device
    /// [`batch::max_batch_with`] the trainer plans with.
    ///
    /// # Panics
    ///
    /// Same conditions as [`batch::max_batch`] (per-device shard must fit).
    pub fn max_batch_with(
        &self,
        n: usize,
        d: usize,
        l: usize,
        precision: Precision,
    ) -> batch::BatchPlan {
        let g = self.n_devices;
        let n_local = n.div_ceil(g).max(1);
        // Per-device: (d + l) · m · n_local ≈ C_G  and  (d + l + m) · n_local ≤ S_G.
        batch::max_batch_with(&self.device, n_local, d, l, precision)
    }

    /// Parallel-scaling efficiency at batch `m`: single-device iteration
    /// time divided by (`g` × cluster iteration time). 1.0 = perfect linear
    /// scaling; communication and the per-launch floor erode it.
    pub fn scaling_efficiency(&self, n: usize, m: usize, d: usize, l: usize) -> f64 {
        let single = ClusterSpec {
            n_devices: 1,
            ..self.clone()
        };
        let t1 = single.iteration_time(DeviceMode::ActualGpu, n, m, d, l);
        let tg = self.iteration_time(DeviceMode::ActualGpu, n, m, d, l);
        t1 / (self.n_devices as f64 * tg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(g: usize) -> ClusterSpec {
        ClusterSpec::titan_xp_bank(g)
    }

    #[test]
    fn single_device_has_no_comm() {
        let c = cluster(1);
        assert_eq!(c.allreduce_time(1e6), 0.0);
        assert_eq!(c.broadcast_time(1e6), 0.0);
        let t1 = c.iteration_time(DeviceMode::ActualGpu, 100_000, 256, 400, 10);
        let t_direct =
            timing::iteration_time(&c.device, DeviceMode::ActualGpu, 100_000.0 * 256.0 * 410.0);
        assert!((t1 - t_direct).abs() < 1e-12);
    }

    #[test]
    fn allreduce_grows_with_size_and_devices() {
        let c4 = cluster(4);
        let c8 = cluster(8);
        assert!(c4.allreduce_time(2e6) > c4.allreduce_time(1e6));
        assert!(c8.allreduce_time(1e6) > c4.allreduce_time(1e6));
    }

    #[test]
    fn sharding_raises_saturating_batch() {
        let n = 1_000_000;
        let (d, l) = (784, 10);
        let m1 = cluster(1).max_batch(n, d, l).batch;
        let m4 = cluster(4).max_batch(n, d, l).batch;
        // Each device sees n/4 centers → the capacity batch grows ~4x.
        assert!(m4 > 3 * m1, "m4 = {m4}, m1 = {m1}");
    }

    #[test]
    fn cluster_precision_scales_memory_batch() {
        // Memory-starved per-device spec: the f32 plan's memory batch obeys
        // the same 2x-slot relation as the single-device planner, per shard.
        let device = ResourceSpec::new("mem-starved", 1e15, 2e6, 1e12, 0.0);
        let c = ClusterSpec::new(device, 4, 1e9, 1e-6);
        let (n, d, l) = (4_000, 100, 10);
        let p32 = c.max_batch_with(n, d, l, Precision::F32);
        let p64 = c.max_batch_with(n, d, l, Precision::F64);
        assert_eq!(p32.memory_batch, 2 * p64.memory_batch + (d + l));
        // Mixed plans memory like f32, and the default stays f32-reference.
        let mixed = c.max_batch_with(n, d, l, Precision::Mixed);
        assert_eq!(mixed.memory_batch, p32.memory_batch);
        assert_eq!(c.max_batch(n, d, l), p32);
    }

    #[test]
    fn iteration_time_drops_with_devices_at_large_batch() {
        let (n, m, d, l) = (1_000_000, 4_096, 784, 10);
        let t1 = cluster(1).iteration_time(DeviceMode::ActualGpu, n, m, d, l);
        let t4 = cluster(4).iteration_time(DeviceMode::ActualGpu, n, m, d, l);
        assert!(t4 < t1, "t4 = {t4}, t1 = {t1}");
        // But not perfectly 4x: communication + the launch floor.
        assert!(t4 > t1 / 4.0);
    }

    #[test]
    fn efficiency_declines_with_device_count_at_fixed_batch() {
        let (n, m, d, l) = (1_000_000, 735, 784, 10);
        let e2 = cluster(2).scaling_efficiency(n, m, d, l);
        let e16 = cluster(16).scaling_efficiency(n, m, d, l);
        assert!(e2 <= 1.0 + 1e-9);
        assert!(e16 < e2, "e16 = {e16}, e2 = {e2}");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = ClusterSpec::new(ResourceSpec::titan_xp(), 0, 1e9, 1e-6);
    }
}
