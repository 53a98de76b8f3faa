//! Data-parallel EigenPro 2.0 across a simulated device cluster — the
//! paper's Section-6 future-work direction, built on
//! [`ep2_device::ClusterSpec`].
//!
//! Decomposition: the `n` kernel centers are sharded evenly across `g`
//! devices. Each iteration,
//!
//! 1. the mini-batch features are broadcast (`m·d` slots),
//! 2. every device computes its *partial* predictions
//!    `f_partial = K[batch, shard] α[shard]` (`(n/g)·m·(d+l)` ops),
//! 3. the partials are ring-all-reduced (`m·l` slots) to form `f`,
//! 4. each device updates the batch coordinates it owns (no communication:
//!    a batch index lives on exactly one shard), and
//! 5. the device owning the Nyström block applies the preconditioner
//!    correction and broadcasts the `s·l` fixed-block delta.
//!
//! Steps 2–5 are not re-implemented here: each shard's kernel block is one
//! column tile fed to [`EigenProIteration::step_streamed`], the same tile
//! body the in-core and out-of-core trainers run. The arithmetic is
//! therefore single-device EigenPro 2.0's (bit-for-bit at `g = 1`, to the
//! fp reordering of the prediction sum otherwise), so all of the paper's
//! analysis — and the adaptive kernel construction, now targeting the
//! aggregate capacity `g·C_G` — carries over. What changes is the clock:
//! compute shrinks by `g`, communication grows with `g`, and the crossover
//! defines the useful cluster size.

use ep2_device::{ClusterSpec, DeviceMode};
use ep2_linalg::Matrix;
use ep2_stream::TileGuard;

use crate::counter::FlopCounter;
use crate::iteration::EigenProIteration;
use crate::model::KernelModel;
use crate::precond::Preconditioner;

/// One sharded training iteration driver.
///
/// The arithmetic is [`EigenProIteration`]'s: each shard's `m x (n/g)`
/// kernel block is one column tile of the batch block, so weights live in
/// a single global matrix (the shards' weight slices are disjoint row
/// ranges) and final models are directly comparable with single-device
/// training. This type adds only the shard layout and the cluster clock.
#[derive(Debug)]
pub struct DistributedEigenProIteration {
    iter: EigenProIteration,
    cluster: ClusterSpec,
    mode: DeviceMode,
    shard_bounds: Vec<usize>,
    simulated_seconds: f64,
}

impl DistributedEigenProIteration {
    /// Creates the driver, sharding the model's centers evenly across the
    /// cluster's devices.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not positive and finite.
    pub fn new(
        model: KernelModel,
        precond: Option<Preconditioner>,
        cluster: ClusterSpec,
        mode: DeviceMode,
        eta: f64,
    ) -> Self {
        let n = model.n_centers();
        let g = cluster.n_devices;
        let per = n.div_ceil(g);
        let shard_bounds = (0..=g).map(|i| (i * per).min(n)).collect();
        DistributedEigenProIteration {
            iter: EigenProIteration::new(model, precond, eta),
            cluster,
            mode,
            shard_bounds,
            simulated_seconds: 0.0,
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &KernelModel {
        self.iter.model()
    }

    /// Consumes the driver, returning the trained model.
    pub fn into_model(self) -> KernelModel {
        self.iter.into_model()
    }

    /// Simulated cluster seconds accumulated so far.
    pub fn simulated_seconds(&self) -> f64 {
        self.simulated_seconds
    }

    /// Operation counter (per-device ops are `total / g` under even shards).
    pub fn counter(&self) -> &FlopCounter {
        self.iter.counter()
    }

    /// Shard boundary indices (`g + 1` entries; shard `i` owns rows
    /// `bounds[i]..bounds[i+1]`).
    pub fn shard_bounds(&self) -> &[usize] {
        &self.shard_bounds
    }

    /// Executes one sharded Algorithm-1 iteration; returns the simulated
    /// cluster seconds this iteration took.
    ///
    /// # Panics
    ///
    /// Panics if any batch index is out of range or `y` has wrong shape.
    pub fn step(&mut self, batch_indices: &[usize], y: &Matrix) -> f64 {
        let model = self.iter.model();
        let (n, d, l) = (model.n_centers(), model.dim(), model.n_outputs());
        let m = batch_indices.len();
        assert!(m > 0, "empty mini-batch");

        // Each device assembles its shard's kernel block against the
        // broadcast batch; the tile body sums the partial predictions (the
        // all-reduce) and gathers Φ from whichever shard owns each
        // subsample center.
        let kernel = model.kernel().clone();
        let centers = model.centers_shared();
        let batch_x = centers.select_rows(batch_indices);
        let shards = self.shard_bounds.windows(2).filter(|b| b[0] < b[1]);
        let tiles = shards.map(|b| {
            let shard_centers = centers.submatrix(b[0], 0, b[1] - b[0], d);
            let block =
                ep2_kernels::matrix::kernel_cross(kernel.as_ref(), &batch_x, &shard_centers);
            TileGuard::detached(b[0], block)
        });
        self.iter.step_streamed(batch_indices, y, tiles);

        // Cluster clock: compute on n/g-center shards + batch broadcast +
        // prediction all-reduce + fixed-block delta broadcast.
        let mut t = self.cluster.iteration_time(self.mode, n, m, d, l);
        if let Some(precond) = self.iter.precond() {
            let precond_ops = precond.correction_ops(m, l);
            if precond_ops > 0.0 {
                t += ep2_device::timing::iteration_time(
                    &self.cluster.device,
                    self.mode,
                    precond_ops,
                ) + self.cluster.broadcast_time((precond.s() * l) as f64);
            }
        }
        self.simulated_seconds += t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iteration::EigenProIteration;
    use ep2_kernels::{GaussianKernel, Kernel};
    use std::sync::Arc;

    fn toy(n: usize) -> (Matrix, Matrix, Arc<dyn Kernel>) {
        let mut state = 5_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x = Matrix::from_fn(n, 3, |i, _| 1.5 * ((i % 3) as f64) + 0.2 * next());
        let y = Matrix::from_fn(n, 2, |i, j| if i % 2 == j { 1.0 } else { 0.0 });
        (x, y, Arc::new(GaussianKernel::new(1.0)))
    }

    #[test]
    fn sharded_step_matches_single_device() {
        let (x, y, k) = toy(60);
        let p = Preconditioner::fit_damped(&k, &x, 30, 4, 0.95, 1).unwrap();
        let eta = 5.0;
        let batch: Vec<usize> = (0..20).map(|i| i * 3).collect();

        let mut single = EigenProIteration::new(
            KernelModel::zeros(k.clone(), x.clone(), 2),
            Some(p.clone()),
            eta,
        );
        single.step(&batch, &y);

        for g in [1usize, 2, 4, 7] {
            let cluster = ClusterSpec::titan_xp_bank(g);
            let mut dist = DistributedEigenProIteration::new(
                KernelModel::zeros(k.clone(), x.clone(), 2),
                Some(p.clone()),
                cluster,
                DeviceMode::ActualGpu,
                eta,
            );
            dist.step(&batch, &y);
            let a = single.model().weights().as_slice();
            let b = dist.model().weights().as_slice();
            if g == 1 {
                // One shard is one full-width tile: the in-core step exactly.
                assert_eq!(a, b, "g = 1 must be bit-for-bit single-device");
            }
            let max_diff = a
                .iter()
                .zip(b)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0_f64, f64::max);
            assert!(max_diff < 1e-10, "g = {g}: max weight diff {max_diff}");
        }
    }

    #[test]
    fn more_devices_faster_iterations_at_large_batch() {
        let (x, y, k) = toy(120);
        let batch: Vec<usize> = (0..120).collect();
        let time_for = |g: usize| {
            // Free, zero-latency link isolates the compute scaling (at toy
            // n the real link cost would dominate nanosecond compute).
            let cluster = ClusterSpec::new(ep2_device::ResourceSpec::titan_xp(), g, 1e30, 0.0);
            let mut it = DistributedEigenProIteration::new(
                KernelModel::zeros(k.clone(), x.clone(), 2),
                None,
                cluster,
                DeviceMode::Sequential, // expose raw compute scaling
                1.0,
            );
            it.step(&batch, &y)
        };
        let t1 = time_for(1);
        let t4 = time_for(4);
        assert!(t4 < t1, "t4 = {t4}, t1 = {t1}");
    }

    #[test]
    fn communication_charged_for_multi_device() {
        let (x, y, k) = toy(40);
        let batch: Vec<usize> = (0..40).collect();
        // Ideal-parallel mode: compute time is constant per launch, so the
        // difference between g = 1 and g = 2 is pure communication.
        let run = |g: usize| {
            let mut it = DistributedEigenProIteration::new(
                KernelModel::zeros(k.clone(), x.clone(), 2),
                None,
                ClusterSpec::titan_xp_bank(g),
                DeviceMode::IdealParallel,
                1.0,
            );
            it.step(&batch, &y)
        };
        assert!(run(2) > run(1));
    }

    #[test]
    fn shard_bounds_cover_all_centers() {
        let (x, _, k) = toy(53);
        let it = DistributedEigenProIteration::new(
            KernelModel::zeros(k, x, 2),
            None,
            ClusterSpec::titan_xp_bank(4),
            DeviceMode::ActualGpu,
            1.0,
        );
        let b = it.shard_bounds();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 53);
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
