//! The kernel predictor `f(x) = Σ_i α_i k(x_i, x)`, generic over the
//! numeric precision `S`.

use std::sync::Arc;

use ep2_device::Precision;
use ep2_kernels::{matrix as kmat, Kernel, KernelKind};
use ep2_linalg::gemm::{self, View};
use ep2_linalg::{Matrix, Scalar};

/// Default row-block size for prediction: the transient kernel panel stays
/// below ~`1024 x n` elements unless the caller plans otherwise.
pub const DEFAULT_PREDICT_BLOCK_ROWS: usize = 1024;

/// Smallest row block / column tile [`PredictOptions::planned`] will pick
/// before giving up on fitting the budget exactly (a floor, not a promise —
/// the ledger still audits the real charge).
const MIN_PLANNED_BLOCK: usize = 16;
const MIN_PLANNED_TILE: usize = 64;

/// How [`KernelModel::predict_with`] evaluates: row-block size and an
/// optional center-side tile width.
///
/// Build it fluently — defaults are 1024-row blocks and full-width kernel
/// panels:
///
/// ```
/// use ep2_core::model::PredictOptions;
///
/// let opts = PredictOptions::new().block_rows(256).col_tile(512);
/// assert_eq!(opts.block_rows, 256);
/// ```
///
/// or let [`PredictOptions::planned`] derive the blocking from a device
/// memory budget, the way the serve path sizes its micro-batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictOptions {
    /// Rows of `x` evaluated per kernel panel (`> 0`).
    pub block_rows: usize,
    /// Center-side tile width; `None` materialises full `block_rows x n`
    /// panels, `Some(t)` caps the transient panel at `block_rows x t` and
    /// accumulates tile by tile.
    pub col_tile: Option<usize>,
}

impl Default for PredictOptions {
    fn default() -> Self {
        PredictOptions {
            block_rows: DEFAULT_PREDICT_BLOCK_ROWS,
            col_tile: None,
        }
    }
}

impl PredictOptions {
    /// The default options ([`Default::default`], fluently nameable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the row-block size.
    pub fn block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows;
        self
    }

    /// Sets the center-side tile width.
    pub fn col_tile(mut self, tile: usize) -> Self {
        self.col_tile = Some(tile);
        self
    }

    /// Plans blocking factors from a device memory budget: the largest
    /// `block_rows x col_tile` shape (halving rows from
    /// [`DEFAULT_PREDICT_BLOCK_ROWS`], then narrowing the tile) whose
    /// transient slots — kernel panel + staged input block + output block,
    /// `block_rows·(tile + d + l)`, plus the `n`-slot center-norm cache —
    /// fit `budget_slots` at this precision's slot width. Best-effort: when
    /// even the floor shape (16 x 64) exceeds the budget it returns the
    /// floor and leaves enforcement to the ledger that audits the real
    /// charge.
    pub fn planned(n: usize, d: usize, l: usize, budget_slots: f64, precision: Precision) -> Self {
        let avail = (budget_slots / precision.slot_factor() - n as f64).max(0.0);
        let mut rows = DEFAULT_PREDICT_BLOCK_ROWS;
        let fits_full = |rows: usize| (rows * (n + d + l)) as f64 <= avail;
        while rows > MIN_PLANNED_BLOCK && !fits_full(rows) {
            rows /= 2;
        }
        if fits_full(rows) {
            return PredictOptions::new().block_rows(rows);
        }
        // Full-width panels never fit: tile the centers as wide as the
        // budget allows at the floor row block.
        let tile_f = (avail / rows as f64 - (d + l) as f64).floor();
        let floor = MIN_PLANNED_TILE.min(n.max(1));
        let tile = if tile_f.is_finite() && tile_f > 0.0 {
            (tile_f as usize).clamp(floor, n.max(1))
        } else {
            floor
        };
        PredictOptions::new().block_rows(rows).col_tile(tile)
    }

    /// Slots one prediction call transiently charges under these options
    /// for an `n`-center, `d`-feature, `l`-output model at `precision` —
    /// what the serve engine charges its ledger per worker.
    pub fn transient_slots(&self, n: usize, d: usize, l: usize, precision: Precision) -> f64 {
        let tile = self.col_tile.unwrap_or(n).min(n.max(1));
        (self.block_rows * (tile + d + l) + n) as f64 * precision.slot_factor()
    }
}

/// Recycled scratch for [`KernelModel::predict_with_into`] — the
/// zero-allocation serving hot path.
///
/// Holds the center-side norm cache (computed once per model, revalidated
/// by the centers' `Arc` identity), the per-block input norms, the staged
/// input block, the staged center tile (column-tiled calls only; full-width
/// panels read the centers in place), the kernel panel, and the output
/// block. The weights are read in place. After the first call at the
/// largest batch shape, subsequent calls allocate nothing — no copy of the
/// model is taken per call.
#[derive(Debug)]
pub struct PredictBuffers<S: Scalar> {
    /// Center-norm cache key: `Arc::as_ptr` of the centers it was built
    /// from (0 = never built).
    c_sq_key: usize,
    c_sq: Vec<S::Accum>,
    b_sq: Vec<S::Accum>,
    x_block: Matrix<S>,
    c_tile: Matrix<S>,
    k_tile: Matrix<S>,
    f_block: Matrix<S>,
}

impl<S: Scalar> Default for PredictBuffers<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> PredictBuffers<S> {
    /// Fresh (empty) buffers.
    pub fn new() -> Self {
        PredictBuffers {
            c_sq_key: 0,
            c_sq: Vec::new(),
            b_sq: Vec::new(),
            x_block: Matrix::zeros(0, 0),
            c_tile: Matrix::zeros(0, 0),
            k_tile: Matrix::zeros(0, 0),
            f_block: Matrix::zeros(0, 0),
        }
    }

    /// Ensures the center-norm cache matches `model`'s centers, rebuilding
    /// it only when the model changed since the last call.
    fn center_norms(&mut self, model: &KernelModel<S>) {
        let key = Arc::as_ptr(&model.centers) as *const u8 as usize;
        if self.c_sq_key != key || self.c_sq.len() != model.n_centers() {
            kmat::row_sq_norms_into(&model.centers, &mut self.c_sq);
            self.c_sq_key = key;
        }
    }
}

/// A kernel machine: training points as centers plus an `n x l` weight
/// matrix `α`, with all buffers stored in precision `S` (default `f64`).
///
/// Both EigenPro 2.0 and every baseline (plain SGD, EigenPro 1, FALKON's
/// Nyström-restricted variant, the direct solver) produce predictions
/// through this type, so evaluation code is shared and comparisons are
/// apples-to-apples. Under the f32/mixed precision policies the centers,
/// weights, and transient kernel blocks are all f32 — half the resident
/// memory the device ledger charges, and the memory-bound prediction GEMM
/// runs correspondingly faster.
///
/// The (immutable) center matrix is held behind an [`Arc`]: cloning a model
/// shares the training features instead of copying them, and the out-of-core
/// streaming engine holds the same handle its producers assemble tiles from
/// while the trainer mutates the weights — no aliasing, no duplicate copy of
/// the (potentially enormous) training set.
#[derive(Debug, Clone)]
pub struct KernelModel<S: Scalar = f64> {
    kernel: Arc<dyn Kernel<S>>,
    centers: Arc<Matrix<S>>,
    weights: Matrix<S>,
}

impl<S: Scalar> KernelModel<S> {
    /// Creates a model with zero weights over the given centers.
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty or `l == 0`.
    pub fn zeros(kernel: Arc<dyn Kernel<S>>, centers: Matrix<S>, l: usize) -> Self {
        Self::zeros_shared(kernel, Arc::new(centers), l)
    }

    /// [`KernelModel::zeros`] over an already-shared center matrix (the
    /// out-of-core trainer hands the same `Arc` to the streaming engine).
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty or `l == 0`.
    pub fn zeros_shared(kernel: Arc<dyn Kernel<S>>, centers: Arc<Matrix<S>>, l: usize) -> Self {
        assert!(centers.rows() > 0, "model needs at least one center");
        assert!(l > 0, "label dimension must be positive");
        let weights = Matrix::zeros(centers.rows(), l);
        KernelModel {
            kernel,
            centers,
            weights,
        }
    }

    /// Creates a model from explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.rows() != centers.rows()`.
    pub fn from_weights(
        kernel: Arc<dyn Kernel<S>>,
        centers: Matrix<S>,
        weights: Matrix<S>,
    ) -> Self {
        assert_eq!(weights.rows(), centers.rows(), "weights/centers mismatch");
        KernelModel {
            kernel,
            centers: Arc::new(centers),
            weights,
        }
    }

    /// Number of centers `n`.
    pub fn n_centers(&self) -> usize {
        self.centers.rows()
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.centers.cols()
    }

    /// Output dimension `l`.
    pub fn n_outputs(&self) -> usize {
        self.weights.cols()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Arc<dyn Kernel<S>> {
        &self.kernel
    }

    /// The center matrix (training features).
    pub fn centers(&self) -> &Matrix<S> {
        &self.centers
    }

    /// A shared handle to the center matrix — what the out-of-core
    /// streaming producers assemble kernel tiles from while the trainer
    /// owns the model mutably.
    pub fn centers_shared(&self) -> Arc<Matrix<S>> {
        Arc::clone(&self.centers)
    }

    /// The weight matrix `α` (`n x l`).
    pub fn weights(&self) -> &Matrix<S> {
        &self.weights
    }

    /// Mutable access to the weights — the coordinate blocks Algorithm 1
    /// updates.
    pub fn weights_mut(&mut self) -> &mut Matrix<S> {
        &mut self.weights
    }

    /// Converts the model to another precision.
    ///
    /// The kernel object is re-instantiated from its named family at the
    /// same bandwidth, so this only works for the named kernels
    /// (`KernelKind::parse(self.kernel().name())` must succeed) — true for
    /// every kernel this workspace constructs.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is a custom (unnamed) implementation.
    pub fn cast<T: Scalar>(&self) -> KernelModel<T> {
        let kind = KernelKind::parse(self.kernel.name())
            .unwrap_or_else(|| panic!("cannot cast custom kernel {}", self.kernel.name()));
        let kernel: Arc<dyn Kernel<T>> =
            kind.with_bandwidth_in::<T>(self.kernel.bandwidth()).into();
        KernelModel {
            kernel,
            centers: Arc::new(self.centers.cast()),
            weights: self.weights.cast(),
        }
    }

    /// Predicts `f(x)` for every row of `x` under explicit evaluation
    /// [`PredictOptions`], returning an `(x.rows(), l)` matrix.
    ///
    /// This is the single prediction entry point: row blocks of `x` are
    /// evaluated against center-side kernel panels (full width, or tiled by
    /// [`PredictOptions::col_tile`] to respect an out-of-core budget:
    /// `f += K[:, j0..j1] · α[j0..j1, :]`). One kernel-panel buffer is
    /// recycled across *all* row blocks and column tiles.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()` or a blocking factor is 0.
    pub fn predict_with(&self, x: &Matrix<S>, opts: &PredictOptions) -> Matrix<S> {
        let mut bufs = PredictBuffers::new();
        let mut out = Matrix::zeros(x.rows(), self.n_outputs());
        self.predict_with_into(x, opts, &mut bufs, &mut out);
        out
    }

    /// [`KernelModel::predict_with`] through caller-recycled scratch and
    /// into a preallocated output — the zero-allocation serving hot path.
    /// Produces exactly (bit-for-bit) the values `predict_with` produces at
    /// the same options.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`, `out` is not `(x.rows(), l)`, or
    /// a blocking factor is 0.
    pub fn predict_with_into(
        &self,
        x: &Matrix<S>,
        opts: &PredictOptions,
        bufs: &mut PredictBuffers<S>,
        out: &mut Matrix<S>,
    ) {
        assert_eq!(x.cols(), self.dim(), "predict: feature dim mismatch");
        assert!(opts.block_rows > 0, "block_rows must be positive");
        assert!(opts.col_tile != Some(0), "col_tile must be positive");
        let n = self.n_centers();
        let l = self.n_outputs();
        let m = x.rows();
        assert_eq!(out.shape(), (m, l), "predict: output shape mismatch");
        let col_tile = opts.col_tile.unwrap_or(n).min(n);
        // Center-side norms are cached across calls (revalidated by Arc
        // identity) and sliced per tile; the input-side norms and the
        // kernel panel live in recycled buffers.
        bufs.center_norms(self);
        let mut row0 = 0;
        while row0 < m {
            let rows = opts.block_rows.min(m - row0);
            // Whole-input blocks (the serving case: one micro-batch, one
            // block) borrow `x` directly; partial blocks stage into the
            // recycled copy.
            let block: &Matrix<S> = if rows == m {
                x
            } else {
                bufs.x_block.resize(rows, x.cols());
                for i in 0..rows {
                    bufs.x_block.row_mut(i).copy_from_slice(x.row(row0 + i));
                }
                &bufs.x_block
            };
            kmat::row_sq_norms_into(block, &mut bufs.b_sq);
            bufs.f_block.resize(rows, l);
            let mut j0 = 0;
            while j0 < n {
                let cols = col_tile.min(n - j0);
                // Full-width panels borrow the centers; narrower tiles
                // stage their rows into the recycled copy.
                let c_tile: &Matrix<S> = if cols == n {
                    &self.centers
                } else {
                    bufs.c_tile.resize(cols, self.dim());
                    bufs.c_tile.as_mut_slice().copy_from_slice(
                        &self.centers.as_slice()[j0 * self.dim()..(j0 + cols) * self.dim()],
                    );
                    &bufs.c_tile
                };
                bufs.k_tile.resize(rows, cols);
                kmat::kernel_cross_into(
                    self.kernel.as_ref(),
                    block,
                    c_tile,
                    &bufs.b_sq,
                    &bufs.c_sq[j0..j0 + cols],
                    &mut bufs.k_tile,
                );
                self.accumulate_tile(&bufs.k_tile, j0, &mut bufs.f_block);
                j0 += cols;
            }
            for i in 0..rows {
                out.row_mut(row0 + i).copy_from_slice(bufs.f_block.row(i));
            }
            row0 += rows;
        }
    }

    /// Predicts from a precomputed kernel block `k_block[i][j] = k(x_i,
    /// c_j)` (used inside the training loop where the block is already
    /// available), returning `k_block · α`.
    ///
    /// # Panics
    ///
    /// Panics if `k_block.cols() != self.n_centers()`.
    pub fn predict_from_kernel_block(&self, k_block: &Matrix<S>) -> Matrix<S> {
        assert_eq!(
            k_block.cols(),
            self.n_centers(),
            "kernel block width mismatch"
        );
        let mut f = Matrix::zeros(k_block.rows(), self.n_outputs());
        self.accumulate_tile(k_block, 0, &mut f);
        f
    }

    /// `f += k_tile · α[j0..j0 + k_tile.cols()]` — the one place a kernel
    /// tile meets the weights, shared by training and prediction. The
    /// weight rows are a contiguous range of `α`, read in place.
    ///
    /// # Panics
    ///
    /// Panics if the tile overruns the centers or `f` is not
    /// `(k_tile.rows(), l)`.
    pub(crate) fn accumulate_tile(&self, k_tile: &Matrix<S>, j0: usize, f: &mut Matrix<S>) {
        let (rows, cols) = k_tile.shape();
        let l = self.n_outputs();
        assert!(
            j0 + cols <= self.n_centers(),
            "kernel tile overruns centers"
        );
        assert_eq!(f.shape(), (rows, l), "prediction block shape mismatch");
        gemm::gemm_auto(
            S::ONE,
            View::row_major(k_tile.as_slice(), rows, cols),
            View::row_major(&self.weights.as_slice()[j0 * l..(j0 + cols) * l], cols, l),
            S::ONE,
            f.as_mut_slice(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ep2_kernels::GaussianKernel;

    fn toy_model() -> KernelModel {
        let centers = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 0.0]]);
        let kernel: Arc<dyn Kernel> = Arc::new(GaussianKernel::new(1.0));
        KernelModel::zeros(kernel, centers, 2)
    }

    fn predict_default(m: &KernelModel, x: &Matrix) -> Matrix {
        m.predict_with(x, &PredictOptions::default())
    }

    #[test]
    fn zero_model_predicts_zero() {
        let m = toy_model();
        let x = Matrix::from_rows(&[&[0.5, 0.5]]);
        let p = predict_default(&m, &x);
        assert_eq!(p.shape(), (1, 2));
        assert_eq!(p.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn single_center_unit_weight() {
        let kernel: Arc<dyn Kernel> = Arc::new(GaussianKernel::new(1.0));
        let centers = Matrix::from_rows(&[&[0.0]]);
        let weights = Matrix::from_rows(&[&[1.0]]);
        let m = KernelModel::from_weights(kernel.clone(), centers, weights);
        let x = Matrix::from_rows(&[&[1.0]]);
        let expect = kernel.eval(&[0.0], &[1.0]);
        assert!((predict_default(&m, &x)[(0, 0)] - expect).abs() < 1e-14);
    }

    #[test]
    fn blocked_prediction_matches_unblocked() {
        let mut m = toy_model();
        // Set some nonzero weights.
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let x = Matrix::from_fn(10, 2, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1);
        let a = m.predict_with(&x, &PredictOptions::new().block_rows(3));
        let b = m.predict_with(&x, &PredictOptions::new().block_rows(100));
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn tiled_prediction_matches_unblocked() {
        let mut m = toy_model();
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let x = Matrix::from_fn(10, 2, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1);
        let full = predict_default(&m, &x);
        for (rows, cols) in [(1, 1), (3, 2), (100, 3), (4, 100)] {
            let opts = PredictOptions::new().block_rows(rows).col_tile(cols);
            let tiled = m.predict_with(&x, &opts);
            for (u, v) in tiled.as_slice().iter().zip(full.as_slice()) {
                assert!((u - v).abs() < 1e-14, "tile {rows}x{cols}");
            }
        }
    }

    #[test]
    fn predict_with_into_reuses_buffers_and_matches() {
        let mut m = toy_model();
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let opts = PredictOptions::new().block_rows(4).col_tile(2);
        let mut bufs = PredictBuffers::new();
        for rows in [7, 3, 7] {
            let x = Matrix::from_fn(rows, 2, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1);
            let mut out = Matrix::zeros(rows, 2);
            m.predict_with_into(&x, &opts, &mut bufs, &mut out);
            assert_eq!(out.as_slice(), m.predict_with(&x, &opts).as_slice());
        }
    }

    #[test]
    fn planned_options_respect_budget() {
        use ep2_device::Precision;
        let (n, d, l) = (10_000, 64, 10);
        // A roomy budget keeps the default full-width shape.
        let roomy = PredictOptions::planned(n, d, l, 1e9, Precision::F64);
        assert_eq!(roomy.block_rows, DEFAULT_PREDICT_BLOCK_ROWS);
        assert_eq!(roomy.col_tile, None);
        // A tight budget shrinks until the transient charge fits.
        let budget = 2e5;
        let tight = PredictOptions::planned(n, d, l, budget, Precision::F32);
        assert!(tight.transient_slots(n, d, l, Precision::F32) <= budget);
        // bf16 halves the slot width, so the same budget fits wider shapes.
        let bf = PredictOptions::planned(n, d, l, budget, Precision::Bf16);
        assert!(
            bf.block_rows > tight.block_rows
                || bf.col_tile.unwrap_or(n) >= tight.col_tile.unwrap_or(n)
        );
    }

    #[test]
    fn clone_shares_centers() {
        let m = toy_model();
        let c = m.clone();
        assert!(std::sync::Arc::ptr_eq(
            &m.centers_shared(),
            &c.centers_shared()
        ));
    }

    #[test]
    fn predict_from_block_consistent() {
        let mut m = toy_model();
        m.weights_mut()[(1, 0)] = 2.0;
        let x = Matrix::from_rows(&[&[0.2, 0.4], &[1.5, -0.5]]);
        let k_block = ep2_kernels::matrix::kernel_cross(m.kernel().as_ref(), &x, m.centers());
        let a = m.predict_from_kernel_block(&k_block);
        let b = predict_default(&m, &x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn cast_preserves_predictions_to_single_eps() {
        let mut m = toy_model();
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let m32: KernelModel<f32> = m.cast();
        assert_eq!(m32.kernel().name(), "gaussian");
        assert_eq!(m32.kernel().bandwidth(), 1.0);
        let x = Matrix::from_fn(6, 2, |i, j| (i as f64) * 0.4 - (j as f64) * 0.2);
        let p64 = predict_default(&m, &x);
        let p32 = m32.predict_with(&x.cast(), &PredictOptions::default());
        for (a, b) in p32.as_slice().iter().zip(p64.as_slice()) {
            assert!((*a as f64 - b).abs() < 1e-5);
        }
        // Round-trip back to f64 keeps shapes and kernel identity.
        let back: KernelModel = m32.cast();
        assert_eq!(back.n_centers(), 3);
        assert_eq!(back.n_outputs(), 2);
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn dim_mismatch_panics() {
        let m = toy_model();
        let x = Matrix::zeros(1, 3);
        let _ = predict_default(&m, &x);
    }
}
