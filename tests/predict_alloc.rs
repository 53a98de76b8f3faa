//! The serving hot path's allocation contract: once its `PredictBuffers`
//! are warm, a full-width `predict_with_into` call allocates (far) less
//! than one copy of the weights — it reads the centers and `α` in place.
//!
//! Runs in its own test binary because it installs a counting
//! `#[global_allocator]`; the single test pins a 1-thread budget so no
//! worker thread allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eigenpro2::core::{KernelModel, PredictBuffers, PredictOptions};
use eigenpro2::kernels::{GaussianKernel, Kernel};
use eigenpro2::linalg::Matrix;

/// Counts every byte handed out (the default `realloc`/`alloc_zeroed`
/// route through `alloc`, so growth is counted too).
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Deterministic values in `[-1, 1)`.
fn draw(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) as f32
    })
}

#[test]
fn warm_full_width_predict_allocates_less_than_the_weights() {
    let (n, d, l) = (2000, 64, 16);
    let kernel: Arc<dyn Kernel<f32>> = Arc::new(GaussianKernel::new(4.0));
    let model = KernelModel::from_weights(kernel, draw(n, d, 1), draw(n, l, 2));
    let opts = PredictOptions::default();
    let weight_bytes = n * l * std::mem::size_of::<f32>();

    eigenpro2::runtime::with_budget(1, || {
        let mut bufs = PredictBuffers::new();
        for rows in [16, 1] {
            let x = draw(rows, d, 3 + rows as u64);
            let mut out = Matrix::zeros(rows, l);
            // Warm-up at this shape.
            model.predict_with_into(&x, &opts, &mut bufs, &mut out);
            let before = ALLOCATED.load(Ordering::Relaxed);
            model.predict_with_into(&x, &opts, &mut bufs, &mut out);
            let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
            assert!(
                bytes < weight_bytes,
                "{rows}-row call allocated {bytes} B (weights are {weight_bytes} B)"
            );
            assert_eq!(out.as_slice(), model.predict_with(&x, &opts).as_slice());
        }
    });
}
