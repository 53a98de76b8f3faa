//! Dense symmetric eigensolver.
//!
//! [`sym_eig`] computes the full eigendecomposition of a real symmetric
//! matrix via Householder tridiagonalisation followed by the implicit-shift
//! QL iteration (the classic EISPACK `tred2`/`tql2` pair). This is the
//! workhorse behind the Nyström preconditioner: EigenPro 2.0 only ever
//! eigendecomposes the `s x s` *subsample* kernel matrix, so a dense
//! `O(s^3)` solver is exactly what the paper's Algorithm 1 calls for.
//!
//! The iteration itself always runs in `f64` — that is the [`Scalar::Accum`]
//! contract: eigensolves are *setup-time* (once per training run, `O(s³)` on
//! an `s x s` matrix), so unlike the per-iteration GEMM hot paths they cost
//! nothing to keep in double precision, while the spectrum they produce
//! feeds the analytic step size where f32 rounding would be structural
//! error. Generic callers get their input upcast, solved, and the
//! eigenvectors rounded back to `S`; [`sym_eig_f64`] exposes the
//! full-precision spectrum for precision-sensitive consumers (the
//! preconditioner keeps eigen*values* in f64 even when training in f32).
//!
//! Eigenvalues are returned in **descending** order (the kernel-methods
//! convention `λ₁ ≥ λ₂ ≥ …`).
//!
//! # Working layout
//!
//! EISPACK's loops walk columns of the eigenvector matrix `V`; on a
//! row-major [`Matrix`] every such inner loop is a stride-`n` scalar walk.
//! The solver therefore works on `W = Vᵀ`: the original's `V[k][j]` lives at
//! `W[j][k]`, so every `k` loop is a contiguous row slice, each QL rotation
//! updates two adjacent rows, and the Householder dot products of
//! independent rows run side by side: four rows at a time in the reduction,
//! and sixteen in the accumulation of the transformation, whose rows never
//! read each other and so go through every reflector together. The
//! symmetrised input is its own transpose, so `W` starts as the input, and
//! eigenvector `j` is read out of row `j` of `W` at the end.
//!
//! # Bit-for-bit output
//!
//! The layout changes which memory each loop touches, never the arithmetic:
//! every element sees the same operations in the same order as in the
//! column-walking original. Dot products are still summed from `0.0` in
//! index order (interleaving them across rows never splits or re-associates
//! one sum), and nothing is contracted into a fused multiply-add. The
//! eigendecomposition, and so every model trained from it, is therefore
//! bitwise identical to the reference `tred2`/`tql2`; the golden hashes in
//! `tests/eigen_parity.rs` pin that.

use crate::scalar::{cast_slice, Scalar};
use crate::{LinalgError, Matrix};

/// Maximum QL iterations per eigenvalue before reporting failure.
const MAX_QL_ITERS: usize = 64;

/// A full symmetric eigendecomposition `A = V diag(λ) V^T`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition<S: Scalar = f64> {
    /// Eigenvalues in descending order.
    pub values: Vec<S>,
    /// Orthonormal eigenvectors; column `i` corresponds to `values[i]`.
    pub vectors: Matrix<S>,
}

impl<S: Scalar> EigenDecomposition<S> {
    /// The top `q` eigenpairs as `(values, n x q vectors)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` exceeds the decomposition size.
    pub fn top_q(&self, q: usize) -> (Vec<S>, Matrix<S>) {
        assert!(
            q <= self.values.len(),
            "q = {q} exceeds {}",
            self.values.len()
        );
        let n = self.vectors.rows();
        let vals = self.values[..q].to_vec();
        let mut vecs = Matrix::zeros(n, q);
        for j in 0..q {
            for i in 0..n {
                vecs[(i, j)] = self.vectors[(i, j)];
            }
        }
        (vals, vecs)
    }

    /// Converts the decomposition to another precision.
    pub fn cast<T: Scalar>(&self) -> EigenDecomposition<T> {
        EigenDecomposition {
            values: cast_slice(&self.values),
            vectors: self.vectors.cast(),
        }
    }
}

/// Computes the full eigendecomposition of the symmetric matrix `a`,
/// returning values/vectors in the input precision. The solve itself runs
/// in `f64` (see the module docs).
///
/// Only the lower triangle is referenced conceptually; the input is
/// symmetrised defensively (`(A + A^T)/2`) to wash out round-off asymmetry
/// from kernel-matrix assembly.
///
/// # Errors
///
/// Returns [`LinalgError::NoConvergence`] if the QL iteration fails (does not
/// happen for finite symmetric input in practice) and
/// [`LinalgError::InvalidArgument`] if `a` is not square or has a NaN or
/// infinite entry (the message names the first one). Non-finite input is
/// refused up front: it would otherwise run the QL iteration to its budget
/// and surface as a misleading `NoConvergence`.
pub fn sym_eig<S: Scalar>(a: &Matrix<S>) -> Result<EigenDecomposition<S>, LinalgError> {
    Ok(sym_eig_f64(a)?.cast())
}

/// [`sym_eig`] returning the decomposition in full (`f64`) precision
/// regardless of the input precision — the entry point the EigenPro
/// preconditioner uses so that spectra stay double-precision under f32 and
/// mixed-precision training.
///
/// # Errors
///
/// Same conditions as [`sym_eig`].
pub fn sym_eig_f64<S: Scalar>(a: &Matrix<S>) -> Result<EigenDecomposition<f64>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::InvalidArgument {
            message: format!("sym_eig requires a square matrix, got {:?}", a.shape()),
        });
    }
    let n = a.rows();
    if let Some(at) = a.as_slice().iter().position(|v| !v.is_finite()) {
        let (i, j) = (at / n, at % n);
        return Err(LinalgError::InvalidArgument {
            message: format!(
                "sym_eig requires finite entries, got {} at ({i}, {j})",
                a[(i, j)].to_f64()
            ),
        });
    }
    if n == 0 {
        return Ok(EigenDecomposition {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        });
    }
    // The working matrix is `W = Vᵀ`; the symmetrised input is its own
    // transpose, so it starts as `W`.
    let mut w: Matrix<f64> = a.cast();
    w.symmetrize();
    let w = w.as_mut_slice();
    let mut d = vec![0.0_f64; n];
    let mut e = vec![0.0_f64; n];
    tred2(w, &mut d, &mut e);
    tql2(w, &mut d, &mut e)?;
    // tql2 leaves eigenvalues ascending (after its internal sort); flip to
    // descending.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
    let values: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    // Eigenvector `j` is row `j` of `W`.
    let vectors = Matrix::from_fn(n, n, |i, j| w[idx[j] * n + i]);
    Ok(EigenDecomposition { values, vectors })
}

/// Householder reduction of the symmetric `n x n` matrix `w` (row-major) to
/// tridiagonal form.
///
/// On exit `d` holds the diagonal, `e` the subdiagonal (in `e[1..]`), and `w`
/// the *transpose* of the accumulated orthogonal transformation. This is the
/// EISPACK `tred2` routine (via the public-domain JAMA translation), 0-indexed,
/// with every `V[k][j]` of the original stored at `w[j * n + k]`.
fn tred2(w: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    // `W` is symmetric on entry, so its last column is its last row.
    d.copy_from_slice(&w[(n - 1) * n..]);
    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0_f64;
        let mut h = 0.0_f64;
        for item in &d[..i] {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Generate Householder vector.
            for item in &mut d[..i] {
                *item /= scale;
                h += *item * *item;
            }
            let f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                w[i * n + j] = d[j];
            }
            similarity_rows(&w[..i * n], n, &d[..i], &mut e[..i]);
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let f = d[j];
                let g = e[j];
                let row = &mut w[j * n..(j + 1) * n];
                for ((wk, ek), dk) in row[j..i].iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *wk -= f * ek + g * dk;
                }
                d[j] = row[i - 1];
                row[i] = 0.0;
            }
        }
        d[i] = h;
    }
    accumulate(w, d);
    e[0] = 0.0;
}

/// Rows of `W` that [`accumulate`] carries through the reflectors together.
const PANEL: usize = 16;

/// One panel row: entry `k` of each of [`PANEL`] rows of `W`.
type Lanes = [f64; PANEL];

/// The accumulation phase of [`tred2`]: overwrites `w` with the transpose of
/// the orthogonal transformation and `d` with the tridiagonal's diagonal.
///
/// On entry row `i + 1` of `w` holds reflector `i` in its first `i + 1`
/// entries, `d[i + 1]` its scale `h`, and the diagonal of `w` the
/// tridiagonal's diagonal. Row `j` of the result starts as `e_j` when
/// reflector `j` is applied and then takes reflectors `j, j + 1, …, n - 2`
/// in turn: reflector `i` subtracts `(u · r) u / h` from the first `i + 1`
/// entries of row `r`.
///
/// Rows never read each other, so [`PANEL`] of them run through the
/// reflectors together, transposed into a panel where each dot product is
/// one vector lane, still summed from `0.0` in `k` order. A lane that has
/// not started is all `+0.0`, which a reflector leaves unchanged (its dot
/// product is `+0.0`), so starting it as `e_j` sets a single entry. Each
/// reflector's update is applied in the same pass over the panel as the
/// next reflector's dot product, which reads every entry right after its
/// update.
fn accumulate(w: &mut [f64], d: &mut [f64]) {
    let n = d.len();
    let h = d.to_vec();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + j];
    }
    let mut panel: Vec<Lanes> = vec![[0.0; PANEL]; n];
    let mut scaled = vec![0.0_f64; n];
    for j0 in (0..n - 1).step_by(PANEL) {
        panel.fill([0.0; PANEL]);
        // The dot products of the last reflector, whose update is still to
        // be applied; its `u / h` is in `scaled`.
        let mut pending: Option<Lanes> = None;
        for i in j0..n - 1 {
            if let Some(start) = panel[i].get_mut(i - j0) {
                *start = 1.0;
            }
            let hi = h[i + 1];
            if hi == 0.0 {
                if let Some(g) = pending.take() {
                    reflect(&mut panel[..i], &g, &scaled[..i]);
                }
                continue;
            }
            let u = &w[(i + 1) * n..(i + 1) * n + i + 1];
            let g = match pending.take() {
                Some(g) => reflect_then_dot(&mut panel[..=i], &g, &scaled[..i], u),
                None => reflect_then_dot(&mut panel[..=i], &[0.0; PANEL], &[], u),
            };
            for (sk, uk) in scaled.iter_mut().zip(u) {
                *sk = uk / hi;
            }
            pending = Some(g);
        }
        if let Some(g) = pending {
            reflect(&mut panel[..n - 1], &g, &scaled[..n - 1]);
        }
        for b in 0..PANEL.min(n - 1 - j0) {
            for (x, p) in w[(j0 + b) * n..(j0 + b + 1) * n].iter_mut().zip(&panel) {
                *x = p[b];
            }
        }
    }
    let last = &mut w[(n - 1) * n..];
    last.fill(0.0);
    last[n - 1] = 1.0;
}

/// Subtracts `g dₖ` from panel row `k` for every `k < d.len()`.
fn reflect(panel: &mut [Lanes], g: &Lanes, d: &[f64]) {
    for (pk, dk) in panel.iter_mut().zip(d) {
        for (p, g) in pk.iter_mut().zip(g) {
            *p -= g * dk;
        }
    }
}

/// [`reflect`] on the first `d.len()` panel rows, then the dot products
/// `Σₖ uₖ pₖ` over the first `u.len()` rows, each entry read right after
/// its update. The dot-product reduction keeps LLVM vectorising across the
/// lanes rather than across `k`.
fn reflect_then_dot(panel: &mut [Lanes], g: &Lanes, d: &[f64], u: &[f64]) -> Lanes {
    let (updated, rest) = panel.split_at_mut(d.len());
    let mut dot = [0.0_f64; PANEL];
    for ((pk, dk), uk) in updated.iter_mut().zip(d).zip(u) {
        for ((p, g), s) in pk.iter_mut().zip(g).zip(dot.iter_mut()) {
            *p -= g * dk;
            *s += uk * *p;
        }
    }
    for (pk, uk) in rest.iter().zip(&u[d.len()..]) {
        for (p, s) in pk.iter().zip(dot.iter_mut()) {
            *s += uk * p;
        }
    }
    dot
}

/// Rows of `W` whose dot products [`similarity_rows`] runs side by side.
const LANES: usize = 4;

/// The similarity step of one [`tred2`] reduction: with `f = d[j]`, row `j`
/// of `rows` (row width `n`, `i = d.len()` columns used) sets
/// `e[j] ← e[j] + r[j] f + Σ_{k>j} r[k] d[k]` and adds `r[k] f` to every
/// `e[k]` with `k > j`, one row after another.
///
/// Row `j`'s dot product starts from `e[j]`, which earlier rows have updated,
/// so [`LANES`] rows run side by side only after a triangular prologue: the
/// dot product of lane `a` starts once lanes `0..a` have added their terms to
/// `e[j + a]`. Each dot product is still summed in `k` order and each `e[k]`
/// still receives its terms in row order.
fn similarity_rows(rows: &[f64], n: usize, d: &[f64], e: &mut [f64]) {
    let i = d.len();
    let mut j = 0;
    while j + LANES <= i {
        let lanes: [&[f64]; LANES] = std::array::from_fn(|a| &rows[(j + a) * n..(j + a) * n + i]);
        let f: [f64; LANES] = std::array::from_fn(|a| d[j + a]);
        let mut g = [0.0_f64; LANES];
        for k in j..j + LANES {
            let start = k - j;
            for a in 0..start {
                g[a] += lanes[a][k] * d[k];
                e[k] += lanes[a][k] * f[a];
            }
            g[start] = e[k] + lanes[start][k] * f[start];
        }
        for (k, dk) in d.iter().enumerate().skip(j + LANES) {
            for (g, lane) in g.iter_mut().zip(&lanes) {
                *g += lane[k] * dk;
            }
        }
        for (k, ek) in e.iter_mut().enumerate().skip(j + LANES) {
            for (lane, f) in lanes.iter().zip(f) {
                *ek += lane[k] * f;
            }
        }
        e[j..j + LANES].copy_from_slice(&g);
        j += LANES;
    }
    for j in j..i {
        let f = d[j];
        let row = &rows[j * n..j * n + i];
        let mut g = e[j] + row[j] * f;
        for (wk, dk) in row[j + 1..].iter().zip(&d[j + 1..]) {
            g += wk * dk;
        }
        for (ek, wk) in e[j + 1..].iter_mut().zip(&row[j + 1..]) {
            *ek += wk * f;
        }
        e[j] = g;
    }
}

/// Implicit-shift QL iteration on the tridiagonal matrix produced by
/// [`tred2`], accumulating eigenvectors into the rows of `w` (EISPACK
/// `tql2`).
fn tql2(w: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0_f64;
    let mut tst1 = 0.0_f64;
    let eps = 2.0_f64.powi(-52);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_QL_ITERS {
                    return Err(LinalgError::NoConvergence {
                        routine: "tql2",
                        iterations: MAX_QL_ITERS,
                    });
                }
                // Compute implicit shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;
                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0_f64;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0_f64;
                let mut s2 = 0.0_f64;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Accumulate transformation: rotate rows `i` and `i + 1`.
                    let (lo, hi) = w.split_at_mut((i + 1) * n);
                    let (wi, wi1) = (&mut lo[i * n..], &mut hi[..n]);
                    for (x, y) in wi.iter_mut().zip(wi1.iter_mut()) {
                        let h = *y;
                        *y = s * *x + c * h;
                        *x = c * *x - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    fn reconstruct(decomp: &EigenDecomposition) -> Matrix {
        let n = decomp.values.len();
        let v = &decomp.vectors;
        let lam = Matrix::from_diag(&decomp.values);
        let vl = blas::matmul(v, &lam);
        let mut out = Matrix::zeros(n, n);
        blas::gemm_nt(1.0, &vl, v, 0.0, &mut out);
        out
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let d = sym_eig(&a).unwrap();
        assert!((d.values[0] - 3.0).abs() < 1e-12);
        assert!((d.values[1] - 2.0).abs() < 1e-12);
        assert!((d.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_known() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let d = sym_eig(&a).unwrap();
        assert!((d.values[0] - 3.0).abs() < 1e-12);
        assert!((d.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/sqrt(2) up to sign.
        let v0 = d.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        // Deterministic pseudo-random symmetric matrix.
        let mut state = 42_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let d = sym_eig(&a).unwrap();
        // Descending order.
        for w in d.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // V^T V = I.
        let vtv = blas::matmul(&d.vectors.transpose(), &d.vectors);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-9, "vtv[{i},{j}]");
            }
        }
        // A = V Λ V^T.
        let rec = reconstruct(&d);
        for i in 0..n {
            for j in 0..n {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-8, "rec[{i},{j}]");
            }
        }
    }

    #[test]
    fn psd_gram_matrix_has_nonnegative_spectrum() {
        // Gram matrix X X^T is PSD.
        let x = Matrix::from_fn(20, 5, |i, j| ((i + 1) * (j + 2)) as f64 % 7.0 - 3.0);
        let mut g = Matrix::zeros(20, 20);
        blas::gemm_nt(1.0, &x, &x, 0.0, &mut g);
        let d = sym_eig(&g).unwrap();
        for &v in &d.values {
            assert!(v > -1e-8, "negative eigenvalue {v}");
        }
        // Rank is at most 5.
        assert!(d.values[5].abs() < 1e-7);
    }

    #[test]
    fn f32_input_solved_in_f64() {
        // A spectrum spanning more than f32's 24-bit relative precision
        // still comes out clean because the solve runs in f64 and only the
        // *input* was f32-rounded.
        let a32: Matrix<f32> = Matrix::from_diag(&[1.0e4_f32, 1.0, 1.0e-4]);
        let d = sym_eig_f64(&a32).unwrap();
        assert!((d.values[0] - 1.0e4).abs() < 1e-3);
        assert!((d.values[1] - 1.0).abs() < 1e-7);
        assert!((d.values[2] - 1.0e-4).abs() < 1e-10);
        // And the native-precision variant matches after rounding.
        let d32 = sym_eig(&a32).unwrap();
        assert_eq!(d32.values[0], 1.0e4_f32);
    }

    #[test]
    fn top_q_extracts_leading_block() {
        let a = Matrix::from_diag(&[5.0, 4.0, 3.0, 2.0]);
        let d = sym_eig(&a).unwrap();
        let (vals, vecs) = d.top_q(2);
        assert_eq!(vals, vec![5.0, 4.0]);
        assert_eq!(vecs.shape(), (4, 2));
    }

    #[test]
    fn empty_and_single() {
        let d = sym_eig::<f64>(&Matrix::zeros(0, 0)).unwrap();
        assert!(d.values.is_empty());
        let d1 = sym_eig(&Matrix::from_diag(&[7.0])).unwrap();
        assert_eq!(d1.values, vec![7.0]);
        assert_eq!(d1.vectors[(0, 0)], 1.0);
    }

    #[test]
    fn non_finite_entries_rejected_with_their_position() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::identity(4);
            a[(2, 1)] = bad;
            match sym_eig_f64(&a) {
                Err(LinalgError::InvalidArgument { message }) => {
                    assert!(message.contains("(2, 1)"), "{message}");
                }
                other => panic!("{bad}: expected InvalidArgument, got {other:?}"),
            }
        }
        let mut a32: Matrix<f32> = Matrix::identity(3);
        a32[(0, 2)] = f32::NAN;
        assert!(matches!(
            sym_eig(&a32),
            Err(LinalgError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a: Matrix = Matrix::zeros(2, 3);
        assert!(matches!(
            sym_eig(&a),
            Err(LinalgError::InvalidArgument { .. })
        ));
    }
}
