//! A minimal dense 2-D matrix type with the operations needed by the
//! fitness-function models (dense layers, LSTM cells, losses).
//!
//! The matrix is row-major `f32`. Panicking variants are used internally for
//! programming errors (shape mismatches are bugs, not runtime conditions),
//! matching the convention of ndarray-style libraries.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Loads the derived field layout, rejecting a shape that disagrees with
/// the data length: a checkpoint is untrusted input, and a malformed matrix
/// must fail at load instead of panicking inside a later product.
impl Deserialize for Matrix {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let map = serde::expect_map(content, "Matrix")?;
        let rows = usize::from_content(serde::field(map, "rows", "Matrix")?)?;
        let cols = usize::from_content(serde::field(map, "cols", "Matrix")?)?;
        let data = Vec::<f32>::from_content(serde::field(map, "data", "Matrix")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError::new(format!(
                "Matrix shape {rows}x{cols} does not match {} data values",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a 1-row matrix from a vector.
    #[must_use]
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    #[must_use]
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialization for a layer with the given fan-in
    /// and fan-out (`rows` = fan-out, `cols` = fan-in).
    #[must_use]
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::uniform(rows, cols, scale, rng)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`, cache-blocked and parallelized across
    /// output rows for large operands.
    ///
    /// Accumulation over the inner dimension is strictly ascending for every
    /// output element — the same order [`Matrix::matvec`] uses — so batched
    /// forward passes produce bit-identical results to their per-sample
    /// counterparts.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-provided output buffer,
    /// reshaping (and reallocating only if needed) so hot loops can reuse
    /// one allocation across calls.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        other.matmul_slab_into(&self.data, self.rows, self.cols, out);
    }

    /// `lhs * self` where `lhs` is a borrowed row-major slab of
    /// `lhs_rows x k_dim` values — the entry point the time-major LSTM
    /// layouts use to multiply a contiguous per-step slab without first
    /// materializing it as a [`Matrix`]. Identical dispatch, blocking and
    /// accumulation order to [`Matrix::matmul_into`] (which delegates
    /// here), so results are bit-identical to the per-sample `matvec`.
    ///
    /// # Panics
    ///
    /// Panics if `k_dim != self.rows` or `lhs` is shorter than
    /// `lhs_rows * k_dim`.
    pub fn matmul_slab_into(&self, lhs: &[f32], lhs_rows: usize, k_dim: usize, out: &mut Matrix) {
        out.rows = lhs_rows;
        out.cols = self.cols;
        out.data.resize(lhs_rows * self.cols, 0.0);
        self.matmul_slab_to(lhs, lhs_rows, k_dim, &mut out.data);
    }

    /// [`Matrix::matmul_slab_into`] writing into a caller-provided slice of
    /// exactly `lhs_rows * cols` values (overwritten, not accumulated) — the
    /// form the batched LSTM backward uses to GEMM per-step gradient slabs
    /// straight into time-major storage it does not own as a [`Matrix`].
    ///
    /// # Panics
    ///
    /// Panics if `k_dim != self.rows`, `lhs` is shorter than
    /// `lhs_rows * k_dim`, or `out.len() != lhs_rows * cols`.
    pub fn matmul_slab_to(&self, lhs: &[f32], lhs_rows: usize, k_dim: usize, out: &mut [f32]) {
        assert_eq!(
            k_dim, self.rows,
            "matmul shape mismatch: {lhs_rows}x{k_dim} * {}x{}",
            self.rows, self.cols
        );
        assert_eq!(
            out.len(),
            lhs_rows * self.cols,
            "matmul output length mismatch"
        );
        let lhs = &lhs[..lhs_rows * k_dim];
        out.fill(0.0);

        if lhs_rows == 0 || self.cols == 0 {
            return;
        }

        // Below this many multiply-adds, pool dispatch overhead dominates.
        const PAR_WORK_THRESHOLD: usize = 1 << 19;
        let work = lhs_rows * k_dim * self.cols;
        let tasks = if work < PAR_WORK_THRESHOLD {
            1
        } else {
            // Split into more chunks than pool threads so the work-stealing
            // scheduler can balance them (a thread that finishes early
            // steals another chunk instead of idling at the barrier). Each
            // output row is computed independently with a fixed op order,
            // so chunk boundaries never change a single bit of the result.
            (rayon::current_num_threads() * rayon::TASKS_PER_THREAD).min(lhs_rows)
        };
        if tasks <= 1 {
            matmul_rows(lhs, &self.data, out, 0, lhs_rows, k_dim, self.cols);
            return;
        }
        use rayon::prelude::ParallelSliceMut;
        let rows_per_chunk = lhs_rows.div_ceil(tasks);
        let n_dim = self.cols;
        out.par_chunks_mut(rows_per_chunk * n_dim)
            .enumerate()
            .for_each(|(chunk_index, chunk)| {
                let row_start = chunk_index * rows_per_chunk;
                let row_count = chunk.len() / n_dim;
                matmul_rows(lhs, &self.data, chunk, row_start, row_count, k_dim, n_dim);
            });
    }

    /// Reference `O(n^3)` triple-loop product, kept as the ground truth the
    /// blocked kernel is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    #[must_use]
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let row_out = &mut out.data[i * other.cols..(i + 1) * other.cols];
                let row_b = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in row_out.iter_mut().zip(row_b.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != v.len()`.
    #[must_use]
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Transposed matrix-vector product `self^T * v`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != v.len()`.
    #[must_use]
    pub fn matvec_transposed(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.matvec_transposed_into(v, &mut out);
        out
    }

    /// [`Matrix::matvec_transposed`] accumulating into a caller-provided
    /// (zeroed) output slice — the allocation-free form the per-sample
    /// backward passes use for input gradients. The accumulation is
    /// **dense**: every row contributes in strictly ascending order with
    /// separate mul/add roundings, lane-vectorized across the *output*
    /// columns so every element keeps the scalar op order. Per output
    /// element this is the exact `k`-ascending chain of
    /// [`Matrix::matmul_slab_to`], which is what lets the batched backward
    /// kernels replace a loop of these calls with one GEMM bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows` or `out.len() != cols`.
    pub fn matvec_transposed_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(self.rows, v.len(), "matvec_transposed shape mismatch");
        assert_eq!(self.cols, out.len(), "matvec_transposed output mismatch");
        for (i, &vi) in v.iter().enumerate() {
            vecops::axpy(out, vi, self.row(i));
        }
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Applies `f` to every element, returning a new matrix.
    #[must_use]
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Adds `row` to every row of the matrix in place (bias broadcast),
    /// lane-vectorized eight columns at a time (element-wise addition, so
    /// trivially bit-identical to the scalar loop).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        use crate::simd::{F32x8, LANES};
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        let main = self.cols - self.cols % LANES;
        for r in 0..self.rows {
            let out_row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let mut j = 0;
            while j < main {
                (F32x8::load(&out_row[j..]) + F32x8::load(&row[j..])).store(&mut out_row[j..]);
                j += LANES;
            }
            for (o, &b) in out_row[main..].iter_mut().zip(row[main..].iter()) {
                *o += b;
            }
        }
    }

    /// Shrinks the matrix to its first `n` rows (no reallocation).
    ///
    /// # Panics
    ///
    /// Panics if `n > rows`.
    pub fn truncate_rows(&mut self, n: usize) {
        assert!(n <= self.rows, "cannot truncate {} rows to {n}", self.rows);
        self.rows = n;
        self.data.truncate(n * self.cols);
    }

    /// Adds the outer product `alpha * u * v^T` to this matrix in place.
    ///
    /// The update is **dense** — every row receives its `(alpha * u[i]) *
    /// v[j]` term (separate mul/add roundings, never fused) even when
    /// `u[i]` is exactly zero, so a sequence of these calls is
    /// bit-identical to one [`Matrix::add_outer_slab`] over the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    pub fn add_outer(&mut self, u: &[f32], v: &[f32], alpha: f32) {
        assert_eq!(u.len(), self.rows, "add_outer row mismatch");
        assert_eq!(v.len(), self.cols, "add_outer col mismatch");
        for (i, &ui) in u.iter().enumerate() {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            vecops::axpy(row, alpha * ui, v);
        }
    }

    /// Accumulates a whole batch of outer products in one blocked GEMM:
    /// `self[i][j] += Σ_r u[r][i] * v[r][j]` where `u` is a row-major
    /// `k_rows x rows` slab and `v` a row-major `k_rows x cols` slab.
    ///
    /// Per parameter element the products accumulate strictly
    /// `r`-ascending with separate mul/add roundings on top of the
    /// existing value — the exact op chain of calling
    /// [`Matrix::add_outer`]`(u.row(r), v.row(r), 1.0)` for `r = 0, 1, …`
    /// in order, so batched weight-gradient sweeps that lay their
    /// per-step rows out in the reference visit order are bit-identical
    /// to the per-sample loop by construction. The lane kernel keeps
    /// eight column accumulators in registers across an `r` block (the
    /// latency-bound per-call `axpy` round-trips every row through memory
    /// instead), which is where the batched backward throughput comes
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if `u` is shorter than `k_rows * rows` or `v` shorter than
    /// `k_rows * cols`.
    pub fn add_outer_slab(&mut self, u: &[f32], v: &[f32], k_rows: usize) {
        let (m, n) = (self.rows, self.cols);
        let u = &u[..k_rows * m];
        let v = &v[..k_rows * n];
        if crate::simd::linear_lanes_active() {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: AVX support was just verified at runtime.
                unsafe { add_outer_slab_avx(&mut self.data, u, v, k_rows, m, n) };
                return;
            }
            add_outer_slab_lanes(&mut self.data, u, v, k_rows, m, n);
        } else {
            add_outer_slab_scalar(&mut self.data, u, v, k_rows, m, n);
        }
    }
}

/// The inner kernel of [`Matrix::matmul`]: computes output rows
/// `row_start..row_start + row_count` into `out` (a buffer holding exactly
/// those rows).
///
/// Dispatches between the column-lane SIMD kernel (AVX-specialized when the
/// CPU supports it, portable [`F32x8`](crate::simd::F32x8) lanes otherwise)
/// and the scalar reference loop when SIMD is disabled via `NETSYN_SIMD=0`.
/// Every variant accumulates each output element's `k`-products in strictly
/// ascending order with separate mul/add roundings, so all of them — and
/// [`Matrix::matvec`] — produce bit-identical results.
fn matmul_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row_start: usize,
    row_count: usize,
    k_dim: usize,
    n_dim: usize,
) {
    if crate::simd::linear_lanes_active() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was just verified at runtime.
            unsafe { matmul_rows_avx(a, b, out, row_start, row_count, k_dim, n_dim) };
            return;
        }
        matmul_rows_lanes(a, b, out, row_start, row_count, k_dim, n_dim);
    } else {
        matmul_rows_scalar(a, b, out, row_start, row_count, k_dim, n_dim);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn matmul_rows_avx(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row_start: usize,
    row_count: usize,
    k_dim: usize,
    n_dim: usize,
) {
    matmul_rows_lanes(a, b, out, row_start, row_count, k_dim, n_dim);
}

/// Column-lane matmul kernel: broadcasts `a[i][k]` and multiply-adds it
/// (separate roundings, never fused) across eight output columns at a
/// time, keeping the eight partial sums in a register over each `k` block.
/// Per output element this performs the exact scalar op sequence —
/// `k`-ascending `acc + a[i][k] * b[k][j]` — so it is bit-identical to
/// [`matmul_rows_scalar`] by construction.
#[inline(always)]
fn matmul_rows_lanes(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row_start: usize,
    row_count: usize,
    k_dim: usize,
    n_dim: usize,
) {
    use crate::simd::{F32x8, LANES};
    // Blocking the inner dimension keeps a `KB x n_dim` panel of `b` hot
    // in cache across the row loop.
    const KB: usize = 64;
    // Four lane tiles (32 columns) advance together so the inner `k` loop
    // carries four independent add chains — the accumulator dependency
    // would otherwise serialize on the add latency.
    const TILES: usize = 4;
    let n_main = n_dim - n_dim % LANES;
    let n_wide = n_dim - n_dim % (TILES * LANES);
    let mut kb = 0;
    while kb < k_dim {
        let k_end = (kb + KB).min(k_dim);
        for i in 0..row_count {
            let a_row = &a[(row_start + i) * k_dim..(row_start + i + 1) * k_dim];
            let out_row = &mut out[i * n_dim..(i + 1) * n_dim];
            let mut j = 0;
            while j < n_wide {
                let mut acc0 = F32x8::load(&out_row[j..]);
                let mut acc1 = F32x8::load(&out_row[j + LANES..]);
                let mut acc2 = F32x8::load(&out_row[j + 2 * LANES..]);
                let mut acc3 = F32x8::load(&out_row[j + 3 * LANES..]);
                for k in kb..k_end {
                    let a_val = F32x8::splat(a_row[k]);
                    let b_row = &b[k * n_dim + j..];
                    acc0 = acc0 + a_val * F32x8::load(b_row);
                    acc1 = acc1 + a_val * F32x8::load(&b_row[LANES..]);
                    acc2 = acc2 + a_val * F32x8::load(&b_row[2 * LANES..]);
                    acc3 = acc3 + a_val * F32x8::load(&b_row[3 * LANES..]);
                }
                acc0.store(&mut out_row[j..]);
                acc1.store(&mut out_row[j + LANES..]);
                acc2.store(&mut out_row[j + 2 * LANES..]);
                acc3.store(&mut out_row[j + 3 * LANES..]);
                j += TILES * LANES;
            }
            while j < n_main {
                let mut acc = F32x8::load(&out_row[j..]);
                for k in kb..k_end {
                    let a_val = F32x8::splat(a_row[k]);
                    let b_lane = F32x8::load(&b[k * n_dim + j..]);
                    acc = acc + a_val * b_lane;
                }
                acc.store(&mut out_row[j..]);
                j += LANES;
            }
            for j in n_main..n_dim {
                let mut acc = out_row[j];
                for k in kb..k_end {
                    acc += a_row[k] * b[k * n_dim + j];
                }
                out_row[j] = acc;
            }
        }
        kb = k_end;
    }
}

/// The scalar reference kernel (the pre-SIMD cache-blocked loop), kept as
/// the `NETSYN_SIMD=0` fallback and the ground truth the lane kernel is
/// tested against.
fn matmul_rows_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row_start: usize,
    row_count: usize,
    k_dim: usize,
    n_dim: usize,
) {
    const IB: usize = 16;
    const KB: usize = 64;
    let mut ib = 0;
    while ib < row_count {
        let i_end = (ib + IB).min(row_count);
        let mut kb = 0;
        while kb < k_dim {
            let k_end = (kb + KB).min(k_dim);
            for i in ib..i_end {
                let a_row = &a[(row_start + i) * k_dim..(row_start + i + 1) * k_dim];
                let out_row = &mut out[i * n_dim..(i + 1) * n_dim];
                for k in kb..k_end {
                    let a_val = a_row[k];
                    let b_row = &b[k * n_dim..(k + 1) * n_dim];
                    for (o, &b_val) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a_val * b_val;
                    }
                }
            }
            kb = k_end;
        }
        ib = i_end;
    }
}

/// AVX-compiled wrapper of [`add_outer_slab_lanes`]; identical op order, so
/// identical bits — the `target_feature` attribute only licenses wider
/// codegen for the portable lane type.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn add_outer_slab_avx(
    out: &mut [f32],
    u: &[f32],
    v: &[f32],
    k_rows: usize,
    m: usize,
    n: usize,
) {
    add_outer_slab_lanes(out, u, v, k_rows, m, n);
}

/// Column-lane kernel of [`Matrix::add_outer_slab`]: for each output row
/// `i`, lane tiles of columns accumulate `u[r][i] * v[r][j]` with `r`
/// innermost — the eight partial sums stay in registers across the `r`
/// block instead of round-tripping through the output row per `r`. Per
/// element the op sequence is the `r`-ascending `acc + u[r][i] * v[r][j]`
/// chain (separate roundings), bit-identical to
/// [`add_outer_slab_scalar`] by construction.
#[inline(always)]
fn add_outer_slab_lanes(out: &mut [f32], u: &[f32], v: &[f32], k_rows: usize, m: usize, n: usize) {
    use crate::simd::{F32x8, LANES};
    // Blocking `r` keeps an `RB x n` panel of `v` hot in cache across the
    // output-row loop.
    const RB: usize = 64;
    // Four lane tiles (32 columns) advance together so the inner `r` loop
    // carries four independent add chains.
    const TILES: usize = 4;
    let n_main = n - n % LANES;
    let n_wide = n - n % (TILES * LANES);
    let mut rb = 0;
    while rb < k_rows {
        let r_end = (rb + RB).min(k_rows);
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j < n_wide {
                let mut acc0 = F32x8::load(&out_row[j..]);
                let mut acc1 = F32x8::load(&out_row[j + LANES..]);
                let mut acc2 = F32x8::load(&out_row[j + 2 * LANES..]);
                let mut acc3 = F32x8::load(&out_row[j + 3 * LANES..]);
                for r in rb..r_end {
                    let u_val = F32x8::splat(u[r * m + i]);
                    let v_row = &v[r * n + j..];
                    acc0 = acc0 + u_val * F32x8::load(v_row);
                    acc1 = acc1 + u_val * F32x8::load(&v_row[LANES..]);
                    acc2 = acc2 + u_val * F32x8::load(&v_row[2 * LANES..]);
                    acc3 = acc3 + u_val * F32x8::load(&v_row[3 * LANES..]);
                }
                acc0.store(&mut out_row[j..]);
                acc1.store(&mut out_row[j + LANES..]);
                acc2.store(&mut out_row[j + 2 * LANES..]);
                acc3.store(&mut out_row[j + 3 * LANES..]);
                j += TILES * LANES;
            }
            while j < n_main {
                let mut acc = F32x8::load(&out_row[j..]);
                for r in rb..r_end {
                    let u_val = F32x8::splat(u[r * m + i]);
                    acc = acc + u_val * F32x8::load(&v[r * n + j..]);
                }
                acc.store(&mut out_row[j..]);
                j += LANES;
            }
            for j in n_main..n {
                let mut acc = out_row[j];
                for r in rb..r_end {
                    acc += u[r * m + i] * v[r * n + j];
                }
                out_row[j] = acc;
            }
        }
        rb = r_end;
    }
}

/// Scalar reference kernel of [`Matrix::add_outer_slab`] — the
/// `NETSYN_SIMD=0` fallback and the ground truth the lane kernel is tested
/// against. Same `r`-blocked loop nest, same per-element chain.
fn add_outer_slab_scalar(out: &mut [f32], u: &[f32], v: &[f32], k_rows: usize, m: usize, n: usize) {
    const RB: usize = 64;
    let mut rb = 0;
    while rb < k_rows {
        let r_end = (rb + RB).min(k_rows);
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                let mut acc = out_row[j];
                for r in rb..r_end {
                    acc += u[r * m + i] * v[r * n + j];
                }
                out_row[j] = acc;
            }
        }
        rb = r_end;
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Vector helpers shared by the layer implementations.
pub mod vecops {
    /// In-place `dst[j] += a * src[j]`, lane-vectorized eight elements at a
    /// time with **separate** mul/add roundings (never fused). Elements are
    /// independent, so the lane form is bit-identical to the scalar loop —
    /// this is the row primitive under [`super::Matrix::add_outer`] and
    /// [`super::Matrix::matvec_transposed`], whose dense per-row chains are
    /// what the batched backward GEMMs
    /// ([`super::Matrix::add_outer_slab`] /
    /// [`super::Matrix::matmul_slab_to`]) replay element-for-element.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `dst`.
    pub fn axpy(dst: &mut [f32], a: f32, src: &[f32]) {
        use crate::simd::{F32x8, LANES};
        let n = dst.len();
        let main = n - n % LANES;
        let av = F32x8::splat(a);
        let mut j = 0;
        while j < main {
            (F32x8::load(&dst[j..]) + av * F32x8::load(&src[j..])).store(&mut dst[j..]);
            j += LANES;
        }
        for (o, &s) in dst[main..].iter_mut().zip(src[main..n].iter()) {
            *o += a * s;
        }
    }

    /// Element-wise sum of two slices.
    #[must_use]
    pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect()
    }

    /// Element-wise product of two slices.
    #[must_use]
    pub fn hadamard(a: &[f32], b: &[f32]) -> Vec<f32> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b.iter()).map(|(&x, &y)| x * y).collect()
    }

    /// In-place `a += b`.
    pub fn add_assign(a: &mut [f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        for (x, &y) in a.iter_mut().zip(b.iter()) {
            *x += y;
        }
    }

    /// Concatenates slices into a single vector.
    #[must_use]
    pub fn concat(parts: &[&[f32]]) -> Vec<f32> {
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            out.extend_from_slice(p);
        }
        out
    }

    /// Dot product.
    #[must_use]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn deserialize_rejects_a_shape_that_disagrees_with_the_data() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<Matrix>(&json).unwrap(), m);
        for bad in [
            r#"{"rows":2,"cols":2,"data":[1.0]}"#,
            r#"{"rows":1,"cols":1,"data":[1.0,2.0]}"#,
            r#"{"rows":18446744073709551615,"cols":2,"data":[]}"#,
        ] {
            assert!(serde_json::from_str::<Matrix>(bad).is_err(), "{bad}");
        }
        assert!(serde_json::from_str::<Matrix>(r#"{"rows":0,"cols":5,"data":[]}"#).is_ok());
    }

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        let v = Matrix::row_vector(vec![1.0, 2.0]);
        assert_eq!(v.shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_panics_on_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        // Cover shapes below and above the blocking and parallel thresholds,
        // including non-multiples of the block sizes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (17, 65, 33),
            (64, 64, 64),
            (130, 70, 190),
        ] {
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let blocked = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert_eq!(blocked.shape(), (m, n));
            for (x, y) in blocked.data().iter().zip(naive.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} mismatch");
            }
        }
    }

    #[test]
    fn blocked_matmul_matches_matvec_per_row() {
        // The batched inference path relies on X * W^T computing, per row,
        // exactly what W.matvec(x) computes — bit for bit.
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let w = Matrix::uniform(7, 19, 1.0, &mut rng);
        let x = Matrix::uniform(5, 19, 1.0, &mut rng);
        let wt = w.transpose();
        let y = x.matmul(&wt);
        for r in 0..x.rows() {
            let single = w.matvec(x.row(r));
            for (a, b) in y.row(r).iter().zip(single.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffers_across_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let mut out = Matrix::zeros(1, 1);
        let a = Matrix::uniform(4, 6, 1.0, &mut rng);
        let b = Matrix::uniform(6, 3, 1.0, &mut rng);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (4, 3));
        assert_eq!(out, a.matmul_naive(&b));
        // Stale contents and the old shape must not leak into the result.
        let c = Matrix::uniform(2, 6, 1.0, &mut rng);
        c.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (2, 3));
        assert_eq!(out, c.matmul_naive(&b));
    }

    #[test]
    fn add_row_broadcast_and_truncate_rows() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.add_row_broadcast(&[10.0, 20.0, 30.0]);
        assert_eq!(m.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        m.truncate_rows(1);
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(m.data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn empty_matmul_shapes_are_handled() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        let c = Matrix::zeros(2, 4);
        let d = Matrix::zeros(4, 0);
        assert_eq!(c.matmul(&d).shape(), (2, 0));
    }

    #[test]
    fn matvec_and_transposed_matvec() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.matvec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn add_and_add_scaled() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0]);
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c.data(), &[6.0, 12.0, 18.0]);
        c.fill_zero();
        assert_eq!(c.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn map_and_norm() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.map(|x| x * 2.0).data(), &[6.0, 8.0]);
    }

    #[test]
    fn add_outer_accumulates_rank_one_update() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[1.0, 0.0, -1.0], 1.0);
        assert_eq!(m.data(), &[1.0, 0.0, -1.0, 2.0, 0.0, -2.0]);
        m.add_outer(&[1.0, 2.0], &[1.0, 0.0, -1.0], -1.0);
        assert_eq!(m.data(), &[0.0; 6]);
    }

    #[test]
    fn add_outer_slab_is_bit_identical_to_sequential_add_outer() {
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        // Sizes straddle the lane width, the 4-tile width and the `r`
        // block: columns hit the wide-tile, single-lane and scalar-tail
        // paths; 150 rows span three 64-row blocks.
        for (m, n, k) in [(5, 37, 150), (12, 8, 3), (3, 2, 1), (4, 33, 0)] {
            let mut reference = Matrix::uniform(m, n, 1.0, &mut rng);
            let mut batched = reference.clone();
            let mut u = Matrix::uniform(k.max(1), m, 1.0, &mut rng);
            let v = Matrix::uniform(k.max(1), n, 1.0, &mut rng);
            if k > 0 {
                // Exact zeros exercise the dense (no-skip) semantics.
                u.set(0, 0, 0.0);
            }
            for r in 0..k {
                reference.add_outer(u.row(r), v.row(r), 1.0);
            }
            batched.add_outer_slab(&u.data()[..k * m], &v.data()[..k * n], k);
            for (a, b) in batched.data().iter().zip(reference.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "({m}x{n}, k={k})");
            }
        }
    }

    #[test]
    fn matmul_slab_to_is_bit_identical_to_matvec_transposed() {
        let mut rng = ChaCha8Rng::seed_from_u64(98);
        let w = Matrix::uniform(37, 21, 1.0, &mut rng);
        let dz = Matrix::uniform(9, 37, 1.0, &mut rng);
        let mut out = vec![f32::NAN; 9 * 21];
        w.matmul_slab_to(dz.data(), 9, 37, &mut out);
        for r in 0..9 {
            let reference = w.matvec_transposed(dz.row(r));
            for (a, b) in out[r * 21..(r + 1) * 21].iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn random_initializers_are_bounded_and_deterministic() {
        let mut r1 = ChaCha8Rng::seed_from_u64(1);
        let mut r2 = ChaCha8Rng::seed_from_u64(1);
        let a = Matrix::xavier(8, 4, &mut r1);
        let b = Matrix::xavier(8, 4, &mut r2);
        assert_eq!(a, b);
        let scale = (6.0_f32 / 12.0).sqrt();
        assert!(a.data().iter().all(|&x| x.abs() <= scale));
        let u = Matrix::uniform(3, 3, 0.1, &mut r1);
        assert!(u.data().iter().all(|&x| x.abs() <= 0.1));
    }

    #[test]
    fn vecops_helpers() {
        use vecops::*;
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(hadamard(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut a = vec![1.0, 1.0];
        add_assign(&mut a, &[2.0, 3.0]);
        assert_eq!(a, vec![3.0, 4.0]);
        assert_eq!(concat(&[&[1.0][..], &[2.0, 3.0][..]]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
