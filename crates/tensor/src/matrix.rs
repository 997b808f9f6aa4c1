//! Row-major `f32` matrices with the group views used by block quantization.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix taking ownership of row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of all elements.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Copies the `rows × cols` block whose top-left corner is (`r0`, `c0`).
    ///
    /// # Panics
    ///
    /// Panics if the block reaches past the matrix.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in r0..r0 + rows {
            data.extend_from_slice(&self.row(r)[c0..c0 + cols]);
        }
        Matrix { rows, cols, data }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Applies `f` elementwise, returning a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Appends the rows of `rows` below the existing rows — the growable
    /// store pattern (KV caches, accumulated decode outputs). Start from
    /// `Matrix::zeros(0, cols)` for an empty seed.
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn push_rows(&mut self, rows: &Matrix) {
        assert_eq!(self.cols, rows.cols, "appended rows have a different width");
        self.data.extend_from_slice(&rows.data);
        self.rows += rows.rows;
    }

    /// Drops all rows while keeping the allocation — the page-frame reuse
    /// pattern: a cleared matrix compares equal to `Matrix::zeros(0, cols)`
    /// (equality ignores capacity) but retains its buffer for the next fill.
    pub fn clear_rows(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Iterates over contiguous row-wise groups of `k` elements.
    ///
    /// Each row is partitioned independently (groups never straddle a row
    /// boundary, matching how MX formats group along the reduction
    /// dimension). A final short group per row is yielded when `cols % k !=
    /// 0`.
    pub fn row_groups(&self, k: usize) -> impl Iterator<Item = &[f32]> {
        assert!(k > 0, "group size must be positive");
        self.data
            .chunks(self.cols)
            .flat_map(move |row| row.chunks(k))
    }

    /// Matrix product `self * rhs` (naive triple loop; exact reference).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for kk in 0..self.cols {
                let a = self[(i, kk)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(kk);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Multi-threaded matrix product using scoped threads. Produces results
    /// identical to [`Self::matmul`] (same per-row accumulation order).
    pub fn matmul_threaded(&self, rhs: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let cols = self.cols;
        let a = &self.data;
        par_row_chunks(&mut out.data, rhs.cols, threads, |row0, chunk| {
            for (local_i, orow) in chunk.chunks_mut(rhs.cols).enumerate() {
                let i = row0 + local_i;
                for kk in 0..cols {
                    let av = a[i * cols + kk];
                    if av == 0.0 {
                        continue;
                    }
                    let rrow = rhs.row(kk);
                    for (o, &bv) in orow.iter_mut().zip(rrow) {
                        *o += av * bv;
                    }
                }
            }
        });
        out
    }

    /// Elementwise sum with `rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

/// Splits a row-major output buffer of `ncols`-wide rows into contiguous
/// row chunks and runs `body(first_row, chunk)` for each on a scoped thread.
///
/// This is the shared parallel skeleton behind [`Matrix::matmul_threaded`]
/// and the packed quantized GEMM in `m2xfp::gemm`: each worker owns a
/// disjoint slice of the output, so no synchronization is needed and results
/// are identical to the sequential loop. Generic over the element type so
/// single-buffer byte-stream outputs can reuse the skeleton; the packed
/// quantizers' three-stream encode splits three buffers at once and keeps
/// its own scoped-thread loop (`m2xfp::format`).
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `ncols`, or if a worker
/// panics.
pub fn par_row_chunks<T, F>(out: &mut [T], ncols: usize, threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(ncols > 0, "ncols must be positive");
    assert_eq!(out.len() % ncols, 0, "buffer not a whole number of rows");
    let rows = out.len() / ncols;
    let threads = threads.max(1).min(rows.max(1));
    let chunk_rows = rows.div_ceil(threads);
    if threads <= 1 {
        body(0, out);
        return;
    }
    std::thread::scope(|s| {
        for (t, chunk) in out.chunks_mut(chunk_rows * ncols).enumerate() {
            let body = &body;
            s.spawn(move || body(t * chunk_rows, chunk));
        }
    });
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(a.matmul(&Matrix::identity(4)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn threaded_matches_naive() {
        let a = Matrix::from_fn(17, 23, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(23, 9, |r, c| ((r * 5 + c * 11) % 17) as f32 - 8.0);
        let naive = a.matmul(&b);
        for threads in [1, 2, 4, 32] {
            assert_eq!(a.matmul_threaded(&b, threads), naive, "threads={threads}");
        }
    }

    #[test]
    fn block_copies_a_window() {
        let a = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32);
        let b = a.block(1, 2, 2, 3);
        assert_eq!((b.rows(), b.cols()), (2, 3));
        assert_eq!(b.as_slice(), &[7.0, 8.0, 9.0, 12.0, 13.0, 14.0]);
        assert_eq!(a.block(0, 0, 4, 5), a);
        assert!(a.block(4, 0, 0, 5).is_empty());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn row_groups_partition_rows() {
        let a = Matrix::from_fn(2, 7, |r, c| (r * 7 + c) as f32);
        let groups: Vec<&[f32]> = a.row_groups(4).collect();
        assert_eq!(groups.len(), 4); // per row: 4 + 3
        assert_eq!(groups[0], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(groups[1], &[4.0, 5.0, 6.0]);
        assert_eq!(groups[2], &[7.0, 8.0, 9.0, 10.0]);
        assert_eq!(groups[3], &[11.0, 12.0, 13.0]);
    }

    #[test]
    fn add_sub_inverse() {
        let a = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 4, |r, c| (r * c) as f32 * 0.5);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn push_rows_grows_from_empty() {
        let mut m = Matrix::zeros(0, 3);
        m.push_rows(&Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        m.push_rows(&Matrix::from_vec(1, 3, vec![7.0, 8.0, 9.0]));
        assert_eq!((m.rows(), m.cols()), (3, 3));
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn push_rows_rejects_width_mismatch() {
        Matrix::zeros(0, 3).push_rows(&Matrix::zeros(1, 4));
    }

    #[test]
    fn clear_rows_equals_fresh_empty() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.clear_rows();
        assert_eq!(m, Matrix::zeros(0, 3));
        m.push_rows(&Matrix::from_vec(1, 3, vec![7.0, 8.0, 9.0]));
        assert_eq!(m.row(0), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn max_abs_finds_extreme() {
        let a = Matrix::from_vec(1, 4, vec![1.0, -7.5, 3.0, 2.0]);
        assert_eq!(a.max_abs(), 7.5);
        assert_eq!(Matrix::zeros(2, 2).max_abs(), 0.0);
    }
}
