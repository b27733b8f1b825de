//! Dense vector and matrix helpers shared by the encoder and the pipeline.

use serde::{Deserialize, Serialize};

/// L2 norm of a vector.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Normalise a vector to unit L2 norm in place. Zero vectors are left as-is.
pub fn l2_normalize(v: &mut [f32]) {
    let norm = l2_norm(v);
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Dot product of two equal-length vectors.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Cosine similarity in `[-1, 1]` of two equal-length vectors. Returns 0
/// when either vector is zero.
///
/// One loop carries the dot product and both squared norms side by side, so
/// the three dependent chains overlap instead of running one after another.
/// Each is still summed in lane order from `-0.0`, where
/// `Iterator::sum::<f32>` starts, so the result has the bits of
/// `dot(a, b) / (l2_norm(a) * l2_norm(b))`: a dot product whose every
/// product is `-0.0` stays `-0.0`.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (mut ab, mut aa, mut bb) = (-0.0f32, -0.0f32, -0.0f32);
    for (x, y) in a.iter().zip(b) {
        ab += x * y;
        aa += x * x;
        bb += y * y;
    }
    let (na, nb) = (aa.sqrt(), bb.sqrt());
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (ab / (na * nb)).clamp(-1.0, 1.0)
}

/// Rows normalised together by [`l2_normalize_rows`].
const NORM_CHAINS: usize = 8;

/// [`l2_normalize`] every `dim`-lane row of `rows`, bit for bit, with the
/// norm chains of [`NORM_CHAINS`] rows interleaved: each row's squares are
/// still summed in lane order from `-0.0`, but eight independent chains
/// advance together instead of one waiting on its own last add.
pub(crate) fn l2_normalize_rows(rows: &mut [f32], dim: usize) {
    if dim == 0 {
        return;
    }
    for group in rows.chunks_mut(NORM_CHAINS * dim) {
        let mut sums = [-0.0f32; NORM_CHAINS];
        let sums = &mut sums[..group.len() / dim];
        for lane in 0..dim {
            for (row, sum) in sums.iter_mut().enumerate() {
                let x = group[row * dim + lane];
                *sum += x * x;
            }
        }
        for (row, sum) in group.chunks_exact_mut(dim).zip(sums) {
            let norm = sum.sqrt();
            if norm > 0.0 {
                for x in row {
                    *x /= norm;
                }
            }
        }
    }
}

/// Cosine distance `1 - cosine_similarity`, in `[0, 2]`.
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    1.0 - cosine_similarity(a, b)
}

/// A dense row-major matrix of embeddings.
///
/// Rows are stored contiguously, which keeps the mutual-top-K joins and the
/// HNSW index cache-friendly and makes the memory accounting exact.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct Matrix {
    dim: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create an empty matrix whose rows will have `dim` columns.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Create a matrix with pre-allocated capacity for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        Self {
            dim,
            data: Vec::with_capacity(dim * rows),
        }
    }

    /// A matrix of `dim`-column rows laid end to end in `data`.
    pub(crate) fn from_data(dim: usize, data: Vec<f32>) -> Self {
        debug_assert!(data.len().is_multiple_of(dim));
        Self { dim, data }
    }

    /// Number of columns per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row length must equal matrix dim");
        self.data.extend_from_slice(row);
    }

    /// Append every row of `other`.
    ///
    /// # Panics
    /// Panics if `other.dim() != self.dim()`.
    pub fn append(&mut self, other: &Matrix) {
        assert_eq!(other.dim, self.dim, "row length must equal matrix dim");
        self.data.extend_from_slice(&other.data);
    }

    /// Borrow row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Iterate over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// Heap bytes used by the matrix data.
    pub fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_normalize() {
        let mut v = vec![3.0, 4.0];
        assert!((l2_norm(&v) - 5.0).abs() < 1e-6);
        l2_normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
        let mut zero = vec![0.0, 0.0];
        l2_normalize(&mut zero);
        assert_eq!(zero, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_bounds_and_degenerate_cases() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&a, &b).abs() < 1e-6);
        assert_eq!(cosine_similarity(&a, &[0.0, 0.0]), 0.0);
        assert!((cosine_distance(&a, &b) - 1.0).abs() < 1e-6);
    }

    /// Every product `-0.0`: the dot product stays `-0.0`, as a sum from
    /// `-0.0` gives it, and so does the cosine.
    #[test]
    fn cosine_keeps_the_sign_of_a_negative_zero_dot_product() {
        let a = [1.0, -0.0, 0.0];
        let b = [-0.0, 1.0, -2.0];
        let definition = (dot(&a, &b) / (l2_norm(&a) * l2_norm(&b))).clamp(-1.0, 1.0);
        assert_eq!(definition.to_bits(), (-0.0f32).to_bits());
        assert_eq!(cosine_similarity(&a, &b).to_bits(), definition.to_bits());
    }

    #[test]
    fn rows_normalise_as_each_row_alone() {
        let mut state = 3u64;
        for dim in [1, 3, 64, 100, 384] {
            for rows in [0, 1, 7, 8, 9, 17] {
                let mut data: Vec<f32> = (0..rows * dim)
                    .map(|_| (crate::hashing::splitmix64(&mut state) >> 40) as f32 / 1e6 - 4.0)
                    .collect();
                if rows > 2 {
                    data[dim..2 * dim].fill(0.0);
                }
                let mut expected = data.clone();
                for row in expected.chunks_exact_mut(dim) {
                    l2_normalize(row);
                }
                l2_normalize_rows(&mut data, dim);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&data), bits(&expected), "{rows} rows of {dim}");
            }
        }
    }

    #[test]
    fn matrix_round_trip() {
        let mut m = Matrix::with_capacity(2, 3);
        for row in [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]] {
            m.push_row(&row);
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let collected: Vec<&[f32]> = m.rows().collect();
        assert_eq!(collected.len(), 3);
        assert!(!m.is_empty());
        assert!(m.approx_bytes() >= 6 * 4);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn matrix_rejects_wrong_arity() {
        let mut m = Matrix::new(3);
        m.push_row(&[1.0, 2.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::new(4);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        let zero_dim = Matrix::new(0);
        assert_eq!(zero_dim.len(), 0);
    }
}
