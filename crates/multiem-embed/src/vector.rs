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

/// Cosine similarity in `[-1, 1]`. Returns 0 when either vector is zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Cosine distance `1 - cosine_similarity`, in `[0, 2]`.
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    1.0 - cosine_similarity(a, b)
}

/// Euclidean (L2) distance.
pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Mean of a set of vectors; returns a zero vector of `dim` when `rows` is empty.
pub fn mean_vector<'a, I>(rows: I, dim: usize) -> Vec<f32>
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let mut acc = vec![0.0f32; dim];
    let mut count = 0usize;
    for r in rows {
        debug_assert_eq!(r.len(), dim);
        for (a, x) in acc.iter_mut().zip(r) {
            *a += *x;
        }
        count += 1;
    }
    if count > 0 {
        let inv = 1.0 / count as f32;
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }
    acc
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

    /// Build from a list of equal-length rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut m = Self::with_capacity(dim, rows.len());
        for r in rows {
            m.push_row(r);
        }
        m
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

    #[test]
    fn euclidean_matches_hand_computed() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(euclidean_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn mean_vector_basic_and_empty() {
        let rows: Vec<Vec<f32>> = vec![vec![1.0, 3.0], vec![3.0, 5.0]];
        let m = mean_vector(rows.iter().map(|r| r.as_slice()), 2);
        assert_eq!(m, vec![2.0, 4.0]);
        let empty = mean_vector(std::iter::empty(), 3);
        assert_eq!(empty, vec![0.0; 3]);
    }

    #[test]
    fn matrix_round_trip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = Matrix::from_rows(&rows);
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
