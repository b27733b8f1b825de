//! Distance metrics.

use serde::{Deserialize, Serialize};

/// Distance metric used by the vector indexes.
///
/// The paper uses cosine distance in the merging phase and Euclidean distance
/// in the pruning phase (Section IV-A, implementation details).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Metric {
    /// Cosine distance `1 - cos(a, b)`, range `[0, 2]`.
    #[default]
    Cosine,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Negative inner product (so that smaller is closer).
    InnerProduct,
}

impl Metric {
    /// Distance between two equal-length vectors under this metric.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => {
                let mut dot = 0.0f32;
                let mut na = 0.0f32;
                let mut nb = 0.0f32;
                for (x, y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                if na == 0.0 || nb == 0.0 {
                    return 1.0;
                }
                (1.0 - dot / (na.sqrt() * nb.sqrt())).max(0.0)
            }
            Metric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt(),
            Metric::InnerProduct => -a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>(),
        }
    }

    /// [`Metric::distance`] with **both** squared norms precomputed, leaving
    /// one lane-unrolled pass per pair: a dot product for
    /// [`Metric::Cosine`] / [`Metric::InnerProduct`], a sum of squared
    /// differences for [`Metric::Euclidean`] (the norm-expanded form
    /// `na + nb - 2·dot` cancels catastrophically for near-duplicates, so
    /// the norms are only used by cosine).
    ///
    /// This is the kernel of both indexes: each caches one squared norm per
    /// stored vector (`nb`) and computes the query's (`na`) once per search.
    /// Agrees with `distance` up to summation order (eight lanes instead of
    /// one chain).
    #[inline]
    pub fn distance_prenormed(&self, a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
        match self {
            Metric::Cosine => Self::cosine_from_parts(dot_lanes(a, b), na, nb),
            Metric::Euclidean => squared_diff_lanes(a, b).sqrt(),
            Metric::InnerProduct => -dot_lanes(a, b),
        }
    }

    /// Squared L2 norm on the lane structure of the pair kernels — the norm
    /// [`Metric::distance_prenormed`] takes for either side.
    #[inline]
    pub fn squared_norm(v: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks = v.chunks_exact(LANES);
        for c in &mut chunks {
            for (lane, x) in acc.iter_mut().zip(c) {
                *lane += x * x;
            }
        }
        let mut n = sum_lanes(acc);
        for x in chunks.remainder() {
            n += x * x;
        }
        n
    }

    #[inline]
    fn cosine_from_parts(dot: f32, na: f32, nb: f32) -> f32 {
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        (1.0 - dot / (na.sqrt() * nb.sqrt())).max(0.0)
    }
}

/// Accumulator lanes of the unrolled scan kernels. A single-accumulator
/// f32 reduction is bound by FMA latency (one chain); eight independent
/// lanes keep the multiplier ports busy and let LLVM vectorize the body.
const LANES: usize = 8;

#[inline]
fn sum_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Lane-unrolled `Σ term(aᵢ, bᵢ)`, the body of the one-pass pair kernels.
#[inline]
fn lane_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for ((lane, x), y) in acc.iter_mut().zip(xs).zip(ys) {
            *lane += term(*x, *y);
        }
    }
    let mut sum = sum_lanes(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += term(*x, *y);
    }
    sum
}

/// Lane-unrolled dot product.
#[inline]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| x * y)
}

/// Lane-unrolled sum of squared differences (squared Euclidean distance).
#[inline]
fn squared_diff_lanes(a: &[f32], b: &[f32]) -> f32 {
    lane_sum(a, b, |x, y| (x - y) * (x - y))
}

impl Metric {
    /// Short name used in experiment records.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Cosine => "cosine",
            Metric::Euclidean => "euclidean",
            Metric::InnerProduct => "inner-product",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_distance_properties() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let m = Metric::Cosine;
        assert!(m.distance(&a, &a) < 1e-6);
        assert!((m.distance(&a, &b) - 1.0).abs() < 1e-6);
        // Opposite vectors: distance 2.
        assert!((m.distance(&a, &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        // Zero vector convention.
        assert_eq!(m.distance(&a, &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn euclidean_distance_matches_hand_computed() {
        let m = Metric::Euclidean;
        assert!((m.distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(m.distance(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn inner_product_is_negated() {
        let m = Metric::InnerProduct;
        assert_eq!(m.distance(&[1.0, 2.0], &[3.0, 4.0]), -11.0);
        // Larger inner product = smaller (more negative) distance.
        assert!(m.distance(&[1.0, 0.0], &[5.0, 0.0]) < m.distance(&[1.0, 0.0], &[1.0, 0.0]));
    }

    #[test]
    fn names() {
        assert_eq!(Metric::Cosine.name(), "cosine");
        assert_eq!(Metric::Euclidean.name(), "euclidean");
        assert_eq!(Metric::InnerProduct.name(), "inner-product");
        assert_eq!(Metric::default(), Metric::Cosine);
    }
}
