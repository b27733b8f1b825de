//! Distance metrics.

use serde::{Deserialize, Serialize};
use std::ops::Range;

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
                cosine_from_parts(dot, na.sqrt(), nb.sqrt())
            }
            Metric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt(),
        }
    }

    /// [`Metric::distance`] with **both** squared norms precomputed, leaving
    /// one lane-unrolled pass per pair: a dot product for [`Metric::Cosine`],
    /// a sum of squared differences for [`Metric::Euclidean`] (the
    /// norm-expanded form `na + nb - 2·dot` cancels catastrophically for
    /// near-duplicates, so the norms are only used by cosine).
    ///
    /// Each index caches one squared norm per stored vector (`nb`) and
    /// computes the query's (`na`) once per search. Agrees with `distance`
    /// up to summation order (eight lanes instead of one chain). This is the
    /// 1×1 instance of [`Metric::distance_tile`].
    #[inline]
    pub fn distance_prenormed(&self, a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
        self.distance_tile([a], [b], [na], [nb])[0][0]
    }

    /// [`Metric::distance_prenormed`] for every pair of `R` vectors `a` and
    /// `C` vectors `b` at once: entry `[r][c]` is
    /// `distance_prenormed(a[r], b[c], na[r], nb[c])`, **bit for bit** — a
    /// tile changes how many pairs are in flight, never the order in which
    /// one pair's terms are summed, so a caller may score a pair in whatever
    /// tile it falls into and rankings do not depend on the tiling.
    ///
    /// This is the one distance kernel of the crate: the HNSW neighbour
    /// expansion scores through it, and the exact join and the brute-force
    /// scan through `Metric::distance_tile_within`, which runs the same lane
    /// loop in two legs.
    ///
    /// What the tile buys: a pair's sum runs on eight accumulator lanes,
    /// which on the workspace's x86-64-v3 target (`.cargo/config.toml`:
    /// AVX2, sixteen eight-float `ymm` registers) are one register, i.e. one
    /// dependent add chain, so a lone pair is bound by add latency. (The
    /// target has FMA, but Rust never contracts `a * b + c` into one, so the
    /// bits are a baseline SSE2 build's.) A tile runs `R × C` pairs' chains
    /// side by side and loads each vector's block once for a whole row or
    /// column of pairs. The `R · C` accumulator registers have to fit beside
    /// the `R + C` loaded blocks: 1×4 and 2×2 take eight of the sixteen; 4×4
    /// needs twenty-four and spills, and gains nothing end to end (see
    /// `TILE_ROWS` in `mutual.rs`). Measured on 384-d vectors (`cargo bench
    /// -p multiem-bench --bench ann`, `ann/kernel`, two runs on a shared
    /// two-core VM), ns per pair at v3: 1×1 52–54, 1×4 34–37, 2×2 26–30,
    /// 4×4 25–31; a baseline SSE2 build measured alongside: 75–77, 49–51,
    /// 46–49, 42–74.
    #[inline]
    pub fn distance_tile<const R: usize, const C: usize>(
        &self,
        a: [&[f32]; R],
        b: [&[f32]; C],
        na: [f32; R],
        nb: [f32; C],
    ) -> [[f32; C]; R] {
        match self {
            Metric::Cosine => {
                // One square root per row and per column, not two per pair.
                cosine_tile(tile_sum(a, b, dot), na.map(f32::sqrt), nb.map(f32::sqrt))
            }
            Metric::Euclidean => euclidean_tile(tile_sum(a, b, squared_difference)),
        }
    }

    /// [`Metric::distance_tile`] for a caller that keeps only the pairs
    /// within `max_distance`: `None` when the first half of the blocks
    /// ([`LANES`]) proves that every pair of the tile lies beyond it,
    /// otherwise the tile, bit for bit. The lanes resume from where the test
    /// left them, so a pair's terms are summed in the one order either way.
    ///
    /// Its callers are every reader that keeps only what lies within a
    /// bound: the exact join's 2×2 tiles, at `m`, and the brute-force
    /// scan's 1×4 groups, at the lower of its `max_distance` and its top-k's
    /// current worst distance. Neither keeps a pair the test proves beyond.
    ///
    /// `roots` are the rows' L2 norms (the square roots of the norms
    /// `distance_tile` takes) and `tails` their L2 norms over the terms the
    /// test has not seen ([`Metric::tail_norm`]); a caller that tiles the
    /// same rows many times computes both once per row (the join once per
    /// join, the index once per stored row).
    ///
    /// A pair is proved beyond `m` only when `ra · rb` is finite, so a row
    /// with a NaN or an infinite component is always scored: its distance
    /// may be NaN, and where a NaN ranks depends on its sign bit
    /// ([`f32::total_cmp`]). Otherwise, with `p` the pair's partial sum:
    ///
    /// * **Cosine:** `p + ta · tb < (1 − m − δ) · ra · rb`. By
    ///   Cauchy–Schwarz the unseen terms add at most `ta · tb` to the dot
    ///   product, so the exact distance exceeds `m + δ`. `δ = 4 · dim · ε`
    ///   covers the f32 rounding: an `n`-term sum is off by at most about
    ///   `n · ε/2 · ra · rb`, and the full dot product, the partial one, the
    ///   two tail norms and the two norms together stay under
    ///   `2 · dim · ε · ra · rb`; the final division and subtraction add a
    ///   few ulps of 1. So the computed distance exceeds `m` as well. A zero
    ///   row makes both sides 0 and is never proved beyond.
    /// * **Euclidean:** `sqrt(p) > m`, with no margin. Every term is a
    ///   square, and adding a non-negative f32 never lowers a sum, so each
    ///   lane, the lane tree and the trailing terms only rise from `p`: the
    ///   computed distance is at least `sqrt(p)`.
    #[inline]
    pub(crate) fn distance_tile_within<const R: usize, const C: usize>(
        &self,
        a: [&[f32]; R],
        b: [&[f32]; C],
        roots: ([f32; R], [f32; C]),
        tails: ([f32; R], [f32; C]),
        max_distance: f32,
    ) -> Option<[[f32; C]; R]> {
        let ((ra, rb), (ta, tb)) = (roots, tails);
        match self {
            Metric::Cosine => {
                let dim = a.first().map_or(0, |v| v.len());
                let floor = 1.0 - max_distance - 4.0 * dim as f32 * f32::EPSILON;
                let dots = tile_sum_unless(a, b, dot, |r, c, partial| {
                    let scale = ra[r] * rb[c];
                    scale.is_finite() && partial + ta[r] * tb[c] < floor * scale
                })?;
                Some(cosine_tile(dots, ra, rb))
            }
            Metric::Euclidean => {
                let sums = tile_sum_unless(a, b, squared_difference, |r, c, partial| {
                    (ra[r] * rb[c]).is_finite() && partial.sqrt() > max_distance
                })?;
                Some(euclidean_tile(sums))
            }
        }
    }

    /// L2 norm of the terms of `row` that [`Metric::distance_tile_within`]
    /// sums after its test: the second half of the whole [`LANES`]-blocks
    /// and the trailing terms.
    pub(crate) fn tail_norm(row: &[f32]) -> f32 {
        Self::squared_norm(&row[checkpoint(row.len()) * LANES..]).sqrt()
    }

    /// Squared L2 norm on the lane structure of the pair kernel — the norm
    /// [`Metric::distance_prenormed`] takes for either side.
    #[inline]
    pub fn squared_norm(v: &[f32]) -> f32 {
        tile_sum([v], [v], dot)[0][0]
    }
}

/// The term of a cosine pair's sum.
#[inline]
fn dot(x: f32, y: f32) -> f32 {
    x * y
}

/// The term of a Euclidean pair's sum.
#[inline]
fn squared_difference(x: f32, y: f32) -> f32 {
    (x - y) * (x - y)
}

/// Cosine distances of a tile from its dot products and the rows' norms
/// (not squared).
#[inline]
fn cosine_tile<const R: usize, const C: usize>(
    dots: [[f32; C]; R],
    ra: [f32; R],
    rb: [f32; C],
) -> [[f32; C]; R] {
    let mut tile = dots;
    for (row, &ra) in tile.iter_mut().zip(&ra) {
        for (dot, &rb) in row.iter_mut().zip(&rb) {
            *dot = cosine_from_parts(*dot, ra, rb);
        }
    }
    tile
}

/// Euclidean distances of a tile from its sums of squared differences.
#[inline]
fn euclidean_tile<const R: usize, const C: usize>(sums: [[f32; C]; R]) -> [[f32; C]; R] {
    sums.map(|row| row.map(f32::sqrt))
}

/// Cosine distance from a dot product and the two **norms** (not squared).
///
/// The clamp to `[0, ∞)` must let NaN through: `f32::max` returns the
/// non-NaN operand, which used to put a vector with one NaN component at
/// distance 0.0 from everything. Identical bits to `.max(0.0)` for every
/// finite input (`1.0 - x` is never `-0.0`).
#[inline]
fn cosine_from_parts(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
    if norm_a == 0.0 || norm_b == 0.0 {
        return 1.0;
    }
    let distance = 1.0 - dot / (norm_a * norm_b);
    if distance < 0.0 {
        0.0
    } else {
        distance
    }
}

/// Accumulator lanes per pair. A pair's sum is defined as: term `i` goes to
/// lane `i % LANES`, the lanes are added as a balanced tree
/// ([`sum_lanes`]), then the `len % LANES` trailing terms one by one. That
/// order is part of the result (f32 addition does not associate) and is the
/// same in every tile shape, which is why a tile is bit-equal to the pair
/// kernel. Eight is one `ymm` register on the x86-64-v3 target (two `xmm`
/// registers on baseline SSE2). More lanes would change every sum, and do
/// not help: a pair's lanes are still one chain of dependent adds, and what
/// hides their latency is other pairs' chains ([`Metric::distance_tile`]).
const LANES: usize = 8;

#[inline]
fn sum_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Whole [`LANES`]-blocks before the test of
/// [`Metric::distance_tile_within`]: half of them, rounded down.
#[inline]
fn checkpoint(dim: usize) -> usize {
    dim / LANES / 2
}

/// Add the terms of `blocks`, a range of whole [`LANES`]-blocks of the
/// vectors, to the lane accumulators of every pair of the tile:
/// `lanes[r][c][l] += Σ term(a[r][i], b[c][i])` over the `i ≡ l (mod LANES)`
/// of those blocks, in index order. This is the one distance loop of the
/// crate, and it is resumable: [`tile_sum`] runs it from zero over every
/// block, and [`tile_sum_unless`] runs it up to its test and then on from
/// the lanes it stopped at, which leaves each lane with the sum one pass
/// gives.
///
/// Never inlined, on purpose. Compiled into a caller, LLVM's SLP vectorizer
/// seeds from whatever consumes the sums (the lane tree, a top-K compare)
/// and shuffles lanes across pairs or drops to scalar code: the
/// 1,150 × 1,150 exact join on one thread measured 83 ms with this function
/// inlined against 33 ms without, from the same source. Out of line the only
/// seeds are the stores of the result, every instance compiles to the
/// straight `load, mul, add` loop, and the `ann/kernel` bench rows measure
/// the code every caller runs. The call costs a few ns per *tile*.
///
/// The accumulators are copied into a local for the loop and back after it,
/// and in the tiles that carry the work (1×1, 1×4, 2×2) the loop has no exit
/// but its end: with a bounds check left inside it, the accumulators were
/// stored on every block.
#[inline(never)]
fn lane_sums<const R: usize, const C: usize>(
    a: [&[f32]; R],
    b: [&[f32]; C],
    blocks: Range<usize>,
    lanes: &mut [[[f32; LANES]; C]; R],
    term: impl Fn(f32, f32) -> f32,
) {
    // Every vector cut to the same blocks up front, so the loop below
    // indexes without bounds checks: one compare per vector. (Cut as
    // `[blocks.start..][..blocks.len()]`, the loop kept a second counter, an
    // extra compare on every block.)
    let (from, to) = (blocks.start * LANES, blocks.end * LANES);
    let len = to.saturating_sub(from) / LANES;
    let mut xs: [&[[f32; LANES]]; R] = [&[]; R];
    let mut ys: [&[[f32; LANES]]; C] = [&[]; C];
    for (x, v) in xs.iter_mut().zip(a) {
        *x = &v[from..to].as_chunks().0[..len];
    }
    for (y, v) in ys.iter_mut().zip(b) {
        *y = &v[from..to].as_chunks().0[..len];
    }
    let mut acc = *lanes;
    for i in 0..len {
        for r in 0..R {
            for c in 0..C {
                for l in 0..LANES {
                    acc[r][c][l] += term(xs[r][i][l], ys[c][i][l]);
                }
            }
        }
    }
    *lanes = acc;
}

/// `Σ term(a[r]ᵢ, b[c]ᵢ)` for every pair of the tile from its lane
/// accumulators over every whole block: the lane tree, then the trailing
/// terms one by one. Always inlined: out of line, the exact join called it
/// with a copy of every lane.
#[inline(always)]
fn sums_from_lanes<const R: usize, const C: usize>(
    a: [&[f32]; R],
    b: [&[f32]; C],
    lanes: &[[[f32; LANES]; C]; R],
    term: impl Fn(f32, f32) -> f32,
) -> [[f32; C]; R] {
    let dim = a.first().map_or(0, |v| v.len());
    let tail = dim - dim % LANES;
    let mut sums = [[0.0f32; C]; R];
    for r in 0..R {
        for c in 0..C {
            let mut sum = sum_lanes(lanes[r][c]);
            for (x, y) in a[r][tail..].iter().zip(&b[c][tail..]) {
                sum += term(*x, *y);
            }
            sums[r][c] = sum;
        }
    }
    sums
}

/// `Σ term(a[r]ᵢ, b[c]ᵢ)` for every pair of the tile, each in the summation
/// order [`LANES`] defines. All vectors must have the same length.
#[inline]
fn tile_sum<const R: usize, const C: usize>(
    a: [&[f32]; R],
    b: [&[f32]; C],
    term: impl Fn(f32, f32) -> f32 + Copy,
) -> [[f32; C]; R] {
    let dim = a.first().map_or(0, |v| v.len());
    debug_assert!(a.iter().chain(&b).all(|v| v.len() == dim));
    let mut lanes = [[[0.0; LANES]; C]; R];
    lane_sums(a, b, 0..dim / LANES, &mut lanes, term);
    sums_from_lanes(a, b, &lanes, term)
}

/// [`tile_sum`], or `None` if `beyond(r, c, partial)` holds for every pair
/// `(r, c)` of the tile, `partial` being the pair's sum over the blocks
/// before the [`checkpoint`]. The sums it returns are [`tile_sum`]'s, bit
/// for bit.
#[inline]
fn tile_sum_unless<const R: usize, const C: usize>(
    a: [&[f32]; R],
    b: [&[f32]; C],
    term: impl Fn(f32, f32) -> f32 + Copy,
    beyond: impl Fn(usize, usize, f32) -> bool,
) -> Option<[[f32; C]; R]> {
    let dim = a.first().map_or(0, |v| v.len());
    debug_assert!(a.iter().chain(&b).all(|v| v.len() == dim));
    let (half, blocks) = (checkpoint(dim), dim / LANES);
    let mut lanes = [[[0.0; LANES]; C]; R];
    lane_sums(a, b, 0..half, &mut lanes, term);
    // A pair's lane tree is added only when the pairs before it were beyond:
    // where the bound does not fire, it mostly costs one tree, not `R × C`.
    if (0..R).all(|r| (0..C).all(|c| beyond(r, c, sum_lanes(lanes[r][c])))) {
        return None;
    }
    lane_sums(a, b, half..blocks, &mut lanes, term);
    Some(sums_from_lanes(a, b, &lanes, term))
}

impl Metric {
    /// Short name used in experiment records.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Cosine => "cosine",
            Metric::Euclidean => "euclidean",
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

    /// The pair kernel as it stood before the tile: eight lanes filled in
    /// index order, the balanced lane tree, the trailing terms one by one,
    /// and `f32::max` as the cosine clamp.
    fn reference_pair(metric: Metric, a: &[f32], b: &[f32]) -> f32 {
        let lane_sum = |a: &[f32], b: &[f32], term: fn(f32, f32) -> f32| {
            let mut acc = [0.0f32; LANES];
            let (mut ca, mut cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
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
        };
        let dot = |a, b| lane_sum(a, b, |x, y| x * y);
        match metric {
            Metric::Cosine => {
                let (na, nb) = (dot(a, a), dot(b, b));
                if na == 0.0 || nb == 0.0 {
                    return 1.0;
                }
                (1.0 - dot(a, b) / (na.sqrt() * nb.sqrt())).max(0.0)
            }
            Metric::Euclidean => lane_sum(a, b, |x, y| (x - y) * (x - y)).sqrt(),
        }
    }

    /// Four vectors of `dim` floats from `seed`; the ones at `zero` and
    /// `poisoned` are the zero vector and one with a NaN component.
    fn tile_side(dim: usize, seed: f32, zero: usize, poisoned: Option<usize>) -> Vec<Vec<f32>> {
        let mut x = seed;
        let mut side: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        x = (x * 7.31).fract() + 0.1;
                        x - 0.6
                    })
                    .collect()
            })
            .collect();
        side[zero] = vec![0.0; dim];
        if let Some(component) = poisoned.and_then(|p| side[p].get_mut(dim / 2)) {
            *component = f32::NAN;
        }
        side
    }

    /// Every tile shape the crate uses, and 4×4, against the pair kernel.
    fn assert_tile_is_the_pair_kernel<const R: usize, const C: usize>() {
        for dim in [0, 1, 7, 8, 9, 11, 384] {
            let left = tile_side(dim, 1.0, 1, Some(3));
            let right = tile_side(dim, 0.37, 2, Some(0));
            let a: [&[f32]; R] = std::array::from_fn(|r| left[r].as_slice());
            let b: [&[f32]; C] = std::array::from_fn(|c| right[c].as_slice());
            let na = a.map(Metric::squared_norm);
            let nb = b.map(Metric::squared_norm);
            for metric in [Metric::Cosine, Metric::Euclidean] {
                let tile = metric.distance_tile(a, b, na, nb);
                for r in 0..R {
                    for c in 0..C {
                        let what = format!("{metric:?} {R}x{C} dim {dim} pair ({r}, {c})");
                        let pair = metric.distance_prenormed(a[r], b[c], na[r], nb[c]);
                        assert_eq!(tile[r][c].to_bits(), pair.to_bits(), "{what}");
                        let before = reference_pair(metric, a[r], b[c]);
                        if pair.is_nan() {
                            // Only the cosine clamp changed, and only for NaN.
                            let poisoned = a[r].iter().chain(b[c]).any(|x| x.is_nan());
                            assert!(poisoned, "{what}: NaN from finite input");
                            assert!(before.is_nan() || metric == Metric::Cosine, "{what}");
                        } else {
                            assert_eq!(pair.to_bits(), before.to_bits(), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// [`Metric::distance_tile_within`] against [`Metric::distance_tile`]
    /// for one tile shape, on sides with and without a NaN row, at
    /// thresholds around every entry: it is the tile bit for bit, or `None`
    /// with every entry past the threshold. Returns how many it dropped.
    fn bounded_tile_drops<const R: usize, const C: usize>() -> usize {
        let mut dropped = 0;
        for dim in [0, 1, 7, 8, 9, 11, 16, 17, 384] {
            for poisoned in [false, true] {
                let left = tile_side(dim, 1.0, 1, poisoned.then_some(3));
                let right = tile_side(dim, 0.37, 2, poisoned.then_some(0));
                let a: [&[f32]; R] = std::array::from_fn(|r| left[r].as_slice());
                let b: [&[f32]; C] = std::array::from_fn(|c| right[c].as_slice());
                let (na, nb) = (a.map(Metric::squared_norm), b.map(Metric::squared_norm));
                let roots = (na.map(f32::sqrt), nb.map(f32::sqrt));
                let tails = (a.map(Metric::tail_norm), b.map(Metric::tail_norm));
                let bits = |tile: [[f32; C]; R]| tile.map(|row| row.map(f32::to_bits));
                for metric in [Metric::Cosine, Metric::Euclidean] {
                    let tile = metric.distance_tile(a, b, na, nb);
                    let mut thresholds = vec![f32::INFINITY, -1.0, 0.0, 0.3, 1.0];
                    for &d in tile.iter().flatten().filter(|d| d.is_finite()) {
                        thresholds.extend([d, d.next_down(), d.next_up()]);
                    }
                    for m in thresholds {
                        let what = format!("{metric:?} {R}x{C} dim {dim} at m {m}");
                        match metric.distance_tile_within(a, b, roots, tails, m) {
                            Some(within) => assert_eq!(bits(within), bits(tile), "{what}"),
                            None => {
                                let beyond = tile.iter().flatten().all(|&d| d > m);
                                assert!(beyond, "{what}: {tile:?}");
                                let mut terms = a.iter().chain(&b).flat_map(|v| v.iter());
                                assert!(!terms.any(|x| x.is_nan()), "{what}: NaN row dropped");
                                dropped += 1;
                            }
                        }
                    }
                }
            }
        }
        dropped
    }

    #[test]
    fn a_bounded_tile_is_the_tile_or_every_pair_is_beyond_the_threshold() {
        let dropped = bounded_tile_drops::<1, 1>()
            + bounded_tile_drops::<1, 2>()
            + bounded_tile_drops::<2, 1>()
            + bounded_tile_drops::<2, 2>()
            + bounded_tile_drops::<1, 4>();
        assert!(dropped > 50, "only {dropped} tiles dropped: vacuous");
    }

    #[test]
    fn every_tile_entry_is_bit_equal_to_the_pair_kernel() {
        assert_tile_is_the_pair_kernel::<1, 1>();
        assert_tile_is_the_pair_kernel::<1, 4>();
        assert_tile_is_the_pair_kernel::<4, 1>();
        assert_tile_is_the_pair_kernel::<2, 2>();
        assert_tile_is_the_pair_kernel::<1, 2>();
        assert_tile_is_the_pair_kernel::<2, 1>();
        assert_tile_is_the_pair_kernel::<4, 4>();
    }

    #[test]
    fn cosine_keeps_nan_and_clamps_only_negative_rounding() {
        let poisoned = [f32::NAN, 0.0, 1.0];
        let clean = [1.0, 0.0, 0.0];
        let m = Metric::Cosine;
        // `f32::max` used to turn these into 0.0: a perfect match.
        assert!(m.distance(&poisoned, &clean).is_nan());
        assert!(m.distance(&clean, &poisoned).is_nan());
        let (np, nc) = (
            Metric::squared_norm(&poisoned),
            Metric::squared_norm(&clean),
        );
        assert!(m.distance_prenormed(&poisoned, &clean, np, nc).is_nan());
        // A vector against itself rounds to just above or just below zero;
        // below is clamped, so the sign bit is never set.
        for len in 1..60 {
            let v: Vec<f32> = (1..=len).map(|i| 1.0 / i as f32).collect();
            let n = Metric::squared_norm(&v);
            for d in [m.distance_prenormed(&v, &v, n, n), m.distance(&v, &v)] {
                assert!(d.is_sign_positive() && d < 1e-6, "len {len}: {d}");
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(Metric::Cosine.name(), "cosine");
        assert_eq!(Metric::Euclidean.name(), "euclidean");
        assert_eq!(Metric::default(), Metric::Cosine);
    }
}
