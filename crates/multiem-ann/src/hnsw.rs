//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, TPAMI 2020).
//!
//! A from-scratch HNSW implementation covering the parts MultiEM needs:
//! incremental insertion with exponentially-distributed level assignment,
//! greedy descent through the upper layers, best-first `ef`-bounded search at
//! the base layer, and the *heuristic* neighbour-selection rule (Algorithm 4 of
//! the HNSW paper) that keeps the graph navigable on clustered data.
//!
//! The index is deterministic given its seed, which keeps pipeline runs and
//! the sensitivity experiments (Figure 6(b)) reproducible.

use crate::metric::Metric;
use crate::{for_each_group, Neighbor, Rows, StateField, VectorIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Configuration of an [`HnswIndex`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Number of neighbours a new node is linked to on **every** layer it
    /// joins (the HNSW `M` parameter, Algorithm 1), and the link cap of
    /// layers > 0.
    pub m: usize,
    /// Link cap of layer 0 (`Mmax0`, usually `2 * m`). A node is born with at
    /// most `m` links there and gains the rest as later nodes link back to
    /// it; a list that outgrows the cap is re-pruned by the heuristic.
    pub m0: usize,
    /// Size of the dynamic candidate list during construction.
    pub ef_construction: usize,
    /// Size of the dynamic candidate list during search (raised to `k` when
    /// `k > ef_search`).
    pub ef_search: usize,
    /// Seed of the level-assignment RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            m0: 32,
            ef_construction: 128,
            ef_search: 64,
            seed: 42,
        }
    }
}

impl HnswConfig {
    /// A configuration tuned for the small collections of this crate's tests.
    #[cfg(test)]
    pub(crate) fn small() -> Self {
        Self {
            m: 8,
            m0: 16,
            ef_construction: 64,
            ef_search: 32,
            seed: 42,
        }
    }
}

/// Max-heap entry: the farthest neighbour on top, so a heap capped at `ef`
/// entries keeps the `ef` closest seen so far (the result set of a layer
/// search).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FarthestFirst(Neighbor);

impl Eq for FarthestFirst {}

impl Ord for FarthestFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.rank(&other.0)
    }
}

impl PartialOrd for FarthestFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap entry: the closest neighbour on top (the candidate queue);
/// implemented as a max-heap over the reversed ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClosestFirst(Neighbor);

impl Eq for ClosestFirst {}

impl Ord for ClosestFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.rank(&self.0)
    }
}

impl PartialOrd for ClosestFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Working memory of the layer searches of one `add` or `search` call, so the
/// traversal allocates nothing once the buffers have grown.
#[derive(Debug, Clone, Default)]
struct SearchScratch {
    /// `visited[node] == epoch` marks `node` as seen by the current layer
    /// search; bumping `epoch` clears the whole set in O(1).
    visited: Vec<u32>,
    epoch: u32,
    candidates: BinaryHeap<ClosestFirst>,
    results: BinaryHeap<FarthestFirst>,
    /// Entry points of the next layer search on the way in, its result
    /// (ascending by [`Neighbor::rank`]) on the way out.
    found: Vec<Neighbor>,
    /// The nodes about to be scored together (the unvisited neighbours of
    /// the node being expanded) and their distances, in the same order.
    batch: Vec<usize>,
    distances: Vec<f32>,
    /// Candidate list of the link list being re-pruned.
    shrink: Vec<Neighbor>,
    /// Output of the neighbour-selection heuristic.
    selected: Vec<Neighbor>,
}

impl SearchScratch {
    /// Start a layer search over `nodes` nodes with an empty visited set.
    fn begin(&mut self, nodes: usize) {
        if self.visited.len() < nodes {
            self.visited.resize(nodes, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2^32 searches ago would read as visited.
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.candidates.clear();
        self.results.clear();
    }

    /// Distance of the farthest result so far.
    #[inline]
    fn worst(&self) -> f32 {
        self.results.peek().map_or(f32::INFINITY, |f| f.0.distance)
    }

    /// A neighbour's turn in the expansion: `reached` joins the candidates
    /// if the results are short of `ef` or it is closer than the worst of
    /// them, and then the results too if `keep` accepts it.
    #[inline]
    fn reach<F>(&mut self, reached: Neighbor, ef: usize, keep: &F)
    where
        F: Fn(usize) -> bool + ?Sized,
    {
        if self.results.len() < ef || reached.distance < self.worst() {
            self.candidates.push(ClosestFirst(reached));
            if keep(reached.index) {
                self.results.push(FarthestFirst(reached));
                if self.results.len() > ef {
                    self.results.pop();
                }
            }
        }
    }

    /// Mark `node` visited; `true` if it was not yet.
    #[inline]
    fn visit(&mut self, node: usize) -> bool {
        let fresh = self.visited[node] != self.epoch;
        self.visited[node] = self.epoch;
        fresh
    }
}

/// An HNSW approximate nearest-neighbour index.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    config: HnswConfig,
    metric: Metric,
    dim: usize,
    /// Flat row-major vector storage.
    data: Vec<f32>,
    /// Squared norm of every stored vector, so a graph distance is one pass
    /// over the pair ([`Metric::distance_prenormed`]). Derived from `data`:
    /// never serialized, recomputed on deserialize.
    norms: Vec<f32>,
    /// `links[node][layer]` = neighbour list of `node` at `layer`.
    links: Vec<Vec<Vec<u32>>>,
    /// Highest layer currently present.
    max_layer: usize,
    /// Entry point node for searches.
    entry_point: Option<usize>,
    /// Level-assignment RNG.
    rng: ChaCha8Rng,
    /// `1 / ln(M)` — the level normalisation factor from the HNSW paper.
    level_mult: f64,
    /// Scratch of `add` (`search` takes `&self` and brings its own).
    scratch: SearchScratch,
    /// Score and expand one neighbour at a time, as before the tiled
    /// expansion: the reference the tests compare the tiled index against.
    #[cfg(test)]
    one_at_a_time: bool,
}

impl HnswIndex {
    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric, config: HnswConfig) -> Self {
        let level_mult = 1.0 / (config.m.max(2) as f64).ln();
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        Self {
            config,
            metric,
            dim,
            data: Vec::new(),
            norms: Vec::new(),
            links: Vec::new(),
            max_layer: 0,
            entry_point: None,
            rng,
            level_mult,
            scratch: SearchScratch::default(),
            #[cfg(test)]
            one_at_a_time: false,
        }
    }

    /// Build an index from a set of vectors.
    pub fn build<'a, I>(dim: usize, metric: Metric, config: HnswConfig, vectors: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut idx = Self::new(dim, metric, config);
        for v in vectors {
            idx.add(v);
        }
        idx
    }

    /// [`HnswIndexState`]'s fields, in order ([`crate::AnnIndex::state_fields`]).
    pub(crate) fn state_fields(&self) -> Vec<(&'static str, StateField<'_>)> {
        vec![
            ("config", StateField::Value(&self.config)),
            ("metric", StateField::Value(&self.metric)),
            ("dim", StateField::Value(&self.dim)),
            ("data", StateField::Floats(&self.data)),
            ("links", StateField::Value(&self.links)),
            ("max_layer", StateField::Value(&self.max_layer)),
            ("entry_point", StateField::Value(&self.entry_point)),
        ]
    }

    /// The stored vectors and their norms, as the distance loops read them.
    fn rows(&self) -> Rows<'_> {
        Rows {
            metric: self.metric,
            dim: self.dim,
            data: &self.data,
            norms: &self.norms,
        }
    }

    /// Distance from a query with squared norm `qnorm` to stored `node`.
    #[inline]
    fn dist_to(&self, query: &[f32], qnorm: f32, node: usize) -> f32 {
        self.metric
            .distance_prenormed(query, self.vector(node), qnorm, self.norms[node])
    }

    /// Distance from the query to every one of `nodes`, in order, into `out`
    /// — a group of nodes per kernel tile ([`Rows::distances_to`]), so the
    /// vectors of a link list, which sit anywhere in `data`, are fetched
    /// together instead of one cache miss after another. Each entry is
    /// bit-equal to [`Self::dist_to`].
    fn distances_to(
        &self,
        query: &[f32],
        qnorm: f32,
        nodes: impl Iterator<Item = usize>,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        #[cfg(test)]
        if self.one_at_a_time {
            out.extend(nodes.map(|node| self.dist_to(query, qnorm, node)));
            return;
        }
        let rows = self.rows();
        for_each_group(nodes, |group| {
            out.extend_from_slice(&rows.distances_to(query, qnorm, group)[..group.len()]);
        });
    }

    /// Distance between two stored nodes.
    #[inline]
    fn dist_between(&self, a: usize, b: usize) -> f32 {
        self.dist_to(self.vector(a), self.norms[a], b)
    }

    fn random_level(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        ((-u.ln()) * self.level_mult).floor() as usize
    }

    /// The `ef = 1` layer search of the upper-layer descent: walk from
    /// `current` to whichever neighbour is strictly closer to `query` until
    /// none is. No heaps and no visited set — a revisited node is never
    /// closer than the current best, so it cannot be taken twice.
    fn greedy_closest(
        &self,
        query: &[f32],
        qnorm: f32,
        mut current: Neighbor,
        layer: usize,
        distances: &mut Vec<f32>,
    ) -> Neighbor {
        loop {
            let from = current.index;
            let links = &self.links[from][layer];
            let nodes = links.iter().map(|&nb| nb as usize);
            self.distances_to(query, qnorm, nodes.clone(), distances);
            for (nb, &d) in nodes.zip(distances.iter()) {
                if d < current.distance {
                    current = Neighbor::new(nb, d);
                }
            }
            if current.index == from {
                return current;
            }
        }
    }

    /// Descend greedily from the entry point `entry` through every layer
    /// from the top one down to `above + 1`.
    fn descend(
        &self,
        query: &[f32],
        qnorm: f32,
        entry: usize,
        above: usize,
        distances: &mut Vec<f32>,
    ) -> Neighbor {
        let mut current = Neighbor::new(entry, self.dist_to(query, qnorm, entry));
        for layer in (above + 1..=self.max_layer).rev() {
            current = self.greedy_closest(query, qnorm, current, layer, distances);
        }
        current
    }

    /// Best-first search restricted to one layer. On entry `scratch.found`
    /// holds the entry points with their distances to `query`; on exit it
    /// holds the up to `ef` closest nodes `keep` accepts that were reached
    /// from them, ascending.
    ///
    /// A rejected node is expanded like any other — it joins `candidates`
    /// under the same rule — so the graph stays navigable through it, but it
    /// never enters `results`: `ef` counts accepted nodes only. With fewer
    /// than `ef` of them reachable the search ends when `candidates` runs
    /// out. Generic over `keep` so the unfiltered callers (every insertion)
    /// compile to a loop with no predicate in it.
    fn search_layer<F>(
        &self,
        query: &[f32],
        qnorm: f32,
        ef: usize,
        layer: usize,
        keep: &F,
        scratch: &mut SearchScratch,
    ) where
        F: Fn(usize) -> bool + ?Sized,
    {
        scratch.begin(self.len());
        for i in 0..scratch.found.len() {
            let ep = scratch.found[i];
            if scratch.visit(ep.index) {
                scratch.candidates.push(ClosestFirst(ep));
                if keep(ep.index) {
                    scratch.results.push(FarthestFirst(ep));
                }
            }
        }

        while let Some(ClosestFirst(closest)) = scratch.candidates.pop() {
            let worst = scratch.worst();
            if closest.distance > worst && scratch.results.len() >= ef {
                break;
            }
            let links = &self.links[closest.index][layer];
            // The expansion as it was before the tile: each neighbour is
            // visited, scored with the pair kernel and given its turn before
            // the next one is looked at.
            #[cfg(test)]
            if self.one_at_a_time {
                for &nb in links {
                    if scratch.visit(nb as usize) {
                        let d = self.dist_to(query, qnorm, nb as usize);
                        scratch.reach(Neighbor::new(nb as usize, d), ef, keep);
                    }
                }
                continue;
            }
            // The unvisited neighbours are scored together, then take their
            // turns in link order: a distance does not depend on the turns
            // before it, so this is the one-at-a-time expansion exactly.
            scratch.batch.clear();
            for &nb in links {
                if scratch.visit(nb as usize) {
                    scratch.batch.push(nb as usize);
                }
            }
            let nodes = scratch.batch.iter().copied();
            self.distances_to(query, qnorm, nodes, &mut scratch.distances);
            for i in 0..scratch.batch.len() {
                let reached = Neighbor::new(scratch.batch[i], scratch.distances[i]);
                scratch.reach(reached, ef, keep);
            }
        }

        scratch.found.clear();
        scratch.found.extend(scratch.results.drain().map(|f| f.0));
        scratch.found.sort_unstable_by(Neighbor::rank);
    }

    /// The one query path: greedy descent through the upper layers (which
    /// ignores `keep` — it only picks where the base-layer search starts),
    /// then the `ef`-bounded base-layer search over the nodes `keep` accepts.
    fn search_where<F>(&self, query: &[f32], k: usize, keep: &F) -> Vec<Neighbor>
    where
        F: Fn(usize) -> bool + ?Sized,
    {
        let Some(entry) = self.entry_point else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let qnorm = Metric::squared_norm(query);
        let mut scratch = SearchScratch::default();
        let nearest = self.descend(query, qnorm, entry, 0, &mut scratch.distances);
        scratch.found.push(nearest);
        let ef = self.config.ef_search.max(k);
        self.search_layer(query, qnorm, ef, 0, keep, &mut scratch);
        scratch.found.truncate(k);
        scratch.found
    }

    /// Heuristic neighbour selection (HNSW paper, Algorithm 4) of up to `m`
    /// of the ascending `candidates` into `selected`: prefer candidates that
    /// are closer to the base node than to any already-selected neighbour,
    /// which preserves graph navigability between clusters.
    fn select_neighbors_heuristic(
        &self,
        candidates: &[Neighbor],
        m: usize,
        selected: &mut Vec<Neighbor>,
    ) {
        selected.clear();
        for &cand in candidates {
            if selected.len() >= m {
                break;
            }
            let dominated = selected
                .iter()
                .any(|s| self.dist_between(cand.index, s.index) < cand.distance);
            if !dominated {
                selected.push(cand);
            }
        }
        // Fill up with remaining nearest candidates if the heuristic was too strict.
        if selected.len() < m {
            for &cand in candidates {
                if selected.len() >= m {
                    break;
                }
                if !selected.iter().any(|s| s.index == cand.index) {
                    selected.push(cand);
                }
            }
        }
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m0
        } else {
            self.config.m
        }
    }

    /// Re-prune the neighbour list of `node` at `layer` to the layer's link cap.
    fn shrink_links(&mut self, node: usize, layer: usize, scratch: &mut SearchScratch) {
        let cap = self.max_links(layer);
        if self.links[node][layer].len() <= cap {
            return;
        }
        let nodes = self.links[node][layer].iter().map(|&nb| nb as usize);
        let (from, norm) = (self.vector(node), self.norms[node]);
        self.distances_to(from, norm, nodes.clone(), &mut scratch.distances);
        scratch.shrink.clear();
        scratch.shrink.extend(
            nodes
                .zip(&scratch.distances)
                .map(|(nb, &d)| Neighbor::new(nb, d)),
        );
        scratch.shrink.sort_unstable_by(Neighbor::rank);
        self.select_neighbors_heuristic(&scratch.shrink, cap, &mut scratch.selected);
        let list = &mut self.links[node][layer];
        list.clear();
        list.extend(scratch.selected.iter().map(|n| n.index as u32));
    }

    /// Insert a vector; returns its index.
    ///
    /// # Panics
    /// Panics if `vector.len() != dim`.
    pub fn add(&mut self, vector: &[f32]) -> usize {
        assert_eq!(vector.len(), self.dim, "vector dimensionality mismatch");
        let new_id = self.len();
        let qnorm = Metric::squared_norm(vector);
        self.data.extend_from_slice(vector);
        self.norms.push(qnorm);
        let level = self.random_level();
        self.links.push(vec![Vec::new(); level + 1]);

        let Some(entry) = self.entry_point else {
            self.entry_point = Some(new_id);
            self.max_layer = level;
            return new_id;
        };

        // Phase 1: greedy descent through layers above the new node's level.
        let mut scratch = std::mem::take(&mut self.scratch);
        let nearest = self.descend(vector, qnorm, entry, level, &mut scratch.distances);

        // Phase 2: connect on every layer from min(level, max_layer) down to
        // 0; each layer's candidates are the entry points of the next.
        scratch.found.clear();
        scratch.found.push(nearest);
        let ef = self.config.ef_construction.max(1);
        for layer in (0..=level.min(self.max_layer)).rev() {
            self.search_layer(vector, qnorm, ef, layer, &|_| true, &mut scratch);
            self.select_neighbors_heuristic(&scratch.found, self.config.m, &mut scratch.selected);
            let own: Vec<u32> = scratch.selected.iter().map(|n| n.index as u32).collect();
            for &nb in &own {
                self.links[nb as usize][layer].push(new_id as u32);
                self.shrink_links(nb as usize, layer, &mut scratch);
            }
            self.links[new_id][layer] = own;
        }
        self.scratch = scratch;

        if level > self.max_layer {
            self.max_layer = level;
            self.entry_point = Some(new_id);
        }
        new_id
    }
}

/// The serializable part of an [`HnswIndex`].
///
/// The level-assignment RNG is not stored: it is a pure function of the
/// config seed and the number of insertions, so deserialization recreates it
/// from the seed and replays the level draws. This keeps snapshots compact
/// and guarantees a restored index continues the exact insertion sequence the
/// original would have produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HnswIndexState {
    config: HnswConfig,
    metric: Metric,
    dim: usize,
    data: Vec<f32>,
    links: Vec<Vec<Vec<u32>>>,
    max_layer: usize,
    entry_point: Option<usize>,
}

impl Serialize for HnswIndex {
    fn to_value(&self) -> serde::Value {
        HnswIndexState {
            config: self.config.clone(),
            metric: self.metric,
            dim: self.dim,
            data: self.data.clone(),
            links: self.links.clone(),
            max_layer: self.max_layer,
            entry_point: self.entry_point,
        }
        .to_value()
    }
}

impl Deserialize for HnswIndex {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let state = HnswIndexState::from_value(v)?;
        // Cross-field validation: a malformed (e.g. hand-edited or truncated)
        // snapshot must fail here with an error, not panic later in search.
        let nodes = state.links.len();
        let norms = crate::row_norms("HnswIndex", &state.data, state.dim)?;
        if state.dim != 0 && norms.len() != nodes {
            return Err(serde::Error::type_mismatch(
                "HnswIndex",
                "data length matching links length times dim",
            ));
        }
        match state.entry_point {
            Some(ep) if ep >= nodes => {
                return Err(serde::Error::type_mismatch(
                    "HnswIndex",
                    "entry_point within bounds",
                ))
            }
            None if nodes > 0 => {
                return Err(serde::Error::type_mismatch(
                    "HnswIndex",
                    "entry_point present for a non-empty index",
                ))
            }
            _ => {}
        }
        for layers in &state.links {
            if layers.is_empty() || layers.len() > state.max_layer + 1 {
                return Err(serde::Error::type_mismatch(
                    "HnswIndex",
                    "per-node layer lists within max_layer",
                ));
            }
            for layer in layers {
                if layer.iter().any(|&nb| nb as usize >= nodes) {
                    return Err(serde::Error::type_mismatch(
                        "HnswIndex",
                        "neighbour links within bounds",
                    ));
                }
            }
        }
        let mut index = HnswIndex::new(state.dim, state.metric, state.config);
        index.norms = norms;
        index.data = state.data;
        index.links = state.links;
        index.max_layer = state.max_layer;
        index.entry_point = state.entry_point;
        // Replay the level draws so future insertions continue the stream.
        for _ in 0..nodes {
            index.random_level();
        }
        Ok(index)
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_where(query, k, &|_| true)
    }

    fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        keep: &dyn Fn(usize) -> bool,
    ) -> Vec<Neighbor> {
        self.search_where(query, k, keep)
    }

    fn vector(&self, index: usize) -> &[f32] {
        let start = index * self.dim;
        &self.data[start..start + self.dim]
    }

    fn approx_bytes(&self) -> usize {
        let link_bytes: usize = self
            .links
            .iter()
            .map(|layers| {
                layers
                    .iter()
                    .map(|l| l.capacity() * 4 + std::mem::size_of::<Vec<u32>>())
                    .sum::<usize>()
            })
            .sum();
        let words = self.data.capacity() + self.norms.capacity() + self.scratch.visited.capacity();
        words * 4 + link_bytes + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;
    use rand::Rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    /// Unit vectors in tight clusters around random unit centres — the shape
    /// of the encoder's output on duplicate-bearing tables, and the case the
    /// neighbour-selection heuristic exists for.
    fn clustered_unit_vectors(clusters: usize, per: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let unit = |mut v: Vec<f32>| {
            let norm = Metric::squared_norm(&v).sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            v
        };
        let centres: Vec<Vec<f32>> = random_vectors(clusters, dim, seed ^ 0x5eed)
            .into_iter()
            .map(unit)
            .collect();
        let mut out = Vec::with_capacity(clusters * per);
        // Round-robin over the clusters so insertion order is not grouped.
        for _ in 0..per {
            for centre in &centres {
                out.push(unit(
                    centre
                        .iter()
                        .map(|c| c + rng.gen_range(-0.03f32..0.03))
                        .collect(),
                ));
            }
        }
        out
    }

    #[test]
    fn graph_distances_agree_with_metric_distance() {
        for metric in [Metric::Cosine, Metric::Euclidean] {
            for dim in [384, 13] {
                let vectors = clustered_unit_vectors(4, 5, dim, 31);
                let idx = HnswIndex::build(
                    dim,
                    metric,
                    HnswConfig::small(),
                    vectors.iter().map(|v| v.as_slice()),
                );
                let query = &clustered_unit_vectors(1, 1, dim, 77)[0];
                let qnorm = Metric::squared_norm(query);
                for a in 0..vectors.len() {
                    let to = idx.dist_to(query, qnorm, a);
                    assert!(
                        (to - metric.distance(query, &vectors[a])).abs() < 1e-5,
                        "{metric:?} dim {dim}: query -> node {a}"
                    );
                    for b in 0..vectors.len() {
                        let between = idx.dist_between(a, b);
                        assert!(
                            (between - metric.distance(&vectors[a], &vectors[b])).abs() < 1e-5,
                            "{metric:?} dim {dim}: node {a} -> node {b}"
                        );
                    }
                }
            }
        }
    }

    /// 20 clusters of 30 unit vectors in 384 dimensions under both indexes,
    /// and 5 more members of every cluster as queries. Clusters (30) are
    /// larger than `m0` (16): with plain nearest-first selection every link
    /// stays inside its cluster and recall@1 and @10 measure 0.90 here; with
    /// the heuristic they are 1.0.
    fn clustered_384d_fixture() -> (HnswIndex, BruteForceIndex, Vec<Vec<f32>>) {
        let dim = 384;
        let all = clustered_unit_vectors(20, 35, dim, 13);
        let (vectors, queries) = all.split_at(20 * 30);
        let hnsw = HnswIndex::build(
            dim,
            Metric::Cosine,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let exact = BruteForceIndex::from_vectors(
            dim,
            Metric::Cosine,
            vectors.iter().map(|v| v.as_slice()),
        );
        (hnsw, exact, queries.to_vec())
    }

    #[test]
    fn recall_on_clustered_384d_unit_vectors() {
        let (hnsw, exact, queries) = clustered_384d_fixture();
        let (mut top1, mut top10) = (0usize, 0usize);
        for q in &queries {
            let approx = hnsw.search(q, 10);
            let truth = exact.search(q, 10);
            top1 += usize::from(approx[0].index == truth[0].index);
            top10 += truth
                .iter()
                .filter(|t| approx.iter().any(|a| a.index == t.index))
                .count();
        }
        let recall1 = top1 as f64 / queries.len() as f64;
        let recall10 = top10 as f64 / (10 * queries.len()) as f64;
        assert!(recall1 >= 0.98, "recall@1 {recall1}");
        assert!(recall10 >= 0.95, "recall@10 {recall10}");
    }

    /// An index built and searched with the tiled neighbour expansion is the
    /// index the one-at-a-time expansion builds, link for link, and answers
    /// every query — filtered or not — with the same hits, bit for bit.
    #[test]
    fn tiled_expansion_is_the_one_at_a_time_expansion() {
        let fixtures = [
            (Metric::Cosine, clustered_unit_vectors(12, 30, 384, 3)),
            (Metric::Euclidean, random_vectors(400, 13, 5)),
            (Metric::Cosine, random_vectors(300, 8, 7)),
        ];
        for (metric, vectors) in fixtures {
            let dim = vectors[0].len();
            let (stored, probes) = vectors.split_at(vectors.len() - 20);
            let mut tiled = HnswIndex::new(dim, metric, HnswConfig::small());
            let mut reference = tiled.clone();
            reference.one_at_a_time = true;
            for v in stored {
                assert_eq!(tiled.add(v), reference.add(v));
            }
            assert_eq!(tiled.links, reference.links, "{metric:?}");
            assert_eq!(tiled.max_layer, reference.max_layer);
            assert_eq!(tiled.entry_point, reference.entry_point);
            assert!(
                tiled.max_layer > 0,
                "{metric:?}: the descent is not exercised"
            );

            let dead = dead_mask(stored.len(), 30, 11);
            let bits = |hits: Vec<Neighbor>| -> Vec<(usize, u32)> {
                hits.iter()
                    .map(|n| (n.index, n.distance.to_bits()))
                    .collect()
            };
            let mut poisoned = probes[0].clone();
            poisoned[dim / 2] = f32::NAN;
            for query in probes.iter().chain(&stored[..10]).chain([&poisoned]) {
                for k in [1, 10, 50] {
                    assert_eq!(
                        bits(tiled.search(query, k)),
                        bits(reference.search(query, k)),
                        "{metric:?} k {k}"
                    );
                    assert_eq!(
                        bits(tiled.search_where(query, k, &|node| !dead[node])),
                        bits(reference.search_where(query, k, &|node| !dead[node])),
                        "{metric:?} k {k}, filtered"
                    );
                }
            }
        }
    }

    /// A seeded mask with about `percent` of `n` nodes dead.
    fn dead_mask(n: usize, percent: u32, seed: u64) -> Vec<bool> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..100u32) < percent).collect()
    }

    #[test]
    fn filtered_recall_holds_as_nodes_die() {
        let (hnsw, exact, queries) = clustered_384d_fixture();
        let queries: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        for percent in [0, 25, 50] {
            let dead = dead_mask(hnsw.len(), percent, 5);
            let keep = |node: usize| !dead[node];
            let approx: Vec<Vec<Neighbor>> = queries
                .iter()
                .map(|q| hnsw.search_filtered(q, 1, &keep))
                .collect();
            let agree = queries
                .iter()
                .zip(&approx)
                .filter(|(q, a)| a[0].index == exact.search_filtered(q, 1, &keep)[0].index)
                .count();
            let recall = agree as f64 / queries.len() as f64;
            assert!(recall >= 0.95, "{percent}% dead: recall@1 {recall}");
            if percent == 0 {
                // Accepting every node is the unfiltered search.
                for (q, hits) in queries.iter().zip(&approx) {
                    assert_eq!(hits, &hnsw.search(q, 1));
                }
            }
        }
    }

    #[test]
    fn filtered_search_skips_the_dead_and_still_fills_k() {
        let vectors = random_vectors(300, 8, 23);
        let idx = HnswIndex::build(
            8,
            Metric::Euclidean,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let n = idx.len();
        let entry = idx.entry_point.unwrap();

        // The guarantee is for a connected base layer; this fixture has one.
        let mut reached = vec![false; n];
        let mut frontier = vec![entry];
        reached[entry] = true;
        while let Some(node) = frontier.pop() {
            for &nb in &idx.links[node][0] {
                if !std::mem::replace(&mut reached[nb as usize], true) {
                    frontier.push(nb as usize);
                }
            }
        }
        assert!(reached.iter().all(|&r| r), "fixture graph is not connected");

        // Dead: a third of the nodes, the entry point, and every neighbour
        // the entry point has on any layer — the search starts in a hole.
        let mut dead = dead_mask(n, 33, 9);
        dead[entry] = true;
        for layer in &idx.links[entry] {
            for &nb in layer {
                dead[nb as usize] = true;
            }
        }
        let live = dead.iter().filter(|&&d| !d).count();
        assert!(live > 100 && live < n - 20);

        let probes = random_vectors(20, 8, 77);
        let queries: Vec<&[f32]> = probes
            .iter()
            .chain(&vectors[..10])
            .map(|q| q.as_slice())
            .collect();
        let ef = idx.config.ef_search;
        for k in [1, 5, ef + 8, live, live + 7] {
            for query in &queries {
                let hits = idx.search_filtered(query, k, &|node| !dead[node]);
                assert_eq!(hits.len(), k.min(live), "k = {k}");
                assert!(hits.iter().all(|hit| !dead[hit.index]));
                assert!(hits.windows(2).all(|w| w[0].rank(&w[1]).is_lt()));
            }
        }

        // Fewer live nodes than `k`: the search ends when the candidates do,
        // with every live node (the graph is connected) and nothing else.
        let few = [7usize, 150, 299];
        for query in &queries {
            let hits = idx.search_filtered(query, 10, &|node| few.contains(&node));
            let mut nodes: Vec<usize> = hits.iter().map(|hit| hit.index).collect();
            nodes.sort_unstable();
            assert_eq!(nodes, few);
        }
        for query in &queries {
            assert!(idx.search_filtered(query, 10, &|_| false).is_empty());
        }
    }

    #[test]
    fn nan_query_is_deterministic_and_panic_free() {
        let vectors = random_vectors(200, 8, 41);
        // A NaN coordinate makes every distance NaN, under cosine too (its
        // clamp used to turn them into 0.0).
        for metric in [Metric::Euclidean, Metric::Cosine] {
            let idx = HnswIndex::build(
                8,
                metric,
                HnswConfig::small(),
                vectors.iter().map(|v| v.as_slice()),
            );
            let mut query = vectors[0].clone();
            query[3] = f32::NAN;
            let bits = |hits: Vec<Neighbor>| -> Vec<(usize, u32)> {
                hits.iter()
                    .map(|n| (n.index, n.distance.to_bits()))
                    .collect()
            };
            let first = idx.search(&query, 10);
            assert!(!first.is_empty());
            assert!(first.iter().all(|n| n.distance.is_nan()), "{metric:?}");
            assert_eq!(bits(first), bits(idx.search(&query, 10)));
            // Inserting it must not panic either, and leaves the index searchable.
            let mut idx = idx;
            idx.add(&query);
            assert_eq!(idx.search(&vectors[1], 1)[0].index, 1);
        }
    }

    #[test]
    fn empty_and_single_element() {
        let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::small());
        assert!(idx.is_empty());
        assert!(idx.search(&[1.0, 0.0, 0.0, 0.0], 3).is_empty());

        let mut idx = HnswIndex::new(2, Metric::Euclidean, HnswConfig::small());
        idx.add(&[1.0, 1.0]);
        let res = idx.search(&[0.0, 0.0], 5);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].index, 0);
    }

    #[test]
    fn exact_on_tiny_collections() {
        let points: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ];
        let idx = HnswIndex::build(
            2,
            Metric::Euclidean,
            HnswConfig::small(),
            points.iter().map(|p| p.as_slice()),
        );
        let res = idx.search(&[5.05, 5.0], 2);
        let found: Vec<usize> = res.iter().map(|n| n.index).collect();
        assert!(found.contains(&3) && found.contains(&4));
    }

    #[test]
    fn recall_against_brute_force() {
        let dim = 16;
        let n = 400;
        let vectors = random_vectors(n, dim, 7);
        let hnsw = HnswIndex::build(
            dim,
            Metric::Cosine,
            HnswConfig::default(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let exact = BruteForceIndex::from_vectors(
            dim,
            Metric::Cosine,
            vectors.iter().map(|v| v.as_slice()),
        );

        let queries = random_vectors(30, dim, 99);
        let k = 10;
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let approx: std::collections::HashSet<usize> =
                hnsw.search(q, k).into_iter().map(|n| n.index).collect();
            let truth: Vec<usize> = exact.search(q, k).into_iter().map(|n| n.index).collect();
            total += truth.len();
            hits += truth.iter().filter(|t| approx.contains(t)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.85, "HNSW recall too low: {recall}");
    }

    #[test]
    fn results_sorted_by_distance() {
        let vectors = random_vectors(100, 8, 3);
        let idx = HnswIndex::build(
            8,
            Metric::Euclidean,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let res = idx.search(&vectors[0], 10);
        for w in res.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // The query point itself is in the index; it must be the closest.
        assert_eq!(res[0].index, 0);
        assert!(res[0].distance < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let vectors = random_vectors(200, 8, 11);
        let build = || {
            HnswIndex::build(
                8,
                Metric::Cosine,
                HnswConfig::default(),
                vectors.iter().map(|v| v.as_slice()),
            )
        };
        let a = build();
        let b = build();
        let qa = a.search(&vectors[5], 7);
        let qb = b.search(&vectors[5], 7);
        assert_eq!(qa, qb);
    }

    #[test]
    fn new_nodes_get_m_links_and_no_list_exceeds_its_cap() {
        let vectors = random_vectors(300, 8, 21);
        let config = HnswConfig {
            m: 6,
            m0: 12,
            ..HnswConfig::default()
        };
        let mut idx = HnswIndex::new(8, Metric::Cosine, config);
        let mut grown_past_m = false;
        for v in &vectors {
            let id = idx.add(v);
            // Algorithm 1: a node is born with at most M links per layer...
            for l in &idx.links[id] {
                assert!(l.len() <= 6, "new node {id} has {} links", l.len());
            }
            // ...and back-links fill layer 0 up to Mmax0, never past it.
            for layers in &idx.links {
                for (layer, l) in layers.iter().enumerate() {
                    let cap = if layer == 0 { 12 } else { 6 };
                    assert!(
                        l.len() <= cap,
                        "layer {layer} has {} links (cap {cap})",
                        l.len()
                    );
                }
                grown_past_m |= layers[0].len() > 6;
            }
        }
        assert!(grown_past_m, "layer-0 slack between m and m0 is never used");
    }

    #[test]
    fn approx_bytes_nonzero_and_grows() {
        let vectors = random_vectors(50, 8, 5);
        let small = HnswIndex::build(
            8,
            Metric::Cosine,
            HnswConfig::small(),
            vectors[..10].iter().map(|v| v.as_slice()),
        );
        let large = HnswIndex::build(
            8,
            Metric::Cosine,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        assert!(large.approx_bytes() > small.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn add_rejects_wrong_dim() {
        let mut idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::small());
        idx.add(&[1.0, 2.0]);
    }

    #[test]
    fn serde_roundtrip_preserves_search_and_insertion_stream() {
        let vectors = random_vectors(150, 8, 17);
        let mut original = HnswIndex::build(
            8,
            Metric::Cosine,
            HnswConfig::small(),
            vectors[..100].iter().map(|v| v.as_slice()),
        );
        let json = serde_json::to_string(&original).unwrap();
        let mut restored: HnswIndex = serde_json::from_str(&json).unwrap();

        // The snapshot shape is the pre-norm-cache one (old snapshots load,
        // new ones load in old builds); the cache is rebuilt from `data`.
        let serde::Value::Map(fields) = original.to_value() else {
            panic!("an index serializes as a map");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "config",
                "metric",
                "dim",
                "data",
                "links",
                "max_layer",
                "entry_point"
            ]
        );
        assert_eq!(original.norms, restored.norms);

        // Same graph: identical search results.
        assert_eq!(
            original.search(&vectors[3], 10),
            restored.search(&vectors[3], 10)
        );

        // Same RNG position: further insertions keep the indexes identical.
        for v in &vectors[100..] {
            original.add(v);
            restored.add(v);
        }
        assert_eq!(
            original.search(&vectors[120], 10),
            restored.search(&vectors[120], 10)
        );
        assert_eq!(original.max_layer, restored.max_layer);
        assert_eq!(original.links, restored.links);
    }

    #[test]
    fn deserialize_rejects_malformed_snapshots() {
        let vectors = random_vectors(20, 4, 9);
        let idx = HnswIndex::build(
            4,
            Metric::Cosine,
            HnswConfig::small(),
            vectors.iter().map(|v| v.as_slice()),
        );
        let json = serde_json::to_string(&idx).unwrap();
        // Out-of-bounds entry point (replace whatever value it has with 999).
        let key = "\"entry_point\":";
        let start = json.find(key).unwrap() + key.len();
        let end = start + json[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let bad = format!("{}999{}", &json[..start], &json[end..]);
        assert!(serde_json::from_str::<HnswIndex>(&bad).is_err());
        // Data length inconsistent with dim * nodes.
        let bad = json.replace("\"dim\":4", "\"dim\":5");
        assert!(serde_json::from_str::<HnswIndex>(&bad).is_err());
    }
}
