//! Disjoint-set union (union-find) with path compression and union by rank.
//!
//! Used to apply transitivity when aggregating matched pairs into tuples: if
//! `A` matches `B` and `B` matches `C`, all three end up in the same set.

/// A disjoint-set forest over `0..len`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    groups: usize,
}

impl UnionFind {
    /// Create `len` singleton sets.
    pub fn new(len: usize) -> Self {
        Self {
            parent: (0..len).collect(),
            rank: vec![0; len],
            groups: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// Find the representative of `x` (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (big, small) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        self.groups -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Materialise all sets as lists of member indices. Sets are ordered by
    /// their smallest member; members are sorted ascending.
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..self.len() {
            let root = self.find(i);
            map.entry(root).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = map.into_values().collect();
        out.sort_by_key(|g| g[0]);
        out
    }

    /// Like [`UnionFind::groups`] but only returns sets with at least
    /// `min_size` members.
    pub fn groups_min_size(&mut self, min_size: usize) -> Vec<Vec<usize>> {
        self.groups()
            .into_iter()
            .filter(|g| g.len() >= min_size)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_groups(), 4);
        assert_eq!(uf.len(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.groups().len(), 4);
    }

    #[test]
    fn union_and_transitivity() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.num_groups(), 3);
    }

    #[test]
    fn groups_are_sorted_and_complete() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(0, 2);
        let groups = uf.groups();
        assert_eq!(groups, vec![vec![0, 2], vec![1], vec![3, 5], vec![4]]);
        let multi = uf.groups_min_size(2);
        assert_eq!(multi, vec![vec![0, 2], vec![3, 5]]);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.groups().len(), 0);
    }

    #[test]
    fn chain_unions_collapse_to_one_group() {
        let n = 100;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        assert_eq!(uf.num_groups(), 1);
        assert_eq!(uf.groups()[0].len(), n);
    }
}
