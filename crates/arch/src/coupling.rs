//! Coupling graphs for fixed-topology architectures.
//!
//! The paper evaluates Atomique against four fixed-coupling baselines:
//! IBM superconducting (heavy-hex), Baker's FAA with long-range
//! interactions, FAA-rectangular (nearest neighbour grid), and
//! FAA-triangular. All of them are represented by a [`CouplingGraph`]:
//! an undirected graph over physical qubits with a precomputed all-pairs
//! shortest-path distance matrix (the quantity SABRE's heuristic consumes).

use std::collections::VecDeque;

/// An undirected coupling graph over `n` physical qubits with precomputed
/// BFS distances.
///
/// # Examples
///
/// ```
/// use raa_arch::CouplingGraph;
/// let g = CouplingGraph::grid(2, 3);
/// assert_eq!(g.num_qubits(), 6);
/// assert!(g.are_coupled(0, 1));
/// assert_eq!(g.distance(0, 5), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CouplingGraph {
    n: usize,
    adj: Vec<Vec<u32>>,
    edges: Vec<(u32, u32)>,
    dist: Vec<u16>, // row-major n×n
}

/// Distance value used for disconnected pairs.
pub const UNREACHABLE: u16 = u16::MAX;

impl CouplingGraph {
    /// Builds a graph from an edge list.
    ///
    /// Self-loops and duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `>= n`.
    pub fn from_edges(n: usize, raw_edges: &[(u32, u32)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut edges = Vec::new();
        for &(a, b) in raw_edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range"
            );
            if a == b {
                continue;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if adj[lo as usize].contains(&hi) {
                continue;
            }
            adj[lo as usize].push(hi);
            adj[hi as usize].push(lo);
            edges.push((lo, hi));
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        let dist = all_pairs_bfs(n, &adj);
        CouplingGraph {
            n,
            adj,
            edges,
            dist,
        }
    }

    /// A 1-D chain of `n` qubits.
    pub fn line(n: usize) -> Self {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1))
            .map(|i| (i as u32, i as u32 + 1))
            .collect();
        Self::from_edges(n, &edges)
    }

    /// A rectangular nearest-neighbour grid (FAA-Rectangular baseline).
    pub fn grid(rows: usize, cols: usize) -> Self {
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// A triangular lattice (FAA-Triangular baseline, Geyser-style).
    ///
    /// Implemented as the rectangular grid plus one diagonal per cell,
    /// alternating direction row by row so every interior qubit reaches six
    /// neighbours.
    pub fn triangular(rows: usize, cols: usize) -> Self {
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                    // Alternate the diagonal direction so the lattice is
                    // triangular rather than square-with-one-diagonal.
                    if r % 2 == 0 {
                        if c + 1 < cols {
                            edges.push((idx(r, c), idx(r + 1, c + 1)));
                        }
                    } else if c > 0 {
                        edges.push((idx(r, c), idx(r + 1, c - 1)));
                    }
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// A rectangular grid with interactions allowed up to Euclidean
    /// `radius` (in units of the lattice spacing): the Baker long-range FAA
    /// baseline, with the paper's setting `radius = 4` (four Rydberg radii).
    pub fn long_range_grid(rows: usize, cols: usize, radius: f64) -> Self {
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let r2 = radius * radius + 1e-9;
        let reach = radius.ceil() as isize;
        let mut edges = Vec::new();
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                for dr in 0..=reach {
                    for dc in -reach..=reach {
                        if dr == 0 && dc <= 0 {
                            continue; // count each pair once
                        }
                        let (nr, nc) = (r + dr, c + dc);
                        if nr < 0 || nr >= rows as isize || nc < 0 || nc >= cols as isize {
                            continue;
                        }
                        let d2 = (dr * dr + dc * dc) as f64;
                        if d2 <= r2 {
                            edges
                                .push((idx(r as usize, c as usize), idx(nr as usize, nc as usize)));
                        }
                    }
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// An IBM-style heavy-hex lattice.
    ///
    /// `chain_rows` horizontal chains of `chain_len` qubits each, joined by
    /// bridge qubits every four columns with the standard alternating
    /// offset. `heavy_hex(7, 15)` gives a 129-qubit device with the same
    /// degree-≤3 connectivity as IBM Washington (127 qubits); the paper's
    /// superconducting baseline.
    pub fn heavy_hex(chain_rows: usize, chain_len: usize) -> Self {
        let chain_base: Vec<u32> = {
            let mut base = Vec::with_capacity(chain_rows);
            let mut next = 0u32;
            for r in 0..chain_rows {
                base.push(next);
                next += chain_len as u32;
                if r + 1 < chain_rows {
                    // bridges between row r and r+1
                    let offset = if r % 2 == 0 { 0 } else { 2 };
                    let nbridges = chain_len.saturating_sub(offset).div_ceil(4);
                    next += nbridges as u32;
                }
            }
            base
        };
        let mut edges = Vec::new();
        let mut next_bridge;
        for r in 0..chain_rows {
            let base = chain_base[r];
            for c in 0..chain_len - 1 {
                edges.push((base + c as u32, base + c as u32 + 1));
            }
            if r + 1 < chain_rows {
                let offset = if r % 2 == 0 { 0 } else { 2 };
                next_bridge = base + chain_len as u32;
                let below = chain_base[r + 1];
                let mut c = offset;
                while c < chain_len {
                    edges.push((base + c as u32, next_bridge));
                    edges.push((next_bridge, below + c as u32));
                    next_bridge += 1;
                    c += 4;
                }
            }
        }
        let n = {
            let last_base = chain_base[chain_rows - 1];
            (last_base + chain_len as u32) as usize
        };
        Self::from_edges(n, &edges)
    }

    /// The complete multipartite graph over the given partition sizes.
    ///
    /// This is Atomique's coarse coupling model (paper Sec. I/III): qubits
    /// in different arrays can always interact via movement; qubits in the
    /// same array never can. Partition of qubit `q` is recoverable with
    /// prefix-sum arithmetic over `part_sizes` by the caller.
    pub fn complete_multipartite(part_sizes: &[usize]) -> Self {
        let n: usize = part_sizes.iter().sum();
        let mut part_of = Vec::with_capacity(n);
        for (p, &s) in part_sizes.iter().enumerate() {
            part_of.extend(std::iter::repeat_n(p, s));
        }
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if part_of[a] != part_of[b] {
                    edges.push((a as u32, b as u32));
                }
            }
        }
        Self::from_edges(n, &edges)
    }

    /// The complete multipartite graph, built analytically instead of via
    /// [`Self::from_edges`] + all-pairs BFS.
    ///
    /// Produces a graph *identical field-for-field* to
    /// [`Self::complete_multipartite`] — same edge order, same sorted
    /// adjacency lists, same distance matrix — but in O(n²) writes instead
    /// of O(n·E) BFS work plus the O(E·deg) duplicate scan of `from_edges`.
    /// The structure admits closed forms because partitions are contiguous
    /// index ranges: every cross-part pair is an edge (distance 1), every
    /// intra-part pair at distance 2 via any vertex of another part (or
    /// [`UNREACHABLE`] when only one part is populated), and a vertex's
    /// sorted neighbour list is simply "everything outside my part".
    /// Equality against the naive builder is pinned by tests below; the
    /// `TranspileIndex::Indexed` compile path depends on it.
    pub fn complete_multipartite_indexed(part_sizes: &[usize]) -> Self {
        let n: usize = part_sizes.iter().sum();
        // Per-vertex part range [start, end): parts occupy contiguous
        // ascending index ranges, which is what makes every order below
        // reproducible without sorting.
        let mut range_of: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut off = 0usize;
        for &s in part_sizes {
            for _ in 0..s {
                range_of.push((off, off + s));
            }
            off += s;
        }
        let populated = part_sizes.iter().filter(|&&s| s > 0).count();

        let mut adj: Vec<Vec<u32>> = Vec::with_capacity(n);
        for &(s, e) in &range_of {
            let mut a = Vec::with_capacity(n - (e - s));
            a.extend(0..s as u32);
            a.extend(e as u32..n as u32);
            adj.push(a);
        }

        // from_edges emits (a, b) with a < b in a-major order; with
        // contiguous parts the cross-part b > a are exactly b ∈ [end_a, n).
        let sum_sq: usize = part_sizes.iter().map(|&s| s * s).sum();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity((n * n - sum_sq) / 2);
        for (a, &(_, e)) in range_of.iter().enumerate() {
            edges.extend((e as u32..n as u32).map(|b| (a as u32, b)));
        }

        let mut dist = vec![UNREACHABLE; n * n];
        for x in 0..n {
            let row = x * n;
            if populated >= 2 {
                let (s, e) = range_of[x];
                dist[row..row + n].fill(1);
                dist[row + s..row + e].fill(2);
            }
            dist[row + x] = 0;
        }

        CouplingGraph {
            n,
            adj,
            edges,
            dist,
        }
    }

    /// Number of physical qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The deduplicated edge list with `a < b`.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The neighbours of `q`, sorted ascending.
    pub fn neighbors(&self, q: u32) -> &[u32] {
        &self.adj[q as usize]
    }

    /// Whether `a` and `b` share an edge.
    pub fn are_coupled(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Shortest-path distance in hops ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u16 {
        self.dist[a as usize * self.n + b as usize]
    }

    /// Whether the graph is connected (every pair reachable).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        (0..self.n).all(|b| self.dist[b] != UNREACHABLE)
    }

    /// Maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|a| a.len()).max().unwrap_or(0)
    }
}

fn all_pairs_bfs(n: usize, adj: &[Vec<u32>]) -> Vec<u16> {
    let mut dist = vec![UNREACHABLE; n * n];
    let mut queue = VecDeque::new();
    for src in 0..n {
        let row = src * n;
        dist[row + src] = 0;
        queue.clear();
        queue.push_back(src as u32);
        while let Some(u) = queue.pop_front() {
            let du = dist[row + u as usize];
            for &v in &adj[u as usize] {
                if dist[row + v as usize] == UNREACHABLE {
                    dist[row + v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances() {
        let g = CouplingGraph::line(5);
        assert_eq!(g.num_qubits(), 5);
        assert_eq!(g.edges().len(), 4);
        assert_eq!(g.distance(0, 4), 4);
        assert_eq!(g.distance(2, 2), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn grid_structure() {
        let g = CouplingGraph::grid(3, 3);
        assert_eq!(g.num_qubits(), 9);
        assert_eq!(g.edges().len(), 12);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.distance(0, 8), 4); // Manhattan
        assert!(g.are_coupled(0, 1));
        assert!(g.are_coupled(0, 3));
        assert!(!g.are_coupled(0, 4));
    }

    #[test]
    fn triangular_has_more_edges_than_grid() {
        let t = CouplingGraph::triangular(4, 4);
        let g = CouplingGraph::grid(4, 4);
        assert!(t.edges().len() > g.edges().len());
        assert_eq!(t.max_degree(), 6);
        // Distances can only shrink with more edges.
        for a in 0..16u32 {
            for b in 0..16u32 {
                assert!(t.distance(a, b) <= g.distance(a, b));
            }
        }
    }

    #[test]
    fn long_range_radius_one_equals_grid() {
        let lr = CouplingGraph::long_range_grid(3, 3, 1.0);
        let g = CouplingGraph::grid(3, 3);
        assert_eq!(lr.edges().len(), g.edges().len());
    }

    #[test]
    fn long_range_radius_four_reaches_far() {
        let lr = CouplingGraph::long_range_grid(5, 5, 4.0);
        assert!(lr.are_coupled(0, 4)); // distance 4 along a row
        assert!(lr.are_coupled(0, 6)); // diagonal sqrt(2)
        assert!(!lr.are_coupled(0, 24)); // corner-to-corner sqrt(32) > 4
        assert_eq!(lr.distance(0, 24), 2);
    }

    #[test]
    fn heavy_hex_is_connected_and_sparse() {
        let g = CouplingGraph::heavy_hex(7, 15);
        assert!(
            g.num_qubits() >= 120 && g.num_qubits() <= 135,
            "n={}",
            g.num_qubits()
        );
        assert!(g.is_connected());
        assert!(g.max_degree() <= 3);
    }

    #[test]
    fn complete_multipartite_structure() {
        let g = CouplingGraph::complete_multipartite(&[2, 2]);
        assert_eq!(g.num_qubits(), 4);
        // parts {0,1} and {2,3}: edges only across
        assert!(!g.are_coupled(0, 1));
        assert!(!g.are_coupled(2, 3));
        assert!(g.are_coupled(0, 2));
        assert!(g.are_coupled(1, 3));
        assert_eq!(g.distance(0, 1), 2);
        assert_eq!(g.distance(0, 2), 1);
    }

    /// The analytic multipartite builder must be indistinguishable from
    /// the naive one down to private field contents: the indexed transpile
    /// path swaps it in and claims bit-identical compiles on top of it.
    #[test]
    fn indexed_multipartite_equals_naive_field_for_field() {
        let shapes: &[&[usize]] = &[
            &[],
            &[0],
            &[1],
            &[3],
            &[0, 3],
            &[5, 0],
            &[1, 1],
            &[2, 2],
            &[1, 2, 3],
            &[0, 2, 0, 3],
            &[4, 4, 4],
            &[1, 7],
            &[2, 3, 2, 3],
        ];
        for &parts in shapes {
            let naive = CouplingGraph::complete_multipartite(parts);
            let fast = CouplingGraph::complete_multipartite_indexed(parts);
            assert_eq!(naive.n, fast.n, "{parts:?}: n");
            assert_eq!(naive.adj, fast.adj, "{parts:?}: adjacency");
            assert_eq!(naive.edges, fast.edges, "{parts:?}: edge order");
            assert_eq!(naive.dist, fast.dist, "{parts:?}: distance matrix");
        }
    }

    #[test]
    fn indexed_multipartite_single_part_is_disconnected() {
        let g = CouplingGraph::complete_multipartite_indexed(&[4]);
        assert_eq!(g.distance(0, 3), UNREACHABLE);
        assert_eq!(g.distance(2, 2), 0);
        assert!(g.edges().is_empty());
        assert!(!g.is_connected());
    }

    #[test]
    fn disconnected_graph_reports_unreachable() {
        let g = CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(g.distance(0, 2), UNREACHABLE);
        assert!(!g.is_connected());
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let g = CouplingGraph::from_edges(3, &[(0, 1), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        CouplingGraph::from_edges(2, &[(0, 5)]);
    }
}
