//! Betweenness and closeness centrality, and the paper's *centrality
//! factor* used to break density ties during labeling.
//!
//! The paper (footnote 1) defines for a node `v`:
//!
//! * betweenness `B(v) = Δ(v) / Δ(m)` — the number of shortest paths that
//!   pass *through* `v` (connecting distinct endpoints `j ≠ v ≠ k`) divided
//!   by the total number of shortest paths between all such pairs,
//! * closeness `C(v)` — derived from the average shortest-path distance
//!   between `v` and every other node (we use the standard normalized
//!   closeness `(r_v/(n-1)) · (r_v/Σd)`, the Wasserman–Faust correction for
//!   disconnected graphs, so that *larger is more central* and the factor
//!   `CF(v) = B(v) + C(v)` ranks central nodes first),
//!
//! both over the **undirected** view of the CFG, matching the random-walk
//! section's treatment of the graph as undirected.

use crate::block::BlockId;
use crate::graph::Cfg;
use crate::traversal;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Per-node centrality values for a graph.
///
/// # Example
///
/// ```
/// use soteria_cfg::{CfgBuilder, CentralityFactors};
///
/// # fn main() -> Result<(), soteria_cfg::CfgError> {
/// // A path a - m - b: every shortest path between the endpoints passes
/// // through m, so m has betweenness 1 and the endpoints have 0.
/// let mut bld = CfgBuilder::new();
/// let a = bld.add_block(0, 1);
/// let m = bld.add_block(1, 1);
/// let b = bld.add_block(2, 1);
/// bld.add_edge(a, m)?;
/// bld.add_edge(m, b)?;
/// let g = bld.build(a)?;
///
/// let cf = CentralityFactors::compute(&g);
/// assert!(cf.betweenness(m) > cf.betweenness(a));
/// assert!(cf.factor(m) > cf.factor(b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralityFactors {
    betweenness: Vec<f64>,
    closeness: Vec<f64>,
}

impl CentralityFactors {
    /// Computes betweenness and closeness for every node of `cfg`.
    ///
    /// One fused Brandes pass per source over the cached
    /// [`Cfg::csr_adjacency`], `O(V·E)` in total: the BFS yields the
    /// path counts, the shortest-path DAG and the distances, so closeness
    /// comes from the same traversal as betweenness. Buffers are reused
    /// across sources, the BFS `order` doubles as the queue, and each
    /// node's DAG children are recorded during the forward pass so the
    /// backward pass visits DAG edges only.
    ///
    /// Bit-identical to [`betweenness_ratio`] and [`closeness`]: neighbors
    /// are visited in the same order and children are appended in neighbor
    /// order, so every `f64` addition happens in the same sequence (per
    /// node `through[v]` and the global path total included), and
    /// closeness sums integer distances.
    pub fn compute(cfg: &Cfg) -> Self {
        let _span = soteria_telemetry::span("cfg.centrality");
        const UNSEEN: u32 = u32::MAX;
        let adj = cfg.csr_adjacency();
        let n = adj.node_count();
        let mut through = vec![0.0f64; n];
        let mut closeness = vec![0.0f64; n];
        let mut total_paths = 0.0f64;

        // Scratch reused across sources; only visited entries are reset.
        // `p` needs no reset: every visited node's entry is written before
        // it is read.
        let mut dist: Vec<u32> = vec![UNSEEN; n];
        let mut sigma: Vec<f64> = vec![0.0; n];
        let mut p: Vec<f64> = vec![0.0; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        // Shortest-path-DAG children of `order[i]` are
        // `children[child_offsets[i]..child_offsets[i + 1]]`.
        let mut children: Vec<u32> = Vec::new();
        let mut child_offsets: Vec<u32> = Vec::with_capacity(n + 1);

        for s in 0..n {
            order.clear();
            children.clear();
            child_offsets.clear();
            child_offsets.push(0);
            dist[s] = 0;
            sigma[s] = 1.0;
            order.push(s as u32);
            let mut head = 0;
            let mut dist_sum = 0u64;
            // Forward: BFS with `order` as the queue. A node's sigma is
            // final when it is dequeued (all its parents come earlier).
            while head < order.len() {
                let v = order[head] as usize;
                head += 1;
                let dv = dist[v];
                let sv = sigma[v];
                if v != s {
                    total_paths += sv;
                }
                dist_sum += u64::from(dv);
                for &w in adj.neighbors(v) {
                    let wi = w as usize;
                    let dw = dist[wi];
                    if dw == UNSEEN {
                        dist[wi] = dv + 1;
                        order.push(w);
                        // The reference's `0.0 + sv`, which is exactly `sv`.
                        sigma[wi] = sv;
                        children.push(w);
                    } else if dw == dv + 1 {
                        sigma[wi] += sv;
                        children.push(w);
                    }
                }
                child_offsets.push(children.len() as u32);
            }

            // Backward, in reverse BFS order (a reverse topological order of
            // the shortest-path DAG): P(v) = number of DAG paths from v to
            // any node strictly below it. sigma[v] paths reach v from s and
            // each extends into P(v) suffixes, every one a shortest s->t
            // path with v interior. Visited entries are reset on the way.
            for i in (0..order.len()).rev() {
                let v = order[i] as usize;
                let dag = child_offsets[i] as usize..child_offsets[i + 1] as usize;
                let mut pv = 0.0f64;
                for &w in &children[dag] {
                    pv += 1.0 + p[w as usize];
                }
                p[v] = pv;
                if v != s {
                    through[v] += sigma[v] * pv;
                }
                dist[v] = UNSEEN;
                sigma[v] = 0.0;
            }

            if dist_sum > 0 {
                let r = (order.len() - 1) as f64;
                closeness[s] = (r / (n as f64 - 1.0)) * (r / dist_sum as f64);
            }
        }

        if total_paths > 0.0 {
            for t in &mut through {
                *t /= total_paths;
            }
        }
        CentralityFactors {
            betweenness: through,
            closeness,
        }
    }

    /// Betweenness centrality `B(v) = Δ(v)/Δ(m)`.
    pub fn betweenness(&self, v: BlockId) -> f64 {
        self.betweenness[v.index()]
    }

    /// Normalized closeness centrality `C(v)`.
    pub fn closeness(&self, v: BlockId) -> f64 {
        self.closeness[v.index()]
    }

    /// The centrality factor `CF(v) = B(v) + C(v)` used for tie-breaking.
    pub fn factor(&self, v: BlockId) -> f64 {
        self.betweenness[v.index()] + self.closeness[v.index()]
    }

    /// All betweenness values in dense node order.
    pub fn betweenness_values(&self) -> &[f64] {
        &self.betweenness
    }

    /// All closeness values in dense node order.
    pub fn closeness_values(&self) -> &[f64] {
        &self.closeness
    }
}

/// The paper's betweenness: for each node `v`, the number of shortest paths
/// between ordered pairs `(s, t)` with `s ≠ v ≠ t` that pass through `v`,
/// divided by the total number of shortest paths between all ordered pairs
/// `(s, t)`, `s ≠ t` — all over the undirected view of the graph.
///
/// Returns all zeros for graphs with fewer than 3 nodes (no interior nodes
/// possible) or no paths.
///
/// This is the straightforward reference implementation, kept as the test
/// oracle for the fused pass in [`CentralityFactors::compute`], which must
/// match it bit for bit.
pub fn betweenness_ratio(cfg: &Cfg) -> Vec<f64> {
    let n = cfg.node_count();
    let adj = cfg.undirected_adjacency();
    let mut through = vec![0.0f64; n];
    let mut total_paths = 0.0f64;

    // Scratch buffers reused across sources.
    let mut dist: Vec<i64> = vec![-1; n];
    let mut sigma: Vec<f64> = vec![0.0; n];
    let mut order: Vec<BlockId> = Vec::with_capacity(n);

    for s in cfg.block_ids() {
        dist.fill(-1);
        sigma.fill(0.0);
        order.clear();

        dist[s.index()] = 0;
        sigma[s.index()] = 1.0;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let dv = dist[v.index()];
            for &w in &adj[v.index()] {
                if dist[w.index()] < 0 {
                    dist[w.index()] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w.index()] == dv + 1 {
                    sigma[w.index()] += sigma[v.index()];
                }
            }
        }

        // P(v) = total number of shortest-path-DAG paths from v to any node
        // strictly below it; reverse BFS order is a reverse topological
        // order of the DAG.
        let mut p = vec![0.0f64; n];
        for &v in order.iter().rev() {
            let dv = dist[v.index()];
            for &w in &adj[v.index()] {
                if dist[w.index()] == dv + 1 {
                    p[v.index()] += 1.0 + p[w.index()];
                }
            }
        }

        for &v in &order {
            if v != s {
                // sigma[v] shortest paths reach v from s; each extends into
                // p[v] suffix paths, every one a shortest s->t path with v
                // interior (t is strictly below v, so t != v and t != s).
                through[v.index()] += sigma[v.index()] * p[v.index()];
                total_paths += sigma[v.index()];
            }
        }
    }

    if total_paths > 0.0 {
        for t in &mut through {
            *t /= total_paths;
        }
    }
    through
}

/// Normalized closeness centrality over the undirected view, with the
/// Wasserman–Faust correction for disconnected graphs:
/// `C(v) = (r_v / (n-1)) · (r_v / Σ_u d(v, u))` where `r_v` is the number of
/// nodes reachable from `v` (excluding `v`). Isolated nodes get 0.
///
/// This is the straightforward reference implementation (one BFS per
/// node), kept as the test oracle for the fused pass in
/// [`CentralityFactors::compute`], which must match it bit for bit.
pub fn closeness(cfg: &Cfg) -> Vec<f64> {
    let n = cfg.node_count();
    let mut out = vec![0.0f64; n];
    if n <= 1 {
        return out;
    }
    let adj = cfg.undirected_adjacency();
    for v in cfg.block_ids() {
        let dist = traversal::bfs_adjacency(&adj, v);
        let mut sum = 0usize;
        let mut reach = 0usize;
        for (u, d) in dist.iter().enumerate() {
            if u != v.index() {
                if let Some(d) = d {
                    sum += d;
                    reach += 1;
                }
            }
        }
        if sum > 0 {
            let r = reach as f64;
            out[v.index()] = (r / (n as f64 - 1.0)) * (r / sum as f64);
        }
    }
    out
}

/// The literal quantity named in the paper's footnote: the average
/// shortest-path distance from `v` to the nodes it can reach (undirected).
/// Returns `None` if `v` reaches no other node.
pub fn average_distance(cfg: &Cfg, v: BlockId) -> Option<f64> {
    let dist = traversal::undirected_distances(cfg, v);
    let mut sum = 0usize;
    let mut reach = 0usize;
    for (u, d) in dist.iter().enumerate() {
        if u != v.index() {
            if let Some(d) = d {
                sum += d;
                reach += 1;
            }
        }
    }
    if reach == 0 {
        None
    } else {
        Some(sum as f64 / reach as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgBuilder;

    fn path3() -> (Cfg, [BlockId; 3]) {
        let mut b = CfgBuilder::new();
        let a = b.add_block(0, 1);
        let m = b.add_block(1, 1);
        let c = b.add_block(2, 1);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, c).unwrap();
        (b.build(a).unwrap(), [a, m, c])
    }

    #[test]
    fn path_midpoint_betweenness() {
        let (g, [a, m, c]) = path3();
        let b = betweenness_ratio(&g);
        // Ordered pairs and their shortest paths: (a,m) 1, (a,c) 1, (m,a) 1,
        // (m,c) 1, (c,a) 1, (c,m) 1 -> total 6. Through m: the 2 a<->c
        // paths. B(m) = 2/6.
        assert!((b[m.index()] - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(b[a.index()], 0.0);
        assert_eq!(b[c.index()], 0.0);
    }

    #[test]
    fn betweenness_sums_to_interior_fraction_on_star() {
        // Star: hub h connected to 4 leaves. All leaf-leaf shortest paths
        // (4*3 = 12 ordered) pass through h; total ordered paths = 12 + 8
        // (hub<->leaf) = 20.
        let mut bld = CfgBuilder::new();
        let h = bld.add_block(0, 1);
        let leaves: Vec<_> = (1..=4).map(|i| bld.add_block(i, 1)).collect();
        for &l in &leaves {
            bld.add_edge(h, l).unwrap();
        }
        let g = bld.build(h).unwrap();
        let b = betweenness_ratio(&g);
        assert!((b[h.index()] - 12.0 / 20.0).abs() < 1e-12);
        for &l in &leaves {
            assert_eq!(b[l.index()], 0.0);
        }
    }

    #[test]
    fn betweenness_counts_parallel_shortest_paths() {
        // Diamond a -> {x, y} -> b: two shortest a<->b paths, one through
        // each middle node.
        let mut bld = CfgBuilder::new();
        let a = bld.add_block(0, 1);
        let x = bld.add_block(1, 1);
        let y = bld.add_block(2, 1);
        let b2 = bld.add_block(3, 1);
        bld.add_edge(a, x).unwrap();
        bld.add_edge(a, y).unwrap();
        bld.add_edge(x, b2).unwrap();
        bld.add_edge(y, b2).unwrap();
        let g = bld.build(a).unwrap();
        let b = betweenness_ratio(&g);
        // By symmetry x and y have equal betweenness.
        assert!((b[x.index()] - b[y.index()]).abs() < 1e-12);
        assert!(b[x.index()] > 0.0);
        // a and b are never interior: x<->y shortest paths have length 2 and
        // go through either a or b... so a and b DO carry x<->y paths.
        assert!(b[a.index()] > 0.0);
        assert!((b[a.index()] - b[b2.index()]).abs() < 1e-12);
    }

    #[test]
    fn closeness_is_higher_for_central_nodes() {
        let (g, [a, m, c]) = path3();
        let cl = closeness(&g);
        assert!(cl[m.index()] > cl[a.index()]);
        assert!((cl[a.index()] - cl[c.index()]).abs() < 1e-12);
        // m is at distance 1 from both others: C = (2/2)*(2/2) = 1.
        assert!((cl[m.index()] - 1.0).abs() < 1e-12);
        // a: distances 1 and 2, C = (2/2)*(2/3).
        assert!((cl[a.index()] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_of_isolated_node_is_zero() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let _iso = b.add_block(1, 1);
        let g = b.build(e).unwrap();
        let cl = closeness(&g);
        assert_eq!(cl, vec![0.0, 0.0]);
    }

    #[test]
    fn closeness_disconnected_component_is_downweighted() {
        // Two 2-cliques: each node reaches 1 of 3 others at distance 1.
        // C = (1/3) * (1/1) = 1/3.
        let mut b = CfgBuilder::new();
        let a = b.add_block(0, 1);
        let a2 = b.add_block(1, 1);
        let c = b.add_block(2, 1);
        let c2 = b.add_block(3, 1);
        b.add_edge(a, a2).unwrap();
        b.add_edge(c, c2).unwrap();
        let g = b.build(a).unwrap();
        let cl = closeness(&g);
        for v in cl {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn average_distance_matches_hand_computation() {
        let (g, [a, m, _c]) = path3();
        assert_eq!(average_distance(&g, a), Some(1.5));
        assert_eq!(average_distance(&g, m), Some(1.0));
    }

    #[test]
    fn average_distance_none_for_isolated() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let iso = b.add_block(1, 1);
        let g = b.build(e).unwrap();
        assert_eq!(average_distance(&g, iso), None);
    }

    #[test]
    fn factor_is_sum_of_parts() {
        let (g, [_, m, _]) = path3();
        let cf = CentralityFactors::compute(&g);
        assert!((cf.factor(m) - (cf.betweenness(m) + cf.closeness(m))).abs() < 1e-12);
    }

    #[test]
    fn single_node_centralities_are_zero() {
        let mut b = CfgBuilder::new();
        let e = b.add_block(0, 1);
        let g = b.build(e).unwrap();
        let cf = CentralityFactors::compute(&g);
        assert_eq!(cf.betweenness(e), 0.0);
        assert_eq!(cf.closeness(e), 0.0);
    }
}
