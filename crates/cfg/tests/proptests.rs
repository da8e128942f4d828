//! Property-based tests for the CFG substrate.

use proptest::prelude::*;
use soteria_cfg::{
    centrality, density, dominators, traversal, BlockId, CentralityFactors, Cfg, CfgBuilder,
    GraphStats,
};

/// Strategy: a random connected-ish digraph with `n` in 1..=max_nodes.
/// Every non-entry node gets at least one incoming edge from an
/// earlier-indexed node, guaranteeing reachability from the entry; extra
/// random edges are sprinkled on top.
fn arb_cfg(max_nodes: usize) -> impl Strategy<Value = Cfg> {
    (1..=max_nodes).prop_flat_map(move |n| {
        let backbone = proptest::collection::vec(0..n.max(1), n.saturating_sub(1));
        let extras = proptest::collection::vec((0..n, 0..n), 0..n * 2);
        (backbone, extras).prop_map(move |(backbone, extras)| {
            let mut b = CfgBuilder::new();
            let ids: Vec<BlockId> = (0..n).map(|i| b.add_block(i as u64 * 16, 1)).collect();
            for (i, &src) in backbone.iter().enumerate() {
                let to = ids[i + 1];
                let from = ids[src.min(i)];
                let _ = b.add_edge_idempotent(from, to);
            }
            for (f, t) in extras {
                let _ = b.add_edge_idempotent(ids[f], ids[t]);
            }
            b.build(ids[0]).expect("non-empty graph builds")
        })
    })
}

/// Strategy: a random digraph with no backbone, so isolated nodes, several
/// components and self-loops all occur.
fn arb_sparse_graph(max_nodes: usize) -> impl Strategy<Value = Cfg> {
    (1..=max_nodes).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..n + 2).prop_map(move |edges| {
            let mut b = CfgBuilder::new();
            let ids: Vec<BlockId> = (0..n).map(|i| b.add_block(i as u64 * 16, 1)).collect();
            for (f, t) in edges {
                let _ = b.add_edge_idempotent(ids[f], ids[t]);
            }
            b.build(ids[0]).expect("non-empty graph builds")
        })
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// `(fused, oracle)` bit patterns for betweenness and for closeness: the
/// fused pass in `CentralityFactors::compute` must equal the two reference
/// functions bit for bit.
fn fused_and_oracle_bits(g: &Cfg) -> [(Vec<u64>, Vec<u64>); 2] {
    let cf = CentralityFactors::compute(g);
    [
        (
            bits(cf.betweenness_values()),
            bits(&centrality::betweenness_ratio(g)),
        ),
        (bits(cf.closeness_values()), bits(&centrality::closeness(g))),
    ]
}

fn graph(n: usize, edges: &[(usize, usize)]) -> Cfg {
    let mut b = CfgBuilder::new();
    let ids: Vec<BlockId> = (0..n).map(|i| b.add_block(i as u64 * 16, 1)).collect();
    for &(f, t) in edges {
        b.add_edge(ids[f], ids[t]).expect("valid edge");
    }
    b.build(ids[0]).expect("non-empty graph builds")
}

/// Appends a chain of diamonds starting at node `start`, one per entry of
/// `widths` (a diamond of width `w` multiplies the number of shortest
/// paths through the chain by `w`), and returns the chain's last node.
fn push_diamond_chain(edges: &mut Vec<(usize, usize)>, start: usize, widths: &[usize]) -> usize {
    let mut top = start;
    for &w in widths {
        let bottom = top + w + 1;
        for mid in top + 1..bottom {
            edges.extend([(top, mid), (mid, bottom)]);
        }
        top = bottom;
    }
    top
}

#[test]
fn fused_centrality_matches_oracles_on_fixed_graphs() {
    // A small chain of diamonds: path counts double at every diamond.
    let mut chain = Vec::new();
    let chain_end = push_diamond_chain(&mut chain, 0, &[2; 8]);
    // A hub joining a pendant node and three chains of 2-, 3- and 5-wide
    // diamonds: path counts pass 2^53 with mixed mantissas, so the f64
    // sums round and their order matters — summing the hub's three DAG
    // children (seen from the pendant) in reverse changes 42 of the 419
    // betweenness values.
    let mut broom = vec![(0, 1)];
    let mut next = 2;
    for (diamonds, pattern) in [(30, [3, 3, 3]), (28, [2, 5, 5]), (29, [5, 5, 3])] {
        let widths: Vec<usize> = (0..diamonds).map(|k| pattern[k % 3]).collect();
        broom.push((0, next));
        next = push_diamond_chain(&mut broom, next, &widths) + 1;
    }
    let cases = [
        ("single node", graph(1, &[])),
        ("isolated node", graph(3, &[(0, 1)])),
        ("self-loop", graph(3, &[(0, 0), (0, 1), (1, 1), (1, 2)])),
        (
            "two components",
            graph(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
        ),
        ("diamond chain", graph(chain_end + 1, &chain)),
        ("diamond broom", graph(next, &broom)),
    ];
    for (name, g) in &cases {
        let [betweenness, closeness] = fused_and_oracle_bits(g);
        assert_eq!(betweenness.0, betweenness.1, "betweenness of {name}");
        assert_eq!(closeness.0, closeness.1, "closeness of {name}");
    }
}

proptest! {
    #[test]
    fn fused_centrality_is_bit_identical_to_oracles(g in arb_cfg(32)) {
        let [betweenness, closeness] = fused_and_oracle_bits(&g);
        prop_assert_eq!(betweenness.0, betweenness.1);
        prop_assert_eq!(closeness.0, closeness.1);
    }

    #[test]
    fn fused_centrality_is_bit_identical_on_sparse_graphs(g in arb_sparse_graph(24)) {
        let [betweenness, closeness] = fused_and_oracle_bits(&g);
        prop_assert_eq!(betweenness.0, betweenness.1);
        prop_assert_eq!(closeness.0, closeness.1);
    }

    #[test]
    fn all_nodes_reachable_with_backbone(g in arb_cfg(24)) {
        let r = g.reachable();
        prop_assert!(r.iter().all(|&x| x));
    }

    #[test]
    fn levels_respect_edge_relaxation(g in arb_cfg(24)) {
        // For every edge u -> v with u reachable: level(v) <= level(u) + 1.
        let lv = g.levels();
        for (u, v) in g.edges() {
            if let Some(lu) = lv[u.index()] {
                let lvv = lv[v.index()].expect("successor of reachable node is reachable");
                prop_assert!(lvv <= lu + 1);
            }
        }
    }

    #[test]
    fn node_densities_sum_to_two(g in arb_cfg(24)) {
        // Every edge contributes one in- and one out-degree.
        prop_assume!(g.edge_count() > 0);
        let sum: f64 = density::node_densities(&g).iter().sum();
        prop_assert!((sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn betweenness_values_are_a_probability_partition(g in arb_cfg(20)) {
        // Each value in [0, 1]; the sum over nodes cannot exceed the longest
        // possible interior count... but at minimum, sum <= n (each path has
        // < n interior nodes). Check range and finiteness.
        let b = centrality::betweenness_ratio(&g);
        for v in b {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn closeness_in_unit_interval(g in arb_cfg(20)) {
        for c in centrality::closeness(&g) {
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn reachable_subgraph_is_idempotent(g in arb_cfg(20)) {
        let (s1, _) = g.reachable_subgraph();
        let (s2, _) = s1.reachable_subgraph();
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn undirected_distances_are_symmetric(g in arb_cfg(14)) {
        for u in g.block_ids() {
            let du = traversal::undirected_distances(&g, u);
            for v in g.block_ids() {
                let dv = traversal::undirected_distances(&g, v);
                prop_assert_eq!(du[v.index()], dv[u.index()]);
            }
        }
    }

    #[test]
    fn stats_vector_is_always_finite(g in arb_cfg(20)) {
        for x in GraphStats::compute(&g).to_vector() {
            prop_assert!(x.is_finite());
        }
    }

    #[test]
    fn builder_round_trip_preserves_graph(g in arb_cfg(20)) {
        let reopened = CfgBuilder::from(&g).build(g.entry()).expect("rebuild");
        prop_assert_eq!(g, reopened);
    }

    #[test]
    fn entry_dominates_every_reachable_node(g in arb_cfg(20)) {
        let dom = dominators::Dominators::compute(&g);
        for v in g.block_ids() {
            prop_assert!(dom.dominates(g.entry(), v), "entry must dominate {v}");
            // The idom chain always terminates at the entry.
            let mut cur = v;
            let mut hops = 0;
            while cur != g.entry() {
                cur = dom.idom(cur).expect("reachable node has idom");
                hops += 1;
                prop_assert!(hops <= g.node_count(), "idom chain cycle at {v}");
            }
        }
    }

    #[test]
    fn idom_strictly_dominates_its_node(g in arb_cfg(16)) {
        let dom = dominators::Dominators::compute(&g);
        for v in g.block_ids() {
            if v == g.entry() { continue; }
            let i = dom.idom(v).expect("reachable");
            prop_assert!(dom.dominates(i, v));
            prop_assert!(i != v);
        }
    }

    #[test]
    fn dfs_visits_exactly_reachable_nodes(g in arb_cfg(20)) {
        let order = traversal::dfs_preorder(&g, g.entry());
        let reach = g.reachable();
        prop_assert_eq!(order.len(), reach.iter().filter(|&&x| x).count());
        let mut seen = vec![false; g.node_count()];
        for v in &order {
            prop_assert!(!seen[v.index()], "dfs visited a node twice");
            seen[v.index()] = true;
        }
    }
}
