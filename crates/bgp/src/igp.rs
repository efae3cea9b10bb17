//! Interior gateway protocol: weighted shortest paths inside an AS.
//!
//! The decision process's hot-potato step compares IGP costs to candidate
//! next hops; inside VNS the IGP weights are derived from the dedicated
//! L2-link propagation delays, so "nearest exit" means what it means in a
//! real deployment.
//!
//! **All-pairs table.** Graphs here are small (24 routers for VNS, a
//! handful per Tier-1) and read far more often than they change: every
//! iBGP hop of every resolved path and every iBGP edge of the verifier's
//! forwarding graph asks for a shortest path. [`IgpGraph`] therefore keeps
//! an n×n distance table, built by one Dijkstra per node on the first read
//! after a mutation. Invariant: when the table is present it was computed
//! from the current adjacency. [`IgpGraph::add_node`],
//! [`IgpGraph::add_link`] and [`IgpGraph::remove_link`] — the only
//! mutators — reset it; a `clone()` carries its own copy, so a clone taken
//! before a mutation keeps answering for the graph it was cloned from.

use std::collections::{BTreeMap, BinaryHeap};
use std::sync::OnceLock;

use crate::route::SpeakerId;

/// Distance marking an unreachable pair in [`DistTable::dist`].
const UNREACHABLE: u64 = u64::MAX;

/// All-pairs shortest distances over a frozen copy of the adjacency.
#[derive(Debug, Clone)]
struct DistTable {
    /// Nodes in id order; a node's position is its ordinal.
    ids: Vec<SpeakerId>,
    /// Adjacency by ordinal, in the graph's own neighbour order.
    adj: Vec<Vec<(usize, u64)>>,
    /// Row-major `ids.len()`² distances; [`UNREACHABLE`] when no path.
    dist: Vec<u64>,
}

impl DistTable {
    fn build(graph: &BTreeMap<SpeakerId, Vec<(SpeakerId, u64)>>) -> Self {
        let ids: Vec<SpeakerId> = graph.keys().copied().collect();
        // `add_link` registers both endpoints, so every neighbour is a key.
        let adj: Vec<Vec<(usize, u64)>> = graph
            .values()
            .map(|nbrs| {
                nbrs.iter()
                    .filter_map(|&(v, w)| Some((ids.binary_search(&v).ok()?, w)))
                    .collect()
            })
            .collect();
        let n = ids.len();
        let mut dist = vec![UNREACHABLE; n * n];
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
        for (src, row) in dist.chunks_exact_mut(n.max(1)).enumerate() {
            row[src] = 0;
            heap.push(std::cmp::Reverse((0, src)));
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                if d > row[u] {
                    continue;
                }
                for &(v, w) in &adj[u] {
                    let nd = d + w;
                    if nd < row[v] {
                        row[v] = nd;
                        heap.push(std::cmp::Reverse((nd, v)));
                    }
                }
            }
        }
        Self { ids, adj, dist }
    }

    fn ordinal(&self, id: SpeakerId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Distances from the node with ordinal `src`, by ordinal.
    fn row(&self, src: usize) -> &[u64] {
        let n = self.ids.len();
        &self.dist[src * n..(src + 1) * n]
    }
}

/// An undirected weighted graph over router ids.
#[derive(Debug, Clone, Default)]
pub struct IgpGraph {
    adj: BTreeMap<SpeakerId, Vec<(SpeakerId, u64)>>,
    /// All-pairs distances for the current `adj`; empty until first read
    /// and after every mutation (see the module docs).
    table: OnceLock<DistTable>,
}

impl IgpGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures a node exists (isolated until linked).
    pub fn add_node(&mut self, id: SpeakerId) {
        self.table.take();
        self.adj.entry(id).or_default();
    }

    /// Adds an undirected link with `cost` (typically delay in
    /// microseconds).
    pub fn add_link(&mut self, a: SpeakerId, b: SpeakerId, cost: u64) {
        self.table.take();
        self.adj.entry(a).or_default().push((b, cost));
        self.adj.entry(b).or_default().push((a, cost));
    }

    /// Removes the undirected link between `a` and `b`, returning its cost
    /// (`None` when no such link exists). Parallel links are all removed;
    /// the first cost is returned. Models a circuit cut — the nodes stay
    /// in the graph and may become unreachable.
    pub fn remove_link(&mut self, a: SpeakerId, b: SpeakerId) -> Option<u64> {
        self.table.take();
        let mut cost = None;
        if let Some(nbrs) = self.adj.get_mut(&a) {
            nbrs.retain(|&(v, c)| {
                if v == b {
                    cost.get_or_insert(c);
                    false
                } else {
                    true
                }
            });
        }
        if let Some(nbrs) = self.adj.get_mut(&b) {
            nbrs.retain(|&(v, _)| v != a);
        }
        cost
    }

    /// Nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = SpeakerId> + '_ {
        self.adj.keys().copied()
    }

    /// All undirected edges `(a, b, cost)` with `a < b`.
    pub fn edges(&self) -> Vec<(SpeakerId, SpeakerId, u64)> {
        let mut out = Vec::new();
        for (&a, nbrs) in &self.adj {
            for &(b, cost) in nbrs {
                if a < b {
                    out.push((a, b, cost));
                }
            }
        }
        out
    }

    fn table(&self) -> &DistTable {
        self.table.get_or_init(|| DistTable::build(&self.adj))
    }

    /// Single-source shortest-path costs. Unreachable nodes are absent
    /// from the result.
    pub fn shortest_costs(&self, src: SpeakerId) -> BTreeMap<SpeakerId, u64> {
        let t = self.table();
        let Some(s) = t.ordinal(src) else {
            return BTreeMap::new();
        };
        t.ids
            .iter()
            .zip(t.row(s))
            .filter(|(_, &d)| d != UNREACHABLE)
            .map(|(&id, &d)| (id, d))
            .collect()
    }

    /// Whether `b` can be reached from `a` (both must be nodes; a node
    /// reaches itself).
    pub fn reachable(&self, a: SpeakerId, b: SpeakerId) -> bool {
        let t = self.table();
        match (t.ordinal(a), t.ordinal(b)) {
            (Some(a), Some(b)) => t.row(a)[b] != UNREACHABLE,
            _ => false,
        }
    }

    /// Shortest path (node list, inclusive) from `src` to `dst`; `None`
    /// when unreachable. Ties broken towards lower node ids for
    /// determinism.
    pub fn shortest_path(&self, src: SpeakerId, dst: SpeakerId) -> Option<Vec<SpeakerId>> {
        let t = self.table();
        let (s, d) = (t.ordinal(src)?, t.ordinal(dst)?);
        let from_src = t.row(s);
        if from_src[d] == UNREACHABLE {
            return None;
        }
        // Walk backwards from dst picking the lowest-id predecessor on a
        // shortest path (ordinals are in id order).
        let mut path = vec![dst];
        let mut cur = d;
        while cur != s {
            let dc = from_src[cur];
            let pred = t.adj[cur]
                .iter()
                .filter(|&&(v, w)| from_src[v] != UNREACHABLE && from_src[v] + w == dc)
                .map(|&(v, _)| v)
                .min()?; // a reachable non-source node always has one
            path.push(t.ids[pred]);
            cur = pred;
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32) -> SpeakerId {
        SpeakerId(id)
    }

    fn diamond() -> IgpGraph {
        // 1 -2- 2 -3- 4
        //  \-10- 3 -1-/
        let mut g = IgpGraph::new();
        g.add_link(s(1), s(2), 2);
        g.add_link(s(2), s(4), 3);
        g.add_link(s(1), s(3), 10);
        g.add_link(s(3), s(4), 1);
        g
    }

    #[test]
    fn shortest_costs_basic() {
        let g = diamond();
        let d = g.shortest_costs(s(1));
        assert_eq!(d[&s(1)], 0);
        assert_eq!(d[&s(2)], 2);
        assert_eq!(d[&s(4)], 5);
        assert_eq!(d[&s(3)], 6); // via 2-4-3, not the direct 10
    }

    #[test]
    fn shortest_path_nodes() {
        let g = diamond();
        assert_eq!(g.shortest_path(s(1), s(4)).unwrap(), vec![s(1), s(2), s(4)]);
        assert_eq!(g.shortest_path(s(1), s(1)).unwrap(), vec![s(1)]);
    }

    #[test]
    fn unreachable() {
        let mut g = diamond();
        g.add_node(s(99));
        assert!(!g.shortest_costs(s(1)).contains_key(&s(99)));
        assert!(g.shortest_path(s(1), s(99)).is_none());
        assert!(g.shortest_costs(s(100)).is_empty());
    }

    #[test]
    fn remove_link_cuts_and_returns_cost() {
        let mut g = diamond();
        assert_eq!(g.remove_link(s(2), s(4)), Some(3));
        assert_eq!(g.remove_link(s(2), s(4)), None);
        // 1 now reaches 4 only via the long way round.
        assert_eq!(g.shortest_costs(s(1))[&s(4)], 11);
        g.add_link(s(2), s(4), 3);
        assert_eq!(g.shortest_costs(s(1))[&s(4)], 5);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost paths 1-2-4 and 1-3-4; predecessor choice must be
        // stable (lower id).
        let mut g = IgpGraph::new();
        g.add_link(s(1), s(2), 1);
        g.add_link(s(1), s(3), 1);
        g.add_link(s(2), s(4), 1);
        g.add_link(s(3), s(4), 1);
        let p1 = g.shortest_path(s(1), s(4)).unwrap();
        let p2 = g.shortest_path(s(1), s(4)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1, vec![s(1), s(2), s(4)]);
    }

    #[test]
    fn path_costs_match_costs_map() {
        let g = diamond();
        let costs = g.shortest_costs(s(1));
        for dst in g.nodes() {
            if let Some(path) = g.shortest_path(s(1), dst) {
                let mut sum = 0;
                for w in path.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    let wcost = g.adj[&a]
                        .iter()
                        .filter(|(v, _)| *v == b)
                        .map(|(_, c)| *c)
                        .min()
                        .unwrap();
                    sum += wcost;
                }
                assert_eq!(sum, costs[&dst], "path cost mismatch to {dst}");
            }
        }
    }
    /// The per-call Dijkstra `shortest_costs` used to run, kept as the
    /// reference the table is checked against.
    fn reference_costs(g: &IgpGraph, src: SpeakerId) -> BTreeMap<SpeakerId, u64> {
        let mut dist: BTreeMap<SpeakerId, u64> = BTreeMap::new();
        if !g.adj.contains_key(&src) {
            return dist;
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, SpeakerId)>> = BinaryHeap::new();
        dist.insert(src, 0);
        heap.push(std::cmp::Reverse((0, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if dist.get(&u).is_some_and(|&best| d > best) {
                continue;
            }
            for &(v, w) in g.adj.get(&u).into_iter().flatten() {
                let nd = d + w;
                if dist.get(&v).is_none_or(|&best| nd < best) {
                    dist.insert(v, nd);
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// The old `shortest_path`: reference costs, then the lowest-id
    /// predecessor back-walk from `dst`.
    fn reference_path(g: &IgpGraph, src: SpeakerId, dst: SpeakerId) -> Option<Vec<SpeakerId>> {
        if src == dst {
            return g.adj.contains_key(&src).then(|| vec![src]);
        }
        let dist = reference_costs(g, src);
        dist.get(&dst)?;
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            let dc = dist[&cur];
            let pred = g.adj[&cur]
                .iter()
                .filter(|(v, w)| dist.get(v).is_some_and(|dv| dv + w == dc))
                .map(|&(v, _)| v)
                .min()?;
            path.push(pred);
            cur = pred;
        }
        path.reverse();
        Some(path)
    }

    /// Every read of `g` over nodes `0..=max_id` (one id past the graph's
    /// own, so a non-node is probed too) agrees with the reference.
    fn assert_matches_reference(g: &IgpGraph, max_id: u32, context: &str) {
        for a in (0..=max_id).map(s) {
            let want = reference_costs(g, a);
            assert_eq!(g.shortest_costs(a), want, "{context}: costs from {a}");
            for b in (0..=max_id).map(s) {
                assert_eq!(
                    g.shortest_path(a, b),
                    reference_path(g, a, b),
                    "{context}: path {a} -> {b}"
                );
                assert_eq!(
                    g.reachable(a, b),
                    g.adj.contains_key(&a) && want.contains_key(&b),
                    "{context}: reachable {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn table_matches_per_call_dijkstra_under_random_mutation() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const MAX_ID: u32 = 9;
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = IgpGraph::new();
            // Clones taken along the way (alternately with the table built
            // and still empty) must keep answering for the graph they were
            // cloned from while `g` moves on.
            let mut frozen: Option<(IgpGraph, usize)> = None;
            for step in 0..60 {
                let (a, b) = (s(rng.gen_range(1..MAX_ID)), s(rng.gen_range(1..MAX_ID)));
                match rng.gen_range(0..10) {
                    // Weights 1..=3 on up to 8 nodes: equal-cost ties are
                    // the rule, and removals keep cutting nodes off.
                    0..=4 if a != b => g.add_link(a, b, rng.gen_range(1..=3)),
                    5..=7 => {
                        g.remove_link(a, b);
                    }
                    _ => g.add_node(a),
                }
                if step % 14 == 0 {
                    frozen = Some((g.clone(), step));
                }
                assert_matches_reference(&g, MAX_ID, &format!("seed {seed} step {step}"));
                if step % 14 == 7 {
                    frozen = Some((g.clone(), step));
                }
                if let Some((old, at)) = &frozen {
                    let context = format!("seed {seed} step {step}: clone of step {at}");
                    assert_matches_reference(old, MAX_ID, &context);
                }
            }
        }
    }
}
