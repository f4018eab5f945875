//! Resumable traversal state for *incremental re-search* over a growing
//! evolving graph.
//!
//! The evolving-graph model is append-only in time: a new snapshot's label is
//! strictly later than every existing one, so every new causal edge points
//! *into* the new snapshot and every new static edge lives *inside* it. A
//! forward traversal therefore only ever **gains** reachability as the graph
//! grows — the distances (and arrivals) of previously covered temporal nodes
//! are final the moment they are computed. This module captures exactly the
//! state needed to exploit that:
//!
//! * [`ResumableBfs`] — the flat distance table of Algorithm 1 plus a
//!   per-node *frontier snapshot* (`node_best`: the minimum distance at which
//!   each node was ever reached). Appending snapshot `t_new` seeds each node
//!   active at `t_new` with `node_best + 1` (its cheapest causal entry) and
//!   relaxes static edges inside `t_new` with the kernel seeded at several
//!   levels ([`crate::kernel`]) — work proportional to the new snapshot,
//!   not the history.
//! * [`ResumableForemost`] — the earliest-arrival table of the foremost
//!   sweep. Appending `t_new` can only create arrivals *at* `t_new`, found by
//!   one static BFS inside the new snapshot seeded from already-reached
//!   nodes.
//! * [`ResumableShared`] — the packed `(dist << 32) | source_index` claim
//!   keys of the shared-frontier engines, plus a per-node minimum key. One
//!   hop adds `1 << 32` to a key (distance + 1, same source attribution), so
//!   the same seeded kernel runs on packed keys and the extension
//!   reproduces the engines' deterministic smallest-source-index tie-break
//!   exactly.
//!
//! All three implement [`Resumable`], the one surface a caller advancing a
//! state over sealed snapshots needs.
//!
//! *Time-reversed* traversals (backward XOR `.reverse()`) need no state
//! here. Causal edges only go forward in time, so a reversed traversal from
//! a fixed-time root only reaches times at or before that root — strictly
//! earlier than any appended snapshot. Its answer is therefore stable across
//! an append (the stable core of Afarin et al.'s stable-vertex analysis),
//! and repairing it is re-dimensioning: an `O(result)` copy into the grown
//! dimensions with no graph work.
//!
//! [`ResumableBfs`] also resumes BFS-tree *parents* when its source map
//! recorded them: the retained per-node frontier remembers the earliest
//! snapshot achieving each node's best distance, so a causal seed's parent
//! is known without rescanning history, and static relaxations record their
//! proposer. Parent trees are not unique — any parent at distance `d − 1`
//! across a valid edge witnesses a shortest path — and the extension
//! guarantees exactly that invariant (the workspace differential suites
//! check parent *validity*, not pointer equality with a from-scratch run).
//!
//! All engines are pinned to their from-scratch counterparts by the unit
//! tests below and by the workspace's `live_stream_differential` and
//! `cache_matrix_fuzz` suites; the `incremental_vs_recompute` bench asserts
//! the delta-proportional work claims with
//! [`crate::instrument::CountingView`] counters.

use std::sync::atomic::{AtomicU32, AtomicU64};

use crate::distance::{DistanceMap, MultiSourceMap, UNREACHED};
use crate::error::{GraphError, Result};
use crate::foremost::{earliest_arrival, ForemostResult};
use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TemporalNode, TimeIndex};
use crate::kernel::{self, distances, nearest_sources, Kernel, Slot, NO_PARENT};

/// Packed-key increment for one hop: distance + 1, same source attribution.
const HOP: u64 = 1 << 32;

/// A traversal state that covers a prefix of a growing graph's snapshots
/// and advances over the ones sealed after it.
pub trait Resumable {
    /// Re-lays the state out for a grown node universe. New nodes start
    /// unreached everywhere. Shrinking is not supported (no-op).
    fn grow_nodes(&mut self, num_nodes: usize);

    /// Number of snapshots covered so far.
    fn covered_timestamps(&self) -> usize;

    /// Extends coverage by one snapshot — the next uncovered index,
    /// `self.covered_timestamps()` — doing work proportional to that
    /// snapshot's contents. `touched` must be exactly the nodes active at
    /// the new snapshot (the end points of its static edges); the live-graph
    /// layer records this per seal.
    ///
    /// # Errors
    /// [`GraphError::TimeOutOfRange`] if the graph does not contain the next
    /// snapshot yet, [`GraphError::NodeOutOfRange`] if the graph's node
    /// universe outgrew the state (call [`Resumable::grow_nodes`] first).
    fn extend_snapshot<G: EvolvingGraph>(&mut self, graph: &G, touched: &[NodeId]) -> Result<()>;
}

/// Runs the kernel over one appended row of `num_nodes` slots — slot `v`
/// is `(v, t_new)` and a hop follows the static edges inside `t_new`, the
/// causal bound `t_new + 1` leaving no causal edge — from
/// `(key, node, parent)` seeds, and returns the row's keys.
fn settle_row<G: EvolvingGraph, S: Slot>(
    graph: &G,
    t_new: TimeIndex,
    num_nodes: usize,
    seeds: impl Iterator<Item = (S::Key, NodeId, u64)>,
    parents: Option<&mut [u64]>,
) -> Vec<S::Key> {
    let row = kernel::table::<S>(num_nodes);
    let seeds = seeds.map(|(key, v, parent)| (key, TemporalNode::new(v, t_new), parent));
    let end = TimeIndex(t_new.0 + 1);
    Kernel::new(&row, graph, num_nodes, t_new.index() * num_nodes, end).run(
        seeds.collect(),
        parents,
        usize::MAX,
    );
    kernel::into_keys(row)
}

/// The snapshot an extension appends: the next uncovered one, which
/// `graph` must hold, with a node universe no wider than the state's.
fn next_snapshot<G: EvolvingGraph>(
    graph: &G,
    covered: usize,
    num_nodes: usize,
    touched: &[NodeId],
) -> Result<TimeIndex> {
    let t_new = TimeIndex::from_index(covered);
    if covered >= graph.num_timestamps() {
        return Err(GraphError::TimeOutOfRange {
            time: t_new,
            num_timestamps: graph.num_timestamps(),
        });
    }
    if graph.num_nodes() > num_nodes {
        return Err(GraphError::NodeOutOfRange {
            node: NodeId::from_index(num_nodes),
            num_nodes: graph.num_nodes(),
        });
    }
    debug_assert!(
        touched.iter().all(|&v| graph.is_active(v, t_new)),
        "touched list must contain only nodes active at the new snapshot"
    );
    Ok(t_new)
}

/// Re-lays a time-major table of `rows` rows out for a node universe grown
/// from `old` to `new`; the new columns hold `fill`.
fn relayout<T: Copy>(table: &[T], rows: usize, old: usize, new: usize, fill: T) -> Vec<T> {
    let mut out = Vec::with_capacity(rows * new);
    for t in 0..rows {
        out.extend_from_slice(&table[t * old..(t + 1) * old]);
        out.resize((t + 1) * new, fill);
    }
    out
}

/// Resumable state of a forward hop-distance BFS (Algorithm 1).
///
/// The state covers a prefix of the graph's snapshots.
/// [`Resumable::extend_snapshot`] advances the covered prefix by one
/// snapshot: because all causal edges into the new snapshot come from the
/// same node at an earlier active time, each touched node's cheapest entry
/// costs `node_best + 1`, and static edges inside the snapshot then relax
/// those seeds with the kernel seeded at several levels.
/// [`ResumableBfs::into_distance_map`] materialises the ordinary
/// [`DistanceMap`] a from-scratch [`distances`] over the covered prefix would
/// produce.
#[derive(Clone, Debug)]
pub struct ResumableBfs {
    root: TemporalNode,
    num_nodes: usize,
    /// Snapshots covered so far; `dist` has `num_nodes * num_timestamps`
    /// entries in time-major layout.
    num_timestamps: usize,
    dist: Vec<u32>,
    /// The frontier snapshot: `node_best[v]` = minimum distance at which `v`
    /// was reached at any covered snapshot (`UNREACHED` if never).
    node_best: Vec<u32>,
    /// Earliest covered snapshot index achieving `node_best[v]` — the
    /// witness a causal seed names as its parent. Meaningless where
    /// `node_best[v] == UNREACHED`.
    node_best_time: Vec<u32>,
    /// BFS-tree parents as flat indices (`NO_PARENT` = root / unreached),
    /// present iff the source map recorded parents.
    parent: Option<Vec<u64>>,
}

impl ResumableBfs {
    /// Runs a full forward BFS from `root` and captures resumable state.
    ///
    /// # Errors
    /// The same root-validation errors as [`distances`].
    pub fn start<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<Self> {
        Ok(Self::from_map(&distances(graph, root, false, usize::MAX)?))
    }

    /// Captures resumable state from an already-computed forward distance
    /// map (e.g. one produced through a query layer). The map must be a
    /// *forward* full- or suffix-window result in the coordinates of the
    /// graph that will later be extended; backward or time-reversed maps
    /// cannot be resumed (see the module docs). If the map recorded
    /// BFS-tree parents, the extension maintains them (see the module docs
    /// on parent validity).
    pub fn from_map(map: &DistanceMap) -> Self {
        let num_nodes = map.num_nodes();
        let num_timestamps = map.num_timestamps();
        let dist = map.as_flat_slice().to_vec();
        let mut node_best = vec![UNREACHED; num_nodes];
        let mut node_best_time = vec![0u32; num_nodes];
        for (i, &d) in dist.iter().enumerate() {
            if d == UNREACHED {
                continue;
            }
            let v = i % num_nodes;
            // Scanning in flat (time-major) order, a strict improvement is
            // the *earliest* snapshot achieving the final minimum.
            if d < node_best[v] {
                node_best[v] = d;
                node_best_time[v] = (i / num_nodes) as u32;
            }
        }
        ResumableBfs {
            root: map.root(),
            num_nodes,
            num_timestamps,
            dist,
            node_best,
            node_best_time,
            parent: map.parent_table().map(<[u64]>::to_vec),
        }
    }

    /// The root the traversal started from.
    pub fn root(&self) -> TemporalNode {
        self.root
    }

    /// Size of the node universe the state is laid out for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The frontier snapshot: minimum distance at which `v` was ever
    /// reached, or `None`.
    pub fn best_distance(&self, v: NodeId) -> Option<u32> {
        match self.node_best.get(v.index()) {
            Some(&d) if d != UNREACHED => Some(d),
            _ => None,
        }
    }

    /// Distance of a covered temporal node, or `None` if unreached (or not
    /// yet covered).
    pub fn distance(&self, tn: TemporalNode) -> Option<u32> {
        if tn.node.index() >= self.num_nodes || tn.time.index() >= self.num_timestamps {
            return None;
        }
        match self.dist[tn.flat_index(self.num_nodes)] {
            UNREACHED => None,
            d => Some(d),
        }
    }

    /// Materialises the covered prefix as an ordinary [`DistanceMap`] —
    /// distance-for-distance what a from-scratch [`distances`] over that prefix
    /// produces — moving the tables rather than copying them. When parents
    /// are tracked they are materialised too; the tree is *a* valid BFS tree
    /// over those distances (see the module docs), not necessarily the one a
    /// from-scratch run's visit order would pick.
    pub fn into_distance_map(self) -> DistanceMap {
        let reached = self.dist.iter().copied().filter(|&d| d != UNREACHED);
        let (count, depth) = (reached.clone().count(), reached.max().unwrap_or(0));
        let (n, t) = (self.num_nodes, self.num_timestamps);
        DistanceMap::from_table(n, t, self.root, self.dist, self.parent, count, depth)
    }
}

impl Resumable for ResumableBfs {
    fn covered_timestamps(&self) -> usize {
        self.num_timestamps
    }

    fn grow_nodes(&mut self, num_nodes: usize) {
        if num_nodes <= self.num_nodes {
            return;
        }
        let (rows, old) = (self.num_timestamps, self.num_nodes);
        self.dist = relayout(&self.dist, rows, old, num_nodes, UNREACHED);
        if let Some(parent) = self.parent.as_mut() {
            // Parent pointers are flat indices, so they must be *remapped*,
            // not just copied: a flat index bakes in the row stride.
            for p in parent.iter_mut().filter(|p| **p != NO_PARENT) {
                *p = TemporalNode::from_flat_index(*p as usize, old).flat_index(num_nodes) as u64;
            }
            *parent = relayout(parent, rows, old, num_nodes, NO_PARENT);
        }
        self.node_best.resize(num_nodes, UNREACHED);
        self.node_best_time.resize(num_nodes, 0);
        self.num_nodes = num_nodes;
    }

    fn extend_snapshot<G: EvolvingGraph>(&mut self, graph: &G, touched: &[NodeId]) -> Result<()> {
        let t_new = next_snapshot(graph, self.num_timestamps, self.num_nodes, touched)?;

        // A causal seed's parent is its witness snapshot, a static
        // relaxation's its proposer; the first claim at the minimum distance
        // wins, so every parent sits at distance d − 1 across a valid edge.
        let (n, best, best_time) = (self.num_nodes, &self.node_best, &self.node_best_time);
        let seeds = touched
            .iter()
            .filter(|v| best[v.index()] != UNREACHED)
            .map(|&v| {
                let witness = best_time[v.index()] as usize * n + v.index();
                (best[v.index()] + 1, v, witness as u64)
            });
        let parents = self.parent.as_mut().map(|p| {
            let start = p.len();
            p.resize(start + n, NO_PARENT);
            &mut p[start..]
        });
        let new_row = settle_row::<_, AtomicU32>(graph, t_new, n, seeds, parents);
        for (v, &d) in new_row.iter().enumerate() {
            if d < self.node_best[v] {
                self.node_best[v] = d;
                self.node_best_time[v] = self.num_timestamps as u32;
            }
        }
        self.dist.extend_from_slice(&new_row);
        self.num_timestamps += 1;
        Ok(())
    }
}

/// Resumable state of a forward earliest-arrival ("foremost") sweep.
///
/// Mirrors [`ResumableBfs`] for [`earliest_arrival`]: arrivals of
/// already-reached nodes are final (a new snapshot is strictly later), so
/// extending by one snapshot is a single static BFS inside it, seeded from
/// the reached nodes that are active there.
#[derive(Clone, Debug)]
pub struct ResumableForemost {
    root: TemporalNode,
    num_timestamps: usize,
    arrival: Vec<Option<TimeIndex>>,
}

impl ResumableForemost {
    /// Runs a full sweep from `root` and captures resumable state. Like
    /// [`earliest_arrival`], inactive or out-of-range roots are tolerated
    /// (they reach nothing); query layers validate separately.
    pub fn start<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Self {
        Self::from_result(&earliest_arrival(graph, root), graph.num_timestamps())
    }

    /// Captures resumable state from an already-computed *forward* arrival
    /// table covering `num_timestamps` snapshots of the graph that will
    /// later be extended. Reversed (latest-departure) tables cannot be
    /// resumed.
    pub fn from_result(result: &ForemostResult, num_timestamps: usize) -> Self {
        ResumableForemost {
            root: result.root(),
            num_timestamps,
            arrival: result.arrivals().to_vec(),
        }
    }

    /// The root of the sweep.
    pub fn root(&self) -> TemporalNode {
        self.root
    }

    /// Size of the node universe the state is laid out for.
    pub fn num_nodes(&self) -> usize {
        self.arrival.len()
    }

    /// The covered arrival of `v`, if reached.
    pub fn arrival(&self, v: NodeId) -> Option<TimeIndex> {
        self.arrival.get(v.index()).copied().flatten()
    }

    /// Materialises the covered prefix as an ordinary [`ForemostResult`],
    /// moving the arrival table rather than copying it.
    pub fn into_result(self) -> ForemostResult {
        ForemostResult::from_arrivals(self.root, self.arrival)
    }
}

impl Resumable for ResumableForemost {
    fn covered_timestamps(&self) -> usize {
        self.num_timestamps
    }

    fn grow_nodes(&mut self, num_nodes: usize) {
        if num_nodes > self.arrival.len() {
            self.arrival.resize(num_nodes, None);
        }
    }

    /// New arrivals can only happen *at* the new snapshot: one static BFS
    /// inside it, seeded from the already-reached `touched` nodes, finds
    /// them all.
    fn extend_snapshot<G: EvolvingGraph>(&mut self, graph: &G, touched: &[NodeId]) -> Result<()> {
        let t_new = next_snapshot(graph, self.num_timestamps, self.arrival.len(), touched)?;

        let seeds = touched
            .iter()
            .filter(|v| self.arrival[v.index()].is_some())
            .map(|&v| (0, v, NO_PARENT));
        let row = settle_row::<_, AtomicU32>(graph, t_new, self.arrival.len(), seeds, None);
        for (arrival, d) in self.arrival.iter_mut().zip(row) {
            if d != UNREACHED && arrival.is_none() {
                *arrival = Some(t_new);
            }
        }
        self.num_timestamps += 1;
        Ok(())
    }
}

/// Resumable state of a forward *shared-frontier* multi-source traversal
/// ([`nearest_sources`] at any threshold).
///
/// The retained state is exactly the engines' packed claim keys —
/// `(distance << 32) | source_index`, `u64::MAX` = unreached — plus a
/// per-node minimum key over the covered snapshots. One hop adds `HOP`
/// (`1 << 32`) to a key: distance + 1 with the source attribution carried
/// along, so the same seeded kernel that extends [`ResumableBfs`] runs on
/// packed keys and settles every temporal node of the appended snapshot at
/// its minimum key. Minimum packed key *is* the engines' answer — nearest
/// source first, ties to the smallest source index — so the extension is
/// key-for-key identical to a from-scratch run, duplicates and ties
/// included.
#[derive(Clone, Debug)]
pub struct ResumableShared {
    sources: Vec<TemporalNode>,
    num_nodes: usize,
    num_timestamps: usize,
    /// Packed `(dist << 32) | source_index` per temporal node, time-major.
    key: Vec<u64>,
    /// Minimum packed key at which each node was claimed at any covered
    /// snapshot (`u64::MAX` if never) — the shared-frontier analogue of
    /// [`ResumableBfs`]'s `node_best`.
    node_best: Vec<u64>,
}

impl ResumableShared {
    /// Runs a full shared-frontier traversal and captures resumable state.
    ///
    /// # Errors
    /// The same source-validation errors as [`nearest_sources`].
    pub fn start<G: EvolvingGraph>(graph: &G, sources: &[TemporalNode]) -> Result<Self> {
        Ok(Self::from_map(&nearest_sources(
            graph,
            sources,
            usize::MAX,
        )?))
    }

    /// Captures resumable state from an already-computed *forward*
    /// unbounded-end shared-frontier map in the coordinates of the graph
    /// that will later be extended.
    pub fn from_map(map: &MultiSourceMap) -> Self {
        let num_nodes = map.num_nodes();
        let num_timestamps = map.num_timestamps();
        let mut key = vec![u64::MAX; num_nodes * num_timestamps];
        for (tn, d, s) in map.reached_with_sources() {
            key[tn.flat_index(num_nodes)] = ((d as u64) << 32) | s as u64;
        }
        let mut node_best = vec![u64::MAX; num_nodes];
        for (i, &k) in key.iter().enumerate() {
            let v = i % num_nodes;
            if k < node_best[v] {
                node_best[v] = k;
            }
        }
        ResumableShared {
            sources: map.sources().to_vec(),
            num_nodes,
            num_timestamps,
            key,
            node_best,
        }
    }

    /// The sources the frontier was seeded with, in seed order.
    pub fn sources(&self) -> &[TemporalNode] {
        &self.sources
    }

    /// Size of the node universe the state is laid out for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Materialises the covered prefix as an ordinary [`MultiSourceMap`] —
    /// key-for-key what a from-scratch [`nearest_sources`] over that prefix
    /// produces.
    pub fn into_map(self) -> MultiSourceMap {
        let (n, t) = (self.num_nodes, self.num_timestamps);
        MultiSourceMap::from_keys(n, t, self.sources, &self.key)
    }
}

impl Resumable for ResumableShared {
    fn covered_timestamps(&self) -> usize {
        self.num_timestamps
    }

    fn grow_nodes(&mut self, num_nodes: usize) {
        if num_nodes <= self.num_nodes {
            return;
        }
        let (rows, old) = (self.num_timestamps, self.num_nodes);
        self.key = relayout(&self.key, rows, old, num_nodes, u64::MAX);
        self.node_best.resize(num_nodes, u64::MAX);
        self.num_nodes = num_nodes;
    }

    fn extend_snapshot<G: EvolvingGraph>(&mut self, graph: &G, touched: &[NodeId]) -> Result<()> {
        let t_new = next_snapshot(graph, self.num_timestamps, self.num_nodes, touched)?;

        // The hop extension on packed keys: each touched node's cheapest
        // causal claim carries its source along, and the kernel's minimum
        // key per node is the engines' answer, ties included.
        let best = &self.node_best;
        let seeds = touched
            .iter()
            .filter(|v| best[v.index()] != u64::MAX)
            .map(|&v| (best[v.index()] + HOP, v, NO_PARENT));
        let new_row = settle_row::<_, AtomicU64>(graph, t_new, self.num_nodes, seeds, None);
        for (v, &k) in new_row.iter().enumerate() {
            if k < self.node_best[v] {
                self.node_best[v] = k;
            }
        }
        self.key.extend_from_slice(&new_row);
        self.num_timestamps += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyListGraph;
    use crate::examples::paper_figure1;

    /// A deterministic xorshift stream for the randomized pinning tests.
    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    fn touched_at(g: &AdjacencyListGraph, t: TimeIndex) -> Vec<NodeId> {
        g.active_at(t).into_iter().map(|tn| tn.node).collect()
    }

    fn random_growth_trace(seed: u64, n: usize, steps: usize) -> Vec<Vec<(u32, u32)>> {
        let mut rng = Xs(seed | 1);
        (0..steps)
            .map(|_| {
                let edges = 1 + (rng.next() % (2 * n as u64)) as usize;
                (0..edges)
                    .filter_map(|_| {
                        let u = (rng.next() % n as u64) as u32;
                        let v = (rng.next() % n as u64) as u32;
                        (u != v).then_some((u, v))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn extension_matches_from_scratch_bfs_on_random_growth() {
        for seed in [3u64, 17, 99, 0xBEEF] {
            let n = 24;
            let batches = random_growth_trace(seed, n, 6);
            let mut g = AdjacencyListGraph::directed_with_unit_times(n, 1);
            for &(u, v) in &batches[0] {
                g.add_edge(NodeId(u), NodeId(v), TimeIndex(0)).unwrap();
            }
            let Some(&root) = g.active_nodes().first() else {
                continue;
            };
            let mut state = ResumableBfs::start(&g, root).unwrap();
            for batch in &batches[1..] {
                let t = g.push_timestamp(g.num_timestamps() as i64).unwrap();
                for &(u, v) in batch {
                    g.add_edge(NodeId(u), NodeId(v), t).unwrap();
                }
                state.extend_snapshot(&g, &touched_at(&g, t)).unwrap();
                let scratch = distances(&g, root, false, usize::MAX).unwrap();
                assert_eq!(
                    state.clone().into_distance_map().as_flat_slice(),
                    scratch.as_flat_slice(),
                    "seed {seed}, snapshot {t:?}"
                );
            }
        }
    }

    #[test]
    fn foremost_extension_matches_from_scratch_sweep_on_random_growth() {
        for seed in [5u64, 21, 0xACE] {
            let n = 20;
            let batches = random_growth_trace(seed, n, 5);
            let mut g = AdjacencyListGraph::directed_with_unit_times(n, 1);
            for &(u, v) in &batches[0] {
                g.add_edge(NodeId(u), NodeId(v), TimeIndex(0)).unwrap();
            }
            let Some(&root) = g.active_nodes().first() else {
                continue;
            };
            let mut state = ResumableForemost::start(&g, root);
            for batch in &batches[1..] {
                let t = g.push_timestamp(g.num_timestamps() as i64).unwrap();
                for &(u, v) in batch {
                    g.add_edge(NodeId(u), NodeId(v), t).unwrap();
                }
                state.extend_snapshot(&g, &touched_at(&g, t)).unwrap();
                let scratch = earliest_arrival(&g, root);
                assert_eq!(
                    state.clone().into_result().arrivals(),
                    scratch.arrivals(),
                    "seed {seed}, snapshot {t:?}"
                );
            }
        }
    }

    #[test]
    fn extension_covers_multi_hop_within_the_new_snapshot() {
        // Appended snapshot holds a chain 0 → 1 → 2 → 3; only node 0 has a
        // past. All of it must be discovered by in-snapshot relaxation.
        let mut g = AdjacencyListGraph::directed_with_unit_times(4, 1);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        let root = TemporalNode::from_raw(0, 0);
        let mut state = ResumableBfs::start(&g, root).unwrap();
        let t = g.push_timestamp(1).unwrap();
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            g.add_edge(NodeId(u), NodeId(v), t).unwrap();
        }
        state.extend_snapshot(&g, &touched_at(&g, t)).unwrap();
        let map = state.into_distance_map();
        // (0, t1) via causal hop = 1, then static hops 2, 3, 4.
        assert_eq!(map.distance(TemporalNode::from_raw(0, 1)), Some(1));
        assert_eq!(map.distance(TemporalNode::from_raw(3, 1)), Some(4));
        assert_eq!(
            map.as_flat_slice(),
            distances(&g, root, false, usize::MAX)
                .unwrap()
                .as_flat_slice()
        );
    }

    #[test]
    fn extension_prefers_the_cheaper_of_causal_and_static_entries() {
        // Node 2's causal entry would cost best+1 = 4, but a static hop from
        // node 0 (causal entry 1) inside the new snapshot costs 2.
        let mut g = AdjacencyListGraph::directed_with_unit_times(3, 2);
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), TimeIndex(1)).unwrap();
        g.add_edge(NodeId(0), NodeId(1), TimeIndex(1)).unwrap();
        let root = TemporalNode::from_raw(0, 0);
        let mut state = ResumableBfs::start(&g, root).unwrap();
        let t = g.push_timestamp(2).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t).unwrap();
        state.extend_snapshot(&g, &touched_at(&g, t)).unwrap();
        assert_eq!(
            state.into_distance_map().as_flat_slice(),
            distances(&g, root, false, usize::MAX)
                .unwrap()
                .as_flat_slice()
        );
    }

    #[test]
    fn grow_nodes_relayouts_state_and_matches_scratch() {
        let mut g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let mut state = ResumableBfs::start(&g, root).unwrap();
        let mut foremost = ResumableForemost::start(&g, root);
        g.grow_nodes(6);
        state.grow_nodes(6);
        foremost.grow_nodes(6);
        let t = g.push_timestamp(100).unwrap();
        g.add_edge(NodeId(2), NodeId(5), t).unwrap();
        g.add_edge(NodeId(5), NodeId(4), t).unwrap();
        let touched = touched_at(&g, t);
        state.extend_snapshot(&g, &touched).unwrap();
        foremost.extend_snapshot(&g, &touched).unwrap();
        assert_eq!(
            state.clone().into_distance_map().as_flat_slice(),
            distances(&g, root, false, usize::MAX)
                .unwrap()
                .as_flat_slice()
        );
        assert_eq!(
            foremost.into_result().arrivals(),
            earliest_arrival(&g, root).arrivals()
        );
        // The brand-new node is reached only through the appended snapshot.
        assert_eq!(
            state.best_distance(NodeId(5)),
            state.distance(TemporalNode::new(NodeId(5), t))
        );
    }

    #[test]
    fn extension_without_a_new_snapshot_is_rejected() {
        let g = paper_figure1();
        let mut state = ResumableBfs::start(&g, TemporalNode::from_raw(0, 0)).unwrap();
        // All three snapshots are already covered.
        assert!(matches!(
            state.extend_snapshot(&g, &[]),
            Err(GraphError::TimeOutOfRange { .. })
        ));
        let mut foremost = ResumableForemost::start(&g, TemporalNode::from_raw(0, 0));
        assert!(matches!(
            foremost.extend_snapshot(&g, &[]),
            Err(GraphError::TimeOutOfRange { .. })
        ));
    }

    #[test]
    fn ungrown_state_rejects_a_grown_graph() {
        let mut g = paper_figure1();
        let mut state = ResumableBfs::start(&g, TemporalNode::from_raw(0, 0)).unwrap();
        g.grow_nodes(10);
        let t = g.push_timestamp(50).unwrap();
        g.add_edge(NodeId(0), NodeId(9), t).unwrap();
        assert!(matches!(
            state.extend_snapshot(&g, &touched_at(&g, t)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn from_map_round_trips_through_into_distance_map() {
        let g = paper_figure1();
        for &root in &g.active_nodes() {
            let map = distances(&g, root, false, usize::MAX).unwrap();
            let state = ResumableBfs::from_map(&map);
            assert_eq!(
                state.clone().into_distance_map().as_flat_slice(),
                map.as_flat_slice()
            );
            assert_eq!(state.root(), root);
            assert_eq!(state.covered_timestamps(), g.num_timestamps());
        }
    }

    #[test]
    fn shared_extension_matches_from_scratch_on_random_growth() {
        for seed in [7u64, 41, 0xC0FFEE] {
            let n = 22;
            let batches = random_growth_trace(seed, n, 6);
            let mut g = AdjacencyListGraph::directed_with_unit_times(n, 1);
            for &(u, v) in &batches[0] {
                g.add_edge(NodeId(u), NodeId(v), TimeIndex(0)).unwrap();
            }
            let active = g.active_nodes();
            if active.len() < 2 {
                continue;
            }
            // Deliberately include a duplicate source: attribution must still
            // pick the smallest source *index*, and the extension must
            // reproduce that tie-break exactly.
            let sources = vec![active[0], active[1], active[0]];
            let mut state = ResumableShared::start(&g, &sources).unwrap();
            for batch in &batches[1..] {
                let t = g.push_timestamp(g.num_timestamps() as i64).unwrap();
                for &(u, v) in batch {
                    g.add_edge(NodeId(u), NodeId(v), t).unwrap();
                }
                state.extend_snapshot(&g, &touched_at(&g, t)).unwrap();
                let scratch = nearest_sources(&g, &sources, usize::MAX).unwrap();
                let extended = state.clone().into_map();
                assert_eq!(
                    extended.as_flat_slice(),
                    scratch.as_flat_slice(),
                    "distances diverged: seed {seed}, snapshot {t:?}"
                );
                assert_eq!(
                    extended.reached_with_sources(),
                    scratch.reached_with_sources(),
                    "attribution diverged: seed {seed}, snapshot {t:?}"
                );
            }
        }
    }

    #[test]
    fn shared_grow_nodes_relayouts_state_and_matches_scratch() {
        let mut g = paper_figure1();
        let sources = vec![TemporalNode::from_raw(0, 0), TemporalNode::from_raw(1, 0)];
        let mut state = ResumableShared::start(&g, &sources).unwrap();
        g.grow_nodes(6);
        state.grow_nodes(6);
        let t = g.push_timestamp(100).unwrap();
        g.add_edge(NodeId(2), NodeId(5), t).unwrap();
        g.add_edge(NodeId(5), NodeId(4), t).unwrap();
        state.extend_snapshot(&g, &touched_at(&g, t)).unwrap();
        let scratch = nearest_sources(&g, &sources, usize::MAX).unwrap();
        assert_eq!(
            state.clone().into_map().reached_with_sources(),
            scratch.reached_with_sources()
        );
        assert_eq!(state.sources(), &sources[..]);
    }

    #[test]
    fn parent_links_survive_extension_with_exact_distances_and_valid_edges() {
        for seed in [11u64, 77, 0xFEED] {
            let n = 18;
            let batches = random_growth_trace(seed, n, 5);
            let mut g = AdjacencyListGraph::directed_with_unit_times(n, 1);
            for &(u, v) in &batches[0] {
                g.add_edge(NodeId(u), NodeId(v), TimeIndex(0)).unwrap();
            }
            let Some(&root) = g.active_nodes().first() else {
                continue;
            };
            let mut state = ResumableBfs::from_map(&distances(&g, root, true, usize::MAX).unwrap());
            for batch in &batches[1..] {
                let t = g.push_timestamp(g.num_timestamps() as i64).unwrap();
                for &(u, v) in batch {
                    g.add_edge(NodeId(u), NodeId(v), t).unwrap();
                }
                state.extend_snapshot(&g, &touched_at(&g, t)).unwrap();
                let extended = state.clone().into_distance_map();
                let scratch = distances(&g, root, true, usize::MAX).unwrap();
                // Distances are pinned exactly; parent pointers are only
                // required to be *valid* (parent one hop closer, edge exists
                // in the effective direction), because first-discoverer order
                // differs between extension and from-scratch runs.
                assert_eq!(
                    extended.as_flat_slice(),
                    scratch.as_flat_slice(),
                    "seed {seed}, snapshot {t:?}"
                );
                assert!(extended.has_parents());
                for (tn, d) in extended.reached() {
                    if tn == root {
                        continue;
                    }
                    let p = extended.parent(tn).unwrap_or_else(|| {
                        panic!("reached non-root {tn:?} lacks a parent (seed {seed})")
                    });
                    assert_eq!(
                        extended.distance(p),
                        Some(d - 1),
                        "parent {p:?} of {tn:?} not one hop closer (seed {seed})"
                    );
                    let mut is_neighbor = false;
                    g.for_each_forward_neighbor(p, &mut |w| is_neighbor |= w == tn);
                    assert!(
                        is_neighbor,
                        "parent edge {p:?} -> {tn:?} does not exist (seed {seed})"
                    );
                }
            }
        }
    }
}
