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
//! * [`ResumableBfs`] — the distance map of Algorithm 1, and
//!   [`ResumableShared`] — the nearest-source map of the shared-frontier
//!   engines. Both keep their map's one key table ([`crate::distance`]: a
//!   distance, or a packed `(distance << 32) | source_index`) plus a per-node
//!   *frontier snapshot*, the smallest key each node holds at any covered
//!   snapshot. One extension serves both key types, the stable-value reuse
//!   of Afarin et al.: appending snapshot `t_new` seeds each node active at
//!   `t_new` with its best key handed on one level deeper (its cheapest
//!   causal entry: distance + 1, from the same source) and relaxes static
//!   edges inside `t_new` with the kernel seeded at several levels
//!   ([`crate::kernel`]) — work proportional to the new snapshot, not the
//!   history. The kernel settles the row at each slot's minimum key, so the
//!   shared extension keeps the engines' smallest-source-index tie-break
//!   exactly.
//! * [`ResumableForemost`] — the earliest-arrival table of the foremost
//!   sweep. Appending `t_new` can only create arrivals *at* `t_new`, found by
//!   one static BFS inside the new snapshot seeded from already-reached
//!   nodes.
//!
//! All three implement [`Resumable`], the one surface a caller advancing a
//! state over sealed snapshots needs.
//!
//! **What a repair costs.** Capturing a state from a finished map
//! ([`ResumableBfs::from_map`], [`ResumableShared::from_map`]) copies the
//! map's table once, into room sized for the rows the caller will append,
//! so no extension reallocates it; the per-node frontier is rebuilt from
//! the rows of the map's row span alone ([`DistanceMap::row_span`]). Each
//! extension settles its row and updates the reached count, the maximum
//! distance and the span from that row, so materialising the result
//! ([`ResumableBfs::into_distance_map`], [`ResumableShared::into_map`])
//! moves the table without another pass. A repair is one table copy plus
//! work proportional to the span and the settled rows.
//!
//! *Time-reversed* traversals (backward XOR `.reverse()`) need no state
//! here. Causal edges only go forward in time, so a reversed traversal from
//! a fixed-time root only reaches times at or before that root — strictly
//! earlier than any appended snapshot. Its answer is therefore stable across
//! an append (the stable core of Afarin et al.'s stable-vertex analysis),
//! and repairing it is re-dimensioning: a copy of the span's rows into the
//! grown dimensions with no graph work.
//!
//! [`ResumableBfs`] also resumes BFS-tree *parents* when its source map
//! recorded them: the frontier then also remembers the earliest snapshot
//! achieving each node's best distance, so a causal seed's parent is known
//! without rescanning history, and static relaxations record their
//! proposer. Parent trees are not unique — any parent at distance `d − 1`
//! across a valid edge witnesses a shortest path — and the extension
//! guarantees exactly that invariant (the workspace differential suites
//! check parent *validity*, not pointer equality with a from-scratch run).
//!
//! All engines are pinned to their from-scratch counterparts by the unit
//! tests below and by the workspace's `live_stream_differential` and
//! `cache_matrix_fuzz` suites; the `incremental_vs_recompute` bench asserts
//! the delta-proportional work claims with
//! [`crate::instrument::CountingView`] counters and the bytes a repair
//! allocates with a counting allocator.

use std::fmt;

use crate::distance::{DistanceMap, Key, KeyTable, MultiSourceMap, NO_PARENT, UNREACHED};
use crate::error::{GraphError, Result};
use crate::foremost::{earliest_arrival, ForemostResult};
use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TemporalNode, TimeIndex};
use crate::kernel::{self, distances, nearest_sources, Kernel, Seed, Slot};

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

/// What settling a row works in: the row's slots (unreached between
/// settles), the seed list and the kernel's scratch. A state keeps one
/// across its extensions, so a repair that appends several rows allocates
/// them once. It is not part of the state: a clone starts without it.
#[derive(Default)]
struct RowScratch<K: Key> {
    row: Vec<K::Slot>,
    seeds: Vec<Seed<K>>,
    kernel: kernel::Scratch,
}

impl<K: Key> fmt::Debug for RowScratch<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RowScratch")
    }
}

impl<K: Key> Clone for RowScratch<K> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<K: Key> RowScratch<K> {
    /// Runs the kernel over one appended row of `num_nodes` slots — slot
    /// `v` is `(v, t_new)` and a hop follows the static edges inside
    /// `t_new`, the causal bound `t_new + 1` leaving no causal edge — from
    /// `(key, node, parent)` seeds drawn from the touched list. Returns how
    /// many slots it claimed and the deepest level that claimed one; the
    /// keys wait in the row for [`RowScratch::drain`].
    fn settle<G: EvolvingGraph>(
        &mut self,
        graph: &G,
        t_new: TimeIndex,
        num_nodes: usize,
        seeds: impl Iterator<Item = (K, NodeId, u64)>,
        parents: Option<&mut [u64]>,
    ) -> (usize, u32) {
        if self.row.len() < num_nodes {
            self.row
                .resize_with(num_nodes, || K::Slot::from(K::UNREACHED));
        }
        // Every slot the row can reach is active at `t_new`, so the touched
        // list that bounds the seeds also bounds any level.
        let width = seeds.size_hint().1.unwrap_or(num_nodes);
        self.kernel.reserve(width);
        self.seeds.reserve(width);
        let seeds = seeds.map(|(key, v, parent)| (key, TemporalNode::new(v, t_new), parent));
        self.seeds.extend(seeds);
        let (base, end) = (t_new.index() * num_nodes, TimeIndex(t_new.0 + 1));
        let scratch = std::mem::take(&mut self.kernel);
        let row = &self.row[..num_nodes];
        let mut kernel = Kernel::new(row, graph, num_nodes, base, end, scratch);
        let settled = kernel.run(&mut self.seeds, parents, usize::MAX);
        self.kernel = kernel.into_scratch();
        settled
    }

    /// The settled row's keys, each slot reset to unreached as it is read.
    fn drain(&self, num_nodes: usize) -> impl Iterator<Item = K> + '_ {
        self.row[..num_nodes].iter().map(|slot| {
            let key = slot.load();
            slot.store(K::UNREACHED);
            key
        })
    }
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

/// The frontier snapshot that extends a key table by one snapshot at a
/// time, for either key type (see the module docs).
#[derive(Clone, Debug)]
struct Frontier<K: Key> {
    /// Per node, the smallest key it holds at any covered snapshot
    /// (unreached if none).
    best: Vec<K>,
    /// Per node, the earliest covered snapshot holding `best` — the witness
    /// a causal seed names as its parent — kept only when the table records
    /// parents. Meaningless where `best` is unreached.
    best_time: Option<Vec<u32>>,
    scratch: RowScratch<K>,
}

impl<K: Key> Frontier<K> {
    /// The frontier of `table`, read off the rows of its span alone.
    fn of(table: &KeyTable<K>) -> Self {
        let mut frontier = Frontier {
            best: vec![K::UNREACHED; table.num_nodes],
            best_time: table.parents.as_ref().map(|_| vec![0; table.num_nodes]),
            scratch: RowScratch::default(),
        };
        for (t, row) in table.span_rows() {
            frontier.take_row(t, row);
        }
        frontier
    }

    /// Lowers each node's best key to its slot in `row`, snapshot `t`. Rows
    /// come in time order, so a strict improvement is the earliest snapshot
    /// holding the final best.
    fn take_row(&mut self, t: usize, row: &[K]) {
        for (v, (best, &key)) in self.best.iter_mut().zip(row).enumerate() {
            if key < *best {
                *best = key;
                if let Some(times) = &mut self.best_time {
                    times[v] = t as u32;
                }
            }
        }
    }

    /// [`Resumable::grow_nodes`] for `table` and this frontier.
    fn grow_nodes(&mut self, table: &mut KeyTable<K>, num_nodes: usize) {
        let old = table.num_nodes;
        if num_nodes <= old {
            return;
        }
        let spare = (table.keys.capacity() - table.keys.len()) / old.max(1);
        *table = table.relaid(num_nodes, table.num_timestamps, spare);
        self.best.resize(num_nodes, K::UNREACHED);
        if let Some(times) = &mut self.best_time {
            times.resize(num_nodes, 0);
        }
    }

    /// [`Resumable::extend_snapshot`] for `table` and this frontier.
    fn extend<G: EvolvingGraph>(
        &mut self,
        table: &mut KeyTable<K>,
        graph: &G,
        touched: &[NodeId],
    ) -> Result<()> {
        let (n, t) = (table.num_nodes, table.num_timestamps);
        let t_new = next_snapshot(graph, t, n, touched)?;

        // A causal seed's parent is its witness snapshot, a static
        // relaxation's its proposer; the first claim at the minimum key
        // wins, so every parent sits one level up across a valid edge.
        let (best, times) = (&self.best, &self.best_time);
        let seeds = touched
            .iter()
            .filter(|v| best[v.index()] != K::UNREACHED)
            .map(|&v| {
                let key = best[v.index()];
                let witness = times.as_ref().map_or(NO_PARENT, |times| {
                    (times[v.index()] as usize * n + v.index()) as u64
                });
                (key.hand_on(key.level() + 1), v, witness)
            });
        let parents = table.parents.as_mut().map(|parents| {
            parents.resize((t + 1) * n, NO_PARENT);
            &mut parents[t * n..]
        });
        let settled = self.scratch.settle(graph, t_new, n, seeds, parents);
        table.push_row(self.scratch.drain(n), settled);
        self.take_row(t, &table.keys[t * n..]);
        Ok(())
    }
}

/// Resumable state of a forward hop-distance BFS (Algorithm 1).
///
/// The state covers a prefix of the graph's snapshots.
/// [`Resumable::extend_snapshot`] advances the covered prefix by one
/// snapshot: because all causal edges into the new snapshot come from the
/// same node at an earlier active time, each touched node's cheapest entry
/// costs its best distance + 1, and static edges inside the snapshot then
/// relax those seeds with the kernel seeded at several levels.
/// [`ResumableBfs::into_distance_map`] materialises the ordinary
/// [`DistanceMap`] a from-scratch [`distances`] over the covered prefix would
/// produce.
#[derive(Clone, Debug)]
pub struct ResumableBfs {
    /// The covered prefix, kept current by every extension.
    map: DistanceMap,
    frontier: Frontier<u32>,
}

impl ResumableBfs {
    /// Runs a full forward BFS from `root` and captures resumable state.
    ///
    /// # Errors
    /// The same root-validation errors as [`distances`].
    pub fn start<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<Self> {
        Ok(Self::from_map(
            &distances(graph, root, false, usize::MAX)?,
            0,
        ))
    }

    /// Captures resumable state from an already-computed forward distance
    /// map (e.g. one produced through a query layer). The map must be a
    /// *forward* full- or suffix-window result in the coordinates of the
    /// graph that will later be extended; backward or time-reversed maps
    /// cannot be resumed (see the module docs). If the map recorded
    /// BFS-tree parents, the extension maintains them (see the module docs
    /// on parent validity).
    ///
    /// The table is copied once with room for `appended` more rows, so
    /// that many extensions never reallocate it (more still work), and
    /// the frontier is rebuilt from the rows of the map's span alone.
    pub fn from_map(map: &DistanceMap, appended: usize) -> Self {
        let table = map
            .table
            .relaid(map.num_nodes(), map.num_timestamps(), appended);
        ResumableBfs {
            frontier: Frontier::of(&table),
            map: DistanceMap {
                table,
                root: map.root,
            },
        }
    }

    /// The root the traversal started from.
    pub fn root(&self) -> TemporalNode {
        self.map.root()
    }

    /// Size of the node universe the state is laid out for.
    pub fn num_nodes(&self) -> usize {
        self.map.num_nodes()
    }

    /// Distance of a covered temporal node, or `None` if unreached (or not
    /// yet covered).
    pub fn distance(&self, tn: TemporalNode) -> Option<u32> {
        let inside =
            tn.node.index() < self.map.num_nodes() && tn.time.index() < self.map.num_timestamps();
        inside.then(|| self.map.distance(tn)).flatten()
    }

    /// Materialises the covered prefix as an ordinary [`DistanceMap`] —
    /// distance-for-distance what a from-scratch [`distances`] over that prefix
    /// produces — moving the table rather than copying it, with no pass
    /// over it. When parents are tracked they are materialised too; the
    /// tree is *a* valid BFS tree over those distances (see the module docs),
    /// not necessarily the one a from-scratch run's visit order would pick.
    pub fn into_distance_map(self) -> DistanceMap {
        self.map
    }
}

impl Resumable for ResumableBfs {
    fn covered_timestamps(&self) -> usize {
        self.map.num_timestamps()
    }

    fn grow_nodes(&mut self, num_nodes: usize) {
        self.frontier.grow_nodes(&mut self.map.table, num_nodes);
    }

    fn extend_snapshot<G: EvolvingGraph>(&mut self, graph: &G, touched: &[NodeId]) -> Result<()> {
        self.frontier.extend(&mut self.map.table, graph, touched)
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
    scratch: RowScratch<u32>,
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
            scratch: RowScratch::default(),
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
        let n = self.arrival.len();
        self.scratch.settle(graph, t_new, n, seeds, None);
        for (arrival, d) in self.arrival.iter_mut().zip(self.scratch.drain(n)) {
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
/// The retained state is the map itself — its one table of packed keys —
/// plus the per-node minimum key over the covered snapshots, the extension
/// [`ResumableBfs`] runs on distances run on packed keys. Minimum packed
/// key *is* the engines' answer — nearest source first, ties to the
/// smallest source index — so the extension is key-for-key identical to a
/// from-scratch run, duplicates and ties included.
#[derive(Clone, Debug)]
pub struct ResumableShared {
    /// The covered prefix, kept current by every extension.
    map: MultiSourceMap,
    frontier: Frontier<u64>,
}

impl ResumableShared {
    /// Runs a full shared-frontier traversal and captures resumable state.
    ///
    /// # Errors
    /// The same source-validation errors as [`nearest_sources`].
    pub fn start<G: EvolvingGraph>(graph: &G, sources: &[TemporalNode]) -> Result<Self> {
        let map = nearest_sources(graph, sources, usize::MAX)?;
        Ok(Self::from_map(&map, 0))
    }

    /// Captures resumable state from an already-computed *forward*
    /// unbounded-end shared-frontier map in the coordinates of the graph
    /// that will later be extended. Like [`ResumableBfs::from_map`], the
    /// table is copied once with room for `appended` more rows and the
    /// frontier is rebuilt from the span's rows alone.
    pub fn from_map(map: &MultiSourceMap, appended: usize) -> Self {
        let table = map
            .table
            .relaid(map.num_nodes(), map.num_timestamps(), appended);
        ResumableShared {
            frontier: Frontier::of(&table),
            map: MultiSourceMap {
                table,
                sources: map.sources.clone(),
            },
        }
    }

    /// The sources the frontier was seeded with, in seed order.
    pub fn sources(&self) -> &[TemporalNode] {
        self.map.sources()
    }

    /// Size of the node universe the state is laid out for.
    pub fn num_nodes(&self) -> usize {
        self.map.num_nodes()
    }

    /// Materialises the covered prefix as an ordinary [`MultiSourceMap`] —
    /// key-for-key what a from-scratch [`nearest_sources`] over that prefix
    /// produces — moving the table rather than copying it, with no pass
    /// over it.
    pub fn into_map(self) -> MultiSourceMap {
        self.map
    }
}

impl Resumable for ResumableShared {
    fn covered_timestamps(&self) -> usize {
        self.map.num_timestamps()
    }

    fn grow_nodes(&mut self, num_nodes: usize) {
        self.frontier.grow_nodes(&mut self.map.table, num_nodes);
    }

    fn extend_snapshot<G: EvolvingGraph>(&mut self, graph: &G, touched: &[NodeId]) -> Result<()> {
        self.frontier.extend(&mut self.map.table, graph, touched)
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
            let state = ResumableBfs::from_map(&map, 0);
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

    /// Parent pointers are only required to be *valid* — each parent one
    /// hop closer, across an edge that exists — because first-discoverer
    /// order differs between extension and from-scratch runs.
    fn assert_valid_parents(g: &AdjacencyListGraph, map: &DistanceMap, what: &str) {
        assert!(map.has_parents(), "{what}");
        for (tn, d) in map.reached() {
            if tn == map.root() {
                continue;
            }
            let p = map
                .parent(tn)
                .unwrap_or_else(|| panic!("reached non-root {tn:?} lacks a parent ({what})"));
            assert_eq!(
                map.distance(p),
                Some(d - 1),
                "parent {p:?} of {tn:?} not one hop closer ({what})"
            );
            let mut is_neighbor = false;
            g.for_each_forward_neighbor(p, &mut |w| is_neighbor |= w == tn);
            assert!(
                is_neighbor,
                "parent edge {p:?} -> {tn:?} does not exist ({what})"
            );
        }
    }

    /// Every reached slot of a time-major table `n` wide lies in `span`.
    fn assert_span_covers<K: Key>(table: &[K], n: usize, span: std::ops::Range<usize>, what: &str) {
        for (i, _) in table
            .iter()
            .enumerate()
            .filter(|(_, &key)| key != K::UNREACHED)
        {
            assert!(
                span.contains(&(i / n)),
                "slot {i} reached outside the span {span:?} ({what})"
            );
        }
    }

    /// Replays `random_growth_trace(seed, n, steps)`: `start` sees the graph
    /// holding the first batch as snapshot 0, `step` the graph after each
    /// later batch is sealed, with that batch's snapshot.
    fn replay_growth<S>(
        seed: u64,
        n: usize,
        steps: usize,
        start: impl FnOnce(&AdjacencyListGraph) -> Option<S>,
        mut step: impl FnMut(&mut S, &AdjacencyListGraph, TimeIndex),
    ) {
        let batches = random_growth_trace(seed, n, steps);
        let mut g = AdjacencyListGraph::directed_with_unit_times(n, 1);
        for &(u, v) in &batches[0] {
            g.add_edge(NodeId(u), NodeId(v), TimeIndex(0)).unwrap();
        }
        let Some(mut state) = start(&g) else {
            return;
        };
        for batch in &batches[1..] {
            let t = g.push_timestamp(g.num_timestamps() as i64).unwrap();
            for &(u, v) in batch {
                g.add_edge(NodeId(u), NodeId(v), t).unwrap();
            }
            step(&mut state, &g, t);
        }
    }

    #[test]
    fn parent_links_survive_extension_with_exact_distances_and_valid_edges() {
        for seed in [11u64, 77, 0xFEED] {
            replay_growth(
                seed,
                18,
                5,
                |g| {
                    let root = *g.active_nodes().first()?;
                    let map = distances(g, root, true, usize::MAX).unwrap();
                    Some((root, ResumableBfs::from_map(&map, 0)))
                },
                |(root, state), g, t| {
                    state.extend_snapshot(g, &touched_at(g, t)).unwrap();
                    let extended = state.clone().into_distance_map();
                    let scratch = distances(g, *root, true, usize::MAX).unwrap();
                    let what = format!("seed {seed}, snapshot {t:?}");
                    assert_eq!(extended.as_flat_slice(), scratch.as_flat_slice(), "{what}");
                    assert_valid_parents(g, &extended, &what);
                },
            );
        }
    }

    #[test]
    fn extended_maps_carry_scratch_counts_and_a_covering_span() {
        for seed in [5u64, 29, 0xD00D] {
            for with_parents in [false, true] {
                replay_growth(
                    seed,
                    20,
                    6,
                    |g| {
                        let root = *g.active_nodes().first()?;
                        let map = distances(g, root, with_parents, usize::MAX).unwrap();
                        Some((root, ResumableBfs::from_map(&map, 0)))
                    },
                    |(root, state), g, t| {
                        state.extend_snapshot(g, &touched_at(g, t)).unwrap();
                        let extended = state.clone().into_distance_map();
                        let scratch = distances(g, *root, with_parents, usize::MAX).unwrap();
                        let what = format!("seed {seed}, parents {with_parents}, {t:?}");
                        assert_eq!(extended.as_flat_slice(), scratch.as_flat_slice(), "{what}");
                        assert_eq!(extended.num_reached(), scratch.num_reached(), "{what}");
                        assert_eq!(extended.max_distance(), scratch.max_distance(), "{what}");
                        assert_eq!(extended.has_parents(), with_parents, "{what}");
                        if with_parents {
                            assert_valid_parents(g, &extended, &what);
                        }
                        let span = extended.row_span();
                        assert_span_covers(extended.as_flat_slice(), g.num_nodes(), span, &what);
                    },
                );
            }
        }
    }

    #[test]
    fn extended_shared_maps_carry_scratch_counts_and_a_covering_span() {
        for seed in [13u64, 61, 0xCAFE] {
            replay_growth(
                seed,
                20,
                6,
                |g| {
                    let active = g.active_nodes();
                    let sources = vec![*active.get(1)?, active[0], active[1]];
                    let map = nearest_sources(g, &sources, usize::MAX).unwrap();
                    Some((sources, ResumableShared::from_map(&map, 0)))
                },
                |(sources, state), g, t| {
                    state.extend_snapshot(g, &touched_at(g, t)).unwrap();
                    let extended = state.clone().into_map();
                    let scratch = nearest_sources(g, sources, usize::MAX).unwrap();
                    let what = format!("seed {seed}, {t:?}");
                    assert_eq!(extended.as_flat_slice(), scratch.as_flat_slice(), "{what}");
                    assert_eq!(
                        extended.reached_with_sources(),
                        scratch.reached_with_sources(),
                        "{what}"
                    );
                    assert_eq!(extended.num_reached(), scratch.num_reached(), "{what}");
                    assert_eq!(extended.max_distance(), scratch.max_distance(), "{what}");
                    let span = extended.row_span();
                    assert_span_covers(extended.as_flat_slice(), g.num_nodes(), span, &what);
                },
            );
        }
    }

    #[test]
    fn a_state_sized_for_its_rows_extends_without_moving_its_tables() {
        let n = 16;
        let batches = random_growth_trace(0x5EED, n, 7);
        let mut g = AdjacencyListGraph::directed_with_unit_times(n, 1);
        for &(u, v) in &batches[0] {
            g.add_edge(NodeId(u), NodeId(v), TimeIndex(0)).unwrap();
        }
        let root = g.active_nodes()[0];
        let map = distances(&g, root, true, usize::MAX).unwrap();
        let shared_map = nearest_sources(&g, &[root], usize::MAX).unwrap();
        for batch in &batches[1..] {
            let t = g.push_timestamp(g.num_timestamps() as i64).unwrap();
            for &(u, v) in batch {
                g.add_edge(NodeId(u), NodeId(v), t).unwrap();
            }
        }
        let k = batches.len() - 1;
        let mut grown = g.clone();
        grown.grow_nodes(n + 3);

        // Sized for k rows, then extended k times — once in the map's own
        // layout, once after the node universe grew.
        for (graph, width) in [(&g, n), (&grown, n + 3)] {
            let mut bfs = ResumableBfs::from_map(&map, k);
            let mut shared = ResumableShared::from_map(&shared_map, k);
            bfs.grow_nodes(width);
            shared.grow_nodes(width);
            let tables = |bfs: &ResumableBfs, shared: &ResumableShared| {
                [
                    bfs.map.table.keys.as_ptr() as usize,
                    bfs.map.table.parents.as_ref().unwrap().as_ptr() as usize,
                    shared.map.table.keys.as_ptr() as usize,
                ]
            };
            let before = tables(&bfs, &shared);
            for t in 1..=k {
                let t = TimeIndex::from_index(t);
                bfs.extend_snapshot(graph, &touched_at(graph, t)).unwrap();
                shared
                    .extend_snapshot(graph, &touched_at(graph, t))
                    .unwrap();
                assert_eq!(tables(&bfs, &shared), before, "width {width}, {t:?}");
            }
            let extended = bfs.into_distance_map();
            let scratch = distances(graph, root, true, usize::MAX).unwrap();
            assert_eq!(extended.as_flat_slice(), scratch.as_flat_slice());
            assert_eq!(extended.num_reached(), scratch.num_reached());
            assert_valid_parents(graph, &extended, &format!("width {width}"));
            assert_eq!(
                shared.into_map().reached_with_sources(),
                nearest_sources(graph, &[root], usize::MAX)
                    .unwrap()
                    .reached_with_sources()
            );
        }
    }
}
