//! The level-synchronous traversal kernel behind every hop engine.
//!
//! Algorithm 1 is one loop, and Theorem 1 says why one loop is enough: BFS
//! on an evolving graph is BFS on its equivalent static graph. Each temporal
//! node owns one atomic slot holding its best *key* — an `AtomicU32`
//! distance for single-source searches, an `AtomicU64` packed
//! `(distance << 32) | source_index` for the shared frontier, so "nearest
//! source, ties to the smallest index" is one integer minimum. A node at
//! level `k − 1` claims each neighbour with "level `k`, my source"; the claim
//! that finds the slot unreached enqueues it. The pool's join ends every
//! wide level, so the key a node hands on is final; a slot publishes no
//! other data, so Relaxed ordering suffices. A level expands
//!
//! * **serially** (Relaxed `load`/`store` are plain moves) when it is
//!   narrower than the threshold, the pool has one thread, or parents are
//!   recorded — only this expansion writes the parent sidecar, so parents
//!   follow first-discoverer order as in the paper; or
//! * **wide**, chunked over the pool with `fetch_min` claims into per-chunk
//!   buffers spliced in chunk order, with the same answer.
//!
//! A hop from `(v, t)` follows `v`'s static out-edges at `t` and its causal
//! edges to later active times. The causal edges `E′` are quadratic in each
//! node's active count, but level-synchronous order makes most of them
//! redundant: the first expansion of `v` already offers every later active
//! time a claim. A per-node *causal cursor* `lo[v]` — the earliest time at
//! which `v` has been expanded — removes the redundancy. Expanding `(v, t)`
//! delivers only the active times in `(t, lo[v])`, through the graph's
//! ranged active-time visit, then lowers `lo[v]` to `t` (`fetch_min` on a
//! wide level). The delivered intervals are disjoint, so a single-source
//! search walks each node's causal edges at most once per active time:
//! Theorem 2's bound in static edges plus active nodes. For the shared
//! frontier a later expansion at the same level may carry a smaller source
//! index, so the suffix is skipped only when the key of the node that set
//! the cursor is no larger than the expander's; otherwise the expander
//! delivers its whole suffix. A skipped delivery could only have met a
//! slot already as good, so answers and first-discoverer parents are those
//! of the plain loop.
//!
//! Seeds enter at any level, in key order: a search seeds its sources at
//! level 0, and a [`crate::resume`] extension seeds each touched node of an
//! appended snapshot at its cheapest causal entry (`node_best + 1`), the
//! stable-value reuse of Afarin et al. An extension settles only the new
//! snapshot, so its causal bound is that snapshot and it follows static
//! edges alone.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use rayon::prelude::*;

use crate::distance::{DistanceMap, MultiSourceMap};
use crate::error::{GraphError, Result};
use crate::graph::{EvolvingGraph, TimeOrder};
use crate::ids::{TemporalNode, TimeIndex};

/// Default frontier width below which a level expands serially.
/// `EGRAPH_PAR_THRESHOLD` overrides it per process (read once), the query
/// builder's `parallel_threshold` per query.
///
/// Swept on a 2-vCPU host from a thread outside a 2-thread pool, as a
/// server's connection threads call it: at every width from 256 to 16 384
/// the wide path spent 15–60% more CPU than the serial loop and finished no
/// sooner, on 8 000 to 240 000 temporal nodes whose widest levels hold
/// 5 161 to 24 091 nodes. No measured level is this wide, so on such a host
/// `Parallel` runs the serial loop; a host with more cores may lower it
/// through either override.
pub const PARALLEL_FRONTIER_THRESHOLD: usize = 1 << 16;

/// The process-wide default threshold: `EGRAPH_PAR_THRESHOLD` if set to a
/// parseable `usize`, else [`PARALLEL_FRONTIER_THRESHOLD`].
pub fn default_parallel_threshold() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("EGRAPH_PAR_THRESHOLD")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(PARALLEL_FRONTIER_THRESHOLD)
    })
}

/// Sentinel parent: the root, a seed without a witness, or unreached.
pub(crate) const NO_PARENT: u64 = u64::MAX;

/// A seed: its key, its node, and the parent it records if it claims.
pub(crate) type Seed<K> = (K, TemporalNode, u64);

/// An atomic claim slot; smaller keys win. `level` reads a key's BFS level,
/// `claim` is the key a node holding `parent` hands on at `level`.
pub(crate) trait Slot: Sync + Sized + From<Self::Key> {
    type Key: Copy + Ord + Send;
    const UNREACHED: Self::Key;
    fn load(&self) -> Self::Key;
    fn store(&self, key: Self::Key);
    fn fetch_min(&self, key: Self::Key) -> Self::Key;
    fn into_key(self) -> Self::Key;
    fn level(key: Self::Key) -> u32;
    fn claim(parent: &Self, level: u32) -> Self::Key;
}

macro_rules! slot {
    ($atomic:ident, $key:ty, $level:expr, $claim:expr) => {
        impl Slot for $atomic {
            type Key = $key;
            const UNREACHED: $key = <$key>::MAX;
            #[inline]
            fn load(&self) -> $key {
                $atomic::load(self, Relaxed)
            }
            #[inline]
            fn store(&self, key: $key) {
                $atomic::store(self, key, Relaxed)
            }
            #[inline]
            fn fetch_min(&self, key: $key) -> $key {
                $atomic::fetch_min(self, key, Relaxed)
            }
            fn into_key(self) -> $key {
                self.into_inner()
            }
            fn level(key: $key) -> u32 {
                $level(key)
            }
            #[inline]
            fn claim(parent: &Self, level: u32) -> $key {
                $claim(parent, level)
            }
        }
    };
}

slot!(AtomicU32, u32, |key| key, |_, level| level);
slot!(
    AtomicU64,
    u64,
    |key| (key >> 32) as u32,
    |parent: &AtomicU64, level| (u64::from(level) << 32) | (Slot::load(parent) & 0xFFFF_FFFF)
);

/// A fresh table of `len` unreached slots.
pub(crate) fn table<S: Slot>(len: usize) -> Vec<S> {
    (0..len).map(|_| S::from(S::UNREACHED)).collect()
}

/// Collects a finished table into its keys, in place.
pub(crate) fn into_keys<S: Slot>(slots: Vec<S>) -> Vec<S::Key> {
    slots.into_iter().map(S::into_key).collect()
}

/// The loop over one slot table. Temporal node `tn` owns
/// `slots[tn.flat_index(num_nodes) - base]`. One hop from `(v, t)` follows
/// `v`'s static out-edges at `t`, then its causal edges to the active times
/// in `(t, end)` that the causal cursor has not already handed on.
pub(crate) struct Kernel<'a, S, G> {
    slots: &'a [S],
    graph: &'a G,
    num_nodes: usize,
    base: usize,
    end: u32,
    /// Per node, the earliest time at which it has been expanded (`end`
    /// before any): every later active time has been offered a claim from
    /// that expansion or an earlier one. Relaxed suffices: the cursor
    /// publishes no other data. The slot of the node that set it was final
    /// before its level began, and the deliveries it stands for finish
    /// before the level's join.
    cursor: Vec<AtomicU32>,
}

impl<'a, S: Slot, G: EvolvingGraph> Kernel<'a, S, G> {
    /// A kernel over `slots` whose causal edges stop before snapshot `end`.
    pub(crate) fn new(
        slots: &'a [S],
        graph: &'a G,
        num_nodes: usize,
        base: usize,
        end: TimeIndex,
    ) -> Self {
        Kernel {
            slots,
            graph,
            num_nodes,
            base,
            end: end.0,
            cursor: (0..num_nodes).map(|_| AtomicU32::new(end.0)).collect(),
        }
    }

    fn slot(&self, tn: TemporalNode) -> &S {
        &self.slots[tn.flat_index(self.num_nodes) - self.base]
    }

    /// Runs the level loop from `seeds`. A level at least `threshold` wide
    /// expands across the pool unless it has one thread or `parents` (indexed
    /// like the slots) are recorded; the rest expand serially. Returns the
    /// slots claimed and the last level that claimed any.
    pub(crate) fn run(
        &self,
        mut seeds: Vec<Seed<S::Key>>,
        mut parents: Option<&mut [u64]>,
        threshold: usize,
    ) -> (usize, u32) {
        let pooled = parents.is_none() && rayon::current_num_threads() > 1;
        seeds.sort_by_key(|s| s.0);
        let mut seeds = seeds.into_iter().peekable();
        let (mut reached, mut depth) = (0, 0);
        let Some(&(first, _, _)) = seeds.peek() else {
            return (reached, depth);
        };
        let mut level = S::level(first);
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        loop {
            next.clear();
            while let Some((key, tn, parent)) = seeds.next_if(|s| S::level(s.0) == level) {
                self.claim(tn, key, parent, &mut next, &mut parents);
            }
            if pooled && frontier.len() >= threshold {
                self.expand_wide(&frontier, level, &mut next);
            } else {
                for &tn in &frontier {
                    let from = tn.flat_index(self.num_nodes);
                    let key = S::claim(&self.slots[from - self.base], level);
                    let (next, parents) = (&mut next, &mut parents);
                    self.expand(tn, false, move |nbr| {
                        // The common case, a slot already as good, costs one
                        // plain load; the claim itself is out of line.
                        if key < self.slot(nbr).load() {
                            self.claim(nbr, key, from as u64, next, parents);
                        }
                    });
                }
            }
            if !next.is_empty() {
                (reached, depth) = (reached + next.len(), level);
            }
            std::mem::swap(&mut frontier, &mut next);
            level = match (frontier.is_empty(), seeds.peek()) {
                (false, _) => level + 1,
                (true, Some(&(key, _, _))) => S::level(key),
                (true, None) => return (reached, depth),
            };
        }
    }

    /// Calls `f` on every node one hop from the frontier node `tn = (v, t)`
    /// that could still improve: `v`'s static out-edges at `t`, then `v`'s
    /// active times in `(t, upper)`, earliest first, and lowers `v`'s cursor
    /// to `t` (`wide`: with `fetch_min`).
    ///
    /// `upper` is the cursor `lo` when the node `(v, lo)` that set it holds a
    /// key no larger than `tn`'s: that expansion, or one before it, offered
    /// every active time past `lo` a claim no worse than `tn`'s, so the
    /// suffix would claim nothing and is skipped. Otherwise (a shared
    /// frontier whose setter came from a larger source index at the same
    /// level) `upper` is `end`. Each node's deliveries are thus disjoint
    /// intervals, at most its active count in a single-source search, and
    /// skipped deliveries change no slot and so no parent.
    #[inline]
    fn expand(&self, tn: TemporalNode, wide: bool, mut f: impl FnMut(TemporalNode)) {
        let (v, t) = (tn.node, tn.time);
        self.graph
            .for_each_static_out(v, t, &mut |w| f(TemporalNode::new(w, t)));
        let cursor = &self.cursor[v.index()];
        let lo = if wide {
            cursor.fetch_min(t.0, Relaxed)
        } else {
            let lo = cursor.load(Relaxed);
            if t.0 < lo {
                cursor.store(t.0, Relaxed);
            }
            lo
        };
        let setter = TemporalNode::new(v, TimeIndex(lo));
        let upper = if lo < self.end && self.slot(setter).load() <= self.slot(tn).load() {
            lo
        } else {
            self.end
        };
        if t.0 + 1 < upper {
            let later = TimeIndex(t.0 + 1)..TimeIndex(upper);
            self.graph
                .for_each_active_time_in(v, later, TimeOrder::Ascending, &mut |s| {
                    f(TemporalNode::new(v, s))
                });
        }
    }

    /// Serial claim: Relaxed loads and stores, which compile to plain moves.
    #[inline(never)]
    fn claim(
        &self,
        tn: TemporalNode,
        key: S::Key,
        parent: u64,
        next: &mut Vec<TemporalNode>,
        parents: &mut Option<&mut [u64]>,
    ) {
        let i = tn.flat_index(self.num_nodes) - self.base;
        let prev = self.slots[i].load();
        if key < prev {
            self.slots[i].store(key);
            if prev == S::UNREACHED {
                next.push(tn);
                if let Some(parents) = parents {
                    parents[i] = parent;
                }
            }
        }
    }

    /// Wide expansion: `fetch_min` claims from every chunk into a private
    /// buffer, the buffers spliced in chunk order.
    fn expand_wide(&self, frontier: &[TemporalNode], level: u32, next: &mut Vec<TemporalNode>) {
        let buffers: Vec<Vec<TemporalNode>> = frontier
            .par_iter()
            .fold(Vec::new, |mut acc, &tn| {
                let key = S::claim(self.slot(tn), level);
                self.expand(tn, true, |nbr| {
                    let slot = self.slot(nbr);
                    // One claimant sees the slot unreached; rivals only lower
                    // the key. The plain load skips updates that cannot help.
                    if slot.load() > key && slot.fetch_min(key) == S::UNREACHED {
                        acc.push(nbr);
                    }
                });
                acc
            })
            .collect();
        next.reserve(buffers.iter().map(Vec::len).sum());
        buffers.into_iter().for_each(|buffer| next.extend(buffer));
    }
}

/// One past `graph`'s last snapshot: a full search's causal bound.
fn graph_end<G: EvolvingGraph>(graph: &G) -> TimeIndex {
    TimeIndex::from_index(graph.num_timestamps())
}

/// Validates that `root` is inside the graph and active: Definition 4
/// makes every temporal path from an inactive node empty.
///
/// # Errors
/// [`GraphError::EmptyGraph`] for a graph without snapshots,
/// [`GraphError::NodeOutOfRange`] / [`GraphError::TimeOutOfRange`] for a
/// root outside the graph, and [`GraphError::InactiveRoot`] for an inactive
/// one.
pub fn check_root<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<()> {
    if graph.num_timestamps() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if root.node.index() >= graph.num_nodes() {
        return Err(GraphError::NodeOutOfRange {
            node: root.node,
            num_nodes: graph.num_nodes(),
        });
    }
    if root.time.index() >= graph.num_timestamps() {
        return Err(GraphError::TimeOutOfRange {
            time: root.time,
            num_timestamps: graph.num_timestamps(),
        });
    }
    if !graph.is_active(root.node, root.time) {
        return Err(GraphError::InactiveRoot { root });
    }
    Ok(())
}

/// Algorithm 1 from `root` over forward neighbours: the engine behind the
/// query builder's `Strategy::Serial` (`threshold` = `usize::MAX`, every
/// level serial) and `Strategy::Parallel`. Levels at least `threshold` wide
/// expand across the rayon pool (`0` sends every level there) unless
/// parents are recorded; the answer is the same at every threshold and
/// pool size. A backward search is this search on a
/// [`crate::reverse::ReversedView`].
///
/// # Errors
/// The root-validation errors of [`check_root`].
pub fn distances<G: EvolvingGraph>(
    graph: &G,
    root: TemporalNode,
    with_parents: bool,
    threshold: usize,
) -> Result<DistanceMap> {
    check_root(graph, root)?;
    let (n, t) = (graph.num_nodes(), graph.num_timestamps());
    let slots = table::<AtomicU32>(n * t);
    let mut parents = with_parents.then(|| vec![NO_PARENT; slots.len()]);
    let seeds = vec![(0, root, NO_PARENT)];
    let kernel = Kernel::new(&slots, graph, n, 0, graph_end(graph));
    let (reached, depth) = kernel.run(seeds, parents.as_deref_mut(), threshold);
    let dist = into_keys(slots);
    Ok(DistanceMap::from_table(
        n, t, root, dist, parents, reached, depth,
    ))
}

/// Forward shared-frontier BFS, source `i` seeded with key `i`: the engine
/// behind the query builder's `Strategy::SharedFrontier`. For every temporal
/// node it records the distance to the nearest source and which source that
/// is, ties to the smallest index; duplicate sources are allowed (the
/// earliest occurrence claims). One traversal costs `O(|E| + |V|)` however
/// many sources there are. Distances and attributions are the same at every
/// threshold and pool size.
///
/// # Errors
/// [`GraphError::NoSources`] for no sources, else the root-validation
/// errors of [`check_root`] for any invalid source.
pub fn nearest_sources<G: EvolvingGraph>(
    graph: &G,
    sources: &[TemporalNode],
    threshold: usize,
) -> Result<MultiSourceMap> {
    if sources.is_empty() {
        return Err(GraphError::NoSources);
    }
    for &s in sources {
        check_root(graph, s)?;
    }
    let (n, t) = (graph.num_nodes(), graph.num_timestamps());
    let slots = table::<AtomicU64>(n * t);
    let seeds = (0..).zip(sources).map(|(i, &s)| (i, s, NO_PARENT));
    Kernel::new(&slots, graph, n, 0, graph_end(graph)).run(seeds.collect(), None, threshold);
    let keys = into_keys(slots);
    Ok(MultiSourceMap::from_keys(n, t, sources.to_vec(), &keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyListGraph;
    use crate::examples::paper_figure1;
    use crate::ids::{NodeId, TimeIndex};
    use crate::static_equiv::EquivalentStaticGraph;
    use rayon::ThreadPoolBuilder;

    fn dense_random_graph(seed: u64) -> AdjacencyListGraph {
        let n = 400usize;
        let n_t = 4usize;
        let mut g = AdjacencyListGraph::directed_with_unit_times(n, n_t);
        let mut state = seed;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..6000 {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            let t = (next() % n_t as u64) as u32;
            if u != v {
                g.add_edge(NodeId(u), NodeId(v), TimeIndex(t)).unwrap();
            }
        }
        g
    }

    /// Theorem 1's oracle: BFS on the equivalent static graph, laid out as
    /// a distance map.
    fn oracle(g: &AdjacencyListGraph, root: TemporalNode) -> DistanceMap {
        let reached = EquivalentStaticGraph::build(g)
            .bfs_distances_from(root)
            .unwrap();
        DistanceMap::from_reached(g.num_nodes(), g.num_timestamps(), root, &reached)
    }

    /// The serial and pooled shared-frontier engines against the
    /// per-source minimum of the static oracle, ties to the smallest source
    /// index.
    fn assert_shared_matches_oracle(g: &AdjacencyListGraph, sources: &[TemporalNode]) {
        let per_source: Vec<DistanceMap> = sources.iter().map(|&s| oracle(g, s)).collect();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let maps = [
            nearest_sources(g, sources, usize::MAX).unwrap(),
            pool.install(|| nearest_sources(g, sources, 1)).unwrap(),
        ];
        for tn in g.active_nodes() {
            let expected = per_source
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.distance(tn).map(|d| (d, i)))
                .min();
            for map in &maps {
                assert_eq!(map.distance(tn), expected.map(|(d, _)| d), "{tn:?}");
                assert_eq!(
                    map.nearest_source_index(tn),
                    expected.map(|(_, i)| i),
                    "attribution at {tn:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_paper_example() {
        let g = paper_figure1();
        for &root in &g.active_nodes() {
            let expected = oracle(&g, root);
            let pooled = distances(&g, root, false, 0).unwrap();
            assert_eq!(expected.as_flat_slice(), pooled.as_flat_slice());
            let serial = distances(&g, root, false, usize::MAX).unwrap();
            assert_eq!(expected.as_flat_slice(), serial.as_flat_slice());
        }
    }

    #[test]
    fn invalid_roots_are_rejected_before_any_traversal() {
        let g = paper_figure1();
        let inactive = TemporalNode::from_raw(2, 0);
        let cases = [
            (inactive, GraphError::InactiveRoot { root: inactive }),
            (
                TemporalNode::from_raw(9, 0),
                GraphError::NodeOutOfRange {
                    node: NodeId(9),
                    num_nodes: 3,
                },
            ),
            (
                TemporalNode::from_raw(0, 9),
                GraphError::TimeOutOfRange {
                    time: TimeIndex(9),
                    num_timestamps: 3,
                },
            ),
        ];
        for (root, expected) in cases {
            for threshold in [0, usize::MAX] {
                let err = distances(&g, root, false, threshold).unwrap_err();
                assert_eq!(err, expected, "{root:?}");
                assert_eq!(err, nearest_sources(&g, &[root], threshold).unwrap_err());
            }
        }
        let empty = AdjacencyListGraph::directed(3, Vec::new()).unwrap();
        assert_eq!(
            check_root(&empty, TemporalNode::from_raw(0, 0)),
            Err(GraphError::EmptyGraph)
        );
    }

    #[test]
    fn parallel_matches_serial_on_a_dense_random_graph() {
        let g = dense_random_graph(0x2545F4914F6CDD1D);
        let root = g.active_nodes()[0];
        let expected = oracle(&g, root);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        // Narrower than the graph's widest levels (the default is not), so
        // some levels expand wide.
        let pooled = pool.install(|| distances(&g, root, false, 256)).unwrap();
        assert_eq!(expected.num_reached(), pooled.num_reached());
        assert_eq!(expected.as_flat_slice(), pooled.as_flat_slice());
    }

    #[test]
    fn threshold_extremes_cannot_change_the_answer() {
        // 0 = every level wide (even single-node frontiers), MAX = every
        // level serial; both must equal the oracle, counters included.
        let g = dense_random_graph(0xD1CE);
        let root = g.active_nodes()[0];
        let expected = oracle(&g, root);
        for threads in [1, 2] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for threshold in [0, 1, 7, usize::MAX] {
                let pooled = pool
                    .install(|| distances(&g, root, false, threshold))
                    .unwrap();
                let case = format!("threshold {threshold}, {threads} threads");
                assert_eq!(expected.as_flat_slice(), pooled.as_flat_slice(), "{case}");
                assert_eq!(expected.num_reached(), pooled.num_reached(), "{case}");
                assert_eq!(expected.max_distance(), pooled.max_distance(), "{case}");
            }
        }
    }

    #[test]
    fn kernel_counters_match_the_oracle_histogram() {
        // `num_reached` and `max_distance` come from the kernel's own
        // counts, not a table scan: a double-counted or dropped claim
        // would show here.
        let g = dense_random_graph(0xBEEF);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        for &root in g.active_nodes().iter().step_by(101) {
            let expected = oracle(&g, root);
            for map in [
                distances(&g, root, false, usize::MAX).unwrap(),
                pool.install(|| distances(&g, root, false, 1)).unwrap(),
            ] {
                assert_eq!(expected.num_reached(), map.num_reached(), "{root:?}");
                assert_eq!(expected.distance_histogram(), map.distance_histogram());
            }
        }
    }

    #[test]
    fn shared_frontier_twins_agree_on_paper_example() {
        let g = paper_figure1();
        assert_shared_matches_oracle(&g, &g.active_nodes());
    }

    #[test]
    fn shared_frontier_twins_agree_on_a_dense_random_graph() {
        let g = dense_random_graph(0x9E3779B97F4A7C15);
        let sources: Vec<TemporalNode> = g.active_nodes().into_iter().step_by(97).collect();
        assert_shared_matches_oracle(&g, &sources);
    }

    #[test]
    fn duplicate_sources_are_seeded_once() {
        // A duplicated source claims its slot once, with the smallest
        // source index, and does not inflate num_reached.
        let g = paper_figure1();
        let s = g.active_nodes()[0];
        let pooled = nearest_sources(&g, &[s, s], 1).unwrap();
        assert_eq!(pooled.num_reached(), oracle(&g, s).num_reached());
        assert_eq!(pooled.nearest_source_index(s), Some(0));
        assert_shared_matches_oracle(&g, &[s, s]);
    }

    #[test]
    fn par_shared_frontier_rejects_bad_inputs() {
        let g = paper_figure1();
        assert!(matches!(
            nearest_sources(&g, &[], 1).unwrap_err(),
            GraphError::NoSources
        ));
        assert!(matches!(
            nearest_sources(&g, &[TemporalNode::from_raw(2, 0)], 1).unwrap_err(),
            GraphError::InactiveRoot { .. }
        ));
    }

    #[test]
    fn seeds_enter_at_their_own_levels_and_claim_each_slot_once() {
        // Seeds at levels 0 and 2 on the paper example: the level-2 seed on
        // an already-claimed slot is a no-op, a level-2 seed on a slot the
        // traversal reaches only later wins it at level 2 with its parent.
        // Threshold 0 on an 8-thread pool: recorded parents must still keep
        // every level on the serial expansion, the only one writing them.
        let g = paper_figure1();
        let slots = table::<AtomicU32>(g.num_nodes() * g.num_timestamps());
        let mut parents = vec![NO_PARENT; slots.len()];
        let root = TemporalNode::from_raw(0, 1);
        let claimed = TemporalNode::from_raw(2, 1);
        let seeds = vec![
            (2, claimed, 7),
            (0, root, NO_PARENT),
            (2, TemporalNode::from_raw(1, 2), 9),
        ];
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        pool.install(|| {
            Kernel::new(&slots, &g, g.num_nodes(), 0, graph_end(&g)).run(
                seeds,
                Some(&mut parents),
                0,
            )
        });
        let dist = into_keys(slots);
        assert_eq!(dist[claimed.flat_index(3)], 1);
        assert_eq!(parents[claimed.flat_index(3)], root.flat_index(3) as u64);
        assert_eq!(dist[TemporalNode::from_raw(1, 2).flat_index(3)], 2);
        assert_eq!(parents[TemporalNode::from_raw(1, 2).flat_index(3)], 9);
        assert_eq!(dist.iter().filter(|&&d| d != u32::MAX).count(), 4);
    }
}
