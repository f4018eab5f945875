//! [`DistanceMap`]: the result of a breadth-first traversal.
//!
//! Algorithm 1 returns `reached`, a dictionary from temporal nodes to their
//! distances from the root. Because this crate uses dense node and snapshot
//! indices, the dictionary is stored as a flat array indexed by
//! `time * num_nodes + node`, with `u32::MAX` marking unreached temporal
//! nodes. An optional parallel array of parent pointers lets callers recover
//! an explicit shortest temporal path (the BFS tree of Section II-C).

use crate::ids::{NodeId, TemporalNode, TimeIndex};

/// Sentinel distance for unreached temporal nodes.
pub const UNREACHED: u32 = u32::MAX;

/// Sentinel parent for the root / unreached nodes.
const NO_PARENT: u64 = u64::MAX;

/// Distances (and optionally BFS-tree parents) from a single root temporal
/// node, as produced by [`crate::kernel::distances`].
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DistanceMap {
    num_nodes: usize,
    num_timestamps: usize,
    root: TemporalNode,
    dist: Vec<u32>,
    parent: Option<Vec<u64>>,
    reached_count: usize,
    max_distance: u32,
}

impl DistanceMap {
    #[inline]
    fn flat(&self, tn: TemporalNode) -> usize {
        tn.flat_index(self.num_nodes)
    }

    /// Wraps a finished table: `dist` (and `parent`, if recorded) laid out
    /// time-major, the root at distance 0, with its reached count and
    /// largest distance.
    pub(crate) fn from_table(
        num_nodes: usize,
        num_timestamps: usize,
        root: TemporalNode,
        dist: Vec<u32>,
        parent: Option<Vec<u64>>,
        reached_count: usize,
        max_distance: u32,
    ) -> Self {
        DistanceMap {
            num_nodes,
            num_timestamps,
            root,
            dist,
            parent,
            reached_count,
            max_distance,
        }
    }

    /// Builds a distance map from an explicit list of `(temporal node,
    /// distance)` pairs. The root must be included with distance 0 (it is
    /// added if missing). Intended for alternative BFS engines — notably the
    /// algebraic formulation of Algorithm 2 in `egraph-matrix` — so their
    /// results can be compared against Algorithm 1 with ordinary equality.
    pub fn from_reached(
        num_nodes: usize,
        num_timestamps: usize,
        root: TemporalNode,
        reached: &[(TemporalNode, u32)],
    ) -> Self {
        let entries = reached.iter().map(|&(tn, d)| (tn, d, None));
        DistanceMap::from_entries(num_nodes, num_timestamps, root, false, entries)
    }

    /// Builds a distance map *with parent pointers* from explicit
    /// `(temporal node, distance, parent)` entries. The root is implied at
    /// distance 0; entries equal to the root are skipped. Used by query
    /// layers that run a traversal on a view (time window, reversed time)
    /// and must express the result — including the BFS tree — in the
    /// coordinates of the underlying graph.
    pub fn from_reached_with_parents(
        num_nodes: usize,
        num_timestamps: usize,
        root: TemporalNode,
        reached: &[(TemporalNode, u32, Option<TemporalNode>)],
    ) -> Self {
        let entries = reached.iter().copied();
        DistanceMap::from_entries(num_nodes, num_timestamps, root, true, entries)
    }

    /// The root at distance 0 plus every non-root entry, last one winning.
    fn from_entries(
        num_nodes: usize,
        num_timestamps: usize,
        root: TemporalNode,
        with_parents: bool,
        entries: impl Iterator<Item = (TemporalNode, u32, Option<TemporalNode>)>,
    ) -> Self {
        let mut dist = vec![UNREACHED; num_nodes * num_timestamps];
        let mut parent = with_parents.then(|| vec![NO_PARENT; dist.len()]);
        dist[root.flat_index(num_nodes)] = 0;
        let (mut reached, mut depth) = (1, 0);
        for (tn, d, p) in entries.filter(|&(tn, _, _)| tn != root) {
            let i = tn.flat_index(num_nodes);
            reached += usize::from(dist[i] == UNREACHED);
            (dist[i], depth) = (d, depth.max(d));
            if let (Some(parents), Some(p)) = (parent.as_mut(), p) {
                parents[i] = p.flat_index(num_nodes) as u64;
            }
        }
        let (n, t) = (num_nodes, num_timestamps);
        DistanceMap::from_table(n, t, root, dist, parent, reached, depth)
    }

    /// The root temporal node from which the traversal started.
    pub fn root(&self) -> TemporalNode {
        self.root
    }

    /// Size of the node universe of the traversed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of snapshots of the traversed graph.
    pub fn num_timestamps(&self) -> usize {
        self.num_timestamps
    }

    /// Distance from the root to `tn`, or `None` if `tn` was not reached.
    #[inline]
    pub fn distance(&self, tn: TemporalNode) -> Option<u32> {
        let d = self.dist[self.flat(tn)];
        if d == UNREACHED {
            None
        } else {
            Some(d)
        }
    }

    /// Whether `tn` is reachable from the root (Definition 7).
    #[inline]
    pub fn is_reached(&self, tn: TemporalNode) -> bool {
        self.dist[self.flat(tn)] != UNREACHED
    }

    /// Number of reached temporal nodes, including the root.
    pub fn num_reached(&self) -> usize {
        self.reached_count
    }

    /// The largest finite distance in the map (the BFS depth).
    pub fn max_distance(&self) -> u32 {
        self.max_distance
    }

    /// All reached temporal nodes with their distances, in flat-index order.
    pub fn reached(&self) -> Vec<(TemporalNode, u32)> {
        let mut reached = Vec::with_capacity(self.reached_count);
        self.for_each_reached(|tn, d, _| reached.push((tn, d)));
        reached
    }

    /// Calls `f(tn, distance, parent)` for every reached temporal node in
    /// flat-index (time-major) order, without allocating. `parent` is what
    /// [`DistanceMap::parent`] answers for `tn`, read in the same pass.
    pub fn for_each_reached(&self, mut f: impl FnMut(TemporalNode, u32, Option<TemporalNode>)) {
        if self.num_nodes == 0 {
            return;
        }
        for (t, row) in self.dist.chunks_exact(self.num_nodes).enumerate() {
            for (v, &d) in row.iter().enumerate() {
                if d == UNREACHED {
                    continue;
                }
                let tn = TemporalNode::from_raw(v as u32, t as u32);
                let parent = match &self.parent {
                    Some(parents) if tn != self.root => {
                        let p = parents[t * self.num_nodes + v];
                        (p != NO_PARENT)
                            .then(|| TemporalNode::from_flat_index(p as usize, self.num_nodes))
                    }
                    _ => None,
                };
                f(tn, d, parent);
            }
        }
    }

    /// The reached temporal nodes at exactly distance `k` (one BFS layer).
    pub fn layer(&self, k: u32) -> Vec<TemporalNode> {
        self.dist
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == k)
            .map(|(i, _)| TemporalNode::from_flat_index(i, self.num_nodes))
            .collect()
    }

    /// The distinct *node* identifiers reached at any time — the influence
    /// set `T(a, t)` of Section V is exactly this set for a citation graph.
    pub fn reached_node_ids(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes];
        for (i, &d) in self.dist.iter().enumerate() {
            if d != UNREACHED {
                seen[i % self.num_nodes] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(v, _)| NodeId::from_index(v))
            .collect()
    }

    /// The earliest snapshot at which each reached node is reached, keyed by
    /// node. Unreached nodes are absent.
    pub fn earliest_reach_times(&self) -> Vec<(NodeId, TimeIndex)> {
        let mut earliest: Vec<Option<TimeIndex>> = vec![None; self.num_nodes];
        for (i, &d) in self.dist.iter().enumerate() {
            if d == UNREACHED {
                continue;
            }
            let tn = TemporalNode::from_flat_index(i, self.num_nodes);
            let slot = &mut earliest[tn.node.index()];
            if slot.map(|t| tn.time < t).unwrap_or(true) {
                *slot = Some(tn.time);
            }
        }
        earliest
            .iter()
            .enumerate()
            .filter_map(|(v, t)| t.map(|t| (NodeId::from_index(v), t)))
            .collect()
    }

    /// Whether BFS-tree parents were recorded for this map. Distinguishes
    /// "no parents recorded" from "reached with no parent (the root)", which
    /// [`DistanceMap::parent`] alone cannot.
    pub fn has_parents(&self) -> bool {
        self.parent.is_some()
    }

    /// The raw parent table (flat indices, `u64::MAX` = none), if recorded.
    pub(crate) fn parent_table(&self) -> Option<&[u64]> {
        self.parent.as_deref()
    }

    /// BFS-tree parent of `tn`, if parents were recorded and `tn` is reached
    /// and is not the root.
    pub fn parent(&self, tn: TemporalNode) -> Option<TemporalNode> {
        let parents = self.parent.as_ref()?;
        if !self.is_reached(tn) || tn == self.root {
            return None;
        }
        let p = parents[self.flat(tn)];
        if p == NO_PARENT {
            None
        } else {
            Some(TemporalNode::from_flat_index(p as usize, self.num_nodes))
        }
    }

    /// Reconstructs a shortest temporal path from the root to `tn` (inclusive
    /// of both end points) using the recorded parents. Returns `None` if `tn`
    /// is unreached or parents were not recorded.
    pub fn path_to(&self, tn: TemporalNode) -> Option<Vec<TemporalNode>> {
        self.parent.as_ref()?;
        if !self.is_reached(tn) {
            return None;
        }
        let mut path = vec![tn];
        let mut cur = tn;
        while cur != self.root {
            cur = self.parent(cur)?;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Histogram of distances: `hist[k]` = number of temporal nodes at
    /// distance `k`. Index 0 counts the root.
    pub fn distance_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_distance as usize + 1];
        for &d in &self.dist {
            if d != UNREACHED {
                hist[d as usize] += 1;
            }
        }
        hist
    }

    /// Raw flat distance slice (time-major), mainly for the matrix crate's
    /// equivalence tests.
    pub fn as_flat_slice(&self) -> &[u32] {
        &self.dist
    }

    /// Re-expresses this map in the (grown) dimensions of an appended-to
    /// graph: every reached entry — and its recorded parent, if any — keeps
    /// its coordinates, and the new rows/columns start unreached.
    ///
    /// This is the *re-dimension* repair of the cache-invalidation matrix:
    /// a result whose window excludes appended snapshots is append-invariant
    /// modulo its dimensions, so repairing it is a scan of the reached set
    /// with **zero graph work**.
    ///
    /// # Panics
    /// Debug-asserts that neither dimension shrinks.
    pub fn redimensioned(&self, num_nodes: usize, num_timestamps: usize) -> Self {
        debug_assert!(num_nodes >= self.num_nodes && num_timestamps >= self.num_timestamps);
        if self.has_parents() {
            let mut entries = Vec::with_capacity(self.reached_count);
            self.for_each_reached(|tn, d, parent| entries.push((tn, d, parent)));
            DistanceMap::from_reached_with_parents(num_nodes, num_timestamps, self.root, &entries)
        } else {
            DistanceMap::from_reached(num_nodes, num_timestamps, self.root, &self.reached())
        }
    }
}

/// Sentinel source index for unreached temporal nodes.
const NO_SOURCE: u32 = u32::MAX;

/// The result of a *shared-frontier* multi-source traversal
/// ([`crate::kernel::nearest_sources`]): for every
/// reached temporal node, the distance to its *nearest* source and the
/// identity of that source.
///
/// Distances are `min_s d_s(v, t)` over the per-source distances; ties are
/// broken deterministically toward the smallest source index, so the serial
/// and parallel engines (and any oracle built from per-source maps) agree
/// exactly.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MultiSourceMap {
    num_nodes: usize,
    num_timestamps: usize,
    sources: Vec<TemporalNode>,
    dist: Vec<u32>,
    source_idx: Vec<u32>,
    reached_count: usize,
    max_distance: u32,
}

impl MultiSourceMap {
    /// Builds a map from the packed `(distance << 32) | source_index` keys the
    /// shared-frontier engines maintain (`u64::MAX` = unreached).
    pub(crate) fn from_keys(
        num_nodes: usize,
        num_timestamps: usize,
        sources: Vec<TemporalNode>,
        keys: &[u64],
    ) -> Self {
        debug_assert_eq!(keys.len(), num_nodes * num_timestamps);
        // An unreached key (`u64::MAX`) splits into UNREACHED / NO_SOURCE.
        let dist: Vec<u32> = keys.iter().map(|&key| (key >> 32) as u32).collect();
        let reached = dist.iter().copied().filter(|&d| d != UNREACHED);
        MultiSourceMap {
            num_nodes,
            num_timestamps,
            sources,
            reached_count: reached.clone().count(),
            max_distance: reached.max().unwrap_or(0),
            source_idx: keys.iter().map(|&key| key as u32).collect(),
            dist,
        }
    }

    /// Builds a map from explicit `(temporal node, distance, source index)`
    /// entries — the constructor query layers use to re-express a
    /// shared-frontier result computed on a view (time window, reversed time)
    /// in the coordinates of the underlying graph. Entries must include the
    /// sources themselves at distance 0.
    ///
    /// # Panics
    /// Panics (in debug builds) if an entry's source index is out of range.
    pub fn from_entries(
        num_nodes: usize,
        num_timestamps: usize,
        sources: Vec<TemporalNode>,
        entries: &[(TemporalNode, u32, usize)],
    ) -> Self {
        // Last entry wins on duplicates; the counters come from the final
        // keys, so no stale entry can leave a max_distance no slot has.
        let mut keys = vec![u64::MAX; num_nodes * num_timestamps];
        for &(tn, d, s) in entries {
            debug_assert!(s < sources.len(), "source index {s} out of range");
            keys[tn.flat_index(num_nodes)] = match d {
                UNREACHED => u64::MAX,
                d => (u64::from(d) << 32) | s as u64,
            };
        }
        MultiSourceMap::from_keys(num_nodes, num_timestamps, sources, &keys)
    }

    #[inline]
    fn flat(&self, tn: TemporalNode) -> usize {
        tn.flat_index(self.num_nodes)
    }

    /// The sources the shared frontier was seeded with, in seed order.
    pub fn sources(&self) -> &[TemporalNode] {
        &self.sources
    }

    /// Number of sources (duplicates included).
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Size of the node universe of the traversed graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of snapshots of the traversed graph.
    pub fn num_timestamps(&self) -> usize {
        self.num_timestamps
    }

    /// Distance from the nearest source to `tn`, or `None` if unreached.
    #[inline]
    pub fn distance(&self, tn: TemporalNode) -> Option<u32> {
        let d = self.dist[self.flat(tn)];
        if d == UNREACHED {
            None
        } else {
            Some(d)
        }
    }

    /// Whether any source reaches `tn`.
    #[inline]
    pub fn is_reached(&self, tn: TemporalNode) -> bool {
        self.dist[self.flat(tn)] != UNREACHED
    }

    /// Index (into [`MultiSourceMap::sources`]) of the nearest source of
    /// `tn`: the smallest index among the sources at minimum distance.
    #[inline]
    pub fn nearest_source_index(&self, tn: TemporalNode) -> Option<usize> {
        let s = self.source_idx[self.flat(tn)];
        if s == NO_SOURCE {
            None
        } else {
            Some(s as usize)
        }
    }

    /// The nearest source of `tn` together with the distance from it.
    pub fn nearest_source(&self, tn: TemporalNode) -> Option<(TemporalNode, u32)> {
        let i = self.flat(tn);
        let s = self.source_idx[i];
        if s == NO_SOURCE {
            None
        } else {
            Some((self.sources[s as usize], self.dist[i]))
        }
    }

    /// Number of reached temporal nodes, sources included.
    pub fn num_reached(&self) -> usize {
        self.reached_count
    }

    /// The largest nearest-source distance — the eccentricity of the source
    /// *set* (not the maximum per-source eccentricity, which a shared
    /// frontier cannot observe).
    pub fn max_distance(&self) -> u32 {
        self.max_distance
    }

    /// All reached temporal nodes with their nearest-source distances, in
    /// flat-index (time-major) order.
    pub fn reached(&self) -> Vec<(TemporalNode, u32)> {
        let mut reached = Vec::with_capacity(self.reached_count);
        self.for_each_reached(|tn, d, _| reached.push((tn, d)));
        reached
    }

    /// All reached temporal nodes with their nearest-source distance and
    /// nearest-source index, in flat-index order.
    pub fn reached_with_sources(&self) -> Vec<(TemporalNode, u32, usize)> {
        let mut reached = Vec::with_capacity(self.reached_count);
        self.for_each_reached(|tn, d, s| reached.push((tn, d, s)));
        reached
    }

    /// Calls `f(tn, distance, source_index)` for every reached temporal
    /// node in flat-index (time-major) order, without allocating — the walk
    /// behind [`MultiSourceMap::reached_with_sources`].
    pub fn for_each_reached(&self, mut f: impl FnMut(TemporalNode, u32, usize)) {
        if self.num_nodes == 0 {
            return;
        }
        let rows = self
            .dist
            .chunks_exact(self.num_nodes)
            .zip(self.source_idx.chunks_exact(self.num_nodes));
        for (t, (dist_row, source_row)) in rows.enumerate() {
            for (v, (&d, &s)) in dist_row.iter().zip(source_row).enumerate() {
                if d != UNREACHED {
                    f(TemporalNode::from_raw(v as u32, t as u32), d, s as usize);
                }
            }
        }
    }

    /// The distinct node identifiers reached at any snapshot by any source.
    pub fn reached_node_ids(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes];
        for (i, &d) in self.dist.iter().enumerate() {
            if d != UNREACHED {
                seen[i % self.num_nodes] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(v, _)| NodeId::from_index(v))
            .collect()
    }

    /// Raw flat distance slice (time-major), `u32::MAX` = unreached.
    pub fn as_flat_slice(&self) -> &[u32] {
        &self.dist
    }

    /// Re-expresses this map in the (grown) dimensions of an appended-to
    /// graph; the shared-frontier twin of [`DistanceMap::redimensioned`]
    /// (reached entries and their source attributions keep their
    /// coordinates, new rows/columns start unreached; zero graph work).
    ///
    /// # Panics
    /// Debug-asserts that neither dimension shrinks.
    pub fn redimensioned(&self, num_nodes: usize, num_timestamps: usize) -> Self {
        debug_assert!(num_nodes >= self.num_nodes && num_timestamps >= self.num_timestamps);
        MultiSourceMap::from_entries(
            num_nodes,
            num_timestamps,
            self.sources.clone(),
            &self.reached_with_sources(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_map() -> DistanceMap {
        // 3 nodes, 2 timestamps.
        let root = TemporalNode::from_raw(0, 0);
        let a = TemporalNode::from_raw(1, 0);
        DistanceMap::from_reached_with_parents(
            3,
            2,
            root,
            &[
                (a, 1, Some(root)),
                (TemporalNode::from_raw(1, 1), 2, Some(a)),
            ],
        )
    }

    #[test]
    fn root_has_distance_zero() {
        let m = toy_map();
        assert_eq!(m.distance(TemporalNode::from_raw(0, 0)), Some(0));
        assert_eq!(m.root(), TemporalNode::from_raw(0, 0));
    }

    #[test]
    fn counters_track_reached_nodes_and_depth() {
        let m = toy_map();
        assert_eq!(m.num_reached(), 3);
        assert_eq!(m.max_distance(), 2);
        assert_eq!(m.distance_histogram(), vec![1, 1, 1]);
    }

    #[test]
    fn layers_partition_reached_nodes() {
        let m = toy_map();
        assert_eq!(m.layer(0), vec![TemporalNode::from_raw(0, 0)]);
        assert_eq!(m.layer(1), vec![TemporalNode::from_raw(1, 0)]);
        assert_eq!(m.layer(2), vec![TemporalNode::from_raw(1, 1)]);
        assert!(m.layer(3).is_empty());
    }

    #[test]
    fn reached_node_ids_deduplicate_across_time() {
        let m = toy_map();
        assert_eq!(m.reached_node_ids(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn earliest_reach_times_pick_minimum_snapshot() {
        let m = toy_map();
        let times = m.earliest_reach_times();
        assert!(times.contains(&(NodeId(1), TimeIndex(0))));
        assert!(times.contains(&(NodeId(0), TimeIndex(0))));
        assert_eq!(times.len(), 2);
    }

    #[test]
    fn path_reconstruction_follows_parents() {
        let m = toy_map();
        let path = m.path_to(TemporalNode::from_raw(1, 1)).unwrap();
        assert_eq!(
            path,
            vec![
                TemporalNode::from_raw(0, 0),
                TemporalNode::from_raw(1, 0),
                TemporalNode::from_raw(1, 1),
            ]
        );
        assert_eq!(m.path_to(TemporalNode::from_raw(2, 1)), None);
    }

    #[test]
    fn walks_agree_with_the_probing_accessors() {
        let m = toy_map();
        let mut walked = Vec::new();
        m.for_each_reached(|tn, d, parent| walked.push((tn, d, parent)));
        let probed: Vec<_> = m
            .reached()
            .into_iter()
            .map(|(tn, d)| (tn, d, m.parent(tn)))
            .collect();
        assert_eq!(walked, probed);
        assert_eq!(walked.len(), m.num_reached());
        assert!(walked.iter().skip(1).all(|&(_, _, p)| p.is_some()));

        let bare = DistanceMap::from_reached(3, 2, m.root(), &m.reached());
        bare.for_each_reached(|_, _, parent| assert_eq!(parent, None));
    }

    #[test]
    fn parent_of_root_is_none() {
        let m = toy_map();
        assert_eq!(m.parent(TemporalNode::from_raw(0, 0)), None);
    }

    #[test]
    fn multi_source_map_constructors_agree() {
        // 3 nodes × 2 snapshots; sources n0@t0 (idx 0) and n2@t0 (idx 1).
        let sources = vec![TemporalNode::from_raw(0, 0), TemporalNode::from_raw(2, 0)];
        let mut keys = vec![u64::MAX; 6];
        keys[TemporalNode::from_raw(0, 0).flat_index(3)] = 0;
        keys[TemporalNode::from_raw(2, 0).flat_index(3)] = 1;
        keys[TemporalNode::from_raw(1, 0).flat_index(3)] = 1u64 << 32; // d=1 from src 0
        keys[TemporalNode::from_raw(1, 1).flat_index(3)] = (2u64 << 32) | 1; // d=2 from src 1
        let from_keys = MultiSourceMap::from_keys(3, 2, sources.clone(), &keys);
        let from_entries =
            MultiSourceMap::from_entries(3, 2, sources, &from_keys.reached_with_sources());

        for m in [&from_keys, &from_entries] {
            assert_eq!(m.num_reached(), 4);
            assert_eq!(m.max_distance(), 2);
            assert_eq!(m.distance(TemporalNode::from_raw(1, 0)), Some(1));
            assert_eq!(
                m.nearest_source_index(TemporalNode::from_raw(1, 0)),
                Some(0)
            );
            assert_eq!(
                m.nearest_source(TemporalNode::from_raw(1, 1)),
                Some((TemporalNode::from_raw(2, 0), 2))
            );
            assert_eq!(m.distance(TemporalNode::from_raw(0, 1)), None);
            assert_eq!(m.nearest_source(TemporalNode::from_raw(0, 1)), None);
            assert_eq!(m.reached_node_ids(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        }
        assert_eq!(from_keys.as_flat_slice(), from_entries.as_flat_slice());
    }

    #[test]
    fn from_entries_duplicate_entries_keep_counters_consistent() {
        // Last entry wins the slot; counters must describe the final arrays,
        // not the overwritten ones.
        let sources = vec![TemporalNode::from_raw(0, 0)];
        let tn = TemporalNode::from_raw(1, 0);
        let m = MultiSourceMap::from_entries(
            2,
            1,
            sources,
            &[(TemporalNode::from_raw(0, 0), 0, 0), (tn, 5, 0), (tn, 2, 0)],
        );
        assert_eq!(m.distance(tn), Some(2));
        assert_eq!(m.max_distance(), 2);
        assert_eq!(m.num_reached(), 2);
    }
}
