//! [`DistanceMap`]: the result of a breadth-first traversal.
//!
//! Algorithm 1 returns `reached`, a dictionary from temporal nodes to their
//! distances from the root. Because this crate uses dense node and snapshot
//! indices, the dictionary is stored as a flat array indexed by
//! `time * num_nodes + node`, with `u32::MAX` marking unreached temporal
//! nodes. An optional parallel array of parent pointers lets callers recover
//! an explicit shortest temporal path (the BFS tree of Section II-C).
//!
//! Every map also carries its *row span*: the half-open range of snapshots
//! outside which no slot is reached. Causal edges only go forward in time, so
//! a forward search never reaches a row before its earliest source, and a
//! backward one never reaches a row after its root. The walks over the
//! reached set ([`DistanceMap::for_each_reached`] and everything built on it,
//! re-dimensioning included) visit only the span's rows, so they cost what
//! the answer occupies rather than the whole history.

use std::ops::Range;

use crate::ids::{NodeId, TemporalNode, TimeIndex};

/// Sentinel distance for unreached temporal nodes.
pub const UNREACHED: u32 = u32::MAX;

/// Sentinel parent for the root / unreached nodes.
const NO_PARENT: u64 = u64::MAX;

/// The rows `span` of a time-major table `num_nodes` wide, each with its
/// snapshot index.
pub(crate) fn span_rows<T>(
    table: &[T],
    num_nodes: usize,
    span: Range<usize>,
) -> impl Iterator<Item = (usize, &[T])> {
    let rows = &table[span.start * num_nodes..span.end * num_nodes];
    span.zip(rows.chunks_exact(num_nodes.max(1)))
}

/// Widens `span` to cover row `t`.
pub(crate) fn cover_row(span: &mut Range<usize>, t: usize) {
    *span = if Range::is_empty(span) {
        t..t + 1
    } else {
        span.start.min(t)..span.end.max(t + 1)
    };
}

/// Lays a time-major table out `new` nodes wide (from `old`) over `rows`
/// rows, with room for `spare_rows` more: the `span` rows are copied, every
/// other slot holds `fill`. Each slot is written once, and only the span's
/// rows are read.
pub(crate) fn relayout<T: Copy>(
    table: &[T],
    old: usize,
    new: usize,
    rows: usize,
    span: Range<usize>,
    spare_rows: usize,
    fill: T,
) -> Vec<T> {
    let mut out = Vec::with_capacity((rows + spare_rows) * new);
    out.resize(span.start * new, fill);
    for (_, row) in span_rows(table, old, span) {
        out.extend_from_slice(row);
        out.resize(out.len() + new - old, fill);
    }
    out.resize(rows * new, fill);
    out
}

/// Where a view's row lands in the graph under it: rows `0..len` of a view
/// are rows `start..start + len` of the graph, in reverse order when the
/// view is `flipped` (time-reversed).
#[derive(Clone, Copy)]
struct RowPlacement {
    start: usize,
    len: usize,
    flipped: bool,
}

impl RowPlacement {
    fn row(&self, r: usize) -> usize {
        self.start + if self.flipped { self.len - 1 - r } else { r }
    }

    /// The graph rows holding the view rows `span`.
    fn span(&self, span: Range<usize>) -> Range<usize> {
        match span.is_empty() {
            true => self.start..self.start,
            false => {
                self.row(span.start).min(self.row(span.end - 1))
                    ..self.row(span.start).max(self.row(span.end - 1)) + 1
            }
        }
    }

    /// Whether every row stays where it is.
    fn is_identity(&self) -> bool {
        self.start == 0 && !self.flipped
    }

    /// Moves the `span` rows of a view's time-major table `n` nodes wide to
    /// their graph rows, in place, in a table `rows` high; every other slot
    /// holds `fill`, as it did outside the span. Only the span's rows are
    /// read.
    fn place<T: Copy>(
        &self,
        table: &mut Vec<T>,
        n: usize,
        rows: usize,
        span: Range<usize>,
        fill: T,
    ) {
        let (a, b) = (span.start, span.end);
        table.resize(rows * n, fill);
        if self.is_identity() {
            return;
        }
        if self.flipped {
            for i in 0..(b - a) / 2 {
                let (head, tail) = table.split_at_mut((b - 1 - i) * n);
                head[(a + i) * n..(a + i + 1) * n].swap_with_slice(&mut tail[..n]);
            }
        }
        let placed = self.span(span.clone());
        table.copy_within(a * n..b * n, placed.start * n);
        for r in span.filter(|r| !placed.contains(r)) {
            table[r * n..(r + 1) * n].fill(fill);
        }
    }
}

/// Rewrites the parent flat indices stored in the `span` rows of a table
/// `new` nodes wide from a row stride of `old` to `new`: a flat index bakes
/// the stride in, so a relaid-out parent table must be remapped, not just
/// copied.
pub(crate) fn remap_parents(parents: &mut [u64], old: usize, new: usize, span: Range<usize>) {
    if old == new {
        return;
    }
    let slots = &mut parents[span.start * new..span.end * new];
    for p in slots.iter_mut().filter(|p| **p != NO_PARENT) {
        *p = TemporalNode::from_flat_index(*p as usize, old).flat_index(new) as u64;
    }
}

/// Distances (and optionally BFS-tree parents) from a single root temporal
/// node, as produced by [`crate::kernel::distances`].
///
/// `rows` is the map's row span (see the module docs): every reached slot
/// lies in a snapshot inside it.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DistanceMap {
    pub(crate) num_nodes: usize,
    pub(crate) num_timestamps: usize,
    pub(crate) root: TemporalNode,
    pub(crate) dist: Vec<u32>,
    pub(crate) parent: Option<Vec<u64>>,
    pub(crate) reached_count: usize,
    pub(crate) max_distance: u32,
    pub(crate) rows: Range<usize>,
}

impl DistanceMap {
    #[inline]
    fn flat(&self, tn: TemporalNode) -> usize {
        tn.flat_index(self.num_nodes)
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

    /// The root at distance 0 plus every non-root entry, last one winning;
    /// the row span is exactly the entries' snapshots.
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
        let (mut reached, mut depth, mut rows) = (1, 0, 0..0);
        cover_row(&mut rows, root.time.index());
        for (tn, d, p) in entries.filter(|&(tn, _, _)| tn != root) {
            let i = tn.flat_index(num_nodes);
            reached += usize::from(dist[i] == UNREACHED);
            (dist[i], depth) = (d, depth.max(d));
            cover_row(&mut rows, tn.time.index());
            if let (Some(parents), Some(p)) = (parent.as_mut(), p) {
                parents[i] = p.flat_index(num_nodes) as u64;
            }
        }
        DistanceMap {
            num_nodes,
            num_timestamps,
            root,
            dist,
            parent,
            reached_count: reached,
            max_distance: depth,
            rows,
        }
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

    /// The row span: the half-open range of snapshot indices outside which
    /// no temporal node is reached (see the module docs).
    pub fn row_span(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The distance rows of the span, each with its snapshot index.
    fn span_rows(&self) -> impl Iterator<Item = (usize, &[u32])> {
        span_rows(&self.dist, self.num_nodes, self.rows.clone())
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
    /// [`DistanceMap::parent`] answers for `tn`, read in the same pass. Only
    /// the rows of the span are visited.
    pub fn for_each_reached(&self, mut f: impl FnMut(TemporalNode, u32, Option<TemporalNode>)) {
        for (t, row) in self.span_rows() {
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
        let mut layer = Vec::new();
        for (t, row) in self.span_rows() {
            for (v, _) in row.iter().enumerate().filter(|&(_, &d)| d == k) {
                layer.push(TemporalNode::from_raw(v as u32, t as u32));
            }
        }
        layer
    }

    /// The distinct *node* identifiers reached at any time — the influence
    /// set `T(a, t)` of Section V is exactly this set for a citation graph.
    pub fn reached_node_ids(&self) -> Vec<NodeId> {
        reached_columns(self.span_rows())
    }

    /// The earliest snapshot at which each reached node is reached, keyed by
    /// node. Unreached nodes are absent.
    pub fn earliest_reach_times(&self) -> Vec<(NodeId, TimeIndex)> {
        let mut earliest: Vec<Option<TimeIndex>> = vec![None; self.num_nodes];
        for (t, row) in self.span_rows() {
            for (slot, &d) in earliest.iter_mut().zip(row) {
                if d != UNREACHED && slot.is_none() {
                    *slot = Some(TimeIndex::from_index(t));
                }
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
        for (_, row) in self.span_rows() {
            for &d in row.iter().filter(|&&d| d != UNREACHED) {
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
    /// its coordinates, and the new rows/columns start unreached. Counts and
    /// the row span are unchanged.
    ///
    /// This is the *re-dimension* repair of the cache-invalidation matrix:
    /// a result whose window excludes appended snapshots is append-invariant
    /// modulo its dimensions, so repairing it is one table copy of the span's
    /// rows into an unreached table, with **zero graph work**.
    ///
    /// # Panics
    /// Debug-asserts that neither dimension shrinks.
    pub fn redimensioned(&self, num_nodes: usize, num_timestamps: usize) -> Self {
        debug_assert!(num_nodes >= self.num_nodes && num_timestamps >= self.num_timestamps);
        let (old, span) = (self.num_nodes, self.rows.clone());
        let (n, t) = (num_nodes, num_timestamps);
        let parent = self.parent.as_deref().map(|parents| {
            let mut parents = relayout(parents, old, n, t, span.clone(), 0, NO_PARENT);
            remap_parents(&mut parents, old, n, span.clone());
            parents
        });
        DistanceMap {
            num_nodes,
            num_timestamps,
            dist: relayout(&self.dist, old, n, t, span.clone(), 0, UNREACHED),
            parent,
            rows: span,
            ..*self
        }
    }
}

impl DistanceMap {
    /// Re-expresses a map computed on a view — a time window starting at
    /// snapshot `window_start`, time-`reversed` or both — in the coordinates
    /// of the `num_timestamps`-snapshot graph under it, with `root` in those
    /// coordinates. The span's rows move within the map's own table (and
    /// its parent pointers are remapped with them), so a search through a
    /// view builds no second table.
    pub fn into_original(
        mut self,
        root: TemporalNode,
        num_timestamps: usize,
        window_start: usize,
        reversed: bool,
    ) -> Self {
        let (n, span) = (self.num_nodes, self.rows.clone());
        let placement = RowPlacement {
            start: window_start,
            len: self.num_timestamps,
            flipped: reversed,
        };
        placement.place(&mut self.dist, n, num_timestamps, span.clone(), UNREACHED);
        let rows = placement.span(span.clone());
        if let Some(parents) = self.parent.as_mut() {
            placement.place(parents, n, num_timestamps, span, NO_PARENT);
            let slots = match placement.is_identity() {
                true => &mut [],
                false => &mut parents[rows.start * n..rows.end * n],
            };
            for p in slots.iter_mut().filter(|p| **p != NO_PARENT) {
                let tn = TemporalNode::from_flat_index(*p as usize, n);
                let t = TimeIndex::from_index(placement.row(tn.time.index()));
                *p = TemporalNode::new(tn.node, t).flat_index(n) as u64;
            }
        }
        DistanceMap {
            num_timestamps,
            root,
            rows,
            ..self
        }
    }
}

impl MultiSourceMap {
    /// [`DistanceMap::into_original`] for a shared-frontier map: `sources`
    /// are the seeds in the graph's coordinates, in seed order.
    pub fn into_original(
        mut self,
        sources: Vec<TemporalNode>,
        num_timestamps: usize,
        window_start: usize,
        reversed: bool,
    ) -> Self {
        let (n, span) = (self.num_nodes, self.rows.clone());
        let placement = RowPlacement {
            start: window_start,
            len: self.num_timestamps,
            flipped: reversed,
        };
        placement.place(&mut self.dist, n, num_timestamps, span.clone(), UNREACHED);
        placement.place(
            &mut self.source_idx,
            n,
            num_timestamps,
            span.clone(),
            NO_SOURCE,
        );
        MultiSourceMap {
            num_timestamps,
            sources,
            rows: placement.span(span),
            ..self
        }
    }
}

/// The columns (nodes) holding a reached slot in any of `rows`, ascending.
fn reached_columns<'a>(rows: impl Iterator<Item = (usize, &'a [u32])>) -> Vec<NodeId> {
    let mut seen: Vec<bool> = Vec::new();
    for (_, row) in rows {
        seen.resize(row.len(), false);
        for (seen, &d) in seen.iter_mut().zip(row) {
            *seen |= d != UNREACHED;
        }
    }
    seen.iter()
        .enumerate()
        .filter(|(_, &s)| s)
        .map(|(v, _)| NodeId::from_index(v))
        .collect()
}

/// Sentinel source index for unreached temporal nodes.
pub(crate) const NO_SOURCE: u32 = u32::MAX;

/// The result of a *shared-frontier* multi-source traversal
/// ([`crate::kernel::nearest_sources`]): for every
/// reached temporal node, the distance to its *nearest* source and the
/// identity of that source.
///
/// Distances are `min_s d_s(v, t)` over the per-source distances; ties are
/// broken deterministically toward the smallest source index, so the serial
/// and parallel engines (and any oracle built from per-source maps) agree
/// exactly. `rows` is the map's row span, as for [`DistanceMap`].
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MultiSourceMap {
    pub(crate) num_nodes: usize,
    pub(crate) num_timestamps: usize,
    pub(crate) sources: Vec<TemporalNode>,
    pub(crate) dist: Vec<u32>,
    pub(crate) source_idx: Vec<u32>,
    pub(crate) reached_count: usize,
    pub(crate) max_distance: u32,
    pub(crate) rows: Range<usize>,
}

impl MultiSourceMap {
    /// A map of the given dimensions reaching nothing.
    fn unreached(num_nodes: usize, num_timestamps: usize, sources: Vec<TemporalNode>) -> Self {
        MultiSourceMap {
            num_nodes,
            num_timestamps,
            sources,
            dist: vec![UNREACHED; num_nodes * num_timestamps],
            source_idx: vec![NO_SOURCE; num_nodes * num_timestamps],
            reached_count: 0,
            max_distance: 0,
            rows: 0..0,
        }
    }

    /// Builds a map from explicit `(temporal node, distance, source index)`
    /// entries — the constructor query layers use to re-express a
    /// shared-frontier result computed on a view (time window, reversed time)
    /// in the coordinates of the underlying graph. Entries must include the
    /// sources themselves at distance 0. The row span is the entries'
    /// snapshots.
    ///
    /// # Panics
    /// Panics (in debug builds) if an entry's source index is out of range.
    pub fn from_entries(
        num_nodes: usize,
        num_timestamps: usize,
        sources: Vec<TemporalNode>,
        entries: &[(TemporalNode, u32, usize)],
    ) -> Self {
        let mut map = MultiSourceMap::unreached(num_nodes, num_timestamps, sources);
        for &(tn, d, s) in entries {
            debug_assert!(s < map.sources.len(), "source index {s} out of range");
            let i = tn.flat_index(num_nodes);
            (map.dist[i], map.source_idx[i]) = match d {
                UNREACHED => (UNREACHED, NO_SOURCE),
                d => (d, s as u32),
            };
            cover_row(&mut map.rows, tn.time.index());
        }
        // Last entry wins on duplicates; the counters come from the final
        // slots, so no stale entry can leave a max_distance no slot has.
        let (mut reached, mut depth) = (0, 0);
        map.for_each_reached(|_, d, _| (reached, depth) = (reached + 1, depth.max(d)));
        (map.reached_count, map.max_distance) = (reached, depth);
        map
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

    /// The row span: the half-open range of snapshot indices outside which
    /// no temporal node is reached (see the module docs).
    pub fn row_span(&self) -> Range<usize> {
        self.rows.clone()
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
    /// behind [`MultiSourceMap::reached_with_sources`]. Only the rows of the
    /// span are visited.
    pub fn for_each_reached(&self, mut f: impl FnMut(TemporalNode, u32, usize)) {
        let (n, span) = (self.num_nodes, self.rows.clone());
        let rows = span_rows(&self.dist, n, span.clone()).zip(span_rows(&self.source_idx, n, span));
        for ((t, dist_row), (_, source_row)) in rows {
            for (v, (&d, &s)) in dist_row.iter().zip(source_row).enumerate() {
                if d != UNREACHED {
                    f(TemporalNode::from_raw(v as u32, t as u32), d, s as usize);
                }
            }
        }
    }

    /// The distinct node identifiers reached at any snapshot by any source.
    pub fn reached_node_ids(&self) -> Vec<NodeId> {
        reached_columns(span_rows(&self.dist, self.num_nodes, self.rows.clone()))
    }

    /// Raw flat distance slice (time-major), `u32::MAX` = unreached.
    pub fn as_flat_slice(&self) -> &[u32] {
        &self.dist
    }

    /// Re-expresses this map in the (grown) dimensions of an appended-to
    /// graph; the shared-frontier twin of [`DistanceMap::redimensioned`]
    /// (reached entries and their source attributions keep their
    /// coordinates, new rows/columns start unreached, counts and span are
    /// unchanged; zero graph work).
    ///
    /// # Panics
    /// Debug-asserts that neither dimension shrinks.
    pub fn redimensioned(&self, num_nodes: usize, num_timestamps: usize) -> Self {
        debug_assert!(num_nodes >= self.num_nodes && num_timestamps >= self.num_timestamps);
        let (old, span) = (self.num_nodes, self.rows.clone());
        let (n, t) = (num_nodes, num_timestamps);
        MultiSourceMap {
            num_nodes,
            num_timestamps,
            sources: self.sources.clone(),
            dist: relayout(&self.dist, old, n, t, span.clone(), 0, UNREACHED),
            source_idx: relayout(&self.source_idx, old, n, t, span.clone(), 0, NO_SOURCE),
            reached_count: self.reached_count,
            max_distance: self.max_distance,
            rows: span,
        }
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
        // The kernel's map and one rebuilt from its entries answer alike.
        let g = crate::examples::paper_figure1();
        let sources = vec![TemporalNode::from_raw(2, 1), TemporalNode::from_raw(0, 0)];
        let engine = crate::kernel::nearest_sources(&g, &sources, usize::MAX).unwrap();
        let entries = engine.reached_with_sources();
        let rebuilt = MultiSourceMap::from_entries(3, 3, sources, &entries);
        for m in [&engine, &rebuilt] {
            assert_eq!(m.num_reached(), entries.len());
            assert_eq!(m.max_distance(), entries.iter().map(|e| e.1).max().unwrap());
            assert_eq!(m.reached_with_sources(), entries);
            assert_eq!(
                m.nearest_source_index(TemporalNode::from_raw(0, 0)),
                Some(1)
            );
            assert_eq!(m.distance(TemporalNode::from_raw(2, 0)), None);
            assert_eq!(m.nearest_source(TemporalNode::from_raw(2, 0)), None);
            assert!(entries
                .iter()
                .all(|(tn, _, _)| m.row_span().contains(&tn.time.index())));
        }
        assert_eq!(engine.row_span(), 0..3);
        assert_eq!(engine.as_flat_slice(), rebuilt.as_flat_slice());
        assert_eq!(engine.reached_node_ids(), rebuilt.reached_node_ids());
    }

    /// The cells of a grown `(n, t)` table: old coordinates first.
    fn cells(n: usize, t: usize) -> impl Iterator<Item = TemporalNode> {
        (0..t).flat_map(move |time| {
            (0..n).map(move |v| TemporalNode::from_raw(v as u32, time as u32))
        })
    }

    #[test]
    fn redimensioning_keeps_entries_parents_counts_and_span_in_place() {
        // A parent-tracking map whose span starts after snapshot 0 and whose
        // parents sit in other rows and columns: a flat index bakes in the
        // row stride, so node growth must remap it.
        let root = TemporalNode::from_raw(2, 1);
        let (a, b) = (TemporalNode::from_raw(0, 1), TemporalNode::from_raw(1, 2));
        let m = DistanceMap::from_reached_with_parents(
            3,
            3,
            root,
            &[(a, 1, Some(root)), (b, 2, Some(a))],
        );
        assert_eq!(m.row_span(), 1..3);
        for (n, t) in [(3, 5), (7, 3), (6, 4)] {
            let grown = m.redimensioned(n, t);
            assert_eq!((grown.num_nodes(), grown.num_timestamps()), (n, t));
            assert_eq!(grown.as_flat_slice().len(), n * t);
            for tn in cells(n, t) {
                let old = (tn.node.index() < 3 && tn.time.index() < 3).then_some(tn);
                let (d, p) = old.map_or((None, None), |tn| (m.distance(tn), m.parent(tn)));
                assert_eq!(grown.distance(tn), d, "{tn:?} in ({n}, {t})");
                assert_eq!(grown.parent(tn), p, "{tn:?} in ({n}, {t})");
            }
            assert_eq!(grown.path_to(b), m.path_to(b));
            assert_eq!(grown.reached(), m.reached());
            assert_eq!(grown.num_reached(), m.num_reached());
            assert_eq!(grown.max_distance(), m.max_distance());
            assert_eq!(grown.row_span(), m.row_span());
        }
    }

    #[test]
    fn redimensioning_keeps_attributions_counts_and_span_in_place() {
        let sources = vec![TemporalNode::from_raw(1, 1), TemporalNode::from_raw(0, 1)];
        let m = MultiSourceMap::from_entries(
            2,
            3,
            sources,
            &[
                (TemporalNode::from_raw(1, 1), 0, 0),
                (TemporalNode::from_raw(0, 1), 0, 1),
                (TemporalNode::from_raw(0, 2), 1, 1),
                (TemporalNode::from_raw(1, 2), 1, 0),
            ],
        );
        assert_eq!(m.row_span(), 1..3);
        for (n, t) in [(2, 6), (5, 3), (4, 4)] {
            let grown = m.redimensioned(n, t);
            assert_eq!(grown.as_flat_slice().len(), n * t);
            for tn in cells(n, t) {
                let old = (tn.node.index() < 2 && tn.time.index() < 3).then_some(tn);
                let expected = old.and_then(|tn| m.nearest_source(tn));
                assert_eq!(grown.nearest_source(tn), expected, "{tn:?} in ({n}, {t})");
                let index = old.and_then(|tn| m.nearest_source_index(tn));
                assert_eq!(grown.nearest_source_index(tn), index, "{tn:?}");
            }
            assert_eq!(grown.reached_with_sources(), m.reached_with_sources());
            assert_eq!(grown.sources(), m.sources());
            assert_eq!(grown.num_reached(), m.num_reached());
            assert_eq!(grown.max_distance(), m.max_distance());
            assert_eq!(grown.row_span(), m.row_span());
        }
    }

    #[test]
    fn span_walks_answer_like_the_whole_table() {
        // The span helpers against answers read off the flat table directly.
        let m = toy_map();
        let flat = m.as_flat_slice();
        let reached: Vec<_> = (0..flat.len())
            .filter(|&i| flat[i] != UNREACHED)
            .map(|i| (TemporalNode::from_flat_index(i, 3), flat[i]))
            .collect();
        assert_eq!(m.reached(), reached);
        assert_eq!(m.row_span(), 0..2);
        let shifted = DistanceMap::from_reached(4, 5, TemporalNode::from_raw(3, 2), &[]);
        assert_eq!(shifted.row_span(), 2..3);
        assert_eq!(shifted.reached_node_ids(), vec![NodeId(3)]);
        assert_eq!(
            shifted.earliest_reach_times(),
            vec![(NodeId(3), TimeIndex(2))]
        );
        assert_eq!(shifted.layer(0), vec![TemporalNode::from_raw(3, 2)]);
        assert_eq!(shifted.distance_histogram(), vec![1]);
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

    #[test]
    fn into_original_places_view_rows_like_the_entry_constructors() {
        // Every window of the paper example, forward and reversed, with and
        // without parents: moving the view table's rows in place must give
        // the map the entry constructors build from the mapped reached set,
        // within a row span that covers the constructors' exact one (a
        // kernel's span runs from its earliest source to the end).
        use crate::kernel::{distances, nearest_sources};
        use crate::reverse::ReversedView;
        use crate::window::TimeWindowView;
        use crate::EvolvingGraph;

        let g = crate::examples::paper_figure1();
        let n = g.num_timestamps();
        for (start, end) in (0..n).flat_map(|s| (s..n).map(move |e| (s, e))) {
            let window =
                TimeWindowView::new(&g, TimeIndex::from_index(start), TimeIndex::from_index(end));
            let window = window.unwrap();
            let len = end - start + 1;
            for reversed in [false, true] {
                let to_original = |tn: TemporalNode| {
                    let r = if reversed {
                        len - 1 - tn.time.index()
                    } else {
                        tn.time.index()
                    };
                    TemporalNode::new(tn.node, TimeIndex::from_index(start + r))
                };
                let flipped = ReversedView::new(&window);
                for root in
                    (0..len).flat_map(|t| (0..3).map(move |v| TemporalNode::from_raw(v, t as u32)))
                {
                    for with_parents in [false, true] {
                        let view_map = match reversed {
                            false => distances(&window, root, with_parents, usize::MAX),
                            true => distances(&flipped, root, with_parents, usize::MAX),
                        };
                        let Ok(view_map) = view_map else { continue };
                        let entries: Vec<_> = view_map
                            .reached()
                            .into_iter()
                            .map(|(tn, d)| {
                                (to_original(tn), d, view_map.parent(tn).map(to_original))
                            })
                            .collect();
                        let placed =
                            view_map
                                .clone()
                                .into_original(to_original(root), n, start, reversed);
                        let built = DistanceMap::from_reached_with_parents(
                            3,
                            n,
                            to_original(root),
                            &entries,
                        );
                        let case = format!("{start}..={end}, reversed {reversed}, root {root:?}");
                        assert_eq!(placed.as_flat_slice(), built.as_flat_slice(), "{case}");
                        let (span, exact) = (placed.row_span(), built.row_span());
                        assert!(
                            exact.is_empty()
                                || (span.start <= exact.start && exact.end <= span.end),
                            "{case}"
                        );
                        assert_eq!(placed.num_reached(), built.num_reached(), "{case}");
                        assert_eq!(placed.max_distance(), built.max_distance(), "{case}");
                        if with_parents {
                            for (tn, _) in built.reached() {
                                assert_eq!(placed.parent(tn), built.parent(tn), "{case} at {tn:?}");
                            }
                        }
                        let shared = match reversed {
                            false => nearest_sources(&window, &[root, root], usize::MAX),
                            true => nearest_sources(&flipped, &[root, root], usize::MAX),
                        };
                        let shared = shared.unwrap();
                        let entries: Vec<_> = shared
                            .reached_with_sources()
                            .into_iter()
                            .map(|(tn, d, s)| (to_original(tn), d, s))
                            .collect();
                        let sources = vec![to_original(root); 2];
                        let placed = shared.into_original(sources.clone(), n, start, reversed);
                        let built = MultiSourceMap::from_entries(3, n, sources, &entries);
                        for tn in (0..n)
                            .flat_map(|t| (0..3).map(move |v| TemporalNode::from_raw(v, t as u32)))
                        {
                            assert_eq!(placed.distance(tn), built.distance(tn), "{case} at {tn:?}");
                            assert_eq!(
                                placed.nearest_source_index(tn),
                                built.nearest_source_index(tn)
                            );
                        }
                        let (span, exact) = (placed.row_span(), built.row_span());
                        assert!(
                            exact.is_empty()
                                || (span.start <= exact.start && exact.end <= span.end),
                            "{case}"
                        );
                    }
                }
            }
        }
    }
}
