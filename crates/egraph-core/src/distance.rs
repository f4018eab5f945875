//! [`DistanceMap`] and [`MultiSourceMap`]: the results of the hop engines.
//!
//! Algorithm 1 returns `reached`, a dictionary from temporal nodes to their
//! distances from the root. Because this crate uses dense node and snapshot
//! indices, the dictionary is stored as a flat table indexed by
//! `time * num_nodes + node`. Both maps hold one such table of *keys*, the
//! values the traversal kernel ([`crate::kernel`]) claims slots with, and
//! hand the kernel's table over as it is:
//!
//! * a single-source search keys a slot by its distance, a `u32`;
//! * the shared frontier keys it by `(distance << 32) | source_index`, a
//!   `u64`, so "nearest source, ties to the smallest index" is the smallest
//!   key. The `u64` impl of this module's `Key` trait is the one place that
//!   packing is defined.
//!
//! Either key's maximum marks an unreached slot. A distance map may also
//! record a parallel table of parent pointers, from which callers recover
//! an explicit shortest temporal path (the BFS tree of Section II-C).
//!
//! Every map also carries its *row span*: the half-open range of snapshots
//! outside which no slot is reached. Causal edges only go forward in time, so
//! a forward search never reaches a row before its earliest source, and a
//! backward one never reaches a row after its root. The walks over the
//! reached set ([`DistanceMap::for_each_reached`] and everything built on it,
//! re-dimensioning included) visit only the span's rows, so they cost what
//! the answer occupies rather than the whole history.

use std::fmt::Debug;
use std::ops::Range;

use crate::ids::{NodeId, TemporalNode, TimeIndex};
use crate::kernel::Slot;

/// Sentinel distance for unreached temporal nodes.
pub const UNREACHED: u32 = u32::MAX;

/// Sentinel parent: the root, a seed without a witness, or unreached.
pub(crate) const NO_PARENT: u64 = u64::MAX;

/// A slot's key (see the module docs); smaller keys win. `UNREACHED`, the
/// largest, marks a slot nothing has claimed. `level` reads a key's BFS
/// level, its distance, and `hand_on` is the key a node holding this one
/// offers its neighbours at `level`. The kernel claims keys in a `Slot`.
pub(crate) trait Key: Copy + Ord + Default + Send + Sync + Debug {
    type Slot: Slot<Key = Self> + Default + Debug;
    const UNREACHED: Self;
    fn level(self) -> u32;
    fn hand_on(self, level: u32) -> Self;

    /// The smallest key `level` holds: the one the smallest key hands on.
    #[inline]
    fn floor(level: u32) -> Self {
        Self::default().hand_on(level)
    }
}

impl Key for u32 {
    type Slot = std::sync::atomic::AtomicU32;
    const UNREACHED: u32 = UNREACHED;
    #[inline]
    fn level(self) -> u32 {
        self
    }
    #[inline]
    fn hand_on(self, level: u32) -> u32 {
        level
    }
}

/// The shared frontier's packed key, `(distance << 32) | source_index`. A
/// hop replaces the distance and keeps the source, so source `i` seeds key
/// `i`, and the unreached key `u64::MAX` reads as level [`UNREACHED`].
impl Key for u64 {
    type Slot = std::sync::atomic::AtomicU64;
    const UNREACHED: u64 = u64::MAX;
    #[inline]
    fn level(self) -> u32 {
        (self >> 32) as u32
    }
    #[inline]
    fn hand_on(self, level: u32) -> u64 {
        (u64::from(level) << 32) | (self & 0xFFFF_FFFF)
    }
}

/// The source index a packed shared-frontier key carries: its key handed
/// on at level 0, which is its source's seed key.
fn source_of(key: u64) -> usize {
    key.hand_on(0) as usize
}

/// Widens `span` to cover row `t`.
fn cover_row(span: &mut Range<usize>, t: usize) {
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
fn relayout<T: Copy>(
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
    for row in table[span.start * old..span.end * old].chunks_exact(old.max(1)) {
        out.extend_from_slice(row);
        out.resize(out.len() + new - old, fill);
    }
    out.resize(rows * new, fill);
    out
}

/// Rewrites every recorded parent in `slots`, a flat index of row stride
/// `old`, as `f` of its temporal node in row stride `new`: a flat index
/// bakes in its stride and its row, so a table whose rows move or widen
/// must move its parents' targets too.
fn remap_parents(
    slots: &mut [u64],
    old: usize,
    new: usize,
    f: impl Fn(TemporalNode) -> TemporalNode,
) {
    for p in slots.iter_mut().filter(|p| **p != NO_PARENT) {
        *p = f(TemporalNode::from_flat_index(*p as usize, old)).flat_index(new) as u64;
    }
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

/// The table behind both maps: the time-major keys (with, when a distance
/// map records them, BFS-tree parents as flat indices laid out alike), the
/// reached count, the maximum distance and the row span. Every walk,
/// re-layout and re-placement of a result's rows is a method here.
#[derive(Clone, Debug)]
pub(crate) struct KeyTable<K> {
    pub(crate) num_nodes: usize,
    pub(crate) num_timestamps: usize,
    pub(crate) keys: Vec<K>,
    pub(crate) parents: Option<Vec<u64>>,
    pub(crate) reached_count: usize,
    pub(crate) max_distance: u32,
    pub(crate) rows: Range<usize>,
}

impl<K: Key> KeyTable<K> {
    /// A table from explicit `(temporal node, key, parent)` entries, the
    /// last one winning a slot; the row span is exactly the entries'
    /// snapshots.
    fn from_entries(
        num_nodes: usize,
        num_timestamps: usize,
        with_parents: bool,
        entries: impl Iterator<Item = (TemporalNode, K, Option<TemporalNode>)>,
    ) -> Self {
        let keys = vec![K::UNREACHED; num_nodes * num_timestamps];
        let mut table = KeyTable {
            num_nodes,
            num_timestamps,
            parents: with_parents.then(|| vec![NO_PARENT; keys.len()]),
            keys,
            reached_count: 0,
            max_distance: 0,
            rows: 0..0,
        };
        for (tn, key, parent) in entries {
            let i = table.flat(tn);
            table.keys[i] = key;
            if let (Some(parents), Some(p)) = (table.parents.as_mut(), parent) {
                parents[i] = p.flat_index(num_nodes) as u64;
            }
            cover_row(&mut table.rows, tn.time.index());
        }
        // The counters come from the final slots, so no overwritten entry
        // can leave a max_distance no slot has.
        let (mut reached, mut depth) = (0, 0);
        table
            .for_each_reached(|_, key, _| (reached, depth) = (reached + 1, depth.max(key.level())));
        (table.reached_count, table.max_distance) = (reached, depth);
        table
    }

    #[inline]
    fn flat(&self, tn: TemporalNode) -> usize {
        tn.flat_index(self.num_nodes)
    }

    /// The key of `tn`, or `None` if it is unreached.
    #[inline]
    fn get(&self, tn: TemporalNode) -> Option<K> {
        Some(self.keys[self.flat(tn)]).filter(|&key| key != K::UNREACHED)
    }

    /// The key rows of the span, each with its snapshot index.
    pub(crate) fn span_rows(&self) -> impl Iterator<Item = (usize, &[K])> {
        let (n, span) = (self.num_nodes, self.rows.clone());
        let rows = self.keys[span.start * n..span.end * n].chunks_exact(n.max(1));
        span.zip(rows)
    }

    /// Calls `f(tn, key, parent)` for every reached slot in flat-index
    /// (time-major) order; `parent` is the one recorded for `tn`, if any.
    /// Only the rows of the span are visited.
    fn for_each_reached(&self, mut f: impl FnMut(TemporalNode, K, Option<TemporalNode>)) {
        let n = self.num_nodes;
        for (t, row) in self.span_rows() {
            for (v, &key) in row
                .iter()
                .enumerate()
                .filter(|(_, &key)| key != K::UNREACHED)
            {
                let parent = self.parents.as_ref().map_or(NO_PARENT, |p| p[t * n + v]);
                let parent = (parent != NO_PARENT)
                    .then(|| TemporalNode::from_flat_index(parent as usize, n));
                f(TemporalNode::from_raw(v as u32, t as u32), key, parent);
            }
        }
    }

    /// This table laid out `num_nodes` wide over `num_timestamps` rows, with
    /// room for `spare_rows` more: every reached key and recorded parent
    /// keeps its coordinates, and the other slots are unreached. Counts and
    /// the span are unchanged, and only the span's rows are read.
    pub(crate) fn relaid(
        &self,
        num_nodes: usize,
        num_timestamps: usize,
        spare_rows: usize,
    ) -> Self {
        let (old, span) = (self.num_nodes, self.rows.clone());
        let (n, t, spare) = (num_nodes, num_timestamps, spare_rows);
        let parents = self.parents.as_deref().map(|parents| {
            let mut parents = relayout(parents, old, n, t, span.clone(), spare, NO_PARENT);
            if old != n {
                remap_parents(&mut parents[span.start * n..span.end * n], old, n, |tn| tn);
            }
            parents
        });
        KeyTable {
            num_nodes,
            num_timestamps,
            keys: relayout(&self.keys, old, n, t, span.clone(), spare, K::UNREACHED),
            parents,
            rows: span,
            ..*self
        }
    }

    /// Re-expresses a table computed on a view — a time window starting at
    /// snapshot `window_start`, time-`reversed` or both — in the coordinates
    /// of the `num_timestamps`-snapshot graph under it. The span's rows move
    /// within the table's own vectors (and recorded parents are remapped
    /// with them), so a search through a view builds no second table.
    fn into_original(mut self, num_timestamps: usize, window_start: usize, reversed: bool) -> Self {
        let (n, span) = (self.num_nodes, self.rows.clone());
        let placement = RowPlacement {
            start: window_start,
            len: self.num_timestamps,
            flipped: reversed,
        };
        placement.place(
            &mut self.keys,
            n,
            num_timestamps,
            span.clone(),
            K::UNREACHED,
        );
        let rows = placement.span(span.clone());
        if let Some(parents) = self.parents.as_mut() {
            placement.place(parents, n, num_timestamps, span, NO_PARENT);
            if !placement.is_identity() {
                let moved = |tn: TemporalNode| {
                    TemporalNode::new(
                        tn.node,
                        TimeIndex::from_index(placement.row(tn.time.index())),
                    )
                };
                remap_parents(&mut parents[rows.start * n..rows.end * n], n, n, moved);
            }
        }
        KeyTable {
            num_timestamps,
            rows,
            ..self
        }
    }

    /// Appends the key row of the next snapshot, in which a kernel claimed
    /// `claimed` slots, the deepest at level `depth`.
    pub(crate) fn push_row(
        &mut self,
        row: impl Iterator<Item = K>,
        (claimed, depth): (usize, u32),
    ) {
        self.keys.extend(row);
        if claimed > 0 {
            self.reached_count += claimed;
            self.max_distance = self.max_distance.max(depth);
            cover_row(&mut self.rows, self.num_timestamps);
        }
        self.num_timestamps += 1;
    }
}

/// The accessors both maps answer alike from their key table.
macro_rules! table_accessors {
    () => {
        /// Size of the node universe of the traversed graph.
        pub fn num_nodes(&self) -> usize {
            self.table.num_nodes
        }

        /// Number of snapshots of the traversed graph.
        pub fn num_timestamps(&self) -> usize {
            self.table.num_timestamps
        }

        /// The row span: the half-open range of snapshot indices outside
        /// which no temporal node is reached (see the module docs).
        pub fn row_span(&self) -> Range<usize> {
            self.table.rows.clone()
        }

        /// Distance to `tn` from the root (the nearest source), or `None`
        /// if `tn` was not reached.
        #[inline]
        pub fn distance(&self, tn: TemporalNode) -> Option<u32> {
            self.table.get(tn).map(Key::level)
        }

        /// Whether `tn` is reached from the root (any source): Definition 7.
        #[inline]
        pub fn is_reached(&self, tn: TemporalNode) -> bool {
            self.table.get(tn).is_some()
        }

        /// Number of reached temporal nodes, the root (the sources)
        /// included.
        pub fn num_reached(&self) -> usize {
            self.table.reached_count
        }

        /// The largest finite distance in the map: the BFS depth, or for a
        /// shared frontier the eccentricity of the source *set* (not the
        /// maximum per-source eccentricity, which it cannot observe).
        pub fn max_distance(&self) -> u32 {
            self.table.max_distance
        }

        /// All reached temporal nodes with their distances, in flat-index
        /// (time-major) order.
        pub fn reached(&self) -> Vec<(TemporalNode, u32)> {
            let mut reached = Vec::with_capacity(self.num_reached());
            self.table
                .for_each_reached(|tn, key, _| reached.push((tn, key.level())));
            reached
        }

        /// The distinct *node* identifiers reached at any snapshot — the
        /// influence set `T(a, t)` of Section V is exactly this set for a
        /// citation graph.
        pub fn reached_node_ids(&self) -> Vec<NodeId> {
            let mut seen = vec![false; self.num_nodes()];
            for (_, row) in self.table.span_rows() {
                for (seen, &key) in seen.iter_mut().zip(row) {
                    *seen |= key != Key::UNREACHED;
                }
            }
            seen.iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(v, _)| NodeId::from_index(v))
                .collect()
        }
    };
}

/// Distances (and optionally BFS-tree parents) from a single root temporal
/// node, as produced by [`crate::kernel::distances`].
///
/// Its row span (see the module docs) holds every reached slot.
#[derive(Clone, Debug)]
pub struct DistanceMap {
    pub(crate) table: KeyTable<u32>,
    pub(crate) root: TemporalNode,
}

impl DistanceMap {
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
        let entries = entries.filter(|&(tn, _, _)| tn != root);
        let entries = std::iter::once((root, 0, None)).chain(entries);
        let table = KeyTable::from_entries(num_nodes, num_timestamps, with_parents, entries);
        DistanceMap { table, root }
    }

    table_accessors!();

    /// The root temporal node from which the traversal started.
    pub fn root(&self) -> TemporalNode {
        self.root
    }

    /// Calls `f(tn, distance, parent)` for every reached temporal node in
    /// flat-index (time-major) order, without allocating. `parent` is what
    /// [`DistanceMap::parent`] answers for `tn`, read in the same pass. Only
    /// the rows of the span are visited.
    pub fn for_each_reached(&self, f: impl FnMut(TemporalNode, u32, Option<TemporalNode>)) {
        self.table.for_each_reached(f)
    }

    /// The reached temporal nodes at exactly distance `k` (one BFS layer).
    pub fn layer(&self, k: u32) -> Vec<TemporalNode> {
        let mut layer = Vec::new();
        for (t, row) in self.table.span_rows() {
            for (v, _) in row.iter().enumerate().filter(|&(_, &d)| d == k) {
                layer.push(TemporalNode::from_raw(v as u32, t as u32));
            }
        }
        layer
    }

    /// The earliest snapshot at which each reached node is reached, keyed by
    /// node. Unreached nodes are absent.
    pub fn earliest_reach_times(&self) -> Vec<(NodeId, TimeIndex)> {
        let mut earliest: Vec<Option<TimeIndex>> = vec![None; self.num_nodes()];
        for (t, row) in self.table.span_rows() {
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
        self.table.parents.is_some()
    }

    /// BFS-tree parent of `tn`, if parents were recorded and `tn` is reached
    /// and is not the root.
    pub fn parent(&self, tn: TemporalNode) -> Option<TemporalNode> {
        let parents = self.table.parents.as_ref()?;
        if !self.is_reached(tn) || tn == self.root {
            return None;
        }
        let p = parents[self.table.flat(tn)];
        (p != NO_PARENT).then(|| TemporalNode::from_flat_index(p as usize, self.num_nodes()))
    }

    /// Reconstructs a shortest temporal path from the root to `tn` (inclusive
    /// of both end points) using the recorded parents. Returns `None` if `tn`
    /// is unreached or parents were not recorded.
    pub fn path_to(&self, tn: TemporalNode) -> Option<Vec<TemporalNode>> {
        self.table.parents.as_ref()?;
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
        let mut hist = vec![0usize; self.max_distance() as usize + 1];
        for (_, row) in self.table.span_rows() {
            for &d in row.iter().filter(|&&d| d != UNREACHED) {
                hist[d as usize] += 1;
            }
        }
        hist
    }

    /// Raw flat distance slice (time-major), mainly for the matrix crate's
    /// equivalence tests.
    pub fn as_flat_slice(&self) -> &[u32] {
        &self.table.keys
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
        debug_assert!(num_nodes >= self.num_nodes() && num_timestamps >= self.num_timestamps());
        DistanceMap {
            table: self.table.relaid(num_nodes, num_timestamps, 0),
            root: self.root,
        }
    }

    /// Re-expresses a map computed on a view — a time window starting at
    /// snapshot `window_start`, time-`reversed` or both — in the coordinates
    /// of the `num_timestamps`-snapshot graph under it, with `root` in those
    /// coordinates. The span's rows move within the map's own table (and
    /// its parent pointers are remapped with them), so a search through a
    /// view builds no second table.
    pub fn into_original(
        self,
        root: TemporalNode,
        num_timestamps: usize,
        window_start: usize,
        reversed: bool,
    ) -> Self {
        let table = self
            .table
            .into_original(num_timestamps, window_start, reversed);
        DistanceMap { table, root }
    }
}

/// The result of a *shared-frontier* multi-source traversal
/// ([`crate::kernel::nearest_sources`]): for every
/// reached temporal node, the distance to its *nearest* source and the
/// identity of that source.
///
/// Distances are `min_s d_s(v, t)` over the per-source distances; ties are
/// broken deterministically toward the smallest source index, so the serial
/// and parallel engines (and any oracle built from per-source maps) agree
/// exactly. The map holds the kernel's packed keys (see the module docs)
/// and a row span, as a [`DistanceMap`] does.
#[derive(Clone, Debug)]
pub struct MultiSourceMap {
    pub(crate) table: KeyTable<u64>,
    pub(crate) sources: Vec<TemporalNode>,
}

impl MultiSourceMap {
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
        let keys = entries.iter().map(|&(tn, d, s)| {
            debug_assert!(s < sources.len(), "source index {s} out of range");
            // Source `s` seeds key `s`, which a path of `d` hops hands on.
            let key = match d {
                UNREACHED => u64::UNREACHED,
                d => (s as u64).hand_on(d),
            };
            (tn, key, None)
        });
        let table = KeyTable::from_entries(num_nodes, num_timestamps, false, keys);
        MultiSourceMap { table, sources }
    }

    table_accessors!();

    /// The sources the shared frontier was seeded with, in seed order.
    pub fn sources(&self) -> &[TemporalNode] {
        &self.sources
    }

    /// Number of sources (duplicates included).
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Index (into [`MultiSourceMap::sources`]) of the nearest source of
    /// `tn`: the smallest index among the sources at minimum distance.
    #[inline]
    pub fn nearest_source_index(&self, tn: TemporalNode) -> Option<usize> {
        self.table.get(tn).map(source_of)
    }

    /// The nearest source of `tn` together with the distance from it.
    pub fn nearest_source(&self, tn: TemporalNode) -> Option<(TemporalNode, u32)> {
        let key = self.table.get(tn)?;
        Some((self.sources[source_of(key)], key.level()))
    }

    /// All reached temporal nodes with their nearest-source distance and
    /// nearest-source index, in flat-index order.
    pub fn reached_with_sources(&self) -> Vec<(TemporalNode, u32, usize)> {
        let mut reached = Vec::with_capacity(self.num_reached());
        self.for_each_reached(|tn, d, s| reached.push((tn, d, s)));
        reached
    }

    /// Calls `f(tn, distance, source_index)` for every reached temporal
    /// node in flat-index (time-major) order, without allocating — the walk
    /// behind [`MultiSourceMap::reached_with_sources`]. Only the rows of the
    /// span are visited.
    pub fn for_each_reached(&self, mut f: impl FnMut(TemporalNode, u32, usize)) {
        self.table
            .for_each_reached(|tn, key, _| f(tn, key.level(), source_of(key)));
    }

    /// Raw flat packed keys (time-major), `u64::MAX` = unreached: two maps
    /// with equal slices agree on every distance and attribution.
    pub fn as_flat_slice(&self) -> &[u64] {
        &self.table.keys
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
        debug_assert!(num_nodes >= self.num_nodes() && num_timestamps >= self.num_timestamps());
        MultiSourceMap {
            table: self.table.relaid(num_nodes, num_timestamps, 0),
            sources: self.sources.clone(),
        }
    }

    /// [`DistanceMap::into_original`] for a shared-frontier map: `sources`
    /// are the seeds in the graph's coordinates, in seed order.
    pub fn into_original(
        self,
        sources: Vec<TemporalNode>,
        num_timestamps: usize,
        window_start: usize,
        reversed: bool,
    ) -> Self {
        let table = self
            .table
            .into_original(num_timestamps, window_start, reversed);
        MultiSourceMap { table, sources }
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
