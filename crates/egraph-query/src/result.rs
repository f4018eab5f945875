//! [`SearchResult`]: the uniform result type of every [`Search`](crate::Search).
//!
//! A result's payload depends on the executed [`Strategy`](crate::Strategy):
//!
//! * the hop-distance engines (`Serial`, `Parallel`, `Algebraic`) produce one
//!   [`DistanceMap`] per source;
//! * `Foremost` produces one arrival table ([`ForemostResult`]) per source —
//!   no hop distances exist in that payload;
//! * `SharedFrontier` produces a single [`MultiSourceMap`] holding, for each
//!   temporal node, the distance to (and identity of) the *nearest* source.
//!
//! All payloads are always expressed in the coordinates of the graph the
//! query ran against (window shifts and time reversal are undone by the
//! builder). Accessors that a payload cannot serve panic with a message
//! naming the strategies that can; the accessors shared by every payload
//! ([`SearchResult::arrival`], [`SearchResult::reaches_node`],
//! [`SearchResult::reached_node_ids`], [`SearchResult::sources`]) are the
//! ones the workspace's cross-strategy equivalence suites compare.
//!
//! Execution layers hand results out as `Arc<SearchResult>`
//! ([`Search::run`](crate::Search::run) and every
//! [`QueryExecutor`](crate::QueryExecutor)): serving the same result twice
//! is a reference-count bump, not an `O(nodes × snapshots)` deep copy. All
//! read accessors take `&self`, so they work unchanged through the `Arc`;
//! callers that need ownership of a payload use
//! [`Arc::unwrap_or_clone`](std::sync::Arc::unwrap_or_clone) (free on a
//! freshly computed result) before the `into_*` consumers.

use egraph_core::distance::{DistanceMap, MultiSourceMap};
use egraph_core::foremost::ForemostResult;
use egraph_core::ids::{NodeId, TemporalNode, TimeIndex};

use std::collections::BTreeMap;

/// Strategy-dependent payload of a search result.
#[derive(Clone, Debug)]
enum Payload {
    /// One hop-distance map per source (`Serial` / `Parallel` / `Algebraic`).
    Hops(Vec<DistanceMap>),
    /// One foremost arrival table per source (`Foremost`).
    Arrivals(Vec<ForemostResult>),
    /// A single nearest-source map (`SharedFrontier`).
    Shared(MultiSourceMap),
}

/// The result of executing a [`Search`](crate::Search).
#[derive(Clone, Debug)]
pub struct SearchResult {
    payload: Payload,
    /// Whether the executed traversal ran on time-reversed coordinates
    /// (`.reverse()` XOR `Direction::Backward`). Determines which end of the
    /// time axis [`SearchResult::arrival`] reports.
    reversed: bool,
}

impl SearchResult {
    /// Assembles a hop-payload result from per-source distance maps, as the
    /// hop engines would have produced for a traversal with the given
    /// time-reversal bit. Intended for execution layers (caches, incremental
    /// re-search) that rebuild results from resumed state; `maps` must be
    /// non-empty and in source order.
    pub fn from_maps(maps: Vec<DistanceMap>, reversed: bool) -> Self {
        debug_assert!(!maps.is_empty(), "SearchResult requires at least one map");
        SearchResult {
            payload: Payload::Hops(maps),
            reversed,
        }
    }

    /// Assembles a [`Foremost`](crate::Strategy::Foremost)-payload result
    /// from per-source arrival tables (non-empty, in source order). See
    /// [`SearchResult::from_maps`] for the intended callers.
    pub fn from_arrivals(arrivals: Vec<ForemostResult>, reversed: bool) -> Self {
        debug_assert!(!arrivals.is_empty());
        SearchResult {
            payload: Payload::Arrivals(arrivals),
            reversed,
        }
    }

    /// Assembles a [`SharedFrontier`](crate::Strategy::SharedFrontier)-payload
    /// result from a nearest-source map. See [`SearchResult::from_maps`] for
    /// the intended callers.
    pub fn from_shared(shared: MultiSourceMap, reversed: bool) -> Self {
        SearchResult {
            payload: Payload::Shared(shared),
            reversed,
        }
    }

    /// The hop-map payload, or a descriptive panic.
    #[track_caller]
    fn hop_maps(&self) -> &[DistanceMap] {
        match &self.payload {
            Payload::Hops(maps) => maps,
            Payload::Arrivals(_) => panic!(
                "this SearchResult was produced by Strategy::Foremost, which computes \
                 arrival times rather than hop distances; use arrival()/earliest_arrival()/\
                 latest_departure(), or re-run with a hop-distance strategy"
            ),
            Payload::Shared(_) => panic!(
                "this SearchResult was produced by Strategy::SharedFrontier, which keeps a \
                 single nearest-source map; per-source distance maps are only available from \
                 Strategy::{{Serial, Parallel, Algebraic}}"
            ),
        }
    }

    /// Whether the executed traversal ran on time-reversed coordinates
    /// (an explicit [`reverse`](crate::Search::reverse) XOR
    /// [`Direction::Backward`](crate::Direction::Backward)).
    pub fn is_time_reversed(&self) -> bool {
        self.reversed
    }

    // ------------------------------------------------------------------
    // Per-source access
    // ------------------------------------------------------------------

    /// The sources of the search, in the order they were configured.
    pub fn sources(&self) -> Vec<TemporalNode> {
        match &self.payload {
            Payload::Hops(maps) => maps.iter().map(|m| m.root()).collect(),
            Payload::Arrivals(arrivals) => arrivals.iter().map(|a| a.root()).collect(),
            Payload::Shared(shared) => shared.sources().to_vec(),
        }
    }

    /// The first (for single-source searches: the only) source.
    pub fn source(&self) -> TemporalNode {
        match &self.payload {
            Payload::Hops(maps) => maps[0].root(),
            Payload::Arrivals(arrivals) => arrivals[0].root(),
            Payload::Shared(shared) => shared.sources()[0],
        }
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        match &self.payload {
            Payload::Hops(maps) => maps.len(),
            Payload::Arrivals(arrivals) => arrivals.len(),
            Payload::Shared(shared) => shared.num_sources(),
        }
    }

    /// The per-source distance maps, in source order.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) and
    /// [`SharedFrontier`](crate::Strategy::SharedFrontier) results, which do
    /// not materialise per-source hop maps.
    pub fn distance_maps(&self) -> &[DistanceMap] {
        self.hop_maps()
    }

    /// The first source's distance map — the natural accessor for
    /// single-source searches.
    ///
    /// # Panics
    /// See [`SearchResult::distance_maps`].
    pub fn distance_map(&self) -> &DistanceMap {
        &self.hop_maps()[0]
    }

    /// Consumes the result, returning the first source's distance map.
    ///
    /// # Panics
    /// See [`SearchResult::distance_maps`].
    pub fn into_distance_map(self) -> DistanceMap {
        self.into_distance_maps()
            .into_iter()
            .next()
            .expect("at least one map")
    }

    /// Consumes the result, returning every per-source distance map.
    ///
    /// # Panics
    /// See [`SearchResult::distance_maps`].
    pub fn into_distance_maps(self) -> Vec<DistanceMap> {
        self.hop_maps();
        match self.payload {
            Payload::Hops(maps) => maps,
            _ => unreachable!("hop_maps() already panicked"),
        }
    }

    /// The nearest-source map of a
    /// [`SharedFrontier`](crate::Strategy::SharedFrontier) result, borrowed.
    /// The accessor of choice now results are shared behind
    /// [`Arc`](std::sync::Arc) — no ownership needed to read the map.
    ///
    /// # Panics
    /// Panics for every other strategy's result.
    pub fn shared_map(&self) -> &MultiSourceMap {
        match &self.payload {
            Payload::Shared(shared) => shared,
            _ => panic!(
                "shared_map requires a Strategy::SharedFrontier result; other \
                 strategies do not build a nearest-source map"
            ),
        }
    }

    /// Consumes a [`SharedFrontier`](crate::Strategy::SharedFrontier) result,
    /// returning the nearest-source map.
    ///
    /// # Panics
    /// Panics for every other strategy's result.
    pub fn into_shared_map(self) -> MultiSourceMap {
        match self.payload {
            Payload::Shared(shared) => shared,
            _ => panic!(
                "into_shared_map requires a Strategy::SharedFrontier result; other \
                 strategies do not build a nearest-source map"
            ),
        }
    }

    // ------------------------------------------------------------------
    // Union views
    // ------------------------------------------------------------------

    /// Distance to `tn`: for single-source searches the source's distance;
    /// for multi-source searches the minimum over sources (which is exactly
    /// what a shared-frontier result stores).
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results, which
    /// compute arrival snapshots rather than hop distances.
    pub fn distance(&self, tn: TemporalNode) -> Option<u32> {
        match &self.payload {
            Payload::Hops(maps) => maps.iter().filter_map(|m| m.distance(tn)).min(),
            Payload::Shared(shared) => shared.distance(tn),
            Payload::Arrivals(_) => {
                self.hop_maps();
                unreachable!()
            }
        }
    }

    /// Whether any source reaches `tn` (Definition 7 reachability).
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results, which only
    /// track node-level reachability — use [`SearchResult::reaches_node`].
    pub fn is_reached(&self, tn: TemporalNode) -> bool {
        match &self.payload {
            Payload::Hops(maps) => maps.iter().any(|m| m.is_reached(tn)),
            Payload::Shared(shared) => shared.is_reached(tn),
            Payload::Arrivals(_) => {
                self.hop_maps();
                unreachable!()
            }
        }
    }

    /// Whether any source reaches node `v` at *some* snapshot — the
    /// node-level reachability every payload can answer.
    pub fn reaches_node(&self, v: NodeId) -> bool {
        match &self.payload {
            Payload::Hops(maps) => {
                if v.index() >= maps[0].num_nodes() {
                    return false;
                }
                let num_timestamps = maps[0].num_timestamps();
                (0..num_timestamps)
                    .map(TimeIndex::from_index)
                    .any(|t| maps.iter().any(|m| m.is_reached(TemporalNode::new(v, t))))
            }
            Payload::Arrivals(arrivals) => arrivals.iter().any(|a| a.arrival(v).is_some()),
            Payload::Shared(shared) => {
                if v.index() >= shared.num_nodes() {
                    return false;
                }
                let num_timestamps = shared.num_timestamps();
                (0..num_timestamps)
                    .map(TimeIndex::from_index)
                    .any(|t| shared.is_reached(TemporalNode::new(v, t)))
            }
        }
    }

    /// All reached temporal nodes with their (minimum) distances, in
    /// time-major order. For a single source this equals
    /// `DistanceMap::reached`.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn reached(&self) -> Vec<(TemporalNode, u32)> {
        match &self.payload {
            Payload::Shared(shared) => shared.reached(),
            _ => {
                let maps = self.hop_maps();
                if maps.len() == 1 {
                    return maps[0].reached();
                }
                let num_nodes = maps[0].num_nodes();
                let mut best: BTreeMap<usize, u32> = BTreeMap::new();
                for map in maps {
                    for (tn, d) in map.reached() {
                        best.entry(tn.flat_index(num_nodes))
                            .and_modify(|x| *x = (*x).min(d))
                            .or_insert(d);
                    }
                }
                best.into_iter()
                    .map(|(flat, d)| (TemporalNode::from_flat_index(flat, num_nodes), d))
                    .collect()
            }
        }
    }

    /// Number of distinct temporal nodes reached by any source (sources
    /// included).
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn num_reached(&self) -> usize {
        match &self.payload {
            Payload::Shared(shared) => shared.num_reached(),
            _ => {
                let maps = self.hop_maps();
                if maps.len() == 1 {
                    return maps[0].num_reached();
                }
                self.reached().len()
            }
        }
    }

    /// The temporal nodes reachable from the sources, *excluding* the
    /// sources themselves.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn reachable_set(&self) -> Vec<TemporalNode> {
        let sources = self.sources();
        self.reached()
            .into_iter()
            .map(|(tn, _)| tn)
            .filter(|tn| !sources.contains(tn))
            .collect()
    }

    /// The largest finite distance. For hop payloads this is the temporal
    /// eccentricity of the source (multi-source: the maximum per-source
    /// eccentricity); for a shared-frontier payload it is the eccentricity of
    /// the source *set* (the largest nearest-source distance), which is never
    /// larger.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn eccentricity(&self) -> u32 {
        match &self.payload {
            Payload::Shared(shared) => shared.max_distance(),
            _ => self
                .hop_maps()
                .iter()
                .map(|m| m.max_distance())
                .max()
                .unwrap_or(0),
        }
    }

    /// Alias for [`SearchResult::eccentricity`], mirroring
    /// `DistanceMap::max_distance`.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn max_distance(&self) -> u32 {
        self.eccentricity()
    }

    /// The distinct *node* identifiers reached at any snapshot by any source
    /// — the influence set `T(a, t)` of Section V for a forward search.
    /// Available for every strategy's result.
    pub fn reached_node_ids(&self) -> Vec<NodeId> {
        match &self.payload {
            Payload::Hops(maps) => {
                if maps.len() == 1 {
                    return maps[0].reached_node_ids();
                }
                let num_nodes = maps[0].num_nodes();
                let mut seen = vec![false; num_nodes];
                for map in maps {
                    for node in map.reached_node_ids() {
                        seen[node.index()] = true;
                    }
                }
                collect_seen(&seen)
            }
            Payload::Arrivals(arrivals) => {
                let num_nodes = arrivals
                    .iter()
                    .map(|a| a.arrivals().len())
                    .max()
                    .unwrap_or(0);
                let mut seen = vec![false; num_nodes];
                for table in arrivals {
                    for (v, t) in table.arrivals().iter().enumerate() {
                        if t.is_some() {
                            seen[v] = true;
                        }
                    }
                }
                collect_seen(&seen)
            }
            Payload::Shared(shared) => shared.reached_node_ids(),
        }
    }

    // ------------------------------------------------------------------
    // Arrival / departure views
    // ------------------------------------------------------------------

    /// The arrival snapshot of `node` in *traversal* time order — the single
    /// accessor the strategy-equivalence suites compare across engines:
    ///
    /// * for forward-in-time executions this is the **earliest arrival**
    ///   (smallest original snapshot at which any source reaches `node`);
    /// * for time-reversed executions (`.reverse()` XOR `Backward`) it is the
    ///   **latest departure** (largest original snapshot from which `node`
    ///   reaches a source).
    ///
    /// Available for every strategy's result; `None` if `node` is unreached.
    pub fn arrival(&self, node: NodeId) -> Option<TimeIndex> {
        if self.reversed {
            self.latest_departure(node)
        } else {
            self.earliest_arrival(node)
        }
    }

    /// The earliest original snapshot at which `node` is reached by any
    /// source — the "foremost" arrival time for forward searches. `None` if
    /// unreached.
    ///
    /// For hop payloads this scans only `node`'s time row of each map
    /// (`O(sources · snapshots)`), so calling it per node stays linear
    /// overall; for a `Foremost` payload it is a stored lookup.
    ///
    /// # Panics
    /// Panics for a time-reversed [`Foremost`](crate::Strategy::Foremost)
    /// result, whose sweep observed latest departures only — use
    /// [`SearchResult::latest_departure`] (or [`SearchResult::arrival`]).
    pub fn earliest_arrival(&self, node: NodeId) -> Option<TimeIndex> {
        match &self.payload {
            Payload::Arrivals(arrivals) => {
                assert!(
                    !self.reversed,
                    "a time-reversed Strategy::Foremost sweep records latest departures, \
                     not earliest arrivals; use latest_departure() or arrival()"
                );
                arrivals.iter().filter_map(|a| a.arrival(node)).min()
            }
            _ => self.scan_time_row(node, false),
        }
    }

    /// The latest original snapshot at which `node` is reached by any source
    /// — for backward / time-reversed searches, the latest snapshot from
    /// which `node` can still reach a source ("latest departure"). `None` if
    /// unreached.
    ///
    /// # Panics
    /// Panics for a forward [`Foremost`](crate::Strategy::Foremost) result,
    /// whose sweep observed earliest arrivals only — use
    /// [`SearchResult::earliest_arrival`] (or [`SearchResult::arrival`]).
    pub fn latest_departure(&self, node: NodeId) -> Option<TimeIndex> {
        match &self.payload {
            Payload::Arrivals(arrivals) => {
                assert!(
                    self.reversed,
                    "a forward Strategy::Foremost sweep records earliest arrivals, not \
                     latest departures; use earliest_arrival() or arrival()"
                );
                arrivals.iter().filter_map(|a| a.arrival(node)).max()
            }
            _ => self.scan_time_row(node, true),
        }
    }

    /// Scans `node`'s time row of a hop or shared payload for the first
    /// (`rev = false`) or last (`rev = true`) reached snapshot.
    fn scan_time_row(&self, node: NodeId, rev: bool) -> Option<TimeIndex> {
        let (num_nodes, num_timestamps) = match &self.payload {
            Payload::Hops(maps) => (maps[0].num_nodes(), maps[0].num_timestamps()),
            Payload::Shared(shared) => (shared.num_nodes(), shared.num_timestamps()),
            Payload::Arrivals(_) => unreachable!("callers handle the arrival payload"),
        };
        if node.index() >= num_nodes {
            return None;
        }
        let reached_at = |t: TimeIndex| match &self.payload {
            Payload::Hops(maps) => maps
                .iter()
                .any(|m| m.is_reached(TemporalNode::new(node, t))),
            Payload::Shared(shared) => shared.is_reached(TemporalNode::new(node, t)),
            Payload::Arrivals(_) => unreachable!(),
        };
        let times = 0..num_timestamps;
        if rev {
            times
                .rev()
                .map(TimeIndex::from_index)
                .find(|&t| reached_at(t))
        } else {
            times.map(TimeIndex::from_index).find(|&t| reached_at(t))
        }
    }

    /// Earliest arrival snapshots for every reached node, keyed by node.
    ///
    /// # Panics
    /// Panics for a time-reversed [`Foremost`](crate::Strategy::Foremost)
    /// result (see [`SearchResult::earliest_arrival`]).
    pub fn arrival_times(&self) -> Vec<(NodeId, TimeIndex)> {
        match &self.payload {
            Payload::Hops(maps) => {
                if maps.len() == 1 {
                    return maps[0].earliest_reach_times();
                }
                let num_nodes = maps[0].num_nodes();
                let mut earliest: Vec<Option<TimeIndex>> = vec![None; num_nodes];
                for map in maps {
                    for (node, t) in map.earliest_reach_times() {
                        let slot = &mut earliest[node.index()];
                        if slot.map(|cur| t < cur).unwrap_or(true) {
                            *slot = Some(t);
                        }
                    }
                }
                collect_times(&earliest)
            }
            Payload::Arrivals(arrivals) => {
                assert!(
                    !self.reversed,
                    "a time-reversed Strategy::Foremost sweep records latest departures, \
                     not earliest arrivals; use arrival() per node"
                );
                let num_nodes = arrivals
                    .iter()
                    .map(|a| a.arrivals().len())
                    .max()
                    .unwrap_or(0);
                let mut earliest: Vec<Option<TimeIndex>> = vec![None; num_nodes];
                for table in arrivals {
                    for (v, &t) in table.arrivals().iter().enumerate() {
                        let Some(t) = t else { continue };
                        let slot = &mut earliest[v];
                        if slot.map(|cur| t < cur).unwrap_or(true) {
                            *slot = Some(t);
                        }
                    }
                }
                collect_times(&earliest)
            }
            Payload::Shared(shared) => {
                let num_nodes = shared.num_nodes();
                let mut earliest: Vec<Option<TimeIndex>> = vec![None; num_nodes];
                for (tn, _) in shared.reached() {
                    let slot = &mut earliest[tn.node.index()];
                    if slot.map(|cur| tn.time < cur).unwrap_or(true) {
                        *slot = Some(tn.time);
                    }
                }
                collect_times(&earliest)
            }
        }
    }

    // ------------------------------------------------------------------
    // Nearest-source views
    // ------------------------------------------------------------------

    /// The nearest source of `tn` — the source at minimum distance, ties
    /// broken toward the smallest source index — together with that
    /// distance. Stored directly by a
    /// [`SharedFrontier`](crate::Strategy::SharedFrontier) result and derived
    /// from the per-source maps otherwise.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn nearest_source(&self, tn: TemporalNode) -> Option<(TemporalNode, u32)> {
        match &self.payload {
            Payload::Shared(shared) => shared.nearest_source(tn),
            _ => {
                let maps = self.hop_maps();
                maps.iter()
                    .enumerate()
                    .filter_map(|(i, m)| m.distance(tn).map(|d| (d, i)))
                    .min()
                    .map(|(d, i)| (maps[i].root(), d))
            }
        }
    }

    /// Index (into [`SearchResult::sources`]) of the nearest source of `tn`:
    /// the smallest index among the sources at minimum distance.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn nearest_source_index(&self, tn: TemporalNode) -> Option<usize> {
        match &self.payload {
            Payload::Shared(shared) => shared.nearest_source_index(tn),
            _ => self
                .hop_maps()
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.distance(tn).map(|d| (d, i)))
                .min()
                .map(|(_, i)| i),
        }
    }

    // ------------------------------------------------------------------
    // Paths and histograms
    // ------------------------------------------------------------------

    /// Reconstructs a shortest temporal path to `tn` from the source that
    /// reaches it at minimum distance. Requires the search to have been built
    /// with [`Search::with_parents`](crate::Search::with_parents); returns
    /// `None` otherwise or if `tn` is unreached.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) and
    /// [`SharedFrontier`](crate::Strategy::SharedFrontier) results (but note
    /// `with_parents` forces the serial hop engine, so results of queries
    /// built with it always support this).
    pub fn path_to(&self, tn: TemporalNode) -> Option<Vec<TemporalNode>> {
        self.hop_maps()
            .iter()
            .filter(|m| m.is_reached(tn))
            .min_by_key(|m| m.distance(tn).unwrap_or(u32::MAX))
            .and_then(|m| m.path_to(tn))
    }

    /// Histogram of (minimum) distances: entry `k` counts temporal nodes at
    /// distance `k`. Entry 0 counts the sources.
    ///
    /// # Panics
    /// Panics for [`Foremost`](crate::Strategy::Foremost) results.
    pub fn distance_histogram(&self) -> Vec<usize> {
        match &self.payload {
            Payload::Hops(maps) if maps.len() == 1 => maps[0].distance_histogram(),
            Payload::Arrivals(_) => {
                self.hop_maps();
                unreachable!()
            }
            _ => {
                let reached = self.reached();
                let depth = reached.iter().map(|&(_, d)| d).max().unwrap_or(0);
                let mut hist = vec![0usize; depth as usize + 1];
                for (_, d) in reached {
                    hist[d as usize] += 1;
                }
                hist
            }
        }
    }

    /// The per-source distance maps if this is a hop-payload result, `None`
    /// otherwise — the non-panicking probe serialization layers dispatch on
    /// (exactly one of the three `try_*` accessors returns `Some`).
    pub fn try_distance_maps(&self) -> Option<&[DistanceMap]> {
        match &self.payload {
            Payload::Hops(maps) => Some(maps),
            _ => None,
        }
    }

    /// The per-source arrival tables if this is a
    /// [`Foremost`](crate::Strategy::Foremost) result, `None` otherwise.
    pub fn try_foremost_results(&self) -> Option<&[ForemostResult]> {
        match &self.payload {
            Payload::Arrivals(arrivals) => Some(arrivals),
            _ => None,
        }
    }

    /// The nearest-source map if this is a
    /// [`SharedFrontier`](crate::Strategy::SharedFrontier) result, `None`
    /// otherwise.
    pub fn try_shared_map(&self) -> Option<&MultiSourceMap> {
        match &self.payload {
            Payload::Shared(shared) => Some(shared),
            _ => None,
        }
    }

    /// The per-source arrival tables of a
    /// [`Foremost`](crate::Strategy::Foremost) result, in source order.
    ///
    /// # Panics
    /// Panics for every other strategy's result.
    pub fn foremost_results(&self) -> &[ForemostResult] {
        match &self.payload {
            Payload::Arrivals(arrivals) => arrivals,
            _ => panic!(
                "foremost_results requires a Strategy::Foremost result; hop-distance \
                 strategies derive arrivals on demand via earliest_arrival()"
            ),
        }
    }
}

/// Collects the set bits of `seen` into node identifiers.
fn collect_seen(seen: &[bool]) -> Vec<NodeId> {
    seen.iter()
        .enumerate()
        .filter(|&(_, &s)| s)
        .map(|(v, _)| NodeId::from_index(v))
        .collect()
}

/// Collects per-node optional times into `(node, time)` pairs.
fn collect_times(times: &[Option<TimeIndex>]) -> Vec<(NodeId, TimeIndex)> {
    times
        .iter()
        .enumerate()
        .filter_map(|(v, t)| t.map(|t| (NodeId::from_index(v), t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Search, Strategy};
    use egraph_core::examples::paper_figure1;
    use egraph_core::foremost::earliest_arrival;
    use egraph_core::graph::EvolvingGraph as _;

    #[test]
    fn single_source_accessors_match_distance_map() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let result = Search::from(root).run(&g).unwrap();
        let map = result.distance_map().clone();
        assert_eq!(result.source(), root);
        assert_eq!(result.num_sources(), 1);
        assert_eq!(result.num_reached(), map.num_reached());
        assert_eq!(result.reached(), map.reached());
        assert_eq!(result.reached_node_ids(), map.reached_node_ids());
        assert_eq!(result.arrival_times(), map.earliest_reach_times());
        assert_eq!(result.distance_histogram(), map.distance_histogram());
        assert_eq!(result.max_distance(), map.max_distance());
        assert!(!result.is_time_reversed());
    }

    #[test]
    fn eccentricity_is_the_largest_distance() {
        // From (1, t1) the farthest node is (3, t3), three hops away; the
        // last snapshot's (3, t3) reaches only itself.
        let g = paper_figure1();
        let far = Search::from(TemporalNode::from_raw(0, 0)).run(&g).unwrap();
        assert_eq!(far.eccentricity(), 3);
        let sink = Search::from(TemporalNode::from_raw(2, 2)).run(&g).unwrap();
        assert_eq!(sink.eccentricity(), 0);
    }

    #[test]
    fn earliest_arrival_matches_the_foremost_sweep() {
        let g = paper_figure1();
        for &root in &g.active_nodes() {
            let result = Search::from(root).run(&g).unwrap();
            let foremost = earliest_arrival(&g, root);
            for v in 0..3u32 {
                assert_eq!(
                    result.earliest_arrival(NodeId(v)),
                    foremost.arrival(NodeId(v)),
                    "root {root:?}, node {v}"
                );
                assert_eq!(
                    result.arrival(NodeId(v)),
                    foremost.arrival(NodeId(v)),
                    "root {root:?}, node {v}"
                );
            }
        }
    }

    #[test]
    fn latest_departure_scans_from_the_far_end() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let result = Search::from(root).run(&g).unwrap();
        // Node 0 (paper 1) is reached at t1 and t2 → latest is t2.
        assert_eq!(result.latest_departure(NodeId(0)), Some(TimeIndex(1)));
        assert_eq!(result.earliest_arrival(NodeId(0)), Some(TimeIndex(0)));
        // A backward run reports departures through arrival().
        let back = Search::from(TemporalNode::from_raw(2, 2))
            .backward()
            .run(&g)
            .unwrap();
        assert!(back.is_time_reversed());
        assert_eq!(back.arrival(NodeId(0)), back.latest_departure(NodeId(0)));
    }

    #[test]
    fn reachable_set_excludes_every_source() {
        let g = paper_figure1();
        let sources = [TemporalNode::from_raw(0, 0), TemporalNode::from_raw(0, 1)];
        let result = Search::from_sources(sources).run(&g).unwrap();
        let set = result.reachable_set();
        for s in sources {
            assert!(!set.contains(&s));
        }
        assert!(set.contains(&TemporalNode::from_raw(2, 2)));
    }

    #[test]
    fn union_counts_deduplicate() {
        let g = paper_figure1();
        let a = TemporalNode::from_raw(0, 0);
        let result = Search::from_sources([a, a]).run(&g).unwrap();
        // The same source twice reaches exactly what one copy reaches.
        let single = Search::from(a).run(&g).unwrap();
        assert_eq!(result.num_reached(), single.num_reached());
        assert_eq!(result.reached(), single.reached());
    }

    #[test]
    fn nearest_source_derives_from_hop_maps() {
        let g = paper_figure1();
        let a = TemporalNode::from_raw(0, 1);
        let b = TemporalNode::from_raw(1, 0);
        let result = Search::from_sources([a, b]).run(&g).unwrap();
        // Each source is its own nearest source at distance 0.
        assert_eq!(result.nearest_source(a), Some((a, 0)));
        assert_eq!(result.nearest_source(b), Some((b, 0)));
        assert_eq!(result.nearest_source_index(a), Some(0));
        assert_eq!(result.nearest_source_index(b), Some(1));
    }

    #[test]
    #[should_panic(expected = "Strategy::Foremost")]
    fn foremost_results_panic_on_hop_distance_accessors() {
        let g = paper_figure1();
        let result = Search::from(TemporalNode::from_raw(0, 0))
            .strategy(Strategy::Foremost)
            .run(&g)
            .unwrap();
        let _ = result.distance(TemporalNode::from_raw(2, 2));
    }

    #[test]
    #[should_panic(expected = "Strategy::SharedFrontier")]
    fn shared_results_panic_on_per_source_maps() {
        let g = paper_figure1();
        let result = Search::from(TemporalNode::from_raw(0, 0))
            .strategy(Strategy::SharedFrontier)
            .run(&g)
            .unwrap();
        let _ = result.distance_map();
    }

    #[test]
    fn reaches_node_agrees_across_payloads() {
        let g = paper_figure1();
        let root = TemporalNode::from_raw(0, 0);
        let hops = Search::from(root).run(&g).unwrap();
        let foremost = Search::from(root)
            .strategy(Strategy::Foremost)
            .run(&g)
            .unwrap();
        let shared = Search::from(root)
            .strategy(Strategy::SharedFrontier)
            .run(&g)
            .unwrap();
        // Including out-of-range identifiers, which alias into other nodes'
        // flat slots unless bounds-checked.
        for v in 0..g.num_nodes() + 3 {
            let v = NodeId::from_index(v);
            assert_eq!(hops.reaches_node(v), foremost.reaches_node(v), "{v:?}");
            assert_eq!(hops.reaches_node(v), shared.reaches_node(v), "{v:?}");
        }
        assert!(!hops.reaches_node(NodeId::from_index(g.num_nodes())));
    }
}
