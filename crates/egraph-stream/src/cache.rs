//! [`QueryCache`]: memoised [`Search`] execution over a [`LiveGraph`], with
//! incremental re-search, built for concurrent serving.
//!
//! Results are keyed by the builder's canonical [`QueryDescriptor`] —
//! root(s) × strategy × direction × window × reverse — so the cache composes
//! with every strategy the builder dispatches to, rather than bypassing it.
//! When the graph's [`version`](LiveGraph::version) moves (snapshots were
//! sealed), a stale entry is repaired according to the query's shape:
//!
//! | query shape | on appended snapshots | outcome |
//! |---|---|---|
//! | forward, unbounded-end window, hop strategy | **extended** from the cached result's per-node frontier ([`ResumableBfs`]) — parent links included (`with_parents` rides the same path) | `Extended` |
//! | forward, unbounded-end window, `Foremost` | **extended** from the cached arrival table ([`ResumableForemost`]) | `Extended` |
//! | forward, unbounded-end window, `SharedFrontier` | **extended** from the cached distance and source tables, the settled row as packed `(dist<<32)\|src` claims ([`ResumableShared`]) | `Extended` |
//! | bounded window end (any strategy / direction / reverse / parents) | **re-dimensioned**: the window never covers appended snapshots, so the answer is append-invariant modulo its time dimensions — coordinates are remapped, no edge is touched | `Redimensioned` |
//! | effective time reversal, unbounded end | **stable-core resettle** (Afarin et al.): causal edges only go forward in time, so a reversed traversal from a fixed-time root never reaches an appended snapshot and the prior answer holds unchanged; it is re-dimensioned like a bounded window — one table copy, no graph work | `Resettled` |
//! | empty window | always errors; errors are never cached | — |
//!
//! The dispatch is keyed on the descriptor's [`AppendRepair`], stored on each
//! entry. Every row that can be cached is incremental, so no stale entry is
//! recomputed. Repairs do *graph work* at most proportional to the appended
//! delta — the
//! `incremental_vs_recompute` bench pins this with
//! [`CountingView`](egraph_core::instrument::CountingView) counters — while
//! staying answer-identical to a from-scratch [`Search::run`] on the sealed
//! graph, errors included (the `live_stream_differential` suite and the
//! seeded `cache_matrix_fuzz` harness, which checks every matrix cell
//! against a from-scratch twin after every seal).
//!
//! ## The serve path
//!
//! Three properties make this cache a serving layer rather than a memo pad:
//!
//! * **`O(1)` hits.** Entries hold `Arc<SearchResult>`; serving a hit is a
//!   reference-count bump, never an `O(nodes × snapshots)` deep copy, and
//!   never touches the graph. The `serving_throughput` bench pins hit cost
//!   independent of history length.
//! * **Concurrent readers.** [`QueryCache::execute`] takes `&self`: the
//!   descriptor space is split across [`QueryCache::SHARDS`] shards, each
//!   behind its own `RwLock`. Hits take a shard *read* lock, so readers of
//!   the same (or different) standing queries proceed in parallel. Repairs
//!   (extend / recompute / miss) do their graph work with **no lock held**
//!   — the graph cannot move under a repair because sealing requires
//!   `&mut LiveGraph` — and take the shard's write lock only to install
//!   the finished entry, so a slow traversal never stalls same-shard hits
//!   (and a panicking engine cannot poison a shard; poisoned locks are
//!   recovered regardless, since map mutations are atomic inserts).
//! * **Bounded memory.** [`QueryCache::with_capacity`] bounds the entry
//!   count with per-shard LRU eviction (stamped by a global access clock);
//!   [`CacheStats::evictions`] counts what was dropped. An entry stores only
//!   the shared result — resumable state is *rebuilt from the result* when
//!   an extension is actually needed, instead of being stored alongside it
//!   (the state duplicates the result's tables, so storing both doubled
//!   entry memory for no asymptotic gain).
//!
//! The cache never stores errors: a failing query re-runs (and re-fails
//! identically) each time, which also lets queries that *become* valid as
//! the graph grows — e.g. a root in a not-yet-sealed snapshot — succeed
//! later.
//!
//! Since the rayon shim gained a real executor (PR 5), repairs genuinely
//! overlap hit serving on a multi-core host: a recompute of a
//! `Strategy::Parallel` / `SharedFrontier` query expands its frontiers
//! across the thread pool, and a multi-source extension advances its
//! independent per-source resumable states in parallel (`extend_states`)
//! — all while holding **no** shard lock, so hit threads keep reading. The
//! `serving_throughput` bench's mixed workload pins hit latency while pool
//! recomputes run alongside.

use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use egraph_core::error::Result;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::TimeIndex;
use egraph_core::resume::{Resumable, ResumableBfs, ResumableForemost, ResumableShared};
use egraph_query::{AppendRepair, QueryDescriptor, QueryExecutor, Search, SearchResult, Strategy};

use crate::live::LiveGraph;

/// How the cache produced an answer — exposed for tests, benches and
/// observability ([`QueryCache::execute_traced`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No entry existed; the query ran from scratch and was stored.
    Miss,
    /// A current entry was served without touching the graph.
    Hit,
    /// A stale extendable entry was advanced over the appended snapshots.
    Extended,
    /// A stale bounded-window entry was re-dimensioned to the grown graph —
    /// coordinates remapped, no graph work.
    Redimensioned,
    /// A stale time-reversed entry was reused as its stable core:
    /// re-dimensioned to the grown graph — one table copy, no graph work.
    /// Causal edges only go forward in time, so a reversed traversal never
    /// reaches an appended snapshot.
    Resettled,
    /// A stale entry was recomputed from scratch. Only a descriptor with no
    /// repair ([`AppendRepair::None`], an empty window) would take this
    /// path, and such a query always errors, so it is never cached: normal
    /// operation never reports this outcome.
    Recomputed,
}

/// Running counters over every [`QueryCache::execute`] call.
///
/// Each outcome counter is bumped at the moment its result is actually
/// served — under the same shard lock as the lookup for hits, and at entry
/// installation for the repair paths — never earlier, so the counters can
/// not disagree with what callers observed (a query that *errors* serves
/// nothing and counts nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from a current entry.
    pub hits: u64,
    /// Queries served by incremental extension of a hop or foremost entry
    /// ([`CacheOutcome::Extended`] on the rows PR 3 closed).
    pub extensions: u64,
    /// Queries served by extension of a shared-frontier or parent-tracking
    /// entry — the rows this matrix revision closed, counted separately so
    /// the new paths are observable ([`CacheOutcome::Extended`]).
    pub extended_shared: u64,
    /// Bounded-window entries re-dimensioned without graph work
    /// ([`CacheOutcome::Redimensioned`]).
    pub redimensioned: u64,
    /// Time-reversed entries whose stable core was reused by
    /// re-dimensioning ([`CacheOutcome::Resettled`]).
    pub stable_core_resettled: u64,
    /// Stale entries recomputed from scratch — zero in normal operation,
    /// since every cacheable matrix row repairs incrementally.
    pub recomputes: u64,
    /// Queries with no prior entry.
    pub misses: u64,
    /// Entries dropped by the LRU bound (see [`QueryCache::with_capacity`]).
    pub evictions: u64,
    /// Requests that coalesced onto another request's in-flight computation
    /// instead of executing anything themselves — reported by single-flight
    /// admission layers via [`QueryCache::note_coalesced`]. Zero unless such
    /// a layer (e.g. `egraph-serve`) fronts the cache.
    pub coalesced: u64,
}

impl CacheStats {
    /// Total requests these stats describe: every served outcome plus the
    /// requests that coalesced onto one of them.
    pub fn requests(&self) -> u64 {
        self.hits
            + self.extensions
            + self.extended_shared
            + self.redimensioned
            + self.stable_core_resettled
            + self.recomputes
            + self.misses
            + self.coalesced
    }

    /// Every repair of a stale entry that avoided a from-scratch run: the
    /// sum of the per-row incremental counters.
    pub fn incremental_repairs(&self) -> u64 {
        self.extensions + self.extended_shared + self.redimensioned + self.stable_core_resettled
    }

    /// Fraction of requests served without any graph work — cache hits plus
    /// coalesced waits (which ride on a sibling's single computation) over
    /// all requests. `0.0` when nothing has been served yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }
}

#[derive(Debug)]
struct CacheEntry {
    /// The [`LiveGraph::graph_id`] this entry answers for. Checked on every
    /// lookup so one graph's results can never be served for another, even
    /// mid-rebind under concurrency.
    graph_id: u64,
    version: u64,
    /// Snapshots covered by `result` — where an extension resumes from.
    covered: usize,
    /// How `result` is repaired once the graph moves past `version`,
    /// decided from the descriptor at insert time.
    repair: AppendRepair,
    /// The shared materialised result at `version`; a `Hit` clones the
    /// `Arc`, not the payload.
    result: Arc<SearchResult>,
    /// Global-clock stamp of the last access (LRU victim selection).
    last_used: AtomicU64,
}

/// A memoising, concurrency-ready execution layer for [`Search`] queries
/// over a [`LiveGraph`].
///
/// See the [module docs](self) for the invalidation matrix and the serve
/// path design. All methods take `&self`; share a cache across threads with
/// scoped threads or an `Arc`.
///
/// A cache binds to the identity ([`LiveGraph::graph_id`]) of the graph it
/// executes against; handing it a *different* live graph — another
/// instance, or a clone that may have diverged — drops every entry and
/// rebinds (and each entry additionally records its graph id, so even a
/// racing rebind can never serve or extend across graphs).
#[derive(Debug)]
pub struct QueryCache {
    shards: Box<[RwLock<HashMap<QueryDescriptor, CacheEntry>>]>,
    /// Total entry bound; `None` = unbounded. Apportioned per shard as
    /// `max(1, capacity.div_ceil(SHARDS))`.
    capacity: Option<usize>,
    /// Monotone access clock behind the LRU stamps.
    clock: AtomicU64,
    /// The [`LiveGraph::graph_id`] the entries belong to (`u64::MAX` =
    /// unbound).
    bound_graph: AtomicU64,
    hits: AtomicU64,
    extensions: AtomicU64,
    extended_shared: AtomicU64,
    redimensioned: AtomicU64,
    stable_core_resettled: AtomicU64,
    recomputes: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryCache {
    /// Number of independently locked shards the descriptor space is split
    /// across.
    pub const SHARDS: usize = 16;

    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// An empty cache evicting least-recently-used entries beyond
    /// `capacity`. The bound is apportioned across [`QueryCache::SHARDS`]
    /// shards (`max(1, capacity.div_ceil(SHARDS))` each), so it is enforced
    /// per shard: the cache holds at most `SHARDS` entries more than
    /// `capacity` under adversarial key distributions, and usually fewer.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        QueryCache {
            shards: (0..Self::SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            capacity,
            clock: AtomicU64::new(0),
            bound_graph: AtomicU64::new(u64::MAX),
            hits: AtomicU64::new(0),
            extensions: AtomicU64::new(0),
            extended_shared: AtomicU64::new(0),
            redimensioned: AtomicU64::new(0),
            stable_core_resettled: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            extensions: self.extensions.load(Ordering::Relaxed),
            extended_shared: self.extended_shared.load(Ordering::Relaxed),
            redimensioned: self.redimensioned.load(Ordering::Relaxed),
            stable_core_resettled: self.stable_core_resettled.load(Ordering::Relaxed),
            recomputes: self.recomputes.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Records one request that coalesced onto another request's in-flight
    /// computation ([`CacheStats::coalesced`]). Called by single-flight
    /// admission layers fronting this cache, once per waiting request, at
    /// the moment the shared result is handed over.
    pub fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps the counter for `outcome` — called exactly where the outcome's
    /// result is served, so counters stay atomic with what callers observe.
    /// `Extended` splits by the descriptor: the hop/foremost rows land in
    /// [`CacheStats::extensions`], the shared-frontier/parents rows in
    /// [`CacheStats::extended_shared`].
    fn record(&self, outcome: CacheOutcome, descriptor: &QueryDescriptor) {
        match outcome {
            CacheOutcome::Hit => &self.hits,
            CacheOutcome::Extended
                if descriptor.strategy() == Strategy::SharedFrontier
                    || descriptor.with_parents() =>
            {
                &self.extended_shared
            }
            CacheOutcome::Extended => &self.extensions,
            CacheOutcome::Redimensioned => &self.redimensioned,
            CacheOutcome::Resettled => &self.stable_core_resettled,
            CacheOutcome::Recomputed => &self.recomputes,
            CacheOutcome::Miss => &self.misses,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            write_lock(shard).clear();
        }
    }

    /// The shard a descriptor lives in. `DefaultHasher::new()` hashes
    /// identically in every thread and process, so a descriptor's shard is
    /// stable.
    fn shard_index(descriptor: &QueryDescriptor) -> usize {
        let mut hasher = DefaultHasher::new();
        descriptor.hash(&mut hasher);
        (hasher.finish() % Self::SHARDS as u64) as usize
    }

    /// Next LRU stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Rebinds the cache to `graph_id`, dropping every entry on a change.
    /// Entry-level `graph_id` checks make a racing rebind harmless.
    fn rebind(&self, graph_id: u64) {
        loop {
            let current = self.bound_graph.load(Ordering::Acquire);
            if current == graph_id {
                return;
            }
            if self
                .bound_graph
                .compare_exchange(current, graph_id, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.clear();
                return;
            }
        }
    }

    /// Executes `search` against `live`'s sealed graph, through the cache.
    /// Answer- and error-identical to `search.run(live.graph())`; a hit is
    /// an `O(1)` `Arc` clone.
    pub fn execute(&self, live: &LiveGraph, search: &Search) -> Result<Arc<SearchResult>> {
        self.execute_traced(live, search).map(|(result, _)| result)
    }

    /// [`QueryCache::execute`], additionally reporting how the answer was
    /// produced.
    pub fn execute_traced(
        &self,
        live: &LiveGraph,
        search: &Search,
    ) -> Result<(Arc<SearchResult>, CacheOutcome)> {
        let descriptor = search.descriptor();
        let version = live.version();
        let graph_id = live.graph_id();
        self.rebind(graph_id);
        let shard = &self.shards[Self::shard_index(&descriptor)];

        // Fast path: concurrent readers share the shard read lock.
        //
        // What repair (if any) the entry needs is decided here too, so the
        // graph work below runs with NO lock held: the graph cannot move
        // while we hold `&LiveGraph` (sealing needs `&mut`), so the plan
        // cannot go stale — at worst a sibling thread performs the same
        // repair concurrently and one copy wins the install.
        let plan = {
            let map = read_lock(shard);
            match map.get(&descriptor) {
                Some(entry) if entry.graph_id == graph_id && entry.version == version => {
                    entry.last_used.store(self.tick(), Ordering::Relaxed);
                    self.record(CacheOutcome::Hit, &descriptor);
                    return Ok((Arc::clone(&entry.result), CacheOutcome::Hit));
                }
                // Stale: the graph only ever gained sealed snapshots (and
                // possibly nodes) since the entry's version — the
                // append-only contract of `LiveGraph`.
                Some(entry) if entry.graph_id == graph_id => {
                    Some((entry.repair, entry.covered, Arc::clone(&entry.result)))
                }
                // Absent (or left over from another graph).
                _ => None,
            }
        };

        // The expensive part — repair / traversal — outside any lock, so
        // same-shard hits keep flowing and a panicking engine cannot poison
        // the shard.
        let (outcome, computed) = match plan {
            Some((repair, covered, stale)) => repair_entry(repair, covered, &stale, live, search),
            None => (CacheOutcome::Miss, search.run(live.graph())),
        };

        // Install under the shard write lock — held only for map surgery.
        // The outcome counter is bumped at the serve points below, never
        // before: a failing query serves nothing and counts nothing, so the
        // counters cannot drift from what callers actually observed.
        let mut map = write_lock(shard);
        match computed {
            Err(err) => {
                // Errors are never cached; also drop any stale or foreign
                // entry so the failure isn't re-derived from dead state
                // forever. (A current entry cannot coexist with an error:
                // the graph is frozen, so a sibling running the same query
                // got the same error.)
                map.remove(&descriptor);
                Err(err)
            }
            Ok(result) => {
                if let Some(entry) = map.get(&descriptor) {
                    if entry.graph_id == graph_id && entry.version == version {
                        // A sibling installed the same repair first; serve
                        // the shared copy so every reader keeps pointing at
                        // one materialisation, and drop ours.
                        entry.last_used.store(self.tick(), Ordering::Relaxed);
                        self.record(outcome, &descriptor);
                        return Ok((Arc::clone(&entry.result), outcome));
                    }
                }
                self.record(outcome, &descriptor);
                let repair = descriptor.append_repair();
                map.insert(
                    descriptor,
                    CacheEntry {
                        graph_id,
                        version,
                        covered: live.num_sealed(),
                        repair,
                        result: Arc::clone(&result),
                        last_used: AtomicU64::new(self.tick()),
                    },
                );
                self.evict_over_capacity(&mut map);
                Ok((result, outcome))
            }
        }
    }

    /// A *current* entry for `search`, if one exists — the pure read path:
    /// no graph work, no repair, no entry installation. Serving layers probe
    /// this first so hot hits bypass single-flight admission entirely; on
    /// `None` the caller decides what to do (typically enter single-flight
    /// and call [`QueryCache::execute`]).
    ///
    /// A served result counts as a [`CacheStats::hits`] and refreshes the
    /// entry's LRU stamp, exactly like a hit through `execute`; a `None`
    /// counts nothing, since nothing was served.
    pub fn peek(&self, live: &LiveGraph, search: &Search) -> Option<Arc<SearchResult>> {
        let descriptor = search.descriptor();
        let graph_id = live.graph_id();
        let version = live.version();
        self.rebind(graph_id);
        let map = read_lock(&self.shards[Self::shard_index(&descriptor)]);
        match map.get(&descriptor) {
            Some(entry) if entry.graph_id == graph_id && entry.version == version => {
                entry.last_used.store(self.tick(), Ordering::Relaxed);
                self.record(CacheOutcome::Hit, &descriptor);
                Some(Arc::clone(&entry.result))
            }
            _ => None,
        }
    }

    /// Evicts least-recently-used entries until the shard respects its
    /// apportioned bound.
    fn evict_over_capacity(&self, map: &mut HashMap<QueryDescriptor, CacheEntry>) {
        let Some(capacity) = self.capacity else {
            return;
        };
        let per_shard = capacity.div_ceil(Self::SHARDS).max(1);
        while map.len() > per_shard {
            let victim = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
                .expect("shard over capacity is non-empty");
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

type Shard = RwLock<HashMap<QueryDescriptor, CacheEntry>>;

/// Locks recover from poisoning instead of propagating it: no graph work
/// runs under a lock (a panicking engine cannot poison a shard), and map
/// mutations are single insert/remove calls, so a poisoned shard's map is
/// still internally consistent.
fn read_lock(shard: &Shard) -> RwLockReadGuard<'_, HashMap<QueryDescriptor, CacheEntry>> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock(shard: &Shard) -> RwLockWriteGuard<'_, HashMap<QueryDescriptor, CacheEntry>> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// Repairs a stale entry's result, which covers `covered` snapshots, up to
/// the live graph's sealed state: one arm per row of the invalidation
/// matrix, keyed on the descriptor's [`AppendRepair`].
fn repair_entry(
    repair: AppendRepair,
    covered: usize,
    stale: &SearchResult,
    live: &LiveGraph,
    search: &Search,
) -> (CacheOutcome, Result<Arc<SearchResult>>) {
    let (outcome, repaired) = match repair {
        AppendRepair::Extend => (CacheOutcome::Extended, extend_result(covered, stale, live)),
        AppendRepair::Redimension => (CacheOutcome::Redimensioned, redimension_result(stale, live)),
        AppendRepair::Resettle => {
            // Causal edges only go forward in time, so a reversed traversal
            // from a root inside the covered prefix never reaches a snapshot
            // appended after it: the answer is the stable core (Afarin et
            // al.) and only its dimensions grow. That holds as long as the
            // result spans exactly the covered snapshots.
            debug_assert!(
                stale
                    .try_distance_maps()
                    .is_none_or(|maps| maps.iter().all(|m| m.num_timestamps() == covered))
                    && stale
                        .try_shared_map()
                        .is_none_or(|m| m.num_timestamps() == covered),
                "a resettled result must span exactly its covered snapshots"
            );
            (CacheOutcome::Resettled, redimension_result(stale, live))
        }
        // Only an empty window classifies here. It always errors, and
        // errors are never cached, so no such entry exists to go stale.
        AppendRepair::None => return (CacheOutcome::Recomputed, search.run(live.graph())),
    };
    (outcome, Ok(Arc::new(repaired)))
}

/// Advances a forward unbounded-end result over the appended snapshots with
/// the resumable engine its payload came from.
///
/// The resumable state is rebuilt from the result instead of retained
/// alongside it (the state duplicates the result's tables, so storing both
/// doubled entry memory). What a repair costs:
///
/// * **one table copy** — each table is copied once, into room sized for
///   the `num_sealed − covered` rows the repair appends, so no extension
///   reallocates it;
/// * **the span** — the per-node frontier is rebuilt from the rows of the
///   result's row span alone, not the whole history;
/// * **the settled rows** — each appended row is settled from that frontier
///   (graph work proportional to the delta, pinned by the
///   `incremental_vs_recompute` bench's `CountingView` counters), and the
///   reached count, maximum distance and span are updated from it, so the
///   extended state moves into the new result without another pass.
///
/// The same bench counts the bytes a repair allocates and asserts the
/// single copy.
fn extend_result(covered: usize, result: &SearchResult, live: &LiveGraph) -> SearchResult {
    let appended = live.num_sealed() - covered;
    if let Some(maps) = result.try_distance_maps() {
        // `ResumableBfs::from_map` captures parent links when the map has
        // them, so a `with_parents` result takes the same extension.
        let states = maps.iter().map(|map| ResumableBfs::from_map(map, appended));
        let mut states: Vec<_> = states.collect();
        extend_states(&mut states, live);
        let maps = states.into_iter().map(ResumableBfs::into_distance_map);
        SearchResult::from_maps(maps.collect(), false)
    } else if let Some(tables) = result.try_foremost_results() {
        let mut states: Vec<_> = tables
            .iter()
            .map(|table| ResumableForemost::from_result(table, covered))
            .collect();
        extend_states(&mut states, live);
        let tables = states.into_iter().map(ResumableForemost::into_result);
        SearchResult::from_arrivals(tables.collect(), false)
    } else {
        let mut states = [ResumableShared::from_map(result.shared_map(), appended)];
        extend_states(&mut states, live);
        let [state] = states;
        SearchResult::from_shared(state.into_map(), false)
    }
}

/// Re-expresses `result` in the live graph's current dimensions — the
/// re-dimension repair: distances / arrivals / attributions all keep their
/// values (they are indexed by snapshot label position and node id, neither
/// of which an append can move), new nodes and snapshots start unreached.
/// One table copy, reading only the rows of each map's span, with no graph
/// work.
fn redimension_result(result: &SearchResult, live: &LiveGraph) -> SearchResult {
    let graph = live.graph();
    let (num_nodes, num_timestamps) = (graph.num_nodes(), graph.num_timestamps());
    let reversed = result.is_time_reversed();
    if let Some(maps) = result.try_distance_maps() {
        SearchResult::from_maps(
            maps.iter()
                .map(|m| m.redimensioned(num_nodes, num_timestamps))
                .collect(),
            reversed,
        )
    } else if let Some(tables) = result.try_foremost_results() {
        SearchResult::from_arrivals(
            tables.iter().map(|a| a.redimensioned(num_nodes)).collect(),
            reversed,
        )
    } else {
        SearchResult::from_shared(
            result.shared_map().redimensioned(num_nodes, num_timestamps),
            reversed,
        )
    }
}

/// Advances every per-source resumable state across the snapshots sealed
/// since the states' coverage, growing the node layout first.
///
/// Per-source states are independent, so a multi-source extension fans out
/// across the rayon pool (`par_iter_mut`); repairs run with no shard lock
/// held, so this traversal work overlaps hit serving on other threads. A
/// single-source extension (`states.len() == 1`, the common case) stays on
/// the calling thread — the pool's chunking already short-circuits
/// single-chunk inputs.
fn extend_states<S: Resumable + Send>(states: &mut [S], live: &LiveGraph) {
    let graph = live.graph();
    let num_sealed = live.num_sealed();
    states.par_iter_mut().for_each(|state| {
        state.grow_nodes(graph.num_nodes());
        for t in state.covered_timestamps()..num_sealed {
            let t = TimeIndex::from_index(t);
            state
                .extend_snapshot(graph, live.touched_at(t))
                .expect("coverage and layout were aligned above");
        }
    });
}

/// A borrowed (live graph, cache) pair implementing the builder's
/// [`QueryExecutor`] hook, so call sites keep the fluent shape. Both
/// borrows are shared, so any number of sessions — across threads — can
/// serve from one cache:
///
/// ```
/// use egraph_core::ids::{NodeId, TemporalNode};
/// use egraph_query::Search;
/// use egraph_stream::{LiveGraph, QueryCache};
///
/// let mut live = LiveGraph::directed(3);
/// live.insert(NodeId(0), NodeId(1)).unwrap();
/// live.seal_snapshot(0).unwrap();
///
/// let cache = QueryCache::new();
/// let result = Search::from(TemporalNode::from_raw(0, 0))
///     .run_via(&mut live.session(&cache))
///     .unwrap();
/// assert_eq!(result.num_reached(), 2);
/// ```
#[derive(Debug)]
pub struct CachedSession<'a> {
    live: &'a LiveGraph,
    cache: &'a QueryCache,
}

impl QueryExecutor for CachedSession<'_> {
    fn run_search(&mut self, search: &Search) -> Result<Arc<SearchResult>> {
        self.cache.execute(self.live, search)
    }
}

impl LiveGraph {
    /// Pairs this graph with a [`QueryCache`] for
    /// [`Search::run_via`](egraph_query::Search::run_via).
    pub fn session<'a>(&'a self, cache: &'a QueryCache) -> CachedSession<'a> {
        CachedSession { live: self, cache }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::error::GraphError;
    use egraph_core::ids::{NodeId, TemporalNode};
    use egraph_query::Direction;

    fn seeded_live() -> LiveGraph {
        let mut live = LiveGraph::directed(4);
        live.insert(NodeId(0), NodeId(1)).unwrap();
        live.seal_snapshot(0).unwrap();
        live.insert(NodeId(1), NodeId(2)).unwrap();
        live.seal_snapshot(1).unwrap();
        live
    }

    fn assert_matches_scratch(live: &LiveGraph, cache: &QueryCache, search: &Search) {
        let cached = cache.execute(live, search);
        let scratch = search.run(live.graph());
        match (cached, scratch) {
            (Ok(a), Ok(b)) => assert_eq!(a.reached_node_ids(), b.reached_node_ids()),
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("cached {a:?} disagrees with scratch {b:?}"),
        }
    }

    #[test]
    fn hit_extend_and_resettle_paths_are_reported() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let forward = Search::from(TemporalNode::from_raw(0, 0));
        let backward = Search::from(TemporalNode::from_raw(2, 1)).direction(Direction::Backward);

        let (_, o) = cache.execute_traced(&live, &forward).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        let (_, o) = cache.execute_traced(&live, &forward).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
        let (_, o) = cache.execute_traced(&live, &backward).unwrap();
        assert_eq!(o, CacheOutcome::Miss);

        live.insert(NodeId(2), NodeId(3)).unwrap();
        live.seal_snapshot(2).unwrap();

        let (result, o) = cache.execute_traced(&live, &forward).unwrap();
        assert_eq!(o, CacheOutcome::Extended);
        assert_eq!(
            result.distance_map().as_flat_slice(),
            forward
                .run(live.graph())
                .unwrap()
                .distance_map()
                .as_flat_slice()
        );
        let (result, o) = cache.execute_traced(&live, &backward).unwrap();
        assert_eq!(o, CacheOutcome::Resettled);
        assert_eq!(
            result.distance_map().as_flat_slice(),
            backward
                .run(live.graph())
                .unwrap()
                .distance_map()
                .as_flat_slice()
        );

        let stats = cache.stats();
        assert_eq!(
            (
                stats.misses,
                stats.hits,
                stats.extensions,
                stats.stable_core_resettled,
                stats.recomputes,
            ),
            (2, 1, 1, 1, 0)
        );
    }

    #[test]
    fn shared_frontier_and_parent_entries_extend() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let shared =
            Search::from_sources([TemporalNode::from_raw(0, 0), TemporalNode::from_raw(1, 0)])
                .strategy(Strategy::SharedFrontier);
        let parents = Search::from(TemporalNode::from_raw(0, 0)).with_parents();
        cache.execute(&live, &shared).unwrap();
        cache.execute(&live, &parents).unwrap();

        live.insert(NodeId(2), NodeId(3)).unwrap();
        live.seal_snapshot(2).unwrap();

        let (result, o) = cache.execute_traced(&live, &shared).unwrap();
        assert_eq!(o, CacheOutcome::Extended);
        let scratch = shared.run(live.graph()).unwrap();
        assert_eq!(
            result.shared_map().reached_with_sources(),
            scratch.shared_map().reached_with_sources()
        );

        let (result, o) = cache.execute_traced(&live, &parents).unwrap();
        assert_eq!(o, CacheOutcome::Extended);
        let scratch = parents.run(live.graph()).unwrap();
        assert_eq!(
            result.distance_map().as_flat_slice(),
            scratch.distance_map().as_flat_slice()
        );
        assert!(result.distance_map().has_parents());
        // A path query exercises the extended parent links end to end.
        let deep = TemporalNode::from_raw(3, 2);
        let path = result.path_to(deep).expect("node 3 reached at t2");
        assert_eq!(path.first(), Some(&TemporalNode::from_raw(0, 0)));
        assert_eq!(path.last(), Some(&deep));

        let stats = cache.stats();
        assert_eq!(stats.extended_shared, 2);
        assert_eq!(stats.extensions, 0);
        assert_eq!(stats.recomputes, 0);
    }

    #[test]
    fn bounded_window_entries_redimension_without_graph_work() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let windowed = Search::from(TemporalNode::from_raw(0, 0)).window(0u32..=1);
        let first = cache.execute(&live, &windowed).unwrap();

        live.insert(NodeId(2), NodeId(3)).unwrap();
        live.seal_snapshot(2).unwrap();

        let (result, o) = cache.execute_traced(&live, &windowed).unwrap();
        assert_eq!(o, CacheOutcome::Redimensioned);
        let scratch = windowed.run(live.graph()).unwrap();
        assert_eq!(
            result.distance_map().as_flat_slice(),
            scratch.distance_map().as_flat_slice()
        );
        // The repaired payload tracks the grown graph's dimensions even
        // though the window excludes the new snapshot.
        assert_eq!(result.distance_map().num_timestamps(), 3);
        assert_eq!(first.distance_map().num_timestamps(), 2);
        assert_eq!(cache.stats().redimensioned, 1);
        assert_eq!(cache.stats().recomputes, 0);
    }

    #[test]
    fn every_stale_row_repairs_incrementally() {
        // One query per matrix row; after a seal, none of them recompute.
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let root = TemporalNode::from_raw(0, 0);
        let rows = [
            Search::from(root),
            Search::from(root).strategy(Strategy::Foremost),
            Search::from(root).strategy(Strategy::SharedFrontier),
            Search::from(root).with_parents(),
            Search::from(root).window(0u32..=1),
            Search::from(TemporalNode::from_raw(2, 1)).backward(),
            Search::from(root).reverse(),
        ];
        for row in &rows {
            cache.execute(&live, row).unwrap();
        }
        live.insert(NodeId(2), NodeId(3)).unwrap();
        live.seal_snapshot(2).unwrap();
        for row in &rows {
            let (_, o) = cache.execute_traced(&live, row).unwrap();
            assert_ne!(o, CacheOutcome::Recomputed, "{:?}", row.descriptor());
            assert_matches_scratch(&live, &cache, row);
        }
        let stats = cache.stats();
        assert_eq!(stats.recomputes, 0);
        assert_eq!(stats.incremental_repairs(), rows.len() as u64);
        assert_eq!(stats.extensions, 2);
        assert_eq!(stats.extended_shared, 2);
        assert_eq!(stats.redimensioned, 1);
        assert_eq!(stats.stable_core_resettled, 2);
    }

    #[test]
    fn hits_share_one_materialisation() {
        // The zero-copy contract: every hit serves the same allocation.
        let live = seeded_live();
        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0));
        let first = cache.execute(&live, &query).unwrap();
        let second = cache.execute(&live, &query).unwrap();
        let third = cache.execute(&live, &query).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&second, &third));
    }

    #[test]
    fn foremost_entries_extend_too() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0)).strategy(Strategy::Foremost);
        cache.execute(&live, &query).unwrap();
        live.insert(NodeId(2), NodeId(3)).unwrap();
        live.seal_snapshot(5).unwrap();
        let (result, o) = cache.execute_traced(&live, &query).unwrap();
        assert_eq!(o, CacheOutcome::Extended);
        assert_eq!(result.arrival(NodeId(3)), Some(TimeIndex(2)));
    }

    #[test]
    fn errors_are_not_cached_and_can_heal_as_the_graph_grows() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        // Root in a snapshot that does not exist yet.
        let query = Search::from(TemporalNode::from_raw(0, 2));
        assert!(matches!(
            cache.execute(&live, &query),
            Err(GraphError::OutsideWindow { .. })
        ));
        live.insert(NodeId(0), NodeId(3)).unwrap();
        live.seal_snapshot(9).unwrap();
        let (result, o) = cache.execute_traced(&live, &query).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert!(result.is_reached(TemporalNode::from_raw(3, 2)));
    }

    #[test]
    fn node_growth_is_absorbed_by_extension() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0));
        cache.execute(&live, &query).unwrap();
        live.apply(crate::event::EdgeEvent::grow_nodes(7)).unwrap();
        live.insert(NodeId(2), NodeId(6)).unwrap();
        live.seal_snapshot(7).unwrap();
        let (result, o) = cache.execute_traced(&live, &query).unwrap();
        assert_eq!(o, CacheOutcome::Extended);
        assert_eq!(
            result.distance_map().as_flat_slice(),
            query
                .run(live.graph())
                .unwrap()
                .distance_map()
                .as_flat_slice()
        );
        assert!(result.reaches_node(NodeId(6)));
    }

    #[test]
    fn every_strategy_matches_scratch_through_the_cache() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let root = TemporalNode::from_raw(0, 0);
        let strategies = [
            Strategy::Serial,
            Strategy::Parallel,
            Strategy::Algebraic,
            Strategy::Foremost,
            Strategy::SharedFrontier,
        ];
        for pass in 0..3 {
            for strategy in strategies {
                assert_matches_scratch(&live, &cache, &Search::from(root).strategy(strategy));
            }
            if pass < 2 {
                live.insert(NodeId(pass as u32), NodeId(3)).unwrap();
                live.seal_snapshot(10 + pass as i64).unwrap();
            }
        }
    }

    #[test]
    fn a_cache_never_serves_one_graphs_results_for_another() {
        // Regression: two distinct graphs at the same version used to alias
        // through descriptor-only keys, silently answering for the wrong
        // graph.
        let mut a = LiveGraph::directed(3);
        a.insert(NodeId(0), NodeId(1)).unwrap();
        a.seal_snapshot(0).unwrap();
        let mut b = LiveGraph::directed(3);
        b.insert(NodeId(0), NodeId(2)).unwrap();
        b.seal_snapshot(0).unwrap();
        assert_eq!(a.version(), b.version());

        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0));
        let on_a = cache.execute(&a, &query).unwrap();
        assert!(!on_a.reaches_node(NodeId(2)));
        let (on_b, outcome) = cache.execute_traced(&b, &query).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "rebinding must not hit");
        assert!(on_b.reaches_node(NodeId(2)));
        assert!(!on_b.reaches_node(NodeId(1)));
    }

    #[test]
    fn clones_count_as_different_graphs() {
        // A clone can diverge while keeping the same version; the cache must
        // treat it as a new graph rather than extend with foreign deltas.
        let mut a = seeded_live();
        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0));
        cache.execute(&a, &query).unwrap();

        let mut b = a.clone();
        a.insert(NodeId(1), NodeId(3)).unwrap();
        a.seal_snapshot(10).unwrap();
        b.insert(NodeId(2), NodeId(3)).unwrap();
        b.seal_snapshot(10).unwrap();
        assert_eq!(a.version(), b.version());

        let on_a = cache.execute(&a, &query).unwrap();
        assert_eq!(
            on_a.distance_map().as_flat_slice(),
            query.run(a.graph()).unwrap().distance_map().as_flat_slice()
        );
        let on_b = cache.execute(&b, &query).unwrap();
        assert_eq!(
            on_b.distance_map().as_flat_slice(),
            query.run(b.graph()).unwrap().distance_map().as_flat_slice()
        );
    }

    #[test]
    fn run_via_routes_through_the_cache() {
        let live = seeded_live();
        let cache = QueryCache::new();
        let root = TemporalNode::from_raw(0, 0);
        let a = Search::from(root)
            .run_via(&mut live.session(&cache))
            .unwrap();
        let b = Search::from(root)
            .run_via(&mut live.session(&cache))
            .unwrap();
        assert_eq!(a.num_reached(), b.num_reached());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
    }

    /// A wide graph where every `(v, 0)` root is active — raw material for
    /// descriptor probing in the LRU tests.
    fn wide_live(num_nodes: usize) -> LiveGraph {
        let mut live = LiveGraph::directed(num_nodes);
        for v in 0..num_nodes as u32 - 1 {
            live.insert(NodeId(v), NodeId(v + 1)).unwrap();
        }
        live.seal_snapshot(0).unwrap();
        live
    }

    #[test]
    fn bounded_caches_evict_least_recently_used_entries() {
        let live = wide_live(64);
        // Capacity SHARDS → exactly one entry per shard: insertion into an
        // occupied shard must evict its previous occupant.
        let cache = QueryCache::with_capacity(QueryCache::SHARDS);
        let queries: Vec<Search> = (0..48)
            .map(|v| Search::from(TemporalNode::from_raw(v, 0)))
            .collect();
        for q in &queries {
            cache.execute(&live, q).unwrap();
        }
        assert!(cache.len() <= QueryCache::SHARDS);
        let stats = cache.stats();
        assert_eq!(stats.misses, 48);
        assert_eq!(stats.evictions, 48 - cache.len() as u64);
        assert!(stats.evictions > 0, "48 keys into 16 shards must evict");
        // The most recent insertion is never the LRU victim.
        let (_, o) = cache
            .execute_traced(&live, queries.last().unwrap())
            .unwrap();
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn lru_prefers_evicting_the_stalest_entry_in_a_shard() {
        let live = wide_live(64);
        // Find three distinct queries landing in one shard.
        let mut by_shard: HashMap<usize, Vec<Search>> = HashMap::new();
        let colliding = (0..64u32)
            .map(|v| Search::from(TemporalNode::from_raw(v, 0)))
            .find_map(|q| {
                let shard = QueryCache::shard_index(&q.descriptor());
                let bucket = by_shard.entry(shard).or_default();
                bucket.push(q);
                (bucket.len() == 3).then(|| bucket.clone())
            })
            .expect("64 keys over 16 shards must collide 3 deep somewhere");
        let [a, b, c] = &colliding[..] else {
            unreachable!()
        };

        // Per-shard bound of 2: capacity SHARDS * 2.
        let cache = QueryCache::with_capacity(QueryCache::SHARDS * 2);
        cache.execute(&live, a).unwrap();
        cache.execute(&live, b).unwrap();
        cache.execute(&live, a).unwrap(); // touch a: b is now the LRU
        cache.execute(&live, c).unwrap(); // shard full: evicts b
        assert_eq!(cache.stats().evictions, 1);
        let (_, oa) = cache.execute_traced(&live, a).unwrap();
        assert_eq!(oa, CacheOutcome::Hit, "recently touched entry survives");
        // Probing b re-inserts it (and evicts the next LRU victim).
        let (_, ob) = cache.execute_traced(&live, b).unwrap();
        assert_eq!(ob, CacheOutcome::Miss, "LRU entry was evicted");
    }

    #[test]
    fn peek_serves_current_entries_without_computing() {
        let mut live = seeded_live();
        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0));
        // Nothing cached yet: peek computes nothing and counts nothing.
        assert!(cache.peek(&live, &query).is_none());
        assert_eq!(cache.stats(), CacheStats::default());

        let computed = cache.execute(&live, &query).unwrap();
        let peeked = cache.peek(&live, &query).unwrap();
        assert!(Arc::ptr_eq(&computed, &peeked));
        assert_eq!(cache.stats().hits, 1);

        // Stale entries are not served: peek never repairs.
        live.insert(NodeId(2), NodeId(3)).unwrap();
        live.seal_snapshot(2).unwrap();
        assert!(cache.peek(&live, &query).is_none());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn failed_queries_count_nothing() {
        // Counters are bumped when a result is served; an error serves
        // nothing, so the stats must not claim a miss happened.
        let live = seeded_live();
        let cache = QueryCache::new();
        let bad = Search::from(TemporalNode::from_raw(0, 7));
        assert!(cache.execute(&live, &bad).is_err());
        assert!(cache.execute(&live, &bad).is_err());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn coalesced_requests_feed_the_hit_rate() {
        let live = seeded_live();
        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0));
        cache.execute(&live, &query).unwrap(); // miss
        cache.execute(&live, &query).unwrap(); // hit
        cache.note_coalesced();
        cache.note_coalesced();
        let stats = cache.stats();
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.requests(), 4);
        // (1 hit + 2 coalesced) / 4 requests.
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn concurrent_hits_proceed_under_shared_locks() {
        // Smoke-level concurrency (the workspace-level concurrent_serving
        // suite does the heavy differential testing): many threads serving
        // the same standing queries all observe the shared materialisation.
        let live = seeded_live();
        let cache = QueryCache::new();
        let query = Search::from(TemporalNode::from_raw(0, 0));
        let baseline = cache.execute(&live, &query).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let served = cache.execute(&live, &query).unwrap();
                        assert!(Arc::ptr_eq(&served, &baseline));
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 400);
    }
}
