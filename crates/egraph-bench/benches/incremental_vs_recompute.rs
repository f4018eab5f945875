//! INC — incremental re-search versus recomputation on a live graph.
//!
//! The `egraph-stream` subsystem claims that after sealing one new snapshot,
//! extending a cached forward search costs work proportional to the *delta*
//! (the new snapshot's edges and touched nodes), while recomputing costs
//! work proportional to the *whole history*. Wall clock alone would
//! under-report the gap on small workloads, so this bench measures graph
//! work with `CountingView` counters, **asserts** the asymptotic claim —
//! extension work must stay flat as the history grows while recompute work
//! grows with it — and emits a machine-readable `BENCH_incremental.json`
//! summary (work counters + speedups per history length) for the perf
//! trajectory.
//!
//! `CountingView` does not see copies, so the bench also runs under a
//! counting global allocator and records the bytes one `QueryCache::execute`
//! repair allocates — forward, shared-frontier and resettled — asserting
//! each stays within the repaired result's table bytes plus `O(num_nodes)`:
//! a repair may copy its table once, never twice. A shared-frontier miss is
//! held to its one table of packed keys the same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egraph_bench::first_active_node;
use egraph_core::foremost::earliest_arrival;
use egraph_core::ids::{TemporalNode, TimeIndex};
use egraph_core::instrument::CountingView;
use egraph_core::resume::{Resumable, ResumableBfs, ResumableForemost, ResumableShared};
use egraph_core::window::TimeWindowView;
use egraph_query::{Search, Strategy};
use egraph_stream::{EdgeEvent, LiveGraph, QueryCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The system allocator, plus one running total of the bytes it handed out
/// (a reallocation counts its whole new block).
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated while `f` runs. Taken on the calling thread with the
/// pool idle, so no other thread's allocations land in the total.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.load(Relaxed);
    let out = f();
    (out, ALLOCATED.load(Relaxed) - before)
}

/// Slack per node a repair may allocate beside its tables: the frontier
/// snapshot, the settled row's slots and causal cursors, and the level
/// queues.
const REPAIR_BYTES_PER_NODE: u64 = 96;

/// Node universe and per-snapshot edge budget are fixed; only the history
/// length varies, so any growth in the "extend" series would falsify the
/// delta-proportionality claim.
const NUM_NODES: usize = 1_500;
const EDGES_PER_SNAPSHOT: usize = 4_000;
const HISTORIES: [usize; 3] = [8, 16, 32];

struct SizeReport {
    history: usize,
    hop_extend_work: u64,
    hop_recompute_work: u64,
    foremost_extend_work: u64,
    foremost_recompute_work: u64,
}

/// Work counters for the three matrix rows this repo closed last: the
/// shared-frontier extension, the bounded-window re-dimension and the
/// effective-reversal stable-core resettle, each against the from-scratch
/// run the cache would otherwise pay.
struct MatrixReport {
    history: usize,
    shared_extend_work: u64,
    shared_recompute_work: u64,
    redimension_work: u64,
    windowed_recompute_work: u64,
    resettle_work: u64,
    backward_recompute_work: u64,
    forward_repair_alloc_bytes: u64,
    shared_repair_alloc_bytes: u64,
    resettle_alloc_bytes: u64,
    shared_miss_alloc_bytes: u64,
}

fn build_live(history: usize, seed: u64) -> LiveGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live = LiveGraph::directed(NUM_NODES);
    for t in 0..history {
        seal_random_snapshot(&mut rng, &mut live, t as i64);
    }
    live
}

fn seal_random_snapshot(rng: &mut SmallRng, live: &mut LiveGraph, label: i64) {
    let mut added = 0usize;
    while added < EDGES_PER_SNAPSHOT {
        let u = rng.gen_range(0..NUM_NODES) as u32;
        let v = rng.gen_range(0..NUM_NODES) as u32;
        if u == v {
            continue;
        }
        live.apply(EdgeEvent::insert(u, v)).unwrap();
        added += 1;
    }
    live.seal_snapshot(label).unwrap();
}

fn incremental_vs_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_vs_recompute");
    group.sample_size(10);

    let mut reports: Vec<SizeReport> = Vec::new();
    let mut matrix_reports: Vec<MatrixReport> = Vec::new();

    for history in HISTORIES {
        // History with `history` sealed snapshots, then one sealed delta.
        let mut live = build_live(history, 0x1ACE + history as u64);
        let root = first_active_node(live.graph());
        let mut hop_state = ResumableBfs::start(live.graph(), root).unwrap();
        let mut foremost_state = ResumableForemost::start(live.graph(), root);

        // The matrix-row prefixes, captured before the delta seals: a
        // two-source shared frontier, the full-prefix map a bounded window
        // would have cached, and a backward map rooted in the *last* prefix
        // snapshot (the shape an effective reversal retains).
        let first_touched = live.touched_at(root.time);
        let sources = [
            root,
            TemporalNode::new(first_touched[first_touched.len() / 2], root.time),
        ];
        let mut shared_state = ResumableShared::start(live.graph(), &sources).unwrap();
        let prefix = Search::from(root).run(live.graph()).unwrap();
        let prefix_map = prefix.distance_map();
        let back_root = TemporalNode::new(
            *live
                .touched_at(TimeIndex::from_index(history - 1))
                .first()
                .unwrap(),
            TimeIndex::from_index(history - 1),
        );
        let back_search = Search::from(back_root).backward();
        let back = back_search.run(live.graph()).unwrap();
        let back_map = back.distance_map();

        // The same forward, shared-frontier and backward queries, cached at
        // the prefix so the delta's seal leaves one repair each.
        let repair_cache = QueryCache::new();
        let shared_search = Search::from_sources(sources).strategy(Strategy::SharedFrontier);
        let repaired = [
            Search::from(root),
            shared_search.clone(),
            back_search.clone(),
        ];
        for query in &repaired {
            repair_cache.execute(&live, query).unwrap();
        }

        let mut rng = SmallRng::seed_from_u64(0xDE17A + history as u64);
        seal_random_snapshot(&mut rng, &mut live, history as i64);
        let t_new = egraph_core::ids::TimeIndex::from_index(history);
        let touched = live.touched_at(t_new).to_vec();

        // --- Work counters: the acceptance check of this bench. -----------
        let extend_view = CountingView::new(live.graph());
        hop_state.extend_snapshot(&extend_view, &touched).unwrap();
        let hop_extend_work = extend_view.counters().total();

        let recompute_view = CountingView::new(live.graph());
        let scratch = Search::from(root).run(&recompute_view).unwrap();
        let hop_recompute_work = recompute_view.counters().total();

        assert_eq!(
            hop_state.into_distance_map().as_flat_slice(),
            scratch.distance_map().as_flat_slice(),
            "extension must equal recomputation (history {history})"
        );
        assert!(
            hop_extend_work * 4 < hop_recompute_work,
            "history {history}: extension ({hop_extend_work}) must do far less graph \
             work than recomputation ({hop_recompute_work})"
        );

        let extend_view = CountingView::new(live.graph());
        foremost_state
            .extend_snapshot(&extend_view, &touched)
            .unwrap();
        let foremost_extend_work = extend_view.counters().total();

        let recompute_view = CountingView::new(live.graph());
        let swept = earliest_arrival(&recompute_view, root);
        let foremost_recompute_work = recompute_view.counters().total();

        assert_eq!(
            foremost_state.into_result().arrivals(),
            swept.arrivals(),
            "foremost extension must equal recomputation (history {history})"
        );
        assert!(
            foremost_extend_work * 4 < foremost_recompute_work,
            "history {history}: foremost extension ({foremost_extend_work}) vs \
             recomputation ({foremost_recompute_work})"
        );

        // --- The three rows the invalidation matrix closed last. ----------
        // Shared frontier: extension settles the delta from the retained
        // packed frontier; recompute re-runs the multi-source search.
        let extend_view = CountingView::new(live.graph());
        shared_state
            .extend_snapshot(&extend_view, &touched)
            .unwrap();
        let shared_extend_work = extend_view.counters().total();

        let recompute_view = CountingView::new(live.graph());
        let shared_scratch = shared_search.run(&recompute_view).unwrap();
        let shared_recompute_work = recompute_view.counters().total();

        assert_eq!(
            shared_state.into_map().as_flat_slice(),
            shared_scratch.shared_map().as_flat_slice(),
            "shared extension must equal recomputation (history {history})"
        );
        assert!(
            shared_extend_work * 4 < shared_recompute_work,
            "history {history}: shared extension ({shared_extend_work}) vs \
             recomputation ({shared_recompute_work})"
        );

        // Bounded window: the repair is a pure re-dimension — zero graph
        // work by construction — against re-running the windowed search.
        let redimensioned = prefix_map.redimensioned(NUM_NODES, history + 1);
        let redimension_work = 0u64;

        let recompute_view = CountingView::new(live.graph());
        let windowed = TimeWindowView::new(
            &recompute_view,
            TimeIndex(0),
            TimeIndex::from_index(history - 1),
        )
        .unwrap();
        let windowed_scratch = Search::from(root).run(&windowed).unwrap();
        let windowed_recompute_work = recompute_view.counters().total();

        assert_eq!(
            redimensioned.as_flat_slice()[..NUM_NODES * history],
            *windowed_scratch.distance_map().as_flat_slice(),
            "re-dimensioned prefix must equal the windowed recomputation \
             (history {history})"
        );
        assert!(
            redimensioned
                .as_flat_slice()
                .iter()
                .skip(NUM_NODES * history)
                .all(|&d| d == u32::MAX),
            "the appended row of a re-dimensioned bounded result is unreached"
        );

        // Effective reversal: causal edges only go forward in time, so the
        // backward answer is stable across the append and the repair is a
        // re-dimension — zero graph work by construction — against
        // re-running the backward search over the whole history.
        let resettled = back_map.redimensioned(NUM_NODES, history + 1);
        let resettle_work = 0u64;

        let recompute_view = CountingView::new(live.graph());
        let back_scratch = back_search.run(&recompute_view).unwrap();
        let backward_recompute_work = recompute_view.counters().total();

        assert_eq!(
            resettled.as_flat_slice(),
            back_scratch.distance_map().as_flat_slice(),
            "resettled backward result must equal recomputation (history {history})"
        );

        // --- Bytes one cached repair allocates. ---------------------------
        // Each result holds `num_nodes × (history + 1)` slots: one `u32`
        // table for a hop map, one `u64` table of packed keys (two `u32`
        // tables' worth) for a shared one.
        let slots = (NUM_NODES * (history + 1)) as u64;
        let table_bytes = slots * 4;
        let [forward_repair_alloc_bytes, shared_repair_alloc_bytes, resettle_alloc_bytes] =
            repaired.each_ref().map(|query| {
                let (result, bytes) = allocated_by(|| repair_cache.execute(&live, query).unwrap());
                assert_eq!(
                    result.reached(),
                    query.run(live.graph()).unwrap().reached(),
                    "the repaired answer must equal recomputation (history {history})"
                );
                bytes
            });
        for (what, bytes, tables) in [
            ("forward repair", forward_repair_alloc_bytes, 1),
            ("shared-frontier repair", shared_repair_alloc_bytes, 2),
            ("resettle", resettle_alloc_bytes, 1),
        ] {
            let bound = tables * table_bytes + REPAIR_BYTES_PER_NODE * NUM_NODES as u64;
            assert!(
                bytes <= bound,
                "history {history}: a {what} allocated {bytes} bytes, more than its \
                 {tables} table(s) of {table_bytes} bytes plus {REPAIR_BYTES_PER_NODE} \
                 per node ({bound})"
            );
        }
        assert_eq!(repair_cache.stats().recomputes, 0);

        // A shared-frontier miss: the kernel's packed keys become the map,
        // so one search allocates one 8-byte table, never a second copy of
        // it, and lists no level wider than a pull level, so its level lists
        // and per-node scratch stay within the repair's per-node slack.
        let (missed, shared_miss_alloc_bytes) =
            allocated_by(|| shared_search.run(live.graph()).unwrap());
        assert_eq!(missed.shared_map().num_timestamps(), history + 1);
        let bound = slots * 8 + REPAIR_BYTES_PER_NODE * NUM_NODES as u64;
        assert!(
            shared_miss_alloc_bytes <= bound,
            "history {history}: a shared-frontier search allocated \
             {shared_miss_alloc_bytes} bytes, more than its 8-byte table plus \
             {REPAIR_BYTES_PER_NODE} per node ({bound})"
        );

        matrix_reports.push(MatrixReport {
            history,
            shared_extend_work,
            shared_recompute_work,
            redimension_work,
            windowed_recompute_work,
            resettle_work,
            backward_recompute_work,
            forward_repair_alloc_bytes,
            shared_repair_alloc_bytes,
            resettle_alloc_bytes,
            shared_miss_alloc_bytes,
        });

        println!(
            "incremental_vs_recompute/h{history}: hop extend {hop_extend_work} vs \
             recompute {hop_recompute_work} ({:.1}x), foremost extend \
             {foremost_extend_work} vs recompute {foremost_recompute_work} ({:.1}x)",
            hop_recompute_work as f64 / hop_extend_work as f64,
            foremost_recompute_work as f64 / foremost_extend_work as f64,
        );
        reports.push(SizeReport {
            history,
            hop_extend_work,
            hop_recompute_work,
            foremost_extend_work,
            foremost_recompute_work,
        });

        // --- Wall clock: extend-after-seal vs full recompute. -------------
        group.bench_with_input(
            BenchmarkId::new("extend_one_snapshot", history),
            &history,
            |b, _| {
                b.iter_batched(
                    || prefix_state(live.graph(), root, history),
                    |mut state| {
                        state.extend_snapshot(live.graph(), &touched).unwrap();
                        std::hint::black_box(state.covered_timestamps())
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recompute_full", history),
            &history,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        Search::from(root).run(live.graph()).unwrap().num_reached(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("extend_shared_one_snapshot", history),
            &history,
            |b, _| {
                b.iter_batched(
                    || shared_prefix_state(live.graph(), &sources, history),
                    |mut state| {
                        state.extend_snapshot(live.graph(), &touched).unwrap();
                        std::hint::black_box(state.covered_timestamps())
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recompute_shared_full", history),
            &history,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(shared_search.run(live.graph()).unwrap().reached().len())
                })
            },
        );

        // --- The full subsystem path: cached query across a seal. ---------
        let warm_cache = QueryCache::new();
        let query = Search::from(root);
        warm_cache.execute(&live, &query).unwrap();
        group.bench_with_input(
            BenchmarkId::new("cache_hit_after_extension", history),
            &history,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(warm_cache.execute(&live, &query).unwrap().num_reached())
                })
            },
        );
    }

    group.finish();
    write_json_summary(&reports);
    write_matrix_json(&matrix_reports);
}

/// Builds a state covering only the first `prefix` snapshots (the pre-delta
/// coverage) — bench setup only, cost excluded from the measurement.
fn prefix_state(
    graph: &egraph_core::csr::CsrAdjacency,
    root: egraph_core::ids::TemporalNode,
    prefix: usize,
) -> ResumableBfs {
    let windowed = egraph_core::window::TimeWindowView::new(
        graph,
        egraph_core::ids::TimeIndex(0),
        egraph_core::ids::TimeIndex::from_index(prefix - 1),
    )
    .unwrap();
    ResumableBfs::start(&windowed, root).unwrap()
}

/// Builds a shared-frontier state covering only the first `prefix`
/// snapshots — bench setup only, cost excluded from the measurement.
fn shared_prefix_state(
    graph: &egraph_core::csr::CsrAdjacency,
    sources: &[TemporalNode],
    prefix: usize,
) -> ResumableShared {
    let windowed =
        TimeWindowView::new(graph, TimeIndex(0), TimeIndex::from_index(prefix - 1)).unwrap();
    ResumableShared::start(&windowed, sources).unwrap()
}

fn write_json_summary(reports: &[SizeReport]) {
    let mut rows = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"history_snapshots\": {}, \"delta_edges\": {}, \
             \"hop_extend_work\": {}, \"hop_recompute_work\": {}, \"hop_speedup\": {:.2}, \
             \"foremost_extend_work\": {}, \"foremost_recompute_work\": {}, \
             \"foremost_speedup\": {:.2}}}",
            r.history,
            EDGES_PER_SNAPSHOT,
            r.hop_extend_work,
            r.hop_recompute_work,
            r.hop_recompute_work as f64 / r.hop_extend_work as f64,
            r.foremost_extend_work,
            r.foremost_recompute_work,
            r.foremost_recompute_work as f64 / r.foremost_extend_work as f64,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"incremental_vs_recompute\",\n  \"num_nodes\": {NUM_NODES},\n  \
         \"work_metric\": \"CountingView total (enumeration calls + delivered neighbors)\",\n  \
         \"sizes\": [\n{rows}\n  ]\n}}\n"
    );
    let path = "BENCH_incremental.json";
    std::fs::write(path, &json).expect("write bench summary");
    println!("wrote {path}");

    // The asymptotic shape itself: extension work stays flat across a 4x
    // history growth while recompute work must grow.
    let first = &reports[0];
    let last = &reports[reports.len() - 1];
    assert!(
        last.hop_extend_work <= first.hop_extend_work * 2,
        "extension work must stay flat as history grows: {} -> {}",
        first.hop_extend_work,
        last.hop_extend_work
    );
    assert!(
        last.hop_recompute_work >= first.hop_recompute_work * 2,
        "recompute work must grow with history: {} -> {}",
        first.hop_recompute_work,
        last.hop_recompute_work
    );
}

fn write_matrix_json(reports: &[MatrixReport]) {
    let mut rows = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"history_snapshots\": {}, \"delta_edges\": {}, \
             \"shared_extend_work\": {}, \"shared_recompute_work\": {}, \
             \"shared_speedup\": {:.2}, \
             \"redimension_work\": {}, \"windowed_recompute_work\": {}, \
             \"resettle_work\": {}, \"backward_recompute_work\": {}, \
             \"forward_repair_alloc_bytes\": {}, \"shared_repair_alloc_bytes\": {}, \
             \"resettle_alloc_bytes\": {}, \"shared_miss_alloc_bytes\": {}}}",
            r.history,
            EDGES_PER_SNAPSHOT,
            r.shared_extend_work,
            r.shared_recompute_work,
            r.shared_recompute_work as f64 / r.shared_extend_work.max(1) as f64,
            r.redimension_work,
            r.windowed_recompute_work,
            r.resettle_work,
            r.backward_recompute_work,
            r.forward_repair_alloc_bytes,
            r.shared_repair_alloc_bytes,
            r.resettle_alloc_bytes,
            r.shared_miss_alloc_bytes,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"incremental_matrix\",\n  \"num_nodes\": {NUM_NODES},\n  \
         \"work_metric\": \"CountingView total (enumeration calls + delivered neighbors)\",\n  \
         \"alloc_metric\": \"bytes one QueryCache::execute repair (or one shared-frontier \
         search) allocates\",\n  \
         \"rows\": [\"shared_frontier_extend\", \"bounded_window_redimension\", \
         \"effective_reversal_resettle\"],\n  \
         \"sizes\": [\n{rows}\n  ]\n}}\n"
    );
    let path = "BENCH_incremental_matrix.json";
    std::fs::write(path, &json).expect("write matrix bench summary");
    println!("wrote {path}");

    // The asymptotic shape per row: repair work flat (or zero) across a 4x
    // history growth while every from-scratch twin must grow.
    let first = &reports[0];
    let last = &reports[reports.len() - 1];
    assert!(
        last.shared_extend_work <= first.shared_extend_work * 2,
        "shared extension work must stay flat as history grows: {} -> {}",
        first.shared_extend_work,
        last.shared_extend_work
    );
    assert!(
        last.shared_recompute_work >= first.shared_recompute_work * 2,
        "shared recompute work must grow with history: {} -> {}",
        first.shared_recompute_work,
        last.shared_recompute_work
    );
    assert!(
        reports
            .iter()
            .all(|r| r.redimension_work == 0 && r.resettle_work == 0),
        "re-dimension and resettle repairs never traverse the graph"
    );
    assert!(
        last.windowed_recompute_work >= first.windowed_recompute_work * 2,
        "windowed recompute work must grow with history: {} -> {}",
        first.windowed_recompute_work,
        last.windowed_recompute_work
    );
    assert!(
        last.backward_recompute_work > first.backward_recompute_work,
        "backward recompute work must grow with history: {} -> {}",
        first.backward_recompute_work,
        last.backward_recompute_work
    );
}

criterion_group!(benches, incremental_vs_recompute);
criterion_main!(benches);
