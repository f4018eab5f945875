//! ABL-B — serial Algorithm 1 versus the frontier-parallel variant on the
//! **real** thread pool, plus the multi-source patterns.
//!
//! Until PR 5 the in-tree rayon shim ran sequentially and every number here
//! was a placeholder. This bench now makes (and checks) the honest claims:
//!
//! 1. **Correctness is schedule-independent.** The parallel engine's
//!    `DistanceMap` is asserted bit-for-bit identical to serial BFS at every
//!    measured pool size. On a 1-thread pool (the serial kernel loop) its
//!    `CountingView` work counters are asserted *equal* to the serial
//!    engine's. On a 4-thread pool its static work (expansions and static
//!    edges delivered) is asserted equal — parallelism changes who expands
//!    a frontier node, never which nodes expand. Causal deliveries there
//!    follow the kernel's causal cursor, whose `fetch_min` intervals depend
//!    on expansion order, so both engines' are asserted at most one per
//!    active temporal node.
//! 2. **Wall-clock speedup is real — when the hardware has cores.** On a
//!    host with ≥ 2 available cores the bench *asserts* ≥ 1.5× speedup over
//!    serial BFS at some measured pool size on the large-frontier workload.
//!    On a single-core host (this repo's build container pins 1 CPU) no
//!    speedup is physically possible; the bench then records the measured
//!    ratios without asserting, and says so in the committed
//!    `BENCH_parallel.json` (`speedup_asserted: false`).
//! 3. **The threshold is tuned, not folklore.** A sweep over
//!    `parallel_threshold` values on the same workload is recorded in the
//!    JSON. The default (`PARALLEL_FRONTIER_THRESHOLD`, 65 536) came from a
//!    sweep on a 2-vCPU host, recorded on the constant.
//! 4. **One thread costs nothing.** `Serial` and `Parallel` run the same
//!    traversal kernel, and on a one-thread pool every level expands
//!    serially, so the bench asserts `Parallel` at `threads = 1` runs at
//!    ≥ 0.9× `Serial` on every scale, on any host. The two sides are timed
//!    in alternating rounds of one loop and the median per-round ratio is
//!    asserted, so both see the same host state; timed one after the other,
//!    two timings of one loop differed by more than 10% on a shared 2-vCPU
//!    host.
//!
//! Traversals run on the PR 4 `CsrAdjacency` layout — contiguous per-
//! snapshot pools — which is what makes chunked parallel expansion hit
//! sequential memory.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egraph_bench::parallel_bfs_workload;
use egraph_core::csr::CsrAdjacency;
use egraph_core::graph::EvolvingGraph;
use egraph_core::instrument::{CountingView, TraversalCounters};
use egraph_query::{Search, Strategy};
use rayon::ThreadPoolBuilder;

/// Pool sizes measured (1 = inline execution, the serial baseline of the
/// schedule dimension).
const POOL_SIZES: [usize; 3] = [1, 2, 4];
/// Thresholds swept for the tuning record.
const THRESHOLDS: [usize; 4] = [64, 256, 1024, 4096];
/// The threshold the pool measurements and the work-parity check run at:
/// narrow enough that most levels of both scales expand wide, so they
/// measure the wide path rather than the default, which keeps every level
/// of these graphs serial.
const WIDE_THRESHOLD: usize = 256;
/// Assertion bar for multi-core hosts.
const REQUIRED_SPEEDUP: f64 = 1.5;
/// Assertion bar for `Parallel` on a one-thread pool, relative to `Serial`.
const REQUIRED_SINGLE_THREAD_RATIO: f64 = 0.9;
/// Alternating rounds behind that ratio (odd, so the median is one round).
const PAIRED_ROUNDS: usize = 21;

struct ScaleReport {
    scale: usize,
    temporal_nodes: usize,
    static_edges: usize,
    serial_ns: f64,
    /// `(pool_threads, parallel_ns, speedup_vs_serial)`.
    pools: Vec<(usize, f64, f64)>,
    /// `(threshold, parallel_ns)` at the widest measured pool.
    thresholds: Vec<(usize, f64)>,
    work_counters: u64,
}

/// Minimum wall-clock over `samples` timed runs of `f` (minimum, not mean:
/// scheduler preemption only ever adds time, so the minimum is the most
/// noise-robust estimator for the speedup assertion on shared CI runners).
fn min_time_ns<T>(samples: usize, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// Times `a` and `b` in `rounds` alternating rounds of one run each: a round
/// times both back to back and swaps which goes first, so a slow spell on
/// the host lands on both. Returns each side's minimum and the median over
/// rounds of `a`'s time over `b`'s, which stays near the true ratio while
/// fewer than half the rounds are split by a change in host load.
fn paired_time_ns<T, U>(
    rounds: usize,
    mut a: impl FnMut() -> T,
    mut b: impl FnMut() -> U,
) -> (f64, f64, f64) {
    let mut pairs: Vec<(f64, f64)> = (0..rounds)
        .map(|round| {
            if round % 2 == 0 {
                let ns_a = min_time_ns(1, 1, &mut a);
                (ns_a, min_time_ns(1, 1, &mut b))
            } else {
                let ns_b = min_time_ns(1, 1, &mut b);
                (min_time_ns(1, 1, &mut a), ns_b)
            }
        })
        .collect();
    let min_a = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let min_b = pairs.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    pairs.sort_by(|x, y| (x.0 / x.1).total_cmp(&(y.0 / y.1)));
    let (ns_a, ns_b) = pairs[rounds / 2];
    (min_a, min_b, ns_a / ns_b)
}

fn parallel_bfs_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_bfs");
    group.sample_size(10);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut reports: Vec<ScaleReport> = Vec::new();

    for &scale in &[1usize, 2] {
        let (nested, root) = parallel_bfs_workload(scale, 0xB0B + scale as u64);
        let graph = CsrAdjacency::from_graph(&nested);
        let temporal_nodes = graph.num_nodes() * graph.num_timestamps();

        let serial_query = Search::from(root);
        let parallel_query = Search::from(root)
            .strategy(Strategy::Parallel)
            .parallel_threshold(WIDE_THRESHOLD);

        // --- 1. Correctness: identical maps and identical graph work. -----
        let serial_result = serial_query.run(&graph).unwrap();
        {
            let serial_view = CountingView::new(&graph);
            serial_query.run(&serial_view).unwrap();
            let serial_counters = serial_view.counters();
            let serial_work = serial_counters.total();

            // A 1-thread pool runs the serial kernel loop, so every counter,
            // causal deliveries included, equals Serial's exactly.
            let inline = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            let inline_view = CountingView::new(&graph);
            let inline_result = inline.install(|| parallel_query.run(&inline_view)).unwrap();
            assert_eq!(
                serial_result.distance_map().as_flat_slice(),
                inline_result.distance_map().as_flat_slice(),
                "scale {scale}: 1-thread parallel distances must equal serial"
            );
            assert_eq!(
                serial_work,
                inline_view.counters().total(),
                "scale {scale}: Parallel on a 1-thread pool must do identical graph work"
            );

            let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            let parallel_view = CountingView::new(&graph);
            let parallel_result = pool.install(|| parallel_query.run(&parallel_view)).unwrap();
            let parallel_counters = parallel_view.counters();

            assert_eq!(
                serial_result.distance_map().as_flat_slice(),
                parallel_result.distance_map().as_flat_slice(),
                "scale {scale}: parallel distances must equal serial"
            );
            // On the 4-thread pool wide levels expand. Every reached node is
            // expanded once on either path, so the static work is identical.
            // Causal deliveries follow the causal cursor, whose intervals
            // depend on the order in which a node's same-level copies expand
            // (frontier order serially, the interleaving of `fetch_min`s when
            // wide); both stay within one per active temporal node.
            let static_work = |c: &TraversalCounters| {
                (
                    c.static_out_calls,
                    c.neighbors_delivered - c.active_times_delivered,
                )
            };
            assert_eq!(
                static_work(&serial_counters),
                static_work(&parallel_counters),
                "scale {scale}: parallel expansion must do identical static graph work"
            );
            let active_nodes = graph.num_active_nodes() as u64;
            for (path, c) in [("serial", serial_counters), ("parallel", parallel_counters)] {
                assert!(
                    c.active_times_delivered <= active_nodes,
                    "scale {scale}: {path} delivered {} active times for {active_nodes} \
                     active temporal nodes",
                    c.active_times_delivered
                );
            }

            // --- and the wall-clock trajectory. ---------------------------
            // Serial and the one-thread pool run one loop: time them paired.
            let (serial_ns, inline_ns, inline_ratio) = paired_time_ns(
                PAIRED_ROUNDS,
                || serial_query.run(&graph).unwrap().num_reached(),
                || inline.install(|| parallel_query.run(&graph).unwrap().num_reached()),
            );
            let pools: Vec<(usize, f64, f64)> = POOL_SIZES
                .iter()
                .map(|&threads| {
                    if threads == 1 {
                        return (1, inline_ns, inline_ratio);
                    }
                    let pool = ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let ns = min_time_ns(5, 3, || {
                        pool.install(|| parallel_query.run(&graph).unwrap().num_reached())
                    });
                    (threads, ns, serial_ns / ns)
                })
                .collect();

            let widest = ThreadPoolBuilder::new()
                .num_threads(*POOL_SIZES.last().unwrap())
                .build()
                .unwrap();
            let thresholds: Vec<(usize, f64)> = THRESHOLDS
                .iter()
                .map(|&threshold| {
                    let query = Search::from(root)
                        .strategy(Strategy::Parallel)
                        .parallel_threshold(threshold);
                    let ns = min_time_ns(5, 3, || {
                        widest.install(|| query.run(&graph).unwrap().num_reached())
                    });
                    (threshold, ns)
                })
                .collect();

            assert!(
                inline_ratio >= REQUIRED_SINGLE_THREAD_RATIO,
                "scale {scale}: Parallel on a one-thread pool is the serial loop and must run \
                 at >= {REQUIRED_SINGLE_THREAD_RATIO}x Serial; median paired ratio \
                 {inline_ratio:.2} (minima: serial {serial_ns:.0} ns, one-thread pool \
                 {inline_ns:.0} ns)"
            );

            println!(
                "parallel_bfs/scale{scale}: serial {:.2} ms; pools {}; thresholds {}",
                serial_ns / 1e6,
                pools
                    .iter()
                    .map(|&(t, ns, s)| format!("{t}thr={:.2}ms({s:.2}x)", ns / 1e6))
                    .collect::<Vec<_>>()
                    .join(" "),
                thresholds
                    .iter()
                    .map(|&(th, ns)| format!("{th}={:.2}ms", ns / 1e6))
                    .collect::<Vec<_>>()
                    .join(" "),
            );

            reports.push(ScaleReport {
                scale,
                temporal_nodes,
                static_edges: graph.num_static_edges(),
                serial_ns,
                pools,
                thresholds,
                work_counters: serial_work,
            });
        }

        // Criterion entries for the wall-clock trajectory (ambient pool).
        group.bench_with_input(BenchmarkId::new("serial", scale), &scale, |b, _| {
            b.iter(|| {
                let result = serial_query.run(&graph).unwrap();
                std::hint::black_box(result.num_reached())
            })
        });
        group.bench_with_input(
            BenchmarkId::new("parallel_frontier", scale),
            &scale,
            |b, _| {
                b.iter(|| {
                    let result = parallel_query.run(&graph).unwrap();
                    std::hint::black_box(result.num_reached())
                })
            },
        );

        // Multi-source: 32 roots, each a full BFS, distributed over the pool.
        let roots: Vec<_> = graph.active_nodes().into_iter().take(32).collect();
        group.bench_with_input(
            BenchmarkId::new("multi_source_32", scale),
            &scale,
            |b, _| {
                b.iter(|| {
                    let result = Search::from_sources(roots.iter().copied())
                        .strategy(Strategy::Parallel)
                        .run(&graph)
                        .unwrap();
                    std::hint::black_box(result.num_sources())
                })
            },
        );
    }
    group.finish();

    // --- 2. The honest speedup claim. ------------------------------------
    let speedup_asserted = cores >= 2;
    let best_speedup = reports
        .iter()
        .flat_map(|r| r.pools.iter().filter(|&&(t, _, _)| t >= 2))
        .map(|&(_, _, s)| s)
        .fold(0.0f64, f64::max);
    if speedup_asserted {
        assert!(
            best_speedup >= REQUIRED_SPEEDUP,
            "with {cores} cores available, the parallel frontier must reach \
             {REQUIRED_SPEEDUP}x over serial BFS at some pool size on the large-frontier \
             workload; best measured {best_speedup:.2}x"
        );
    } else {
        println!(
            "parallel_bfs: single-core host ({cores} core available) — recording ratios \
             (best {best_speedup:.2}x) without asserting the multi-core speedup claim"
        );
    }

    write_json_summary(&reports, cores, speedup_asserted, best_speedup);
}

fn write_json_summary(
    reports: &[ScaleReport],
    cores: usize,
    speedup_asserted: bool,
    best_speedup: f64,
) {
    let mut rows = String::new();
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        let pools = r
            .pools
            .iter()
            .map(|&(t, ns, s)| {
                format!("{{\"threads\": {t}, \"bfs_ns\": {ns:.0}, \"speedup_vs_serial\": {s:.2}}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        let thresholds = r
            .thresholds
            .iter()
            .map(|&(th, ns)| format!("{{\"threshold\": {th}, \"bfs_ns\": {ns:.0}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        rows.push_str(&format!(
            "    {{\"scale\": {}, \"temporal_nodes\": {}, \"static_edges\": {}, \
             \"serial_bfs_ns\": {:.0}, \"work_counters\": {}, \"pools\": [{pools}], \
             \"threshold_sweep\": [{thresholds}]}}",
            r.scale, r.temporal_nodes, r.static_edges, r.serial_ns, r.work_counters,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"parallel_bfs\",\n  \"available_parallelism\": {cores},\n  \
         \"speedup_asserted\": {speedup_asserted},\n  \"required_speedup\": {REQUIRED_SPEEDUP},\n  \
         \"required_single_thread_ratio\": {REQUIRED_SINGLE_THREAD_RATIO},\n  \
         \"best_speedup_measured\": {best_speedup:.2},\n  \
         \"notes\": \"serial = Strategy::Serial on CsrAdjacency; pools = Strategy::Parallel \
         under an explicit ThreadPoolBuilder of N threads (1 = inline); work_counters are \
         the serial search's CountingView totals, asserted identical on a 1-thread parallel \
         pool; on a 4-thread pool static work (expansions and static edges delivered) is \
         asserted identical and each path's causal deliveries at most the active temporal \
         nodes; distances \
         asserted bit-for-bit identical; the 1-thread pool runs the serial kernel \
         loop and is asserted at >= required_single_thread_ratio x serial on every host, \
         as the median ratio of alternating paired runs (its speedup_vs_serial; serial_bfs_ns \
         and its bfs_ns are those runs' minima); \
         on hosts with >= 2 cores the bench asserts best speedup >= required_speedup, \
         on single-core hosts it records ratios only (no speedup is physically possible \
         there); threshold_sweep documents the \
         parallel_threshold tuning run at the widest pool\",\n  \"scales\": [\n{rows}\n  ]\n}}\n"
    );
    let path = "BENCH_parallel.json";
    std::fs::write(path, &json).expect("write bench summary");
    println!("wrote {path}");
}

criterion_group!(benches, parallel_bfs_bench);
criterion_main!(benches);
