//! FVH — the dedicated earliest-arrival sweep vs the hop-BFS derivation.
//!
//! `SearchResult::earliest_arrival` on a hop payload derives foremost times
//! from the full `O(|E| + |V|)` temporal-node expansion of Algorithm 1 —
//! causal edges included. `Strategy::Foremost` answers the same arrival-only
//! query with the `O(|Ẽ| + N·n)` time-ordered sweep, which never enumerates
//! causal edges or re-checks activeness. Wall clock varies with the host and
//! pool size and would under-report the asymptotic gap, so this bench
//! also reports *node-expansion counters* from `CountingView` and asserts the
//! sweep does strictly less graph work than the hop-BFS derivation on every
//! workload size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egraph_bench::first_active_node;
use egraph_core::foremost::earliest_arrival;
use egraph_core::ids::NodeId;
use egraph_core::instrument::CountingView;
use egraph_gen::random::figure5_workload;
use egraph_query::{Search, Strategy};

/// (nodes, snapshots, edges) per sweep step.
const SIZES: [(usize, usize, usize); 3] =
    [(500, 8, 4_000), (1_500, 10, 15_000), (4_000, 12, 48_000)];

fn foremost_vs_hops(c: &mut Criterion) {
    let mut group = c.benchmark_group("foremost_vs_hops");
    group.sample_size(10);

    for (num_nodes, num_timestamps, num_edges) in SIZES {
        let graph = figure5_workload(num_nodes, num_timestamps, num_edges, 0xF03E);
        let root = first_active_node(&graph);

        // --- Work counters: the acceptance check of this bench. -----------
        let hop_view = CountingView::new(&graph);
        let hops = Search::from(root).run(&hop_view).unwrap();
        // The derivation step itself reads only the finished map.
        let derived = hops.arrival_times();
        let hop_work = hop_view.counters();

        let sweep_view = CountingView::new(&graph);
        let swept = earliest_arrival(&sweep_view, root);
        let sweep_work = sweep_view.counters();

        // Same answers...
        for &(v, t) in &derived {
            assert_eq!(swept.arrival(v), Some(t), "node {v:?}");
        }
        assert_eq!(derived.len(), swept.num_reachable());
        // ...for strictly less graph work.
        assert!(
            sweep_work.total() < hop_work.total(),
            "sweep must do strictly less work: sweep {} vs hop {}",
            sweep_work.total(),
            hop_work.total()
        );
        println!(
            "foremost_vs_hops/n{num_nodes}xt{num_timestamps}: node expansions \
             (calls + delivered) — hop-BFS derivation: {} + {} = {}, foremost sweep: \
             {} + {} = {} ({:.2}x less work)",
            hop_work.expansions(),
            hop_work.neighbors_delivered,
            hop_work.total(),
            sweep_work.expansions(),
            sweep_work.neighbors_delivered,
            sweep_work.total(),
            hop_work.total() as f64 / sweep_work.total() as f64,
        );

        // --- Wall clock, for completeness. --------------------------------
        group.bench_with_input(
            BenchmarkId::new("hop_bfs_derive", num_nodes),
            &num_nodes,
            |b, _| {
                b.iter(|| {
                    let result = Search::from(root).run(&graph).unwrap();
                    std::hint::black_box(result.earliest_arrival(NodeId(0)))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("foremost_sweep", num_nodes),
            &num_nodes,
            |b, _| {
                b.iter(|| {
                    let result = Search::from(root)
                        .strategy(Strategy::Foremost)
                        .run(&graph)
                        .unwrap();
                    std::hint::black_box(result.arrival(NodeId(0)))
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, foremost_vs_hops);
criterion_main!(benches);
