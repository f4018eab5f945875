//! ABL-C — incremental edge insertion versus rebuilding from scratch.
//!
//! The Figure 5 experiment grows a single evolving graph by repeatedly adding
//! random static edges; the evolving-graph representation is supposed to make
//! that growth cheap. This ablation measures (a) applying one batch of edges
//! to an existing graph versus rebuilding the whole graph from every batch so
//! far, and (b) re-running BFS after a batch, which is the full
//! "update-then-query" cycle of the experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egraph_bench::first_active_node;
use egraph_core::graph::EvolvingGraph;
use egraph_gen::stream::{apply_batch, rebuild_from_batches, EdgeStream};
use egraph_query::Search;

fn incremental(c: &mut Criterion) {
    let num_nodes = 5_000usize;
    let num_timestamps = 10usize;
    let batch_size = 20_000usize;
    let num_batches = 5usize;

    // Pre-generate the batches so both strategies replay identical data.
    let mut stream = EdgeStream::new(num_nodes, num_timestamps, batch_size, 0xABC);
    let batches: Vec<Vec<(u32, u32, u32)>> =
        (0..num_batches).map(|_| stream.next_batch()).collect();

    let mut group = c.benchmark_group("incremental_updates");
    group.sample_size(10);

    for k in 1..=num_batches {
        // Strategy A: the graph already holds k-1 batches; apply the k-th.
        group.bench_with_input(BenchmarkId::new("apply_one_batch", k), &k, |b, &k| {
            b.iter_batched(
                || {
                    let mut g =
                        EdgeStream::new(num_nodes, num_timestamps, batch_size, 0).empty_graph();
                    for batch in &batches[..k - 1] {
                        apply_batch(&mut g, batch);
                    }
                    g
                },
                |mut g| {
                    apply_batch(&mut g, &batches[k - 1]);
                    std::hint::black_box(g.num_static_edges())
                },
                criterion::BatchSize::LargeInput,
            )
        });

        // Strategy B: rebuild everything from scratch out of k batches.
        group.bench_with_input(BenchmarkId::new("rebuild_from_scratch", k), &k, |b, &k| {
            b.iter(|| {
                let g = rebuild_from_batches(num_nodes, num_timestamps, &batches[..k]);
                std::hint::black_box(g.num_static_edges())
            })
        });
    }

    // The full update-then-query cycle after all batches.
    let full = rebuild_from_batches(num_nodes, num_timestamps, &batches);
    let root = first_active_node(&full);
    group.bench_function("bfs_after_updates", |b| {
        b.iter(|| std::hint::black_box(Search::from(root).run(&full).unwrap().num_reached()))
    });

    group.finish();
}

criterion_group!(benches, incremental);
criterion_main!(benches);
