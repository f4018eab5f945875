//! MSS — per-source multi-source BFS vs the shared-frontier engine.
//!
//! The per-source loop (the hop strategies of the `Search` builder) costs
//! `O(|E| + |V|)` *per source*; the shared-frontier engine pays it once for
//! the whole source set. Wall clock depends on the
//! pool size of the host, so the bench reports node-expansion counters
//! alongside it: the shared frontier's work stays flat as the source count
//! grows while the per-source loop's grows linearly, at any thread count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::TemporalNode;
use egraph_core::instrument::CountingView;
use egraph_gen::random::figure5_workload;
use egraph_query::{Search, Strategy};

const SOURCE_COUNTS: [usize; 3] = [4, 16, 64];

fn multi_source(c: &mut Criterion) {
    let graph = figure5_workload(2_000, 8, 20_000, 0x3155);
    let actives = graph.active_nodes();

    let mut group = c.benchmark_group("multi_source");
    group.sample_size(10);

    for count in SOURCE_COUNTS {
        let step = (actives.len() / count).max(1);
        let sources: Vec<TemporalNode> =
            actives.iter().copied().step_by(step).take(count).collect();

        // --- Work counters. ------------------------------------------------
        let per_source = Search::from_sources(sources.iter().copied());
        let shared = per_source.clone().strategy(Strategy::SharedFrontier);

        let loop_view = CountingView::new(&graph);
        per_source.run(&loop_view).unwrap();
        let loop_work = loop_view.counters();

        let shared_view = CountingView::new(&graph);
        let shared_reached = shared.run(&shared_view).unwrap().num_reached();
        let shared_work = shared_view.counters();

        // The shared frontier visits each temporal node once overall, the
        // loop once per source that reaches it.
        assert!(
            shared_work.total() <= loop_work.total(),
            "shared frontier must not do more work than the per-source loop"
        );
        println!(
            "multi_source/k{}: node expansions — per-source loop: {}, shared frontier: {} \
             ({:.2}x less work), {} temporal nodes reached",
            sources.len(),
            loop_work.total(),
            shared_work.total(),
            loop_work.total() as f64 / shared_work.total() as f64,
            shared_reached,
        );

        // --- Wall clock. ---------------------------------------------------
        for (label, search) in [
            ("per_source_loop", &per_source),
            ("shared_frontier", &shared),
        ] {
            group.bench_with_input(BenchmarkId::new(label, count), search, |b, search| {
                b.iter(|| std::hint::black_box(search.run(&graph).unwrap().num_sources()))
            });
        }
    }

    group.finish();
}

criterion_group!(benches, multi_source);
criterion_main!(benches);
