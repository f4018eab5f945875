//! QB — overhead and strategy dispatch of the unified `Search` builder.
//!
//! The builder is a thin layer over the engines: a `Search` run must cost the
//! same as calling the engine directly, and the three strategies must be
//! selectable without changing the query text. This bench pins the builder
//! overhead (the kernel's `distances` vs `Search::run`) and the windowed path
//! (view composition + coordinate remapping).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egraph_bench::alg_comparison_workload;
use egraph_core::kernel::distances;
use egraph_query::{Search, Strategy};

fn query_builder(c: &mut Criterion) {
    let (graph, root) = alg_comparison_workload(400, 0x9B1D);

    let mut group = c.benchmark_group("query_builder");
    group.sample_size(10);

    group.bench_function("direct_bfs", |b| {
        b.iter(|| {
            let map = distances(&graph, root, false, usize::MAX).unwrap();
            std::hint::black_box(map.num_reached())
        })
    });

    for (label, strategy) in [
        ("search_serial", Strategy::Serial),
        ("search_parallel", Strategy::Parallel),
        ("search_algebraic", Strategy::Algebraic),
    ] {
        group.bench_with_input(BenchmarkId::new(label, 400), &strategy, |b, &strategy| {
            b.iter(|| {
                let result = Search::from(root).strategy(strategy).run(&graph).unwrap();
                std::hint::black_box(result.num_reached())
            })
        });
    }

    group.bench_function("search_windowed_suffix", |b| {
        b.iter(|| {
            let result = Search::from(root)
                .window(root.time.0..)
                .run(&graph)
                .unwrap();
            std::hint::black_box(result.num_reached())
        })
    });

    group.bench_function("search_backward", |b| {
        b.iter(|| {
            let result = Search::from(root).backward().run(&graph).unwrap();
            std::hint::black_box(result.num_reached())
        })
    });

    group.finish();
}

criterion_group!(benches, query_builder);
criterion_main!(benches);
