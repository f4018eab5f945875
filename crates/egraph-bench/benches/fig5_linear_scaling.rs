//! FIG5 — the paper's Figure 5: run time of Algorithm 1 versus the number of
//! static edges `|Ẽ|` on uniform random evolving graphs, expected to be
//! linear (Theorem 2).
//!
//! Paper parameters: 10⁵ active nodes, 10 time stamps, |Ẽ| from ~1×10⁸ to
//! ~5×10⁸, single core of a Xeon E7-8850 with 1 TB RAM. The reproduction
//! keeps the shape (fixed nodes and snapshots, the same relative edge-count
//! steps) at a scale that completes in seconds; the quantity under test is
//! the *linearity* of the series, not the absolute times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egraph_bench::{figure5_sweep, Figure5Config};
use egraph_query::Search;

fn fig5_linear_scaling(c: &mut Criterion) {
    let config = Figure5Config::default();
    let sweep = figure5_sweep(&config);

    let mut group = c.benchmark_group("fig5_linear_scaling");
    group.sample_size(10);
    for (edges, graph, root) in &sweep {
        group.throughput(Throughput::Elements(*edges as u64));
        group.bench_with_input(
            BenchmarkId::new("alg1_bfs", edges),
            &(graph, root),
            |b, (graph, root)| {
                b.iter(|| {
                    let result = Search::from(**root).run(*graph).expect("root is active");
                    std::hint::black_box(result.num_reached())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fig5_linear_scaling);
criterion_main!(benches);
