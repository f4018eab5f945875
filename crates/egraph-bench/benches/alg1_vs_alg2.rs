//! ABL-A — Algorithm 1 (adjacency lists) versus Algorithm 2 (algebraic BFS)
//! in its blocked-CSC and dense forms.
//!
//! Theorems 2, 5 and 6 predict the ordering: the adjacency-list BFS is
//! `O(|E| + |V|)`, the blocked-sparse power iteration pays an extra factor of
//! the iteration count `k`, and the dense engine pays `O(k |V|²)`. The bench
//! sweeps the node count so the separation (and the dense engine's quadratic
//! blow-up) is visible in the series.
//!
//! Both production-shaped contestants go through the `Search` builder —
//! `Strategy::Serial` and `Strategy::Algebraic`. The prebuilt variant builds
//! one `BlockAdjacency` outside the timed loop and times
//! `algebraic_bfs_blocked` alone, to separate block-assembly cost from
//! iteration cost; the dense engine stays on its free function, as it exists
//! only for this ablation and has no strategy surface.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egraph_bench::alg_comparison_workload;
use egraph_matrix::algebraic_bfs::{algebraic_bfs_blocked, algebraic_bfs_dense};
use egraph_matrix::block::BlockAdjacency;
use egraph_query::{Search, Strategy};

fn alg1_vs_alg2(c: &mut Criterion) {
    let sizes = [100usize, 200, 400, 800];
    let mut group = c.benchmark_group("alg1_vs_alg2");
    group.sample_size(10);

    for &n in &sizes {
        let (graph, root) = alg_comparison_workload(n, 0xAB1A + n as u64);

        group.bench_with_input(BenchmarkId::new("alg1_adjacency", n), &n, |b, _| {
            b.iter(|| {
                let result = Search::from(root).run(&graph).unwrap();
                std::hint::black_box(result.num_reached())
            })
        });

        // The blocked engine is benchmarked both with and without the block
        // construction, to separate assembly cost from iteration cost.
        group.bench_with_input(
            BenchmarkId::new("alg2_blocked_with_build", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let result = Search::from(root)
                        .strategy(Strategy::Algebraic)
                        .run(&graph)
                        .unwrap();
                    std::hint::black_box(result.num_reached())
                })
            },
        );

        let blocks = BlockAdjacency::from_graph(&graph);
        group.bench_with_input(BenchmarkId::new("alg2_blocked_prebuilt", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(algebraic_bfs_blocked(&blocks, root).num_reached()))
        });

        // The dense engine is only feasible for the smaller sizes.
        if n <= 400 {
            group.bench_with_input(BenchmarkId::new("alg2_dense", n), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(algebraic_bfs_dense(&graph, root).unwrap().num_reached())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, alg1_vs_alg2);
criterion_main!(benches);
