//! FIG1-3 / FIG4 — micro-benchmarks on the paper's worked example: the
//! Figure 1 graph, its BFS traces, its temporal-path enumeration, the
//! Theorem 1 equivalent static graph and the Section III-C block matrices.
//!
//! These are not performance claims from the paper; they exist so the worked
//! example stays cheap (regressions in constant factors on tiny graphs are
//! caught here) and so `cargo bench` exercises every code path the figures
//! rely on.

use criterion::{criterion_group, criterion_main, Criterion};
use egraph_core::examples::paper_figure1;
use egraph_core::ids::TemporalNode;
use egraph_core::paths::enumerate_paths;
use egraph_core::static_equiv::EquivalentStaticGraph;
use egraph_matrix::block::BlockAdjacency;
use egraph_matrix::path_count::total_path_count;
use egraph_query::Search;

fn paper_example(c: &mut Criterion) {
    let g = paper_figure1();
    let root_t1 = TemporalNode::from_raw(0, 0);
    let root_t2 = TemporalNode::from_raw(0, 1);
    let target = TemporalNode::from_raw(2, 2);

    let mut group = c.benchmark_group("paper_example");

    group.bench_function("fig3_bfs_from_1_t2", |b| {
        b.iter(|| std::hint::black_box(Search::from(root_t2).run(&g).unwrap().num_reached()))
    });

    group.bench_function("fig2_bfs_with_parents_from_1_t1", |b| {
        b.iter(|| {
            let result = Search::from(root_t1).with_parents().run(&g).unwrap();
            std::hint::black_box(result.path_to(target).unwrap().len())
        })
    });

    group.bench_function("fig2_enumerate_temporal_paths", |b| {
        b.iter(|| std::hint::black_box(enumerate_paths(&g, root_t1, target, 4).len()))
    });

    group.bench_function("fig4_equivalent_static_graph_build", |b| {
        b.iter(|| std::hint::black_box(EquivalentStaticGraph::build(&g).num_edges()))
    });

    group.bench_function("fig4_block_matrix_build_and_dense_an", |b| {
        b.iter(|| {
            let blocks = BlockAdjacency::from_graph(&g);
            let (an, labels) = blocks.to_dense_an();
            std::hint::black_box((an.count_nonzeros(), labels.len()))
        })
    });

    group.bench_function("fig4_matrix_path_count", |b| {
        b.iter(|| std::hint::black_box(total_path_count(&g, root_t1, target)))
    });

    group.finish();
}

criterion_group!(benches, paper_example);
criterion_main!(benches);
