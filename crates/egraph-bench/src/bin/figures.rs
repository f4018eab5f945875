//! `figures` — regenerate the paper's figures and worked examples as text
//! tables, without Criterion overhead.
//!
//! ```text
//! cargo run --release -p egraph-bench --bin figures            # everything
//! cargo run --release -p egraph-bench --bin figures -- fig5    # one figure
//! cargo run --release -p egraph-bench --bin figures -- fig5 --scale 4
//! ```
//!
//! Experiment identifiers (one section each; `paper` selects the first
//! three, `ablations` the last three): `fig1-3`, `fig4`, `eq2`, `fig5`,
//! `sec5`, `abl-a`, `abl-b`, `abl-c`.

use std::time::Instant;

use egraph_baselines::naive_product::{naive_path_count, NaiveScheme};
use egraph_bench::{
    alg_comparison_workload, citation_workload, figure5_sweep, first_active_node,
    parallel_bfs_workload, Figure5Config,
};
use egraph_citation::community::community_of;
use egraph_citation::influence::influence_set;
use egraph_citation::model::CitationNetwork;
use egraph_citation::rank::top_influencers;
use egraph_core::examples::paper_figure1;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TemporalNode, TimeIndex};
use egraph_core::paths::enumerate_paths;
use egraph_gen::citation::synthetic_citation_corpus;
use egraph_gen::random::figure5_workload;
use egraph_gen::stream::{apply_batch, rebuild_from_batches, EdgeStream};
use egraph_io::report::{linear_fit, SeriesTable};
use egraph_matrix::algebraic_bfs::{algebraic_bfs_blocked, algebraic_bfs_dense};
use egraph_matrix::block::BlockAdjacency;
use egraph_matrix::path_count::{iterate_sequence, total_path_count};
use egraph_query::{Search, Strategy};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.parse::<usize>().is_err())
        .map(|s| s.as_str())
        .collect();
    let all = which.is_empty() || which.contains(&"all");

    if all || which.contains(&"fig1-3") || which.contains(&"paper") {
        fig1_to_3();
    }
    if all || which.contains(&"fig4") || which.contains(&"paper") {
        fig4();
    }
    if all || which.contains(&"eq2") || which.contains(&"paper") {
        eq2();
    }
    if all || which.contains(&"fig5") {
        fig5(scale);
    }
    if all || which.contains(&"sec5") {
        sec5();
    }
    if all || which.contains(&"abl-a") || which.contains(&"ablations") {
        abl_a();
    }
    if all || which.contains(&"abl-b") || which.contains(&"ablations") {
        abl_b(scale);
    }
    if all || which.contains(&"abl-c") || which.contains(&"ablations") {
        abl_c();
    }
}

fn parse_scale(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// FIG1-3: the worked example — active nodes, forward neighbors, the two
/// temporal paths of Figure 2 and the BFS trace of Figure 3.
fn fig1_to_3() {
    let g = paper_figure1();

    let mut t = SeriesTable::new(
        "FIG1-3: Figure 1 example — BFS distances from (1,t1) and (1,t2)",
        &["temporal node", "dist from (1,t1)", "dist from (1,t2)"],
    );
    let from_t1 = Search::from(TemporalNode::from_raw(0, 0)).run(&g).unwrap();
    let from_t2 = Search::from(TemporalNode::from_raw(0, 1)).run(&g).unwrap();
    for &tn in &g.active_nodes() {
        let label = format!("({}, t{})", tn.node.0 + 1, tn.time.0 + 1);
        let d1 = from_t1
            .distance(tn)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        let d2 = from_t2
            .distance(tn)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        t.push_row(&[label, d1, d2]);
    }
    print!("{}", t.to_text());

    let paths = enumerate_paths(
        &g,
        TemporalNode::from_raw(0, 0),
        TemporalNode::from_raw(2, 2),
        4,
    );
    println!(
        "Temporal paths of length 4 from (1,t1) to (3,t3): {} (paper: 2)",
        paths.len()
    );
    for p in &paths {
        let pretty: Vec<String> = p
            .iter()
            .map(|tn| format!("({},t{})", tn.node.0 + 1, tn.time.0 + 1))
            .collect();
        println!("  {}", pretty.join(" -> "));
    }
    println!();
}

/// FIG4: the equivalent static graph, the block matrix A3 and the power
/// iteration sequence of Section III-C.
fn fig4() {
    let g = paper_figure1();
    let blocks = BlockAdjacency::from_graph(&g);
    let (an, labels) = blocks.to_dense_an();

    let mut t = SeriesTable::new(
        "FIG4: adjacency matrix A3 of the equivalent static graph",
        &["row \\ col", "1t1", "2t1", "1t2", "3t2", "2t3", "3t3"],
    );
    for (i, &tn) in labels.iter().enumerate() {
        let mut row = vec![format!("({},t{})", tn.node.0 + 1, tn.time.0 + 1)];
        for j in 0..labels.len() {
            row.push(format!("{}", an.get(i, j) as i64));
        }
        t.push_row(&row);
    }
    print!("{}", t.to_text());

    let (_, iterates) = iterate_sequence(&g, TemporalNode::from_raw(0, 0), 4);
    println!("Power iteration (A3^T)^k e_(1,t1), k = 0..4:");
    for (k, it) in iterates.iter().enumerate() {
        let pretty: Vec<String> = it.iter().map(|x| format!("{}", *x as i64)).collect();
        println!("  k={k}: [{}]", pretty.join(", "));
    }
    println!(
        "Path count from (1,t1) to (3,t3) via block matrix: {} (paper: 2)\n",
        total_path_count(
            &g,
            TemporalNode::from_raw(0, 0),
            TemporalNode::from_raw(2, 2)
        )
    );
}

/// EQ2: the naïve path-sum miscount of Section III-A.
fn eq2() {
    let g = paper_figure1();
    let mut t = SeriesTable::new(
        "EQ2: naive adjacency-product counts vs correct counts (Figure 1 graph)",
        &["pair", "eq2 path sum", "identity padded", "correct"],
    );
    for (src, dst, label) in [
        (NodeId(0), NodeId(2), "1 -> 3"),
        (NodeId(0), NodeId(1), "1 -> 2"),
        (NodeId(2), NodeId(2), "3 -> 3"),
    ] {
        let naive = naive_path_count(&g, NaiveScheme::PathSum, src, dst);
        let padded = naive_path_count(&g, NaiveScheme::IdentityPadded, src, dst);
        let correct = total_path_count(
            &g,
            TemporalNode::new(src, TimeIndex(0)),
            TemporalNode::new(dst, TimeIndex(2)),
        );
        t.push_row(&[
            label.to_string(),
            format!("{naive}"),
            format!("{padded}"),
            format!("{correct}"),
        ]);
    }
    print!("{}", t.to_text());
    println!("The paper's miscount: the (1,3) entry of S[t3] is 1, the true count is 2.\n");
}

/// FIG5: linear scaling of Algorithm 1 in |Ẽ|.
fn fig5(scale: usize) {
    let config = Figure5Config {
        base_edges: 100_000 * scale,
        ..Figure5Config::default()
    };
    println!(
        "FIG5 workload: {} nodes, {} time stamps, base |E~| = {} (paper: 1e5 nodes, 10 stamps, 1e8 edges)",
        config.num_nodes, config.num_timestamps, config.base_edges
    );
    let sweep = figure5_sweep(&config);
    let mut t = SeriesTable::new(
        "FIG5: Algorithm 1 run time vs number of static edges",
        &["|E~|", "time_ms", "reached", "ns_per_edge"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (edges, graph, root) in &sweep {
        // Best of five runs to damp noise, as is conventional for timing.
        let mut best = f64::INFINITY;
        let mut reached = 0usize;
        for _ in 0..5 {
            let start = Instant::now();
            let result = Search::from(*root).run(graph).unwrap();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            reached = result.num_reached();
            best = best.min(elapsed);
        }
        xs.push(*edges as f64);
        ys.push(best);
        t.push_numeric_row(&[
            *edges as f64,
            best,
            reached as f64,
            best * 1e6 / *edges as f64,
        ]);
    }
    print!("{}", t.to_text());
    let (slope, intercept, r2) = linear_fit(&xs, &ys);
    println!(
        "Linear fit: time_ms = {:.3e} * |E~| + {:.3}, R^2 = {:.4} (paper: visually linear)\n",
        slope, intercept, r2
    );
}

/// SEC5: citation mining on the synthetic corpus.
fn sec5() {
    let corpus = synthetic_citation_corpus(&citation_workload());
    let network = CitationNetwork::from_corpus(&corpus);
    println!(
        "SEC5 corpus: {} authors, {} epochs, {} citations",
        network.num_authors(),
        network.num_epochs(),
        network.num_citations()
    );

    let start = Instant::now();
    let top = top_influencers(&network, 10);
    let rank_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut t = SeriesTable::new(
        "SEC5: top-10 authors by |T(a, first active epoch)|",
        &["author", "epoch", "influenced"],
    );
    for s in &top {
        t.push_row(&[
            format!("{}", s.author),
            format!("{}", s.epoch),
            format!("{}", s.influenced),
        ]);
    }
    print!("{}", t.to_text());

    let star = top[0].author;
    let epoch = top[0].epoch;
    let influence = influence_set(&network, star, epoch).unwrap();
    let community = community_of(&network, star, epoch).unwrap();
    println!(
        "Author {} at epoch {}: |T| = {}, |community| = {}; full ranking took {:.1} ms\n",
        star,
        epoch,
        influence.len(),
        community.len(),
        rank_ms
    );
}

/// ABL-A: Algorithm 1 vs Algorithm 2 (blocked and dense).
fn abl_a() {
    let mut t = SeriesTable::new(
        "ABL-A: Algorithm 1 vs Algorithm 2 (times in ms)",
        &["nodes", "alg1", "alg2_blocked", "alg2_dense"],
    );
    for &n in &[100usize, 200, 400, 800] {
        let (graph, root) = alg_comparison_workload(n, 0xAB1A + n as u64);
        let alg1 = time_ms(|| Search::from(root).run(&graph).unwrap().num_reached());
        let blocks = BlockAdjacency::from_graph(&graph);
        let alg2 = time_ms(|| algebraic_bfs_blocked(&blocks, root).num_reached());
        let dense = if n <= 400 {
            time_ms(|| algebraic_bfs_dense(&graph, root).unwrap().num_reached())
        } else {
            f64::NAN
        };
        t.push_row(&[
            format!("{n}"),
            format!("{alg1:.3}"),
            format!("{alg2:.3}"),
            if dense.is_nan() {
                "-".into()
            } else {
                format!("{dense:.3}")
            },
        ]);
    }
    println!("{}", t.to_text());
}

/// ABL-B: serial vs parallel BFS.
fn abl_b(scale: usize) {
    let mut t = SeriesTable::new(
        "ABL-B: serial vs rayon frontier-parallel BFS (times in ms)",
        &["scale", "nodes", "edges", "serial", "parallel", "speedup"],
    );
    for &s in &[scale, scale * 2] {
        let (graph, root) = parallel_bfs_workload(s, 0xB0B + s as u64);
        let serial = time_ms(|| Search::from(root).run(&graph).unwrap().num_reached());
        let query = Search::from(root).strategy(Strategy::Parallel);
        let parallel = time_ms(|| query.run(&graph).unwrap().num_reached());
        t.push_row(&[
            format!("{s}"),
            format!("{}", graph.num_nodes()),
            format!("{}", graph.num_static_edges()),
            format!("{serial:.2}"),
            format!("{parallel:.2}"),
            format!("{:.2}x", serial / parallel),
        ]);
    }
    println!("{}", t.to_text());
}

/// ABL-C: incremental insertion vs rebuild.
fn abl_c() {
    let num_nodes = 5_000usize;
    let num_timestamps = 10usize;
    let batch_size = 20_000usize;
    let mut stream = EdgeStream::new(num_nodes, num_timestamps, batch_size, 0xABC);
    let batches: Vec<_> = (0..5).map(|_| stream.next_batch()).collect();

    let mut t = SeriesTable::new(
        "ABL-C: incremental insertion vs rebuild (times in ms)",
        &[
            "batches applied",
            "apply_one_batch",
            "rebuild_all",
            "bfs_after",
        ],
    );
    let mut incremental = stream.empty_graph();
    for (k, batch) in batches.iter().enumerate() {
        let apply = time_ms(|| {
            apply_batch(&mut incremental, batch);
            incremental.num_static_edges()
        });
        let rebuild = time_ms(|| {
            rebuild_from_batches(num_nodes, num_timestamps, &batches[..=k]).num_static_edges()
        });
        let root = first_active_node(&incremental);
        let query = time_ms(|| Search::from(root).run(&incremental).unwrap().num_reached());
        t.push_row(&[
            format!("{}", k + 1),
            format!("{apply:.2}"),
            format!("{rebuild:.2}"),
            format!("{query:.2}"),
        ]);
    }
    println!("{}", t.to_text());

    // Sanity context: same workload built once, timed end to end.
    let total_edges = batches.iter().map(|b| b.len()).sum::<usize>();
    let once =
        time_ms(|| figure5_workload(num_nodes, num_timestamps, total_edges, 7).num_static_edges());
    println!("(building the same {total_edges} edges in one shot takes {once:.2} ms)\n");
}

fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}
