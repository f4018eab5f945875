//! A self-contained rerun of the paper's Figure 5 experiment: generate
//! uniform random evolving graphs of growing static edge count, run
//! Algorithm 1 on each, and check that run time grows linearly in |Ẽ|
//! (Theorem 2).
//!
//! Run with `cargo run --release --example linear_scaling -- [scale]`
//! where `scale` multiplies the base edge count (default 1 ⇒ 10⁵–5×10⁵
//! edges; the paper uses 10⁸–5×10⁸ on a 1 TB machine).

use std::time::Instant;

use evolving_graphs::io::report::{linear_fit, SeriesTable};
use evolving_graphs::prelude::*;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let num_nodes = 10_000;
    let num_timestamps = 10;
    let base_edges = 100_000 * scale;
    let steps = [1.0, 1.5, 1.8, 2.5, 3.5, 5.0];

    println!(
        "Figure 5 reproduction: {num_nodes} nodes, {num_timestamps} time stamps, \
         |E~| from {} to {}",
        base_edges,
        (base_edges as f64 * steps.last().unwrap()) as usize
    );

    let mut table = SeriesTable::new(
        "Algorithm 1 run time vs static edge count",
        &["|E~|", "time_ms", "reached"],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();

    for &step in &steps {
        let edges = (base_edges as f64 * step) as usize;
        let graph = figure5_workload(num_nodes, num_timestamps, edges, 0xF165);
        let root = graph.active_nodes()[0];

        // Best of five timed runs.
        let mut best = f64::INFINITY;
        let mut reached = 0;
        for _ in 0..5 {
            let start = Instant::now();
            let result = Search::from(root).run(&graph).expect("root is active");
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
            reached = result.num_reached();
        }
        xs.push(edges as f64);
        ys.push(best);
        table.push_numeric_row(&[edges as f64, best, reached as f64]);
    }

    print!("{}", table.to_text());
    let (slope, intercept, r2) = linear_fit(&xs, &ys);
    println!("linear fit: time_ms ≈ {slope:.3e}·|E~| + {intercept:.3},  R² = {r2:.4}");
    println!("(the paper reports visually linear scaling; R² close to 1 reproduces that shape)");
}
