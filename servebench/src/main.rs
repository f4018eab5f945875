//! `servebench`: the end-to-end benchmark of the query server.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload query_hot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process starts an in-process `egraph_serve::Server` on loopback and
//! drives it with `egraph_serve::Client` from one closed-loop load-generator
//! thread (the main thread). With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it replays the same inputs through each
//! layer's public functions and prints the per-layer metrics. The last
//! line of standard output is the result as one JSON object. Answers are
//! checked against a twin built from the same inputs; any failure makes
//! the command exit non-zero. See `README.md` beside this crate.

mod harness;
mod ingest;
mod inputs;
mod query;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use egraph_stream::QueryCache;

use harness::{Book, Report};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["query_hot", "query_cold", "ingest_durable"];

/// Printed with `--trace 0`: what an operator of `egraph-serve` pays.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("server_cpu_us_per_op", "us"),
    ("rss_peak_mb", "MB"),
];

/// Printed with `--trace 1`. A layer the workload never enters reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("serve.transport_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.seal_ack_p50_us", "us"),
    ("serve.frame_p50_us", "us"),
    ("serve.read_p50_us", "us"),
    ("query.decode_us", "us"),
    ("query.encode_us", "us"),
    ("query.body_bytes", "B"),
    ("stream.cache_peek_us", "us"),
    ("stream.cache_execute_us", "us"),
    ("stream.cache_hits", "count"),
    ("stream.cache_misses", "count"),
    ("stream.cache_extensions", "count"),
    ("stream.cache_resettles", "count"),
    ("stream.cache_recomputes", "count"),
    ("stream.cache_evictions", "count"),
    ("stream.cache_entries", "count"),
    ("stream.live_apply_us", "us"),
    ("stream.live_seal_us", "us"),
    ("core.engine_serial_us", "us"),
    ("core.engine_parallel_us", "us"),
    ("core.engine_shared_us", "us"),
    ("core.engine_calls", "count"),
    ("core.neighbors_delivered", "count"),
    ("core.expansions", "count"),
    ("log.append_us", "us"),
    ("log.seal_us", "us"),
    ("log.seal_wait_us", "us"),
    ("log.checkpoint_us", "us"),
    ("log.segment_bytes", "B"),
    ("log.checkpoint_bytes", "B"),
    ("log.bytes_per_event", "B"),
    ("recover.checkpoint_load_us", "us"),
    ("recover.replay_us", "us"),
    ("recover.replayed_events", "count"),
    ("reconcile.untraced_op_p50_us", "us"),
    ("reconcile.layers_sum_us", "us"),
    ("reconcile.ratio", "ratio"),
    ("trace.overhead_us", "us"),
    ("noise.steal_pct", "%"),
    ("noise.loadgen_cpu_s", "s"),
    ("noise.host_ref_ms", "ms"),
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where runs leave their records and traces, and keep their data
/// directories while they run: `.servebench/` under the working directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".servebench");
    std::fs::create_dir_all(&dir).expect("the working directory is writable");
    dir
}

/// The exact cache counters of a traced replay.
pub fn cache_metrics(cache: &QueryCache, report: &mut Report) {
    let stats = cache.stats();
    report.metric("stream.cache_hits", stats.hits as f64, "count");
    report.metric("stream.cache_misses", stats.misses as f64, "count");
    report.metric(
        "stream.cache_extensions",
        (stats.extensions + stats.extended_shared) as f64,
        "count",
    );
    report.metric(
        "stream.cache_resettles",
        stats.stable_core_resettled as f64,
        "count",
    );
    report.metric("stream.cache_recomputes", stats.recomputes as f64, "count");
    report.metric("stream.cache_evictions", stats.evictions as f64, "count");
    report.metric("stream.cache_entries", cache.len() as f64, "count");
}

/// Writes the traced replay's spans as JSON lines and notes where.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64, report: &mut Report) {
    let path = out_dir().join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(err) => report.note(format!("trace: could not write {}: {err}", path.display())),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match number()? {
                0 => trace = Some(false),
                1 => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or \"all\""
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// The metrics the contract asks for in this mode, in order: a missing
/// per-layer one reads 0, a missing end-to-end one is a failure.
fn result_metrics(
    report: &Report,
    trace: bool,
    book: &mut Book,
) -> Vec<(&'static str, f64, &'static str)> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for metric in &report.metrics {
        assert!(
            names.iter().any(|(name, _)| *name == metric.name),
            "metric {} is not listed for this mode",
            metric.name
        );
    }
    names
        .iter()
        .map(|&(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value);
            match value {
                Some(value) if value.is_finite() => (name, value, unit),
                _ if trace && value.is_none() => (name, 0.0, unit),
                _ => {
                    book.fail(format!("metric {name} was not measured"));
                    (name, 0.0, unit)
                }
            }
        })
        .collect()
}

/// `--workload all`: every workload in turn, each in a process of its own
/// so none inherits another's peak memory or warm pool. Fails if any does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("servebench: cannot find this executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|status| status.success()) {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        println!("all: every workload passed");
        ExitCode::SUCCESS
    } else {
        println!("all: FAILED {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servebench: {err}");
            eprintln!(
                "usage: servebench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Pin the server's pool to one thread per core before anything
    // builds the global pool.
    std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());

    let host_ref_start_ms = sys::host_ref_ms();
    let mut report = Report::default();
    let mut book = Book::default();
    match args.workload.as_str() {
        "query_hot" => query::run(
            query::Kind::Hot,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
            &mut book,
        ),
        "query_cold" => query::run(
            query::Kind::Cold,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
            &mut book,
        ),
        _ => ingest::run(args.seed, args.seconds, args.trace, &mut report, &mut book),
    }
    let host_ref_end_ms = sys::host_ref_ms();
    report.note(format!(
        "noise: host_ref_ms start={host_ref_start_ms:.1} end={host_ref_end_ms:.1}"
    ));
    if let (true, Some(noise)) = (args.trace, report.noise_record) {
        report.metric("noise.steal_pct", noise.steal_pct, "%");
        report.metric("noise.loadgen_cpu_s", noise.loadgen_cpu_s, "s");
        report.metric(
            "noise.host_ref_ms",
            (host_ref_start_ms + host_ref_end_ms) / 2.0,
            "ms",
        );
    }
    let metrics = result_metrics(&report, args.trace, &mut book);

    let mut lines = report.notes.clone();
    lines.extend(
        book.reasons
            .iter()
            .map(|reason| format!("FAILED: {reason}")),
    );
    lines.push(format!(
        "failed_frac: {} ratio ({} of {} attempted)",
        book.failed as f64 / book.attempted.max(1) as f64,
        book.failed,
        book.attempted
    ));
    lines.extend(
        metrics
            .iter()
            .map(|(name, value, unit)| format!("{name}: {value} {unit}")),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    lines.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        book.failed == 0,
        book.attempted.max(1),
        book.failed,
        body.join(", ")
    ));
    let record = out_dir().join(format!(
        "record-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(err) = std::fs::write(&record, lines.join("\n") + "\n") {
        eprintln!("servebench: could not write {}: {err}", record.display());
    }
    // The result is the last line.
    for line in &lines {
        println!("{line}");
    }
    if book.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
