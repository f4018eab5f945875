//! What every workload shares: the measured-phase meter, the failure book
//! and the report the command prints.

use std::time::Instant;

use egraph_serve::Client;

use crate::sys::{self, CpuTicks, Tail};
use crate::trace::Tracer;

/// Episodes a run makes at least, so `setup_s` is a median of several.
const MIN_EPISODES: usize = 3;

/// Runs whole episodes until `seconds` have passed and at least
/// [`MIN_EPISODES`] ran, or until one fails.
pub fn repeat_episodes(seconds: u64, book: &mut Book, mut episode: impl FnMut(&mut Book)) {
    let start = Instant::now();
    for done in 1.. {
        episode(book);
        if book.failed > 0 || (done >= MIN_EPISODES && start.elapsed().as_secs() >= seconds) {
            break;
        }
    }
}

/// Totals over the measured phases of a run (set-up and verification are
/// never inside one).
#[derive(Default)]
pub struct Measured {
    pub ops: u64,
    pub wall_s: f64,
    pub process_cpu_s: f64,
    pub loadgen_cpu_s: f64,
    pub ticks_total: u64,
    pub ticks_steal: u64,
    /// Per measured phase: median op latency (µs) and server CPU per op
    /// (µs), to tell a disturbed episode from a slow program.
    pub phases: Vec<(f64, f64)>,
}

impl Measured {
    /// CPU the server spent per operation: process CPU minus the load
    /// generator thread's own.
    pub fn server_cpu_us_per_op(&self) -> f64 {
        (self.process_cpu_s - self.loadgen_cpu_s) / self.ops.max(1) as f64 * 1e6
    }

    pub fn steal_share(&self) -> f64 {
        sys::steal_share(
            CpuTicks::default(),
            CpuTicks {
                total: self.ticks_total,
                steal: self.ticks_steal,
            },
        )
    }
}

/// One measured phase in progress. Must be started and stopped on the
/// load-generator thread.
pub struct Meter {
    wall: Instant,
    process_cpu_s: f64,
    thread_cpu_s: f64,
    ticks: CpuTicks,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            ticks: sys::cpu_ticks(),
            wall: Instant::now(),
            process_cpu_s: sys::process_cpu_s(),
            thread_cpu_s: sys::thread_cpu_s(),
        }
    }

    /// Ends the phase and adds it, with the latencies of its ops, to
    /// `into`.
    pub fn stop(self, op_us: &[f64], into: &mut Measured) {
        let thread_cpu_s = sys::thread_cpu_s();
        let process_cpu_s = sys::process_cpu_s();
        let wall_s = self.wall.elapsed().as_secs_f64();
        let ticks = sys::cpu_ticks();
        let server_cpu_s =
            (process_cpu_s - self.process_cpu_s) - (thread_cpu_s - self.thread_cpu_s);
        into.phases.push((
            sys::median_or_zero(op_us),
            server_cpu_s / op_us.len().max(1) as f64 * 1e6,
        ));
        into.ops += op_us.len() as u64;
        into.wall_s += wall_s;
        into.process_cpu_s += process_cpu_s - self.process_cpu_s;
        into.loadgen_cpu_s += thread_cpu_s - self.thread_cpu_s;
        into.ticks_total += ticks.total.saturating_sub(self.ticks.total);
        into.ticks_steal += ticks.steal.saturating_sub(self.ticks.steal);
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Book {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Book {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// A whole-run check (an exact count) that is not tied to one op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// `POST path` and time it from send to the last body byte. A transport
/// error or a non-200 is a failed op.
pub fn timed_post(
    client: &Client,
    path: &str,
    body: &str,
    book: &mut Book,
    latencies_us: &mut Vec<f64>,
) -> Option<String> {
    book.attempted += 1;
    let start = Instant::now();
    let response = client.post(path, body);
    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
    match response {
        Ok(response) if response.status == 200 => Some(response.body),
        Ok(response) => {
            book.fail(format!(
                "{path} answered {}: {}",
                response.status, response.body
            ));
            None
        }
        Err(err) => {
            book.fail(format!("{path} transport error: {err}"));
            None
        }
    }
}

/// One `GET /health` round trip, in µs: the transport and HTTP cost of a
/// request whose handler does nothing.
pub fn health_rtt_us(client: &Client, book: &mut Book) -> Option<f64> {
    book.attempted += 1;
    let start = Instant::now();
    match client.get("/health") {
        Ok(response) if response.status == 200 => Some(start.elapsed().as_secs_f64() * 1e6),
        Ok(response) => {
            book.fail(format!("/health answered {}", response.status));
            None
        }
        Err(err) => {
            book.fail(format!("/health transport error: {err}"));
            None
        }
    }
}

/// A named metric with its unit, in print order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What the host was doing during the measured phases.
#[derive(Clone, Copy)]
pub struct Noise {
    pub steal_pct: f64,
    pub loadgen_cpu_s: f64,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub noise_record: Option<Noise>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Restarts the peak-RSS count once the inputs are made, before the
    /// first set-up.
    pub fn reset_rss_peak(&mut self) {
        if let Err(err) = sys::reset_rss_peak() {
            self.note(format!(
                "rss: VmHWM not reset, the peak covers input generation too: {err}"
            ));
        }
    }

    /// The end-to-end metrics of an untraced run, and its noise record.
    pub fn end_to_end(&mut self, setup_s: &[f64], op_us: &[f64], measured: &Measured) {
        self.metric("setup_s", sys::median(setup_s), "s");
        self.metric("op_p50_us", sys::median(op_us), "us");
        self.metric(
            "server_cpu_us_per_op",
            measured.server_cpu_us_per_op(),
            "us",
        );
        self.metric("rss_peak_mb", sys::rss_peak_mb(), "MB");
        self.noise(measured);
    }

    /// Median self time (µs) of each `(metric, span)` pair's span; 0 for a
    /// span the replay never entered.
    pub fn self_times(&mut self, tracer: &Tracer, pairs: &[(&str, &str)]) {
        let self_us = tracer.self_us_by_name();
        for (metric, span) in pairs {
            let value = self_us.get(span).map_or(0.0, |v| sys::median(v));
            self.metric(metric, value, "us");
        }
    }

    /// Sets the traced per-operation totals (layer self times plus the
    /// wire transports) against the untraced `op_p50_us`.
    pub fn reconcile(&mut self, untraced_us: f64, traced_us: &[f64]) {
        let layers_sum_us = sys::median(traced_us);
        self.metric("reconcile.untraced_op_p50_us", untraced_us, "us");
        self.metric("reconcile.layers_sum_us", layers_sum_us, "us");
        self.metric("reconcile.ratio", layers_sum_us / untraced_us, "ratio");
        self.metric("trace.overhead_us", layers_sum_us - untraced_us, "us");
    }

    /// The tail line every workload prints: p50, p99 and p999 with the
    /// sample count and the samples beyond each.
    pub fn tail(&mut self, what: &str, samples_us: &[f64]) {
        if samples_us.is_empty() {
            self.note(format!("tail {what}: no samples"));
            return;
        }
        let tail = Tail::of(samples_us);
        self.note(format!(
            "tail {what}: n={} p50={:.1}us p99={:.1}us ({} beyond) p999={:.1}us ({} beyond)",
            tail.count,
            tail.p50,
            tail.p99.value,
            tail.p99.beyond,
            tail.p999.value,
            tail.p999.beyond
        ));
    }

    /// The noise record: what the host was doing while the phase ran.
    pub fn noise(&mut self, measured: &Measured) {
        self.noise_record = Some(Noise {
            steal_pct: measured.steal_share() * 100.0,
            loadgen_cpu_s: measured.loadgen_cpu_s,
        });
        self.note(format!(
            "noise: steal={:.2}% loadgen_cpu={:.3}s measured_wall={:.3}s ops={} nproc={} pool_threads={}",
            measured.steal_share() * 100.0,
            measured.loadgen_cpu_s,
            measured.wall_s,
            measured.ops,
            crate::nproc(),
            rayon::current_num_threads()
        ));
        let phases: Vec<String> = measured
            .phases
            .iter()
            .map(|(p50, cpu)| format!("{p50:.0}/{cpu:.0}"))
            .collect();
        self.note(format!(
            "episodes (op p50 us / server cpu us per op): {}",
            phases.join(" ")
        ));
    }
}
