//! cartbench — end-to-end and per-layer benchmark of the
//! cartesian-collectives runtime and the cartserve daemon.
//!
//! ```text
//! cartbench --workload <halo-latency|halo-bulk|halo-reduce|serve-mix|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--inject-delay-us <µs>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics (see `METRICS.md`). Every
//! output is checked; any failure makes the exit code non-zero. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--inject-delay-us` spins that long inside every timed operation —
//! the known slowdown `compare.py selfcheck` uses to show that the
//! comparison catches a regression.

mod awake;
mod halo;
mod host;
mod serve_mix;
mod spans;
mod stats;
mod steal;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use spans::SpanReport;

/// Where runs leave their result, trace and socket files (relative to
/// the working directory, which is the checkout root).
pub const RUN_DIR: &str = ".cartbench-run";

/// The end-to-end metrics of every workload, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not pass through reads 0 (see `METRICS.md`).
const PER_LAYER: [(&str, &str); 30] = [
    ("topo.create_us", "us"),
    ("schedule.build_us", "us"),
    ("compile.plan_us", "us"),
    ("compile.spans", "count"),
    ("plan_store.hit_ratio", "ratio"),
    ("plan_store.evictions", "count"),
    ("kernel.gather_ns_per_byte", "ns/B"),
    ("kernel.scatter_ns_per_byte", "ns/B"),
    ("kernel.accumulate_ns_per_byte", "ns/B"),
    ("kernel.pack_bytes_per_op", "B"),
    ("kernel.pack_spans_per_op", "count"),
    ("comm.rounds_per_op", "count"),
    ("comm.wire_bytes_per_op", "B"),
    ("comm.msgs_matched_per_op", "count"),
    ("comm.pingpong_us", "us"),
    ("comm.copy_ns_per_byte", "ns/B"),
    ("comm.pool_hit_ratio", "ratio"),
    ("exec.skew_us_p50", "us"),
    ("exec.round_us_p50", "us"),
    ("model.alpha_us", "us"),
    ("model.beta_ns_per_byte", "ns/B"),
    ("model.residual", "ratio"),
    ("serve.queue_us", "us"),
    ("serve.coalesce_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.busy_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

const WORKLOADS: [&str; 4] = ["halo-latency", "halo-bulk", "halo-reduce", "serve-mix"];

/// SplitMix64: the benchmark's only source of pseudo-randomness, so the
/// same seed gives the same inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-layer metric values of a traced run, by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub ranks: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Window medians of the untraced measured phase (latencies in µs).
    pub stats: stats::PhaseStats,
    pub setup_s: f64,
    pub working_set_bytes: u64,
    pub layers: Option<Layers>,
    pub spans: Option<SpanReport>,
}

impl Outcome {
    pub fn new(ranks: usize) -> Self {
        Outcome {
            ranks,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            stats: stats::PhaseStats::default(),
            setup_s: 0.0,
            working_set_bytes: 0,
            layers: None,
            spans: None,
        }
    }

    /// Record a failure description (the first few are kept).
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let values = [
            self.stats.p50,
            self.stats.p90,
            self.stats.ops_per_s,
            self.setup_s,
            host::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    }

    fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| {
                let v = self.layers.as_ref().and_then(|l| l.0.get(n)).copied();
                (n, u, v.unwrap_or(0.0))
            })
            .collect()
    }
}

/// Liveness: operation counters and a watchdog that ends a hung run.
///
/// Blocking receives have no deadline, so a rank that stops early (or a
/// daemon that never replies) would hang the run. The watchdog ends the
/// process when nothing progresses for [`progress::STALL`] or the run
/// outlives its hard limit (twice the measured time plus two minutes per
/// workload), counting every started-but-unfinished
/// operation as failed, and exits non-zero.
pub mod progress {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    pub const STALL: Duration = Duration::from_secs(20);

    static STARTED: AtomicU64 = AtomicU64::new(0);
    static FINISHED: AtomicU64 = AtomicU64::new(0);
    static BEATS: AtomicU64 = AtomicU64::new(0);

    pub fn start_op() {
        STARTED.fetch_add(1, Ordering::Relaxed);
    }

    pub fn finish_op() {
        FINISHED.fetch_add(1, Ordering::Relaxed);
    }

    /// Progress outside timed operations (set-up, probes).
    pub fn beat() {
        BEATS.fetch_add(1, Ordering::Relaxed);
    }

    /// Start the watchdog. It is never joined: it lives as long as the
    /// process and ends it when it fires.
    pub fn spawn_watchdog(limit: Duration) {
        let t0 = Instant::now();
        std::thread::Builder::new()
            .name("cartbench-watchdog".into())
            .spawn(move || {
                let mut last = (0, 0);
                let mut last_change = Instant::now();
                loop {
                    std::thread::sleep(Duration::from_millis(100));
                    let now = (FINISHED.load(Ordering::Relaxed), BEATS.load(Ordering::Relaxed));
                    if now != last {
                        last = now;
                        last_change = Instant::now();
                    }
                    let stalled = last_change.elapsed() >= STALL;
                    if stalled || t0.elapsed() >= limit {
                        let started = STARTED.load(Ordering::Relaxed);
                        let outstanding = started.saturating_sub(now.0);
                        eprintln!(
                            "cartbench: watchdog: {} after {:.1} s; {outstanding} outstanding op(s) counted as failed",
                            if stalled { "no progress" } else { "time limit hit" },
                            t0.elapsed().as_secs_f64()
                        );
                        println!(
                            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                            started.max(1),
                            outstanding.max(1)
                        );
                        std::process::exit(3);
                    }
                }
            })
            .expect("spawn watchdog");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject: Duration::ZERO,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            "--inject-delay-us" => {
                let us: f64 = val()?
                    .parse()
                    .map_err(|e| format!("--inject-delay-us: {e}"))?;
                a.inject = Duration::from_secs_f64(us.max(0.0) / 1e6);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run_workload(name: &str, a: &Args) -> Outcome {
    match name {
        "halo-latency" => halo::run(halo::Halo::Latency, a.seed, a.seconds, a.trace, a.inject),
        "halo-bulk" => halo::run(halo::Halo::Bulk, a.seed, a.seconds, a.trace, a.inject),
        "halo-reduce" => halo::run(halo::Halo::Reduce, a.seed, a.seconds, a.trace, a.inject),
        "serve-mix" => serve_mix::run(a.seed, a.seconds, a.trace, a.inject),
        _ => unreachable!("workload names are validated"),
    }
}

fn metrics_json(metrics: &[(String, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (n, u, v)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
            if i > 0 { ", " } else { "" },
            json_num(*v)
        );
    }
    out.push('}');
    out
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cartbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    progress::spawn_watchdog(Duration::from_secs_f64(
        (2.0 * a.seconds + 120.0) * names.len() as f64,
    ));
    if let Err(e) = std::fs::create_dir_all(RUN_DIR) {
        eprintln!("cartbench: cannot create {RUN_DIR}: {e}");
        std::process::exit(2);
    }
    let mut host = host::Host::probe();
    let spinners = awake::Spinners::start(host.cores);
    host.idle_spinners = spinners.active;

    let mut all_metrics: Vec<(String, &str, f64)> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for name in &names {
        let o = run_workload(name, &a);
        let host_json = host.to_json(o.ranks, o.working_set_bytes);
        let metrics = if a.trace {
            o.per_layer()
        } else {
            o.end_to_end()
        };
        let failed_ratio = stats::ratio(o.failed as f64, o.attempted as f64);

        println!(
            "== {name} (seed {}, {} s, trace {})",
            a.seed, a.seconds, a.trace as u8
        );
        println!("host {host_json}");
        for (n, u, v) in &metrics {
            println!("  {n:<32} {v:>16.6} {u}");
        }
        println!(
            "  {:<32} {:>16.6} ratio ({} failed of {} attempted)",
            "failed_ratio", failed_ratio, o.failed, o.attempted
        );
        println!(
            "  windows kept: {} of {} (at most 2 % steal, or the least-stolen quarter); steal {:.1} % of CPU time",
            o.stats.kept,
            o.stats.windows,
            100.0 * o.stats.steal
        );
        for f in &o.failures {
            println!("  FAILURE: {f}");
        }

        let tag = format!("{name}-seed{}-trace{}", a.seed, a.trace as u8);
        let named: Vec<(String, &str, f64)> = metrics
            .iter()
            .map(|(n, u, v)| (n.to_string(), *u, *v))
            .collect();
        let record = format!(
            "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host_json},\"attempted\":{},\"failed\":{},\"failed_ratio\":{},\"windows\":{},\"windows_kept\":{},\"steal_share\":{},\"metrics\":{}}}\n",
            a.seed,
            json_num(a.seconds),
            a.trace,
            o.attempted,
            o.failed,
            json_num(failed_ratio),
            o.stats.windows,
            o.stats.kept,
            json_num(o.stats.steal),
            metrics_json(&named)
        );
        let _ = std::fs::write(format!("{RUN_DIR}/result-{tag}.json"), record);
        if let Some(report) = &o.spans {
            let path = format!("{RUN_DIR}/spans-{tag}.json");
            let _ = std::fs::write(&path, report.to_json());
            eprintln!(
                "self times ({name}; spans written to {path}):\n{}",
                report.table()
            );
        }

        attempted += o.attempted;
        failed += o.failed;
        correct &= o.correct();
        if names.len() == 1 {
            all_metrics = named;
        } else {
            all_metrics.extend(
                named
                    .into_iter()
                    .map(|(n, u, v)| (format!("{name}.{n}"), u, v)),
            );
        }
    }
    spinners.stop();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(&all_metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
