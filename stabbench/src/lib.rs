//! # stabbench
//!
//! The repository's benchmark: publish→stable latency and sustained
//! throughput on the deterministic simulator, with values passed as is
//! (`sim-geo`) or encoded and framed (`wire-small`, `wire-8k`), and a
//! traced run that splits the work into the library's layers and runs
//! the wire workloads' traffic on the localhost TCP runtime. See
//! `README.md` beside this crate.

pub mod check;
pub mod clock;
pub mod layers;
pub mod loopback;
pub mod report;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod trace;

use report::Report;
use stabilizer_core::Metrics;
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::CallStats;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim-geo", "wire-small", "wire-8k"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1
    /// [--trace-dir DIR]`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag.as_str(), value.as_str());
        }
        let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
        let workload = get("--workload")?.to_owned();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        // The same default as `run.py`: `<target dir>/stabbench-traces`.
        let trace_dir = flags.get("--trace-dir").map_or_else(
            || {
                let target = std::env::var_os("CARGO_TARGET_DIR")
                    .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
                target.join("stabbench-traces")
            },
            PathBuf::from,
        );
        for k in flags.keys() {
            if ![
                "--workload",
                "--seed",
                "--seconds",
                "--trace",
                "--trace-dir",
            ]
            .contains(k)
            {
                return Err(format!("unknown flag {k}"));
            }
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            trace_dir,
        })
    }
}

/// Calls timed in the traced run. Every traced run reports all of them
/// (with zero calls where a workload bypasses the layer).
pub const TIMED_CALLS: [&str; 17] = [
    "node.publish",
    "node.on_data",
    "node.on_ack",
    "node.take_actions",
    "recorder.observe",
    "frontier.on_ack_advance",
    "dsl.eval",
    "data_plane.send_publish",
    "data_plane.reclaim",
    "data_plane.recv_on_data",
    "messages.encode",
    "messages.decode",
    "framing.write",
    "framing.read",
    "netsim.step",
    "handle.publish",
    "shard.publish",
];

/// Counts behind the per-layer ratios.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Node counters summed over the cluster.
    pub metrics: Metrics,
    /// Publishes the counters cover.
    pub pubs: u64,
    /// Simulator events processed (sim only).
    pub sim_events: u64,
    /// Worst link queueing delay in ms (sim only).
    pub sim_max_queue_ms: f64,
    /// Frames written by the TCP runtime (TCP only).
    pub frames: u64,
    /// Bytes written by the TCP runtime (TCP only).
    pub wire_bytes: u64,
    /// Publishes the transport counters cover (TCP only).
    pub transport_pubs: u64,
    /// Failed connect attempts (TCP only).
    pub connect_attempts: u64,
    /// Reconnects after the first connect (TCP only).
    pub reconnects: u64,
    /// Open-loop generator lateness p99 in µs (`wire-8k` only).
    pub late_p99_us: f64,
    /// Share of handle publish calls that took at least 1 ms (TCP only).
    pub blocked_ratio: f64,
    /// Threaded TCP runtime, untraced: stable messages per wall second
    /// (TCP only).
    pub runtime_tput: f64,
    /// The same run's publish→stable median in µs (TCP only).
    pub runtime_stable_p50_us: f64,
    /// Mean wall-clock set-up time of the threaded clusters (TCP only).
    pub runtime_setup_s: f64,
}

/// Counters summed over nodes.
pub fn sum_metrics(ms: impl IntoIterator<Item = Metrics>) -> Metrics {
    let mut t = Metrics::default();
    for m in ms {
        t.data_msgs_sent += m.data_msgs_sent;
        t.data_bytes_sent += m.data_bytes_sent;
        t.control_msgs_sent += m.control_msgs_sent;
        t.acks_sent += m.acks_sent;
        t.deliveries += m.deliveries;
        t.acks_received += m.acks_received;
        t.acks_stale += m.acks_stale;
        t.retransmits += m.retransmits;
        t.predicate_evals += m.predicate_evals;
        t.frontier_updates += m.frontier_updates;
    }
    t
}

/// Emit every per-layer metric into `rep`.
pub fn layer_metrics(
    rep: &mut Report,
    c: &Counts,
    calls: &BTreeMap<&'static str, CallStats>,
    runtime_overhead: f64,
    trace_overhead: f64,
) {
    let m = &c.metrics;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.put(
        "node.control_msgs_per_pub",
        ratio(m.control_msgs_sent, c.pubs),
        "msgs/pub",
    );
    rep.put(
        "node.ack_cells_per_pub",
        ratio(m.acks_sent, c.pubs),
        "cells/pub",
    );
    rep.put(
        "node.data_msgs_per_pub",
        ratio(m.data_msgs_sent, c.pubs),
        "msgs/pub",
    );
    rep.put(
        "node.stale_ack_ratio",
        ratio(m.acks_stale, m.acks_received + m.acks_stale),
        "ratio",
    );
    rep.put("node.retransmits", m.retransmits as f64, "count");
    rep.put(
        "frontier.evals_per_ack",
        ratio(m.predicate_evals, m.acks_received),
        "evals/cell",
    );
    rep.put(
        "frontier.useful_eval_ratio",
        ratio(m.frontier_updates, m.predicate_evals),
        "ratio",
    );
    rep.put(
        "netsim.events_per_pub",
        ratio(c.sim_events, c.pubs),
        "events/pub",
    );
    rep.put("netsim.max_queue_delay_ms", c.sim_max_queue_ms, "ms");
    rep.put(
        "transport.frames_per_pub",
        ratio(c.frames, c.transport_pubs),
        "frames/pub",
    );
    rep.put(
        "transport.wire_bytes_per_pub",
        ratio(c.wire_bytes, c.transport_pubs),
        "B/pub",
    );
    rep.put(
        "transport.connect_attempts",
        c.connect_attempts as f64,
        "count",
    );
    rep.put("transport.reconnects", c.reconnects as f64, "count");
    rep.put("loadgen.late_p99_us", c.late_p99_us, "us");
    rep.put("handle.publish_blocked_ratio", c.blocked_ratio, "ratio");
    rep.put("runtime.tput_msgs_per_s", c.runtime_tput, "1/s");
    rep.put("runtime.stable_p50_us", c.runtime_stable_p50_us, "us");
    rep.put("runtime.setup_s", c.runtime_setup_s, "s");
    rep.put("runtime.overhead_ratio", runtime_overhead, "ratio");
    rep.put("trace.overhead_ratio", trace_overhead, "ratio");
    for name in TIMED_CALLS {
        rep.put_calls(name, calls.get(name).copied().unwrap_or_default());
    }
}

/// Write a traced run's spans to `<trace dir>/<workload>.csv`.
///
/// # Errors
///
/// The file could not be written.
pub fn write_spans(
    rep: &mut Report,
    tr: &trace::Tracer,
    args: &Args,
) -> Result<(), stabilizer_core::CoreError> {
    let path = args.trace_dir.join(format!("{}.csv", args.workload));
    tr.write(&path).map_err(|e| {
        stabilizer_core::CoreError::Config(format!("writing {}: {e}", path.display()))
    })?;
    rep.note(format!(
        "{} spans recorded, the first {} per name written to {}",
        tr.len(),
        trace::WRITTEN_PER_NAME,
        path.display()
    ));
    Ok(())
}

/// Run one workload as `args` asks.
///
/// # Errors
///
/// Setup failures (config, bind, predicate compile).
pub fn run(args: &Args) -> Result<Report, stabilizer_core::CoreError> {
    match (args.workload.as_str(), args.trace) {
        ("sim-geo", false) => sim::run(args, &sim::SIM_GEO),
        ("sim-geo", true) => sim::run_traced(args),
        ("wire-small", false) => sim::run(args, &sim::WIRE_SMALL),
        ("wire-small", true) => tcp::run_traced(args, tcp::Kind::Small),
        ("wire-8k", false) => sim::run(args, &sim::WIRE_8K),
        ("wire-8k", true) => tcp::run_traced(args, tcp::Kind::EightK),
        (w, _) => unreachable!("workload {w} is checked by Args::parse"),
    }
}
