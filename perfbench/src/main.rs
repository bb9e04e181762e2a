//! The repository's benchmark: three workloads over the durable keyed
//! store and the Figure 8 model checker, every output checked, every
//! metric printed by name with its unit. See `perfbench/README.md`.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`).

mod checkwl;
mod fleet;
mod history;
mod load;
mod replay;
mod stats;
mod store;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{Metric, Outcome};

/// The end-to-end metrics, reported on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.throughput_rps", "1/s"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("store.conn.submit_us", "us"),
    ("store.conn.wait_us", "us"),
    ("store.client.read_p50_ms", "ms"),
    ("store.client.write_p50_ms", "ms"),
    ("store.status.call_ms", "ms"),
    ("machine.steal_pct", "%"),
    ("store.wire.encode_ns", "ns"),
    ("store.wire.decode_ns", "ns"),
    ("store.wire.request_bytes", "bytes"),
    ("store.wire.reply_bytes", "bytes"),
    ("store.server.ops_per_batch", "ops"),
    ("store.server.quorum_rounds_per_batch", "rounds"),
    ("replica.cluster.read_us", "us"),
    ("replica.cluster.write_batch_us", "us"),
    ("replica.cluster.peer_msgs_per_request", "msgs"),
    ("control.kv.encode_us", "us"),
    ("control.kv.decode_us", "us"),
    ("control.kv.image_bytes", "bytes"),
    ("replica.wal.append_fsync_us", "us"),
    ("replica.wal.bytes_per_write", "bytes"),
    ("store.probe.note_commit_us", "us"),
    ("store.probe.ledger_bytes_per_write", "bytes"),
    ("core.decision.decide_ns", "ns"),
    ("self.store.wire_us_per_op", "us"),
    ("self.replica.cluster_us_per_op", "us"),
    ("self.control.kv_us_per_op", "us"),
    ("self.core.decision_us_per_op", "us"),
    ("self.store.probe_us_per_op", "us"),
    ("self.replica.wal_us_per_op", "us"),
    ("self.bench_us_per_op", "us"),
    ("checker.mcv.states_per_s", "1/s"),
    ("checker.dv.states_per_s", "1/s"),
    ("checker.ldv.states_per_s", "1/s"),
    ("checker.odv.states_per_s", "1/s"),
    ("checker.tdv.states_per_s", "1/s"),
    ("checker.otdv.states_per_s", "1/s"),
    ("checker.states_per_s", "1/s"),
    ("checker.dedup_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `dynvote-stored` binary.
    pub daemon: PathBuf,
    /// Scratch space for data directories, removed when the run ends.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

/// What a workload measured.
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
}

const USAGE: &str =
    "usage: dynvote-perfbench --workload kv-write-small|kv-write-large|check-figure8 \
--seed N --seconds S --trace 0|1 [--bin-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("release");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--bin-dir" => bin_dir = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        bin_dir,
    })
}

fn run(args: &Args, ctx: &Ctx) -> Result<Measured, String> {
    let store = |keys_per_shard, write_pct, depth| {
        store::run(
            &store::Spec {
                keys_per_shard,
                write_pct,
                depth,
            },
            ctx,
        )
    };
    match args.workload.as_str() {
        // Three batches' worth in flight per connection keeps every
        // batch full (the daemon drains at most 256 operations per
        // batch), so batch boundaries do not depend on timing.
        "kv-write-small" => store(32, 90, 768),
        "kv-write-large" => store(2048, 90, 768),
        "check-figure8" => checkwl::run_workload(ctx),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("dynvote-perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let daemon = args.bin_dir.join("dynvote-stored");
    if !daemon.is_file() {
        eprintln!(
            "dynvote-perfbench: {} not found; build it first (perfbench/run.sh does)",
            daemon.display()
        );
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        daemon,
        work: PathBuf::from(".bench_data").join(format!("run-{}", std::process::id())),
        trace_file: PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed)),
    };
    let result = run(&args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".bench_data");
    let measured = match result {
        Ok(measured) => measured,
        Err(error) => {
            eprintln!("dynvote-perfbench: {}: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for name in measured.values.keys() {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name);
        assert!(known, "metric {name} is not declared");
    }
    let metrics: Vec<Metric> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = measured.values.get(name).copied();
            assert!(
                value.is_some() || args.trace,
                "end-to-end metric {name} was not measured"
            );
            Metric::new(name, value.unwrap_or(0.0), unit)
        })
        .collect();
    for metric in &metrics {
        println!("{:<40} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    let outcome = Outcome {
        correct: measured.correct,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
    };
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
