//! The three store workloads: a durable 3-site ODV loopback fleet with
//! 2 shards, one pipelined connection and one client thread per shard
//! coordinator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dynvote_store::conn::{ConnOptions, Connection};
use dynvote_store::ShardRouter;

use crate::fleet::{field, peer_sends, process_cpu_secs, Fleet};
use crate::history::History;
use crate::load::{key_pools, Lane, LoadGen, OpStream, Tally};
use crate::stats::{percentile, ratio, sorted, SplitMix};
use crate::trace::{LayerTotals, Tracer};
use crate::{replay, Ctx, Measured};

const SITES: usize = 3;
const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Operations of the workload's stream the traced replay drives.
const REPLAY_OPS: usize = 4096;

pub struct Spec {
    pub keys_per_shard: usize,
    pub write_pct: u64,
    /// Requests in flight per connection.
    pub depth: usize,
}

/// The status counters a run compares before and after its window.
#[derive(Default)]
struct Counters {
    batch_ops: u64,
    batch_rounds: u64,
    quorum_rounds: u64,
    peer_sends: u64,
    ledger_bytes: u64,
}

fn counters(fleet: &Fleet, tracer: &mut Tracer) -> Result<Counters, String> {
    let mut c = Counters {
        ledger_bytes: fleet.ledger_bytes(),
        ..Counters::default()
    };
    for shard in 0..SHARDS as u16 {
        for site in 0..SITES {
            let status = tracer.time("store.status", 0, None, || fleet.status(site, shard))?;
            c.peer_sends += peer_sends(&status);
            if fleet.map.shards[shard as usize].coordinator() == site {
                c.batch_ops += field(&status, "batch.ops");
                c.batch_rounds += field(&status, "batch.rounds");
                c.quorum_rounds += field(&status, "reads_ok") + field(&status, "writes_ok");
            }
        }
    }
    Ok(c)
}

/// Runs `f` once per lane, each on its own thread with its own
/// connection.
fn on_lanes<R: Send>(
    lanes: &mut [Lane],
    conns: &[Connection],
    f: impl Fn(&Connection, &mut Lane) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(conns)
            .map(|(lane, conn)| scope.spawn(move || f(conn, lane)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    })
}

struct Window {
    tally: Tally,
    tracer: Tracer,
    /// Wall time from opening to the last answer.
    secs: f64,
    slices: Vec<Slice>,
}

/// One slice of a window: completions per second and, when any
/// completed, the slice's latency percentiles.
struct Slice {
    rate: f64,
    /// Requests granted in the slice and the daemons' CPU time, s.
    ops: usize,
    cpu_secs: f64,
    /// Share of the machine's CPU time the hypervisor stole.
    steal: f64,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
}

/// Slice length, s.
const SLICE_SECS: f64 = 1.0;

/// What the sampler reads at every slice boundary.
#[derive(Clone, Copy)]
struct Bound {
    /// s after the window opened.
    at: f64,
    /// The machine's (stolen, all) CPU ticks.
    ticks: (u64, u64),
    /// The daemons' CPU time so far, s.
    cpu_secs: f64,
}

/// Cuts a window into slices at the sampled boundaries, assigning each
/// answer to the slice it completed in.
fn slices(tally: &Tally, bounds: &[Bound]) -> Vec<Slice> {
    let n = bounds.len().saturating_sub(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (&ms, &done) in tally.latency_ms.iter().zip(&tally.done_s) {
        let k = bounds.partition_point(|b| b.at <= done);
        if (1..=n).contains(&k) {
            buckets[k - 1].push(ms);
        }
    }
    buckets
        .into_iter()
        .zip(bounds.windows(2))
        .map(|(bucket, pair)| {
            let (a, b) = (pair[0], pair[1]);
            let sorted = sorted(bucket);
            let (p50_ms, p99_ms) = if sorted.is_empty() {
                (None, None)
            } else {
                (
                    Some(percentile(&sorted, 0.5)),
                    Some(percentile(&sorted, 0.99)),
                )
            };
            Slice {
                rate: sorted.len() as f64 / (b.at - a.at),
                ops: sorted.len(),
                cpu_secs: b.cpu_secs - a.cpu_secs,
                steal: ratio(
                    (b.ticks.0 - a.ticks.0) as f64,
                    (b.ticks.1 - a.ticks.1) as f64,
                ),
                p50_ms,
                p99_ms,
            }
        })
        .collect()
}

/// The median of `f` over the half of `slices` in which the
/// hypervisor stole the least CPU.
fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> Option<f64>) -> f64 {
    let values: Vec<f64> = least_stolen(slices).filter_map(f).collect();
    crate::stats::median(&values)
}

/// The half of `slices`, rounded up, in which the hypervisor stole the
/// least CPU.
fn least_stolen(slices: &[Slice]) -> impl Iterator<Item = &Slice> {
    let steal: Vec<f64> = slices.iter().map(|s| s.steal).collect();
    crate::stats::least_stolen_half(&steal)
        .into_iter()
        .map(move |i| &slices[i])
}

/// The daemons' CPU time per granted request over the least-stolen
/// half of the slices, ms.
fn cpu_ms_per_op(slices: &[Slice]) -> f64 {
    let (cpu, ops) =
        least_stolen(slices).fold((0.0, 0), |(cpu, ops), s| (cpu + s.cpu_secs, ops + s.ops));
    ratio(cpu * 1e3, ops as f64)
}

/// Offers the workload on every lane for `secs`.
fn window(
    spec: &Spec,
    lanes: &mut [Lane],
    conns: &[Connection],
    fleet: &Fleet,
    secs_window: f64,
    trace: bool,
    t0: Instant,
) -> Window {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs_window);
    let len = SLICE_SECS.min(secs_window);
    // The machine's and the daemons' CPU counters at every slice
    // boundary.
    let daemons = fleet.stat_paths();
    let epoch = fleet.map.epoch;
    let sampler = std::thread::spawn(move || {
        let mut bounds = Vec::new();
        for k in 0..=((end - start).as_secs_f64() / len).floor() as u32 {
            let at = start + Duration::from_secs_f64(f64::from(k) * len);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let now = Instant::now()
                .saturating_duration_since(start)
                .as_secs_f64();
            bounds.push(Bound {
                at: now,
                ticks: crate::fleet::cpu_ticks(),
                cpu_secs: daemons.iter().map(|p| process_cpu_secs(p)).sum(),
            });
        }
        bounds
    });
    let results = on_lanes(lanes, conns, |conn, lane| {
        let mut tracer = Tracer::new(trace, t0);
        let mut load = LoadGen::new(conn, lane, epoch, &mut tracer);
        load.drive(spec.depth, start, end);
        (std::mem::take(&mut load.tally), tracer)
    });
    let secs = start.elapsed().as_secs_f64();
    let mut w = Window {
        tally: Tally::default(),
        tracer: Tracer::new(trace, t0),
        secs,
        slices: Vec::new(),
    };
    for (tally, tracer) in results {
        w.tally.absorb(tally);
        w.tracer.absorb(tracer);
    }
    let bounds = sampler.join().expect("CPU sampler panicked");
    w.slices = slices(&w.tally, &bounds);
    w
}

/// Throughput, the figure tracing could slow.
fn headline(w: &Window) -> f64 {
    slice_median(&w.slices, |s| Some(s.rate))
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<Measured, String> {
    crate::history::self_test()?;
    let t0 = Instant::now();
    let fleet_dir = ctx.work.join("fleet");
    let tag = (SplitMix::new(ctx.seed).next_u64() >> 32) as u32;
    let mut setup = Vec::with_capacity(SETUPS);
    let mut live = None;
    for round in 0..SETUPS {
        let started = Instant::now();
        let fleet = Fleet::boot(&ctx.daemon, &fleet_dir, SITES, SHARDS)?;
        let mut lanes: Vec<Lane> = key_pools(&fleet.map, ctx.seed, spec.keys_per_shard)
            .into_iter()
            .enumerate()
            .map(|(shard, keys)| Lane {
                shard: shard as u16,
                history: History::new(keys.len(), tag),
                stream: OpStream::new(ctx.seed, shard as u16, spec.write_pct, keys.len()),
                keys,
            })
            .collect();
        let conns: Vec<Connection> = lanes
            .iter()
            .map(|lane| {
                let addr = fleet
                    .map
                    .coordinator_addr(lane.shard)
                    .expect("every shard has a coordinator");
                Connection::new(addr, ConnOptions::default())
            })
            .collect();
        let epoch = fleet.map.epoch;
        let fills = on_lanes(&mut lanes, &conns, |conn, lane| {
            let mut tracer = Tracer::new(false, t0);
            let mut load = LoadGen::new(conn, lane, epoch, &mut tracer);
            load.fill();
            std::mem::take(&mut load.tally)
        });
        setup.push(started.elapsed().as_secs_f64());
        for fill in fills {
            if fill.failed() > 0 {
                println!("set-up fill: {}", fill.summary());
            }
        }
        if round + 1 == SETUPS {
            live = Some((fleet, lanes, conns));
        } else {
            drop(conns);
            fleet.stop();
        }
    }
    let (fleet, mut lanes, conns) = live.expect("at least one set-up");
    let mut status_tracer = Tracer::new(ctx.trace, t0);
    let before = counters(&fleet, &mut status_tracer)?;
    let windows = if ctx.trace {
        let half = ctx.seconds / 2.0;
        let plain = window(spec, &mut lanes, &conns, &fleet, half, false, t0);
        let traced = window(spec, &mut lanes, &conns, &fleet, half, true, t0);
        vec![plain, traced]
    } else {
        vec![window(
            spec,
            &mut lanes,
            &conns,
            &fleet,
            ctx.seconds,
            false,
            t0,
        )]
    };
    let after = counters(&fleet, &mut status_tracer)?;
    let peak_rss_mb = fleet.peak_rss_mb();
    drop(conns);

    // Every key, read back through a fresh router.
    let router = ShardRouter::new(vec![fleet.addrs[0].clone()], ConnOptions::default());
    let mut readback_problems = Vec::new();
    let mut readback_keys = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| {
                let router = &router;
                scope.spawn(move || crate::load::read_back(router, lane))
            })
            .collect();
        for handle in handles {
            let (keys, problems) = handle.join().expect("read-back thread panicked");
            readback_keys += keys;
            readback_problems.extend(problems);
        }
    });
    drop(router);

    let mut tally = Tally::default();
    let mut secs = 0.0;
    let mut all_slices = Vec::new();
    let mut tracer = status_tracer;
    // Wall-clock figures come from the untraced window (the first half
    // of a traced run).
    let rate = slice_median(&windows[0].slices, |s| Some(s.rate));
    let cpu_ms = cpu_ms_per_op(&windows[0].slices);
    let p50 = slice_median(&windows[0].slices, |s| s.p50_ms);
    let p99 = slice_median(&windows[0].slices, |s| s.p99_ms);
    let overhead = match windows.as_slice() {
        [plain, traced] => {
            let (p, t) = (headline(plain), headline(traced));
            Some(100.0 * (p - t) / p)
        }
        _ => None,
    };
    for w in windows {
        secs += w.secs;
        tally.absorb(w.tally);
        tracer.absorb(w.tracer);
        all_slices.extend(w.slices);
    }
    println!("operations: {}", tally.summary());
    let cpu_secs: f64 = all_slices.iter().map(|s| s.cpu_secs).sum();
    println!(
        "cpu: the daemons used {cpu_secs:.2} s over the slices, {:.4} ms per granted operation; \
         {cpu_ms:.4} ms over the least-stolen half",
        cpu_secs * 1e3 / all_slices.iter().map(|s| s.ops).sum::<usize>().max(1) as f64
    );
    for note in &tally.notes {
        println!("wrong answer: {note}");
    }
    println!(
        "read-back: {readback_keys} keys through a fresh router, {} mismatches",
        readback_problems.len()
    );
    for problem in readback_problems.iter().take(5) {
        println!("read-back failed: {problem}");
    }

    let latency = sorted(tally.latency_ms.clone());
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("setup_s", crate::stats::median(&setup));
    put("cpu_ms_per_op", cpu_ms);
    put("peak_rss_mb", peak_rss_mb);
    println!(
        "least-stolen half of the slices: {rate:.1} granted/s, p50 {p50:.3} ms, p99 {p99:.3} ms"
    );
    println!(
        "whole run: {} granted in {secs:.2} s ({:.1}/s), p50 {:.3} ms, p99 {:.3} ms; set-ups (s): {setup:?}",
        latency.len(),
        latency.len() as f64 / secs,
        percentile(&latency, 0.5),
        percentile(&latency, 0.99),
    );
    println!(
        "slices of {} s (rate/s, p50 ms, p99 ms, CPU stolen): {}",
        SLICE_SECS,
        all_slices
            .iter()
            .map(|s| format!(
                "{:.0} {:.2} {:.2} {:.0}%",
                s.rate,
                s.p50_ms.unwrap_or(0.0),
                s.p99_ms.unwrap_or(0.0),
                100.0 * s.steal
            ))
            .collect::<Vec<_>>()
            .join(" | ")
    );

    if let Some(overhead) = overhead {
        put("trace.overhead_pct", overhead);
        put("client.throughput_rps", rate);
        put("client.latency_p50_ms", p50);
        put("client.latency_p99_ms", p99);
        let d = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
        let rounds = d(|c| c.batch_rounds);
        put(
            "store.server.ops_per_batch",
            ratio(d(|c| c.batch_ops), rounds),
        );
        put(
            "store.server.quorum_rounds_per_batch",
            ratio(d(|c| c.quorum_rounds), rounds),
        );
        put(
            "replica.cluster.peer_msgs_per_request",
            ratio(d(|c| c.peer_sends), tally.granted() as f64),
        );
        put(
            "store.probe.ledger_bytes_per_write",
            ratio(d(|c| c.ledger_bytes), tally.granted_puts as f64),
        );
        put(
            "store.client.read_p50_ms",
            percentile(&sorted(tally.read_ms.clone()), 0.5),
        );
        put(
            "store.client.write_p50_ms",
            percentile(&sorted(tally.write_ms.clone()), 0.5),
        );
        let live = tracer.layers();
        let mean = |layers: &BTreeMap<&str, LayerTotals>, name: &str| {
            layers.get(name).map_or(0.0, LayerTotals::mean_ns)
        };
        put(
            "store.conn.submit_us",
            mean(&live, "store.conn.submit") / 1e3,
        );
        put("store.conn.wait_us", mean(&live, "store.conn.wait") / 1e3);
        put("store.status.call_ms", mean(&live, "store.status") / 1e6);
        put(
            "machine.steal_pct",
            100.0 * all_slices.iter().map(|s| s.steal).sum::<f64>()
                / all_slices.len().max(1) as f64,
        );

        // The same stream, replayed in process through each layer.
        let lane = &lanes[0];
        let mut image_history = History::new(lane.keys.len(), tag);
        let image: BTreeMap<String, Vec<u8>> = (0..lane.keys.len() as u32)
            .map(|k| (lane.keys[k as usize].clone(), image_history.submit_put(k).0))
            .collect();
        let batch = ratio(d(|c| c.batch_ops), rounds).round().clamp(1.0, 256.0) as usize;
        let mut stream = OpStream::new(ctx.seed, lane.shard, spec.write_pct, lane.keys.len());
        let mut replay_tracer = Tracer::new(true, t0);
        let counts = replay::run(
            &image,
            &lane.keys,
            &mut stream,
            REPLAY_OPS,
            batch,
            &ctx.work.join("replay"),
            &mut replay_tracer,
        )?;
        let layers = replay_tracer.layers();
        put("store.wire.encode_ns", mean(&layers, "store.wire.encode"));
        put("store.wire.decode_ns", mean(&layers, "store.wire.decode"));
        put(
            "store.wire.request_bytes",
            ratio(counts.request_bytes as f64, counts.requests as f64),
        );
        put(
            "store.wire.reply_bytes",
            ratio(counts.reply_bytes as f64, counts.replies as f64),
        );
        put(
            "replica.cluster.read_us",
            mean(&layers, "replica.cluster.read") / 1e3,
        );
        put(
            "replica.cluster.write_batch_us",
            mean(&layers, "replica.cluster.write_batch") / 1e3,
        );
        put(
            "control.kv.encode_us",
            mean(&layers, "control.kv.encode") / 1e3,
        );
        put(
            "control.kv.decode_us",
            mean(&layers, "control.kv.decode") / 1e3,
        );
        put(
            "control.kv.image_bytes",
            ratio(counts.image_bytes as f64, counts.images as f64),
        );
        put(
            "replica.wal.append_fsync_us",
            mean(&layers, "replica.wal.append_fsync") / 1e3,
        );
        put(
            "replica.wal.bytes_per_write",
            ratio(counts.wal_bytes as f64, counts.wal_puts as f64),
        );
        put(
            "store.probe.note_commit_us",
            mean(&layers, "store.probe.note_commit") / 1e3,
        );
        put(
            "core.decision.decide_ns",
            mean(&layers, "core.decision.decide"),
        );
        // Self time per replayed operation, by layer (a span name's
        // first two parts); the batch span's own share is the replay's
        // bookkeeping.
        let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
        for (name, totals) in &layers {
            let layer = match name.rsplit_once('.') {
                Some(("replay", "batch")) => "bench".to_string(),
                Some((layer, _)) => layer.to_string(),
                None => name.to_string(),
            };
            *by_layer.entry(layer).or_default() += totals.self_ns;
        }
        for (layer, self_ns) in by_layer {
            put(
                &format!("self.{layer}_us_per_op"),
                self_ns as f64 / 1e3 / counts.ops as f64,
            );
        }
        tracer.absorb(replay_tracer);
        tracer
            .write_tsv(&ctx.trace_file)
            .map_err(|e| format!("writing {}: {e}", ctx.trace_file.display()))?;
    }
    fleet.stop();
    Ok(Measured {
        correct: tally.wrong == 0 && readback_problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed(),
        values,
    })
}
