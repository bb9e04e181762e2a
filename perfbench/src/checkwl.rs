//! `check-figure8`: the model checker on the paper's Figure 8 topology
//! (8 sites, 3 segments), all six policies, symmetry on, in process
//! through `dynvote_check::run`. One operation is one policy's
//! exhaustive exploration at [`DEPTH`]; a round explores all six.

use std::collections::BTreeMap;
use std::time::Instant;

use dynvote_check::{policy_name, run, CheckConfig, Scenario, ALL_POLICIES};
use dynvote_replica::Protocol;

use crate::fleet::process_cpu_secs;
use crate::stats::{least_stolen_half, median, percentile, ratio, sorted};
use crate::trace::Tracer;
use crate::{Ctx, Measured};

/// The deepest depth whose six-policy round (about 4 s on the 2-core
/// reference machine) fits a 10 s run; depth 6 takes about 26 s.
const DEPTH: usize = 5;
const SITES: usize = 8;
const SEGMENTS: usize = 3;
const THREADS: usize = 2;
/// The second exploration the counts are checked against.
const VERIFY_THREADS: usize = 1;
/// Set-up explores every policy this deep, [`SETUPS`] times.
const SETUP_DEPTH: usize = 3;
const SETUPS: usize = 9;

/// What one exploration found; everything but `secs` must repeat.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counts {
    states: u64,
    dedup: u64,
    transitions: u64,
    real: u64,
    hazards: u64,
    truncated: bool,
}

fn explore(policy: Protocol, depth: usize, threads: usize) -> Result<(Counts, f64), String> {
    let scenario = Scenario::new(policy, SITES, SEGMENTS)?;
    let config = CheckConfig::new(scenario, depth)
        .threads(threads)
        .symmetry(true);
    let started = Instant::now();
    let report = run(&config);
    let secs = started.elapsed().as_secs_f64();
    Ok((
        Counts {
            states: report.states_explored,
            dedup: report.dedup_hits,
            transitions: report.transitions,
            real: report.real_violations,
            hazards: report.known_hazards,
            truncated: report.truncated,
        },
        secs,
    ))
}

/// One round of six explorations.
struct Round {
    secs: f64,
    /// Each exploration's wall time, ms.
    latency_ms: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor stole.
    steal: f64,
    /// CPU time (user + system) this process used, s.
    cpu_secs: f64,
}

struct Window {
    explorations: u64,
    secs: f64,
    rounds: Vec<Round>,
    /// Per policy: (states, secs, dedup, transitions).
    per_policy: BTreeMap<&'static str, (u64, f64, u64, u64)>,
}

/// Whole rounds until `secs` have passed (at least one).
fn window(
    secs: f64,
    tracer: &mut Tracer,
    reference: &mut BTreeMap<&'static str, Counts>,
    problems: &mut Vec<String>,
) -> Result<Window, String> {
    let started = Instant::now();
    let mut w = Window {
        explorations: 0,
        secs: 0.0,
        rounds: Vec::new(),
        per_policy: BTreeMap::new(),
    };
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < secs {
        round += 1;
        let round_started = Instant::now();
        let cpu_before = crate::fleet::cpu_ticks();
        let own_before = process_cpu_secs("/proc/self/stat");
        let mut latency_ms = Vec::with_capacity(ALL_POLICIES.len());
        let parent = tracer.open("checker.round", round, None);
        for &policy in ALL_POLICIES.iter() {
            let name = policy_name(policy);
            let span = tracer.open("checker.explore", round, parent);
            let (counts, took) = explore(policy, DEPTH, THREADS)?;
            tracer.close(span);
            w.explorations += 1;
            latency_ms.push(took * 1e3);
            let entry = w.per_policy.entry(name).or_default();
            entry.0 += counts.states;
            entry.1 += took;
            entry.2 += counts.dedup;
            entry.3 += counts.transitions;
            if counts.real > 0 || counts.truncated {
                problems.push(format!("{name}: {counts:?} (real violation or truncated)"));
            }
            match reference.get(name) {
                Some(first) if *first != counts => {
                    problems.push(format!(
                        "{name}: counts changed between rounds: {first:?} then {counts:?}"
                    ));
                }
                Some(_) => {}
                None => {
                    reference.insert(name, counts);
                }
            }
        }
        tracer.close(parent);
        let cpu_after = crate::fleet::cpu_ticks();
        w.rounds.push(Round {
            secs: round_started.elapsed().as_secs_f64(),
            latency_ms,
            steal: ratio(
                (cpu_after.0 - cpu_before.0) as f64,
                (cpu_after.1 - cpu_before.1) as f64,
            ),
            cpu_secs: process_cpu_secs("/proc/self/stat") - own_before,
        });
    }
    w.secs = started.elapsed().as_secs_f64();
    Ok(w)
}

pub fn run_workload(ctx: &Ctx) -> Result<Measured, String> {
    let epoch = Instant::now();
    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let started = Instant::now();
        for &policy in ALL_POLICIES.iter() {
            explore(policy, SETUP_DEPTH, THREADS)?;
        }
        setup.push(started.elapsed().as_secs_f64());
    }
    let mut reference = BTreeMap::new();
    let mut problems = Vec::new();
    let mut tracer = Tracer::new(false, epoch);
    let windows = if ctx.trace {
        let plain = window(
            ctx.seconds / 2.0,
            &mut tracer,
            &mut reference,
            &mut problems,
        )?;
        tracer.set_on(true);
        let traced = window(
            ctx.seconds / 2.0,
            &mut tracer,
            &mut reference,
            &mut problems,
        )?;
        vec![plain, traced]
    } else {
        vec![window(
            ctx.seconds,
            &mut tracer,
            &mut reference,
            &mut problems,
        )?]
    };
    // The counts must not depend on the thread count.
    for &policy in ALL_POLICIES.iter() {
        let name = policy_name(policy);
        let (counts, _) = explore(policy, DEPTH, VERIFY_THREADS)?;
        if reference.get(name) != Some(&counts) {
            problems.push(format!(
                "{name}: {THREADS} threads found {:?}, {VERIFY_THREADS} thread found {counts:?}",
                reference.get(name)
            ));
        }
    }
    for problem in &problems {
        println!("check failed: {problem}");
    }

    let explorations: u64 = windows.iter().map(|w| w.explorations).sum();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    let rounds: Vec<&Round> = windows.iter().flat_map(|w| &w.rounds).collect();
    let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
    let cpu_secs: f64 = rounds.iter().map(|r| r.cpu_secs).sum();
    // The untraced window's rounds are its slices. CPU time per
    // exploration is summed over, and the wall-clock figures (a round's
    // rate, its median exploration, and its slowest one: six samples
    // carry no deeper tail) are medians over, the half of them with the
    // least CPU stolen.
    let plain: Vec<&Round> = {
        let rounds = &windows[0].rounds;
        let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
        least_stolen_half(&steal)
            .into_iter()
            .map(|i| &rounds[i])
            .collect()
    };
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let cpu_ms = ratio(
        plain.iter().map(|r| r.cpu_secs).sum::<f64>() * 1e3,
        plain.iter().map(|r| r.latency_ms.len() as f64).sum(),
    );
    let rate = per_round(&|r| r.latency_ms.len() as f64 / r.secs);
    let p50 = per_round(&|r| percentile(&sorted(r.latency_ms.clone()), 0.5));
    let p99 = per_round(&|r| percentile(&sorted(r.latency_ms.clone()), 0.99));
    let states: u64 = windows
        .iter()
        .flat_map(|w| w.per_policy.values())
        .map(|p| p.0)
        .sum();
    let mut values = BTreeMap::new();
    values.insert("setup_s".to_string(), median(&setup));
    values.insert("cpu_ms_per_op".to_string(), cpu_ms);
    values.insert(
        "peak_rss_mb".to_string(),
        crate::fleet::peak_rss_kb("/proc/self/status") / 1024.0,
    );
    println!(
        "check-figure8: depth {DEPTH}, {SITES} sites, {SEGMENTS} segments, {THREADS} threads, symmetry on: \
         {explorations} explorations in {} rounds, {states} states in {secs:.2} s ({:.0} states/s); set-ups (s): {setup:?}",
        rounds.len(),
        states as f64 / secs
    );
    println!(
        "rounds (s, CPU stolen): {}",
        rounds
            .iter()
            .map(|r| format!("{:.2} {:.0}%", r.secs, 100.0 * r.steal))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!(
        "cpu: {cpu_secs:.2} s, {:.1} ms per exploration; least-stolen half of the rounds: \
         {cpu_ms:.1} ms per exploration, {rate:.4} explorations/s, p50 {p50:.1} ms, slowest {p99:.1} ms",
        cpu_secs * 1e3 / explorations as f64
    );
    if let [plain, traced] = windows.as_slice() {
        let states_per_s =
            |w: &Window| ratio(w.per_policy.values().map(|p| p.0 as f64).sum(), w.secs);
        values.insert(
            "trace.overhead_pct".to_string(),
            100.0 * (states_per_s(plain) - states_per_s(traced)) / states_per_s(plain),
        );
        values.insert("client.throughput_rps".to_string(), rate);
        values.insert("client.latency_p50_ms".to_string(), p50);
        values.insert("client.latency_p99_ms".to_string(), p99);
        let mut dedup = 0u64;
        let mut transitions = 0u64;
        let mut per_policy: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
        for w in &windows {
            for (name, p) in &w.per_policy {
                let e = per_policy.entry(name).or_default();
                e.0 += p.0;
                e.1 += p.1;
                dedup += p.2;
                transitions += p.3;
            }
        }
        for (name, (s, t)) in per_policy {
            values.insert(format!("checker.{name}.states_per_s"), ratio(s as f64, t));
        }
        values.insert(
            "checker.states_per_s".to_string(),
            ratio(states as f64, secs),
        );
        values.insert(
            "checker.dedup_ratio".to_string(),
            ratio(dedup as f64, transitions as f64),
        );
        values.insert(
            "machine.steal_pct".to_string(),
            100.0 * steal.iter().sum::<f64>() / steal.len() as f64,
        );
        tracer
            .write_tsv(&ctx.trace_file)
            .map_err(|e| format!("writing {}: {e}", ctx.trace_file.display()))?;
    }
    Ok(Measured {
        correct: problems.is_empty(),
        attempted: explorations,
        failed: 0,
        values,
    })
}
