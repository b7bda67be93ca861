//! The smbm benchmark: one command that runs a named workload for a fixed
//! time, checks every round's output, and prints every end-to-end metric
//! (untraced) or the per-layer ns/packet table (traced).
//!
//! ```text
//! smbm-e2e-bench --workload udp-overload|replay-paper|offline-fig5
//!                --seed N --seconds S --trace 0|1
//! smbm-e2e-bench --smoke              # tiny runs; every check must bite
//! smbm-e2e-bench --pin-digests A B    # print offline digests for seeds A..B
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! human-readable table, the load regime and the provenance.

mod layers;
mod offline;
mod replay;
mod udp;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use smbm_bench::panels::PanelScale;
use smbm_runtime::ShardConfig;
use smbm_sim::EngineConfig;

use crate::layers::{Layers, Shape};
use crate::util::{
    json_num, json_str, median, peak_rss_mb, quantile, Provenance, Reservoir, Tracer,
};

/// Trace slots per `udp-overload` round (about 1M frames).
const UDP_SLOTS: usize = 40_000;
/// Trace slots per `replay-paper` round (about 600k arrivals).
const REPLAY_SLOTS: usize = 100_000;
/// Fewest rounds a run measures, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
/// Fewest `offline-fig5` jobs a run measures.
const MIN_JOBS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What one run measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// End-to-end metrics of the untraced rounds.
    e2e: Layers,
    /// Per-layer metrics (traced runs only).
    layers: Layers,
    /// Load-regime tags and sample counts, as JSON members.
    regime: Vec<(String, String)>,
    /// Lines of the per-layer table.
    table: Vec<String>,
    /// Each untraced round's packets per second.
    per_round: Vec<f64>,
    /// Pooled round-trip p99 and the samples behind the latency quantiles.
    latency_p99_us: f64,
    latency_samples: u64,
    spans: Option<Tracer>,
}

fn usage() -> &'static str {
    "usage: smbm-e2e-bench --workload udp-overload|replay-paper|offline-fig5 --seed N --seconds S --trace 0|1\n       smbm-e2e-bench --smoke\n       smbm-e2e-bench --pin-digests FROM TO"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--smoke") {
        return if smoke() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if argv.first().map(String::as_str) == Some("--pin-digests") {
        let range: Vec<u64> = argv[1..].iter().filter_map(|a| a.parse().ok()).collect();
        let [from, to] = range[..] else {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        };
        pin_digests(from, to);
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The checkout must hold the workspace the benchmark measures; without
    // it there is nothing to measure (and the build would have failed).
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("run from the root of an smbm checkout (no crates/ here)");
        return ExitCode::from(2);
    }
    let epoch = Instant::now();
    let steal_before = util::cpu_steal_jiffies();
    let mut out = match args.workload.as_str() {
        "udp-overload" => run_udp(&args, epoch),
        "replay-paper" => run_replay(&args, epoch),
        "offline-fig5" => run_offline(&args, epoch),
        other => {
            eprintln!("unknown workload {other:?}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Host noise context: the share of CPU time a hypervisor stole during
    // the run (0 on bare metal).
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, util::cpu_steal_jiffies()) {
        regime(
            &mut out,
            "host_steal_frac",
            json_num(frac(s1 - s0, t1 - t0)),
        );
    }
    report(&args, out);
    ExitCode::SUCCESS
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Alternates untraced and (in a traced run) traced rounds until
/// `seconds` have passed and each side has `min` rounds.
fn alternate<R>(
    args: &Args,
    min: usize,
    epoch: Instant,
    mut round: impl FnMut(&mut Tracer) -> R,
) -> (Vec<R>, Vec<R>, Tracer) {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Tracer::new(true, epoch);
    while plain.len() < min || (args.trace && traced.len() < min) || started.elapsed() < budget {
        let mut off = Tracer::new(false, epoch);
        plain.push(round(&mut off));
        if args.trace {
            let mut on = Tracer::new(true, epoch);
            traced.push(round(&mut on));
            spans.absorb(on);
        }
    }
    (plain, traced, spans)
}

/// Round-trip samples of the untraced rounds: each round's own median and
/// p95, and every sample pooled (bounded) for the p99.
#[derive(Default)]
struct Latency {
    p50: Vec<f64>,
    p95: Vec<f64>,
    pooled: Option<Reservoir>,
}

impl Latency {
    /// Takes one round's samples (µs); a traced round's are discarded.
    fn round(&mut self, samples: Vec<f64>, traced: bool) {
        if traced || samples.is_empty() {
            return;
        }
        self.p50.push(quantile(&samples, 0.5));
        self.p95.push(quantile(&samples, 0.95));
        let pooled = self.pooled.get_or_insert_with(Reservoir::new);
        samples.into_iter().for_each(|x| pooled.push(x));
    }
}

/// The end-to-end metrics from the untraced rounds, each a median over
/// rounds so that a minority of rounds hit by CPU steal (common on shared
/// virtual machines) cannot move it. Round-trip quantiles are taken per
/// round and their median reported; the pooled p99 is a layer metric and
/// sits in the regime line, since it moves several-fold with steal.
fn push_e2e(out: &mut Outcome, setup: &[f64], rates: &[f64], latency: &Latency, job_s: &[f64]) {
    let pooled = latency.pooled.as_ref().map_or(&[][..], Reservoir::samples);
    out.e2e = vec![
        ("setup_s", median(setup), "s"),
        ("pkts_per_s", median(rates), "1/s"),
        ("sync_rtt_p50_us", median(&latency.p50), "us"),
        ("sync_rtt_p95_us", median(&latency.p95), "us"),
        ("panels_s", median(job_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    out.per_round = rates.to_vec();
    out.latency_p99_us = quantile(pooled, 0.99);
    out.latency_samples = latency.pooled.as_ref().map_or(0, Reservoir::seen);
    regime(out, "sync_rtt_samples", out.latency_samples);
    regime(out, "sync_rtt_p99_us", json_num(out.latency_p99_us));
    regime(out, "rounds", rates.len());
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// A per-layer value already measured this run (0 if absent).
fn layer(l: &Layers, name: &str) -> f64 {
    l.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
}

fn regime(out: &mut Outcome, key: &str, value: impl ToString) {
    out.regime.push((key.to_owned(), value.to_string()));
}

/// Reconciles the bottleneck thread group's ns/packet with the e2e
/// ns/packet and appends the group rows to the table.
fn reconcile(out: &mut Outcome, e2e_ns: f64, groups: &[(&'static str, f64)]) {
    let (bottleneck, worst) =
        groups
            .iter()
            .copied()
            .fold(("none", 0.0), |a, g| if g.1 > a.1 { g } else { a });
    let sum: f64 = groups.iter().map(|g| g.1).sum();
    for (name, v) in groups {
        out.table.push(format!(
            "{:<44} {:>12.2} ns/pkt",
            format!("group.{name}"),
            v
        ));
    }
    out.table.push(format!(
        "{:<44} {:>12.2} ns/pkt  (bottleneck: {bottleneck}; all groups sum {sum:.2})",
        "e2e (1e9 / pkts_per_s)", e2e_ns
    ));
    out.layers.push(("e2e_ns_per_pkt", e2e_ns, "ns"));
    out.layers.push(("bottleneck_ns_per_pkt", worst, "ns"));
    out.layers
        .push(("residual_ns_per_pkt", e2e_ns - worst, "ns"));
}

fn run_udp(args: &Args, epoch: Instant) -> Outcome {
    let mut rtts = Latency::default();
    let (plain, traced, spans) = alternate(args, MIN_ROUNDS, epoch, |t| {
        let mut r = udp::round(args.seed, UDP_SLOTS, false, t);
        let us = std::mem::take(&mut r.client.rtt_ns)
            .iter()
            .map(|x| x / 1e3)
            .collect();
        rtts.round(us, t.on());
        r
    });
    let mut out = Outcome::default();
    let rate = |r: &udp::Round| r.arrived() as f64 / r.window.as_secs_f64().max(1e-9);
    for r in plain.iter().chain(&traced) {
        out.attempted += r.client.declared;
        if let Some(f) = &r.failure {
            out.failed += r.client.declared.max(1);
            out.failures.push(f.clone());
        }
    }
    push_e2e(
        &mut out,
        &plain
            .iter()
            .map(|r| r.setup.as_secs_f64())
            .collect::<Vec<_>>(),
        &plain.iter().map(rate).collect::<Vec<_>>(),
        &rtts,
        &plain
            .iter()
            .map(|r| r.window.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    // Load regime, pooled over the untraced rounds: freerun admission
    // varies with scheduling, so these are counts, not e2e metrics.
    let served: Vec<udp::Served> = plain.iter().filter_map(|r| r.served).collect();
    let mut c = smbm_switch::Counters::new();
    let mut net = smbm_obs::NetCounts::default();
    let (mut bursts, mut cycles, mut offered) = (0u64, 0u64, 0u64);
    for s in &served {
        c.merge(&s.counters);
        net.merge(&s.net);
        bursts += s.bursts;
        cycles += s.cycles;
        offered += s.offered;
    }
    let (datagrams, frames, decode_errors) = (net.datagrams, net.frames, net.decode_errors);
    let mean_burst = frac(c.arrived(), bursts);
    tag_regime(&mut out, &c, mean_burst);
    if !args.trace {
        return out;
    }

    let n = served.len().max(1) as f64;
    let e2e_ns = 1e9 / median(&plain.iter().map(rate).collect::<Vec<_>>());
    let traced_ns = 1e9 / median(&traced.iter().map(rate).collect::<Vec<_>>());
    let per_dgram = frac(frames, datagrams);
    let (send_ns, _) = spans.total("net.client.send");
    let sends = spans.count("net.client.send") as f64;
    let retries: u64 = plain.iter().map(|r| r.client.retries).sum();
    let shape = Shape {
        config: udp::switch_config(),
        speedup: 1,
        slots: udp::trace(args.seed, UDP_SLOTS).into_slots(),
        batch: Some(udp::FRAMES),
        shard: ShardConfig::freerun(),
        burst_pkts: mean_burst,
        engine: EngineConfig::draining(),
    };
    let mut l = Layers::new();
    let mut bench = Tracer::new(true, epoch);
    push_gen(&mut l, &spans);
    layers::codec(&shape, &mut bench, &mut l);
    layers::recv(&shape, udp::WINDOW, &mut bench, &mut l);
    l.push(("net.server.datagrams", datagrams as f64 / n, "count"));
    l.push(("net.server.frames_per_datagram", per_dgram, "frames"));
    l.push(("net.server.decode_errors", decode_errors as f64, "count"));
    l.push(("net.client.sync_retries", retries as f64, "count"));
    l.push((
        "net.client.send_ns_per_datagram",
        send_ns / sends.max(1.0),
        "ns",
    ));
    push_latency(&mut l, &out);
    layers::spsc(&shape, &mut bench, &mut l);
    l.push(("runtime.shard.bursts", bursts as f64 / n, "count"));
    l.push(("runtime.shard.mean_burst_pkts", mean_burst, "pkts"));
    // Cycles that ingested nothing: transmission-only slots plus parks.
    l.push((
        "runtime.shard.idle_cycles",
        cycles.saturating_sub(bursts) as f64 / n,
        "count",
    ));
    l.push((
        "runtime.producer.backpressure_frac",
        frac(c.dropped_backpressure(), offered.max(c.arrived())),
        "frac",
    ));
    let shard_ns = layers::shard(&shape, &mut bench, &mut l);
    layers::machine(&shape, &mut bench, &mut l);
    layers::policy(&shape, &mut bench, &mut l);
    layers::engine(&shape, &mut bench, &mut l);
    push_switch(&mut l, &c);
    push_trace(&mut l, epoch, traced_ns / e2e_ns - 1.0);
    let client = layer(&l, "net.codec.encode_ns_per_frame")
        + layer(&l, "net.client.send_ns_per_datagram") / per_dgram.max(1.0);
    let receive = layer(&l, "net.server.recv_ns_per_datagram") / per_dgram.max(1.0)
        + layer(&l, "net.codec.decode_ns_per_frame")
        + layer(&l, "spsc.bulk_ns_per_pkt");
    out.layers = l;
    reconcile(
        &mut out,
        e2e_ns,
        &[
            ("client", client),
            ("receive", receive),
            ("shard", shard_ns),
        ],
    );
    spans_into(&mut out, spans, bench);
    out
}

fn run_replay(args: &Args, epoch: Instant) -> Outcome {
    let expect = replay::reference(&replay::trace(args.seed, REPLAY_SLOTS));
    let mut handoff = Latency::default();
    let (plain, traced, spans) = alternate(args, MIN_ROUNDS, epoch, |t| {
        let mut r = replay::round(args.seed, REPLAY_SLOTS, &expect, false, t);
        let us = std::mem::take(&mut r.handoff_ns)
            .iter()
            .map(|x| x / 1e3)
            .collect();
        handoff.round(us, t.on());
        r
    });
    let mut out = Outcome::default();
    let rate = |r: &replay::Round| r.arrivals as f64 / r.window.as_secs_f64().max(1e-9);
    for r in plain.iter().chain(&traced) {
        out.attempted += r.arrivals;
        if let Some(f) = &r.failure {
            out.failed += r.arrivals.max(1);
            out.failures.push(f.clone());
        }
    }
    push_e2e(
        &mut out,
        &plain
            .iter()
            .map(|r| r.setup.as_secs_f64())
            .collect::<Vec<_>>(),
        &plain.iter().map(rate).collect::<Vec<_>>(),
        &handoff,
        &plain
            .iter()
            .map(|r| r.window.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    // Lockstep replay is deterministic: every round's regime is the
    // engine's, exactly (the per-round check compares counters bit for
    // bit), so the tags come from the reference.
    let c = expect.counters;
    let slots = REPLAY_SLOTS as u64;
    tag_regime(&mut out, &c, frac(c.arrived(), slots));
    if !args.trace {
        return out;
    }

    let n = plain.len().max(1) as f64;
    let e2e_ns = 1e9 / median(&plain.iter().map(rate).collect::<Vec<_>>());
    let traced_ns = 1e9 / median(&traced.iter().map(rate).collect::<Vec<_>>());
    let bursts: u64 = plain.iter().map(|r| r.bursts).sum();
    let cycles: u64 = plain.iter().map(|r| r.cycles).sum();
    let mean_burst = frac(c.arrived(), slots);
    let shape = Shape {
        config: replay::switch_config(),
        speedup: 1,
        slots: replay::trace(args.seed, REPLAY_SLOTS).into_slots(),
        batch: None,
        shard: ShardConfig::lockstep(),
        burst_pkts: mean_burst,
        engine: EngineConfig::draining(),
    };
    let mut l = Layers::new();
    let mut bench = Tracer::new(true, epoch);
    push_gen(&mut l, &spans);
    layers::codec(&shape, &mut bench, &mut l);
    layers::recv(&shape, udp::WINDOW, &mut bench, &mut l);
    push_no_net(&mut l, &out);
    layers::spsc(&shape, &mut bench, &mut l);
    l.push(("runtime.shard.bursts", bursts as f64 / n, "count"));
    l.push(("runtime.shard.mean_burst_pkts", mean_burst, "pkts"));
    l.push((
        "runtime.shard.idle_cycles",
        cycles.saturating_sub(bursts) as f64 / n,
        "count",
    ));
    l.push(("runtime.producer.backpressure_frac", 0.0, "frac"));
    let shard_ns = layers::shard(&shape, &mut bench, &mut l);
    layers::machine(&shape, &mut bench, &mut l);
    layers::policy(&shape, &mut bench, &mut l);
    layers::engine(&shape, &mut bench, &mut l);
    push_switch(&mut l, &c);
    push_trace(&mut l, epoch, traced_ns / e2e_ns - 1.0);
    let producer = layer(&l, "spsc.handoff_ns_per_slot") / mean_burst.max(1e-9);
    out.layers = l;
    reconcile(
        &mut out,
        e2e_ns,
        &[("producer", producer), ("shard", shard_ns)],
    );
    spans_into(&mut out, spans, bench);
    out
}

fn run_offline(args: &Args, epoch: Instant) -> Outcome {
    let scale = PanelScale::Default;
    let expect = offline::expected_digest(scale, args.seed);
    let (plain, traced, spans) = alternate(args, MIN_JOBS, epoch, |t| {
        offline::job(scale, args.seed, expect, t)
    });
    let mut out = Outcome::default();
    for j in plain.iter().chain(&traced) {
        out.attempted += j.points;
        if let Some(f) = &j.failure {
            out.failed += j.points;
            out.failures.push(f.clone());
        }
    }
    // The job is the only request a researcher makes here, so its wall
    // time is the round trip as well.
    let windows: Vec<f64> = plain.iter().map(|j| j.window.as_secs_f64()).collect();
    let mut jobs_us = Latency::default();
    windows
        .iter()
        .for_each(|w| jobs_us.round(vec![w * 1e6], false));
    push_e2e(
        &mut out,
        &plain
            .iter()
            .map(|j| j.setup.as_secs_f64())
            .collect::<Vec<_>>(),
        &plain
            .iter()
            .map(|j| j.offered as f64 / j.window.as_secs_f64().max(1e-9))
            .collect::<Vec<_>>(),
        &jobs_us,
        &windows,
    );
    regime(&mut out, "panel_seed", offline::panel_seed(args.seed));
    regime(
        &mut out,
        "csv_digest",
        format!("\"{:016x}\"", plain[0].digest),
    );
    // The regime of the paper's default point (panel 3 at C = 1), LWD.
    let trace = offline::work_trace(scale, args.seed);
    let mut runner = smbm_core::WorkRunner::new(
        offline::panel3_config(),
        smbm_core::work_policy_by_name("LWD").expect("LWD is registered"),
        1,
    );
    smbm_sim::run_work(&mut runner, &trace, &offline::engine()).expect("LWD is consistent");
    let c = *runner.switch().counters();
    let per_slot = frac(c.arrived(), trace.slots() as u64);
    tag_regime(&mut out, &c, per_slot);
    if !args.trace {
        return out;
    }

    let e2e_ns = median(&windows) * 1e9 / plain[0].offered as f64;
    let traced_ns = median(
        &traced
            .iter()
            .map(|j| j.window.as_secs_f64())
            .collect::<Vec<_>>(),
    ) * 1e9
        / plain[0].offered as f64;
    let shape = Shape {
        config: offline::panel3_config(),
        speedup: 1,
        slots: trace.into_slots(),
        batch: None,
        shard: ShardConfig::lockstep(),
        burst_pkts: per_slot,
        engine: offline::engine(),
    };
    let mut bench = Tracer::new(true, epoch);
    let rep = offline::replica(scale, args.seed, &mut bench);
    let mut l = Layers::new();
    l.push((
        "traffic.gen_ns_per_pkt",
        rep.gen_ns / rep.gen_pkts.max(1) as f64,
        "ns",
    ));
    layers::codec(&shape, &mut bench, &mut l);
    layers::recv(&shape, udp::WINDOW, &mut bench, &mut l);
    push_no_net(&mut l, &out);
    layers::spsc(&shape, &mut bench, &mut l);
    l.push(("runtime.shard.bursts", 0.0, "count"));
    l.push(("runtime.shard.mean_burst_pkts", 0.0, "pkts"));
    l.push(("runtime.shard.idle_cycles", 0.0, "count"));
    l.push(("runtime.producer.backpressure_frac", 0.0, "frac"));
    layers::shard(&shape, &mut bench, &mut l);
    layers::machine(&shape, &mut bench, &mut l);
    layers::policy(&shape, &mut bench, &mut l);
    l.push((
        "core.opt.ns_per_slot",
        rep.opt_ns / rep.opt_slots.max(1) as f64,
        "ns",
    ));
    l.push((
        "sim.engine.ns_per_slot",
        rep.lwd_ns / rep.lwd_slots.max(1) as f64,
        "ns",
    ));
    push_switch(&mut l, &c);
    push_trace(&mut l, epoch, traced_ns / e2e_ns - 1.0);
    out.layers = l;
    let offered = plain[0].offered as f64;
    reconcile(
        &mut out,
        e2e_ns,
        &[("main", (rep.gen_ns + rep.opt_ns + rep.policy_ns) / offered)],
    );
    out.table.push(format!(
        "{:<44} {:>12.2} ns/pkt  (traffic {:.2} + opt {:.2} + policies {:.2})",
        "group.main split",
        (rep.gen_ns + rep.opt_ns + rep.policy_ns) / offered,
        rep.gen_ns / offered,
        rep.opt_ns / offered,
        rep.policy_ns / offered
    ));
    spans_into(&mut out, spans, bench);
    out
}

fn tag_regime(out: &mut Outcome, c: &smbm_switch::Counters, mean_burst: f64) {
    let a = c.arrived();
    regime(out, "arrived", a);
    regime(out, "admitted", c.admitted());
    regime(out, "pushed_out", c.pushed_out());
    regime(out, "switch_dropped", c.dropped_at_switch());
    regime(out, "backpressure", c.dropped_backpressure());
    regime(out, "admitted_frac", json_num(frac(c.admitted(), a)));
    regime(out, "pushed_out_frac", json_num(frac(c.pushed_out(), a)));
    regime(
        out,
        "switch_dropped_frac",
        json_num(frac(c.dropped_at_switch(), a)),
    );
    regime(
        out,
        "backpressure_frac",
        json_num(frac(c.dropped_backpressure(), a)),
    );
    regime(out, "mean_burst_pkts", json_num(mean_burst));
}

fn push_gen(l: &mut Layers, spans: &Tracer) {
    let (t, n) = spans.total("traffic.gen");
    l.push(("traffic.gen_ns_per_pkt", t / n.max(1) as f64, "ns"));
}

/// The wire-level counts of a workload that never touches a socket.
fn push_no_net(l: &mut Layers, out: &Outcome) {
    l.push(("net.server.datagrams", 0.0, "count"));
    l.push(("net.server.frames_per_datagram", 0.0, "frames"));
    l.push(("net.server.decode_errors", 0.0, "count"));
    l.push(("net.client.sync_retries", 0.0, "count"));
    l.push(("net.client.send_ns_per_datagram", 0.0, "ns"));
    push_latency(l, out);
}

fn push_latency(l: &mut Layers, out: &Outcome) {
    l.push(("sync_rtt.samples", out.latency_samples as f64, "count"));
    l.push(("sync_rtt.p99_us", out.latency_p99_us, "us"));
}

fn push_switch(l: &mut Layers, c: &smbm_switch::Counters) {
    let a = c.arrived();
    l.push(("switch.admitted_frac", frac(c.admitted(), a), "frac"));
    l.push(("switch.pushed_out_frac", frac(c.pushed_out(), a), "frac"));
    l.push((
        "switch.dropped_frac",
        frac(c.dropped_at_switch(), a),
        "frac",
    ));
}

fn push_trace(l: &mut Layers, epoch: Instant, overhead: f64) {
    l.push(("trace.span_ns", util::span_cost_ns(epoch), "ns"));
    l.push(("trace.overhead_frac", overhead, "frac"));
}

fn spans_into(out: &mut Outcome, mut spans: Tracer, bench: Tracer) {
    spans.absorb(bench);
    out.spans = Some(spans);
}

/// Prints the table, the regime/provenance line, writes the spans, and
/// ends with the result object.
fn report(args: &Args, out: Outcome) {
    let prov = Provenance::collect();
    let correct = out.failed == 0 && out.failures.is_empty() && out.attempted > 0;
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    println!(
        "# smbm benchmark: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &out.e2e {
        println!("e2e   {name:<38} {value:>16.4} {unit}");
    }
    println!(
        "e2e   {:<38} {:>16.6} frac ({} failed of {} attempted)",
        "failed_frac",
        frac(out.failed, out.attempted.max(1)),
        out.failed,
        out.attempted
    );
    if args.trace {
        for (name, value, unit) in &out.layers {
            println!("layer {name:<38} {value:>16.4} {unit}");
        }
        for line in &out.table {
            println!("table {line}");
        }
    }
    let rounds: Vec<String> = out.per_round.iter().map(|r| format!("{:.4e}", r)).collect();
    println!("# per-round pkts_per_s: {}", rounds.join(" "));
    for f in out.failures.iter().take(5) {
        println!("# FAILED CHECK: {f}");
    }
    let mut regime = String::new();
    for (i, (k, v)) in out.regime.iter().enumerate() {
        let _ = write!(
            regime,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            v
        );
    }
    println!("# result {{\"workload\":{},\"seed\":{},\"failed_frac\":{},\"regime\":{{{regime}}},\"provenance\":{}}}",
        json_str(&args.workload), args.seed, json_num(frac(out.failed, out.attempted.max(1))), prov.to_json());
    if let Some(spans) = &out.spans {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "e2e_bench/target".to_owned()),
        )
        .join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            m,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.attempted.max(1),
        out.failed
    );
}

/// Tiny runs of every workload: each correctness check must pass on the
/// right expectation and fail on a deliberately wrong one.
fn smoke() -> bool {
    let epoch = Instant::now();
    let mut ok = true;
    let mut expect = |what: &str, good: bool| {
        println!("smoke {what}: {}", if good { "ok" } else { "UNEXPECTED" });
        ok &= good;
    };
    let mut t = Tracer::new(true, epoch);
    let r = udp::round(1, 800, false, &mut t);
    expect("udp-overload reconciles", r.failure.is_none());
    let r = udp::round(1, 800, true, &mut t);
    expect(
        "udp-overload withheld datagram is caught",
        r.failure.is_some(),
    );

    let reference = replay::reference(&replay::trace(1, 2_000));
    let r = replay::round(1, 2_000, &reference, false, &mut t);
    expect("replay-paper matches the engine", r.failure.is_none());
    let r = replay::round(1, 2_000, &reference, true, &mut t);
    expect(
        "replay-paper withheld packet is caught",
        r.failure.is_some(),
    );

    let digest = offline::expected_digest(PanelScale::Smoke, 0);
    let j = offline::job(PanelScale::Smoke, 0, digest, &mut t);
    expect(
        "offline-fig5 matches its pinned digest",
        j.failure.is_none(),
    );
    let j = offline::job(PanelScale::Smoke, 0, digest ^ 1, &mut t);
    expect("offline-fig5 wrong digest is caught", j.failure.is_some());
    ok
}

/// Prints the offline digests for panel seeds `from..to` (and the smoke
/// digest) in the form the pinned table takes.
fn pin_digests(from: u64, to: u64) {
    let mut t = Tracer::new(false, Instant::now());
    let smoke = offline::render(PanelScale::Smoke, 0, &mut t).expect("smoke panels");
    println!("smoke 0x{:016x}", util::fnv1a(smoke.as_bytes()));
    for seed in from..to {
        let csv = offline::render(PanelScale::Default, seed, &mut t).expect("panels");
        println!("{seed} 0x{:016x}", util::fnv1a(csv.as_bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn every_check_passes_on_truth_and_fails_on_a_wrong_expectation() {
        assert!(smoke());
    }

    #[test]
    fn arguments_are_all_required_and_validated() {
        let a = parse(&argv(
            "--workload replay-paper --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("replay-paper", 7, 10, true)
        );
        assert!(parse(&argv("--workload replay-paper --seed 7 --seconds 10")).is_err());
        assert!(parse(&argv("--workload x --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn every_seed_has_a_pinned_offline_digest() {
        assert!(offline::DIGESTS.iter().all(|&d| d != 0));
        assert_eq!(offline::panel_seed(offline::PINNED_SEEDS + 5), 5);
    }
}
