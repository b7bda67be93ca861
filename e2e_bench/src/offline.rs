//! `offline-fig5`: the offline reproduction researchers run. One job is
//! Fig. 5 panels 3 (work model, speedup C = 1..8) and 4 (value model,
//! uniform values) at `PanelScale::Default` on one worker thread, through
//! `smbm_bench::panels::run_panel_with_jobs`; the rendered CSV must match
//! a digest pinned from the code this benchmark was written against.

use std::time::{Duration, Instant};

use smbm_bench::panels::{panel_xs, run_panel_with_jobs, Panel, PanelScale};
use smbm_core::{
    value_policy_by_name, work_policy_by_name, ValuePqOpt, ValueRunner, WorkPqOpt, WorkRunner,
    VALUE_POLICY_NAMES, WORK_POLICY_NAMES,
};
use smbm_sim::{run_value, run_work, series_to_csv, EngineConfig, FlushPolicy};
use smbm_switch::{ValuePacket, ValueSwitchConfig, WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, Trace, ValueMix};

use crate::util::{fnv1a, Tracer};

/// The panels one job computes.
pub const PANELS: [u8; 2] = [3, 4];

/// Panel seeds with a pinned digest: the workload seed is taken modulo
/// this, so every seed has an exact expected output.
pub const PINNED_SEEDS: u64 = 64;

/// FNV-1a-64 of [`render`] at `PanelScale::Default` for panel seeds
/// `0..PINNED_SEEDS`, pinned with `--pin-digests 0 64`. A change to the
/// policies, the engine, the traffic generator or the panel definitions
/// that moves any ratio in panels 3 or 4 fails this check.
#[rustfmt::skip]
pub const DIGESTS: [u64; PINNED_SEEDS as usize] = [
    0x3ba64f33686485b4, 0xf213d82a7afccc20, 0x573fbf42c316ce94, 0x1081b05d4c64dbb7,
    0x78aab7e880692da5, 0xe75aca8c980593e8, 0x6619c5f8a674c1c4, 0x43fb18e8f066665e,
    0x54ac864022999d6c, 0xb74fd735bfc85607, 0x6c50d2eed5938e0e, 0x47f728e2a95b1293,
    0x10eec08bc46d2edc, 0x405f3fde0aa274c8, 0x6a9eb5d60cbcc581, 0xfb5f8bf392e87469,
    0x5536bbafa0cda04c, 0x2e8df2ee08ac3ec0, 0x06a8277f5d48b9d0, 0xc099fc5d5944cdc4,
    0x11065f79113e5e5f, 0xcfaa4b53b7cb2d57, 0xd0d1ad960a1ef16b, 0x4075714592ff9759,
    0x11f30b02911abcf0, 0x9ffc71b0714703f1, 0x466ce22362a40d10, 0xb88dc29981e89c56,
    0xc62c50b7d3aaa33f, 0xa3b13fea4e558948, 0xe891be81ce079760, 0x6a0fe2b27f2ebb25,
    0xc9ecfa08f9694b5e, 0xf7d56b7de11c1e81, 0x37de840ea1d3ed37, 0x3b545b6c8d2a86c3,
    0xaeecac9806a8af87, 0x250a10146463fc51, 0xc6eabe15470f756e, 0xad016e20e232afaf,
    0xc4b7ebd9879a8d76, 0xda412a39815dffb3, 0x6e468c170211629c, 0x6641988a54c83f2a,
    0x4cbbec4b8fcec9f5, 0xa3d722f9bbdb38ea, 0x2158cde901b4705e, 0x6282f32e17b6fbc1,
    0xcdc029029c443fed, 0x09f4600867ee5868, 0x493098b4f2c7b3c3, 0x25294106e7e69e8a,
    0x801bf8f9dcbc5ea7, 0x29c5a59749226030, 0x6cfc870d70fa36aa, 0x714031474882535f,
    0xd38922924fffdbd2, 0xe2b42658b6d02394, 0x841d661105c8f154, 0x5d439b6fd9a307be,
    0x197b1467b236bc59, 0xe2e5028e074bdde1, 0xeeec53196a34bc82, 0x477608514406fdaa,
];

/// FNV-1a-64 of [`render`] at `PanelScale::Smoke`, panel seed 0.
pub const SMOKE_DIGEST: u64 = 0x66dd_f40e_2044_8ece;

pub fn panel_seed(seed: u64) -> u64 {
    seed % PINNED_SEEDS
}

/// Expected digest of a job at `scale` for workload seed `seed`.
pub fn expected_digest(scale: PanelScale, seed: u64) -> u64 {
    match scale {
        PanelScale::Smoke => SMOKE_DIGEST,
        _ => DIGESTS[panel_seed(seed) as usize],
    }
}

fn panel(n: u8) -> Panel {
    Panel::new(n).expect("valid panel number")
}

/// Renders one job's panels as CSV, one `# panel N` header each.
pub fn render(scale: PanelScale, seed: u64, tracer: &mut Tracer) -> Result<String, String> {
    let mut csv = String::new();
    for n in PANELS {
        let p = panel(n);
        let s = tracer.begin();
        let series = run_panel_with_jobs(p, scale, panel_seed(seed), Some(1))
            .map_err(|e| format!("panel {n}: {e}"))?;
        tracer.end(s, "bench.panels.run_panel", "main", None, 1);
        csv.push_str(&format!("# panel {n}\n"));
        csv.push_str(&series_to_csv(p.x_label(), &series));
    }
    Ok(csv)
}

/// The panels' engine configuration (periodic flushouts every 10,000
/// slots, final drain), as the panels document it.
pub fn engine() -> EngineConfig {
    EngineConfig {
        flush: Some(FlushPolicy::every(10_000)),
        drain_at_end: true,
    }
}

fn slots(scale: PanelScale) -> usize {
    match scale {
        PanelScale::Smoke => 2_000,
        PanelScale::Default => 50_000,
        PanelScale::Paper => 2_000_000,
    }
}

pub fn panel3_config() -> WorkSwitchConfig {
    WorkSwitchConfig::contiguous(8, 64).expect("valid work switch")
}

fn panel4_config() -> ValueSwitchConfig {
    ValueSwitchConfig::new(64, 8).expect("valid value switch")
}

fn scenario(scale: PanelScale, seed: u64, sources: usize) -> MmppScenario {
    MmppScenario {
        sources,
        slots: slots(scale),
        seed: panel_seed(seed),
        ..MmppScenario::default()
    }
}

/// Panel 3's work trace (12 MMPP sources), as the panel generates it.
pub fn work_trace(scale: PanelScale, seed: u64) -> Trace<WorkPacket> {
    scenario(scale, seed, 12)
        .work_trace(&panel3_config(), &PortMix::Uniform)
        .expect("valid scenario")
}

/// Panel 4's value trace (32 MMPP sources) for maximum value `max`.
fn value_trace(scale: PanelScale, seed: u64, max: f64) -> Trace<ValuePacket> {
    scenario(scale, seed, 32)
        .value_trace(8, &PortMix::Uniform, &ValueMix::Uniform { max: max as u64 })
        .expect("valid scenario")
}

/// Generates a job's traffic one trace at a time, as the panels do, and
/// counts it: returns the packets generated and the packets the job
/// offers to admission control (every online policy of the roster sees
/// every point's trace; the OPT surrogate is the yardstick and is not
/// counted).
pub fn traffic(scale: PanelScale, seed: u64) -> (u64, u64) {
    let work = work_trace(scale, seed).arrivals() as u64;
    let points = panel_xs(panel(3), scale).len() as u64;
    let mut generated = work;
    let mut offered = work * points * WORK_POLICY_NAMES.len() as u64;
    for x in panel_xs(panel(4), scale) {
        let n = value_trace(scale, seed, x).arrivals() as u64;
        generated += n;
        offered += n * VALUE_POLICY_NAMES.len() as u64;
    }
    (generated, offered)
}

/// One measured job.
pub struct Job {
    pub setup: Duration,
    pub window: Duration,
    pub offered: u64,
    pub points: u64,
    pub digest: u64,
    pub failure: Option<String>,
}

/// Runs one job: set-up is generating the job's traffic; the window is
/// both panels' wall time. `expect` is the digest the CSV must hash to.
pub fn job(scale: PanelScale, seed: u64, expect: u64, tracer: &mut Tracer) -> Job {
    let started = Instant::now();
    let g = tracer.begin();
    let (generated, offered) = traffic(scale, seed);
    tracer.end(g, "traffic.gen", "main", None, generated);
    let setup = started.elapsed();
    let t0 = Instant::now();
    let rendered = render(scale, seed, tracer);
    let window = t0.elapsed();
    let points = PANELS
        .iter()
        .map(|&n| panel_xs(panel(n), scale).len() as u64)
        .sum();
    let (digest, failure) = match rendered {
        Ok(csv) => {
            let d = fnv1a(csv.as_bytes());
            let failure =
                (d != expect).then(|| format!("panel CSV digest {d:016x} != pinned {expect:016x}"));
            (d, failure)
        }
        Err(e) => (0, Some(e)),
    };
    Job {
        setup,
        window,
        offered,
        points,
        digest,
        failure,
    }
}

/// The job rebuilt from its layers, for the traced run: each point's
/// traffic generation, its OPT surrogate run and every roster policy's
/// engine run, timed apart through the public engine functions.
#[derive(Default)]
pub struct Replica {
    pub gen_ns: f64,
    pub gen_pkts: u64,
    pub opt_ns: f64,
    pub opt_slots: u64,
    /// Every roster policy's engine runs.
    pub policy_ns: f64,
    /// LWD's share of `policy_ns`, and the slots it ran.
    pub lwd_ns: f64,
    pub lwd_slots: u64,
}

/// Times `f` (which returns the slots it ran) as one span.
fn timed(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> u64) -> (f64, u64) {
    let t = Instant::now();
    let slots = f();
    let e = Instant::now();
    tracer.record(name, "main", t, e, slots);
    ((e - t).as_secs_f64() * 1e9, slots)
}

pub fn replica(scale: PanelScale, seed: u64, tracer: &mut Tracer) -> Replica {
    let mut r = Replica::default();
    let engine = engine();
    for x in panel_xs(panel(3), scale) {
        let cfg = panel3_config();
        let t = Instant::now();
        let trace = work_trace(scale, seed);
        r.gen_ns += t.elapsed().as_secs_f64() * 1e9;
        tracer.record(
            "traffic.gen",
            "main",
            t,
            Instant::now(),
            trace.arrivals() as u64,
        );
        r.gen_pkts += trace.arrivals() as u64;
        let speedup = x as u32;
        let (o, s) = timed(tracer, "core.opt", || {
            let mut opt = WorkPqOpt::new(cfg.buffer(), cfg.ports() as u32 * speedup);
            run_work(&mut opt, &trace, &engine)
                .expect("consistent")
                .slots
        });
        r.opt_ns += o;
        r.opt_slots += s;
        for name in WORK_POLICY_NAMES {
            let (p, s) = timed(tracer, "sim.engine", || {
                let policy = work_policy_by_name(name).expect("registered");
                let mut runner = WorkRunner::new(cfg.clone(), policy, speedup);
                run_work(&mut runner, &trace, &engine)
                    .expect("consistent")
                    .slots
            });
            r.policy_ns += p;
            if *name == "LWD" {
                r.lwd_ns += p;
                r.lwd_slots += s;
            }
        }
    }
    for x in panel_xs(panel(4), scale) {
        let cfg = panel4_config();
        let t = Instant::now();
        let trace = value_trace(scale, seed, x);
        r.gen_ns += t.elapsed().as_secs_f64() * 1e9;
        tracer.record(
            "traffic.gen",
            "main",
            t,
            Instant::now(),
            trace.arrivals() as u64,
        );
        r.gen_pkts += trace.arrivals() as u64;
        let (o, s) = timed(tracer, "core.opt", || {
            let mut opt = ValuePqOpt::new(cfg.buffer(), cfg.ports() as u32);
            run_value(&mut opt, &trace, &engine)
                .expect("consistent")
                .slots
        });
        r.opt_ns += o;
        r.opt_slots += s;
        for name in VALUE_POLICY_NAMES {
            let (p, _) = timed(tracer, "sim.engine", || {
                let policy = value_policy_by_name(name).expect("registered");
                let mut runner = ValueRunner::new(cfg, policy, 1);
                run_value(&mut runner, &trace, &engine)
                    .expect("consistent")
                    .slots
            });
            r.policy_ns += p;
        }
    }
    r
}
