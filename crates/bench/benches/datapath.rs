//! Criterion benchmarks of the shared slot machine (`smbm-datapath`).
//!
//! The `datapath` group drives `SlotMachine` directly — no engine or runtime
//! around it — so its numbers isolate the cost of the canonical
//! flush/arrival/transmission/drain implementation both drivers now share.
//! Compare against the `engine` group (which wraps the same machine in the
//! trace-fed driver): the deltas are the driver overhead, and the `engine`
//! numbers themselves are the regression gate against the pre-unification
//! baselines in `results/BENCH_datapath.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use smbm_core::{Lwd, Mrd, ValueRunner, WorkRunner};
use smbm_datapath::{NoHook, SlotHook, SlotMachine, SlotStats};
use smbm_obs::NullObserver;
use smbm_switch::{FlushPolicy, ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

/// Raw machine throughput: one `step` per trace slot, no flush, no driver.
fn slot_machine_step(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let scenario = MmppScenario {
        sources: 12,
        slots: 5_000,
        seed: 3,
        ..Default::default()
    };
    let trace = scenario
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid scenario");

    let mut group = c.benchmark_group("datapath");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    group.bench_function("lwd-step-loop", |b| {
        b.iter(|| {
            let runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let mut machine = SlotMachine::new(runner, None);
            let mut obs = NullObserver;
            for burst in trace.iter() {
                machine
                    .step(burst, &mut obs, &mut NoHook)
                    .expect("LWD never errs");
            }
            black_box(machine.score())
        });
    });

    let vcfg = ValueSwitchConfig::new(64, 8).expect("valid");
    let scenario = MmppScenario {
        sources: 32,
        slots: 5_000,
        seed: 3,
        ..Default::default()
    };
    let vtrace = scenario
        .value_trace(8, &PortMix::Uniform, &ValueMix::Uniform { max: 16 })
        .expect("valid scenario");
    group.throughput(Throughput::Elements(vtrace.slots() as u64));
    group.bench_function("mrd-step-loop", |b| {
        b.iter(|| {
            let runner = ValueRunner::new(vcfg, Mrd::new(), 1);
            let mut machine = SlotMachine::new(runner, None);
            let mut obs = NullObserver;
            for burst in vtrace.iter() {
                machine
                    .step(burst, &mut obs, &mut NoHook)
                    .expect("MRD never errs");
            }
            black_box(machine.score())
        });
    });
    group.finish();
}

/// Per-slot write-through hook (what the live shard uses for crash-safe
/// accounting) vs the engine's `NoHook`: the delta is what supervised
/// progress recording costs at every slot boundary.
fn slot_hook_overhead(c: &mut Criterion) {
    struct RecordingHook {
        stats: SlotStats,
        score: u64,
    }
    impl<S: smbm_datapath::DatapathSystem> SlotHook<S> for RecordingHook {
        fn slot_done(&mut self, sys: &S, stats: &SlotStats) {
            self.stats = *stats;
            self.score = sys.score();
        }
    }

    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let scenario = MmppScenario {
        sources: 12,
        slots: 5_000,
        seed: 3,
        ..Default::default()
    };
    let trace = scenario
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid scenario");

    let mut group = c.benchmark_group("datapath-hook");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    group.bench_function("no-hook", |b| {
        b.iter(|| {
            let runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let mut machine = SlotMachine::new(runner, None);
            let mut obs = NullObserver;
            for burst in trace.iter() {
                machine
                    .step(burst, &mut obs, &mut NoHook)
                    .expect("LWD never errs");
            }
            black_box(machine.score())
        });
    });
    group.bench_function("recording-hook", |b| {
        b.iter(|| {
            let runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let mut machine = SlotMachine::new(runner, None);
            let mut obs = NullObserver;
            let mut hook = RecordingHook {
                stats: SlotStats::new(),
                score: 0,
            };
            for burst in trace.iter() {
                machine
                    .step(burst, &mut obs, &mut hook)
                    .expect("LWD never errs");
            }
            black_box((machine.score(), hook.score))
        });
    });
    group.finish();
}

/// Flush scheduling on the hot path: the `flush_check` branch per slot, in
/// both Drop (instant discard) and Drain (extra transmission-only slots)
/// modes, against the unflushed loop.
fn flush_modes(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let scenario = MmppScenario {
        sources: 12,
        slots: 5_000,
        seed: 3,
        ..Default::default()
    };
    let trace = scenario
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid scenario");

    let mut group = c.benchmark_group("datapath-flush");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    for (name, flush) in [
        ("none", None),
        ("drop-every-500", Some(FlushPolicy::every(500).dropping())),
        ("drain-every-500", Some(FlushPolicy::every(500))),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
                let mut machine = SlotMachine::new(runner, flush);
                let mut obs = NullObserver;
                for burst in trace.iter() {
                    assert!(machine.flush_check(&mut obs, &mut NoHook));
                    machine
                        .step(burst, &mut obs, &mut NoHook)
                        .expect("LWD never errs");
                }
                black_box(machine.score())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = slot_machine_step, slot_hook_overhead, flush_modes
}
criterion_main!(benches);
