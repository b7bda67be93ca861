//! One system trait: every implementor of `DatapathSystem` — the three
//! runner families, the three OPT surrogates and the single-FIFO baseline —
//! runs through the canonical `SlotMachine` and through the offline
//! `run_*` entry points with identical results.

use smbm_core::{
    CombinedPqOpt, CombinedRunner, DatapathSystem, FifoAdmission, Lwd, Mrd, SingleFifoQueue,
    ValuePqOpt, ValueRunner, WorkPqOpt, WorkRunner, Wvd,
};
use smbm_datapath::{NoHook, SlotMachine};
use smbm_obs::NullObserver;
use smbm_sim::{run_combined, run_value, run_work, EngineConfig, FlushPolicy, RunSummary};
use smbm_switch::{AdmitError, ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, Trace, ValueMix};

const PORTS: u32 = 4;
const BUFFER: usize = 16;

fn scenario() -> MmppScenario {
    MmppScenario {
        sources: 8,
        slots: 300,
        seed: 0x5EED,
        ..MmppScenario::default()
    }
}

/// Periodic drain-mode flushouts plus a final drain, so every phase the
/// machine has (flush, arrival, transmission, drain) runs.
fn engine() -> EngineConfig {
    EngineConfig {
        flush: Some(FlushPolicy::every(64)),
        drain_at_end: true,
    }
}

/// Drives one fresh system through `run` and another through a hand-fed
/// `SlotMachine`, and checks both tell the same story.
fn machine_matches_engine<S, R>(mk: impl Fn() -> S, trace: &Trace<S::Packet>, run: R)
where
    S: DatapathSystem,
    R: Fn(&mut S, &Trace<S::Packet>, &EngineConfig) -> Result<RunSummary, AdmitError>,
{
    let engine = engine();
    let mut offline = mk();
    let summary = run(&mut offline, trace, &engine).unwrap();
    let label = offline.label();

    let mut machine = SlotMachine::new(mk(), engine.flush);
    for burst in trace.iter() {
        assert!(machine.flush_check(&mut NullObserver, &mut NoHook));
        machine.step(burst, &mut NullObserver, &mut NoHook).unwrap();
    }
    assert!(machine.drain(&mut NullObserver, &mut NoHook, true));

    assert!(summary.score > 0, "{label}: nothing transmitted");
    assert_eq!(machine.score(), summary.score, "{label}");
    assert_eq!(machine.stats().slots, summary.slots, "{label}");
    assert_eq!(machine.stats().occ_max, summary.max_occupancy, "{label}");
    assert_eq!(machine.occupancy(), 0, "{label}: drained");
    assert_eq!(offline.occupancy(), 0, "{label}: drained");
    assert_eq!(offline.score(), summary.score, "{label}");
    assert_eq!(machine.system().counters(), offline.counters(), "{label}");
    assert_eq!(machine.system().label(), label);
}

#[test]
fn work_model_implementors_agree_across_drivers() {
    let cfg = WorkSwitchConfig::contiguous(PORTS, BUFFER).unwrap();
    let trace = scenario().work_trace(&cfg, &PortMix::Uniform).unwrap();
    machine_matches_engine(
        || WorkRunner::new(cfg.clone(), Lwd::new(), 1),
        &trace,
        run_work,
    );
    machine_matches_engine(|| WorkPqOpt::new(BUFFER, PORTS), &trace, run_work);
    for admission in [FifoAdmission::Greedy, FifoAdmission::PushOutLargest] {
        machine_matches_engine(
            || SingleFifoQueue::new(BUFFER, PORTS, admission),
            &trace,
            run_work,
        );
    }
}

#[test]
fn value_model_implementors_agree_across_drivers() {
    let cfg = ValueSwitchConfig::new(BUFFER, PORTS as usize).unwrap();
    let trace = scenario()
        .value_trace(
            PORTS as usize,
            &PortMix::Uniform,
            &ValueMix::Uniform { max: 8 },
        )
        .unwrap();
    machine_matches_engine(|| ValueRunner::new(cfg, Mrd::new(), 1), &trace, run_value);
    machine_matches_engine(|| ValuePqOpt::new(BUFFER, PORTS), &trace, run_value);
}

#[test]
fn combined_model_implementors_agree_across_drivers() {
    let cfg = WorkSwitchConfig::contiguous(PORTS, BUFFER).unwrap();
    let trace = scenario()
        .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 8 })
        .unwrap();
    machine_matches_engine(
        || CombinedRunner::new(cfg.clone(), Wvd::new(), 1),
        &trace,
        run_combined,
    );
    machine_matches_engine(|| CombinedPqOpt::new(BUFFER, PORTS), &trace, run_combined);
}
