//! The offline trace driver: feeds any [`DatapathSystem`] through an
//! arrival trace, one burst per slot, with the paper's periodic flushouts.
//!
//! The slot semantics themselves — flush, arrival, transmission, drain —
//! live in `smbm-datapath`'s [`SlotMachine`]; this module only decides when
//! to feed it (once per trace slot) and folds the machine's [`SlotStats`]
//! into a [`RunSummary`]. The model-specific `run_*` entry points hand the
//! machine a `&mut` borrow of the caller's system, which implements
//! [`DatapathSystem`] for any system that does. Each entry point has
//! an `_observed` variant taking an [`Observer`]; the plain variants pass
//! [`NullObserver`], which monomorphizes every hook to a no-op, so
//! uninstrumented runs cost the same as before the observer existed — and
//! by construction execute the exact same slot sequence, so summaries and
//! counters are identical either way.
//!
//! [`SlotStats`]: smbm_datapath::SlotStats

use smbm_datapath::{DatapathSystem, NoHook, SlotMachine};
use smbm_obs::{NullObserver, Observer};
use smbm_switch::{AdmitError, CombinedPacket, ValuePacket, WorkPacket};
use smbm_traffic::Trace;

use crate::FlushPolicy;

/// Engine knobs shared by both models.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Periodic flushouts, as in the paper's simulations (`None` disables).
    pub flush: Option<FlushPolicy>,
    /// Whether to keep running arrival-free slots after the trace until the
    /// buffer empties, so every admitted packet is counted. The theorem
    /// traces set this to `false` (stuck heavy packets are the point);
    /// MMPP experiments set it to `true`.
    pub drain_at_end: bool,
}

impl EngineConfig {
    /// No flushouts, final drain enabled: the default for statistical runs.
    pub fn draining() -> Self {
        EngineConfig {
            flush: None,
            drain_at_end: true,
        }
    }

    /// No flushouts, no final drain: the setting for theorem traces.
    pub fn horizon_only() -> Self {
        EngineConfig {
            flush: None,
            drain_at_end: false,
        }
    }
}

/// Summary of one system's run over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Slots executed, including drain slots.
    pub slots: u64,
    /// Final objective value: packets transmitted (work model) or total
    /// value transmitted (value model).
    pub score: u64,
    /// Mean buffer occupancy sampled at the end of every slot.
    pub mean_occupancy: f64,
    /// Peak buffer occupancy sampled at the end of any slot.
    pub max_occupancy: usize,
}

/// The trace-fed driver: one machine step per trace slot, flush schedule
/// checked before each, optional final drain. All phase emission happens
/// inside the machine.
fn drive<S: DatapathSystem, O: Observer>(
    sys: S,
    trace: &Trace<S::Packet>,
    engine: &EngineConfig,
    obs: &mut O,
) -> Result<RunSummary, AdmitError> {
    let mut machine = SlotMachine::new(sys, engine.flush);
    for burst in trace.iter() {
        assert!(
            machine.flush_check(obs, &mut NoHook),
            "drain did not terminate"
        );
        machine.step(burst, obs, &mut NoHook)?;
    }
    if engine.drain_at_end {
        // The final drain contributes to the occupancy mean but not the
        // maximum (occupancy only falls while draining).
        assert!(
            machine.drain(obs, &mut NoHook, true),
            "final drain did not terminate"
        );
    }
    let stats = *machine.stats();
    Ok(RunSummary {
        slots: stats.slots,
        score: machine.score(),
        mean_occupancy: stats.mean_occupancy(),
        max_occupancy: stats.occ_max,
    })
}

/// Runs a work-model system over `trace`.
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run_work<S: DatapathSystem<Packet = WorkPacket>>(
    sys: &mut S,
    trace: &Trace<WorkPacket>,
    engine: &EngineConfig,
) -> Result<RunSummary, AdmitError> {
    run_work_observed(sys, trace, engine, &mut NullObserver)
}

/// Runs a work-model system over `trace`, reporting every engine event to
/// `obs`.
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run_work_observed<S: DatapathSystem<Packet = WorkPacket>, O: Observer>(
    sys: &mut S,
    trace: &Trace<WorkPacket>,
    engine: &EngineConfig,
    obs: &mut O,
) -> Result<RunSummary, AdmitError> {
    drive(sys, trace, engine, obs)
}

/// Runs a value-model system over `trace`.
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run_value<S: DatapathSystem<Packet = ValuePacket>>(
    sys: &mut S,
    trace: &Trace<ValuePacket>,
    engine: &EngineConfig,
) -> Result<RunSummary, AdmitError> {
    run_value_observed(sys, trace, engine, &mut NullObserver)
}

/// Runs a value-model system over `trace`, reporting every engine event to
/// `obs`.
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run_value_observed<S: DatapathSystem<Packet = ValuePacket>, O: Observer>(
    sys: &mut S,
    trace: &Trace<ValuePacket>,
    engine: &EngineConfig,
    obs: &mut O,
) -> Result<RunSummary, AdmitError> {
    drive(sys, trace, engine, obs)
}

/// Runs a combined-model system over `trace` (extension).
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run_combined<S: DatapathSystem<Packet = CombinedPacket>>(
    sys: &mut S,
    trace: &Trace<CombinedPacket>,
    engine: &EngineConfig,
) -> Result<RunSummary, AdmitError> {
    run_combined_observed(sys, trace, engine, &mut NullObserver)
}

/// Runs a combined-model system over `trace`, reporting every engine event
/// to `obs`.
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run_combined_observed<S: DatapathSystem<Packet = CombinedPacket>, O: Observer>(
    sys: &mut S,
    trace: &Trace<CombinedPacket>,
    engine: &EngineConfig,
    obs: &mut O,
) -> Result<RunSummary, AdmitError> {
    drive(sys, trace, engine, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlushMode;
    use smbm_core::{GreedyValue, GreedyWork, ValueRunner, WorkRunner};
    use smbm_switch::{PortId, Value, ValueSwitchConfig, Work, WorkSwitchConfig};

    fn wp(port: usize, w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(w))
    }

    fn vp(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(v))
    }

    #[test]
    fn run_work_counts_transmissions() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1), wp(1, 2)]);
        trace.push_silence(2);
        let s = run_work(&mut sys, &trace, &EngineConfig::horizon_only()).unwrap();
        assert_eq!(s.slots, 3);
        assert_eq!(s.score, 2); // 1-cycle done slot 0, 2-cycle done slot 1
    }

    #[test]
    fn final_drain_counts_resident_packets() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 5]);
        let horizon = run_work(&mut sys, &trace, &EngineConfig::horizon_only()).unwrap();
        assert_eq!(horizon.score, 1);

        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let drained = run_work(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(drained.score, 5);
        assert_eq!(drained.slots, 5); // 1 trace slot + 4 drain slots
    }

    #[test]
    fn flush_drop_discards_backlog() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 6]);
        trace.push_silence(3); // slots 1..3
        trace.push_slot(vec![wp(0, 1)]); // slot 4, right at flush boundary
        let engine = EngineConfig {
            flush: Some(FlushPolicy {
                period: 4,
                mode: FlushMode::Drop,
            }),
            drain_at_end: false,
        };
        let s = run_work(&mut sys, &trace, &engine).unwrap();
        // Slots 0-3 transmit 4; flush at slot 4 drops the remaining 2, the
        // new arrival transmits at slot 4.
        assert_eq!(s.score, 5);
    }

    #[test]
    fn flush_drain_pauses_arrivals() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 6]);
        trace.push_silence(3);
        trace.push_slot(vec![wp(0, 1)]);
        let engine = EngineConfig {
            flush: Some(FlushPolicy {
                period: 4,
                mode: FlushMode::Drain,
            }),
            drain_at_end: false,
        };
        let s = run_work(&mut sys, &trace, &engine).unwrap();
        // Everything is transmitted: the drain inserts extra slots.
        assert_eq!(s.score, 7);
        assert!(s.slots > 5);
    }

    #[test]
    fn occupancy_statistics_are_tracked() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 5]); // slot 0 ends with 4 resident
        trace.push_silence(2); // 3, 2 resident
        let s = run_work(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.max_occupancy, 4);
        // Occupancies after each slot: 4, 3, 2, then drain 1, 0.
        assert!(
            (s.mean_occupancy - 2.0).abs() < 1e-12,
            "{}",
            s.mean_occupancy
        );
    }

    #[test]
    fn run_value_scores_value() {
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut sys = ValueRunner::new(cfg, GreedyValue::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![vp(0, 5), vp(1, 3), vp(0, 2)]);
        let s = run_value(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.score, 10);
    }

    #[test]
    fn run_combined_scores_value() {
        use smbm_core::{CombinedRunner, GreedyCombined};
        use smbm_switch::{CombinedPacket, Value, WorkSwitchConfig};
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = CombinedRunner::new(cfg.clone(), GreedyCombined::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![
            CombinedPacket::new(PortId::new(0), cfg.work(PortId::new(0)), Value::new(5)),
            CombinedPacket::new(PortId::new(1), cfg.work(PortId::new(1)), Value::new(3)),
        ]);
        let s = run_combined(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.score, 8);
    }

    #[test]
    fn opt_surrogates_run_through_the_same_engine() {
        let mut opt = smbm_core::WorkPqOpt::new(4, 2);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1), wp(1, 2), wp(0, 1)]);
        let s = run_work(&mut opt, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.score, 3);
    }

    #[test]
    fn observed_run_matches_unobserved_and_logs_events() {
        use smbm_obs::{HistogramRecorder, RingEventLog};

        let mk = || {
            let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
            WorkRunner::new(cfg, GreedyWork::new(), 1)
        };
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 4]); // 2 admitted, 2 dropped
        trace.push_silence(1);

        let plain = run_work(&mut mk(), &trace, &EngineConfig::draining()).unwrap();
        let mut log = RingEventLog::new(64);
        let mut hist = HistogramRecorder::new();
        let mut obs = (&mut log, &mut hist);
        let observed =
            run_work_observed(&mut mk(), &trace, &EngineConfig::draining(), &mut obs).unwrap();
        assert_eq!(plain, observed);

        assert_eq!(hist.arrivals(), 4);
        assert_eq!(hist.admitted_packets(), 2);
        assert_eq!(
            hist.drop_count(smbm_obs::DropReason::BufferFull),
            2,
            "full-buffer greedy drops are classified as buffer_full"
        );
        assert_eq!(hist.transmitted_packets(), 2);
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("\"type\":\"arrival\""));
        assert!(jsonl.contains("\"type\":\"dropped\""));
        assert!(jsonl.contains("\"type\":\"transmitted\""));
    }

    #[test]
    fn drain_slots_are_bracketed() {
        use smbm_obs::{Event, RingEventLog};

        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 3]);
        let mut log = RingEventLog::new(64);
        run_work_observed(&mut sys, &trace, &EngineConfig::draining(), &mut log).unwrap();
        let events: Vec<&Event> = log.events().collect();
        assert!(matches!(
            events
                .iter()
                .find(|e| matches!(e, Event::DrainStart { .. })),
            Some(Event::DrainStart { slot: 1 })
        ));
        assert!(matches!(
            events.iter().find(|e| matches!(e, Event::DrainEnd { .. })),
            Some(Event::DrainEnd { slot: 3 })
        ));
    }

    #[test]
    fn work_runner_score_is_its_packet_count() {
        use smbm_core::{DatapathSystem, Lwd};
        use smbm_switch::{ArrivalOutcome, Transmitted};
        use smbm_traffic::{MmppScenario, PortMix};

        /// Runs `.0` as the system while `.1`, an identical runner kept in
        /// lockstep, reports each slot's `PhaseReport`; `.2` counts phases.
        struct Twin(WorkRunner<Lwd>, WorkRunner<Lwd>, u64);
        impl DatapathSystem for Twin {
            type Packet = WorkPacket;
            fn label(&self) -> String {
                self.0.label()
            }
            fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
                self.1.arrival(pkt)?;
                self.0.offer(pkt)
            }
            fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
                let objective = self.0.transmission_phase_into(out);
                assert_eq!(objective, self.1.transmission().transmitted);
                self.2 += 1;
                objective
            }
            fn end_slot(&mut self) {
                self.0.end_slot();
                self.1.end_slot();
            }
            fn flush(&mut self) -> u64 {
                self.1.flush();
                self.0.flush()
            }
            fn occupancy(&self) -> usize {
                self.0.occupancy()
            }
            fn score(&self) -> u64 {
                self.0.score()
            }
        }

        let cfg = WorkSwitchConfig::contiguous(8, 64).unwrap();
        let scenario = MmppScenario {
            sources: 12,
            slots: 2_000,
            seed: 7,
            ..Default::default()
        };
        let trace = scenario.work_trace(&cfg, &PortMix::Uniform).unwrap();
        let lwd = || WorkRunner::new(cfg.clone(), Lwd::new(), 1);
        let mut twin = Twin(lwd(), lwd(), 0);
        let summary = run_work(&mut twin, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(twin.2, summary.slots);
        let (score, counters) = (twin.0.score(), *twin.0.switch().counters());
        assert!(counters.pushed_out() > 0, "the trace must overload LWD");
        assert_eq!(score, summary.score);
        assert_eq!(score, counters.transmitted());
        assert_eq!(score, counters.transmitted_value());
    }
}
