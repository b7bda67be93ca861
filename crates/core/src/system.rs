//! The one interface over "things that receive a packet stream": policy
//! runners, OPT surrogates and the single-FIFO baseline all implement
//! [`DatapathSystem`], so the slot machine drives an algorithm and its
//! yardstick through identical slot phases, offline and live.
//!
//! Every hook reports enough detail for instrumentation: [`offer`] returns
//! the packet's fate ([`ArrivalOutcome`]), [`flush`] the number of discarded
//! packets, and [`transmission_phase_into`] appends per-packet completion
//! records for systems that track them (the shared-memory runners do; the
//! aggregate OPT surrogates leave `out` untouched).
//!
//! [`offer`]: DatapathSystem::offer
//! [`flush`]: DatapathSystem::flush
//! [`transmission_phase_into`]: DatapathSystem::transmission_phase_into

use smbm_switch::{
    AdmitError, ArrivalOutcome, CombinedPacket, Counters, Discipline, DropReason, Packet, PortId,
    Transmitted, ValuePacket, WorkPacket,
};

use crate::{CombinedPqOpt, Decision, Policy, Runner, ValuePqOpt, WorkPqOpt};

/// What the slot machine needs from the system it drives: burst admission,
/// transmission, slot bookkeeping, flush, and the scalar gauges the
/// drivers report.
///
/// The packet type selects the model: [`WorkPacket`] (throughput
/// objective, per-port work), [`ValuePacket`] (value objective, unit work)
/// or [`CombinedPacket`] (value objective, per-port work).
///
/// `meta` is an associated function (not a method) so callers — the
/// runtime's producers attributing value to backpressure-rejected packets,
/// the machine emitting arrival events — can carry it as a plain `fn`
/// pointer without touching the system.
pub trait DatapathSystem {
    /// The packet type flowing through the datapath. Plain data: every
    /// model's packet is `Copy + Send` and crosses threads in the runtime's
    /// ingress rings.
    type Packet: Packet;

    /// Human-readable label (the policy name) for reports.
    fn label(&self) -> String;

    /// Destination port, work cycles, and value of a packet (1 wherever the
    /// model lacks the dimension), feeding arrival events.
    fn meta(pkt: Self::Packet) -> (PortId, u32, u64) {
        (pkt.port(), pkt.work().cycles(), pkt.value().get())
    }

    /// Offers one packet to admission control, reporting its fate. The
    /// machine's arrival phase is built on this (per-packet, so observer
    /// events interleave with admission and nothing is materialized on the
    /// hot path).
    ///
    /// # Errors
    ///
    /// Surfaces an [`AdmitError`] (an inconsistent policy decision).
    fn offer(&mut self, pkt: Self::Packet) -> Result<ArrivalOutcome, AdmitError>;

    /// Offers a whole burst to admission control, appending one outcome per
    /// packet in offer order. The default loops over
    /// [`DatapathSystem::offer`].
    ///
    /// # Errors
    ///
    /// Stops at the first [`AdmitError`] (an inconsistent policy decision);
    /// outcomes already appended stay.
    fn offer_burst(
        &mut self,
        pkts: &[Self::Packet],
        outcomes: &mut Vec<ArrivalOutcome>,
    ) -> Result<(), AdmitError> {
        outcomes.reserve(pkts.len());
        for &pkt in pkts {
            outcomes.push(self.offer(pkt)?);
        }
        Ok(())
    }

    /// Runs one transmission phase, appending per-packet completion records
    /// for systems that track them; returns the phase's contribution to the
    /// objective (packets in the work model, value otherwise).
    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64;

    /// Marks the end of the slot (advances the switch clock).
    fn end_slot(&mut self);

    /// Discards all buffered packets; returns how many were discarded.
    fn flush(&mut self) -> u64;

    /// Packets currently buffered.
    fn occupancy(&self) -> usize;

    /// The objective so far: packets transmitted (work model) or value
    /// transmitted (value/combined models).
    fn score(&self) -> u64;

    /// The configured shared buffer limit B (telemetry gauge). Defaults to
    /// 0 for systems without one (the aggregate OPT surrogates).
    fn buffer_limit(&self) -> usize {
        0
    }

    /// The configured output port count n (telemetry gauge). Defaults to 0
    /// for systems without one.
    fn ports(&self) -> usize {
        0
    }

    /// Length of the longest output queue right now (telemetry gauge).
    /// Defaults to 0 for systems that do not track per-port queues.
    fn max_queue_depth(&self) -> usize {
        0
    }

    /// Snapshot of the switch's lifetime counters. Defaults to empty for
    /// systems that do not keep them.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

/// A `&mut` borrow drives the underlying system in place, so the offline
/// engine runs a caller-owned system through the same machine the runtime
/// drives with owned ones.
impl<S: DatapathSystem> DatapathSystem for &mut S {
    type Packet = S::Packet;

    fn label(&self) -> String {
        (**self).label()
    }

    fn meta(pkt: S::Packet) -> (PortId, u32, u64) {
        S::meta(pkt)
    }

    fn offer(&mut self, pkt: S::Packet) -> Result<ArrivalOutcome, AdmitError> {
        (**self).offer(pkt)
    }

    fn offer_burst(
        &mut self,
        pkts: &[S::Packet],
        outcomes: &mut Vec<ArrivalOutcome>,
    ) -> Result<(), AdmitError> {
        (**self).offer_burst(pkts, outcomes)
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        (**self).transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        (**self).end_slot();
    }

    fn flush(&mut self) -> u64 {
        (**self).flush()
    }

    fn occupancy(&self) -> usize {
        (**self).occupancy()
    }

    fn score(&self) -> u64 {
        (**self).score()
    }

    fn buffer_limit(&self) -> usize {
        (**self).buffer_limit()
    }

    fn ports(&self) -> usize {
        (**self).ports()
    }

    fn max_queue_depth(&self) -> usize {
        (**self).max_queue_depth()
    }

    fn counters(&self) -> Counters {
        (**self).counters()
    }
}

/// Every runner is a system. The objective is transmitted value in every
/// model: a work-model packet is worth one, so there it equals the packet
/// count.
impl<Q: Discipline, P: Policy<Q>> DatapathSystem for Runner<Q, P> {
    type Packet = Q::Packet;

    fn label(&self) -> String {
        self.policy().name().to_owned()
    }

    /// Reports the decision as an outcome, telling a drop forced by a full
    /// buffer from a policy's refusal with space free.
    fn offer(&mut self, pkt: Q::Packet) -> Result<ArrivalOutcome, AdmitError> {
        let was_full = self.switch().is_full();
        Ok(match self.arrival(pkt)? {
            Decision::Accept => ArrivalOutcome::Admitted,
            Decision::PushOut(victim) => ArrivalOutcome::PushedOut(victim),
            Decision::Drop if was_full => ArrivalOutcome::Dropped(DropReason::BufferFull),
            Decision::Drop => ArrivalOutcome::Dropped(DropReason::Policy),
        })
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.transmission_into(out).value
    }

    fn end_slot(&mut self) {
        Runner::end_slot(self);
    }

    fn flush(&mut self) -> u64 {
        Runner::flush(self)
    }

    fn occupancy(&self) -> usize {
        self.switch().occupancy()
    }

    fn score(&self) -> u64 {
        self.transmitted_value()
    }

    fn buffer_limit(&self) -> usize {
        self.switch().buffer()
    }

    fn ports(&self) -> usize {
        self.switch().ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.switch().max_queue_len()
    }

    fn counters(&self) -> Counters {
        *self.switch().counters()
    }
}

impl DatapathSystem for WorkPqOpt {
    type Packet = WorkPacket;

    fn label(&self) -> String {
        format!("OPT(pq,{}cores)", self.cores())
    }

    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
        Ok(WorkPqOpt::offer(self, pkt))
    }

    fn transmission_phase_into(&mut self, _out: &mut Vec<Transmitted>) -> u64 {
        self.transmission()
    }

    fn end_slot(&mut self) {}

    fn flush(&mut self) -> u64 {
        WorkPqOpt::flush(self)
    }

    fn occupancy(&self) -> usize {
        WorkPqOpt::occupancy(self)
    }

    fn score(&self) -> u64 {
        self.transmitted()
    }
}

impl DatapathSystem for ValuePqOpt {
    type Packet = ValuePacket;

    fn label(&self) -> String {
        format!("OPT(pq,{}cores)", self.cores())
    }

    fn offer(&mut self, pkt: ValuePacket) -> Result<ArrivalOutcome, AdmitError> {
        Ok(ValuePqOpt::offer(self, pkt))
    }

    fn transmission_phase_into(&mut self, _out: &mut Vec<Transmitted>) -> u64 {
        self.transmission()
    }

    fn end_slot(&mut self) {}

    fn flush(&mut self) -> u64 {
        ValuePqOpt::flush(self)
    }

    fn occupancy(&self) -> usize {
        ValuePqOpt::occupancy(self)
    }

    fn score(&self) -> u64 {
        self.transmitted_value()
    }
}

impl DatapathSystem for CombinedPqOpt {
    type Packet = CombinedPacket;

    fn label(&self) -> String {
        format!("OPT(density,{}cores)", self.cores())
    }

    fn offer(&mut self, pkt: CombinedPacket) -> Result<ArrivalOutcome, AdmitError> {
        Ok(CombinedPqOpt::offer(self, pkt))
    }

    fn transmission_phase_into(&mut self, _out: &mut Vec<Transmitted>) -> u64 {
        self.transmission()
    }

    fn end_slot(&mut self) {}

    fn flush(&mut self) -> u64 {
        CombinedPqOpt::flush(self)
    }

    fn occupancy(&self) -> usize {
        CombinedPqOpt::occupancy(self)
    }

    fn score(&self) -> u64 {
        self.transmitted_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CombinedRunner, GreedyValue, Lwd, Nest, NestValue, ValueRunner, WorkRunner};
    use smbm_switch::{
        CombinedQueue, CombinedSwitch, Value, ValueSwitchConfig, Work, WorkSwitchConfig,
    };

    /// One admitted packet, one transmission phase: every system reports
    /// the same fate and objective through the shared interface.
    fn admit_and_transmit<S: DatapathSystem>(mut sys: S, pkt: S::Packet, objective: u64) {
        let label = sys.label();
        assert_eq!(sys.offer(pkt).unwrap(), ArrivalOutcome::Admitted, "{label}");
        assert_eq!(sys.occupancy(), 1, "{label}");
        assert_eq!(sys.transmission_phase_into(&mut Vec::new()), objective);
        sys.end_slot();
        assert_eq!(sys.score(), objective, "{label}");
        assert_eq!(sys.occupancy(), 0, "{label}");
    }

    #[test]
    fn runner_and_opt_share_one_interface() {
        let wp = WorkPacket::new(PortId::new(0), Work::new(1));
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        admit_and_transmit(WorkRunner::new(cfg, Lwd::new(), 1), wp, 1);
        admit_and_transmit(WorkPqOpt::new(4, 2), wp, 1);

        let vp = ValuePacket::new(PortId::new(1), Value::new(7));
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        admit_and_transmit(ValueRunner::new(cfg, GreedyValue::new(), 1), vp, 7);
        admit_and_transmit(ValuePqOpt::new(4, 2), vp, 7);
    }

    /// Offers `pkt` `times` times; returns the last outcome.
    fn offer_times<S: DatapathSystem>(sys: &mut S, pkt: S::Packet, times: usize) -> ArrivalOutcome {
        (0..times).map(|_| sys.offer(pkt).unwrap()).last().unwrap()
    }

    /// A combined-model policy no bundled one matches: refuse packets worth
    /// less than 2 even with space free. The same runner applies it.
    #[derive(Debug)]
    struct ValueFloor;

    impl Policy<CombinedQueue> for ValueFloor {
        fn name(&self) -> &str {
            "FLOOR"
        }
        fn decide(&mut self, switch: &CombinedSwitch, pkt: CombinedPacket) -> Decision {
            if switch.is_full() || pkt.value() < Value::new(2) {
                Decision::Drop
            } else {
                Decision::Accept
            }
        }
    }

    #[test]
    fn runner_distinguishes_drop_reasons() {
        let full = ArrivalOutcome::Dropped(DropReason::BufferFull);
        let refused = ArrivalOutcome::Dropped(DropReason::Policy);
        let p0 = PortId::new(0);

        // Work model. LWD on one saturated queue of B = 1 keeps the
        // incumbent; NEST caps each of 2 queues at B/n = 2 and refuses the
        // third packet for port 0 while the buffer still has room.
        let mut sys = WorkRunner::new(WorkSwitchConfig::contiguous(1, 1).unwrap(), Lwd::new(), 1);
        let pkt = sys.switch().packet_for(p0);
        assert_eq!(offer_times(&mut sys, pkt, 1), ArrivalOutcome::Admitted);
        assert_eq!(offer_times(&mut sys, pkt, 1), full);
        let mut sys = WorkRunner::new(WorkSwitchConfig::contiguous(2, 4).unwrap(), Nest::new(), 1);
        assert_eq!(offer_times(&mut sys, pkt, 3), refused);

        // Value model: NEST-V refuses the same way; greedy at B = 1 is full.
        let pkt = ValuePacket::new(p0, Value::new(5));
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        assert_eq!(
            offer_times(&mut ValueRunner::new(cfg, NestValue::new(), 1), pkt, 3),
            refused
        );
        let cfg = ValueSwitchConfig::new(1, 1).unwrap();
        assert_eq!(
            offer_times(&mut ValueRunner::new(cfg, GreedyValue::new(), 1), pkt, 2),
            full
        );

        // Combined model, through the test-local policy.
        let mut sys =
            CombinedRunner::new(WorkSwitchConfig::contiguous(2, 2).unwrap(), ValueFloor, 1);
        let cheap = CombinedPacket::new(p0, Work::new(1), Value::new(1));
        let dear = CombinedPacket::new(PortId::new(1), Work::new(2), Value::new(9));
        assert_eq!(offer_times(&mut sys, cheap, 1), refused);
        assert_eq!(offer_times(&mut sys, dear, 2), ArrivalOutcome::Admitted);
        assert_eq!(offer_times(&mut sys, cheap, 1), full);
    }

    #[test]
    fn transmission_phase_into_reports_completions() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = WorkRunner::new(cfg, Lwd::new(), 1);
        DatapathSystem::offer(&mut sys, WorkPacket::new(PortId::new(0), Work::new(1))).unwrap();
        let mut out = Vec::new();
        assert_eq!(sys.transmission_phase_into(&mut out), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, PortId::new(0));

        // The aggregate OPT surrogate leaves `out` untouched.
        let mut opt = WorkPqOpt::new(4, 2);
        DatapathSystem::offer(&mut opt, WorkPacket::new(PortId::new(0), Work::new(1))).unwrap();
        out.clear();
        assert_eq!(opt.transmission_phase_into(&mut out), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn offer_burst_matches_per_packet_offers() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let mut one = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
        let mut batch = WorkRunner::new(cfg, Lwd::new(), 1);
        let burst = vec![WorkPacket::new(PortId::new(0), Work::new(1)); 4];
        let singles: Vec<ArrivalOutcome> = burst
            .iter()
            .map(|&p| DatapathSystem::offer(&mut one, p).unwrap())
            .collect();
        let mut outcomes = Vec::new();
        batch.offer_burst(&burst, &mut outcomes).unwrap();
        assert_eq!(outcomes, singles);
        assert_eq!(one.switch().occupancy(), batch.switch().occupancy());
    }

    #[test]
    fn runner_round_trip_reports_gauges_and_meta() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = WorkRunner::new(cfg, Lwd::new(), 1);
        assert_eq!(DatapathSystem::label(&sys), "LWD");
        let pkt = WorkPacket::new(PortId::new(0), Work::new(1));
        assert_eq!(WorkRunner::<Lwd>::meta(pkt), (PortId::new(0), 1, 1));
        let mut outcomes = Vec::new();
        sys.offer_burst(&[pkt, pkt], &mut outcomes).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(DatapathSystem::occupancy(&sys), 2);
        assert_eq!(sys.buffer_limit(), 4);
        assert_eq!(DatapathSystem::ports(&sys), 2);
        assert_eq!(sys.max_queue_depth(), 2);
        assert_eq!(sys.transmission_phase_into(&mut Vec::new()), 1);
        DatapathSystem::end_slot(&mut sys);
        assert_eq!(sys.score(), 1);
        assert_eq!(DatapathSystem::counters(&sys).transmitted(), 1);
        assert_eq!(DatapathSystem::flush(&mut sys), 1);
        assert_eq!(DatapathSystem::occupancy(&sys), 0);
    }

    #[test]
    fn meta_carries_each_model_dimension() {
        let p = PortId::new(1);
        let cp = CombinedPacket::new(p, Work::new(3), Value::new(9));
        assert_eq!(CombinedPqOpt::meta(cp), (p, 3, 9));
        assert_eq!(
            ValuePqOpt::meta(ValuePacket::new(p, Value::new(9))),
            (p, 1, 9)
        );
        assert_eq!(WorkPqOpt::meta(WorkPacket::new(p, Work::new(3))), (p, 3, 1));
    }

    #[test]
    fn a_mutable_borrow_drives_the_system_in_place() {
        fn drive<S: DatapathSystem>(mut sys: S, pkt: S::Packet) -> u64 {
            sys.offer(pkt).unwrap();
            let sent = sys.transmission_phase_into(&mut Vec::new());
            sys.end_slot();
            assert_eq!(sys.score(), sent);
            sent
        }
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut runner = ValueRunner::new(cfg, GreedyValue::new(), 1);
        let pkt = ValuePacket::new(PortId::new(0), Value::new(7));
        assert_eq!(drive(&mut runner, pkt), 7);
        assert_eq!(runner.transmitted_value(), 7);
    }

    #[test]
    fn opt_surrogates_default_the_gauges() {
        fn defaulted<S: DatapathSystem>(sys: &S) {
            assert_eq!(sys.buffer_limit(), 0);
            assert_eq!(sys.ports(), 0);
            assert_eq!(sys.max_queue_depth(), 0);
            assert_eq!(sys.counters(), Counters::new());
        }
        defaulted(&WorkPqOpt::new(4, 2));
        defaulted(&ValuePqOpt::new(4, 2));
        defaulted(&CombinedPqOpt::new(4, 2));
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(
            DatapathSystem::label(&WorkPqOpt::new(2, 3)),
            "OPT(pq,3cores)"
        );
        assert_eq!(
            DatapathSystem::label(&CombinedPqOpt::new(2, 3)),
            "OPT(density,3cores)"
        );
    }
}
