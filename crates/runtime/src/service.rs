//! The shard's view of a policy-driven switch.
//!
//! [`Service`] is a re-export of `smbm-core`'s
//! [`DatapathSystem`](smbm_core::DatapathSystem), the same trait the
//! offline simulation engine drives. Every runner implements it directly,
//! so a shard factory may return a runner as is; [`WorkService`],
//! [`ValueService`] and [`CombinedService`] keep the runtime's historical
//! `::new(runner)` constructor as aliases of one owned wrapper,
//! [`Served`].
//!
//! Shard threads construct their service from a caller-supplied factory
//! (the service itself never crosses threads; only its plain-data
//! [`Counters`] snapshot comes back). Factories are `Fn`, not `FnOnce`: the
//! supervisor reinvokes the same factory to rebuild a shard's service after
//! a panic, so a factory must yield a fresh, equivalently-configured
//! service every time it is called.

use smbm_core::{CombinedRunner, ValueRunner, WorkRunner};
use smbm_switch::{AdmitError, ArrivalOutcome, Counters, PortId, Transmitted};

pub use smbm_core::DatapathSystem as Service;

/// A system owned by the shard that serves it: forwards every operation to
/// the wrapped system unchanged.
#[derive(Debug)]
pub struct Served<S>(S);

impl<S: Service> Served<S> {
    /// Wraps an owned system (typically a policy runner).
    pub fn new(sys: S) -> Self {
        Served(sys)
    }
}

impl<S: Service> Service for Served<S> {
    type Packet = S::Packet;

    fn label(&self) -> String {
        self.0.label()
    }

    fn meta(pkt: S::Packet) -> (PortId, u32, u64) {
        S::meta(pkt)
    }

    fn offer(&mut self, pkt: S::Packet) -> Result<ArrivalOutcome, AdmitError> {
        self.0.offer(pkt)
    }

    fn offer_burst(
        &mut self,
        pkts: &[S::Packet],
        outcomes: &mut Vec<ArrivalOutcome>,
    ) -> Result<(), AdmitError> {
        self.0.offer_burst(pkts, outcomes)
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.0.transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        self.0.end_slot();
    }

    fn flush(&mut self) -> u64 {
        self.0.flush()
    }

    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }

    fn score(&self) -> u64 {
        self.0.score()
    }

    fn buffer_limit(&self) -> usize {
        self.0.buffer_limit()
    }

    fn ports(&self) -> usize {
        self.0.ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.0.max_queue_depth()
    }

    fn counters(&self) -> Counters {
        self.0.counters()
    }
}

/// A work-model service: throughput objective, per-port work requirements.
pub type WorkService<P> = Served<WorkRunner<P>>;

/// A value-model service: value objective, unit work.
pub type ValueService<P> = Served<ValueRunner<P>>;

/// A combined-model service (extension): value objective, per-port work.
pub type CombinedService<P> = Served<CombinedRunner<P>>;

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_core::Lwd;
    use smbm_switch::{Work, WorkPacket, WorkSwitchConfig};

    #[test]
    fn work_service_round_trip() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut svc = WorkService::new(WorkRunner::new(cfg, Lwd::new(), 1));
        assert_eq!(svc.label(), "LWD");
        let pkt = WorkPacket::new(PortId::new(0), Work::new(1));
        assert_eq!(WorkService::<Lwd>::meta(pkt), (PortId::new(0), 1, 1));
        let mut outcomes = Vec::new();
        svc.offer_burst(&[pkt, pkt], &mut outcomes).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(svc.occupancy(), 2);
        assert_eq!(svc.buffer_limit(), 4);
        assert_eq!(svc.ports(), 2);
        assert_eq!(svc.max_queue_depth(), 2);
        let mut out = Vec::new();
        assert_eq!(svc.transmission_phase_into(&mut out), 1);
        svc.end_slot();
        assert_eq!(svc.score(), 1);
        assert_eq!(svc.counters().transmitted(), 1);
        assert_eq!(svc.flush(), 1);
        assert_eq!(svc.occupancy(), 0);
    }
}
