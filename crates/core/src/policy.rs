//! One policy interface, [`Policy<Q>`], and one [`Runner<Q, P>`] that
//! applies a policy's decisions, for every queue discipline.

use smbm_switch::{AdmitError, Discipline, PhaseReport, PortId, Switch, Transmitted, WorkQueue};

use crate::Decision;

/// An online buffer-management policy over switches of discipline `Q`.
///
/// A policy observes the current switch state (read-only) and one arriving
/// packet, and returns a [`Decision`]; the [`Runner`] applies it. A push-out
/// names a victim queue, whose discipline picks the packet that leaves (the
/// FIFO tail in the work model, the minimal value otherwise). Naming the
/// destination queue itself realises the virtual-add semantics described in
/// DESIGN.md: the arrival is inserted and the queue's victim (possibly the
/// arrival) leaves. Policies are deterministic given the switch state — all
/// algorithms in the paper are — but the trait takes `&mut self` so stateful
/// or randomized extensions remain possible.
pub trait Policy<Q: Discipline>: std::fmt::Debug + Send {
    /// Short human-readable identifier, e.g. `"LWD"`.
    fn name(&self) -> &str;

    /// Decides the fate of `pkt` given the switch state.
    fn decide(&mut self, switch: &Switch<Q>, pkt: Q::Packet) -> Decision;

    /// Invoked when the simulator flushes the buffer, for policies that keep
    /// internal state. The bundled policies are stateless.
    fn on_flush(&mut self) {}

    /// Whether the runner should report queue-change events (see
    /// [`Policy::queues_changed`]) on a switch with `ports` ports.
    /// Defaults to `false` so scan-based policies pay nothing.
    fn wants_queue_events(&self, ports: usize) -> bool {
        let _ = ports;
        false
    }

    /// Notifies the policy that `port`'s queue changed since the last
    /// decision, so incremental indices (see [`crate::ScoreIndex`]) can
    /// refresh that port's score. Only called when
    /// [`Policy::wants_queue_events`] returns `true`.
    fn queue_changed(&mut self, switch: &Switch<Q>, port: PortId) {
        let _ = (switch, port);
    }

    /// Batch form of [`Policy::queue_changed`]: one call per sync with every
    /// port that changed since the last decision, letting indexed policies
    /// rebuild in O(n) when most ports are dirty (the post-transmission
    /// storm) instead of n point updates.
    fn queues_changed(&mut self, switch: &Switch<Q>, ports: &[PortId]) {
        for &port in ports {
            self.queue_changed(switch, port);
        }
    }
}

impl<Q: Discipline, P: Policy<Q> + ?Sized> Policy<Q> for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, switch: &Switch<Q>, pkt: Q::Packet) -> Decision {
        (**self).decide(switch, pkt)
    }

    fn on_flush(&mut self) {
        (**self).on_flush()
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        (**self).wants_queue_events(ports)
    }

    fn queue_changed(&mut self, switch: &Switch<Q>, port: PortId) {
        (**self).queue_changed(switch, port)
    }

    fn queues_changed(&mut self, switch: &Switch<Q>, ports: &[PortId]) {
        (**self).queues_changed(switch, ports)
    }
}

/// Binds a [`Policy`] to a [`Switch`] and a speedup, exposing the two-phase
/// slot operations the simulation engine drives.
///
/// ```
/// use smbm_core::{Mrd, ValueRunner};
/// use smbm_switch::{PortId, Value, ValuePacket, ValueSwitchConfig};
///
/// let mut runner = ValueRunner::new(ValueSwitchConfig::new(4, 2)?, Mrd::new(), 1);
/// runner.arrival(ValuePacket::new(PortId::new(0), Value::new(6)))?;
/// assert_eq!(runner.transmission().value, 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Runner<Q: Discipline, P> {
    switch: Switch<Q>,
    policy: P,
    speedup: u32,
    dirty_scratch: Vec<PortId>,
}

impl<Q: Discipline, P: Policy<Q>> Runner<Q, P> {
    /// Creates a runner over a fresh switch.
    pub fn new(config: Q::Config, policy: P, speedup: u32) -> Self {
        Runner {
            switch: Switch::new(config),
            policy,
            speedup,
            dirty_scratch: Vec::new(),
        }
    }

    /// The underlying switch (read-only).
    pub fn switch(&self) -> &Switch<Q> {
        &self.switch
    }

    /// The bound policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Speedup `C` used in the transmission phase.
    pub fn speedup(&self) -> u32 {
        self.speedup
    }

    /// Presents one arriving packet to the policy and applies its decision.
    ///
    /// # Errors
    ///
    /// Propagates [`AdmitError`] if the policy's decision was inconsistent
    /// with the switch state (accepting into a full buffer, pushing out from
    /// an empty queue, ...). The bundled policies never err.
    pub fn arrival(&mut self, pkt: Q::Packet) -> Result<Decision, AdmitError> {
        // Queue-change events are only consumed by victim selection, which
        // only runs on a full buffer — so let dirt accumulate (deduplicated,
        // bounded by n) while there is free space and sync just before a
        // decision that can push out.
        if self.switch.is_full() && self.policy.wants_queue_events(self.switch.ports()) {
            self.switch.drain_dirty_into(&mut self.dirty_scratch);
            self.policy
                .queues_changed(&self.switch, &self.dirty_scratch);
        }
        let decision = self.policy.decide(&self.switch, pkt);
        match decision {
            Decision::Accept => self.switch.admit(pkt)?,
            Decision::Drop => self.switch.reject(pkt)?,
            Decision::PushOut(victim) => {
                self.switch.push_out_and_admit(victim, pkt)?;
            }
        }
        Ok(decision)
    }

    /// Runs the transmission phase at the configured speedup.
    pub fn transmission(&mut self) -> PhaseReport {
        self.switch.transmit(self.speedup)
    }

    /// Like [`Runner::transmission`], appending per-packet completion
    /// details to `out`.
    pub fn transmission_into(&mut self, out: &mut Vec<Transmitted>) -> PhaseReport {
        self.switch.transmit_into(self.speedup, out)
    }

    /// Ends the slot (advances the switch clock).
    pub fn end_slot(&mut self) {
        self.switch.advance_slot();
    }

    /// Flushes the buffer (simulation "flushout") and notifies the policy.
    pub fn flush(&mut self) -> u64 {
        self.policy.on_flush();
        self.switch.flush()
    }

    /// Packets transmitted so far.
    pub fn transmitted(&self) -> u64 {
        self.switch.counters().transmitted()
    }

    /// Total value transmitted so far (the value and combined models'
    /// objective; equal to [`Runner::transmitted`] in the work model, whose
    /// packets are each worth one).
    pub fn transmitted_value(&self) -> u64 {
        self.switch.counters().transmitted_value()
    }
}

impl<P: Policy<WorkQueue>> Runner<WorkQueue, P> {
    /// Like [`Runner::arrival`], building the packet with the work label its
    /// destination port requires.
    ///
    /// ```
    /// use smbm_core::{Lwd, WorkRunner};
    /// use smbm_switch::{PortId, WorkSwitchConfig};
    ///
    /// let cfg = WorkSwitchConfig::contiguous(3, 6)?;
    /// let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
    /// runner.arrival_to(PortId::new(2))?; // policy decides, runner applies
    /// runner.transmission();
    /// runner.end_slot();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`Runner::arrival`].
    pub fn arrival_to(&mut self, port: PortId) -> Result<Decision, AdmitError> {
        let pkt = self.switch.packet_for(port);
        self.arrival(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        combined_policy_by_name, value_policy_by_name, work_policy_by_name, CombinedPolicy,
        DatapathSystem, ValuePolicy, WorkPolicy,
    };
    use smbm_switch::{
        CombinedPacket, CombinedQueue, Packet, Slot, Value, ValuePacket, ValueQueue,
        ValueSwitchConfig, Work, WorkPacket, WorkSwitchConfig,
    };

    /// One model's runner ingredients, so the runner behaviour every model
    /// shares is tested once over all three aliases: two ports (works 1
    /// and 2 where the model has works), packets worth `value` (ignored by
    /// the work model), and the model's registry of boxed policies.
    trait Model: Discipline {
        type Dyn: Policy<Self> + ?Sized;
        fn config(buffer: usize) -> Self::Config;
        fn packet(port: usize, value: u64) -> Self::Packet;
        fn boxed(name: &str) -> Box<Self::Dyn>;
    }

    impl Model for WorkQueue {
        type Dyn = dyn WorkPolicy;
        fn config(buffer: usize) -> WorkSwitchConfig {
            WorkSwitchConfig::contiguous(2, buffer).unwrap()
        }
        fn packet(port: usize, _value: u64) -> WorkPacket {
            WorkPacket::new(PortId::new(port), Work::new(port as u32 + 1))
        }
        fn boxed(name: &str) -> Box<dyn WorkPolicy> {
            work_policy_by_name(name).unwrap()
        }
    }

    impl Model for ValueQueue {
        type Dyn = dyn ValuePolicy;
        fn config(buffer: usize) -> ValueSwitchConfig {
            ValueSwitchConfig::new(buffer, 2).unwrap()
        }
        fn packet(port: usize, value: u64) -> ValuePacket {
            ValuePacket::new(PortId::new(port), Value::new(value))
        }
        fn boxed(name: &str) -> Box<dyn ValuePolicy> {
            value_policy_by_name(name).unwrap()
        }
    }

    impl Model for CombinedQueue {
        type Dyn = dyn CombinedPolicy;
        fn config(buffer: usize) -> WorkSwitchConfig {
            WorkSwitchConfig::contiguous(2, buffer).unwrap()
        }
        fn packet(port: usize, value: u64) -> CombinedPacket {
            let work = Work::new(port as u32 + 1);
            CombinedPacket::new(PortId::new(port), work, Value::new(value))
        }
        fn boxed(name: &str) -> Box<dyn CombinedPolicy> {
            combined_policy_by_name(name).unwrap()
        }
    }

    /// Accepts while space remains, in any model, and counts flushes.
    #[derive(Debug, Default)]
    struct CountsFlushes(u32);

    impl<Q: Discipline> Policy<Q> for CountsFlushes {
        fn name(&self) -> &str {
            "COUNTS-FLUSHES"
        }
        fn decide(&mut self, switch: &Switch<Q>, _pkt: Q::Packet) -> Decision {
            if switch.is_full() {
                Decision::Drop
            } else {
                Decision::Accept
            }
        }
        fn on_flush(&mut self) {
            self.0 += 1;
        }
    }

    /// Defines each `test => check` as a test running the generic check
    /// once per model.
    macro_rules! every_model {
        ($($test:ident => $check:ident,)*) => {$(
            #[test]
            fn $test() {
                $check::<WorkQueue>();
                $check::<ValueQueue>();
                $check::<CombinedQueue>();
            }
        )*};
    }

    every_model! {
        runner_admits_transmits_and_scores => lifecycle,
        flush_clears_the_buffer_and_notifies_the_policy => flush_notifies_the_policy,
        boxed_policy_delegates_name_and_decisions => boxed_policy_pushes_out,
    }

    fn lifecycle<Q: Model>() {
        let mut r = Runner::<Q, _>::new(Q::config(2), Q::boxed("GREEDY"), 1);
        let (first, second) = (Q::packet(0, 5), Q::packet(0, 3));
        assert_eq!(r.arrival(first).unwrap(), Decision::Accept);
        assert_eq!(r.arrival(second).unwrap(), Decision::Accept);
        assert_eq!(r.arrival(first).unwrap(), Decision::Drop);
        // Port 0 needs one cycle: the first, most valuable packet leaves.
        let report = r.transmission();
        assert_eq!((report.transmitted, report.value), (1, first.value().get()));
        r.end_slot();
        assert_eq!(r.switch().now(), Slot::ZERO.next());
        assert_eq!(r.transmitted(), 1);
        assert_eq!(r.transmitted_value(), report.value);
        assert_eq!(r.score(), report.value);
        r.switch().check_invariants().unwrap();
    }

    fn flush_notifies_the_policy<Q: Model>() {
        let mut r = Runner::<Q, _>::new(Q::config(4), CountsFlushes::default(), 1);
        for _ in 0..3 {
            r.arrival(Q::packet(1, 2)).unwrap();
        }
        assert_eq!(r.flush(), 3);
        assert_eq!(r.switch().occupancy(), 0);
        assert_eq!(r.policy().0, 1);
        r.switch().check_invariants().unwrap();
    }

    fn boxed_policy_pushes_out<Q: Model>() {
        let mut r = Runner::<Q, _>::new(Q::config(2), Q::boxed("LQD"), 1);
        assert_eq!(Policy::<Q>::name(r.policy()), "LQD");
        r.arrival(Q::packet(0, 1)).unwrap();
        r.arrival(Q::packet(0, 1)).unwrap();
        // Full: LQD evicts from the longer queue 0 to admit port 1's packet.
        let decision = r.arrival(Q::packet(1, 5)).unwrap();
        assert_eq!(decision, Decision::PushOut(PortId::new(0)));
        assert_eq!(r.switch().queue(PortId::new(1)).len(), 1);
        r.switch().check_invariants().unwrap();
    }
}
