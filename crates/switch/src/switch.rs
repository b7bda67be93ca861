//! The shared-memory switch state machine, generic over the one decision the
//! models disagree on: how a port's queue orders, serves and evicts packets.

use std::fmt;

use crate::slab::BufferCore;
use crate::{
    sealed, AdmitError, CombinedQueue, ConservationError, Counters, DirtyPorts, Packet, PortId,
    Slot, SwitchConfig, Transmitted, Value, ValueQueue, Work, WorkPacket, WorkQueue,
};

/// The queue discipline of a [`Switch`]: how one output queue orders, serves
/// and evicts its packets.
///
/// Sealed; implemented by [`WorkQueue`] (FIFO with residual head work, the
/// paper's Section III), [`ValueQueue`] (value priority queue, Section IV)
/// and [`CombinedQueue`] (run-to-completion over a value-sorted backlog, this
/// repository's combined extension). Every method works on the switch's
/// shared [`BufferCore`] slab.
pub trait Discipline: Clone + fmt::Debug + sealed::Sealed {
    /// The configuration a switch of this discipline is built from.
    type Config: SwitchConfig;
    /// The packet arriving at a switch of this discipline.
    type Packet: Packet;

    /// An empty queue for a port whose packets each need `work` cycles.
    fn with_work(work: Work) -> Self;

    /// Number of resident packets.
    fn len(&self) -> usize;

    /// True when no packets are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest resident value, `None` when empty.
    fn min_value(&self) -> Option<Value>;

    /// Sum of resident values.
    fn total_value(&self) -> u64;

    /// Admits a packet worth `value` that arrived during `slot`.
    fn insert(&mut self, core: &mut BufferCore, value: Value, slot: Slot);

    /// The "virtual add" short-circuit: true when a push-out that names this
    /// queue as both victim and destination would evict the arriving packet
    /// (worth `value`) itself. The switch then records a net drop without
    /// touching the slab.
    fn evicts_own_arrival(&self, value: Value) -> bool;

    /// Removes this queue's push-out victim and returns its value; `None`
    /// when empty.
    fn evict(&mut self, core: &mut BufferCore) -> Option<Value>;

    /// Admits the arrival of a push-out that evicted from this same queue.
    /// The slab of exactly `B` slots forces eviction before insertion; this
    /// hook lets a discipline place the arrival where the insert-then-evict
    /// order would have left it.
    fn reinsert(&mut self, core: &mut BufferCore, value: Value, slot: Slot) {
        self.insert(core, value, slot);
    }

    /// Applies up to `cycles` processing cycles, appending each completed
    /// packet's `(value, arrival slot)` to `done` in transmission order.
    /// Returns the cycles used.
    fn serve(&mut self, core: &mut BufferCore, cycles: u32, done: &mut Vec<(Value, Slot)>) -> u32;

    /// Removes every resident packet, returning how many were discarded.
    fn clear(&mut self, core: &mut BufferCore) -> u64;

    /// Checks the queue's internal invariants against the slab.
    fn invariants_hold(&self, core: &BufferCore) -> bool;
}

/// Outcome summary of one transmission phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseReport {
    /// Packets transmitted during the phase.
    pub transmitted: u64,
    /// Total value carried out (equals `transmitted` in the work model).
    pub value: u64,
    /// Processing cycles consumed across all ports (equals `transmitted` in
    /// the value model, whose packets need one cycle each).
    pub cycles_used: u64,
}

/// The heterogeneous-processing switch (Section III): FIFO queues, unit
/// values, per-port work.
///
/// ```
/// use smbm_switch::{PortId, Work, WorkPacket, WorkSwitch, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(2, 4)?; // ports with w = 1, 2
/// let mut sw = WorkSwitch::new(cfg);
///
/// // Arrival phase: the policy decided to accept this packet.
/// sw.admit(WorkPacket::new(PortId::new(1), Work::new(2)))?;
///
/// // Transmission phase at speedup C = 1.
/// let report = sw.transmit(1);
/// assert_eq!(report.transmitted, 0); // the 2-cycle packet needs another slot
/// sw.advance_slot();
/// assert_eq!(sw.transmit(1).transmitted, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type WorkSwitch = Switch<WorkQueue>;

/// The heterogeneous-value switch (Section IV): unit-work packets with
/// values, each queue a priority queue sending its most valuable packet
/// first.
///
/// ```
/// use smbm_switch::{PortId, Value, ValuePacket, ValueSwitch, ValueSwitchConfig};
///
/// let mut sw = ValueSwitch::new(ValueSwitchConfig::new(4, 2)?);
/// sw.admit(ValuePacket::new(PortId::new(0), Value::new(6)))?;
/// sw.admit(ValuePacket::new(PortId::new(0), Value::new(2)))?;
/// let report = sw.transmit(1);
/// assert_eq!(report.value, 6); // the $6 packet leaves first
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ValueSwitch = Switch<ValueQueue>;

/// The combined-model switch (extension): per-port works as in
/// [`WorkSwitch`], per-packet values as in [`ValueSwitch`], run-to-completion
/// service over a value-sorted backlog.
///
/// ```
/// use smbm_switch::{CombinedPacket, CombinedSwitch, PortId, Value, Work, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(2, 4)?;
/// let mut sw = CombinedSwitch::new(cfg);
/// sw.admit(CombinedPacket::new(PortId::new(0), Work::new(1), Value::new(7)))?;
/// assert_eq!(sw.transmit(1).value, 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type CombinedSwitch = Switch<CombinedQueue>;

/// An `l × n` shared-memory switch with buffer capacity `B`, whose output
/// queues follow the discipline `Q`.
///
/// The buffer is a [`BufferCore`] slab of exactly `B` slots; every queue is a
/// linked-list view over it, so occupancy is the slab's allocated count and
/// "buffer full" is exactly "free list empty". The switch owns the buffer
/// state and *validates* every mutation; admission **decisions** live in the
/// policies of the `smbm-core` crate. Use it through [`WorkSwitch`],
/// [`ValueSwitch`] or [`CombinedSwitch`].
#[derive(Debug, Clone)]
pub struct Switch<Q: Discipline> {
    config: Q::Config,
    queues: Vec<Q>,
    core: BufferCore,
    counters: Counters,
    now: Slot,
    /// Completions of the queue being served, reused across phases.
    completions: Vec<(Value, Slot)>,
    transmitted_per_port: Vec<u64>,
    dirty: DirtyPorts,
}

impl<Q: Discipline> Switch<Q> {
    /// Creates an empty switch from a validated configuration.
    pub fn new(config: Q::Config) -> Self {
        let ports = config.ports();
        Switch {
            queues: (0..ports)
                .map(|i| Q::with_work(config.work(PortId::new(i))))
                .collect(),
            transmitted_per_port: vec![0; ports],
            dirty: DirtyPorts::new(ports),
            core: BufferCore::new(config.buffer()),
            config,
            counters: Counters::new(),
            now: Slot::ZERO,
            completions: Vec::new(),
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &Q::Config {
        &self.config
    }

    /// Number of output ports `n`.
    pub fn ports(&self) -> usize {
        self.queues.len()
    }

    /// Shared buffer capacity `B`.
    pub fn buffer(&self) -> usize {
        self.config.buffer()
    }

    /// The shared slab of packet slots backing every queue.
    pub fn core(&self) -> &BufferCore {
        &self.core
    }

    /// Packets currently resident across all queues.
    pub fn occupancy(&self) -> usize {
        self.core.allocated()
    }

    /// Free buffer slots.
    pub fn free_space(&self) -> usize {
        self.core.free_slots()
    }

    /// True when the buffer holds `B` packets.
    pub fn is_full(&self) -> bool {
        self.core.free_slots() == 0
    }

    /// The current time slot.
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Read access to an output queue.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range; use [`Switch::ports`] to bound
    /// iteration.
    pub fn queue(&self, port: PortId) -> &Q {
        &self.queues[port.index()]
    }

    /// Iterates over `(port, queue)` pairs.
    pub fn queues(&self) -> impl Iterator<Item = (PortId, &Q)> {
        self.queues
            .iter()
            .enumerate()
            .map(|(i, q)| (PortId::new(i), q))
    }

    /// Length of the longest output queue right now — the telemetry plane's
    /// queue-depth gauge tap.
    pub fn max_queue_len(&self) -> usize {
        self.queues.iter().map(Q::len).max().unwrap_or(0)
    }

    /// Lifetime packet accounting.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Packets transmitted per output port since construction, indexed by
    /// port — the basis of the fairness metrics (the paper motivates
    /// shared-memory designs by the tension between utilization and
    /// per-port fairness).
    pub fn transmitted_per_port(&self) -> &[u64] {
        &self.transmitted_per_port
    }

    /// Total value resident in the buffer.
    pub fn total_value(&self) -> u64 {
        self.queues.iter().map(Q::total_value).sum()
    }

    /// Smallest value currently admitted anywhere in the buffer, with the
    /// port holding it. Ties are broken toward the *longest* queue, matching
    /// MVD's victim rule.
    pub fn global_min_value(&self) -> Option<(PortId, Value)> {
        let mut best: Option<(PortId, Value, usize)> = None;
        for (port, q) in self.queues() {
            let Some(v) = q.min_value() else { continue };
            let better = match best {
                None => true,
                Some((_, bv, blen)) => v < bv || (v == bv && q.len() > blen),
            };
            if better {
                best = Some((port, v, q.len()));
            }
        }
        best.map(|(p, v, _)| (p, v))
    }

    /// Moves the ports whose queues changed since the last drain into `out`
    /// (cleared first). Incremental policies use this to refresh only the
    /// scores that can have moved instead of rescanning all `n` queues.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<PortId>) {
        self.dirty.drain_into(out);
    }

    /// Admits `pkt` into its destination queue. Records the arrival.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::BufferFull`] when no space is free, or with a
    /// validation error for an unknown port / mismatched work label.
    pub fn admit(&mut self, pkt: Q::Packet) -> Result<(), AdmitError> {
        self.config.validate(pkt)?;
        if self.is_full() {
            return Err(AdmitError::BufferFull);
        }
        let value = pkt.value().get();
        self.counters.record_arrival(value);
        self.counters.record_admission(value);
        self.queues[pkt.port().index()].insert(&mut self.core, pkt.value(), self.now);
        self.dirty.mark(pkt.port().index());
        Ok(())
    }

    /// Rejects `pkt` on arrival. Records the arrival and the drop.
    ///
    /// # Errors
    ///
    /// Fails with a validation error for an unknown port / mismatched work
    /// label (such a packet is not a legal arrival in the model at all).
    pub fn reject(&mut self, pkt: Q::Packet) -> Result<(), AdmitError> {
        self.config.validate(pkt)?;
        self.counters.record_arrival(pkt.value().get());
        self.counters.record_drop(pkt.value().get());
        Ok(())
    }

    /// Pushes out the discipline's victim from `victim`'s queue (the tail in
    /// the work model, the minimal-value packet otherwise) and admits `pkt`
    /// in the freed slot. Returns the evicted value.
    ///
    /// When `victim == pkt.port()` this realises the uniform "virtual add"
    /// semantics documented in DESIGN.md: the arriving packet enters and the
    /// queue's victim leaves, which may be the arriving packet itself. The
    /// pre-slab implementation inserted first and then evicted; with a slab
    /// of exactly `B` slots the eviction happens first, and the case where
    /// the arrival would be its own victim
    /// ([`Discipline::evicts_own_arrival`]) short-circuits to a net drop. The
    /// outcomes are identical.
    ///
    /// # Errors
    ///
    /// Fails if the victim queue is empty (unless the arrival evicts
    /// itself), or on a validation error. The buffer need not be full
    /// (policies only push out when it is, but the primitive does not
    /// require it).
    pub fn push_out_and_admit(
        &mut self,
        victim: PortId,
        pkt: Q::Packet,
    ) -> Result<Value, AdmitError> {
        self.config.validate(pkt)?;
        self.config.check_port(victim)?;
        let (port, value) = (pkt.port(), pkt.value());
        let self_evicts = victim == port && self.queues[port.index()].evicts_own_arrival(value);
        if !self_evicts && self.queues[victim.index()].is_empty() {
            return Err(AdmitError::EmptyQueue { port: victim });
        }
        self.counters.record_arrival(value.get());
        self.counters.record_admission(value.get());
        let evicted = if self_evicts {
            value
        } else {
            let out = self.queues[victim.index()]
                .evict(&mut self.core)
                .expect("victim queue non-empty");
            let dest = &mut self.queues[port.index()];
            if victim == port {
                dest.reinsert(&mut self.core, value, self.now);
            } else {
                dest.insert(&mut self.core, value, self.now);
            }
            out
        };
        self.counters.record_push_out(evicted.get());
        self.dirty.mark(victim.index());
        self.dirty.mark(port.index());
        Ok(evicted)
    }

    /// Runs the transmission phase: every non-empty queue receives `speedup`
    /// processing cycles, served in its discipline's order.
    ///
    /// Completed packets are appended to `out` with latency information.
    pub fn transmit_into(&mut self, speedup: u32, out: &mut Vec<Transmitted>) -> PhaseReport {
        let mut report = PhaseReport::default();
        for (i, queue) in self.queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            self.completions.clear();
            let used = queue.serve(&mut self.core, speedup, &mut self.completions);
            if used > 0 {
                // Any processed cycle changes this queue's residual work or
                // contents, so its policy score may have moved.
                self.dirty.mark(i);
            }
            report.cycles_used += u64::from(used);
            for &(value, arrived) in &self.completions {
                let t = Transmitted {
                    port: PortId::new(i),
                    value,
                    arrived,
                    departed: self.now,
                };
                self.counters.record_transmission(value.get(), t.latency());
                self.transmitted_per_port[i] += 1;
                report.transmitted += 1;
                report.value += value.get();
                out.push(t);
            }
        }
        self.counters.record_cycles(report.cycles_used);
        report
    }

    /// Like [`Switch::transmit_into`], discarding per-packet details.
    pub fn transmit(&mut self, speedup: u32) -> PhaseReport {
        let mut scratch = Vec::new();
        self.transmit_into(speedup, &mut scratch)
    }

    /// Advances to the next time slot. Call once per slot, after the
    /// transmission phase.
    pub fn advance_slot(&mut self) {
        self.now = self.now.next();
    }

    /// Discards every resident packet (a "flushout" in the paper's
    /// simulations), returning how many were discarded. Counted as push-outs
    /// so conservation holds.
    pub fn flush(&mut self) -> u64 {
        let flushed_value = self.total_value();
        let mut total = 0;
        for q in &mut self.queues {
            total += q.clear(&mut self.core);
        }
        self.dirty.mark_all();
        self.counters.record_flush(total, flushed_value);
        total
    }

    /// Verifies structural and conservation invariants; test/debug oracle.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: usize = self.queues.iter().map(Q::len).sum();
        if sum != self.core.allocated() {
            return Err(format!(
                "slab allocation {} != sum of queue lengths {}",
                self.core.allocated(),
                sum
            ));
        }
        if self.core.capacity() != self.config.buffer() {
            return Err(format!(
                "slab capacity {} != configured buffer {}",
                self.core.capacity(),
                self.config.buffer()
            ));
        }
        self.core.check_accounting()?;
        for (i, q) in self.queues.iter().enumerate() {
            if !q.invariants_hold(&self.core) {
                return Err(format!("queue {i} invariant violated"));
            }
        }
        self.counters
            .check_conservation(self.occupancy())
            .map_err(|e: ConservationError| e.to_string())?;
        self.counters
            .check_value_conservation(self.total_value())
            .map_err(|e: ConservationError| e.to_string())
    }
}

impl WorkSwitch {
    /// Convenience for building the packet that port `port` accepts in this
    /// switch (its work label is dictated by the configuration).
    pub fn packet_for(&self, port: PortId) -> WorkPacket {
        WorkPacket::new(port, self.config.work(port))
    }

    /// Total residual work summed over all queues.
    pub fn total_work(&self) -> u64 {
        self.queues.iter().map(WorkQueue::total_work).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CombinedPacket, ValuePacket, ValueSwitchConfig, WorkSwitchConfig};

    /// Builds a switch of one discipline and packets it accepts, so the
    /// behaviour every model shares is tested once over all three.
    trait Model: Discipline {
        /// `ports` ports (works `1..=ports` where the model has works) and
        /// buffer `b`.
        fn switch(ports: u32, b: usize) -> Switch<Self>;
        /// A legal packet worth `value` (the work model ignores `value`).
        fn packet(sw: &Switch<Self>, port: usize, value: u64) -> Self::Packet;
        /// A packet for `port` with the wrong work label, where the model
        /// has work labels.
        fn mislabelled(port: usize) -> Option<Self::Packet>;
    }

    impl Model for WorkQueue {
        fn switch(ports: u32, b: usize) -> WorkSwitch {
            WorkSwitch::new(WorkSwitchConfig::contiguous(ports, b).unwrap())
        }
        fn packet(sw: &WorkSwitch, port: usize, _value: u64) -> WorkPacket {
            sw.packet_for(PortId::new(port))
        }
        fn mislabelled(port: usize) -> Option<WorkPacket> {
            Some(WorkPacket::new(PortId::new(port), Work::new(99)))
        }
    }

    impl Model for ValueQueue {
        fn switch(ports: u32, b: usize) -> ValueSwitch {
            ValueSwitch::new(ValueSwitchConfig::new(b, ports as usize).unwrap())
        }
        fn packet(_sw: &ValueSwitch, port: usize, value: u64) -> ValuePacket {
            ValuePacket::new(PortId::new(port), Value::new(value))
        }
        fn mislabelled(_port: usize) -> Option<ValuePacket> {
            None
        }
    }

    impl Model for CombinedQueue {
        fn switch(ports: u32, b: usize) -> CombinedSwitch {
            CombinedSwitch::new(WorkSwitchConfig::contiguous(ports, b).unwrap())
        }
        fn packet(sw: &CombinedSwitch, port: usize, value: u64) -> CombinedPacket {
            let p = PortId::new(port);
            CombinedPacket::new(p, sw.config().work(p), Value::new(value))
        }
        fn mislabelled(port: usize) -> Option<CombinedPacket> {
            let p = PortId::new(port);
            Some(CombinedPacket::new(p, Work::new(99), Value::new(1)))
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
        admit_until_buffer_full => admit_until_full,
        invalid_packets_are_refused_without_counting => invalid_packets_leave_counters_untouched,
        reject_records_a_drop => reject_counts_a_drop,
        flush_discards_everything_and_conserves => flush_conserves,
        transmit_reports_latency => latency_is_recorded,
        dirty_ports_track_mutations => dirty_ports_track,
        push_out_evicts_from_the_victim_queue_only_if_it_is_non_empty => push_out_evicts_the_victim,
        conservation_holds_through_mixed_operations => mixed_operations_conserve,
        global_min_value_prefers_the_longer_queue_on_ties => global_min_breaks_ties_toward_the_longer_queue,
    }

    fn admit_until_full<Q: Model>() {
        let mut sw = Q::switch(2, 3);
        for v in 1..=3 {
            sw.admit(Q::packet(&sw, 0, v)).unwrap();
        }
        assert!(sw.is_full());
        assert_eq!(sw.free_space(), 0);
        assert_eq!(sw.admit(Q::packet(&sw, 1, 4)), Err(AdmitError::BufferFull));
        assert_eq!(sw.counters().arrived(), 3);
        sw.check_invariants().unwrap();
    }

    fn invalid_packets_leave_counters_untouched<Q: Model>() {
        let mut sw = Q::switch(2, 4);
        sw.admit(Q::packet(&sw, 0, 5)).unwrap();
        let before = *sw.counters();
        let stray = Q::packet(&Q::switch(10, 10), 9, 1);
        let unknown = AdmitError::UnknownPort {
            port: PortId::new(9),
            ports: 2,
        };
        assert_eq!(sw.admit(stray).unwrap_err(), unknown);
        assert_eq!(sw.reject(stray).unwrap_err(), unknown);
        assert_eq!(
            sw.push_out_and_admit(PortId::new(0), stray).unwrap_err(),
            unknown
        );
        let good = Q::packet(&sw, 1, 1);
        assert_eq!(
            sw.push_out_and_admit(PortId::new(9), good).unwrap_err(),
            unknown
        );
        if let Some(bad) = Q::mislabelled(1) {
            let mismatch = AdmitError::WorkMismatch {
                port: PortId::new(1),
                packet_work: 99,
                port_work: 2,
            };
            assert_eq!(sw.admit(bad).unwrap_err(), mismatch);
            assert_eq!(sw.reject(bad).unwrap_err(), mismatch);
            assert_eq!(
                sw.push_out_and_admit(PortId::new(0), bad).unwrap_err(),
                mismatch
            );
        }
        assert_eq!(sw.counters(), &before);
        assert_eq!(sw.occupancy(), 1);
        sw.check_invariants().unwrap();
    }

    fn reject_counts_a_drop<Q: Model>() {
        let mut sw = Q::switch(2, 4);
        sw.reject(Q::packet(&sw, 0, 7)).unwrap();
        assert_eq!(sw.counters().arrived(), 1);
        assert_eq!(sw.counters().dropped(), 1);
        assert_eq!(sw.occupancy(), 0);
        sw.check_invariants().unwrap();
    }

    fn flush_conserves<Q: Model>() {
        let mut sw = Q::switch(2, 4);
        for v in [1, 2, 3] {
            sw.admit(Q::packet(&sw, 0, v)).unwrap();
        }
        sw.admit(Q::packet(&sw, 1, 9)).unwrap();
        sw.reject(Q::packet(&sw, 1, 4)).unwrap();
        let sent = sw.transmit(1).transmitted;
        let resident = sw.occupancy() as u64;
        let resident_value = sw.total_value();
        assert_eq!(sw.flush(), resident);
        assert_eq!(sw.occupancy(), 0);
        assert_eq!(sw.total_value(), 0);
        let c = sw.counters();
        assert_eq!(c.transmitted(), sent);
        assert_eq!(c.pushed_out(), resident);
        assert_eq!(
            c.arrived_value(),
            c.transmitted_value() + c.dropped_value() + resident_value
        );
        sw.check_invariants().unwrap();
    }

    fn latency_is_recorded<Q: Model>() {
        let mut sw = Q::switch(1, 4);
        sw.admit(Q::packet(&sw, 0, 4)).unwrap();
        sw.advance_slot();
        sw.advance_slot();
        let mut out = Vec::new();
        sw.transmit_into(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].latency(), 2);
        assert_eq!(sw.counters().max_latency(), 2);
    }

    fn dirty_ports_track<Q: Model>() {
        let mut sw = Q::switch(2, 4);
        let mut dirty = Vec::new();
        sw.admit(Q::packet(&sw, 1, 3)).unwrap();
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![PortId::new(1)]);
        sw.transmit(1);
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![PortId::new(1)]);
        // Nothing moved since: the set stays empty.
        sw.drain_dirty_into(&mut dirty);
        assert!(dirty.is_empty());
    }

    fn push_out_evicts_the_victim<Q: Model>() {
        let mut sw = Q::switch(2, 2);
        sw.admit(Q::packet(&sw, 1, 5)).unwrap();
        sw.admit(Q::packet(&sw, 1, 3)).unwrap();
        // Tail (work), minimum (value) or backlog minimum (combined).
        let victim = sw.queue(PortId::new(1)).min_value();
        let evicted = sw.push_out_and_admit(PortId::new(1), Q::packet(&sw, 0, 7));
        assert_eq!(evicted.ok(), victim);
        assert_eq!(sw.queue(PortId::new(0)).len(), 1);
        assert_eq!(sw.queue(PortId::new(1)).len(), 1);
        assert!(sw.is_full());
        assert_eq!(sw.counters().pushed_out(), 1);
        sw.check_invariants().unwrap();

        let empty = AdmitError::EmptyQueue {
            port: PortId::new(1),
        };
        let mut sw = Q::switch(2, 2);
        sw.admit(Q::packet(&sw, 0, 1)).unwrap();
        let err = sw.push_out_and_admit(PortId::new(1), Q::packet(&sw, 0, 3));
        assert_eq!(err.unwrap_err(), empty);
        assert_eq!(sw.counters().arrived(), 1);
    }

    fn mixed_operations_conserve<Q: Model>() {
        let mut sw = Q::switch(3, 4);
        for v in [5, 1, 7, 2] {
            sw.admit(Q::packet(&sw, 2, v)).unwrap();
        }
        sw.reject(Q::packet(&sw, 0, 9)).unwrap();
        sw.push_out_and_admit(PortId::new(2), Q::packet(&sw, 0, 6))
            .unwrap();
        sw.transmit(2);
        sw.advance_slot();
        sw.transmit(2);
        sw.check_invariants().unwrap();
        let c = sw.counters();
        assert_eq!(
            (c.arrived(), c.admitted(), c.dropped(), c.pushed_out()),
            (6, 5, 1, 1)
        );
    }

    fn global_min_breaks_ties_toward_the_longer_queue<Q: Model>() {
        let mut sw = Q::switch(3, 8);
        assert_eq!(sw.global_min_value(), None);
        sw.admit(Q::packet(&sw, 0, 2)).unwrap();
        sw.admit(Q::packet(&sw, 1, 2)).unwrap();
        sw.admit(Q::packet(&sw, 1, 5)).unwrap();
        sw.admit(Q::packet(&sw, 2, 4)).unwrap();
        // Ports 0 and 1 hold the same minimum; port 1 is longer.
        let min = sw.queue(PortId::new(0)).min_value().unwrap();
        assert_eq!(sw.global_min_value(), Some((PortId::new(1), min)));
    }

    mod work {
        use super::*;

        fn switch(k: u32, b: usize) -> WorkSwitch {
            WorkQueue::switch(k, b)
        }

        fn pkt(sw: &WorkSwitch, port: usize) -> WorkPacket {
            sw.packet_for(PortId::new(port))
        }

        #[test]
        fn own_push_out_replaces_the_tail_and_never_self_evicts() {
            // FIFO has no virtual add: the tail leaves, the arrival joins...
            let mut sw = switch(2, 2);
            sw.admit(pkt(&sw, 0)).unwrap();
            sw.admit(pkt(&sw, 0)).unwrap();
            sw.advance_slot();
            sw.push_out_and_admit(PortId::new(0), pkt(&sw, 0)).unwrap();
            let q = sw.queue(PortId::new(0));
            let slots: Vec<_> = q.arrival_slots(sw.core()).collect();
            assert_eq!(slots, vec![Slot::ZERO, Slot::new(1)]);
            sw.check_invariants().unwrap();
            // ...and an empty own queue is an error, not a net drop.
            let err = sw.push_out_and_admit(PortId::new(1), pkt(&sw, 1));
            let empty = AdmitError::EmptyQueue {
                port: PortId::new(1),
            };
            assert_eq!(err.unwrap_err(), empty);
        }

        #[test]
        fn transmit_unit_work_every_slot() {
            let mut sw = switch(1, 4);
            for _ in 0..3 {
                sw.admit(pkt(&sw, 0)).unwrap();
            }
            let r = sw.transmit(1);
            assert_eq!(r.transmitted, 1);
            assert_eq!(r.cycles_used, 1);
            assert_eq!(sw.occupancy(), 2);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn transmit_respects_heterogeneous_work() {
            let mut sw = switch(3, 6);
            sw.admit(pkt(&sw, 0)).unwrap(); // w = 1
            sw.admit(pkt(&sw, 2)).unwrap(); // w = 3
            let r = sw.transmit(1);
            assert_eq!(r.transmitted, 1); // only the 1-cycle packet completes
            assert_eq!(r.cycles_used, 2); // both ports worked
            sw.advance_slot();
            assert_eq!(sw.transmit(1).transmitted, 0);
            sw.advance_slot();
            assert_eq!(sw.transmit(1).transmitted, 1);
            assert_eq!(sw.occupancy(), 0);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn transmit_with_speedup() {
            let mut sw = switch(2, 8);
            for _ in 0..4 {
                sw.admit(pkt(&sw, 0)).unwrap(); // w = 1
            }
            sw.admit(pkt(&sw, 1)).unwrap(); // w = 2
            let r = sw.transmit(2);
            // Port 0 finishes two unit packets; port 1 finishes its 2-cycle one.
            assert_eq!((r.transmitted, r.value, r.cycles_used), (3, 3, 4));
            assert_eq!(sw.counters().cycles_consumed(), 4);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn total_work_sums_queues() {
            let mut sw = switch(3, 6);
            sw.admit(pkt(&sw, 0)).unwrap(); // 1
            sw.admit(pkt(&sw, 2)).unwrap(); // 3
            sw.admit(pkt(&sw, 2)).unwrap(); // 3
            assert_eq!(sw.total_work(), 7);
        }

        #[test]
        fn push_out_may_target_partially_processed_head() {
            let mut sw = switch(2, 2);
            sw.admit(pkt(&sw, 1)).unwrap(); // w = 2
            sw.transmit(1); // head residual now 1
            sw.admit(pkt(&sw, 0)).unwrap();
            assert!(sw.is_full());
            sw.push_out_and_admit(PortId::new(1), pkt(&sw, 0)).unwrap();
            assert!(sw.queue(PortId::new(1)).is_empty());
            assert_eq!(sw.queue(PortId::new(0)).len(), 2);
            sw.check_invariants().unwrap();
        }
    }

    mod value {
        use super::*;

        fn switch(b: usize, n: u32) -> ValueSwitch {
            ValueQueue::switch(n, b)
        }

        fn pkt(port: usize, value: u64) -> ValuePacket {
            ValuePacket::new(PortId::new(port), Value::new(value))
        }

        #[test]
        fn transmit_takes_most_valuable_first() {
            let mut sw = switch(4, 1);
            for v in [2, 6, 4] {
                sw.admit(pkt(0, v)).unwrap();
            }
            assert_eq!(sw.transmit(1).value, 6);
            assert_eq!(sw.transmit(1).value, 4);
            assert_eq!(sw.transmit(1).value, 2);
            assert_eq!(sw.transmit(1).value, 0);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn speedup_sends_the_top_c_and_uses_one_cycle_per_packet() {
            let mut sw = switch(8, 3);
            for v in [1, 2, 3, 4] {
                sw.admit(pkt(0, v)).unwrap();
            }
            sw.admit(pkt(1, 9)).unwrap();
            // Port 0 sends 4 and 3; port 1 sends 9; port 2 idles.
            let r = sw.transmit(2);
            assert_eq!((r.transmitted, r.value, r.cycles_used), (3, 16, 3));
            assert_eq!(sw.counters().cycles_consumed(), 3);
            let r = sw.transmit(2);
            assert_eq!((r.transmitted, r.value, r.cycles_used), (2, 3, 2));
            assert_eq!(sw.counters().cycles_consumed(), 5);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn virtual_add_evicts_the_minimum_including_the_arrival() {
            // Victim queue == destination queue holding {5, 4}. An arrival
            // below the minimum evicts itself (a net drop accounted as admit
            // + push-out); an equal one sorts behind the resident minimum and
            // is evicted too; a larger one displaces the minimum.
            for (arrival, evicted, resident) in [(1, 1, 9), (4, 4, 9), (6, 4, 11)] {
                let mut sw = switch(2, 1);
                sw.admit(pkt(0, 5)).unwrap();
                sw.admit(pkt(0, 4)).unwrap();
                let out = sw.push_out_and_admit(PortId::new(0), pkt(0, arrival));
                assert_eq!(out, Ok(Value::new(evicted)));
                assert_eq!(sw.total_value(), resident);
                sw.check_invariants().unwrap();
            }
        }
    }

    mod combined {
        use super::*;

        fn switch(k: u32, b: usize) -> CombinedSwitch {
            CombinedQueue::switch(k, b)
        }

        fn pkt(sw: &CombinedSwitch, port: usize, v: u64) -> CombinedPacket {
            CombinedQueue::packet(sw, port, v)
        }

        #[test]
        fn admit_and_transmit_by_value_order() {
            let mut sw = switch(2, 4);
            sw.admit(pkt(&sw, 0, 3)).unwrap();
            sw.admit(pkt(&sw, 0, 9)).unwrap();
            // w = 1 port: one packet per slot; the 3 entered service first
            // (run-to-completion), the 9 follows.
            assert_eq!(sw.transmit(1).value, 3);
            sw.advance_slot();
            assert_eq!(sw.transmit(1).value, 9);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn heavy_port_takes_w_slots() {
            let mut sw = switch(2, 4);
            sw.admit(pkt(&sw, 1, 5)).unwrap(); // w = 2
            assert_eq!(sw.transmit(1).value, 0);
            sw.advance_slot();
            let r = sw.transmit(1);
            assert_eq!((r.value, r.cycles_used), (5, 1));
        }

        #[test]
        fn push_out_takes_the_in_service_packet_when_the_backlog_is_empty() {
            let mut sw = switch(2, 2);
            sw.admit(pkt(&sw, 1, 8)).unwrap(); // w = 2, enters service
            sw.transmit(1); // partial work, lost on eviction
            sw.admit(pkt(&sw, 0, 1)).unwrap();
            let evicted = sw.push_out_and_admit(PortId::new(1), pkt(&sw, 0, 4));
            assert_eq!(evicted, Ok(Value::new(8)));
            assert!(sw.queue(PortId::new(1)).is_empty());
            assert_eq!(sw.total_value(), 5);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn self_push_out_with_service_only_queue_is_net_drop() {
            // The destination queue holds only an in-service packet: under
            // insert-then-evict the arrival joins the backlog and is popped
            // right back out (eviction prefers the backlog). The service
            // packet stays.
            let mut sw = switch(1, 1);
            sw.admit(pkt(&sw, 0, 9)).unwrap();
            assert!(sw.is_full());
            let evicted = sw.push_out_and_admit(PortId::new(0), pkt(&sw, 0, 4));
            assert_eq!(evicted, Ok(Value::new(4)));
            assert_eq!(sw.queue(PortId::new(0)).len(), 1);
            assert_eq!(sw.total_value(), 9);
            sw.check_invariants().unwrap();
        }

        #[test]
        fn self_push_out_displaces_the_backlog_minimum_into_the_backlog() {
            let mut sw = switch(1, 3);
            sw.admit(pkt(&sw, 0, 9)).unwrap(); // enters service
            sw.admit(pkt(&sw, 0, 2)).unwrap(); // backlog
            sw.admit(pkt(&sw, 0, 5)).unwrap(); // backlog
            let evicted = sw.push_out_and_admit(PortId::new(0), pkt(&sw, 0, 7));
            assert_eq!(evicted, Ok(Value::new(2)));
            assert_eq!(sw.total_value(), 21);
            // Even when the eviction empties the backlog, the arrival joins
            // the backlog, never service.
            let mut sw = switch(1, 2);
            sw.admit(pkt(&sw, 0, 9)).unwrap();
            sw.admit(pkt(&sw, 0, 2)).unwrap();
            sw.push_out_and_admit(PortId::new(0), pkt(&sw, 0, 7))
                .unwrap();
            let q = sw.queue(PortId::new(0));
            assert_eq!(q.in_service().map(|s| s.value), Some(Value::new(9)));
            assert_eq!(q.backlog_min_value(), Some(Value::new(7)));
            sw.check_invariants().unwrap();
        }
    }
}
