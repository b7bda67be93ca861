//! A single FIFO output queue in the heterogeneous-processing model.

use crate::slab::{BufferCore, SlotList};
use crate::{sealed, Discipline, Slot, Value, Work, WorkPacket, WorkSwitchConfig};

/// One output queue of a [`crate::WorkSwitch`].
///
/// Every packet in the queue requires the same processing `w` (the model
/// constraint of Section III-A); only the head-of-line packet may be
/// partially processed, tracked by `head_residual`. The queue is a
/// [`SlotList`] view over the switch's shared [`BufferCore`] slab: packet
/// storage (each resident packet's arrival slot) lives in the slab, so
/// mutations take the core as an argument while the policy-facing read API
/// (`len`, `total_work`, ...) works off inline cached aggregates.
#[derive(Debug, Clone)]
pub struct WorkQueue {
    work: Work,
    /// Residual cycles of the head packet; zero iff the queue is empty.
    head_residual: u32,
    /// Resident packets, front = head-of-line.
    list: SlotList,
}

impl WorkQueue {
    /// Creates an empty queue whose packets all require `work` cycles.
    pub fn new(work: Work) -> Self {
        WorkQueue {
            work,
            head_residual: 0,
            list: SlotList::new(),
        }
    }

    /// The fixed per-packet requirement `w_i` of this queue.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Number of resident packets `|Q_i|`.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when no packets are resident.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Residual cycles of the head-of-line packet (zero when empty).
    pub fn head_residual(&self) -> u32 {
        self.head_residual
    }

    /// Total remaining work `W_i`: the head's residual plus the full
    /// requirement of every packet behind it. This is the quantity the LWD
    /// policy maximizes over when choosing a push-out victim.
    ///
    /// ```
    /// use smbm_switch::{BufferCore, Slot, Work, WorkQueue};
    /// let mut core = BufferCore::new(4);
    /// let mut q = WorkQueue::new(Work::new(3));
    /// q.push_back(&mut core, Slot::ZERO);
    /// q.push_back(&mut core, Slot::ZERO);
    /// assert_eq!(q.total_work(), 6);
    /// ```
    pub fn total_work(&self) -> u64 {
        if self.list.is_empty() {
            0
        } else {
            self.head_residual as u64 + (self.list.len() as u64 - 1) * self.work.as_u64()
        }
    }

    /// Latency (slots until transmission, assuming no push-out and one cycle
    /// per slot) of the whole queue: identical to [`Self::total_work`] for a
    /// unit-speed port.
    pub fn drain_slots(&self) -> u64 {
        self.total_work()
    }

    /// Appends a packet that arrived during `slot`.
    pub fn push_back(&mut self, core: &mut BufferCore, slot: Slot) {
        if self.list.is_empty() {
            self.head_residual = self.work.cycles();
        }
        core.push_back(&mut self.list, Value::ONE, slot);
    }

    /// Removes the tail packet (the push-out victim position used by every
    /// push-out policy in the paper), returning its arrival slot.
    ///
    /// When the queue holds a single packet the tail *is* the partially
    /// processed head; its residual work is discarded with it.
    pub fn pop_back(&mut self, core: &mut BufferCore) -> Option<Slot> {
        let popped = core.pop_back(&mut self.list).map(|(_, arrived)| arrived);
        if self.list.is_empty() {
            self.head_residual = 0;
        }
        popped
    }

    /// Applies up to `cycles` processing cycles to the head of the queue,
    /// transmitting packets whose residual work reaches zero, in FIFO order.
    ///
    /// Returns the cycles used after appending the arrival slots of
    /// transmitted packets to `completions`; this can be less than `cycles`
    /// only if the queue empties (the port is work-conserving).
    pub fn process(
        &mut self,
        core: &mut BufferCore,
        cycles: u32,
        completions: &mut Vec<Slot>,
    ) -> u32 {
        self.run(core, cycles, |arrived| completions.push(arrived))
    }

    /// [`Self::process`], reporting each completion's arrival slot to
    /// `done`.
    fn run(&mut self, core: &mut BufferCore, cycles: u32, mut done: impl FnMut(Slot)) -> u32 {
        let mut budget = cycles;
        while budget > 0 && !self.list.is_empty() {
            let step = budget.min(self.head_residual);
            self.head_residual -= step;
            budget -= step;
            if self.head_residual == 0 {
                let (_, arrived) = core
                    .pop_front(&mut self.list)
                    .expect("non-empty queue has a head");
                done(arrived);
                if !self.list.is_empty() {
                    self.head_residual = self.work.cycles();
                }
            }
        }
        cycles - budget
    }

    /// Removes every resident packet, returning how many were discarded.
    pub fn clear(&mut self, core: &mut BufferCore) -> u64 {
        let n = core.clear(&mut self.list);
        self.head_residual = 0;
        n
    }

    /// Arrival slots of resident packets in FIFO order (head first).
    pub fn arrival_slots<'a>(&self, core: &'a BufferCore) -> impl Iterator<Item = Slot> + 'a {
        core.iter(&self.list).map(|(_, arrived)| arrived)
    }

    /// Checks the internal invariants, used by tests and the switch's
    /// self-check: the head residual is in `1..=w` iff the queue is
    /// non-empty.
    pub fn invariants_hold(&self) -> bool {
        if self.list.is_empty() {
            self.head_residual == 0
        } else {
            self.head_residual >= 1 && self.head_residual <= self.work.cycles()
        }
    }
}

impl sealed::Sealed for WorkQueue {}

/// FIFO service with residual head work; push-out evicts the tail, and an
/// arrival never evicts itself (the tail it replaces is a resident packet).
impl Discipline for WorkQueue {
    type Config = WorkSwitchConfig;
    type Packet = WorkPacket;

    fn with_work(work: Work) -> Self {
        WorkQueue::new(work)
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn min_value(&self) -> Option<Value> {
        (!self.list.is_empty()).then_some(Value::ONE)
    }

    fn total_value(&self) -> u64 {
        self.list.len() as u64
    }

    fn insert(&mut self, core: &mut BufferCore, _value: Value, slot: Slot) {
        self.push_back(core, slot);
    }

    fn evicts_own_arrival(&self, _value: Value) -> bool {
        false
    }

    fn evict(&mut self, core: &mut BufferCore) -> Option<Value> {
        self.pop_back(core).map(|_| Value::ONE)
    }

    fn serve(&mut self, core: &mut BufferCore, cycles: u32, done: &mut Vec<(Value, Slot)>) -> u32 {
        self.run(core, cycles, |arrived| done.push((Value::ONE, arrived)))
    }

    fn clear(&mut self, core: &mut BufferCore) -> u64 {
        WorkQueue::clear(self, core)
    }

    fn invariants_hold(&self, _core: &BufferCore) -> bool {
        WorkQueue::invariants_hold(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(w: u32) -> (BufferCore, WorkQueue) {
        (BufferCore::new(16), WorkQueue::new(Work::new(w)))
    }

    #[test]
    fn new_queue_is_empty() {
        let (_core, q) = q(3);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.total_work(), 0);
        assert_eq!(q.head_residual(), 0);
        assert!(q.invariants_hold());
    }

    #[test]
    fn push_sets_head_residual() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::ZERO);
        assert_eq!(q.head_residual(), 3);
        assert_eq!(q.total_work(), 3);
        q.push_back(&mut core, Slot::ZERO);
        assert_eq!(q.total_work(), 6);
        assert!(q.invariants_hold());
    }

    #[test]
    fn total_work_accounts_for_partial_head() {
        let (mut core, mut q) = q(4);
        q.push_back(&mut core, Slot::ZERO);
        q.push_back(&mut core, Slot::ZERO);
        let mut done = Vec::new();
        let used = q.process(&mut core, 1, &mut done);
        assert_eq!(used, 1);
        assert!(done.is_empty());
        assert_eq!(q.head_residual(), 3);
        assert_eq!(q.total_work(), 3 + 4);
    }

    #[test]
    fn process_transmits_in_fifo_order() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::new(1));
        q.push_back(&mut core, Slot::new(2));
        let mut done = Vec::new();
        // 4 cycles complete both packets.
        let used = q.process(&mut core, 4, &mut done);
        assert_eq!(used, 4);
        assert_eq!(done, vec![Slot::new(1), Slot::new(2)]);
        assert!(q.is_empty());
        assert!(q.invariants_hold());
        core.check_accounting().unwrap();
    }

    #[test]
    fn process_stops_when_queue_empties() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::ZERO);
        let mut done = Vec::new();
        let used = q.process(&mut core, 10, &mut done);
        assert_eq!(used, 2);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn process_partial_packet_spans_slots() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::ZERO);
        let mut done = Vec::new();
        assert_eq!(q.process(&mut core, 1, &mut done), 1);
        assert_eq!(q.process(&mut core, 1, &mut done), 1);
        assert!(done.is_empty());
        assert_eq!(q.process(&mut core, 1, &mut done), 1);
        assert_eq!(done.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_back_removes_tail_not_head() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::new(1));
        q.push_back(&mut core, Slot::new(2));
        let mut done = Vec::new();
        q.process(&mut core, 1, &mut done); // head now has residual 2
        assert_eq!(q.pop_back(&mut core), Some(Slot::new(2)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.head_residual(), 2); // head untouched
        assert!(q.invariants_hold());
    }

    #[test]
    fn pop_back_on_singleton_discards_partial_head() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::new(1));
        let mut done = Vec::new();
        q.process(&mut core, 2, &mut done);
        assert_eq!(q.head_residual(), 1);
        assert_eq!(q.pop_back(&mut core), Some(Slot::new(1)));
        assert!(q.is_empty());
        assert_eq!(q.head_residual(), 0);
        assert!(q.invariants_hold());
    }

    #[test]
    fn pop_back_on_empty_returns_none() {
        let (mut core, mut q) = q(1);
        assert_eq!(q.pop_back(&mut core), None);
    }

    #[test]
    fn clear_reports_count() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::ZERO);
        q.push_back(&mut core, Slot::ZERO);
        assert_eq!(q.clear(&mut core), 2);
        assert!(q.is_empty());
        assert!(q.invariants_hold());
        core.check_accounting().unwrap();
    }

    #[test]
    fn speedup_processes_multiple_packets_per_slot() {
        let (mut core, mut q) = q(1);
        for i in 0..5 {
            q.push_back(&mut core, Slot::new(i));
        }
        let mut done = Vec::new();
        let used = q.process(&mut core, 3, &mut done);
        assert_eq!(used, 3);
        assert_eq!(done.len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn arrival_slots_iterates_fifo() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::new(4));
        q.push_back(&mut core, Slot::new(7));
        let slots: Vec<_> = q.arrival_slots(&core).collect();
        assert_eq!(slots, vec![Slot::new(4), Slot::new(7)]);
    }
}
