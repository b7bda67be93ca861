//! Non-Push-Out-Equal-Static-Threshold (NEST).

use smbm_switch::{WorkPacket, WorkQueue, WorkSwitch};

use crate::{Decision, Policy};

/// **NEST** — greedy non-push-out policy with the *same* static threshold
/// `B/n` on every queue: a complete partition of the shared buffer.
///
/// Accept a packet for port `i` iff the buffer has free space and
/// `|Q_i| < B/n`. Theorem 2 shows NEST is `(n + o(n))`-competitive — each
/// queue behaves like an isolated homogeneous queue of size `B/n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nest {
    _priv: (),
}

impl Nest {
    /// Creates the policy.
    pub fn new() -> Self {
        Nest { _priv: () }
    }
}

impl Policy<WorkQueue> for Nest {
    fn name(&self) -> &str {
        "NEST"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if switch.is_full() {
            return Decision::Drop;
        }
        // |Q_i| < B/n without floating point: |Q_i| * n < B.
        if switch.queue(pkt.port()).len() * switch.ports() < switch.buffer() {
            Decision::Accept
        } else {
            Decision::Drop
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::WorkRunner;
    use smbm_switch::{PortId, WorkSwitchConfig};

    fn runner(k: u32, b: usize) -> WorkRunner<Nest> {
        WorkRunner::new(WorkSwitchConfig::contiguous(k, b).unwrap(), Nest::new(), 1)
    }

    #[test]
    fn partitions_buffer_evenly() {
        let mut r = runner(4, 8); // B/n = 2
        for port in 0..4 {
            assert_eq!(r.arrival_to(PortId::new(port)).unwrap(), Decision::Accept);
            assert_eq!(r.arrival_to(PortId::new(port)).unwrap(), Decision::Accept);
            assert_eq!(r.arrival_to(PortId::new(port)).unwrap(), Decision::Drop);
        }
        assert!(r.switch().is_full());
    }

    #[test]
    fn fractional_share_rounds_up_partially() {
        // B = 5, n = 2: threshold 2.5, so each queue takes 3 packets at most
        // (|Q| * n < B admits len 0, 1, 2).
        let mut r = runner(2, 5);
        for _ in 0..2 {
            assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Accept);
        }
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Accept); // len 2 < 2.5
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop); // len 3 > 2.5
    }

    #[test]
    fn never_pushes_out() {
        let mut r = runner(2, 4);
        for _ in 0..10 {
            let _ = r.arrival_to(PortId::new(1)).unwrap();
        }
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn queue_drains_and_reopens() {
        let mut r = runner(1, 2); // single port, threshold 2
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Accept);
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Accept);
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        r.transmission();
        r.end_slot();
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Accept);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Nest::new().name(), "NEST");
    }
}
