//! Non-Push-Out-Harmonic-Dynamic-Threshold (NHDT), from Kesselman & Mansour.

use smbm_switch::{WorkPacket, WorkQueue, WorkSwitch};

use crate::{Decision, Policy};

/// **NHDT** — greedy non-push-out policy with *dynamic* harmonic thresholds:
/// for every `m`, the `m` fullest queues may jointly hold at most
/// `(B/H_n) * H_m` packets, where `H_m` is the m-th harmonic number.
///
/// On arrival at port `i`, let `j_1, ..., j_m = i` be the queues with
/// `|Q_j| >= |Q_i|`; accept iff the buffer has space and
/// `sum_s |Q_{j_s}| < (B/H_n) * H_m`.
///
/// For homogeneous processing NHDT is `O(log n)`-competitive; Theorem 3 shows
/// that with heterogeneous processing it degrades to at least
/// `(1/2)sqrt(k ln k)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nhdt {
    _priv: (),
}

impl Nhdt {
    /// Creates the policy.
    pub fn new() -> Self {
        Nhdt { _priv: () }
    }
}

/// The `m`-th harmonic number `H_m = 1 + 1/2 + ... + 1/m` (`H_0 = 0`).
pub fn harmonic(m: usize) -> f64 {
    (1..=m).map(|i| 1.0 / i as f64).sum()
}

impl Policy<WorkQueue> for Nhdt {
    fn name(&self) -> &str {
        "NHDT"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if switch.is_full() {
            return Decision::Drop;
        }
        let own_len = switch.queue(pkt.port()).len();
        let mut m = 0usize;
        let mut occupied: u64 = 0;
        for (_, q) in switch.queues() {
            if q.len() >= own_len {
                m += 1;
                occupied += q.len() as u64;
            }
        }
        // `pkt.port()` itself always satisfies |Q_i| >= |Q_i|, so m >= 1.
        debug_assert!(m >= 1);
        let h_n = harmonic(switch.ports());
        let bound = switch.buffer() as f64 / h_n * harmonic(m);
        if (occupied as f64) < bound {
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

    fn runner(k: u32, b: usize) -> WorkRunner<Nhdt> {
        WorkRunner::new(WorkSwitchConfig::contiguous(k, b).unwrap(), Nhdt::new(), 1)
    }

    #[test]
    fn harmonic_numbers() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn single_queue_bounded_by_first_harmonic_share() {
        // n = 2, B = 12, H_2 = 1.5. A single (fullest) queue may hold at most
        // B/H_2 * H_1 = 8 packets.
        let mut r = runner(2, 12);
        let mut accepted = 0;
        for _ in 0..12 {
            if r.arrival_to(PortId::new(0)).unwrap().admits() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 8);
    }

    #[test]
    fn all_queues_jointly_bounded_by_buffer() {
        // With m = n the bound is exactly B, so NHDT can fill the buffer when
        // arrivals are spread evenly.
        let mut r = runner(3, 9);
        let mut admitted = 0;
        for round in 0..6 {
            let _ = round;
            for port in 0..3 {
                if r.arrival_to(PortId::new(port)).unwrap().admits() {
                    admitted += 1;
                }
            }
        }
        assert!(admitted <= 9);
        // The balanced pattern should do clearly better than one queue alone.
        assert!(admitted >= 6, "balanced arrivals admitted only {admitted}");
    }

    #[test]
    fn second_queue_gets_harmonic_increment() {
        // n = 2, B = 12: one queue alone holds <= 8; two queues jointly
        // <= B/H_2 * H_2 = 12.
        let mut r = runner(2, 12);
        for _ in 0..8 {
            assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        }
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        // The shorter queue is still admitted: its m counts both queues.
        let mut second = 0;
        for _ in 0..8 {
            if r.arrival_to(PortId::new(1)).unwrap().admits() {
                second += 1;
            }
        }
        assert_eq!(second, 4, "joint bound 12 leaves room for 4");
    }

    #[test]
    fn never_pushes_out() {
        let mut r = runner(3, 6);
        for _ in 0..30 {
            let _ = r.arrival_to(PortId::new(0)).unwrap();
        }
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Nhdt::new().name(), "NHDT");
    }
}
