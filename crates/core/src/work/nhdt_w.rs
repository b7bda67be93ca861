//! A work-aware generalization of NHDT — a candidate for the open problem
//! the paper leaves after Theorem 3 ("it is unclear how to generalize NHDT
//! to heterogeneous processing better; this remains an interesting problem
//! for future research").

use smbm_switch::{WorkPacket, WorkQueue, WorkSwitch};

use crate::work::nhdt::harmonic;
use crate::{Decision, Policy};

/// **NHDT-W** — NHDT with harmonic *work* thresholds: queues are ranked by
/// outstanding work `W_j` instead of length, and for every `m` the `m`
/// busiest queues may jointly hold at most `(Ŵ/H_n) * H_m` cycles of work,
/// where `Ŵ = B * hm(w)` is the buffer expressed in work units via the
/// harmonic mean `hm(w) = n / Σ(1/w_i)` of the per-port requirements.
///
/// Intuition: Theorem 3 breaks NHDT by letting it fill its harmonic *packet*
/// shares with expensive packets; counting cycles instead makes a burst of
/// heavy packets exhaust its share `w` times faster, preserving room for
/// cheap traffic. On Theorem 3's own construction this repairs most of the
/// damage (see the `ablations` bench and `tests/extensions.rs`), though no
/// competitive bound is claimed — it is future work executed, not proved.
#[derive(Debug, Clone, Copy, Default)]
pub struct NhdtW {
    _priv: (),
}

impl NhdtW {
    /// Creates the policy.
    pub fn new() -> Self {
        NhdtW { _priv: () }
    }

    /// The work budget `Ŵ = B * hm(w)`.
    pub fn work_budget(switch: &WorkSwitch) -> f64 {
        let hm = switch.ports() as f64 / switch.config().inverse_work_sum();
        switch.buffer() as f64 * hm
    }
}

impl Policy<WorkQueue> for NhdtW {
    fn name(&self) -> &str {
        "NHDT-W"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if switch.is_full() {
            return Decision::Drop;
        }
        // Work of the destination queue once the arrival lands, so an empty
        // queue still competes with its own packet's weight.
        let own = switch.queue(pkt.port()).total_work() + pkt.work().as_u64();
        let mut m = 0usize;
        let mut occupied: u64 = 0;
        for (port, q) in switch.queues() {
            let w = if port == pkt.port() {
                own
            } else {
                q.total_work()
            };
            if w >= own {
                m += 1;
                occupied += w;
            }
        }
        debug_assert!(m >= 1);
        let bound = Self::work_budget(switch) / harmonic(switch.ports()) * harmonic(m);
        if (occupied as f64) <= bound {
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

    #[test]
    fn degenerates_to_packet_thresholds_on_unit_work() {
        // With w = 1 everywhere, Ŵ = B and the policy is NHDT on lengths
        // (compare the single-queue cap with NHDT's test).
        let cfg = WorkSwitchConfig::homogeneous(2, 12).unwrap();
        let mut r = WorkRunner::new(cfg, NhdtW::new(), 1);
        let mut accepted = 0;
        for _ in 0..12 {
            if r.arrival_to(PortId::new(0)).unwrap().admits() {
                accepted += 1;
            }
        }
        // Bound for the fullest queue: (12/H_2) * H_1 = 8.
        assert_eq!(accepted, 8);
    }

    #[test]
    fn heavy_queue_exhausts_share_quickly() {
        // Contiguous k = 4, B = 24: hm(w) = 4 / (25/12) = 1.92, Ŵ = 46.08.
        // Single-queue work cap: Ŵ/H_4 = 22.1 cycles — the w=4 queue stops
        // after ~5 packets where plain NHDT would take 11.
        let cfg = WorkSwitchConfig::contiguous(4, 24).unwrap();
        let mut r = WorkRunner::new(cfg.clone(), NhdtW::new(), 1);
        let mut heavy = 0;
        for _ in 0..24 {
            if r.arrival_to(PortId::new(3)).unwrap().admits() {
                heavy += 1;
            }
        }
        assert!(heavy <= 6, "heavy class admitted {heavy}");

        let mut nhdt = WorkRunner::new(cfg, crate::work::Nhdt::new(), 1);
        let mut plain = 0;
        for _ in 0..24 {
            if nhdt.arrival_to(PortId::new(3)).unwrap().admits() {
                plain += 1;
            }
        }
        assert!(
            plain > heavy,
            "NHDT {plain} should out-admit NHDT-W {heavy}"
        );
    }

    #[test]
    fn cheap_traffic_keeps_room_after_heavy_burst() {
        let cfg = WorkSwitchConfig::contiguous(4, 24).unwrap();
        let mut r = WorkRunner::new(cfg, NhdtW::new(), 1);
        for _ in 0..24 {
            let _ = r.arrival_to(PortId::new(3)).unwrap();
        }
        let mut cheap = 0;
        for _ in 0..24 {
            if r.arrival_to(PortId::new(0)).unwrap().admits() {
                cheap += 1;
            }
        }
        assert!(cheap >= 8, "only {cheap} cheap packets admitted");
    }

    #[test]
    fn never_pushes_out() {
        let cfg = WorkSwitchConfig::contiguous(3, 9).unwrap();
        let mut r = WorkRunner::new(cfg, NhdtW::new(), 1);
        for i in 0..30 {
            let _ = r.arrival_to(PortId::new(i % 3)).unwrap();
        }
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(NhdtW::new().name(), "NHDT-W");
    }
}
