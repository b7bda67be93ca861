//! Non-Push-Out-Harmonic-Static-Threshold (NHST).

use smbm_switch::{WorkPacket, WorkQueue, WorkSwitch};

use crate::{Decision, Policy};

/// **NHST** — greedy non-push-out policy with *static* per-queue thresholds
/// inversely proportional to required processing.
///
/// On arrival of a packet for port `i`, accept iff the buffer has free space
/// and `|Q_i| < B / (w_i * Z)` where `Z = sum_j 1/w_j`; otherwise drop.
///
/// Theorem 1 shows NHST is `(kZ + o(kZ))`-competitive — the burst
/// `B x [k]` forces it to accept only a `1/(kZ)` fraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nhst {
    _priv: (),
}

impl Nhst {
    /// Creates the policy.
    pub fn new() -> Self {
        Nhst { _priv: () }
    }

    /// The static threshold for `port` under `switch`'s configuration, in
    /// fractional packets (the paper elides floors; we compare against the
    /// real-valued threshold).
    pub fn threshold(switch: &WorkSwitch, port: smbm_switch::PortId) -> f64 {
        let z = switch.config().inverse_work_sum();
        switch.buffer() as f64 / (switch.config().work(port).cycles() as f64 * z)
    }
}

impl Policy<WorkQueue> for Nhst {
    fn name(&self) -> &str {
        "NHST"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if switch.is_full() {
            return Decision::Drop;
        }
        let len = switch.queue(pkt.port()).len() as f64;
        if len < Self::threshold(switch, pkt.port()) {
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

    fn runner(k: u32, b: usize) -> WorkRunner<Nhst> {
        WorkRunner::new(WorkSwitchConfig::contiguous(k, b).unwrap(), Nhst::new(), 1)
    }

    #[test]
    fn respects_inverse_threshold() {
        // k = 2: Z = 1 + 1/2 = 1.5, B = 12.
        // Port 0 (w=1): threshold 12 / 1.5 = 8.
        // Port 1 (w=2): threshold 12 / 3  = 4.
        let mut r = runner(2, 12);
        for _ in 0..8 {
            assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Accept);
        }
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        for _ in 0..4 {
            assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Accept);
        }
        assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Drop);
    }

    #[test]
    fn never_pushes_out() {
        let mut r = runner(3, 6);
        for _ in 0..20 {
            let d = r.arrival_to(PortId::new(2)).unwrap();
            assert!(matches!(d, Decision::Accept | Decision::Drop));
        }
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn drops_when_buffer_full_even_under_threshold() {
        // Homogeneous works: every threshold is B/n = 2, but fill the buffer
        // via one queue... thresholds prevent that; instead use k=1 so the
        // single queue's threshold equals B and fill completely.
        let mut r = runner(1, 4);
        for _ in 0..4 {
            assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Accept);
        }
        assert!(r.switch().is_full());
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
    }

    #[test]
    fn theorem1_burst_accepts_b_over_kz_fraction() {
        // Burst of B packets for the largest-work port: NHST accepts only
        // ~B/(kZ) of them.
        let k = 4;
        let b = 100;
        let mut r = runner(k, b);
        for _ in 0..b {
            let _ = r.arrival_to(PortId::new(3)).unwrap();
        }
        let z: f64 = (1..=4).map(|w| 1.0 / w as f64).sum();
        let expected = (b as f64 / (4.0 * z)).ceil() as usize;
        let got = r.switch().queue(PortId::new(3)).len();
        assert!(
            (got as i64 - expected as i64).abs() <= 1,
            "accepted {got}, expected about {expected}"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Nhst::new().name(), "NHST");
    }
}
