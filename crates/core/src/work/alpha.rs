//! An interpolation family between LQD and LWD, for ablating *what* the
//! push-out victim score should measure.

use smbm_switch::{PortId, WorkPacket, WorkQueue, WorkSwitch};

use crate::index::{apply_queue_changes, ScoreIndex, SelectMode};
use crate::{Decision, Policy};

/// **AWD(α)** — push out from the queue maximizing the geometric
/// interpolation `W_j^α * |Q_j|^(1-α)` (after virtually adding the arrival):
///
/// * `α = 0` reduces to LQD (queue length only);
/// * `α = 1` reduces to LWD (total work only);
/// * intermediate values trade the two off.
///
/// Not part of the paper; used by the `ablations` bench to show that the
/// *work* end of the spectrum is what buys LWD its constant
/// competitiveness, supporting the paper's Section III-B argument that "a
/// good policy has to account for the processing requirements explicitly".
#[derive(Debug, Clone)]
pub struct AlphaWd {
    alpha: f64,
    index: Option<ScoreIndex<(u64, u64)>>,
    mode: SelectMode,
}

impl AlphaWd {
    /// Creates the policy with interpolation exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= alpha <= 1.0`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must lie in [0, 1], got {alpha}"
        );
        AlphaWd {
            alpha,
            index: None,
            mode: SelectMode::Auto,
        }
    }

    /// Creates AWD(α) with victim selection by full scan instead of the
    /// incremental index (differential-test oracle).
    pub fn scan(alpha: f64) -> Self {
        let mut p = Self::new(alpha);
        p.mode = SelectMode::Scan;
        p
    }

    /// Creates AWD(α) with the incremental index forced on regardless of
    /// port count.
    pub fn indexed(alpha: f64) -> Self {
        let mut p = Self::new(alpha);
        p.mode = SelectMode::Indexed;
        p
    }

    /// The interpolation exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn score_with(alpha: f64, work: u64, len: usize) -> f64 {
        if work == 0 || len == 0 {
            return 0.0;
        }
        (work as f64).powf(alpha) * (len as f64).powf(1.0 - alpha)
    }

    fn score(&self, work: u64, len: usize) -> f64 {
        Self::score_with(self.alpha, work, len)
    }

    /// Packs the resident `(score, tie)` pair of `port` into an ordered key.
    /// Scores are non-negative finite floats, so `to_bits` orders them.
    fn key_for(alpha: f64, switch: &WorkSwitch, port: PortId) -> (u64, u64) {
        let q = switch.queue(port);
        let score = Self::score_with(alpha, q.total_work(), q.len());
        (score.to_bits(), q.work().as_u64())
    }

    fn port_key(&self, switch: &WorkSwitch, port: PortId) -> (u64, u64) {
        Self::key_for(self.alpha, switch, port)
    }

    /// Indexed equivalent of [`AlphaWd::victim`].
    fn indexed_victim(&mut self, switch: &WorkSwitch, arriving: PortId) -> PortId {
        if self
            .index
            .as_ref()
            .is_none_or(|i| i.ports() != switch.ports())
        {
            let alpha = self.alpha;
            let mut idx = ScoreIndex::new(switch.ports());
            idx.rebuild_with(|i| Some(Self::key_for(alpha, switch, PortId::new(i))));
            self.index = Some(idx);
        }
        let q = switch.queue(arriving);
        let score = self.score(q.total_work() + q.work().as_u64(), q.len() + 1);
        let virtual_key = (score.to_bits(), q.work().as_u64());
        self.index
            .as_ref()
            .expect("index built above")
            .max_with(arriving, virtual_key)
    }

    /// The victim queue once `arriving` is virtually added; ties prefer the
    /// larger per-packet requirement, then the larger index (LWD's rule).
    pub fn victim(&self, switch: &WorkSwitch, arriving: PortId) -> PortId {
        let mut best = PortId::new(0);
        let mut best_score = f64::NEG_INFINITY;
        let mut best_tie = 0u64;
        for (port, q) in switch.queues() {
            let own = port == arriving;
            let work = q.total_work() + if own { q.work().as_u64() } else { 0 };
            let len = q.len() + usize::from(own);
            let score = self.score(work, len);
            let tie = q.work().as_u64();
            if score > best_score || (score == best_score && tie >= best_tie) {
                best = port;
                best_score = score;
                best_tie = tie;
            }
        }
        best
    }
}

impl Policy<WorkQueue> for AlphaWd {
    fn name(&self) -> &str {
        // A static name keeps the trait simple; the ablation harness labels
        // variants by alpha itself.
        "AWD"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let victim = if self.mode.use_index(switch.ports()) {
            self.indexed_victim(switch, pkt.port())
        } else {
            self.victim(switch, pkt.port())
        };
        if victim != pkt.port() {
            Decision::PushOut(victim)
        } else {
            Decision::Drop
        }
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.mode.use_index(ports)
    }

    fn queue_changed(&mut self, switch: &WorkSwitch, port: PortId) {
        let key = self.port_key(switch, port);
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                idx.set(port, Some(key));
            }
        }
    }

    fn queues_changed(&mut self, switch: &WorkSwitch, ports: &[PortId]) {
        let alpha = self.alpha;
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                apply_queue_changes(idx, ports, |i| {
                    Some(Self::key_for(alpha, switch, PortId::new(i)))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{Lqd, Lwd, WorkRunner};
    use smbm_switch::WorkSwitchConfig;

    #[test]
    #[should_panic(expected = "alpha must lie in [0, 1]")]
    fn rejects_out_of_range_alpha() {
        let _ = AlphaWd::new(1.5);
    }

    #[test]
    fn alpha_zero_matches_lqd_decisions() {
        let cfg = WorkSwitchConfig::contiguous(3, 6).unwrap();
        let mut awd = WorkRunner::new(cfg.clone(), AlphaWd::new(0.0), 1);
        let mut lqd = WorkRunner::new(cfg, Lqd::new(), 1);
        let pattern = [0, 1, 2, 2, 2, 0, 1, 0, 0, 1, 2, 1, 0];
        for &p in &pattern {
            let a = awd.arrival_to(PortId::new(p)).unwrap();
            let b = lqd.arrival_to(PortId::new(p)).unwrap();
            assert_eq!(a, b, "diverged at port {p}");
        }
    }

    #[test]
    fn alpha_one_matches_lwd_decisions() {
        let cfg = WorkSwitchConfig::contiguous(3, 6).unwrap();
        let mut awd = WorkRunner::new(cfg.clone(), AlphaWd::new(1.0), 1);
        let mut lwd = WorkRunner::new(cfg, Lwd::new(), 1);
        let pattern = [2, 2, 0, 0, 0, 0, 1, 1, 2, 0, 1, 2, 0];
        for &p in &pattern {
            let a = awd.arrival_to(PortId::new(p)).unwrap();
            let b = lwd.arrival_to(PortId::new(p)).unwrap();
            assert_eq!(a, b, "diverged at port {p}");
        }
    }

    #[test]
    fn intermediate_alpha_interpolates() {
        // Queue 0: many cheap packets (longest); queue 2: most work.
        let cfg = WorkSwitchConfig::contiguous(3, 8).unwrap();
        let setup = |alpha: f64| {
            let mut r = WorkRunner::new(cfg.clone(), AlphaWd::new(alpha), 1);
            for _ in 0..5 {
                r.arrival_to(PortId::new(0)).unwrap(); // W = 5, len 5
            }
            for _ in 0..3 {
                r.arrival_to(PortId::new(2)).unwrap(); // W = 9, len 3
            }
            r
        };
        // Pure length: victim is queue 0 (len 5 > 3).
        let mut r = setup(0.0);
        assert_eq!(
            r.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(0))
        );
        // Pure work: victim is queue 2 (W 9 > 5).
        let mut r = setup(1.0);
        assert_eq!(
            r.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(2))
        );
        // Halfway: sqrt(5*5) = 5 vs sqrt(9*3) = 5.196 -> queue 2.
        let mut r = setup(0.5);
        assert_eq!(
            r.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(2))
        );
    }

    #[test]
    fn accessors() {
        let p = AlphaWd::new(0.25);
        assert_eq!(p.alpha(), 0.25);
        assert_eq!(p.name(), "AWD");
    }
}
