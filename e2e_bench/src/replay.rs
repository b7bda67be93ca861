//! `replay-paper`: live trace replay, the path behind `serve --file`. A
//! lockstep shard (`ShardConfig::lockstep()`) fed by one producer that
//! pushes one batch per trace slot, LWD on the paper's default switch
//! (k = 8, B = 64), telemetry on in memory. Every round's counters and
//! score must equal the offline engine's (`EngineConfig::draining()`) on
//! the same trace, bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smbm_core::{work_policy_by_name, WorkPolicy, WorkRunner};
use smbm_datapath::DatapathSystem;
use smbm_obs::TelemetryConfig;
use smbm_runtime::{
    RuntimeBuilder, RuntimeConfig, RuntimeReport, ShardConfig, VirtualClock, WorkService,
};
use smbm_sim::{run_work, EngineConfig};
use smbm_switch::{
    AdmitError, ArrivalOutcome, Counters, PortId, Transmitted, WorkPacket, WorkSwitchConfig,
};
use smbm_traffic::{MmppScenario, PortMix, Trace};

use crate::util::{ns, Tracer};

/// Maximum work per packet (k): ports carry works 1..=k.
pub const K: u32 = 8;
/// Shared buffer (B).
pub const BUFFER: usize = 64;
/// MMPP sources (the Fig. 5 work-model default: about 6 packets/slot).
pub const SOURCES: usize = 12;
/// Ingress ring depth in batches (as `serve --file`).
pub const RING: usize = 64;
/// Every `STRIDE`-th slot's hand-off is timed.
pub const STRIDE: usize = 16;

pub fn switch_config() -> WorkSwitchConfig {
    WorkSwitchConfig::contiguous(K, BUFFER).expect("valid work switch")
}

pub fn trace(seed: u64, slots: usize) -> Trace<WorkPacket> {
    MmppScenario {
        sources: SOURCES,
        slots,
        seed,
        ..MmppScenario::default()
    }
    .work_trace(&switch_config(), &PortMix::Uniform)
    .expect("valid scenario")
}

fn lwd() -> Box<dyn WorkPolicy> {
    work_policy_by_name("LWD").expect("LWD is registered")
}

/// What the offline engine computes on the round's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub counters: Counters,
    pub score: u64,
    pub slots: u64,
}

pub fn reference(trace: &Trace<WorkPacket>) -> Reference {
    let mut runner = WorkRunner::new(switch_config(), lwd(), 1);
    let summary = run_work(&mut runner, trace, &EngineConfig::draining())
        .expect("LWD decisions are consistent");
    Reference {
        counters: *runner.switch().counters(),
        score: summary.score,
        slots: summary.slots,
    }
}

/// The shard's service with a completion stamp: every `STRIDE`-th slot's
/// end is timed against the shared epoch, so the producer's push stamp
/// and this one give the slot's hand-off round trip. Decisions are the
/// wrapped service's, untouched.
pub struct Stamped<S> {
    inner: S,
    slot: usize,
    epoch: Instant,
    done: Arc<Vec<AtomicU64>>,
}

impl<S: DatapathSystem> DatapathSystem for Stamped<S> {
    type Packet = S::Packet;

    fn label(&self) -> String {
        self.inner.label()
    }
    fn meta(pkt: S::Packet) -> (PortId, u32, u64) {
        S::meta(pkt)
    }
    fn offer(&mut self, pkt: S::Packet) -> Result<ArrivalOutcome, AdmitError> {
        self.inner.offer(pkt)
    }
    fn offer_burst(
        &mut self,
        pkts: &[S::Packet],
        outcomes: &mut Vec<ArrivalOutcome>,
    ) -> Result<(), AdmitError> {
        self.inner.offer_burst(pkts, outcomes)
    }
    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.inner.transmission_phase_into(out)
    }
    fn end_slot(&mut self) {
        self.inner.end_slot();
        if self.slot.is_multiple_of(STRIDE) {
            if let Some(cell) = self.done.get(self.slot / STRIDE) {
                cell.store(ns(self.epoch.elapsed()) as u64, Ordering::Relaxed);
            }
        }
        self.slot += 1;
    }
    fn flush(&mut self) -> u64 {
        self.inner.flush()
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn score(&self) -> u64 {
        self.inner.score()
    }
    fn buffer_limit(&self) -> usize {
        self.inner.buffer_limit()
    }
    fn ports(&self) -> usize {
        self.inner.ports()
    }
    fn max_queue_depth(&self) -> usize {
        self.inner.max_queue_depth()
    }
    fn counters(&self) -> Counters {
        self.inner.counters()
    }
}

/// One measured round.
pub struct Round {
    pub setup: Duration,
    pub window: Duration,
    pub arrivals: u64,
    pub handoff_ns: Vec<f64>,
    /// Arrival bursts the shard ingested and clock cycles it ran.
    pub bursts: u64,
    pub cycles: u64,
    pub failure: Option<String>,
}

/// Runs one round over a fresh trace from `seed`. `withhold` drops the
/// first packet of the trace from the feed while the reference still
/// counts it — the smoke test's deliberately wrong expectation.
pub fn round(
    seed: u64,
    slots: usize,
    expect: &Reference,
    withhold: bool,
    tracer: &mut Tracer,
) -> Round {
    let setup_start = Instant::now();
    let g = tracer.begin();
    let trace = trace(seed, slots);
    let arrivals = trace.arrivals() as u64;
    tracer.end(g, "traffic.gen", "producer", None, arrivals);
    let mut feed = trace.into_slots();
    if withhold {
        if let Some(b) = feed.iter_mut().find(|b| !b.is_empty()) {
            b.remove(0);
        }
    }

    let epoch = Instant::now();
    let samples = feed.len().div_ceil(STRIDE);
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..samples).map(|_| AtomicU64::new(0)).collect());
    let pushed: Arc<Mutex<(Option<Instant>, Vec<u64>)>> =
        Arc::new(Mutex::new((None, Vec::with_capacity(samples))));
    let mut builder = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: RING,
        shard: ShardConfig::lockstep(),
        telemetry: Some(TelemetryConfig::default()),
        ..RuntimeConfig::default()
    });
    let cells = Arc::clone(&done);
    let id = builder.add_shard(move || Stamped {
        inner: WorkService::new(WorkRunner::new(switch_config(), lwd(), 1)),
        slot: 0,
        epoch,
        done: Arc::clone(&cells),
    });
    let stamps = Arc::clone(&pushed);
    builder.add_producer(id, move |handle| {
        let mut push_ns = Vec::with_capacity(samples);
        let first = Instant::now();
        for (s, burst) in feed.into_iter().enumerate() {
            if s.is_multiple_of(STRIDE) {
                push_ns.push(ns(epoch.elapsed()) as u64);
            }
            if !handle.send(burst) {
                break;
            }
        }
        let mut slot = stamps.lock().expect("stamp lock is never poisoned");
        *slot = (Some(first), push_ns);
    });
    let run_called = Instant::now();
    let report = builder.run(|_| VirtualClock::new());
    let returned = Instant::now();

    let (first, push_ns) = std::mem::take(&mut *pushed.lock().expect("producer joined"));
    let t0 = first.unwrap_or(returned);
    let setup = (run_called - setup_start) + t0.saturating_duration_since(run_called);
    let window = returned.saturating_duration_since(t0);
    tracer.record("runtime.run", "producer", t0, returned, arrivals);
    let handoff_ns = push_ns
        .iter()
        .zip(done.iter())
        .map(|(&p, d)| d.load(Ordering::Relaxed).saturating_sub(p) as f64)
        .collect();
    let failure = check(&report, expect).err();
    Round {
        setup,
        window,
        arrivals,
        handoff_ns,
        bursts: report.shards.iter().map(|s| s.bursts).sum(),
        cycles: report.shards.iter().map(|s| s.cycles).sum(),
        failure,
    }
}

fn check(report: &RuntimeReport, expect: &Reference) -> Result<(), String> {
    if report.shard_panics != 0 || report.producer_panics() != 0 {
        return Err("a datapath thread panicked".into());
    }
    if report.lost_packets() != 0 {
        return Err(format!("{} packets lost", report.lost_packets()));
    }
    let shard = report.shards.first().ok_or("no shard report")?;
    if let Some(e) = &shard.error {
        return Err(format!("shard error: {e}"));
    }
    if shard.drain_stalled {
        return Err("final drain stalled".into());
    }
    if shard.counters != expect.counters {
        return Err(format!(
            "counters differ from the engine: live {:?} vs engine {:?}",
            shard.counters, expect.counters
        ));
    }
    if shard.score != expect.score || shard.slots != expect.slots {
        return Err(format!(
            "score/slots {}/{} differ from the engine's {}/{}",
            shard.score, shard.slots, expect.score, expect.slots
        ));
    }
    Ok(())
}
