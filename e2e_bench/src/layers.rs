//! Per-layer measurements for the traced run: each layer is driven alone,
//! through its public functions, with the workload's own inputs and
//! shape, and the bench's spans around those calls give ns per unit.

use std::net::UdpSocket;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use smbm_core::{work_policy_by_name, WorkPqOpt, WorkRunner};
use smbm_datapath::{DatapathSystem, NoHook, SlotMachine};
use smbm_net::codec::{decode, encode_data};
use smbm_obs::{NullObserver, Observer, StatCell, TelemetryObserver};
use smbm_runtime::{run_shard, Batch, ShardConfig, VirtualClock, WorkService};
use smbm_sim::{run_work, EngineConfig};
use smbm_switch::{ArrivalOutcome, PortId, WorkPacket, WorkSwitchConfig};
use smbm_traffic::Trace;

use crate::util::{median, ns, timer_cost_ns, Tracer};

/// The workload's inputs and shape, as the layers see them.
pub struct Shape {
    pub config: WorkSwitchConfig,
    pub speedup: u32,
    /// The workload's trace, one burst per slot.
    pub slots: Vec<Vec<WorkPacket>>,
    /// Packets per ring batch and per datagram on the wire path
    /// (`None`: one batch per slot, the lockstep replay shape).
    pub batch: Option<usize>,
    /// How the shard ingests.
    pub shard: ShardConfig,
    /// Mean packets per shard burst in the live run.
    pub burst_pkts: f64,
    /// The engine configuration the offline runs use.
    pub engine: EngineConfig,
}

impl Shape {
    fn packets(&self) -> impl Iterator<Item = WorkPacket> + '_ {
        self.slots.iter().flatten().copied()
    }

    fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.len() as u64).sum()
    }

    /// Ring batches in the workload's shape.
    fn ring_batches(&self) -> Vec<Vec<WorkPacket>> {
        match self.batch {
            Some(n) => Trace::from_slots(self.slots.clone()).batches(n).collect(),
            None => self.slots.clone(),
        }
    }

    /// Bursts of `burst_pkts` packets (at least one), cut from the trace.
    fn bursts(&self) -> Vec<Vec<WorkPacket>> {
        let size = (self.burst_pkts.round() as usize).max(1);
        let all: Vec<WorkPacket> = self.packets().collect();
        all.chunks(size).map(<[WorkPacket]>::to_vec).collect()
    }

    fn service(&self) -> WorkService<Box<dyn smbm_core::WorkPolicy>> {
        WorkService::new(WorkRunner::new(
            self.config.clone(),
            work_policy_by_name("LWD").expect("LWD is registered"),
            self.speedup,
        ))
    }
}

/// Named per-layer values, in report order.
pub type Layers = Vec<(&'static str, f64, &'static str)>;

/// Times `f` over repeated passes until at least `budget` has elapsed;
/// returns the median pass time.
fn timed<F: FnMut()>(budget: Duration, mut f: F) -> Duration {
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        passes.push(ns(t.elapsed()));
    }
    Duration::from_nanos(median(&passes) as u64)
}

/// Codec encode and decode (with the serve admission check), ns/frame.
pub fn codec(shape: &Shape, tracer: &mut Tracer, out: &mut Layers) {
    let batches: Vec<Vec<WorkPacket>> = Trace::from_slots(shape.slots.clone())
        .batches(shape.batch.unwrap_or(256))
        .collect();
    let frames = shape.total() as f64;
    let works: Vec<u32> = (0..shape.config.ports())
        .map(|i| shape.config.work(PortId::new(i)).cycles())
        .collect();
    let check = |p: &WorkPacket| works.get(p.port().index()).copied() == Some(p.work().cycles());
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let s = tracer.begin();
    let enc = timed(Duration::from_millis(300), || {
        wire = batches.iter().map(|b| encode_data(0, b)).collect();
        std::hint::black_box(&wire);
    });
    tracer.end(s, "net.codec.encode", "bench", None, frames as u64);
    let s = tracer.begin();
    let dec = timed(Duration::from_millis(300), || {
        let mut n = 0usize;
        for d in &wire {
            if let Ok(smbm_net::Datagram::Data { packets, .. }) = decode::<WorkPacket>(d, check) {
                n += packets.len();
            }
        }
        assert_eq!(n as f64, frames, "every frame decodes and validates");
    });
    tracer.end(s, "net.codec.decode", "bench", None, frames as u64);
    out.push(("net.codec.encode_ns_per_frame", ns(enc) / frames, "ns"));
    out.push(("net.codec.decode_ns_per_frame", ns(dec) / frames, "ns"));
}

/// One loopback `recv` of a full data datagram, ns/datagram: the receive
/// thread's syscall share, sent in SYNC-window bursts as the client does.
pub fn recv(shape: &Shape, window: usize, tracer: &mut Tracer, out: &mut Layers) {
    let batch: Vec<WorkPacket> = shape.packets().take(shape.batch.unwrap_or(256)).collect();
    let payload = encode_data(0, &batch);
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
    tx.connect(rx.local_addr().expect("bound"))
        .expect("connect loopback");
    rx.set_read_timeout(Some(Duration::from_secs(1)))
        .expect("set timeout");
    let mut buf = vec![0u8; 64 * 1024];
    let mut total = Duration::ZERO;
    let mut n = 0u64;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(300) {
        for _ in 0..window {
            tx.send(&payload).expect("loopback send");
        }
        for _ in 0..window {
            let t = Instant::now();
            rx.recv(&mut buf).expect("loopback recv");
            total += t.elapsed();
            n += 1;
        }
    }
    tracer.record("net.server.recv", "bench", started, Instant::now(), n);
    out.push((
        "net.server.recv_ns_per_datagram",
        ns(total) / n as f64,
        "ns",
    ));
}

/// SPSC ring transfer costs between two threads: bulk publish/claim in the
/// wire shape (ns/packet), and a blocking push/pop of one batch per slot
/// (ns/slot).
pub fn spsc(shape: &Shape, tracer: &mut Tracer, out: &mut Layers) {
    let bulk = shape.ring_batches();
    let pkts = shape.total() as f64;
    let s = tracer.begin();
    let t = timed(Duration::from_millis(300), || {
        let items = bulk.clone();
        let (tx, rx) = smbm_spsc::ring::<Vec<WorkPacket>>(256);
        let producer = thread::spawn(move || {
            for b in items {
                if tx.push_bulk(vec![b]).is_err() {
                    break;
                }
            }
        });
        let mut claimed = Vec::new();
        let mut n = 0usize;
        loop {
            claimed.clear();
            let r = rx.pop_bulk(&mut claimed, 32);
            n += claimed.iter().map(Vec::len).sum::<usize>();
            if r.popped == 0 {
                if r.closed {
                    break;
                }
                rx.wait_nonempty(Some(Duration::from_millis(1)));
            }
        }
        producer.join().expect("producer thread");
        assert_eq!(n as f64, pkts);
    });
    tracer.end(s, "spsc.bulk", "bench", None, pkts as u64);
    out.push(("spsc.bulk_ns_per_pkt", ns(t) / pkts, "ns"));

    let slots = shape.slots.len() as f64;
    let s = tracer.begin();
    let t = timed(Duration::from_millis(300), || {
        let items = shape.slots.clone();
        let (tx, rx) = smbm_spsc::ring::<Vec<WorkPacket>>(64);
        let producer = thread::spawn(move || {
            for b in items {
                if tx.push(b).is_err() {
                    break;
                }
            }
        });
        let mut n = 0usize;
        while rx.pop().is_some() {
            n += 1;
        }
        producer.join().expect("producer thread");
        assert_eq!(n as f64, slots);
    });
    tracer.end(s, "spsc.handoff", "bench", None, slots as u64);
    out.push(("spsc.handoff_ns_per_slot", ns(t) / slots, "ns"));
}

/// `run_shard` over a pre-filled, closed ring in the workload's ingest
/// shape: ns/packet with `NullObserver`, and the telemetry observer's
/// overhead on the same input (A/B interleaved, medians compared).
pub fn shard(shape: &Shape, tracer: &mut Tracer, out: &mut Layers) -> f64 {
    let batches = shape.ring_batches();
    let pkts = shape.total() as f64;
    let mut null = Vec::new();
    let mut tele = Vec::new();
    let started = Instant::now();
    while null.len() < 3 || started.elapsed() < Duration::from_millis(800) {
        null.push(ns(shard_pass(shape, &batches, &mut NullObserver)));
        let mut obs = TelemetryObserver::new(Arc::new(StatCell::new()));
        tele.push(ns(shard_pass(shape, &batches, &mut obs)));
    }
    tracer.record(
        "runtime.shard",
        "bench",
        started,
        Instant::now(),
        pkts as u64,
    );
    let loop_ns = median(&null) / pkts;
    let overhead = median(&tele) / median(&null) - 1.0;
    out.push(("runtime.shard.loop_ns_per_pkt", loop_ns, "ns"));
    out.push(("obs.telemetry.overhead_frac", overhead, "frac"));
    loop_ns * (1.0 + overhead)
}

fn shard_pass<O: Observer>(shape: &Shape, batches: &[Vec<WorkPacket>], obs: &mut O) -> Duration {
    let (tx, rx) = smbm_runtime::ring::<Batch<WorkPacket>>(batches.len().max(1));
    for b in batches {
        tx.try_push(Batch::new(b.clone()))
            .unwrap_or_else(|_| panic!("ring sized for every batch"));
    }
    drop(tx);
    let service = shape.service();
    let t = Instant::now();
    let report = run_shard(service, vec![rx], VirtualClock::new(), &shape.shard, obs);
    let d = t.elapsed();
    assert_eq!(
        report.counters.arrived(),
        shape.total(),
        "shard saw every packet"
    );
    d
}

/// The slot machine alone: `step` over bursts of the live mean burst size
/// (ns/packet), transmission-only `idle_slot`s while packets remain
/// buffered (ns/slot), and the mean occupancy those slots saw.
pub fn machine(shape: &Shape, tracer: &mut Tracer, out: &mut Layers) {
    let bursts = shape.bursts();
    let timer = timer_cost_ns();
    let mut step_ns = Vec::new();
    let mut idle_ns = Vec::new();
    let mut occupancy = Vec::new();
    let started = Instant::now();
    while step_ns.len() < 3 || started.elapsed() < Duration::from_millis(300) {
        let mut m = SlotMachine::new(shape.service(), None);
        let (mut st, mut it, mut idles) = (0.0, 0.0, 0u64);
        for b in &bursts {
            let t = Instant::now();
            m.step(b, &mut NullObserver, &mut NoHook)
                .expect("LWD decisions are consistent");
            st += ns(t.elapsed()) - timer;
            if m.occupancy() > 0 {
                let t = Instant::now();
                m.idle_slot(&mut NullObserver, &mut NoHook);
                it += ns(t.elapsed()) - timer;
                idles += 1;
            }
        }
        step_ns.push(st / shape.total() as f64);
        idle_ns.push(if idles > 0 { it / idles as f64 } else { 0.0 });
        occupancy.push(m.stats().mean_occupancy());
    }
    tracer.record(
        "datapath.machine",
        "bench",
        started,
        Instant::now(),
        shape.total(),
    );
    out.push(("datapath.machine.step_ns_per_pkt", median(&step_ns), "ns"));
    out.push(("datapath.machine.idle_slot_ns", median(&idle_ns), "ns"));
    out.push((
        "datapath.machine.mean_occupancy",
        median(&occupancy),
        "pkts",
    ));
}

/// `DatapathSystem::offer` per call, grouped by outcome, with the timer's
/// own cost subtracted; transmission and end-of-slot run untimed between
/// bursts so the buffer evolves as in the workload.
pub fn policy(shape: &Shape, tracer: &mut Tracer, out: &mut Layers) {
    let bursts = shape.bursts();
    let timer = timer_cost_ns();
    let mut sums = [0.0f64; 3];
    let mut counts = [0u64; 3];
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(300) || counts.iter().sum::<u64>() == 0 {
        let mut svc = shape.service();
        let mut scratch = Vec::new();
        for b in &bursts {
            for &p in b {
                let t = Instant::now();
                let o = svc.offer(p).expect("LWD decisions are consistent");
                let d = ns(t.elapsed());
                let k = match o {
                    ArrivalOutcome::Admitted => 0,
                    ArrivalOutcome::PushedOut(_) => 1,
                    ArrivalOutcome::Dropped(_) => 2,
                };
                sums[k] += d;
                counts[k] += 1;
            }
            scratch.clear();
            svc.transmission_phase_into(&mut scratch);
            svc.end_slot();
        }
    }
    tracer.record(
        "core.policy",
        "bench",
        started,
        Instant::now(),
        counts.iter().sum(),
    );
    let mean = |k: usize| {
        if counts[k] > 0 {
            (sums[k] / counts[k] as f64 - timer).max(0.0)
        } else {
            0.0
        }
    };
    out.push(("core.policy.admit_ns", mean(0), "ns"));
    out.push(("core.policy.pushout_ns", mean(1), "ns"));
    out.push(("core.policy.drop_ns", mean(2), "ns"));
}

/// The offline engine per slot: LWD (`sim.engine`) and the PQ-OPT
/// surrogate (`core.opt`) over the workload's trace.
pub fn engine(shape: &Shape, tracer: &mut Tracer, out: &mut Layers) {
    let trace = Trace::from_slots(shape.slots.clone());
    let mut slots = 0u64;
    let s = tracer.begin();
    let lwd = timed(Duration::from_millis(300), || {
        let mut runner = WorkRunner::new(
            shape.config.clone(),
            work_policy_by_name("LWD").expect("LWD is registered"),
            shape.speedup,
        );
        slots = run_work(&mut runner, &trace, &shape.engine)
            .expect("LWD decisions are consistent")
            .slots;
    });
    tracer.end(s, "sim.engine", "bench", None, slots);
    let cores = shape.config.ports() as u32 * shape.speedup;
    let mut opt_slots = 0u64;
    let s = tracer.begin();
    let opt = timed(Duration::from_millis(300), || {
        let mut opt = WorkPqOpt::new(shape.config.buffer(), cores);
        opt_slots = run_work(&mut opt, &trace, &shape.engine)
            .expect("OPT surrogate is consistent")
            .slots;
    });
    tracer.end(s, "core.opt", "bench", None, opt_slots);
    out.push(("sim.engine.ns_per_slot", ns(lwd) / slots as f64, "ns"));
    out.push(("core.opt.ns_per_slot", ns(opt) / opt_slots as f64, "ns"));
}
