//! `udp-overload`: the serving path an operator runs. One bench-owned
//! client (this thread) drives `run_bound_server` over loopback with a
//! seeded MMPP work trace, 256-frame datagrams and stop-and-wait SYNC
//! windows of 16 datagrams, then FINs; the round's window runs from the
//! first data datagram sent until the server's report returns.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::thread;
use std::time::{Duration, Instant};

use smbm_net::codec::{decode, encode_data, encode_fin, encode_sync, Datagram};
use smbm_net::{run_bound_server, Fanout, NetConfig, NetIngress, ServeConfig, ServeReport};
use smbm_obs::{NetCounts, TelemetryConfig};
use smbm_runtime::Model;
use smbm_switch::{Counters, WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, Trace};

use crate::util::Tracer;

/// Output ports (n) of the served switch.
pub const PORTS: usize = 64;
/// Shared buffer (B) of the served switch.
pub const BUFFER: usize = 256;
/// Ingress ring depth, in batches.
pub const RING: usize = 256;
/// Frames per data datagram, and packets per ring batch.
pub const FRAMES: usize = 256;
/// Data datagrams per SYNC window.
pub const WINDOW: usize = 16;
/// MMPP sources behind the client's trace (25 packets/slot on average).
pub const SOURCES: usize = 50;
/// How long the client waits for an ack before resending.
const ACK_TIMEOUT: Duration = Duration::from_millis(200);
/// Resends per barrier before the client gives up.
const ACK_RETRIES: u32 = 25;

pub fn switch_config() -> WorkSwitchConfig {
    WorkSwitchConfig::contiguous(PORTS as u32, BUFFER).expect("valid work switch")
}

/// The client's trace for a round: `slots` MMPP slots from `seed`.
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

fn serve_config() -> ServeConfig {
    ServeConfig {
        model: Model::Work,
        policy: "LWD".to_owned(),
        ports: PORTS,
        buffer: BUFFER,
        speedup: 1,
        shards: 1,
        ring_capacity: RING,
        net: NetConfig {
            listen: vec!["127.0.0.1:0".parse().expect("literal address")],
            fanout: Fanout::ByPort,
            expected_clients: 1,
            lossy: false,
            batch: FRAMES,
            ..NetConfig::default()
        },
        telemetry: Some(TelemetryConfig::default()),
        ..ServeConfig::default()
    }
}

/// What the client saw in one round.
#[derive(Debug, Default)]
pub struct ClientTally {
    pub declared: u64,
    pub retries: u64,
    pub fin_acked: bool,
    pub rtt_ns: Vec<f64>,
    pub error: Option<String>,
}

/// The parts of the server's report a run keeps: small, so that holding
/// every round's does not grow the run's memory.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub counters: Counters,
    pub bursts: u64,
    pub cycles: u64,
    pub offered: u64,
    pub net: NetCounts,
}

impl Served {
    fn of(r: &ServeReport) -> Served {
        Served {
            counters: r.counters(),
            bursts: r.runtime.shards.iter().map(|s| s.bursts).sum(),
            cycles: r.runtime.shards.iter().map(|s| s.cycles).sum(),
            offered: r.runtime.producers.iter().map(|p| p.offered_packets).sum(),
            net: r.net_counts(),
        }
    }
}

/// One measured round.
pub struct Round {
    pub setup: Duration,
    pub window: Duration,
    pub client: ClientTally,
    pub served: Option<Served>,
    /// Why the round failed its correctness check, if it did.
    pub failure: Option<String>,
}

impl Round {
    /// Frames the server accounted for.
    pub fn arrived(&self) -> u64 {
        self.served.map_or(0, |s| s.counters.arrived())
    }
}

/// Runs one round. `withhold` keeps the first data datagram off the wire
/// while still declaring its frames — the deliberately broken round the
/// smoke test uses to prove the reconciliation check bites.
pub fn round(seed: u64, slots: usize, withhold: bool, tracer: &mut Tracer) -> Round {
    let setup_start = Instant::now();
    let g = tracer.begin();
    let batches: Vec<Vec<WorkPacket>> = trace(seed, slots).batches(FRAMES).collect();
    let frames: u64 = batches.iter().map(|b| b.len() as u64).sum();
    tracer.end(g, "traffic.gen", "client", None, frames);

    let config = serve_config();
    let ingress = match NetIngress::bind(config.net.clone()) {
        Ok(i) => i,
        Err(e) => return failed_round(setup_start, format!("bind: {e}")),
    };
    let addr = match ingress.local_addrs() {
        Ok(a) => a[0],
        Err(e) => return failed_round(setup_start, format!("local_addrs: {e}")),
    };
    let server = thread::spawn(move || run_bound_server(&config, ingress));
    let mut client = ClientTally::default();
    let socket = match client_socket(addr) {
        Ok(s) => s,
        Err(e) => {
            client.error = Some(format!("client socket: {e}"));
            return finish_timed(setup_start.elapsed(), Instant::now(), client, server);
        }
    };
    // The handshake barrier: no data flows until the server answers.
    let mut seq = 0u64;
    if barrier(&socket, seq, &mut client).is_none() {
        client.error = Some("no handshake SYNC-ACK".into());
        return finish_timed(setup_start.elapsed(), Instant::now(), client, server);
    }
    let setup = setup_start.elapsed();

    let t0 = Instant::now();
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(WINDOW);
    for (w, chunk) in batches.chunks(WINDOW).enumerate() {
        let e = tracer.begin();
        payloads.clear();
        payloads.extend(chunk.iter().map(|b| encode_data(0, b)));
        let window_frames: u64 = chunk.iter().map(|b| b.len() as u64).sum();
        let parent = tracer.end(e, "net.codec.encode", "client", None, window_frames);
        for (i, p) in payloads.iter().enumerate() {
            client.declared += chunk[i].len() as u64;
            if withhold && w == 0 && i == 0 {
                continue;
            }
            let s = tracer.begin();
            if let Err(err) = socket.send(p) {
                client.error = Some(format!("send: {err}"));
                return finish_timed(setup, t0, client, server);
            }
            tracer.end(
                s,
                "net.client.send",
                "client",
                parent,
                chunk[i].len() as u64,
            );
        }
        seq += 1;
        let s = tracer.begin();
        match barrier(&socket, seq, &mut client) {
            Some(rtt) => client.rtt_ns.push(rtt),
            None => {
                client.error = Some(format!("no SYNC-ACK for window {seq}"));
                return finish_timed(setup, t0, client, server);
            }
        }
        tracer.end(s, "net.client.sync_wait", "client", parent, window_frames);
    }
    for attempt in 0..=ACK_RETRIES {
        if attempt > 0 {
            client.retries += 1;
        }
        if socket.send(&encode_fin(0)).is_err() {
            break;
        }
        if await_ack(&socket, |d| matches!(d, Datagram::FinAck { client: 0 })) {
            client.fin_acked = true;
            break;
        }
    }
    finish_timed(setup, t0, client, server)
}

fn client_socket(server: SocketAddr) -> io::Result<UdpSocket> {
    let s = UdpSocket::bind("127.0.0.1:0")?;
    s.connect(server)?;
    s.set_read_timeout(Some(ACK_TIMEOUT))?;
    Ok(s)
}

/// Sends SYNC `seq` until acknowledged; returns the round trip in ns from
/// the first SYNC sent to the matching SYNC-ACK, or `None` on give-up.
fn barrier(socket: &UdpSocket, seq: u64, client: &mut ClientTally) -> Option<f64> {
    let started = Instant::now();
    for attempt in 0..=ACK_RETRIES {
        if attempt > 0 {
            client.retries += 1;
        }
        socket.send(&encode_sync(0, seq)).ok()?;
        if await_ack(
            socket,
            |d| matches!(d, Datagram::SyncAck { client: 0, seq: s } if *s == seq),
        ) {
            return Some(crate::util::ns(started.elapsed()));
        }
    }
    None
}

/// Waits (up to the socket timeout) for an ack matching `want`.
fn await_ack(socket: &UdpSocket, want: impl Fn(&Datagram<WorkPacket>) -> bool) -> bool {
    let mut buf = [0u8; 64];
    loop {
        match socket.recv(&mut buf) {
            Ok(n) => {
                if let Ok(d) = decode::<WorkPacket>(&buf[..n], |_| true) {
                    if want(&d) {
                        return true;
                    }
                }
            }
            Err(_) => return false,
        }
    }
}

fn failed_round(setup_start: Instant, why: String) -> Round {
    Round {
        setup: setup_start.elapsed(),
        window: Duration::ZERO,
        client: ClientTally::default(),
        served: None,
        failure: Some(why),
    }
}

/// Joins the server (its report return closes the window) and checks the
/// round: every declared frame arrived, the FIN was acknowledged, nothing
/// was lost, orphaned or undecodable, and the books conserve.
fn finish_timed(
    setup: Duration,
    t0: Instant,
    client: ClientTally,
    server: thread::JoinHandle<Result<ServeReport, smbm_net::ServeError>>,
) -> Round {
    let joined = server.join();
    let window = t0.elapsed();
    let (report, mut failure) = match joined {
        Ok(Ok(r)) => (Some(r), None),
        Ok(Err(e)) => (None, Some(format!("server: {e}"))),
        Err(_) => (None, Some("server thread panicked".to_owned())),
    };
    if let Some(e) = &client.error {
        failure.get_or_insert_with(|| format!("client: {e}"));
    }
    if let Some(r) = &report {
        if failure.is_none() {
            failure = check(&client, r).err();
        }
    }
    Round {
        setup,
        window,
        client,
        served: report.as_ref().map(Served::of),
        failure,
    }
}

fn check(client: &ClientTally, r: &ServeReport) -> Result<(), String> {
    let c = r.counters();
    if c.arrived() != client.declared {
        return Err(format!(
            "arrived {} != frames declared {}",
            c.arrived(),
            client.declared
        ));
    }
    if !client.fin_acked {
        return Err("FIN not acknowledged".into());
    }
    if r.runtime.lost_packets() != 0 || r.runtime.orphaned_packets() != 0 {
        return Err(format!(
            "{} lost, {} orphaned",
            r.runtime.lost_packets(),
            r.runtime.orphaned_packets()
        ));
    }
    if r.runtime.shard_panics != 0 || r.runtime.producer_panics() != 0 {
        return Err("a datapath thread panicked".into());
    }
    if c.dropped_net_decode() != 0 || r.net_counts().decode_errors != 0 {
        return Err(format!(
            "{} frames dropped as undecodable",
            c.dropped_net_decode()
        ));
    }
    if let Some(s) = r
        .runtime
        .shards
        .iter()
        .find(|s| s.error.is_some() || s.drain_stalled)
    {
        return Err(format!("shard error {:?}", s.error));
    }
    c.check_conservation(0)
        .map_err(|e| format!("conservation: {e}"))
}
