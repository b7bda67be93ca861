//! The live telemetry plane: lock-free per-shard stat cells, a background
//! sampler turning them into a bounded time-series, and two std-only
//! exposition sinks (periodic JSONL snapshots and Prometheus text format).
//!
//! ## Design
//!
//! Each shard owns one [`StatCell`] made of two blocks on cache lines of
//! their own, and no field of either has two writers:
//!
//! * The **shard block** is written only by the shard thread, through its
//!   [`TelemetryObserver`]. At every slot boundary the observer publishes
//!   the switch's cumulative `Counters` (the supervisor's corrected totals
//!   of earlier incarnations plus the live incarnation's), the slot count,
//!   the gauges, the latency histogram, and the two splits `Counters`
//!   cannot express (buffer-full versus policy drops, flushes versus
//!   push-outs). The whole block is written with plain relaxed stores inside
//!   one seqlock write section: the writer bumps the epoch to odd, stores,
//!   and bumps it back to even with release ordering. The per-packet hooks
//!   touch only plain locals, and nothing on the per-slot path is an atomic
//!   read-modify-write; the histogram republishes only the buckets the slot
//!   touched.
//! * The **ingress block** is written by any number of producer and socket
//!   threads with relaxed `fetch_add`s: ring backpressure, sends lost to a
//!   dead shard, and the network plane's receive and decode tallies.
//!
//! [`StatCell::snapshot`] reads the shard block under its epoch, retrying
//! while the epoch is odd or moves underneath it, so every sample — mid-run
//! ones included — is one slot boundary's state: `arrived == admitted +
//! dropped`, `admitted == transmitted + pushed_out + flushed + occupancy`,
//! and the histogram's count equals its bucket sum. It then adds the
//! ingress tallies, each into both sides of the arrival law. The
//! [`TelemetrySampler`] takes its final sample after the runtime joins its
//! shard threads, so thread-join's happens-before edge makes it exact: it
//! equals the runtime report's counters field for field.

use std::collections::VecDeque;
use std::ffi::OsString;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::hist::BUCKETS;
use crate::sink::JsonlWriter;
use crate::{DropReason, LogHistogram, Observer};
use smbm_switch::{Counters, PortId};

/// Consecutive failed snapshot attempts before the reader yields its
/// timeslice (the writer may be descheduled mid-write-section; spinning
/// against it would just burn the core the writer needs).
const SEQLOCK_SPINS_BEFORE_YIELD: u32 = 64;

// A publish names the histogram buckets it touched in one `u128` mask.
const _: () = assert!(BUCKETS <= 128);

/// Per-socket network ingress tallies: how many datagrams and frames a
/// socket received and how many frames it failed to decode.
///
/// Lives in `smbm-obs` so the stat cells, the flight recorder, and the
/// network plane's own reports all speak the same counter vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetCounts {
    /// Datagrams received.
    pub datagrams: u64,
    /// Frames successfully decoded into packets.
    pub frames: u64,
    /// Frames (or whole datagrams) that failed decoding.
    pub decode_errors: u64,
    /// Datagrams truncated mid-frame (their missing frames also count as
    /// decode errors).
    pub truncations: u64,
}

impl NetCounts {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &NetCounts) {
        self.datagrams += other.datagrams;
        self.frames += other.frames;
        self.decode_errors += other.decode_errors;
        self.truncations += other.truncations;
    }

    /// Renders the tallies as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"datagrams\":{},\"frames\":{},\"decode_errors\":{},\"truncations\":{}}}",
            self.datagrams, self.frames, self.decode_errors, self.truncations
        )
    }
}

/// One shard's live statistics: the shard block its [`TelemetryObserver`]
/// publishes once per slot, and the ingress block producer and socket
/// threads add to (see the module docs for the consistency contract).
///
/// Both blocks are aligned to two 64-byte cache lines, so the shard's
/// stores never false-share with producers' `fetch_add`s or with a
/// neighbouring shard's cell.
#[derive(Debug, Default)]
pub struct StatCell {
    shard: ShardBlock,
    ingress: IngressBlock,
}

/// The shard-owned words of a [`StatCell`]. Their one writer is the shard's
/// [`TelemetryObserver`]; readers go through the `epoch` seqlock.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShardBlock {
    epoch: AtomicU64,
    arrived: AtomicU64,
    arrived_value: AtomicU64,
    admitted: AtomicU64,
    dropped_buffer_full: AtomicU64,
    dropped_policy: AtomicU64,
    dropped_shard_failure: AtomicU64,
    pushed_out: AtomicU64,
    flushed: AtomicU64,
    transmitted: AtomicU64,
    transmitted_value: AtomicU64,
    slots: AtomicU64,
    restarts: AtomicU64,
    panics: AtomicU64,
    failures: AtomicU64,
    occupancy: AtomicU64,
    queue_depth: AtomicU64,
    queue_hwm: AtomicU64,
    buffer_limit: AtomicU64,
    ports: AtomicU64,
    latency: AtomicBuckets,
    latency_count: AtomicU64,
    latency_sum: AtomicU64,
    latency_min: AtomicU64,
    latency_max: AtomicU64,
}

#[derive(Debug)]
struct AtomicBuckets([AtomicU64; BUCKETS]);

impl Default for AtomicBuckets {
    fn default() -> Self {
        AtomicBuckets([const { AtomicU64::new(0) }; BUCKETS])
    }
}

impl ShardBlock {
    /// Reads every word with relaxed loads; only [`ShardBlock::read`]'s
    /// epoch check makes the result one consistent state.
    fn read_relaxed(&self) -> StatSnapshot {
        let r = Ordering::Relaxed;
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.latency.0.iter()) {
            *dst = src.load(r);
        }
        let count = self.latency_count.load(r);
        // An empty histogram's minimum is the `u64::MAX` sentinel.
        let min = if count == 0 {
            u64::MAX
        } else {
            self.latency_min.load(r)
        };
        StatSnapshot {
            arrived: self.arrived.load(r),
            arrived_value: self.arrived_value.load(r),
            admitted: self.admitted.load(r),
            dropped_buffer_full: self.dropped_buffer_full.load(r),
            dropped_policy: self.dropped_policy.load(r),
            dropped_shard_failure: self.dropped_shard_failure.load(r),
            pushed_out: self.pushed_out.load(r),
            flushed: self.flushed.load(r),
            transmitted: self.transmitted.load(r),
            transmitted_value: self.transmitted_value.load(r),
            slots: self.slots.load(r),
            restarts: self.restarts.load(r),
            panics: self.panics.load(r),
            failures: self.failures.load(r),
            occupancy: self.occupancy.load(r),
            queue_depth: self.queue_depth.load(r),
            queue_hwm: self.queue_hwm.load(r),
            buffer_limit: self.buffer_limit.load(r),
            ports: self.ports.load(r),
            latency: LogHistogram::from_raw(
                buckets,
                count,
                self.latency_sum.load(r),
                min,
                self.latency_max.load(r),
            ),
            ..StatSnapshot::default()
        }
    }

    /// A consistent snapshot of the block. Retries until a read completes
    /// without the epoch moving; termination is guaranteed because write
    /// sections are short and bounded (one publish per slot), so the
    /// reader always finds a gap between them.
    fn read(&self) -> StatSnapshot {
        let mut attempts: u32 = 0;
        loop {
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 0 {
                let snapshot = self.read_relaxed();
                fence(Ordering::Acquire);
                if self.epoch.load(Ordering::Relaxed) == before {
                    return snapshot;
                }
            }
            attempts += 1;
            if attempts.is_multiple_of(SEQLOCK_SPINS_BEFORE_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The multi-writer words of a [`StatCell`]: tallies producer and socket
/// threads add with relaxed `fetch_add`s, never the shard thread.
#[derive(Debug, Default)]
#[repr(align(128))]
struct IngressBlock {
    backpressure: AtomicU64,
    backpressure_value: AtomicU64,
    lost: AtomicU64,
    lost_value: AtomicU64,
    net_decode: AtomicU64,
    net_datagrams: AtomicU64,
    net_frames: AtomicU64,
    net_decode_errors: AtomicU64,
    net_truncations: AtomicU64,
}

impl StatCell {
    /// Creates a zeroed cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records socket-level receive activity and decode losses from a net
    /// ingress thread feeding this shard. Safe to call from any thread.
    /// `dropped_frames` is the [`crate::DropReason::NetDecode`] drop count:
    /// frames from well-formed datagrams that were lost to truncation or
    /// failed validation. They count as arrivals too, as in the runtime's
    /// final counters.
    pub fn record_net(&self, counts: NetCounts, dropped_frames: u64) {
        let r = Ordering::Relaxed;
        let i = &self.ingress;
        if counts.datagrams != 0 {
            i.net_datagrams.fetch_add(counts.datagrams, r);
        }
        if counts.frames != 0 {
            i.net_frames.fetch_add(counts.frames, r);
        }
        if counts.decode_errors != 0 {
            i.net_decode_errors.fetch_add(counts.decode_errors, r);
        }
        if counts.truncations != 0 {
            i.net_truncations.fetch_add(counts.truncations, r);
        }
        if dropped_frames != 0 {
            i.net_decode.fetch_add(dropped_frames, r);
        }
    }

    /// Records `packets` packets of total worth `value` rejected by the
    /// shard's full ingress ring before they reached the shard: they count
    /// as arrivals and as [`crate::DropReason::Backpressure`] drops, as in
    /// the runtime's final counters. Safe to call from any producer thread.
    pub fn record_backpressure(&self, packets: u64, value: u64) {
        let r = Ordering::Relaxed;
        self.ingress.backpressure.fetch_add(packets, r);
        self.ingress.backpressure_value.fetch_add(value, r);
    }

    /// Records `packets` packets of total worth `value` a producer could not
    /// deliver because the shard was gone (its ring closed): they count as
    /// arrivals and as [`crate::DropReason::ShardFailure`] drops, as in the
    /// runtime's final counters. Safe to call from any producer thread.
    pub fn record_lost(&self, packets: u64, value: u64) {
        let r = Ordering::Relaxed;
        self.ingress.lost.fetch_add(packets, r);
        self.ingress.lost_value.fetch_add(value, r);
    }

    /// Reads just the net ingress tallies with relaxed loads; cheap enough
    /// for the supervisor to call while assembling a flight dump.
    pub fn net_counts(&self) -> NetCounts {
        let r = Ordering::Relaxed;
        let i = &self.ingress;
        NetCounts {
            datagrams: i.net_datagrams.load(r),
            frames: i.net_frames.load(r),
            decode_errors: i.net_decode_errors.load(r),
            truncations: i.net_truncations.load(r),
        }
    }

    /// Reads the shard block through its seqlock, then adds the ingress
    /// tallies (see the module docs for the consistency contract).
    pub fn snapshot(&self) -> StatSnapshot {
        let mut s = self.shard.read();
        let r = Ordering::Relaxed;
        let i = &self.ingress;
        s.dropped_backpressure = i.backpressure.load(r);
        let lost = i.lost.load(r);
        s.dropped_shard_failure += lost;
        s.dropped_net_decode = i.net_decode.load(r);
        s.arrived += s.dropped_backpressure + lost + s.dropped_net_decode;
        s.arrived_value += i.backpressure_value.load(r) + i.lost_value.load(r);
        s.net = self.net_counts();
        s
    }
}

/// A point-in-time copy of one [`StatCell`] (or, via
/// [`StatSnapshot::merge`], of several).
#[derive(Debug, Clone, Default)]
pub struct StatSnapshot {
    /// Packets offered to the datapath: to admission control, or rejected
    /// upstream of it (backpressure, shard failure, net decode).
    pub arrived: u64,
    /// Total intrinsic value offered.
    pub arrived_value: u64,
    /// Packets admitted to the buffer.
    pub admitted: u64,
    /// Packets rejected because the shared buffer was full.
    pub dropped_buffer_full: u64,
    /// Packets rejected by policy decision.
    pub dropped_policy: u64,
    /// Packets rejected upstream by full ingress rings.
    pub dropped_backpressure: u64,
    /// Packets lost to shard deaths: popped by an incarnation that died
    /// mid-slot, left in an abandoned shard's rings, or sent into its
    /// closed rings.
    pub dropped_shard_failure: u64,
    /// Frames lost to network decoding (truncation or failed validation).
    pub dropped_net_decode: u64,
    /// Socket-level receive tallies of the net ingress feeding this shard
    /// (all zero when the datapath runs without a network plane).
    pub net: NetCounts,
    /// Resident packets evicted to make room, or lost in a dead
    /// incarnation's buffer.
    pub pushed_out: u64,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Total value transmitted.
    pub transmitted_value: u64,
    /// Packets discarded by periodic flushes.
    pub flushed: u64,
    /// Slots completed (including drain slots).
    pub slots: u64,
    /// Supervised shard restarts.
    pub restarts: u64,
    /// Shard incarnation deaths.
    pub panics: u64,
    /// Shards abandoned after exhausting the restart budget.
    pub failures: u64,
    /// Buffer occupancy at the last completed slot (gauge; summed across
    /// shards by [`StatSnapshot::merge`]).
    pub occupancy: u64,
    /// Deepest per-port queue at the last completed slot (gauge; max across
    /// shards).
    pub queue_depth: u64,
    /// High-watermark of [`StatSnapshot::queue_depth`] over the run.
    pub queue_hwm: u64,
    /// Configured shared buffer limit B (gauge; summed across shards).
    pub buffer_limit: u64,
    /// Configured port count n (gauge; summed across shards).
    pub ports: u64,
    /// Buffer sojourn of transmitted packets, in slots.
    pub latency: LogHistogram,
}

impl StatSnapshot {
    /// Packets dropped for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_buffer_full
            + self.dropped_policy
            + self.dropped_backpressure
            + self.dropped_shard_failure
            + self.dropped_net_decode
    }

    /// Accumulates `other` into `self`: counters add, capacity gauges add
    /// (aggregate buffer/ports across shards), depth gauges take the max,
    /// histograms merge.
    pub fn merge(&mut self, other: &StatSnapshot) {
        self.arrived += other.arrived;
        self.arrived_value += other.arrived_value;
        self.admitted += other.admitted;
        self.dropped_buffer_full += other.dropped_buffer_full;
        self.dropped_policy += other.dropped_policy;
        self.dropped_backpressure += other.dropped_backpressure;
        self.dropped_shard_failure += other.dropped_shard_failure;
        self.dropped_net_decode += other.dropped_net_decode;
        self.net.merge(&other.net);
        self.pushed_out += other.pushed_out;
        self.transmitted += other.transmitted;
        self.transmitted_value += other.transmitted_value;
        self.flushed += other.flushed;
        self.slots += other.slots;
        self.restarts += other.restarts;
        self.panics += other.panics;
        self.failures += other.failures;
        self.occupancy += other.occupancy;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
        self.buffer_limit += other.buffer_limit;
        self.ports += other.ports;
        self.latency.merge(&other.latency);
    }

    /// Renders the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"arrived\":{},\"arrived_value\":{},\"admitted\":{},\
             \"dropped\":{{\"buffer_full\":{},\"policy\":{},\"backpressure\":{},\"shard_failure\":{},\"net_decode\":{}}},\
             \"net\":{},\
             \"pushed_out\":{},\"transmitted\":{},\"transmitted_value\":{},\"flushed\":{},\
             \"slots\":{},\"restarts\":{},\"panics\":{},\"failures\":{},\
             \"occupancy\":{},\"queue_depth\":{},\"queue_hwm\":{},\"buffer_limit\":{},\"ports\":{},\
             \"latency\":{}}}",
            self.arrived,
            self.arrived_value,
            self.admitted,
            self.dropped_buffer_full,
            self.dropped_policy,
            self.dropped_backpressure,
            self.dropped_shard_failure,
            self.dropped_net_decode,
            self.net.to_json(),
            self.pushed_out,
            self.transmitted,
            self.transmitted_value,
            self.flushed,
            self.slots,
            self.restarts,
            self.panics,
            self.failures,
            self.occupancy,
            self.queue_depth,
            self.queue_hwm,
            self.buffer_limit,
            self.ports,
            self.latency.to_json(),
        )
    }
}

/// The [`Observer`] feeding a shard's [`StatCell`]: the cell's only writer.
///
/// The packet counts it publishes are the switch's own `Counters`, handed
/// over once per slot through [`Observer::slot_counters`] and rebased by the
/// supervisor after every shard death ([`Observer::counters_rebased`]); it
/// counts nothing `Counters` already holds. It keeps only the buffer-full
/// drop and flush tallies, the cumulative latency histogram and the gauges,
/// and publishes them in the same seqlock write section.
///
/// What the cell holds is what the last completed slot committed: when a
/// slot dies half-way, the rebase reloads the observer's tallies from the
/// cell, voiding the dead slot's share (the supervisor books its packets as
/// shard failures instead).
#[derive(Debug)]
pub struct TelemetryObserver {
    cell: Arc<StatCell>,
    /// Corrected counters of the shard's finished incarnations; the live
    /// incarnation's counters add on top.
    base: Counters,
    dropped_buffer_full: u64,
    flushed: u64,
    latency: LogHistogram,
    slots: u64,
    occupancy: u64,
    queue_depth: u64,
    queue_hwm: u64,
    panics: u64,
    restarts: u64,
    failures: u64,
    /// Histogram buckets recorded into since the last publish.
    touched: u128,
}

impl TelemetryObserver {
    /// Creates an observer writing into `cell`, which must have no other
    /// observer.
    pub fn new(cell: Arc<StatCell>) -> Self {
        TelemetryObserver {
            cell,
            base: Counters::new(),
            dropped_buffer_full: 0,
            flushed: 0,
            latency: LogHistogram::new(),
            slots: 0,
            occupancy: 0,
            queue_depth: 0,
            queue_hwm: 0,
            panics: 0,
            restarts: 0,
            failures: 0,
            touched: 0,
        }
    }

    /// Runs `stores` as one seqlock write section on the shard block: the
    /// epoch goes odd, the stores land, the epoch goes even with release
    /// ordering. Every store in it is a plain relaxed one.
    fn write(&self, stores: impl FnOnce(&ShardBlock)) {
        let b = &self.cell.shard;
        // The observer is the block's only writer: the epoch it loads is
        // its own last store.
        let epoch = b.epoch.load(Ordering::Relaxed);
        b.epoch.store(epoch + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        stores(b);
        b.epoch.store(epoch + 2, Ordering::Release);
    }

    /// Publishes `base + live` as the shard's counters, with the tallies,
    /// gauges and histogram that go with them. Of the histogram buckets
    /// only the touched ones are stored; the others have not moved since
    /// the last publish.
    fn publish(&mut self, live: &Counters) {
        let touched = std::mem::take(&mut self.touched);
        let base = &self.base;
        let total = |f: fn(&Counters) -> u64| f(base) + f(live);
        self.write(|b| {
            let r = Ordering::Relaxed;
            b.arrived.store(total(Counters::arrived), r);
            b.arrived_value.store(total(Counters::arrived_value), r);
            b.admitted.store(total(Counters::admitted), r);
            b.dropped_buffer_full.store(self.dropped_buffer_full, r);
            b.dropped_policy.store(
                total(Counters::dropped_at_switch).saturating_sub(self.dropped_buffer_full),
                r,
            );
            b.dropped_shard_failure
                .store(total(Counters::dropped_shard_failure), r);
            b.pushed_out
                .store(total(Counters::pushed_out).saturating_sub(self.flushed), r);
            b.flushed.store(self.flushed, r);
            b.transmitted.store(total(Counters::transmitted), r);
            b.transmitted_value
                .store(total(Counters::transmitted_value), r);
            b.slots.store(self.slots, r);
            b.occupancy.store(self.occupancy, r);
            b.queue_depth.store(self.queue_depth, r);
            b.queue_hwm.store(self.queue_hwm, r);
            let counts = self.latency.bucket_counts();
            let mut bits = touched;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                b.latency.0[i].store(counts[i], r);
                bits &= bits - 1;
            }
            b.latency_count.store(self.latency.count(), r);
            b.latency_sum.store(self.latency.sum(), r);
            b.latency_min.store(self.latency.min(), r);
            b.latency_max.store(self.latency.max(), r);
        });
    }
}

impl Observer for TelemetryObserver {
    fn dropped(&mut self, _slot: u64, _port: PortId, reason: DropReason) {
        if reason == DropReason::BufferFull {
            self.dropped_buffer_full += 1;
        }
    }

    fn transmitted(&mut self, _slot: u64, _port: PortId, latency: u64, _value: u64) {
        self.latency.record(latency);
        self.touched |= 1 << LogHistogram::bucket(latency);
    }

    fn flush(&mut self, _slot: u64, discarded: u64) {
        self.flushed += discarded;
    }

    fn slot_end(&mut self, _slot: u64, occupancy: usize) {
        self.slots += 1;
        self.occupancy = occupancy as u64;
    }

    fn queue_depth(&mut self, _slot: u64, depth: u64) {
        self.queue_depth = depth;
        self.queue_hwm = self.queue_hwm.max(depth);
    }

    fn slot_counters(&mut self, _slot: u64, counters: &Counters) {
        self.publish(counters);
    }

    fn counters_rebased(&mut self, totals: &Counters) {
        self.base = *totals;
        // Void what an unfinished slot tallied: back to the last publish.
        // The observer wrote the cell itself, so its relaxed loads return
        // exactly its own last stores.
        let committed = self.cell.shard.read_relaxed();
        self.dropped_buffer_full = committed.dropped_buffer_full;
        self.flushed = committed.flushed;
        self.latency = committed.latency;
        self.touched = 0;
        // The corrected books balance, so what they leave admitted but
        // neither transmitted nor evicted is resident: nothing after a
        // death (its buffer was booked as evicted), the final buffer at
        // the end of a run without a final drain.
        self.occupancy = totals
            .admitted()
            .saturating_sub(totals.transmitted())
            .saturating_sub(totals.pushed_out());
        self.publish(&Counters::new());
    }

    fn shard_started(&mut self, buffer_limit: usize, ports: usize) {
        self.write(|b| {
            b.buffer_limit.store(buffer_limit as u64, Ordering::Relaxed);
            b.ports.store(ports as u64, Ordering::Relaxed);
        });
    }

    fn shard_panicked(&mut self, _slot: u64, _orphans: u64) {
        self.panics += 1;
        self.write(|b| b.panics.store(self.panics, Ordering::Relaxed));
    }

    fn shard_restarted(&mut self, _slot: u64, _attempt: u64) {
        self.restarts += 1;
        self.write(|b| b.restarts.store(self.restarts, Ordering::Relaxed));
    }

    fn shard_failed(&mut self, _slot: u64, _orphans: u64) {
        self.failures += 1;
        self.write(|b| b.failures.store(self.failures, Ordering::Relaxed));
    }
}

/// Configuration of the telemetry plane.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampling cadence (clamped to at least 1 ms).
    pub interval: Duration,
    /// Samples kept in the in-memory time-series ring (oldest evicted).
    pub ring_capacity: usize,
    /// Append one JSONL line per sample to this file.
    pub stats_out: Option<PathBuf>,
    /// Rewrite this file with a Prometheus text-format dump each sample
    /// (write-to-temp + rename, so scrapers never see a torn file).
    pub prom_out: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: Duration::from_millis(250),
            ring_capacity: 1024,
            stats_out: None,
            prom_out: None,
        }
    }
}

/// Instantaneous rates between consecutive samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleRates {
    /// Packets offered per second since the previous sample.
    pub arrived_per_sec: f64,
    /// Packets transmitted per second since the previous sample.
    pub transmitted_per_sec: f64,
    /// Packets dropped (any reason) per second since the previous sample.
    pub dropped_per_sec: f64,
}

/// One entry of the sampler's time-series: cumulative per-shard snapshots,
/// their aggregate, and rates against the previous sample.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// 0-based sample counter.
    pub seq: u64,
    /// Time since the sampler started.
    pub elapsed: Duration,
    /// Aggregate of all shards (see [`StatSnapshot::merge`]).
    pub total: StatSnapshot,
    /// Per-shard snapshots, indexed by shard id.
    pub shards: Vec<StatSnapshot>,
    /// Deltas against the previous sample, per second.
    pub rates: SampleRates,
}

impl TelemetrySample {
    /// Renders the sample as one JSONL line.
    pub fn to_json(&self) -> String {
        let mut shards = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                shards.push(',');
            }
            shards.push_str(&s.to_json());
        }
        format!(
            "{{\"type\":\"telemetry\",\"seq\":{},\"elapsed_ms\":{:.3},\
             \"rates\":{{\"arrived_per_sec\":{:.1},\"transmitted_per_sec\":{:.1},\"dropped_per_sec\":{:.1}}},\
             \"total\":{},\"shards\":[{}]}}",
            self.seq,
            self.elapsed.as_secs_f64() * 1e3,
            self.rates.arrived_per_sec,
            self.rates.transmitted_per_sec,
            self.rates.dropped_per_sec,
            self.total.to_json(),
            shards,
        )
    }

    /// Renders the sample in the Prometheus text exposition format
    /// (per-shard series only; aggregation is the scraper's job).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048 + 512 * self.shards.len());
        out.push_str("# HELP smbm_packets_total Packets by lifecycle stage.\n");
        out.push_str("# TYPE smbm_packets_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for (stage, v) in [
                ("arrived", s.arrived),
                ("admitted", s.admitted),
                ("pushed_out", s.pushed_out),
                ("transmitted", s.transmitted),
                ("flushed", s.flushed),
            ] {
                out.push_str(&format!(
                    "smbm_packets_total{{shard=\"{i}\",stage=\"{stage}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# HELP smbm_drops_total Dropped packets by reason.\n");
        out.push_str("# TYPE smbm_drops_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for (reason, v) in [
                ("buffer_full", s.dropped_buffer_full),
                ("policy", s.dropped_policy),
                ("backpressure", s.dropped_backpressure),
                ("shard_failure", s.dropped_shard_failure),
                ("net_decode", s.dropped_net_decode),
            ] {
                out.push_str(&format!(
                    "smbm_drops_total{{shard=\"{i}\",reason=\"{reason}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# HELP smbm_net_total Network ingress activity by kind.\n");
        out.push_str("# TYPE smbm_net_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for (kind, v) in [
                ("datagrams", s.net.datagrams),
                ("frames", s.net.frames),
                ("decode_errors", s.net.decode_errors),
                ("truncations", s.net.truncations),
            ] {
                out.push_str(&format!(
                    "smbm_net_total{{shard=\"{i}\",kind=\"{kind}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# HELP smbm_value_total Intrinsic value by lifecycle stage.\n");
        out.push_str("# TYPE smbm_value_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "smbm_value_total{{shard=\"{i}\",stage=\"arrived\"}} {}\n",
                s.arrived_value
            ));
            out.push_str(&format!(
                "smbm_value_total{{shard=\"{i}\",stage=\"transmitted\"}} {}\n",
                s.transmitted_value
            ));
        }
        out.push_str("# HELP smbm_slots_total Slots completed (including drain slots).\n");
        out.push_str("# TYPE smbm_slots_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!("smbm_slots_total{{shard=\"{i}\"}} {}\n", s.slots));
        }
        out.push_str("# HELP smbm_shard_events_total Supervision events per shard.\n");
        out.push_str("# TYPE smbm_shard_events_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            for (event, v) in [
                ("panic", s.panics),
                ("restart", s.restarts),
                ("gave_up", s.failures),
            ] {
                out.push_str(&format!(
                    "smbm_shard_events_total{{shard=\"{i}\",event=\"{event}\"}} {v}\n"
                ));
            }
        }
        for (name, help, get) in [
            (
                "smbm_buffer_occupancy",
                "Packets resident in the shared buffer.",
                (|s: &StatSnapshot| s.occupancy) as fn(&StatSnapshot) -> u64,
            ),
            (
                "smbm_buffer_limit",
                "Configured shared buffer limit B.",
                |s: &StatSnapshot| s.buffer_limit,
            ),
            (
                "smbm_queue_depth",
                "Deepest per-port queue at the last slot end.",
                |s: &StatSnapshot| s.queue_depth,
            ),
            (
                "smbm_queue_depth_hwm",
                "High-watermark of the deepest per-port queue.",
                |s: &StatSnapshot| s.queue_hwm,
            ),
            (
                "smbm_ports",
                "Configured output port count n.",
                |s: &StatSnapshot| s.ports,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for (i, s) in self.shards.iter().enumerate() {
                out.push_str(&format!("{name}{{shard=\"{i}\"}} {}\n", get(s)));
            }
        }
        out.push_str(
            "# HELP smbm_latency_slots Buffer sojourn of transmitted packets, in slots.\n",
        );
        out.push_str("# TYPE smbm_latency_slots summary\n");
        for (i, s) in self.shards.iter().enumerate() {
            let h = &s.latency;
            for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                out.push_str(&format!(
                    "smbm_latency_slots{{shard=\"{i}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!(
                "smbm_latency_slots_sum{{shard=\"{i}\"}} {}\n",
                h.sum()
            ));
            out.push_str(&format!(
                "smbm_latency_slots_count{{shard=\"{i}\"}} {}\n",
                h.count()
            ));
        }
        out
    }
}

/// What the sampler hands back when stopped: the retained time-series tail
/// plus bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Retained samples, oldest first (at most the configured ring
    /// capacity; earlier samples were evicted but still reached the sinks).
    pub samples: Vec<TelemetrySample>,
    /// Samples ever taken (>= `samples.len()`).
    pub ticks: u64,
    /// Sink I/O errors encountered (deduplicated to the first few).
    pub errors: Vec<String>,
}

impl TelemetryReport {
    /// The final (exact, post-join) sample.
    pub fn last(&self) -> Option<&TelemetrySample> {
        self.samples.last()
    }
}

/// The background sampling thread. Spawn it with the shards' cells before
/// the run, stop it after the shard threads are joined: the final sample is
/// then exact thanks to join's happens-before edge.
#[derive(Debug)]
pub struct TelemetrySampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<TelemetryReport>,
}

impl TelemetrySampler {
    /// Opens the configured sinks (failing fast on bad paths) and spawns
    /// the sampler thread. An immediate first sample is taken, one per
    /// interval after that, and a final one at [`TelemetrySampler::stop`] —
    /// so every run yields at least two samples.
    ///
    /// # Errors
    ///
    /// Propagates sink-creation or thread-spawn failures.
    pub fn spawn(cells: Vec<Arc<StatCell>>, config: TelemetryConfig) -> io::Result<Self> {
        let stats = config
            .stats_out
            .as_ref()
            .map(JsonlWriter::create)
            .transpose()?;
        if let Some(p) = &config.prom_out {
            // Fail fast on an unwritable path instead of erroring per tick.
            File::create(p)?;
        }
        let prom_out = config.prom_out.clone();
        let interval = config.interval.max(Duration::from_millis(1));
        let capacity = config.ring_capacity.max(1);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("smbm-telemetry".into())
            .spawn(move || sampler_loop(cells, interval, capacity, stats, prom_out, thread_stop))?;
        Ok(TelemetrySampler { stop, handle })
    }

    /// Signals the thread, waits for its final sample, and returns the
    /// collected time-series.
    pub fn stop(self) -> TelemetryReport {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("telemetry stop flag poisoned") = true;
        cvar.notify_all();
        self.handle.join().unwrap_or_else(|_| TelemetryReport {
            errors: vec!["telemetry sampler thread panicked".to_string()],
            ..TelemetryReport::default()
        })
    }
}

struct SamplerState {
    ring: VecDeque<TelemetrySample>,
    capacity: usize,
    seq: u64,
    prev: Option<(Duration, StatSnapshot)>,
    stats: Option<JsonlWriter>,
    prom_out: Option<PathBuf>,
    errors: Vec<String>,
}

impl SamplerState {
    fn record_error(&mut self, what: &str, e: &io::Error) {
        if self.errors.len() < 8 {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn tick(&mut self, cells: &[Arc<StatCell>], elapsed: Duration) {
        let shards: Vec<StatSnapshot> = cells.iter().map(|c| c.snapshot()).collect();
        let mut total = StatSnapshot::default();
        for s in &shards {
            total.merge(s);
        }
        let rates = match &self.prev {
            Some((t0, prev)) => {
                let dt = elapsed.saturating_sub(*t0).as_secs_f64();
                if dt > 0.0 {
                    SampleRates {
                        arrived_per_sec: total.arrived.saturating_sub(prev.arrived) as f64 / dt,
                        transmitted_per_sec: total.transmitted.saturating_sub(prev.transmitted)
                            as f64
                            / dt,
                        dropped_per_sec: total.dropped_total().saturating_sub(prev.dropped_total())
                            as f64
                            / dt,
                    }
                } else {
                    SampleRates::default()
                }
            }
            None => SampleRates::default(),
        };
        let sample = TelemetrySample {
            seq: self.seq,
            elapsed,
            total: total.clone(),
            shards,
            rates,
        };
        self.seq += 1;
        if let Some(w) = &mut self.stats {
            if let Err(e) = w.write_line(&sample.to_json()) {
                self.record_error("stats sink", &e);
            }
        }
        if let Some(p) = &self.prom_out {
            if let Err(e) = write_atomic(p, &sample.to_prometheus()) {
                self.record_error("prometheus sink", &e);
            }
        }
        self.prev = Some((elapsed, total));
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(sample);
    }

    fn finish(mut self) -> TelemetryReport {
        if let Some(w) = &mut self.stats {
            if let Err(e) = w.flush() {
                self.record_error("stats sink flush", &e);
            }
        }
        TelemetryReport {
            samples: self.ring.into_iter().collect(),
            ticks: self.seq,
            errors: self.errors,
        }
    }
}

fn sampler_loop(
    cells: Vec<Arc<StatCell>>,
    interval: Duration,
    capacity: usize,
    stats: Option<JsonlWriter>,
    prom_out: Option<PathBuf>,
    stop: Arc<(Mutex<bool>, Condvar)>,
) -> TelemetryReport {
    let started = Instant::now();
    let mut state = SamplerState {
        ring: VecDeque::with_capacity(capacity.min(1 << 12)),
        capacity,
        seq: 0,
        prev: None,
        stats,
        prom_out,
        errors: Vec::new(),
    };
    state.tick(&cells, started.elapsed());
    loop {
        let (lock, cvar) = &*stop;
        let mut stopped = lock.lock().expect("telemetry stop flag poisoned");
        let mut timed_out = false;
        while !*stopped && !timed_out {
            let (guard, timeout) = cvar
                .wait_timeout(stopped, interval)
                .expect("telemetry stop flag poisoned");
            stopped = guard;
            timed_out = timeout.timed_out();
        }
        let done = *stopped;
        drop(stopped);
        if done {
            break;
        }
        state.tick(&cells, started.elapsed());
    }
    // Final sample: the runtime stops the sampler only after joining the
    // shard threads, so this one observes every counter's final value.
    state.tick(&cells, started.elapsed());
    state.finish()
}

/// Writes `text` to a sibling temp file, then renames it over `path`, so a
/// concurrent reader never observes a partially-written dump.
fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp_name = OsString::from(path.as_os_str());
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "smbm-obs-telemetry-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn observer_publishes_the_slot_counters() {
        let cell = Arc::new(StatCell::new());
        let mut obs = TelemetryObserver::new(Arc::clone(&cell));
        obs.shard_started(64, 8);
        let mut c = Counters::new();
        c.record_arrival(5);
        c.record_admission(5);
        c.record_arrival(3);
        c.record_drop(3);
        c.record_transmission(5, 4);
        obs.dropped(0, PortId::new(2), DropReason::BufferFull);
        obs.transmitted(0, PortId::new(1), 4, 5);
        obs.slot_end(0, 0);
        obs.queue_depth(0, 3);
        // Nothing counted is published until the slot's counters arrive.
        assert_eq!(cell.snapshot().arrived, 0);
        assert_eq!(cell.snapshot().buffer_limit, 64);
        obs.slot_counters(0, &c);
        let s = cell.snapshot();
        assert_eq!(s.arrived, 2);
        assert_eq!(s.arrived_value, 8);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.dropped_buffer_full, 1);
        assert_eq!(s.dropped_policy, 0);
        assert_eq!(s.transmitted, 1);
        assert_eq!(s.transmitted_value, 5);
        assert_eq!(s.slots, 1);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.queue_hwm, 3);
        assert_eq!(s.buffer_limit, 64);
        assert_eq!(s.ports, 8);
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.latency.max(), 4);
        // The high-watermark survives a lower gauge value.
        obs.slot_end(1, 0);
        obs.queue_depth(1, 1);
        obs.slot_counters(1, &c);
        let s = cell.snapshot();
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_hwm, 3);
        assert_eq!(s.latency.count(), 1, "no transmissions in slot 1");
    }

    #[test]
    fn flushes_split_out_of_push_outs() {
        let cell = Arc::new(StatCell::new());
        let mut obs = TelemetryObserver::new(Arc::clone(&cell));
        let mut c = Counters::new();
        for _ in 0..4 {
            c.record_arrival(1);
            c.record_admission(1);
        }
        c.record_push_out(1);
        c.record_flush(2, 2);
        obs.flush(0, 2);
        obs.slot_end(0, 1);
        obs.slot_counters(0, &c);
        let s = cell.snapshot();
        assert_eq!(s.pushed_out, 1);
        assert_eq!(s.flushed, 2);
        assert_eq!(
            s.admitted,
            s.transmitted + s.pushed_out + s.flushed + s.occupancy
        );
    }

    #[test]
    fn a_rebase_voids_the_unfinished_slot_and_counts_on_from_the_totals() {
        let cell = Arc::new(StatCell::new());
        let mut obs = TelemetryObserver::new(Arc::clone(&cell));
        let mut c = Counters::new();
        c.record_arrival(1);
        c.record_admission(1);
        obs.slot_end(0, 1);
        obs.slot_counters(0, &c);
        // Slot 1 dies half-way: its tallies never reach the cell.
        obs.dropped(1, PortId::new(0), DropReason::BufferFull);
        obs.transmitted(1, PortId::new(0), 7, 1);
        obs.shard_panicked(1, 4);
        // The supervisor books the resident packet as evicted and the
        // unfinished slot's two arrivals as shard failures.
        let mut totals = c;
        totals.record_flush(1, 1);
        totals.record_shard_failure_bulk(2, 2);
        obs.counters_rebased(&totals);
        obs.shard_restarted(1, 1);
        let s = cell.snapshot();
        assert_eq!(s.arrived, 3);
        assert_eq!(s.dropped_shard_failure, 2);
        assert_eq!(s.dropped_buffer_full, 0, "the dead slot's drop is void");
        assert_eq!(s.latency.count(), 0, "the dead slot's transmission is void");
        assert_eq!(s.pushed_out, 1);
        assert_eq!(s.occupancy, 0);
        assert_eq!(s.panics, 1);
        assert_eq!(s.restarts, 1);
        // The replacement counts from zero on top of the totals.
        let mut live = Counters::new();
        live.record_arrival(1);
        live.record_admission(1);
        live.record_transmission(1, 0);
        obs.transmitted(2, PortId::new(0), 0, 1);
        obs.slot_end(2, 0);
        obs.slot_counters(2, &live);
        obs.shard_failed(3, 0);
        let s = cell.snapshot();
        assert_eq!(s.arrived, 4);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.transmitted, 1);
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.slots, 2);
        assert_eq!(s.failures, 1);
    }
    #[test]
    fn record_net_is_multi_writer_and_snapshots() {
        let cell = Arc::new(StatCell::new());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.record_net(
                            NetCounts {
                                datagrams: 1,
                                frames: 8,
                                decode_errors: 2,
                                truncations: 1,
                            },
                            2,
                        );
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let s = cell.snapshot();
        assert_eq!(s.net.datagrams, 4_000);
        assert_eq!(s.net.frames, 32_000);
        assert_eq!(s.net.decode_errors, 8_000);
        assert_eq!(s.net.truncations, 4_000);
        assert_eq!(s.dropped_net_decode, 8_000);
        assert_eq!(s.dropped_total(), 8_000);
        assert_eq!(cell.net_counts(), s.net);
        assert!(s.to_json().contains("\"net\":{\"datagrams\":4000"));
        assert!(s.to_json().contains("\"net_decode\":8000"));
    }

    #[test]
    fn producer_tallies_are_multi_writer_and_count_arrivals() {
        let cell = Arc::new(StatCell::new());
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.record_backpressure(3, 7);
                        c.record_lost(1, 2);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let s = cell.snapshot();
        assert_eq!(s.arrived, 16_000);
        assert_eq!(s.arrived_value, 36_000);
        assert_eq!(s.dropped_backpressure, 12_000);
        assert_eq!(s.dropped_shard_failure, 4_000);
        assert_eq!(s.dropped_total(), 16_000);
        assert_eq!(s.admitted, 0);
    }

    #[test]
    fn snapshot_merge_aggregates() {
        let mut a = StatSnapshot {
            arrived: 10,
            occupancy: 3,
            queue_hwm: 5,
            buffer_limit: 64,
            ports: 8,
            ..StatSnapshot::default()
        };
        let b = StatSnapshot {
            arrived: 7,
            occupancy: 2,
            queue_hwm: 9,
            buffer_limit: 64,
            ports: 8,
            ..StatSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.arrived, 17);
        assert_eq!(a.occupancy, 5, "occupancy gauge sums across shards");
        assert_eq!(a.queue_hwm, 9, "watermark takes the max");
        assert_eq!(a.buffer_limit, 128, "aggregate capacity sums");
        assert_eq!(a.ports, 16);
    }

    #[test]
    fn seqlock_snapshot_is_internally_consistent_under_writes() {
        let cell = Arc::new(StatCell::new());
        let writer_cell = Arc::clone(&cell);
        let writer = std::thread::spawn(move || {
            let mut obs = TelemetryObserver::new(writer_cell);
            let mut c = Counters::new();
            for slot in 0..4_000u64 {
                for k in 0..16u64 {
                    let port = PortId::new((k % 4) as usize);
                    let latency = (slot * 7 + k) % 257;
                    c.record_arrival(1);
                    c.record_admission(1);
                    c.record_transmission(1, latency);
                    obs.transmitted(slot, port, latency, 1);
                }
                obs.slot_end(slot, 0);
                obs.slot_counters(slot, &c);
            }
        });
        let mut last_count = 0u64;
        let mut snapshots = 0u64;
        while !writer.is_finished() {
            let s = cell.snapshot();
            let bucket_sum: u64 = s.latency.bucket_counts().iter().sum();
            assert_eq!(
                s.latency.count(),
                bucket_sum,
                "seqlock snapshot tore: count != bucket sum"
            );
            assert!(
                s.latency.count() >= last_count,
                "histogram count went backwards"
            );
            last_count = s.latency.count();
            snapshots += 1;
        }
        writer.join().unwrap();
        assert!(snapshots > 0);
        let s = cell.snapshot();
        assert_eq!(s.latency.count(), 4_000 * 16);
        assert_eq!(s.arrived, 4_000 * 16);
        assert_eq!(s.slots, 4_000);
    }

    #[test]
    fn mid_run_snapshots_conserve_packets() {
        // The writer publishes conserving counters every slot: admissions
        // into a 16-packet buffer, buffer-full drops and push-outs once it
        // is full, a periodic flush, and up to five transmissions a slot.
        // Every snapshot a concurrent reader takes must be one boundary's
        // state, so both conservation laws hold in each of them.
        let cell = Arc::new(StatCell::new());
        let writer_cell = Arc::clone(&cell);
        let writer = std::thread::spawn(move || {
            let mut obs = TelemetryObserver::new(writer_cell);
            let mut c = Counters::new();
            let mut resident = 0u64;
            let port = PortId::new(0);
            for slot in 0..20_000u64 {
                if slot % 97 == 96 {
                    c.record_flush(resident, resident);
                    obs.flush(slot, resident);
                    resident = 0;
                }
                for k in 0..8u64 {
                    c.record_arrival(1);
                    if resident < 16 {
                        c.record_admission(1);
                        resident += 1;
                    } else if k % 2 == 0 {
                        c.record_push_out(1);
                        c.record_admission(1);
                        obs.pushed_out(slot, port);
                    } else {
                        c.record_drop(1);
                        obs.dropped(slot, port, DropReason::BufferFull);
                    }
                }
                for _ in 0..resident.min(5) {
                    c.record_transmission(1, slot % 31);
                    obs.transmitted(slot, port, slot % 31, 1);
                    resident -= 1;
                }
                obs.slot_end(slot, resident as usize);
                obs.slot_counters(slot, &c);
            }
        });
        let mut snapshots = 0u64;
        while !writer.is_finished() {
            let s = cell.snapshot();
            assert_eq!(s.arrived, s.admitted + s.dropped_total(), "{s:?}");
            assert_eq!(
                s.admitted,
                s.transmitted + s.pushed_out + s.flushed + s.occupancy,
                "{s:?}"
            );
            assert_eq!(s.latency.count(), s.transmitted, "{s:?}");
            assert_eq!(s.dropped_policy, 0);
            snapshots += 1;
        }
        writer.join().unwrap();
        assert!(snapshots > 0);
        let s = cell.snapshot();
        assert_eq!(s.arrived, 20_000 * 8);
        assert!(s.flushed > 0 && s.pushed_out > 0 && s.dropped_buffer_full > 0);
        assert_eq!(
            s.admitted,
            s.transmitted + s.pushed_out + s.flushed + s.occupancy
        );
    }

    #[test]
    fn sampler_collects_at_least_first_and_final_samples() {
        let cells: Vec<Arc<StatCell>> = (0..2).map(|_| Arc::new(StatCell::new())).collect();
        let sampler = TelemetrySampler::spawn(
            cells.clone(),
            TelemetryConfig {
                interval: Duration::from_secs(3600),
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
        {
            let mut obs = TelemetryObserver::new(Arc::clone(&cells[1]));
            let mut c = Counters::new();
            c.record_arrival(2);
            c.record_admission(2);
            obs.slot_end(0, 1);
            obs.slot_counters(0, &c);
        }
        let report = sampler.stop();
        assert!(report.ticks >= 2, "initial + final samples guaranteed");
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let last = report.last().unwrap();
        assert_eq!(last.shards.len(), 2);
        assert_eq!(last.total.arrived, 1);
        assert_eq!(last.total.arrived_value, 2);
        assert_eq!(last.shards[1].occupancy, 1);
        assert_eq!(last.shards[0].arrived, 0);
    }

    #[test]
    fn sampler_ring_is_bounded() {
        let cells = vec![Arc::new(StatCell::new())];
        let sampler = TelemetrySampler::spawn(
            cells,
            TelemetryConfig {
                interval: Duration::from_millis(1),
                ring_capacity: 3,
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        let report = sampler.stop();
        assert!(report.ticks > 3);
        assert_eq!(report.samples.len(), 3);
        // The ring keeps the newest tail, ending with the final sample.
        assert_eq!(report.samples.last().unwrap().seq, report.ticks - 1);
        let seqs: Vec<u64> = report.samples.iter().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn sampler_writes_jsonl_and_prometheus_sinks() {
        let stats_path = temp_path("stats.jsonl");
        let prom_path = temp_path("metrics.prom");
        let cells = vec![Arc::new(StatCell::new())];
        let sampler = TelemetrySampler::spawn(
            cells.clone(),
            TelemetryConfig {
                interval: Duration::from_secs(3600),
                stats_out: Some(stats_path.clone()),
                prom_out: Some(prom_path.clone()),
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
        {
            let mut obs = TelemetryObserver::new(Arc::clone(&cells[0]));
            obs.shard_started(32, 4);
            let mut c = Counters::new();
            c.record_arrival(1);
            c.record_admission(1);
            c.record_transmission(1, 2);
            obs.transmitted(0, PortId::new(0), 2, 1);
            obs.slot_end(0, 0);
            obs.slot_counters(0, &c);
        }
        let report = sampler.stop();
        assert!(report.errors.is_empty(), "{:?}", report.errors);

        let stats = std::fs::read_to_string(&stats_path).unwrap();
        let lines: Vec<&str> = stats.lines().collect();
        assert!(lines.len() >= 2, "expected >=2 snapshots, got {lines:?}");
        for line in &lines {
            assert!(line.starts_with("{\"type\":\"telemetry\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(lines.last().unwrap().contains("\"arrived\":1"));

        let prom = std::fs::read_to_string(&prom_path).unwrap();
        for needle in [
            "# TYPE smbm_packets_total counter",
            "smbm_packets_total{shard=\"0\",stage=\"arrived\"} 1",
            "smbm_packets_total{shard=\"0\",stage=\"transmitted\"} 1",
            "# TYPE smbm_buffer_occupancy gauge",
            "smbm_buffer_limit{shard=\"0\"} 32",
            "smbm_ports{shard=\"0\"} 4",
            "# TYPE smbm_latency_slots summary",
            "smbm_latency_slots_count{shard=\"0\"} 1",
        ] {
            assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
        }
        std::fs::remove_file(&stats_path).unwrap();
        std::fs::remove_file(&prom_path).unwrap();
    }

    #[test]
    fn spawn_fails_fast_on_unwritable_sink() {
        let mut bad = std::env::temp_dir();
        bad.push(format!("smbm-obs-no-such-dir-{}", std::process::id()));
        bad.push("stats.jsonl");
        let err = TelemetrySampler::spawn(
            vec![Arc::new(StatCell::new())],
            TelemetryConfig {
                stats_out: Some(bad),
                ..TelemetryConfig::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn sample_json_shape() {
        let sample = TelemetrySample {
            seq: 4,
            elapsed: Duration::from_millis(1500),
            total: StatSnapshot {
                arrived: 3,
                ..StatSnapshot::default()
            },
            shards: vec![StatSnapshot::default(), StatSnapshot::default()],
            rates: SampleRates {
                arrived_per_sec: 10.0,
                transmitted_per_sec: 8.0,
                dropped_per_sec: 0.5,
            },
        };
        let json = sample.to_json();
        assert!(json.starts_with("{\"type\":\"telemetry\",\"seq\":4,\"elapsed_ms\":1500.000"));
        assert!(json.contains("\"arrived_per_sec\":10.0"));
        assert!(json.contains("\"total\":{\"arrived\":3"));
        assert!(json.contains("\"shards\":[{"));
    }
}
