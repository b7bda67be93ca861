//! # smbm-runtime
//!
//! A live sharded datapath serving the buffer-management policies as a real
//! packet service, instead of replaying traces offline.
//!
//! The moving parts, bottom to top:
//!
//! * [`ring`](fn@ring) — bounded lock-free SPSC ingress rings (re-exported
//!   from `smbm-spsc`; this crate itself stays `#![forbid(unsafe_code)]`)
//!   carrying packet batches from producer threads into switch shards, with
//!   explicit backpressure ([`PushError::Full`]) and drain-on-close
//!   shutdown; the original Mutex ring survives as the [`mod@reference`]
//!   oracle for the differential suite;
//! * [`Clock`] — pacing for the shard loop: [`VirtualClock`] runs cycles
//!   back-to-back (deterministic tests, replay, throughput measurement),
//!   [`WallClock`] paces at a fixed cycles-per-second;
//! * [`Service`] — the bundle of switch operations a shard drives: a
//!   re-export of `smbm-core`'s `DatapathSystem`, which every runner
//!   implements directly, with [`WorkService`], [`ValueService`] and
//!   [`CombinedService`] aliasing the owned wrapper [`Served`] over the
//!   corresponding runners;
//! * [`run_shard`] — the ring-fed driver: ingest, clock pacing and fault
//!   polling wrapped around `smbm-datapath`'s `SlotMachine`, which emits
//!   the flush/arrival/transmission/drain phases — literally the same code
//!   the offline engine drives, which is what makes lockstep replay
//!   counter-exact;
//! * [`FaultPlan`] — deterministic, seedable fault injection: panic a
//!   shard at a slot, stall its loop, saturate its ingress, skew a paced
//!   clock — the chaos harness behind `--faults`;
//! * [`RuntimeBuilder`] — spawns shard and producer threads, wires the
//!   rings, joins everything (panic-tolerant), and merges the reports.
//!   Every shard runs under a supervisor that catches panics, restarts the
//!   shard from its service factory within a [`SupervisionConfig`] budget
//!   (bounded exponential backoff), hands the orphaned ring backlog to the
//!   replacement, and accounts every packet so conservation holds across
//!   restarts;
//! * the telemetry plane — [`RuntimeConfig::telemetry`] attaches a
//!   lock-free stat cell + observer to every shard and runs a background
//!   sampler (JSONL / Prometheus sinks); [`RuntimeConfig::flight`] attaches
//!   a crash flight recorder whose event tail the supervisor dumps to a
//!   post-mortem file on every shard death;
//! * [`run_loadgen`] — feeds the datapath from pregenerated MMPP scenario
//!   traffic and reports throughput, the drop breakdown, and ingress
//!   latency percentiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod faults;
mod loadgen;
mod ring;
mod runtime;
mod service;
mod shard;

pub use clock::{AnyClock, Clock, VirtualClock, WallClock};
pub use faults::{Fault, FaultKind, FaultPlan, ShardFaults};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenError, LoadgenReport, Model};
pub use ring::{reference, ring, BulkPop, Consumer, Producer, PushError, TryPop};
pub use runtime::{
    FlightConfig, IngressHandle, ProducerReport, RuntimeBuilder, RuntimeConfig, RuntimeReport,
    SendOutcome, ShardId, SupervisionConfig,
};
pub use service::{CombinedService, Served, Service, ValueService, WorkService};
pub use shard::{run_shard, Batch, IngestMode, ShardConfig, ShardReport};
