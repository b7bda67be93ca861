//! Criterion gate for the telemetry plane's hot-path overhead: the same
//! datapath run with the stat-cell observer attached versus with no
//! observer at all, in two shapes. The CI telemetry-overhead job parses
//! each shape's two medians and fails the build if telemetry-on regresses
//! throughput by more than 5% in either.
//!
//! * `null/4`, `telemetry/4`: 4 freerun shards fed 256-packet batches,
//!   where a slot carries hundreds of packets and the per-slot publish is
//!   amortized over them;
//! * `null-lockstep/1`, `telemetry-lockstep/1`: 1 lockstep shard fed one
//!   batch per trace slot in the paper's Fig. 5 regime (k = 8, B = 64, 12
//!   MMPP sources, about 6 packets a slot), where the per-slot publish is
//!   paid every few packets.
//!
//! No sampler thread or sinks run here: the gate isolates the cost the
//! shard hot loop pays (plain per-packet locals plus one seqlock publish
//! per slot), which is the only part that scales with traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use smbm_core::{Lwd, WorkRunner};
use smbm_obs::TelemetryConfig;
use smbm_runtime::{RuntimeBuilder, RuntimeConfig, ShardConfig, VirtualClock, WorkService};
use smbm_switch::{WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

const SHARDS: usize = 4;

/// Trace slots of the lockstep shape's one feed.
const LOCKSTEP_SLOTS: usize = 50_000;

/// One feed (a list of batches) per shard.
type Feeds = Vec<Vec<Vec<WorkPacket>>>;

fn freerun_feeds(cfg: &WorkSwitchConfig) -> Feeds {
    (0..SHARDS)
        .map(|s| {
            let scenario = MmppScenario {
                sources: 500,
                slots: 2_000,
                seed: 7 + s as u64,
                ..Default::default()
            };
            scenario
                .work_trace(cfg, &PortMix::Uniform)
                .expect("valid scenario")
                .batches(256)
                .collect()
        })
        .collect()
}

fn lockstep_feeds(cfg: &WorkSwitchConfig) -> Feeds {
    let scenario = MmppScenario {
        sources: 12,
        slots: LOCKSTEP_SLOTS,
        seed: 7,
        ..Default::default()
    };
    vec![scenario
        .work_trace(cfg, &PortMix::Uniform)
        .expect("valid scenario")
        .into_slots()]
}

fn run_datapath(
    cfg: &WorkSwitchConfig,
    feeds: &Feeds,
    shard: &ShardConfig,
    telemetry: Option<TelemetryConfig>,
) -> (u64, u64) {
    let mut builder = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 64,
        shard: shard.clone(),
        telemetry,
        ..RuntimeConfig::default()
    });
    for feed in feeds.iter().cloned() {
        let cfg = cfg.clone();
        let id = builder
            .add_shard(move || WorkService::new(WorkRunner::new(cfg.clone(), Lwd::new(), 1)));
        builder.add_producer(id, move |handle| {
            for batch in feed {
                if !handle.send(batch) {
                    break;
                }
            }
        });
    }
    let report = builder.run(|_| VirtualClock::new());
    (report.score(), report.counters().arrived())
}

/// Benches one shape with and without telemetry, as `{null,telemetry}
/// {suffix}/{shards}`.
fn bench_shape(
    c: &mut Criterion,
    cfg: &WorkSwitchConfig,
    feeds: &Feeds,
    shard: ShardConfig,
    suffix: &str,
) {
    let total: u64 = feeds.iter().flatten().map(|b| b.len() as u64).sum();
    let mut group = c.benchmark_group("telemetry-overhead");
    group.throughput(Throughput::Elements(total));
    group.bench_with_input(
        BenchmarkId::new(format!("null{suffix}"), feeds.len()),
        feeds,
        |b, feeds| {
            b.iter(|| black_box(run_datapath(cfg, feeds, &shard, None)));
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("telemetry{suffix}"), feeds.len()),
        feeds,
        |b, feeds| {
            b.iter(|| {
                black_box(run_datapath(
                    cfg,
                    feeds,
                    &shard,
                    // A quiet sampler: the interval is far beyond the run's
                    // length, so the measurement sees only the hot-path cost.
                    Some(TelemetryConfig {
                        interval: Duration::from_secs(3600),
                        ..TelemetryConfig::default()
                    }),
                ))
            });
        },
    );
    group.finish();
}

fn telemetry_overhead(c: &mut Criterion) {
    let freerun = WorkSwitchConfig::contiguous(64, 512).expect("valid");
    bench_shape(
        c,
        &freerun,
        &freerun_feeds(&freerun),
        ShardConfig::freerun(),
        "",
    );
    let paper = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    bench_shape(
        c,
        &paper,
        &lockstep_feeds(&paper),
        ShardConfig::lockstep(),
        "-lockstep",
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = telemetry_overhead
}
criterion_main!(benches);
