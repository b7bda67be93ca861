//! Telemetry-plane acceptance: live snapshots must reconcile exactly with
//! the datapath's final report, and shard deaths must leave a post-mortem.
//!
//! The stat cells publish the switch's own counters, and the supervisor
//! hands its corrected books over after every shard death, so the final
//! sample reconciles exactly with faults injected too.

use std::path::PathBuf;
use std::time::Duration;

use smbm_obs::TelemetryConfig;
use smbm_runtime::{run_loadgen, FaultPlan, FlightConfig, LoadgenConfig, Model};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smbm-telemetry-{}-{name}", std::process::id()));
    p
}

fn loadgen_config(shards: usize) -> LoadgenConfig {
    LoadgenConfig {
        model: Model::Work,
        policy: "LWD".to_owned(),
        ports: 4,
        buffer: 32,
        shards,
        slots: 2_000,
        sources: 20,
        batch: 64,
        ..LoadgenConfig::default()
    }
}

#[test]
fn four_shard_snapshots_reconcile_with_the_final_report() {
    let stats = temp_path("stats.jsonl");
    let prom = temp_path("prom.txt");
    let mut cfg = loadgen_config(4);
    cfg.telemetry = Some(TelemetryConfig {
        interval: Duration::from_millis(5),
        stats_out: Some(stats.clone()),
        prom_out: Some(prom.clone()),
        ..TelemetryConfig::default()
    });
    let report = run_loadgen(&cfg).unwrap();
    assert!(
        report.runtime.obs_errors.is_empty(),
        "{:?}",
        report.runtime.obs_errors
    );

    let c = report.counters();
    assert!(c.check_conservation(0).is_ok());
    assert!(c.check_value_conservation(0).is_ok());

    let telemetry = report.runtime.telemetry.as_ref().expect("telemetry ran");
    assert!(telemetry.ticks >= 2, "initial + final sample at minimum");
    assert_eq!(telemetry.samples.len() as u64, telemetry.ticks);

    // Per-field monotonicity across the retained time series: cumulative
    // counters never step backwards between samples.
    for pair in telemetry.samples.windows(2) {
        assert!(pair[1].total.arrived >= pair[0].total.arrived);
        assert!(pair[1].total.transmitted >= pair[0].total.transmitted);
        assert!(pair[1].total.slots >= pair[0].total.slots);
    }

    // The final sample is taken after every shard thread has joined, so it
    // must reconcile *exactly* with the report's switch counters — packet
    // and value conservation between the two accounting systems.
    let last = telemetry.last().expect("final sample");
    assert_eq!(last.shards.len(), 4);
    assert_eq!(last.total.arrived, c.arrived());
    assert_eq!(last.total.arrived_value, c.arrived_value());
    assert_eq!(last.total.admitted, c.admitted());
    assert_eq!(last.total.transmitted, c.transmitted());
    assert_eq!(last.total.transmitted_value, c.transmitted_value());
    assert_eq!(last.total.pushed_out, c.pushed_out());
    assert_eq!(
        last.total.dropped_buffer_full + last.total.dropped_policy,
        c.dropped_at_switch()
    );
    assert_eq!(last.total.latency.count(), c.transmitted());
    assert_eq!(last.total.buffer_limit, 4 * 32, "4 shards x B=32");
    assert_eq!(last.total.ports, 4 * 4);

    // The JSONL sink carries the same series: >= 2 periodic snapshots, and
    // the last one holds the exact final totals.
    let jsonl = std::fs::read_to_string(&stats).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 2, "expected >= 2 snapshots, got {lines:?}");
    for line in &lines {
        assert!(line.starts_with("{\"type\":\"telemetry\""), "{line}");
    }
    let final_line = lines.last().unwrap();
    assert!(
        final_line.contains(&format!("\"arrived\":{}", c.arrived())),
        "final snapshot must carry the exact cumulative arrival count"
    );
    assert!(final_line.contains(&format!("\"transmitted\":{}", c.transmitted())));

    // The Prometheus dump names every shard.
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("# TYPE smbm_packets_total counter"), "{text}");
    for shard in 0..4 {
        assert!(
            text.contains(&format!(
                "smbm_packets_total{{shard=\"{shard}\",stage=\"arrived\"}}"
            )),
            "{text}"
        );
    }
    assert!(text.contains("smbm_latency_slots{shard=\"0\",quantile=\"0.99\"}"));
    assert!(text.contains("# TYPE smbm_buffer_occupancy gauge"));

    let _ = std::fs::remove_file(stats);
    let _ = std::fs::remove_file(prom);
}

#[test]
fn lossy_ring_backpressure_reaches_the_final_sample() {
    // Depth-2 rings under lossy sends: full rings reject batches before
    // they reach a shard, and the live stat cells must still carry those
    // rejections exactly as the final report folds them in.
    let mut cfg = loadgen_config(2);
    cfg.ring_capacity = 2;
    cfg.lossy = true;
    cfg.telemetry = Some(TelemetryConfig {
        interval: Duration::from_millis(5),
        ..TelemetryConfig::default()
    });
    let report = run_loadgen(&cfg).unwrap();
    let c = report.counters();
    assert!(c.dropped_backpressure() > 0, "the rings pushed back");
    assert!(c.check_conservation(0).is_ok());
    assert!(c.check_value_conservation(0).is_ok());

    let telemetry = report.runtime.telemetry.as_ref().expect("telemetry ran");
    let last = telemetry.last().expect("final sample");
    assert_eq!(last.total.arrived, c.arrived());
    assert_eq!(last.total.arrived_value, c.arrived_value());
    assert_eq!(last.total.dropped_backpressure, c.dropped_backpressure());
    assert_eq!(last.total.admitted, c.admitted());
    assert_eq!(
        last.total.dropped_buffer_full + last.total.dropped_policy,
        c.dropped_at_switch()
    );
}

#[test]
fn chaos_panic_leaves_a_flight_dump_naming_the_dead_shard() {
    let flight = temp_path("flight.jsonl");
    let mut cfg = loadgen_config(2);
    cfg.faults = FaultPlan::parse("panic@3#1").unwrap();
    cfg.flight = Some(FlightConfig::new(&flight));
    let report = run_loadgen(&cfg).unwrap();

    assert_eq!(report.runtime.shard_panics, 1);
    assert_eq!(report.runtime.flight_dumps(), 1);
    assert_eq!(report.runtime.shards[1].flight_dumps, 1);
    assert_eq!(report.runtime.shards[0].flight_dumps, 0);
    assert!(report.counters().check_conservation(0).is_ok());

    let dump = std::fs::read_to_string(&flight).unwrap();
    let _ = std::fs::remove_file(&flight);
    let header = dump.lines().next().expect("dump header");
    assert!(header.starts_with("{\"type\":\"flight_dump\""), "{header}");
    assert!(header.contains("\"shard\":1"), "{header}");
    assert!(header.contains("\"reason\":\"panic\""), "{header}");
    // The retained tail is tagged with the dying shard and includes the
    // panic event itself.
    assert!(dump.contains("\"shard\":\"1\""), "{dump}");
    assert!(dump.contains("\"type\":\"shard_panic\""), "{dump}");
}

#[test]
fn exhausted_budget_leaves_panic_and_gave_up_dumps() {
    let flight = temp_path("flight-gave-up.jsonl");
    let mut cfg = loadgen_config(1);
    cfg.faults = FaultPlan::parse("panic@1,panic@2,panic@3").unwrap();
    cfg.restart_budget = 1;
    cfg.flight = Some(FlightConfig::new(&flight));
    let report = run_loadgen(&cfg).unwrap();

    assert_eq!(report.runtime.shards_gave_up(), 1);
    // Two panics within a budget of one: dumps for both deaths plus the
    // give-up marker.
    assert_eq!(report.runtime.flight_dumps(), 3);

    let dump = std::fs::read_to_string(&flight).unwrap();
    let _ = std::fs::remove_file(&flight);
    assert_eq!(dump.matches("\"reason\":\"panic\"").count(), 2);
    assert_eq!(dump.matches("\"reason\":\"gave_up\"").count(), 1);
    assert!(dump.contains("\"type\":\"shard_failed\""));
}

#[test]
fn final_sample_matches_the_report_across_restart_and_give_up() {
    // One restart, then an exhausted budget: either way the supervisor
    // books the dead incarnation's resident buffer, its unfinished slot and
    // (on give-up) the abandoned ring backlog and late sends, and the stat
    // cell must carry exactly those books.
    for (faults, budget) in [("panic@5", 3), ("panic@5", 0)] {
        let mut cfg = loadgen_config(1);
        cfg.faults = FaultPlan::parse(faults).unwrap();
        cfg.restart_budget = budget;
        cfg.telemetry = Some(TelemetryConfig {
            interval: Duration::from_millis(5),
            ..TelemetryConfig::default()
        });
        let report = run_loadgen(&cfg).unwrap();
        let gave_up = budget == 0;
        assert_eq!(report.runtime.shard_panics, 1, "{faults} budget {budget}");
        assert_eq!(report.runtime.shards_gave_up(), usize::from(gave_up));

        let c = report.counters();
        assert!(c.check_conservation(0).is_ok());
        if gave_up {
            assert!(c.dropped_shard_failure() > 0, "a backlog was abandoned");
        }
        let last = report
            .runtime
            .telemetry
            .as_ref()
            .and_then(|t| t.last())
            .expect("final sample")
            .total
            .clone();
        let what = format!("{faults} budget {budget}: {last:?}");
        assert_eq!(last.arrived, c.arrived(), "{what}");
        assert_eq!(last.arrived_value, c.arrived_value(), "{what}");
        assert_eq!(last.admitted, c.admitted(), "{what}");
        assert_eq!(
            last.dropped_buffer_full + last.dropped_policy,
            c.dropped_at_switch(),
            "{what}"
        );
        assert_eq!(
            last.dropped_backpressure,
            c.dropped_backpressure(),
            "{what}"
        );
        assert_eq!(
            last.dropped_shard_failure,
            c.dropped_shard_failure(),
            "{what}"
        );
        assert_eq!(last.pushed_out + last.flushed, c.pushed_out(), "{what}");
        assert_eq!(last.transmitted, c.transmitted(), "{what}");
        assert_eq!(last.transmitted_value, c.transmitted_value(), "{what}");
        assert_eq!(last.latency.count(), c.transmitted(), "{what}");
        assert_eq!(last.occupancy, 0, "{what}");
        assert_eq!(last.panics, 1, "{what}");
        assert_eq!(last.restarts, report.runtime.restarts(), "{what}");
        assert_eq!(last.failures, u64::from(gave_up), "{what}");
    }
}
