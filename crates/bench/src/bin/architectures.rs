//! The paper's Fig. 1 architectural comparison, executed: a single shared
//! queue (FIFO greedy / FIFO push-out / priority-queue) versus the
//! shared-memory switch under its best policies, at equal total core count,
//! on identical bursty heterogeneous traffic.
//!
//! ```text
//! architectures [--slots N] [--seed S]
//! ```

use std::process::ExitCode;

use smbm_core::{
    work_policy_by_name, DatapathSystem, FifoAdmission, SingleFifoQueue, WorkPqOpt, WorkRunner,
};
use smbm_sim::{run_work, EngineConfig};
use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix};

fn main() -> ExitCode {
    let mut slots = 50_000usize;
    let mut seed = 0xB0FFE2u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--slots" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => slots = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--help" | "-h" => {
                println!("usage: architectures [--slots N] [--seed S]");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let cores = cfg.ports() as u32; // C = 1 per port; single queues get all 8
    let trace = MmppScenario {
        sources: 12,
        slots,
        seed,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .expect("valid scenario");
    let engine = EngineConfig::draining();

    println!(
        "# architectures: k=8 B=64 total cores={cores}, {} arrivals",
        trace.arrivals()
    );
    println!(
        "{:<26} {:>12} {:>12} {:>10}",
        "system", "packets", "mean lat.", "goodput"
    );

    let report = |label: String, score: u64, lat: f64, goodput: f64| {
        println!("{label:<26} {score:>12} {lat:>12.2} {goodput:>10.4}");
    };

    // Single-queue architecture (top of Fig. 1).
    for adm in [FifoAdmission::Greedy, FifoAdmission::PushOutLargest] {
        let mut q = SingleFifoQueue::new(cfg.buffer(), cores, adm);
        let score = match run_work(&mut q, &trace, &engine) {
            Ok(s) => s.score,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        report(
            q.label(),
            score,
            q.counters().mean_latency(),
            q.counters().goodput(),
        );
    }
    {
        let mut pq = WorkPqOpt::new(cfg.buffer(), cores);
        let score = match run_work(&mut pq, &trace, &engine) {
            Ok(s) => s.score,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        // The PQ surrogate does not track per-packet sojourn times.
        println!(
            "{:<26} {:>12} {:>12} {:>10.4}",
            format!("1Q-PQ(pushout,{cores}cores)"),
            score,
            "n/a",
            pq.counters().goodput()
        );
    }

    // Shared-memory architecture (bottom of Fig. 1), one core per port.
    for name in ["NEST", "LQD", "LWD"] {
        let policy = work_policy_by_name(name).expect("registry name");
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let score = match run_work(&mut runner, &trace, &engine) {
            Ok(s) => s.score,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let c = runner.switch().counters();
        report(
            format!("shared-memory {name}"),
            score,
            c.mean_latency(),
            c.goodput(),
        );
    }

    println!(
        "\nreading: 1Q-PQ (priority order + push-out) is the throughput-optimal\n\
         single-queue design the paper cites; the realistic greedy FIFO single\n\
         queue collapses under head-of-line blocking. Shared-memory + LWD gets\n\
         most of the way to 1Q-PQ with plain per-port FIFO queues and no\n\
         cross-type cores -- the paper's architectural argument. (A push-out\n\
         FIFO single queue is statistically competitive too, but keeps the\n\
         starvation and per-core-complexity drawbacks of the single-queue\n\
         design, and its worst case remains Omega(log k).)"
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: architectures [--slots N] [--seed S]");
    ExitCode::FAILURE
}
