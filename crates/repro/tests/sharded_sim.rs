//! Environment gating of the population-sharded simulator at the
//! scenario level: `FGBD_SIM_SHARDS` selects the simulator,
//! `FGBD_SIM_WORKERS` never changes the output, and the streaming tap
//! yields to sharding. One test body owns every env mutation so the
//! process-global state cannot race.

use fgbd_ntier::result::RunResult;
use fgbd_ntier::shard::{run_sharded, ShardPlan};
use fgbd_repro::scenario::SPEEDSTEP_OFF;
use fgbd_trace::SpanSet;

fn assert_same_result(a: &RunResult, b: &RunResult) {
    assert_eq!(a.log.records, b.log.records);
    assert_eq!(a.txns, b.txns);
    assert_eq!(a.cpu_busy, b.cpu_busy);
    assert_eq!(a.net_bytes, b.net_bytes);
    assert_eq!(a.completed_visits, b.completed_visits);
    assert_eq!(a.retransmissions, b.retransmissions);
}

#[test]
fn sim_shards_env_gates_the_parallel_simulator() {
    let saved: Vec<(&str, Option<String>)> = ["FGBD_SIM_SHARDS", "FGBD_SIM_WORKERS"]
        .into_iter()
        .map(|k| (k, std::env::var(k).ok()))
        .collect();

    // Default: no sharding, the sequential reference.
    std::env::remove_var("FGBD_SIM_SHARDS");
    std::env::remove_var("FGBD_SIM_WORKERS");
    let baseline = SPEEDSTEP_OFF.calibration_run();

    // `FGBD_SIM_SHARDS=1` is the exact pre-sharding code path: the plan
    // parser returns None, so the output is byte-identical.
    std::env::set_var("FGBD_SIM_SHARDS", "1");
    assert_same_result(&baseline, &SPEEDSTEP_OFF.calibration_run());

    // A 4-pod fleet is a different model (the shard count is a model
    // parameter), but its output is a pure function of the plan: the
    // worker count and repeated runs never change a byte.
    std::env::set_var("FGBD_SIM_SHARDS", "4");
    std::env::set_var("FGBD_SIM_WORKERS", "1");
    let fleet_serial = SPEEDSTEP_OFF.calibration_run();
    std::env::set_var("FGBD_SIM_WORKERS", "4");
    let fleet_parallel = SPEEDSTEP_OFF.calibration_run();
    assert_same_result(&fleet_serial, &fleet_parallel);
    assert!(
        !fleet_serial.txns.is_empty(),
        "the fleet must complete transactions"
    );

    // The env-gated path and the direct API agree.
    let mut cfg = SPEEDSTEP_OFF.config(400);
    cfg.warmup = fgbd_des::SimDuration::from_secs(5);
    cfg.duration = fgbd_des::SimDuration::from_secs(40);
    let direct = run_sharded(
        cfg,
        &ShardPlan {
            shards: 4,
            workers: 2,
        },
    );
    assert_same_result(&fleet_serial, &direct);

    // A sharded `run_with_spans` materializes the merged capture and
    // extracts spans in batch, and the spans still account for every
    // completed visit.
    let (run, spans) = SPEEDSTEP_OFF.run_with_spans(40);
    assert!(
        !run.log.records.is_empty(),
        "sharded run_with_spans must materialize the merged log"
    );
    assert!(!spans.is_empty());
    for (i, info) in run.servers.iter().enumerate() {
        assert_eq!(
            spans.server(info.node).len() as u64,
            run.completed_visits[i],
            "{}: spans vs completed visits",
            info.name
        );
    }
    let reextracted = SpanSet::extract(&run.log);
    assert_eq!(spans.len(), reextracted.len());

    for (k, v) in saved {
        match v {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
}
