//! Named experimental scenarios matching the paper's two case studies.

use fgbd_des::{SimDuration, SimTime};
use fgbd_ntier::config::{Jdk, SystemConfig};
use fgbd_ntier::result::RunResult;
use fgbd_ntier::shard::{run_sharded, ShardPlan};
use fgbd_ntier::system::NTierSystem;
use fgbd_trace::SpanSet;

use crate::monitor::{MonitorConfig, MonitorRuntime};

/// The master seed shared by all experiments (figures are deterministic).
pub const MASTER_SEED: u64 = 20130708;

/// Runs `cfg` on the simulator selected by the environment: the
/// sequential reference by default (`FGBD_SIM_SHARDS` unset, `0` or `1` —
/// the exact unsharded code path), or the population-sharded parallel
/// simulator when `FGBD_SIM_SHARDS ≥ 2` (see [`fgbd_ntier::shard`] for
/// the fleet semantics and the determinism contract; `FGBD_SIM_WORKERS`
/// tunes threads without affecting output). Every experiment binary
/// funnels its simulations through here, so the env knobs apply
/// uniformly.
pub fn simulate(cfg: SystemConfig) -> RunResult {
    match ShardPlan::from_env() {
        Some(plan) => run_sharded(cfg, &plan),
        None => NTierSystem::run(cfg),
    }
}

/// A named scenario: the 1L/2S/1L/2S topology with the case-study knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario family name (used in output paths).
    pub name: &'static str,
    /// Tomcat JDK (GC model).
    pub jdk: Jdk,
    /// MySQL SpeedStep enabled?
    pub speedstep: bool,
}

/// The configuration of Fig 2/3/5/12 and Table I: JDK 1.6 Tomcat, SpeedStep
/// enabled on MySQL.
pub const SPEEDSTEP_ON: Scenario = Scenario {
    name: "speedstep_on",
    jdk: Jdk::Jdk16,
    speedstep: true,
};

/// The §IV-D fix: SpeedStep disabled (MySQL pinned at P0) — Fig 13.
pub const SPEEDSTEP_OFF: Scenario = Scenario {
    name: "speedstep_off",
    jdk: Jdk::Jdk16,
    speedstep: false,
};

/// The §IV-A configuration: JDK 1.5 Tomcat (serial stop-the-world GC),
/// SpeedStep disabled — Figs 8, 9, 10, 11(c).
pub const GC_JDK15: Scenario = Scenario {
    name: "gc_jdk15",
    jdk: Jdk::Jdk15,
    speedstep: false,
};

/// The §IV-B fix: JDK 1.6 Tomcat — Fig 11(a)/(b).
pub const GC_JDK16: Scenario = Scenario {
    name: "gc_jdk16",
    jdk: Jdk::Jdk16,
    speedstep: false,
};

impl Scenario {
    /// The full configuration at the given workload (3-minute measured
    /// period after a 30 s warm-up, like the paper's runs).
    pub fn config(&self, users: u32) -> SystemConfig {
        SystemConfig::paper_1l2s1l2s(users, self.jdk, self.speedstep, MASTER_SEED)
    }

    /// Runs the scenario at workload `users` with the capture enabled.
    pub fn run(&self, users: u32) -> RunResult {
        fgbd_obsv::span!("simulate");
        fgbd_obsv::counter!("scenario.runs", self.name, 1);
        simulate(self.config(users))
    }

    /// Runs the scenario and extracts its request spans with the batch
    /// extractor ([`SpanSet::extract`]). With `FGBD_MONITOR=1` the
    /// materialized capture is then replayed through a live monitor (see
    /// [`crate::monitor`] for the telemetry surface and the
    /// `FGBD_MONITOR_*` knobs).
    pub fn run_with_spans(&self, users: u32) -> (RunResult, SpanSet) {
        let run = self.run(users);
        let spans = SpanSet::extract(&run.log);
        self.monitor_replay(users, &run);
        (run, spans)
    }

    /// Builds the opt-in live monitor for a run of this scenario
    /// (`None` unless `FGBD_MONITOR=1`). Calibrates from the scenario's
    /// low-load run so the streaming detector normalizes throughput
    /// exactly like the batch pipeline.
    fn live_monitor(&self, users: u32) -> Option<MonitorRuntime> {
        let mcfg = MonitorConfig::from_env()?;
        let cal = crate::pipeline::Calibration::for_scenario(self);
        let cfg = self.config(users);
        let nodes = fgbd_ntier::system::node_metas(&cfg);
        let name = format!("{}_live", self.name);
        match MonitorRuntime::new(&name, &mcfg, SimTime::ZERO + cfg.warmup, &cal, &nodes) {
            Ok(mon) => Some(mon),
            Err(e) => {
                fgbd_obsv::log!("monitor", "WARN cannot create monitor outputs: {e}");
                None
            }
        }
    }

    /// Replays the materialized capture through the monitor after the
    /// run.
    fn monitor_replay(&self, users: u32, run: &RunResult) {
        if run.log.records.is_empty() {
            return;
        }
        let Some(mut mon) = self.live_monitor(users) else {
            return;
        };
        for rec in &run.log.records {
            if mon.push(rec).is_err() {
                break;
            }
        }
        Self::monitor_finish(mon, run);
    }

    fn monitor_finish(mon: MonitorRuntime, run: &RunResult) {
        if run.horizon <= run.warmup_end {
            return;
        }
        let verdicts = mon.verdicts();
        match mon.finish(run.horizon) {
            Ok(reports) => {
                fgbd_obsv::log!(
                    "monitor",
                    "live monitor: {} servers, {verdicts} verdicts — see out/monitor/",
                    reports.len()
                );
            }
            Err(e) => fgbd_obsv::log!("monitor", "WARN monitor finish failed: {e}"),
        }
    }

    /// Runs without message capture — cheaper, for experiments that only
    /// need client-side samples and CPU counters (Fig 2, Fig 3, Table I).
    pub fn run_uncaptured(&self, users: u32) -> RunResult {
        fgbd_obsv::span!("simulate");
        fgbd_obsv::counter!("scenario.runs", self.name, 1);
        let mut cfg = self.config(users);
        cfg.capture = false;
        simulate(cfg)
    }

    /// A short low-workload calibration run used for service-time
    /// approximation (the paper measures service times "when the production
    /// system is under low workload").
    pub fn calibration_run(&self) -> RunResult {
        fgbd_obsv::span!("simulate");
        fgbd_obsv::counter!("scenario.runs", self.name, 1);
        let mut cfg = self.config(400);
        cfg.warmup = SimDuration::from_secs(5);
        cfg.duration = SimDuration::from_secs(40);
        simulate(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_set_their_knobs() {
        assert!(SPEEDSTEP_ON.config(100).topology[3][0].dvfs.is_some());
        assert!(SPEEDSTEP_OFF.config(100).topology[3][0].dvfs.is_none());
        let gc15 = GC_JDK15.config(100).topology[1][0].gc.unwrap();
        assert_eq!(
            gc15.collector,
            fgbd_ntier::gc::Collector::SerialStopTheWorld
        );
        let gc16 = GC_JDK16.config(100).topology[1][0].gc.unwrap();
        assert_eq!(
            gc16.collector,
            fgbd_ntier::gc::Collector::ConcurrentMarkSweep
        );
    }

    #[test]
    fn calibration_run_is_short_and_light() {
        let res = SPEEDSTEP_OFF.calibration_run();
        assert!(res.throughput() > 10.0);
        assert!(res.horizon.as_secs_f64() <= 46.0);
        // Low load: Tomcat nowhere near saturation.
        let t = res.server_index("tomcat-1").unwrap();
        assert!(res.mean_cpu_util(t) < 0.3);
    }
}
