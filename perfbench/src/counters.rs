//! Counters the program already exports, read before and after a
//! measured phase: stage-cache and projection work, HTTP shedding and
//! time-outs, pool busy time, and the observe/merge span histograms.

use crate::report::{Metrics, PROJECTIONS, STAGES};
use std::time::Instant;

/// Execution-pool workers of every workload: the benchmark targets a
/// two-core machine.
pub const WORKERS: usize = 2;

pub fn counter(name: &str) -> u64 {
    obs::metrics::counter(name).get()
}

fn histogram_sum(name: &str) -> u64 {
    obs::metrics::histogram(name, &obs::metrics::LATENCY_NS).sum()
}

/// Stage and projection computations so far: the pipeline and analyze
/// work the program did.
fn pipeline_ops() -> u64 {
    STAGES
        .iter()
        .map(|s| counter(&format!("stage.{s}.computed")))
        .sum::<u64>()
        + PROJECTIONS
            .iter()
            .map(|k| counter(&format!("project.{k}.computed")))
            .sum::<u64>()
}

/// Register-level counters a phase is judged by.
#[derive(Clone, Copy)]
pub struct Counters {
    pub at: Instant,
    ops: u64,
    shed: u64,
    timeouts: u64,
    busy_ns: u64,
    pub observe_merge_ns: u64,
    stage_hit: [u64; 3],
    stage_computed: [u64; 3],
}

impl Counters {
    pub fn now() -> Counters {
        Counters {
            at: Instant::now(),
            ops: pipeline_ops(),
            shed: counter("http.shed"),
            timeouts: counter("http.timeout"),
            busy_ns: histogram_sum("pool.worker_busy_ns"),
            observe_merge_ns: histogram_sum("span.observe") + histogram_sum("span.merge"),
            stage_hit: STAGES.map(|s| counter(&format!("stage.{s}.hit"))),
            stage_computed: STAGES.map(|s| counter(&format!("stage.{s}.computed"))),
        }
    }

    /// Record the per-layer metrics of the phase since `self`.
    pub fn record_since(&self, m: &mut Metrics) -> Counters {
        let now = Counters::now();
        m.set(
            "split.pipeline_ops_after_setup",
            (now.ops - self.ops) as f64,
        );
        m.set("serve.shed", (now.shed - self.shed) as f64);
        m.set("serve.timeouts", (now.timeouts - self.timeouts) as f64);
        let wall_ns = now.at.duration_since(self.at).as_nanos() as f64;
        m.set(
            "pool.busy_ratio",
            (now.busy_ns - self.busy_ns) as f64 / (wall_ns * WORKERS as f64),
        );
        for (i, stage) in STAGES.iter().enumerate() {
            let hit = (now.stage_hit[i] - self.stage_hit[i]) as f64;
            let computed = (now.stage_computed[i] - self.stage_computed[i]) as f64;
            let ratio = if hit + computed > 0.0 {
                hit / (hit + computed)
            } else {
                0.0
            };
            m.set(&format!("stagecache.hit_ratio.{stage}"), ratio);
        }
        now
    }
}
