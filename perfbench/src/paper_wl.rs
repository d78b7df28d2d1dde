//! `paper_run`: cold paper-scale studies on two workers with the stage
//! cache and disk store off, each followed by all 26 experiments, the
//! way `ddoscovery run` regenerates every table and figure.

use crate::check::{artifact_digest, check_digest, check_experiment, study_seed};
use crate::counters::{Counters, WORKERS};
use crate::layers;
use crate::report::{Outcome, PROJECTIONS};
use crate::spans::{SpanId, Spans};
use crate::stats::{self, summarize};
use ddoscovery::{all_ids, run_experiment, ObsId, StageFingerprints, StudyConfig, StudyRun};
use netmodel::InternetPlan;
use simcore::{ExecPool, SimRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up is timed in batches of this many repetitions, cycling through
/// the study seeds...
const SETUP_BATCH: usize = 21;
/// ...and reported as the median batch mean over this many batches.
const SETUP_BATCHES: usize = 9;
/// Study seeds a run cycles through. Studies of different seeds differ
/// in cost by up to ~15%, so a run that covers several reports a median
/// that moves less from one workload seed to the next.
const STUDY_SEEDS: u64 = 3;

/// Digest of the first study of each study seed in this process.
pub type Digests = BTreeMap<u64, u64>;

/// The workload's configuration: the paper study at the `k`-th study
/// seed of `seed`, two workers, no stage cache, no disk store.
fn config(seed: u64, k: u64) -> StudyConfig {
    let mut cfg = StudyConfig::paper();
    cfg.seed = study_seed(seed, k);
    cfg.workers = Some(WORKERS);
    cfg.stage_cache = Some(0);
    cfg.disk_store = Some("off".into());
    cfg
}

/// Everything a study stands on: build and validate the config,
/// fingerprint its stages, make the pool, and build the Internet plan
/// every stage, experiment and sweep point of the study shares. (With
/// the stage cache off, the study builds its plan again.)
fn ready(seed: u64, k: u64) -> (StudyConfig, ExecPool) {
    let cfg = config(seed, k);
    cfg.validate().expect("the paper configuration is valid");
    std::hint::black_box(StageFingerprints::of(&cfg));
    let plan_rng = &mut SimRng::new(cfg.seed).fork_named("plan");
    std::hint::black_box(InternetPlan::build(&cfg.net, plan_rng));
    (cfg, ExecPool::new(WORKERS))
}

/// One study's timings.
struct StudyTimes {
    total_s: f64,
    execute_s: f64,
    experiment_ms: Vec<f64>,
}

pub struct PaperRun<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub spans: &'a Spans,
    pub parent: SpanId,
}

impl PaperRun<'_> {
    pub fn run(&self, digests: &mut Digests) -> Outcome {
        let mut o = Outcome::default();
        let spans = self.spans;
        let mut batches = Vec::with_capacity(SETUP_BATCHES);
        let setup = spans.open("setup", self.parent);
        for _ in 0..SETUP_BATCHES {
            let t = Instant::now();
            for rep in 0..SETUP_BATCH {
                std::hint::black_box(ready(self.seed, rep as u64 % STUDY_SEEDS));
            }
            batches.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        }
        drop(setup);
        o.metrics.set("setup_s", stats::median(&batches));
        let (cfg, pool) = ready(self.seed, 0);

        if spans.enabled() {
            let layers_span = spans.open("layers", self.parent);
            let (plan, attacks) =
                layers::plan_and_attacks(&cfg, &pool, spans, layers_span.id(), &mut o.metrics);
            layers::observe(
                &cfg,
                &plan,
                &attacks,
                spans,
                layers_span.id(),
                &mut o.metrics,
            );
        }

        let before = Counters::now();
        let mut studies = Vec::new();
        let mut layer_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        // Cycle through the study seeds, at least once more than there
        // are seeds, so every run checks that a study repeats exactly.
        while studies.len() as u64 <= STUDY_SEEDS
            || before.at.elapsed().as_secs_f64() < self.seconds
        {
            let cfg = config(self.seed, studies.len() as u64 % STUDY_SEEDS);
            studies.push(self.study(&cfg, &pool, digests, &mut layer_s, &mut o));
            // `ddoscovery run` executes one study per process: its peak
            // is this process's after the first study. Later studies only
            // add allocator fragmentation a user never sees.
            if studies.len() == 1 {
                if let Some(bytes) = obs::peak_rss_bytes() {
                    o.metrics.set("peak_rss_mb", bytes as f64 / 1e6);
                }
            }
        }
        before.record_since(&mut o.metrics);

        let totals: Vec<f64> = studies.iter().map(|s| s.total_s).collect();
        let executes: Vec<f64> = studies.iter().map(|s| s.execute_s * 1e3).collect();
        let reads: Vec<f64> = studies
            .iter()
            .flat_map(|s| s.experiment_ms.iter().copied())
            .collect();
        let rates: Vec<f64> = studies
            .iter()
            .map(|s| s.experiment_ms.len() as f64 / (s.experiment_ms.iter().sum::<f64>() / 1e3))
            .collect();
        o.metrics.set("run_s", stats::median(&totals));
        o.metrics.set("sweep_p50_ms", stats::median(&executes));
        o.metrics.set("max_rps", stats::median(&rates));
        if let Some(s) = summarize(&reads) {
            o.metrics.set("read_p50_ms", s.median);
            o.metrics.set("read_p99_ms", s.tail);
            eprintln!(
                "experiments: p50 {:.3} ms, p{:.2} {:.3} ms over {} renders; study median {:.3} s over {}",
                s.median,
                s.tail_pct * 100.0,
                s.tail,
                s.n,
                stats::median(&totals),
                studies.len()
            );
        }

        if spans.enabled() {
            let m = &mut o.metrics;
            for (name, secs) in &layer_s {
                m.set(name, stats::median(secs));
            }
            let analyze: f64 = PROJECTIONS
                .iter()
                .map(|k| format!("project.{k}_s"))
                .chain(all_ids().iter().map(|id| format!("experiments.{id}_s")))
                .filter_map(|n| m.get(&n))
                .sum();
            m.set("split.analyze_share", analyze / stats::median(&totals));
        }
        o
    }

    /// Execute one study and render every experiment, timing both;
    /// then check each experiment and the artifact digest.
    fn study(
        &self,
        cfg: &StudyConfig,
        pool: &ExecPool,
        digests: &mut Digests,
        layer_s: &mut BTreeMap<String, Vec<f64>>,
        o: &mut Outcome,
    ) -> StudyTimes {
        let spans = self.spans;
        let study = spans.open("study", self.parent);
        let t = Instant::now();
        let run = {
            let _s = spans.open("pipeline.execute_on", study.id());
            StudyRun::execute_on(cfg, pool)
        };
        let execute_s = t.elapsed().as_secs_f64();
        if spans.enabled() {
            touch_projections(&run, spans, study.id(), layer_s);
        }
        let mut results = Vec::with_capacity(all_ids().len());
        let mut experiment_ms = Vec::with_capacity(all_ids().len());
        for id in all_ids() {
            let te = Instant::now();
            let result = {
                let _s = spans.open(format!("experiments.{id}"), study.id());
                run_experiment(&run, id)
            };
            let secs = te.elapsed().as_secs_f64();
            experiment_ms.push(secs * 1e3);
            if spans.enabled() {
                layer_s
                    .entry(format!("experiments.{id}_s"))
                    .or_default()
                    .push(secs);
            }
            results.push((id, result));
        }
        let total_s = t.elapsed().as_secs_f64();
        drop(study);
        let stats = run.projection_stats();
        eprintln!(
            "study {:.3} s (execute {:.3} s), {} attacks; projections computed: weekly {} normalized {} tuples {} baseline {} akamai {}",
            total_s,
            execute_s,
            run.attacks.len(),
            stats.weekly_computed,
            stats.normalized_computed,
            stats.tuples_computed,
            stats.baseline_computed,
            stats.akamai_computed
        );
        drop(run);

        o.attempted += 1 + results.len() as u64;
        let mut ok = Vec::with_capacity(results.len());
        for (id, result) in results {
            match check_experiment(id, result.as_ref()) {
                Ok(()) => ok.extend(result),
                Err(e) => {
                    o.failed += 1;
                    o.error(e);
                }
            }
        }
        let digest = artifact_digest(&ok);
        println!(
            "paper_run seed {} (study seed {:#x}): artifact digest {digest:#018x}",
            self.seed, cfg.seed
        );
        if let Err(e) = check_digest(cfg.seed, digests.get(&cfg.seed).copied(), digest) {
            o.failed += 1;
            o.error(e);
        }
        digests.entry(cfg.seed).or_insert(digest);
        StudyTimes {
            total_s,
            execute_s,
            experiment_ms,
        }
    }
}

/// First touch of each `StudyRun` projection accessor the experiments
/// use, timed per kind (`project.<kind>_s`).
fn touch_projections(
    run: &StudyRun,
    spans: &Spans,
    parent: SpanId,
    layer_s: &mut BTreeMap<String, Vec<f64>>,
) {
    let mut timed = |kind: &str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        {
            let _s = spans.open(format!("project.{kind}"), parent);
            f();
        }
        layer_s
            .entry(format!("project.{kind}_s"))
            .or_default()
            .push(t.elapsed().as_secs_f64());
    };
    timed("weekly", &mut || {
        ObsId::ALL.iter().for_each(|&id| {
            std::hint::black_box(run.weekly_series(id));
        })
    });
    timed("normalized", &mut || {
        ObsId::ALL.iter().for_each(|&id| {
            std::hint::black_box(run.normalized_series(id));
        })
    });
    timed("tuples", &mut || {
        ObsId::ACADEMIC.iter().for_each(|&id| {
            std::hint::black_box(run.target_tuples(id));
        })
    });
    timed("baseline", &mut || {
        std::hint::black_box(run.netscout_baseline_tuples());
    });
    timed("akamai", &mut || {
        std::hint::black_box(run.akamai_tuples());
    });
}
