//! End-to-end pipeline benches at `StudyConfig::quick()` scale:
//! generate → observe → project, plus the full `StudyRun::execute`
//! under serial and pooled execution. These are the numbers behind the
//! execution-engine speedup claims in DESIGN.md §4.
//!
//! Plain `main` (harness = false) that prints median timings and writes
//! them as a run manifest to `BENCH_pipeline.json` at the workspace
//! root, so `ddoscovery runs diff` (and `make regress`) can gate the
//! perf trajectory with the same machinery that gates study runs.

use attackgen::AttackGenerator;
use ddoscovery::pipeline::{ObsId, StudyRun};
use ddoscovery::scenario::StudyConfig;
use ddoscovery_bench::{bench_manifest, median_ns, write_bench_manifest};
use netmodel::InternetPlan;
use simcore::{ExecPool, SimRng};

const REPS: usize = 5;

fn quick_cfg() -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    // These phases measure real recomputation; the cross-run stage
    // cache has its own cached-vs-cold benchmark (benches/sweep.rs).
    cfg.stage_cache = Some(0);
    cfg
}

fn main() {
    let cfg = quick_cfg();

    // Generate: columnar population build, serial vs pooled.
    let root = SimRng::new(cfg.seed);
    let mut plan_rng = root.fork_named("plan");
    let plan = InternetPlan::build(&cfg.net, &mut plan_rng);
    let gen = AttackGenerator::new(&plan, cfg.gen.clone(), &root);
    let generate_serial_ns = median_ns(REPS, || gen.generate_study_on(&ExecPool::serial()).len());
    let generate_pooled_ns = median_ns(REPS, || gen.generate_study_on(&ExecPool::global()).len());
    let attacks = gen.generate_study_on(&ExecPool::serial()).len() as u64;
    drop(gen);
    drop(plan);

    // Execute: the full generate + observe pipeline.
    let execute_serial_ns = median_ns(REPS, || {
        StudyRun::execute_on(&cfg, &ExecPool::serial())
            .attacks
            .len()
    });
    let execute_pooled_ns = median_ns(REPS, || {
        StudyRun::execute_on(&cfg, &ExecPool::global())
            .attacks
            .len()
    });

    // Project: cold (fresh run per rep — uncached projection cost) vs
    // warm (memoized series on one retained run).
    let project_cold_ns = median_ns(REPS, || {
        let fresh = StudyRun::execute(&cfg);
        let mut present = 0usize;
        for &id in &ObsId::ALL {
            present += fresh.normalized_series(id).present().count();
        }
        present
    });
    let run = StudyRun::execute(&cfg);
    let observations: u64 = ObsId::ALL
        .iter()
        .map(|&id| run.observations(id).len() as u64)
        .sum();
    let project_warm_ns = median_ns(REPS, || {
        let mut present = 0usize;
        for &id in &ObsId::ALL {
            present += run.normalized_series(id).present().count();
        }
        present + run.netscout_baseline_tuples().len()
    });

    let speedup = |serial: u64, pooled: u64| serial as f64 / pooled.max(1) as f64;
    let manifest = bench_manifest(
        "pipeline",
        &cfg,
        vec![
            ("attacks".into(), attacks),
            ("observations".into(), observations),
            ("reps".into(), REPS as u64),
        ],
        vec![
            ("generate_serial_median_ns".into(), generate_serial_ns as f64),
            ("generate_pooled_median_ns".into(), generate_pooled_ns as f64),
            ("execute_serial_median_ns".into(), execute_serial_ns as f64),
            ("execute_pooled_median_ns".into(), execute_pooled_ns as f64),
            ("project_cold_median_ns".into(), project_cold_ns as f64),
            ("project_warm_median_ns".into(), project_warm_ns as f64),
            (
                "generate_pool_speedup".into(),
                speedup(generate_serial_ns, generate_pooled_ns),
            ),
            (
                "execute_pool_speedup".into(),
                speedup(execute_serial_ns, execute_pooled_ns),
            ),
        ],
    );
    let path = write_bench_manifest("BENCH_pipeline.json", &manifest);

    println!(
        "pipeline generate: serial {generate_serial_ns} ns, pooled {generate_pooled_ns} ns \
         ({:.1}x)",
        speedup(generate_serial_ns, generate_pooled_ns)
    );
    println!(
        "pipeline execute:  serial {execute_serial_ns} ns, pooled {execute_pooled_ns} ns \
         ({:.1}x)",
        speedup(execute_serial_ns, execute_pooled_ns)
    );
    println!("pipeline project:  cold {project_cold_ns} ns, warm {project_warm_ns} ns");
    println!("pipeline: wrote {}", path.display());
}
