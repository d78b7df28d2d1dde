//! Columnar population throughput benchmark (DESIGN.md §9): measures
//! attacks/sec for the three pipeline stages — generate (columnar
//! population build), observe (the eight observatories over the shared
//! target arena), and project (weekly series + distinct target tuples)
//! — at the 1M and 10M attack scales, and writes the results as a run
//! manifest to `BENCH_population.json` at the workspace root (diffable
//! via `ddoscovery runs diff` — see `make regress`).
//!
//! A 10M-attack run is a single long-form measurement, not a sample
//! loop, and the stages share one process-global pool and metrics
//! registry.
//!
//! Memory (peak RSS, bytes/attack) is deliberately *not* measured here:
//! `VmHWM` is monotone per process, so a multi-scale bench would report
//! the largest scale's peak for every earlier phase. Per-stage peaks
//! come from `crates/bench/examples/scale_probe.rs` (one process per
//! stage/scale; see `make scale`).

use attackgen::AttackGenerator;
use ddoscovery::{ObsId, StudyRun};
use ddoscovery_bench::{
    bench_manifest, scaled_paper_config, touch_projections, write_bench_manifest,
};
use netmodel::InternetPlan;
use simcore::{ExecPool, SimRng};

const SCALES: [(u64, &str); 2] = [(1_000_000, "1M"), (10_000_000, "10M")];

struct ScaleResult {
    label: &'static str,
    attacks: u64,
    observations: u64,
    cells: u64,
    generate_aps: f64,
    observe_aps: f64,
    project_aps: f64,
}

/// One cold measurement at a given target scale. The generator is
/// deterministic for a fixed config, so the standalone generate timing
/// matches the generate phase inside `execute_on`; observe time is the
/// full execute wall time minus that generate time.
fn probe(target: u64, label: &'static str) -> ScaleResult {
    let cfg = scaled_paper_config(target as f64);
    let pool = ExecPool::global();

    // Generate: columnar population build, timed in isolation.
    let root = SimRng::new(cfg.seed);
    let mut plan_rng = root.fork_named("plan");
    let plan = InternetPlan::build(&cfg.net, &mut plan_rng);
    let watch = obs::Stopwatch::start();
    let attacks =
        AttackGenerator::new(&plan, cfg.gen.clone(), &root).generate_study_on(&pool);
    let generate_ns = watch.elapsed_ns();
    let n = attacks.len() as u64;
    drop(attacks);
    drop(plan);

    // Observe: full execute (generate + observe) minus the generate
    // time measured above on the identical deterministic workload.
    let watch = obs::Stopwatch::start();
    let run = StudyRun::execute_on(&cfg, &pool);
    let execute_ns = watch.elapsed_ns();
    let observe_ns = execute_ns.saturating_sub(generate_ns).max(1);
    let observations: u64 = ObsId::ALL
        .iter()
        .map(|&id| run.observations(id).len() as u64)
        .sum();

    // Project: every weekly series + distinct-tuple projection.
    let watch = obs::Stopwatch::start();
    let cells = touch_projections(&run);
    let project_ns = watch.elapsed_ns().max(1);

    let aps = |ns: u64| n as f64 * 1e9 / ns as f64;
    ScaleResult {
        label,
        attacks: n,
        observations,
        cells,
        generate_aps: aps(generate_ns.max(1)),
        observe_aps: aps(observe_ns),
        project_aps: aps(project_ns),
    }
}

fn main() {
    let results: Vec<ScaleResult> = SCALES
        .iter()
        .map(|&(target, label)| {
            let r = probe(target, label);
            println!(
                "population {label}: {} attacks — generate {:.0}/s, observe {:.0}/s, \
                 project {:.0}/s ({} observations, {} cells)",
                r.attacks, r.generate_aps, r.observe_aps, r.project_aps, r.observations, r.cells
            );
            r
        })
        .collect();

    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    for r in &results {
        counters.push((format!("attacks.{}", r.label), r.attacks));
        counters.push((format!("observations.{}", r.label), r.observations));
        counters.push((format!("projection_cells.{}", r.label), r.cells));
        gauges.push((format!("generate_attacks_per_sec.{}", r.label), r.generate_aps));
        gauges.push((format!("observe_attacks_per_sec.{}", r.label), r.observe_aps));
        gauges.push((format!("project_attacks_per_sec.{}", r.label), r.project_aps));
    }

    // The manifest identity is the largest scale's config: both scales
    // share the seed, and 10M is the one a regression would hurt most.
    let (largest, _) = SCALES[SCALES.len() - 1];
    let manifest = bench_manifest(
        "population",
        &scaled_paper_config(largest as f64),
        counters,
        gauges,
    );
    let path = write_bench_manifest("BENCH_population.json", &manifest);
    println!("population: wrote {}", path.display());
}
