//! Cached-vs-cold sweep benchmark (DESIGN.md §7): times an
//! observation-parameter sweep with the cross-run stage cache bypassed
//! (cold — every grid point rebuilds the plan and regenerates attacks)
//! against the same sweep served from a primed cache (warm — only the
//! observation stage runs, and repeat grids are pure hits), and writes
//! the medians plus stage hit rates as a run manifest to
//! `BENCH_sweep.json` at the workspace root (diffable via
//! `ddoscovery runs diff` — see `make regress`).
//!
//! The cold/warm phases need exclusive control over the process-global
//! stage cache and counters, so they run in sequence in one `main`.

use ddoscovery::stagecache::{Stage, StageCache, StageStats};
use ddoscovery::sweep::sweep;
use ddoscovery::{ObsId, StudyConfig};
use ddoscovery_bench::{bench_manifest, median_ns, write_bench_manifest};

/// Observation-side grid: `obs.carpet_gap_secs` values. Swept on the
/// observation stage only, so a warm cache skips plan + generation at
/// every point.
const GRID: [f64; 6] = [600.0, 1200.0, 1800.0, 2400.0, 3000.0, 4200.0];
const REPS: usize = 5;

fn base(stage_cache: usize) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = 0xBE_5EED;
    cfg.gen.timeline.dp_base_per_week = 25.0;
    cfg.gen.timeline.ra_base_per_week = 40.0;
    cfg.gen.random_campaign_count = 0;
    cfg.gen.campaign_rate_scale = 0.0;
    cfg.missing_data = false;
    cfg.stage_cache = Some(stage_cache);
    cfg
}

/// One full sweep over the grid.
fn run_sweep(cfg: &StudyConfig) {
    let report = sweep(cfg, &GRID, &[ObsId::Hopscotch, ObsId::AmpPot], |c, v| {
        c.obs.carpet_gap_secs = v as u32;
    })
    .expect("bench base config is valid");
    assert_eq!(report.outcomes.len(), GRID.len() * 2);
}

fn stats() -> [(Stage, StageStats); 3] {
    let cache = StageCache::global();
    Stage::ALL.map(|s| (s, cache.stats(s)))
}

fn main() {
    // Cold: cache bypassed — every grid point recomputes all stages.
    let cold_cfg = base(0);
    let cold_ns = median_ns(REPS, || run_sweep(&cold_cfg));

    // Warm: prime the cache with one sweep, then measure sweeps served
    // from it (plan + attacks + observations are all hits).
    let warm_cfg = base(512);
    run_sweep(&warm_cfg);
    let before = stats();
    let warm_ns = median_ns(REPS, || run_sweep(&warm_cfg));
    let after = stats();

    let points = GRID.len() as u64;
    let cold_ns_per_point = cold_ns / points;
    let warm_ns_per_point = warm_ns / points;
    let speedup = cold_ns_per_point as f64 / warm_ns_per_point.max(1) as f64;

    let hit_rates: Vec<(String, f64)> = before
        .iter()
        .zip(after.iter())
        .map(|((stage, b), (_, a))| {
            let hit = a.hit - b.hit;
            let computed = a.computed - b.computed;
            let rate = if hit + computed == 0 {
                1.0
            } else {
                hit as f64 / (hit + computed) as f64
            };
            (stage.name().to_string(), rate)
        })
        .collect();

    let mut gauges = vec![
        ("cold_median_ns_per_point".to_string(), cold_ns_per_point as f64),
        ("warm_median_ns_per_point".to_string(), warm_ns_per_point as f64),
        ("cache_speedup".to_string(), speedup),
    ];
    gauges.extend(
        hit_rates
            .into_iter()
            .map(|(name, rate)| (format!("warm_hit_rate.{name}"), rate)),
    );
    // The manifest identity is the *warm* config — its fingerprint is
    // what the cache keys on; the cold config differs only in bound.
    let manifest = bench_manifest(
        "sweep",
        &warm_cfg,
        vec![
            ("grid_points".into(), points),
            ("reps".into(), REPS as u64),
        ],
        gauges,
    );
    let path = write_bench_manifest("BENCH_sweep.json", &manifest);
    println!(
        "sweep: cold {cold_ns_per_point} ns/point, warm {warm_ns_per_point} ns/point \
         ({speedup:.1}x) -> {}",
        path.display()
    );
}
