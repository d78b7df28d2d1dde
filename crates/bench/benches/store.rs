//! Cross-process warm-start benchmark for the persistent stage store
//! (DESIGN.md §11): times the observation-parameter sweep run the way
//! a shell loop runs it — one process per grid point, emulated by
//! clearing the in-memory stage cache before every point — first with
//! no disk store (cold: every point regenerates the plan, the attack
//! population, and all observation streams) and then against a primed
//! store (warm: every stage loads from checksummed cells). Writes the
//! medians, the speedup, and the disk-tier counter deltas as a run
//! manifest to `BENCH_store.json` at the workspace root (diffable via
//! `ddoscovery runs diff`).
//!
//! Plain `main` (harness = false): the phases need exclusive control
//! over the process-global stage cache and counters.

use ddoscovery::stagecache::StageCache;
use ddoscovery::{ObsId, StudyConfig, StudyRun};
use ddoscovery_bench::{bench_manifest, median_ns, write_bench_manifest};

/// Same observation-side grid as the sweep bench: per-point
/// `obs.carpet_gap_secs` values, each standing in for one CLI
/// invocation of a parameter study.
const GRID: [f64; 6] = [600.0, 1200.0, 1800.0, 2400.0, 3000.0, 4200.0];
const REPS: usize = 5;

fn base(disk_store: Option<String>) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = 0xBE_5EED;
    cfg.gen.timeline.dp_base_per_week = 25.0;
    cfg.gen.timeline.ra_base_per_week = 40.0;
    cfg.gen.random_campaign_count = 0;
    cfg.gen.campaign_rate_scale = 0.0;
    cfg.missing_data = false;
    cfg.stage_cache = Some(512);
    // `Some("off")` pins the cold phase off even if DDOSCOVERY_STORE is
    // set in the environment; stage keys ignore execution fields, so
    // both phases share fingerprints.
    cfg.disk_store = disk_store.or_else(|| Some("off".into()));
    cfg
}

/// One pass over the grid, one emulated process per point: the
/// in-memory tier is cleared before each run, so every stage either
/// recomputes (cold) or loads from the store (warm). Touches the two
/// swept projections so per-point work matches the sweep bench.
fn grid_pass(cfg: &StudyConfig) {
    for gap in GRID {
        StageCache::global().clear();
        let mut point = cfg.clone();
        point.obs.carpet_gap_secs = gap as u32;
        let run = StudyRun::execute(&point);
        for id in [ObsId::Hopscotch, ObsId::AmpPot] {
            assert!(!run.weekly_series(id).values.is_empty());
        }
    }
}

/// Cumulative disk-tier counters summed across the three stages:
/// `[hit, miss, write, reject]`.
fn disk_counters() -> [u64; 4] {
    ["disk_hit", "disk_miss", "disk_write", "disk_reject"].map(|kind| {
        ["plan", "attacks", "observations"]
            .iter()
            .map(|stage| obs::metrics::counter(&format!("stage.{stage}.{kind}")).get())
            .sum()
    })
}

fn main() {
    let dir = std::env::temp_dir().join(format!("ddoscovery-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold: no disk tier — every emulated process recomputes the world.
    let cold_cfg = base(None);
    let cold_ns = median_ns(REPS, || grid_pass(&cold_cfg));

    // Warm: prime the store once, then measure fresh processes served
    // entirely from checksummed cells.
    let warm_cfg = base(Some(dir.display().to_string()));
    grid_pass(&warm_cfg);
    let before = disk_counters();
    let warm_ns = median_ns(REPS, || grid_pass(&warm_cfg));
    let [hit, miss, write, reject] = {
        let after = disk_counters();
        std::array::from_fn(|i| after[i] - before[i])
    };
    assert!(hit > 0, "warm phase never touched the store");
    assert_eq!(reject, 0, "primed cells must load cleanly");

    let points = GRID.len() as u64;
    let cold_ns_per_point = cold_ns / points;
    let warm_ns_per_point = warm_ns / points;
    let speedup = cold_ns_per_point as f64 / warm_ns_per_point.max(1) as f64;

    let manifest = bench_manifest(
        "store",
        &warm_cfg,
        vec![
            ("grid_points".into(), points),
            ("reps".into(), REPS as u64),
            ("warm_disk_hits".into(), hit),
            ("warm_disk_misses".into(), miss),
            ("warm_disk_writes".into(), write),
            ("warm_disk_rejects".into(), reject),
        ],
        vec![
            ("cold_median_ns_per_point".into(), cold_ns_per_point as f64),
            ("warm_median_ns_per_point".into(), warm_ns_per_point as f64),
            ("store_speedup".into(), speedup),
        ],
    );
    let path = write_bench_manifest("BENCH_store.json", &manifest);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "store: cold {cold_ns_per_point} ns/point, warm {warm_ns_per_point} ns/point \
         ({speedup:.1}x) -> {}",
        path.display()
    );
}
