//! `ddoscovery-bench` — the bench harness: every bench target is a
//! plain `main` (`harness = false`) that writes `BENCH_<name>.json` at
//! the workspace root. Repeated timings go through [`median_ns`], or
//! [`time_ns`] + [`median`] where samples of several kernels
//! interleave.
//!
//! Bench binaries:
//! * `pipeline` — generate / execute / project at quick scale, serial
//!   vs pooled;
//! * `sweep` — cold vs cache-warm observation-parameter sweep;
//! * `population` — attacks/sec per stage at the 1M and 10M scales;
//! * `store` — cold vs disk-warm per-process grid points;
//! * `http` — query-service throughput cold vs warm, and shed rate;
//! * `detectors` — micro-benches of the packet-level detectors
//!   (Corsaro, honeypot flow detection), LPM, correlation matrices,
//!   UpSet and the mechanistic substrates, plus the design ablations
//!   (event vs packet fidelity, campaign layering, Appendix-I
//!   reconstruction).
//!
//! Run them all with `cargo bench -p ddoscovery-bench` (`make
//! bench-json`). The `scale_probe` example shares the scaled paper
//! config of the `population` bench and reports per-process peak RSS.
//!
//! Every bench file shares one output schema: a full
//! [`obs::manifest::RunManifest`] whose gauges/counters carry the bench
//! measurements and whose run identity records the seed, worker count,
//! config fingerprint, and per-stage fingerprints. That makes a bench
//! file a first-class citizen of the run store — `ddoscovery runs diff
//! BENCH_sweep.json <older copy> --gate 50` is the whole `make regress`
//! implementation.

use ddoscovery::{ObsId, StageFingerprints, StudyConfig, StudyRun};
use obs::manifest::{fnv1a, RunInfo, RunManifest};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Approximate attack volume of `StudyConfig::paper()`, used to scale
/// the per-week base rates toward a requested target.
const PAPER_VOLUME: f64 = 600_000.0;

/// The workspace root, resolved from this crate's manifest directory —
/// `cargo bench` runs benches with the *package* directory as cwd, so
/// relative writes would land in `crates/bench/`.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// Package a bench result as a run manifest: `benchmark` becomes the
/// scenario label, the config contributes seed / workers / fingerprint
/// / per-stage fingerprints, and the measurements land in the metrics
/// section (counts as counters, rates and timings as gauges).
pub fn bench_manifest(
    benchmark: &str,
    cfg: &StudyConfig,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
) -> RunManifest {
    let config_json =
        serde_json::to_string(cfg).expect("study config serialization is infallible");
    let mut metrics = obs::metrics::MetricsSnapshot::default();
    metrics.counters.extend(counters);
    metrics.gauges.extend(gauges);
    let run = RunInfo {
        scenario: format!("bench-{benchmark}"),
        seed: cfg.seed,
        workers: cfg.workers,
        config_hash: fnv1a(config_json.as_bytes()),
        stages: StageFingerprints::of(cfg).manifest_entries(),
        degraded_weeks: Vec::new(),
    };
    let version = env!("CARGO_PKG_VERSION").to_string();
    let describe = format!("v{}-bench-{:08x}", version, run.config_hash as u32);
    RunManifest {
        schema: obs::manifest::SCHEMA,
        version,
        describe,
        run,
        metrics,
    }
}

/// Median wall-clock nanoseconds of `reps` calls of `f`, each timed
/// by [`time_ns`]. Panics on zero reps — a bench with no samples is a
/// bug, not a data point.
pub fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    median((0..reps).map(|_| time_ns(&mut f)).collect())
}

/// Wall-clock nanoseconds of one call of `f`, timed by an
/// [`obs::Stopwatch`]; the result passes through `black_box` so the
/// work cannot be optimized away.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> u64 {
    let watch = obs::Stopwatch::start();
    black_box(f());
    watch.elapsed_ns()
}

/// Median of a sample set (upper median for even counts). Panics on an
/// empty set.
pub fn median(mut samples: Vec<u64>) -> u64 {
    assert!(!samples.is_empty(), "median of zero samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// `StudyConfig::paper()` with its base rates scaled toward `target`
/// attacks, set up for one cold measured run: no cross-run reuse, no
/// projection gaps. Shared by the `population` bench and the
/// `scale_probe` example.
pub fn scaled_paper_config(target: f64) -> StudyConfig {
    let mut cfg = StudyConfig::paper();
    cfg.seed = 0x5CA1_AB1E;
    let scale = (target / PAPER_VOLUME).max(0.01);
    cfg.gen.timeline.dp_base_per_week *= scale;
    cfg.gen.timeline.ra_base_per_week *= scale;
    cfg.stage_cache = Some(0);
    cfg.missing_data = false;
    cfg
}

/// Touch every projection of `run` — each observatory's weekly series
/// and distinct target tuples, the Netscout baseline and the Akamai
/// tuples — and return the number of cells they hold.
pub fn touch_projections(run: &StudyRun) -> u64 {
    let mut cells = 0u64;
    for &id in &ObsId::ALL {
        cells += run.weekly_series(id).values.len() as u64;
        cells += run.target_tuples(id).len() as u64;
    }
    cells += run.netscout_baseline_tuples().len() as u64;
    cells += run.akamai_tuples().len() as u64;
    cells
}

/// Write `manifest` as `<file_name>` at the workspace root, returning
/// the absolute path.
pub fn write_bench_manifest(file_name: &str, manifest: &RunManifest) -> PathBuf {
    let path = workspace_root().join(file_name);
    std::fs::write(&path, manifest.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_manifests_round_trip_through_the_store_parser() {
        let cfg = StudyConfig::quick();
        let m = bench_manifest(
            "unit",
            &cfg,
            vec![("attacks".into(), 42)],
            vec![("generate_median_ns".into(), 1.5e6)],
        );
        assert_eq!(m.run.scenario, "bench-unit");
        assert_eq!(m.run.seed, cfg.seed);
        assert!(!m.run.stages.is_empty(), "stage fingerprints recorded");
        let back = RunManifest::from_json(&m.to_json()).expect("store parser accepts bench JSON");
        assert_eq!(back.metrics.counters["attacks"], 42);
        assert_eq!(back.run.config_hash, m.run.config_hash);
    }

    #[test]
    fn median_ns_calls_once_per_rep_and_takes_the_median() {
        // Sleeps are lower bounds on the elapsed time, so each sample
        // is at least its sleep; the gaps between sleeps absorb
        // scheduler overshoot.
        let ms = std::time::Duration::from_millis;
        for (sleeps, lo, hi) in [(vec![40, 0, 10], 10, 40), (vec![0, 60, 10, 30], 30, 60)] {
            let mut calls = 0;
            let ns = median_ns(sleeps.len(), || {
                std::thread::sleep(ms(sleeps[calls]));
                calls += 1;
            });
            assert_eq!(calls, sleeps.len());
            assert!(
                (lo * 1_000_000..hi * 1_000_000).contains(&ns),
                "{} reps: median {ns} ns outside [{lo}, {hi}) ms",
                sleeps.len()
            );
        }
    }

    #[test]
    fn workspace_root_is_the_repo_checkout() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates").is_dir());
    }
}
