//! Artifact pin for the analysis layer: every CSV that `run_all`
//! renders at quick scale, folded into one FNV-1a digest. The constant
//! was captured before the analysis kernels moved from hash joins to
//! sorted merges, so any rewrite of an experiment or an analytics
//! kernel must reproduce every artifact byte for byte, at any worker
//! count.

use ddoscovery::{run_all, ExperimentResult, StudyConfig, StudyRun};
use obs::manifest::Fnv;

/// Each artifact contributes its experiment id, file name and bytes,
/// each NUL-terminated so no two layouts hash the same stream.
fn artifact_digest(results: &[ExperimentResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        for (name, csv) in &r.csv {
            h.write(r.id.as_bytes()).write(b"\0");
            h.write(name.as_bytes()).write(b"\0");
            h.write(csv.as_bytes()).write(b"\0");
        }
    }
    h.finish()
}

fn digest_at(workers: usize) -> u64 {
    let mut cfg = StudyConfig::quick();
    cfg.workers = Some(workers);
    artifact_digest(&run_all(&StudyRun::execute(&cfg)))
}

/// Digest of every quick-scale experiment artifact, recorded on the
/// hash-join analysis code.
const GOLDEN: u64 = 0xbe80_6352_2f56_e7fd;

#[test]
fn every_experiment_artifact_matches_frozen_golden() {
    // The analysis kernels fan out on the run's pool; three workers cut
    // uneven shards.
    for workers in [1, 2, 3] {
        let got = digest_at(workers);
        assert_eq!(
            got, GOLDEN,
            "experiment artifacts diverged from the frozen reference \
             at workers={workers} (got {got:#018x})"
        );
    }
}
