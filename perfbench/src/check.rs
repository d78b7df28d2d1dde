//! Output checks: the artifact digest of a paper run and the response
//! checks of the serve workloads. A failed check marks its operation
//! failed and the whole run incorrect.

use ddoscovery::ExperimentResult;
use obs::manifest::Fnv;

/// The study seed of the paper's default configuration.
pub const DEFAULT_STUDY_SEED: u64 = 0xDD05C0DE;

/// The workload seed whose reference digest was recorded without being
/// used while the benchmark was written.
pub const HELD_OUT_SEED: u64 = 7919;

/// Recorded `(study seed, artifact digest)` of paper-scale studies: the
/// paper's default, and the first study of [`HELD_OUT_SEED`].
/// Regenerate with `--workload paper_run --seed <s>`, which prints the
/// digest of every study it runs.
pub const REFERENCE_DIGESTS: &[(u64, u64)] = &[
    (DEFAULT_STUDY_SEED, 0x62c4_8bec_3b59_f1e2),
    (study_seed(HELD_OUT_SEED, 0), 0x356d_71fe_f49b_fb73),
];

/// The `k`-th study seed a workload seed drives: `(0, 0)` is the
/// paper's default, every other pair a distinct study.
pub const fn study_seed(workload_seed: u64, k: u64) -> u64 {
    DEFAULT_STUDY_SEED
        ^ workload_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// FNV-1a over every experiment's CSV artifacts, in registry order:
/// each artifact contributes its experiment id, file name and bytes,
/// each NUL-terminated so no two layouts hash the same stream.
pub fn artifact_digest(results: &[ExperimentResult]) -> u64 {
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

/// The recorded digest for a study seed, if one exists.
pub fn reference_digest(study_seed: u64) -> Option<u64> {
    REFERENCE_DIGESTS
        .iter()
        .find(|(s, _)| *s == study_seed)
        .map(|&(_, d)| d)
}

/// Check one study's experiments: the registry order, and at least one
/// CSV artifact per experiment with a header and a data row.
pub fn check_experiment(id: &str, result: Option<&ExperimentResult>) -> Result<(), String> {
    let r = result.ok_or_else(|| format!("{id}: not in the registry"))?;
    if r.id != id {
        return Err(format!("{id}: result labelled {}", r.id));
    }
    if r.csv.is_empty() {
        return Err(format!("{id}: no CSV artifact"));
    }
    for (name, csv) in &r.csv {
        if csv.lines().take(2).count() < 2 {
            return Err(format!("{id}/{name}: fewer than two lines"));
        }
    }
    Ok(())
}

/// Check a study's digest: equal to the digest of every other study of
/// the same seed in the run, and to the recorded reference when the
/// study seed has one.
pub fn check_digest(study_seed: u64, first: Option<u64>, digest: u64) -> Result<(), String> {
    if let Some(first) = first {
        if first != digest {
            return Err(format!(
                "digest {digest:016x} differs from this run's first {first:016x}"
            ));
        }
    }
    match reference_digest(study_seed) {
        Some(want) if want != digest => Err(format!(
            "digest {digest:016x}, reference for study seed {study_seed:#x} is {want:016x}"
        )),
        _ => Ok(()),
    }
}

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResp {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

/// Check a cheap read against the first response to the same path: a
/// revalidation must answer 304 with the same ETag; any other read must
/// answer 200 with the first response's bytes and ETag.
pub fn check_read(first: &HttpResp, resp: &HttpResp, revalidation: bool) -> Result<(), String> {
    if revalidation {
        if resp.status != 304 {
            return Err(format!("revalidation answered {}", resp.status));
        }
        if resp.etag != first.etag {
            return Err(format!(
                "304 ETag {:?}, expected {:?}",
                resp.etag, first.etag
            ));
        }
        return Ok(());
    }
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    if resp.etag != first.etag {
        return Err(format!("ETag {:?}, expected {:?}", resp.etag, first.etag));
    }
    if resp.body != first.body {
        return Err(format!(
            "body of {} bytes differs from the first response",
            resp.body.len()
        ));
    }
    Ok(())
}

/// Observatories in a sweep row set: the ten main series.
pub const SWEEP_ROWS_PER_VALUE: usize = 10;

/// Check a sweep CSV: the header, exactly [`SWEEP_ROWS_PER_VALUE`] rows
/// per requested value, and no `skipped` row.
pub fn check_sweep(resp: &HttpResp, values: &[u32]) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("sweep status {}", resp.status));
    }
    let body =
        std::str::from_utf8(&resp.body).map_err(|_| "sweep body is not UTF-8".to_string())?;
    let mut lines = body.lines();
    if lines.next() != Some("value,observatory,observations,trend,change_4y") {
        return Err("sweep header missing".into());
    }
    let mut counts = vec![0usize; values.len()];
    for line in lines {
        let mut cols = line.split(',');
        let value = cols.next().and_then(|v| v.parse::<f64>().ok());
        if cols.next() == Some("skipped") {
            return Err(format!("skipped sweep row: {line}"));
        }
        let slot = value.and_then(|v| values.iter().position(|&want| f64::from(want) == v));
        match slot {
            Some(i) => counts[i] += 1,
            None => return Err(format!("sweep row for an unrequested value: {line}")),
        }
    }
    if let Some(i) = counts.iter().position(|&c| c != SWEEP_ROWS_PER_VALUE) {
        return Err(format!(
            "{} rows for value {}, expected {SWEEP_ROWS_PER_VALUE}",
            counts[i], values[i]
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &'static str, csv: &[(&str, &str)]) -> ExperimentResult {
        ExperimentResult {
            id,
            title: id.to_string(),
            body: String::new(),
            csv: csv
                .iter()
                .map(|(n, c)| (n.to_string(), c.to_string()))
                .collect(),
        }
    }

    #[test]
    fn a_perturbed_artifact_fails_the_digest_check() {
        let good = vec![
            result("table1", &[("t1.csv", "a,b\n1,2\n")]),
            result("fig2", &[("f2.csv", "x\n3\n")]),
        ];
        let digest = artifact_digest(&good);
        assert!(check_digest(1, Some(digest), digest).is_ok());
        let mut bad = good.clone();
        bad[1].csv[0].1 = "x\n4\n".to_string();
        let perturbed = artifact_digest(&bad);
        assert_ne!(perturbed, digest);
        assert!(check_digest(1, Some(digest), perturbed).is_err());
        // Moving bytes between artifact name and contents changes it too.
        let shifted = vec![
            result("table1", &[("t1.csva", ",b\n1,2\n")]),
            good[1].clone(),
        ];
        assert_ne!(artifact_digest(&shifted), digest);
        // A recorded reference is enforced even on a run's first study.
        let (seed, want) = REFERENCE_DIGESTS[0];
        assert!(check_digest(seed, None, want).is_ok());
        assert!(check_digest(seed, None, want ^ 1).is_err());
    }

    #[test]
    fn experiment_structure_is_checked() {
        assert!(
            check_experiment("table1", Some(&result("table1", &[("t.csv", "h\n1\n")]))).is_ok()
        );
        assert!(check_experiment("table1", None).is_err());
        assert!(check_experiment("table1", Some(&result("table1", &[]))).is_err());
        assert!(check_experiment("table1", Some(&result("table1", &[("t.csv", "h\n")]))).is_err());
        assert!(check_experiment("table1", Some(&result("fig2", &[("t.csv", "h\n1\n")]))).is_err());
    }

    #[test]
    fn seed_zero_is_the_paper_default() {
        assert_eq!(study_seed(0, 0), DEFAULT_STUDY_SEED);
        assert_eq!(study_seed(HELD_OUT_SEED, 0), 0x360e_6118_4c11_8d45);
        assert_ne!(study_seed(1, 0), study_seed(2, 0));
        assert_ne!(study_seed(1, 0), study_seed(1, 1));
    }

    fn resp(status: u16, etag: Option<&str>, body: &str) -> HttpResp {
        HttpResp {
            status,
            etag: etag.map(str::to_string),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn unexpected_503_and_changed_bodies_fail_the_read_check() {
        let first = resp(200, Some("\"e1\""), "week,n\n0,1\n");
        assert!(check_read(&first, &first.clone(), false).is_ok());
        assert!(check_read(
            &first,
            &resp(503, None, "over capacity; retry shortly\n"),
            false
        )
        .is_err());
        assert!(check_read(&first, &resp(503, None, ""), true).is_err());
        assert!(check_read(&first, &resp(200, Some("\"e1\""), "week,n\n0,2\n"), false).is_err());
        assert!(check_read(&first, &resp(200, Some("\"e2\""), "week,n\n0,1\n"), false).is_err());
        assert!(check_read(&first, &resp(304, Some("\"e1\""), ""), true).is_ok());
        assert!(check_read(&first, &resp(304, Some("\"e2\""), ""), true).is_err());
        assert!(check_read(&first, &resp(200, Some("\"e1\""), "week,n\n0,1\n"), true).is_err());
    }

    #[test]
    fn sweep_rows_are_counted_per_value() {
        let mut body = String::from("value,observatory,observations,trend,change_4y\n");
        for v in [1800, 3600] {
            for i in 0..10 {
                body.push_str(&format!("{v},obs{i},5,↑,0.5\n"));
            }
        }
        assert!(check_sweep(&resp(200, None, &body), &[1800, 3600]).is_ok());
        assert!(check_sweep(&resp(200, None, &body), &[1800, 3601]).is_err());
        assert!(check_sweep(&resp(200, None, &body), &[1800, 3600, 7200]).is_err());
        assert!(check_sweep(&resp(503, None, &body), &[1800, 3600]).is_err());
        let skipped = format!("{body}3600,skipped,,,\n");
        assert!(check_sweep(&resp(200, None, &skipped), &[1800, 3600]).is_err());
        let short: String = body.lines().take(20).map(|l| format!("{l}\n")).collect();
        assert!(check_sweep(&resp(200, None, &short), &[1800, 3600]).is_err());
    }
}
