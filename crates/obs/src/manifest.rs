//! Run manifests: one JSON document that says what a pipeline run
//! actually did — every counter, gauge, and latency histogram in the
//! registry, plus a fingerprint of the configuration that produced it.
//!
//! Counters and gauges derived from simulation state (observation
//! counts, cache hits, tasks dispatched) are deterministic in the
//! study seed; span and busy-time histograms are wall-clock and vary
//! run to run. Consumers that diff manifests should compare the former
//! exactly and the latter only as magnitudes.

use crate::metrics::{self, HistogramSnapshot, MetricsSnapshot};
use serde::{Serialize, Value};

/// Environment variable naming a manifest output path (the CLI's
/// `--telemetry` flag wins over it).
pub const TELEMETRY_ENV: &str = "DDOSCOVERY_TELEMETRY";

/// Schema version of the manifest JSON document.
pub const SCHEMA: u64 = 1;

/// Identity of the run: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Scenario label (`quick`, `paper`, `custom`, …).
    pub scenario: String,
    /// Master seed of the study.
    pub seed: u64,
    /// Explicit worker count, if one was pinned (flag or config).
    pub workers: Option<usize>,
    /// FNV-1a hash of the full serialized `StudyConfig` — a cheap
    /// git-describe-style fingerprint that changes whenever any knob
    /// does.
    pub config_hash: u64,
    /// Per-stage scenario fingerprints (`plan`, `attacks`,
    /// `observations`): the content-addressed keys the stage cache
    /// executes under (DESIGN.md §7). Empty when the producer predates
    /// the stage graph or chose not to record them.
    pub stages: Vec<(String, u64)>,
    /// Weeks blacked out per fault source by the run's fault plan
    /// (`(source, sorted week indices)`). Empty for a fault-free run;
    /// lets a manifest reader see *which* weeks of which observatory
    /// were degraded without replaying the plan.
    pub degraded_weeks: Vec<(String, Vec<u64>)>,
}

/// A complete run manifest.
#[derive(Debug, Clone)]
pub struct RunManifest {
    pub schema: u64,
    /// Package version plus a describe-style build string.
    pub version: String,
    pub describe: String,
    pub run: RunInfo,
    pub metrics: MetricsSnapshot,
}

/// Streaming FNV-1a hasher: the one fingerprint primitive of the
/// workspace. Config fingerprints ([`fnv1a`]) and the per-stage
/// scenario fingerprints behind the cross-run stage cache (DESIGN.md
/// §7) all fold through this, so a fingerprint is reproducible from
/// any crate that can name the same byte stream.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Fold a `u64` (little-endian) into the running hash — used to
    /// chain one stage fingerprint into the next.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv {
        self.write(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over arbitrary bytes; used for config fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

impl RunManifest {
    /// Snapshot the global registry under the given run identity.
    pub fn capture(run: RunInfo) -> RunManifest {
        let version = env!("CARGO_PKG_VERSION").to_string();
        let describe = option_env!("DDOSCOVERY_BUILD_DESCRIBE")
            .map(str::to_string)
            .unwrap_or_else(|| format!("v{}-offline-{:08x}", version, run.config_hash as u32));
        RunManifest {
            schema: SCHEMA,
            version,
            describe,
            run,
            metrics: metrics::global().snapshot(),
        }
    }

    /// The manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible")
    }

    /// A human-readable summary table (for stderr): top-level stage
    /// latencies, per-observatory counts, pool utilization, and cache
    /// behaviour.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== telemetry: {} run, seed {:#x}, workers {}, config {:016x} ==\n",
            self.run.scenario,
            self.run.seed,
            self.run
                .workers
                .map(|w| w.to_string())
                .unwrap_or_else(|| "default".into()),
            self.run.config_hash,
        ));
        if !self.metrics.histograms.is_empty() {
            out.push_str(&format!(
                "{:<34} {:>8} {:>10} {:>10} {:>10}\n",
                "stage / histogram", "samples", "~p50", "~p95", "mean"
            ));
            for (name, h) in &self.metrics.histograms {
                let mean = if h.count > 0 { h.sum / h.count } else { 0 };
                out.push_str(&format!(
                    "{:<34} {:>8} {:>10} {:>10} {:>10}\n",
                    name,
                    h.count,
                    fmt_mag(name, quantile(h, 0.50)),
                    fmt_mag(name, quantile(h, 0.95)),
                    fmt_mag(name, Some(mean)),
                ));
            }
        }
        if !self.metrics.counters.is_empty() {
            out.push_str(&format!("{:<34} {:>12}\n", "counter", "value"));
            for (name, v) in &self.metrics.counters {
                out.push_str(&format!("{name:<34} {v:>12}\n"));
            }
        }
        for (name, v) in &self.metrics.gauges {
            out.push_str(&format!("{name:<34} {v:>12.3}\n"));
        }
        if !self.run.degraded_weeks.is_empty() {
            out.push_str(&format!("{:<34} {:>12}\n", "degraded source", "weeks lost"));
            for (source, weeks) in &self.run.degraded_weeks {
                out.push_str(&format!("{:<34} {:>12}\n", source, weeks.len()));
            }
        }
        out
    }
}

/// Upper bound of the bucket where the cumulative count first reaches
/// `q · count` — a coarse quantile for summary tables and run diffs.
/// `u64::MAX` marks the overflow bucket; `None` if empty.
/// Public because the run store diffs stored histograms at p50/p99.
pub fn quantile(h: &HistogramSnapshot, q: f64) -> Option<u64> {
    if h.count == 0 {
        return None;
    }
    let target = (q * h.count as f64).ceil().max(1.0) as u64;
    let mut cum = 0;
    for (i, b) in h.buckets.iter().enumerate() {
        cum += b;
        if cum >= target {
            return Some(h.bounds.get(i).copied().unwrap_or(u64::MAX));
        }
    }
    Some(u64::MAX)
}

// ---------------------------------------------------------------------
// Deserialization (run store)
// ---------------------------------------------------------------------
//
// The persistent run store reads manifests back from disk; the vendored
// serde has no derive, so the reader is hand-rolled over `Value` and
// returns `Err` (never panics) on any structural mismatch — a corrupt
// or truncated stored manifest must degrade to a skipped entry.

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn as_u64(v: &Value, ctx: &str) -> Result<u64, String> {
    match v {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("{ctx}: expected unsigned integer, got {other:?}")),
    }
}

fn as_f64(v: &Value, ctx: &str) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        // The writer maps non-finite gauges to null.
        Value::Null => Ok(f64::NAN),
        other => Err(format!("{ctx}: expected number, got {other:?}")),
    }
}

fn as_str(v: &Value, ctx: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("{ctx}: expected string, got {other:?}")),
    }
}

fn as_entries<'a>(v: &'a Value, ctx: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Value::Object(entries) => Ok(entries),
        other => Err(format!("{ctx}: expected object, got {other:?}")),
    }
}

fn as_u64_array(v: &Value, ctx: &str) -> Result<Vec<u64>, String> {
    match v {
        Value::Array(items) => items.iter().map(|item| as_u64(item, ctx)).collect(),
        other => Err(format!("{ctx}: expected array, got {other:?}")),
    }
}

fn histogram_from_value(v: &Value, ctx: &str) -> Result<HistogramSnapshot, String> {
    Ok(HistogramSnapshot {
        bounds: as_u64_array(field(v, "bounds", ctx)?, ctx)?,
        buckets: as_u64_array(field(v, "buckets", ctx)?, ctx)?,
        count: as_u64(field(v, "count", ctx)?, ctx)?,
        sum: as_u64(field(v, "sum", ctx)?, ctx)?,
    })
}

impl RunManifest {
    /// Parse a manifest previously written by [`RunManifest::to_json`].
    /// Structural errors come back as `Err` with a field path — never a
    /// panic — so the run store can skip corrupt entries with a warning.
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        let v: Value =
            serde_json::from_str(text).map_err(|e| format!("manifest: invalid JSON: {e}"))?;
        let schema = as_u64(field(&v, "schema", "manifest")?, "manifest.schema")?;
        if schema > SCHEMA {
            return Err(format!(
                "manifest: schema {schema} is newer than supported {SCHEMA}"
            ));
        }
        let run_v = field(&v, "run", "manifest")?;
        let workers = match field(run_v, "workers", "manifest.run")? {
            Value::Null => None,
            other => Some(as_u64(other, "manifest.run.workers")? as usize),
        };
        let stages = as_entries(field(run_v, "stages", "manifest.run")?, "manifest.run.stages")?
            .iter()
            .map(|(name, fp)| Ok((name.clone(), as_u64(fp, "manifest.run.stages")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let degraded_weeks = as_entries(
            field(run_v, "degraded_weeks", "manifest.run")?,
            "manifest.run.degraded_weeks",
        )?
        .iter()
        .map(|(source, weeks)| {
            Ok((
                source.clone(),
                as_u64_array(weeks, "manifest.run.degraded_weeks")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
        let metrics_v = field(&v, "metrics", "manifest")?;
        let mut metrics = MetricsSnapshot::default();
        for (name, val) in as_entries(field(metrics_v, "counters", "manifest.metrics")?, "counters")?
        {
            metrics
                .counters
                .insert(name.clone(), as_u64(val, "manifest.metrics.counters")?);
        }
        for (name, val) in as_entries(field(metrics_v, "gauges", "manifest.metrics")?, "gauges")? {
            metrics
                .gauges
                .insert(name.clone(), as_f64(val, "manifest.metrics.gauges")?);
        }
        for (name, val) in as_entries(
            field(metrics_v, "histograms", "manifest.metrics")?,
            "histograms",
        )? {
            metrics.histograms.insert(
                name.clone(),
                histogram_from_value(val, "manifest.metrics.histograms")?,
            );
        }
        Ok(RunManifest {
            schema,
            version: as_str(field(&v, "version", "manifest")?, "manifest.version")?,
            describe: as_str(field(&v, "describe", "manifest")?, "manifest.describe")?,
            run: RunInfo {
                scenario: as_str(field(run_v, "scenario", "manifest.run")?, "scenario")?,
                seed: as_u64(field(run_v, "seed", "manifest.run")?, "manifest.run.seed")?,
                workers,
                config_hash: as_u64(
                    field(run_v, "config_hash", "manifest.run")?,
                    "manifest.run.config_hash",
                )?,
                stages,
                degraded_weeks,
            },
            metrics,
        })
    }
}

/// Render a magnitude: nanosecond histograms get time units, count
/// histograms plain numbers, overflow an `>top` marker.
fn fmt_mag(name: &str, v: Option<u64>) -> String {
    let Some(v) = v else { return "-".into() };
    if v == u64::MAX {
        return ">top".into();
    }
    if name.ends_with("_ns") || name.starts_with("span.") {
        if v >= 1_000_000_000 {
            format!("{:.2}s", v as f64 / 1e9)
        } else if v >= 1_000_000 {
            format!("{:.1}ms", v as f64 / 1e6)
        } else if v >= 1_000 {
            format!("{:.0}us", v as f64 / 1e3)
        } else {
            format!("{v}ns")
        }
    } else {
        v.to_string()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        obj(vec![
            ("bounds", self.bounds.to_value()),
            ("buckets", self.buckets.to_value()),
            ("count", Value::UInt(self.count)),
            ("sum", Value::UInt(self.sum)),
        ])
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        // Emit maps as JSON objects (names are strings); the vendored
        // serde's generic map impl would render [key, value] pairs.
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        );
        obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

impl Serialize for RunManifest {
    fn to_value(&self) -> Value {
        obj(vec![
            ("schema", Value::UInt(self.schema)),
            ("version", Value::Str(self.version.clone())),
            ("describe", Value::Str(self.describe.clone())),
            (
                "run",
                obj(vec![
                    ("scenario", Value::Str(self.run.scenario.clone())),
                    ("seed", Value::UInt(self.run.seed)),
                    (
                        "workers",
                        match self.run.workers {
                            Some(w) => Value::UInt(w as u64),
                            None => Value::Null,
                        },
                    ),
                    ("config_hash", Value::UInt(self.run.config_hash)),
                    (
                        "stages",
                        Value::Object(
                            self.run
                                .stages
                                .iter()
                                .map(|(name, fp)| (name.clone(), Value::UInt(*fp)))
                                .collect(),
                        ),
                    ),
                    (
                        "degraded_weeks",
                        Value::Object(
                            self.run
                                .degraded_weeks
                                .iter()
                                .map(|(source, weeks)| (source.clone(), weeks.to_value()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("metrics", self.metrics.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn streaming_fnv_matches_oneshot_and_chains() {
        let mut h = Fnv::new();
        h.write(b"ab").write(b"c");
        assert_eq!(h.finish(), fnv1a(b"abc"));
        // write_u64 folds the little-endian bytes.
        let mut a = Fnv::new();
        a.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            a.finish(),
            fnv1a(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
        // Chained stage hashes differ from unchained ones.
        let mut b = Fnv::new();
        b.write(b"stage").write_u64(1);
        let mut c = Fnv::new();
        c.write(b"stage").write_u64(2);
        assert_ne!(b.finish(), c.finish());
    }

    #[test]
    fn manifest_serializes_to_json_objects() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("gen.attacks".into(), 42);
        metrics.gauges.insert("pool.imbalance".into(), 1.25);
        metrics.histograms.insert(
            "span.run".into(),
            HistogramSnapshot {
                bounds: vec![10, 20],
                buckets: vec![1, 0, 0],
                count: 1,
                sum: 5,
            },
        );
        let m = RunManifest {
            schema: SCHEMA,
            version: "0.1.0".into(),
            describe: "v0.1.0-test".into(),
            run: RunInfo {
                scenario: "quick".into(),
                seed: 0xDD05_C0DE,
                workers: Some(4),
                config_hash: 7,
                stages: vec![("plan".into(), 11), ("attacks".into(), 22)],
                degraded_weeks: vec![("ucsd".into(), vec![3, 4, 5])],
            },
            metrics,
        };
        let json = m.to_json();
        assert!(json.contains("\"gen.attacks\": 42"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"ucsd\""));
        let v: Value = serde_json::from_str(&json).unwrap();
        let counters = v.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("gen.attacks"), Some(&Value::UInt(42)));
        let table = m.summary_table();
        assert!(table.contains("quick run"));
        assert!(table.contains("span.run"));
        assert!(table.contains("gen.attacks"));
        assert!(table.contains("degraded source"));

        // Round trip: from_json reconstructs every field exactly.
        let back = RunManifest::from_json(&json).expect("round trip parses");
        assert_eq!(back.schema, m.schema);
        assert_eq!(back.version, m.version);
        assert_eq!(back.run.scenario, m.run.scenario);
        assert_eq!(back.run.seed, m.run.seed);
        assert_eq!(back.run.workers, m.run.workers);
        assert_eq!(back.run.config_hash, m.run.config_hash);
        assert_eq!(back.run.stages, m.run.stages);
        assert_eq!(back.run.degraded_weeks, m.run.degraded_weeks);
        assert_eq!(back.metrics, m.metrics);
    }

    #[test]
    fn corrupt_manifests_error_instead_of_panicking() {
        for text in [
            "",
            "{",
            "not json at all",
            "{\"schema\": 1}",
            "{\"schema\": 999, \"version\": \"x\"}",
            "{\"schema\": 1, \"version\": 7, \"describe\": \"x\", \"run\": {}, \"metrics\": {}}",
        ] {
            assert!(
                RunManifest::from_json(text).is_err(),
                "must reject {text:?}"
            );
        }
    }
}
