//! Content-addressed cross-run stage cache (DESIGN.md §7).
//!
//! [`crate::StudyRun::execute_on`] is an explicit three-stage
//! dataflow — `plan` → `attacks` → per-observatory `observations` —
//! and each stage output is a pure function of a *subset* of the
//! [`StudyConfig`] plus the outputs of earlier stages. This module
//! keys each stage by an FNV-1a fingerprint of exactly those inputs
//! and memoizes the outputs process-wide, so a parameter sweep (or any
//! repeated `try_execute`) recomputes only the stages whose inputs
//! actually changed: an observation-side sweep skips plan building and
//! attack generation entirely, and a `gen.timeline` sweep reuses the
//! Internet plan at every grid point.
//!
//! **Correctness invariant:** cached output is byte-identical to
//! recomputed output. That holds because (a) every stage is
//! deterministic in its fingerprinted inputs (the execution engine's
//! worker-invariance contract, DESIGN.md §4), and (b) the fingerprint
//! covers *all* inputs: the field inventory below assigns every
//! `StudyConfig` field to exactly one stage class, and a unit test
//! fails if a field is added without being classified — a new knob can
//! never silently alias two different scenarios onto one cache key.
//!
//! The cache is bounded (LRU over filled entries, default
//! [`DEFAULT_BOUND`]), thread-safe, and coalescing: concurrent misses
//! on the same key block on one compute instead of duplicating it.
//! Telemetry lands in the global `obs` registry as
//! `stage.<plan|attacks|observations>.{hit,computed,evicted}` and
//! therefore in every run manifest.
//!
//! Both tiers — this cache and the disk store under it
//! ([`crate::diskstore`]) — are generic over one [`StageOutput`]
//! trait, and the policy that stacks them lives in one place,
//! `Tiers`.

use crate::diskstore::DiskStore;
use crate::pipeline::ObsId;
use crate::scenario::StudyConfig;
use attackgen::{AttackColumns, ObservationColumns};
use flowmon::AlertColumns;
use netmodel::InternetPlan;
use obs::manifest::Fnv;
use obs::metrics::Counter;
use serde::Value;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Default stage-cache bound, in entries. One full study run occupies
/// 14 entries (1 plan + 1 attack stream + 11 observation streams + the
/// Netscout alert stream), so the default comfortably covers a
/// ~18-point sweep's working set.
pub const DEFAULT_BOUND: usize = 256;

/// Environment variable controlling the stage cache when
/// [`StudyConfig::stage_cache`] is `None`: `off` (or `0`) disables it,
/// an integer sets the entry bound.
pub const STAGE_CACHE_ENV: &str = "DDOSCOVERY_STAGE_CACHE";

/// Parse a [`STAGE_CACHE_ENV`] value: `off` (case-insensitive) means
/// bypass, otherwise an entry count. The CLI surfaces the `Err` as a
/// typed config error; library callers downgrade it to a warning.
pub fn parse_env_bound(v: &str) -> std::result::Result<usize, String> {
    let v = v.trim();
    if v.eq_ignore_ascii_case("off") {
        return Ok(0);
    }
    v.parse::<usize>()
        .map_err(|_| format!("expected `off` or an entry count, got {v:?}"))
}

/// Resolve the effective cache bound for a config: the config knob
/// wins, then [`STAGE_CACHE_ENV`], then [`DEFAULT_BOUND`]. `0` means
/// "bypass the cache". A malformed env value is *not* silently
/// ignored: it warns and falls back to the default bound.
pub fn resolve_bound(config: &StudyConfig) -> usize {
    if let Some(n) = config.stage_cache {
        return n;
    }
    if let Ok(v) = std::env::var(STAGE_CACHE_ENV) {
        match parse_env_bound(&v) {
            Ok(n) => return n,
            Err(message) => obs::warn!(
                "{STAGE_CACHE_ENV}: {message}; using the default bound {DEFAULT_BOUND}"
            ),
        }
    }
    DEFAULT_BOUND
}

// ---------------------------------------------------------------------
// Field inventory: every top-level StudyConfig field, classified.
// ---------------------------------------------------------------------

/// Stage classes a config field can feed. `plan`/`attacks`/
/// `observations` fields enter the corresponding fingerprint (and,
/// transitively, every downstream one); `projection` fields only shape
/// per-run projections computed *after* the cached stages (weekly-gap
/// masking); `execution` fields cannot change any output byte (worker
/// count, the cache bound itself).
pub const STAGE_CLASSES: [&str; 5] =
    ["plan", "attacks", "observations", "projection", "execution"];

/// The classification: `(serialized field name, stage class)`. Must
/// list every top-level [`StudyConfig`] field exactly once —
/// `field_inventory_is_exhaustive` fails otherwise, which is the
/// guard against silent cache poisoning when a field is added.
pub const FIELD_STAGES: &[(&str, &str)] = &[
    ("seed", "plan"),
    ("net", "plan"),
    ("gen", "attacks"),
    ("obs", "observations"),
    ("faults", "observations"),
    ("missing_data", "projection"),
    ("workers", "execution"),
    ("stage_cache", "execution"),
    ("disk_store", "execution"),
    ("chaos", "execution"),
];

/// Fold the serialized values of every field in `class` into `h`, in
/// inventory order. Hashing the serialized JSON keeps the fingerprint
/// sensitive to every nested knob (a new field inside `NetScale` or
/// `GenConfig` changes its parent's serialization and therefore the
/// fingerprint) without any per-field bookkeeping below the top level.
fn fold_class(h: &mut Fnv, config_value: &Value, class: &str) {
    for (field, stage) in FIELD_STAGES {
        if *stage != class {
            continue;
        }
        let v = config_value.get(field).unwrap_or(&Value::Null);
        let json = serde_json::to_string(v).expect("Value serialization is infallible");
        h.write(field.as_bytes()).write(b"=").write(json.as_bytes()).write(b";");
    }
}

/// Per-stage scenario fingerprints of one [`StudyConfig`]. Each stage
/// hash chains its upstream stage's hash, so invalidation flows down
/// the dataflow: a `net` change re-keys everything, a `gen` change
/// re-keys attacks + observations but leaves the plan key intact, an
/// `obs` change re-keys only the observation streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFingerprints {
    /// Key of the Internet plan: `seed` + `net`.
    pub plan: u64,
    /// Key of the ground-truth attack stream: plan key + `gen`.
    pub attacks: u64,
    /// Keys of the eleven final observation streams, indexed by
    /// `ObsId::index`: attacks key + `obs` + the observatory slug.
    pub observations: [u64; 11],
    /// Key of the raw Netscout alert stream (the §7.2 baseline input).
    pub netscout_alerts: u64,
}

impl StageFingerprints {
    /// Compute every stage fingerprint of `config`.
    pub fn of(config: &StudyConfig) -> StageFingerprints {
        let value =
            serde_json::to_value(config).expect("StudyConfig serialization is infallible");

        let mut h = Fnv::new();
        h.write(b"stage.plan\0");
        fold_class(&mut h, &value, "plan");
        let plan = h.finish();

        let mut h = Fnv::new();
        h.write(b"stage.attacks\0").write_u64(plan);
        fold_class(&mut h, &value, "attacks");
        let attacks = h.finish();

        let obs_key = |slug: &str| {
            let mut h = Fnv::new();
            h.write(b"stage.observations\0").write_u64(attacks);
            fold_class(&mut h, &value, "observations");
            h.write(slug.as_bytes());
            h.finish()
        };
        let mut observations = [0u64; 11];
        for id in ObsId::ALL {
            observations[id.index()] = obs_key(id.slug());
        }
        let netscout_alerts = obs_key("netscout_alerts");

        StageFingerprints {
            plan,
            attacks,
            observations,
            netscout_alerts,
        }
    }

    /// The observation-stream key of one observatory.
    pub fn observation(&self, id: ObsId) -> u64 {
        self.observations[id.index()]
    }

    /// Manifest entries (`run.stages` in the telemetry JSON): the plan
    /// and attack keys verbatim plus one hash folding all observation
    /// keys.
    pub fn manifest_entries(&self) -> Vec<(String, u64)> {
        let mut h = Fnv::new();
        for fp in self.observations {
            h.write_u64(fp);
        }
        h.write_u64(self.netscout_alerts);
        vec![
            ("plan".to_string(), self.plan),
            ("attacks".to_string(), self.attacks),
            ("observations".to_string(), h.finish()),
        ]
    }
}

// ---------------------------------------------------------------------
// The cache proper.
// ---------------------------------------------------------------------

/// Which stage a cache entry (or counter) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Plan,
    Attacks,
    Observations,
}

impl Stage {
    /// Every stage, in [`Stage::index`] order.
    pub const ALL: [Stage; 3] = [Stage::Plan, Stage::Attacks, Stage::Observations];

    pub const fn name(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::Attacks => "attacks",
            Stage::Observations => "observations",
        }
    }

    /// Position in [`Stage::ALL`]: the index of the stage's
    /// per-stage counter handles in both tiers.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// A stage output both tiers hold: the memory tier keys it by stage
/// for its counters, the disk tier frames its wire bytes into a cell
/// under the stage's directory with the payload kind in the header.
/// Observation streams and the Netscout alert stream share
/// [`Stage::Observations`] but carry distinct kinds, so a key
/// collision across them can never type-confuse a load.
pub trait StageOutput: Send + Sync + Sized + 'static {
    /// The stage whose counters and store directory the value uses.
    const STAGE: Stage;
    /// Payload kind tag of the disk cell (header byte 6).
    const KIND: u8;
    /// The type's deterministic wire encoding.
    fn encode(&self) -> Vec<u8>;
    /// Decode a wire payload, failing with `Err` (never a panic).
    fn decode(bytes: &[u8]) -> Result<Self, String>;
}

/// Implements [`StageOutput`] over a type's inherent
/// `to_wire_bytes`/`from_wire_bytes` codec.
macro_rules! stage_output {
    ($($ty:ty => $stage:ident, $kind:literal;)*) => {$(
        impl StageOutput for $ty {
            const STAGE: Stage = Stage::$stage;
            const KIND: u8 = $kind;
            fn encode(&self) -> Vec<u8> {
                self.to_wire_bytes()
            }
            fn decode(bytes: &[u8]) -> Result<Self, String> {
                Self::from_wire_bytes(bytes)
            }
        }
    )*};
}

// The kind tags are part of the cell format: never renumber them.
stage_output! {
    InternetPlan => Plan, 0;
    AttackColumns => Attacks, 1;
    ObservationColumns => Observations, 2;
    AlertColumns => Observations, 3;
}

/// Cache actions the flight recorder distinguishes.
#[derive(Debug, Clone, Copy)]
enum CacheEvent {
    Hit,
    Miss,
    Compute,
    Evict,
}

/// Static trace-event names, indexed by stage then [`CacheEvent`] —
/// the lookup hot path must not allocate just because tracing is
/// armed.
const CACHE_TRACE_NAMES: [[&str; 4]; 3] = [
    ["cache.plan.hit", "cache.plan.miss", "cache.plan.compute", "cache.plan.evict"],
    ["cache.attacks.hit", "cache.attacks.miss", "cache.attacks.compute", "cache.attacks.evict"],
    [
        "cache.observations.hit",
        "cache.observations.miss",
        "cache.observations.compute",
        "cache.observations.evict",
    ],
];

fn cache_trace_name(stage: Stage, event: CacheEvent) -> &'static str {
    CACHE_TRACE_NAMES[stage.index()][event as usize]
}

/// Mark a cache action on the flight recorder (no-op unless armed).
fn cache_trace(stage: Stage, event: CacheEvent, key: u64) {
    if obs::trace::enabled() {
        obs::trace::instant(cache_trace_name(stage, event), &[("key", key)]);
    }
}

/// A filled cache cell: the output, type-erased, next to the stage
/// whose counters it moves when evicted.
struct Entry {
    stage: Stage,
    value: Arc<dyn Any + Send + Sync>,
}

impl Entry {
    fn new<T: StageOutput>(value: Arc<T>) -> Entry {
        Entry {
            stage: T::STAGE,
            value,
        }
    }

    /// The value, if it is a `T` (keys of distinct kinds never
    /// collide, so `None` means "not this entry").
    fn get<T: StageOutput>(&self) -> Option<Arc<T>> {
        Arc::clone(&self.value).downcast().ok()
    }
}

/// One cache slot: the value cell plus its LRU stamp. The cell is
/// shared out under `Arc` so a compute can run *outside* the map lock
/// while concurrent same-key callers block on the `OnceLock` instead
/// of duplicating the work.
struct Slot {
    cell: Arc<OnceLock<Entry>>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Slot>,
    tick: u64,
}

/// Per-stage hit/computed/evicted counts, for tests and diagnostics.
/// `computed` counts stage *executions* (it advances even when the
/// cache is bypassed); `hit` counts lookups served from cache;
/// `evicted` counts entries dropped by the LRU bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    pub hit: u64,
    pub computed: u64,
    pub evicted: u64,
}

/// The bounded, thread-safe, in-process stage cache.
pub struct StageCache {
    inner: Mutex<Inner>,
    hit: [Arc<Counter>; 3],
    computed: [Arc<Counter>; 3],
    evicted: [Arc<Counter>; 3],
}

impl StageCache {
    fn new() -> StageCache {
        let handle = |kind: &str, stage: Stage| {
            obs::metrics::counter(&format!("stage.{}.{kind}", stage.name()))
        };
        StageCache {
            inner: Mutex::new(Inner::default()),
            hit: Stage::ALL.map(|s| handle("hit", s)),
            computed: Stage::ALL.map(|s| handle("computed", s)),
            evicted: Stage::ALL.map(|s| handle("evicted", s)),
        }
    }

    /// A cache with private (non-registry) counters: unit tests use
    /// this so concurrently-running tests cannot contaminate each
    /// other's counts through the shared global registry.
    #[cfg(test)]
    fn isolated() -> StageCache {
        let fresh = || Stage::ALL.map(|_| Arc::new(Counter::new()));
        StageCache {
            inner: Mutex::new(Inner::default()),
            hit: fresh(),
            computed: fresh(),
            evicted: fresh(),
        }
    }

    /// The process-wide cache every [`crate::StudyRun`] executes
    /// against.
    pub fn global() -> &'static StageCache {
        static GLOBAL: OnceLock<StageCache> = OnceLock::new();
        GLOBAL.get_or_init(StageCache::new)
    }

    /// Counter values of one stage (process-cumulative).
    pub fn stats(&self, stage: Stage) -> StageStats {
        let i = stage.index();
        StageStats {
            hit: self.hit[i].get(),
            computed: self.computed[i].get(),
            evicted: self.evicted[i].get(),
        }
    }

    /// Drop every entry (counters keep their cumulative values). For
    /// tests and memory-pressure escape hatches; correctness never
    /// depends on cache contents.
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Filled entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.values().filter(|s| s.cell.get().is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A poisoned lock is recovered, not propagated: the cache is a
    /// memoization side table and the `OnceLock` cells inside each
    /// slot stay individually consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The cell for `key` (created empty if absent). Bumps the LRU
    /// stamp.
    fn slot(&self, key: u64) -> Arc<OnceLock<Entry>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner.map.entry(key).or_insert_with(|| Slot {
            cell: Arc::new(OnceLock::new()),
            last_used: 0,
        });
        slot.last_used = tick;
        Arc::clone(&slot.cell)
    }

    /// Evict least-recently-used *filled* entries (never `protect`,
    /// never in-flight empties) until at most `bound` remain.
    fn enforce_bound(&self, bound: usize, protect: u64) {
        let mut inner = self.lock();
        loop {
            let filled = inner
                .map
                .iter()
                .filter(|(_, s)| s.cell.get().is_some())
                .count();
            if filled <= bound {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter(|(k, s)| **k != protect && s.cell.get().is_some())
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { return };
            if let Some(slot) = inner.map.remove(&victim) {
                if let Some(entry) = slot.cell.get() {
                    self.evicted[entry.stage.index()].inc();
                    cache_trace(entry.stage, CacheEvent::Evict, victim);
                }
            }
        }
    }

    /// Core memoization: return the cached value for `key`, computing
    /// (and caching) it on a miss. Concurrent misses on the same key
    /// coalesce onto one compute. `bound == 0` bypasses the cache
    /// entirely (the compute still counts as a stage execution).
    pub fn get_or_compute<T: StageOutput>(
        &self,
        bound: usize,
        key: u64,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        let stage = T::STAGE;
        if bound == 0 {
            self.computed[stage.index()].inc();
            let _t = obs::trace::Guard::new(
                cache_trace_name(stage, CacheEvent::Compute),
                Some(("key", key)),
            );
            return Arc::new(compute());
        }
        let cell = self.slot(key);
        let mut ran = false;
        let entry = cell.get_or_init(|| {
            ran = true;
            self.computed[stage.index()].inc();
            let _t = obs::trace::Guard::new(
                cache_trace_name(stage, CacheEvent::Compute),
                Some(("key", key)),
            );
            Entry::new(Arc::new(compute()))
        });
        let value = entry.get().expect("stage key resolved to a value of another kind");
        if ran {
            cache_trace(stage, CacheEvent::Miss, key);
            self.enforce_bound(bound, key);
        } else {
            // Filled at lookup, or a concurrent computer filled the
            // cell while we waited: served from cache either way.
            self.hit[stage.index()].inc();
            cache_trace(stage, CacheEvent::Hit, key);
        }
        value
    }

    /// Lookup-only: the cached value for `key`, if present. The
    /// two-tier flow probes memory before touching the disk, and the
    /// observation stage computes many entries jointly in one fan-out.
    pub fn get<T: StageOutput>(&self, bound: usize, key: u64) -> Option<Arc<T>> {
        if bound == 0 {
            return None;
        }
        let value = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.get_mut(&key).and_then(|slot| {
                slot.last_used = tick;
                slot.cell.get().and_then(Entry::get)
            })
        };
        let event = if value.is_some() {
            self.hit[T::STAGE.index()].inc();
            CacheEvent::Hit
        } else {
            CacheEvent::Miss
        };
        cache_trace(T::STAGE, event, key);
        value
    }

    /// Insert a freshly computed value under `key` and enforce the
    /// bound. Counts one stage execution.
    pub fn insert<T: StageOutput>(&self, bound: usize, key: u64, value: Arc<T>) {
        self.computed[T::STAGE.index()].inc();
        // The execution itself ran (and was traced) in the caller's
        // fan-out; mark the result entering the cache.
        cache_trace(T::STAGE, CacheEvent::Compute, key);
        self.adopt(bound, key, value);
    }

    /// Insert a value that was *loaded*, not computed — a disk-store
    /// hit entering the memory tier. Unlike [`StageCache::insert`]
    /// this does not advance `stage.<name>.computed` (that counter
    /// means stage executions; the disk tier counts its own
    /// `disk_hit`), and it emits no compute trace event.
    pub fn adopt<T: StageOutput>(&self, bound: usize, key: u64, value: Arc<T>) {
        if bound == 0 {
            return;
        }
        // A racer may have filled the slot with (identical) content
        // already; the first value wins and ours is dropped.
        let _ = self.slot(key).set(Entry::new(value));
        self.enforce_bound(bound, key);
    }
}

/// The two-tier stage policy, owned here and nowhere else: memory
/// first, then the disk store (loads adopted into memory), then a
/// coalesced compute that writes through to disk only when this
/// caller ran it. Loads are integrity-checked and a rejected cell
/// falls back to recompute, so enabling the store never changes an
/// output byte.
pub(crate) struct Tiers {
    cache: &'static StageCache,
    bound: usize,
    disk: Option<DiskStore>,
}

impl Tiers {
    /// The global cache at `config`'s bound over `config`'s store.
    pub(crate) fn of(config: &StudyConfig) -> Tiers {
        Tiers {
            cache: StageCache::global(),
            bound: resolve_bound(config),
            disk: crate::diskstore::resolve(config),
        }
    }

    /// The stored value for `key` from either tier, if any.
    pub(crate) fn lookup<T: StageOutput>(&self, key: u64) -> Option<Arc<T>> {
        self.cache.get(self.bound, key).or_else(|| {
            let loaded = self.disk.as_ref()?.load(key)?;
            self.cache.adopt(self.bound, key, Arc::clone(&loaded));
            Some(loaded)
        })
    }

    /// Enter a freshly computed value into both tiers.
    pub(crate) fn publish<T: StageOutput>(&self, key: u64, value: T) -> Arc<T> {
        let value = Arc::new(value);
        self.cache.insert(self.bound, key, Arc::clone(&value));
        self.write_through(key, &*value);
        value
    }

    /// The value for `key` from either tier, else computed once across
    /// concurrent callers and written through to disk.
    pub(crate) fn resolve<T: StageOutput>(&self, key: u64, compute: impl FnOnce() -> T) -> Arc<T> {
        if let Some(value) = self.lookup(key) {
            return value;
        }
        let mut fresh = false;
        let value = self.cache.get_or_compute(self.bound, key, || {
            fresh = true;
            compute()
        });
        if fresh {
            self.write_through(key, &*value);
        }
        value
    }

    fn write_through<T: StageOutput>(&self, key: u64, value: &T) {
        if let Some(disk) = &self.disk {
            disk.store(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// THE guard against silent cache poisoning: every top-level
    /// `StudyConfig` field must be classified in `FIELD_STAGES`, and
    /// every classified field must exist. Adding a config field
    /// without deciding which stage it invalidates fails here.
    #[test]
    fn field_inventory_is_exhaustive() {
        let value = serde_json::to_value(&StudyConfig::default()).unwrap();
        let Value::Object(fields) = &value else {
            panic!("StudyConfig must serialize to an object")
        };
        let serialized: BTreeSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let classified: BTreeSet<&str> = FIELD_STAGES.iter().map(|(f, _)| *f).collect();
        assert_eq!(
            classified.len(),
            FIELD_STAGES.len(),
            "a field is classified twice in FIELD_STAGES"
        );
        let unclassified: Vec<&&str> = serialized.difference(&classified).collect();
        assert!(
            unclassified.is_empty(),
            "StudyConfig field(s) {unclassified:?} not classified in \
             stagecache::FIELD_STAGES — assign each to a stage class \
             (plan/attacks/observations/projection/execution) or the \
             stage cache will serve stale results when they change"
        );
        let phantom: Vec<&&str> = classified.difference(&serialized).collect();
        assert!(
            phantom.is_empty(),
            "FIELD_STAGES classifies field(s) {phantom:?} that StudyConfig no longer has"
        );
        for (_, stage) in FIELD_STAGES {
            assert!(
                STAGE_CLASSES.contains(stage),
                "unknown stage class {stage:?}"
            );
        }
    }

    /// Invalidation flows down the dataflow and never up.
    #[test]
    fn fingerprints_track_their_stage_inputs() {
        let base = StageFingerprints::of(&StudyConfig::quick());

        // seed / net → everything changes.
        let mut cfg = StudyConfig::quick();
        cfg.seed ^= 1;
        let fp = StageFingerprints::of(&cfg);
        assert_ne!(fp.plan, base.plan);
        assert_ne!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);

        let mut cfg = StudyConfig::quick();
        cfg.net.tail_as_count += 1;
        let fp = StageFingerprints::of(&cfg);
        assert_ne!(fp.plan, base.plan);
        assert_ne!(fp.attacks, base.attacks);

        // gen → plan key survives, attacks + observations re-key.
        let mut cfg = StudyConfig::quick();
        cfg.gen.timeline.sav_reduction += 0.01;
        let fp = StageFingerprints::of(&cfg);
        assert_eq!(fp.plan, base.plan);
        assert_ne!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);
        assert_ne!(fp.netscout_alerts, base.netscout_alerts);

        // obs → only the observation streams re-key.
        let mut cfg = StudyConfig::quick();
        cfg.obs.carpet_gap_secs += 1;
        let fp = StageFingerprints::of(&cfg);
        assert_eq!(fp.plan, base.plan);
        assert_eq!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);

        // faults → only the observation streams re-key (a fault plan
        // changes what the observatories record, never the plan or the
        // ground-truth attacks).
        let mut cfg = StudyConfig::quick();
        cfg.faults.outages.push(crate::faults::OutageSpec {
            source: "ucsd".into(),
            start_week: 0,
            end_week: 4,
        });
        let fp = StageFingerprints::of(&cfg);
        assert_eq!(fp.plan, base.plan);
        assert_eq!(fp.attacks, base.attacks);
        assert_ne!(fp.observations, base.observations);

        // projection / execution knobs → no stage re-keys at all.
        // `chaos` is machine-checked here: control-plane fault
        // injection must never change an output byte.
        for poison in [
            (|c: &mut StudyConfig| c.missing_data = !c.missing_data) as fn(&mut StudyConfig),
            |c| c.workers = Some(7),
            |c| c.stage_cache = Some(3),
            |c| c.disk_store = Some("/tmp/elsewhere".into()),
            |c| c.chaos = Some(crate::faults::ChaosPlan::recoverable(0.5, 1)),
        ] {
            let mut cfg = StudyConfig::quick();
            poison(&mut cfg);
            assert_eq!(StageFingerprints::of(&cfg), base);
        }
    }

    #[test]
    fn observation_keys_differ_per_stream() {
        let fp = StageFingerprints::of(&StudyConfig::quick());
        let mut seen = BTreeSet::new();
        for key in fp.observations {
            assert!(seen.insert(key), "two observation streams share a key");
        }
        assert!(seen.insert(fp.netscout_alerts));
        assert_ne!(fp.plan, fp.attacks);
    }

    #[test]
    fn manifest_entries_name_all_three_stages() {
        let fp = StageFingerprints::of(&StudyConfig::quick());
        let entries = fp.manifest_entries();
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["plan", "attacks", "observations"]);
        assert_eq!(entries[0].1, fp.plan);
        assert_eq!(entries[1].1, fp.attacks);
    }

    #[test]
    fn bound_resolution_prefers_the_config_knob() {
        let mut cfg = StudyConfig::quick();
        cfg.stage_cache = Some(5);
        assert_eq!(resolve_bound(&cfg), 5);
        cfg.stage_cache = Some(0);
        assert_eq!(resolve_bound(&cfg), 0);
        // None falls back to env/default; with no env set in the test
        // process this is the default. (Env-var behaviour is covered by
        // the CLI subprocess tests, which control their environment.)
        cfg.stage_cache = None;
        if std::env::var(STAGE_CACHE_ENV).is_err() {
            assert_eq!(resolve_bound(&cfg), DEFAULT_BOUND);
        }
    }

    /// A private cache exercising coalescing, LRU eviction, and the
    /// bypass bound (independent of the global one, so this test is
    /// immune to other tests' traffic).
    #[test]
    fn cache_hits_evicts_and_bypasses() {
        let cache = StageCache::isolated();
        let make = |n: u64| -> Arc<ObservationColumns> { Arc::new(ObservationColumns::with_capacity(n as usize)) };

        let get = |bound, key| cache.get::<ObservationColumns>(bound, key);

        // Miss then hit.
        assert!(get(4, 1).is_none());
        cache.insert(4, 1, make(1));
        let got = get(4, 1).expect("hit after insert");
        assert_eq!(got.capacity(), 1);
        assert_eq!(cache.len(), 1);

        // LRU eviction at a tiny bound: key 1 is oldest once 2 and 3
        // land and 2 gets re-touched.
        cache.insert(2, 2, make(2));
        let _ = get(2, 2);
        cache.insert(2, 3, make(3));
        assert_eq!(cache.len(), 2);
        assert!(get(2, 1).is_none(), "LRU entry must be evicted");
        assert!(get(2, 2).is_some());
        assert!(get(2, 3).is_some());
        assert_eq!(cache.stats(Stage::Observations).evicted, 1);

        // bound == 0 bypasses entirely.
        cache.insert(0, 9, make(9));
        assert!(get(0, 9).is_none());
        assert!(get(4, 9).is_none());

        // get_or_compute: second call is a hit, compute runs once.
        let mut runs = 0;
        for _ in 0..3 {
            let plan_like = cache.get_or_compute(4, 77, || {
                runs += 1;
                AttackColumns::new()
            });
            assert_eq!(plan_like.len(), 0);
        }
        assert_eq!(runs, 1, "compute must run exactly once");
        assert_eq!(cache.stats(Stage::Attacks).computed, 1);
        assert_eq!(cache.stats(Stage::Attacks).hit, 2);

        cache.clear();
        assert!(cache.is_empty());
    }

    /// Adoption (disk-tier loads entering the memory tier) fills the
    /// slot without counting a stage execution — `computed` means "the
    /// stage actually ran", and a disk load is exactly the absence of
    /// that. Checked for every stage output kind.
    #[test]
    fn adopt_fills_without_counting_a_compute() {
        fn adopt_then_get<T: StageOutput>(cache: &StageCache, key: u64, v: T) {
            let before = cache.stats(T::STAGE);
            cache.adopt(4, key, Arc::new(v));
            assert!(cache.get::<T>(4, key).is_some());
            let after = cache.stats(T::STAGE);
            assert_eq!(after.computed, before.computed, "adopt must not count as a compute");
            assert_eq!(after.hit, before.hit + 1, "the lookup after adopt is a hit");
        }
        let cache = StageCache::isolated();
        let plan = InternetPlan::build(
            &netmodel::NetScale::tiny(),
            &mut simcore::rng::SimRng::new(1),
        );
        adopt_then_get(&cache, 5, plan);
        adopt_then_get(&cache, 6, AttackColumns::new());
        adopt_then_get(&cache, 7, ObservationColumns::new());
        adopt_then_get(&cache, 8, AlertColumns::new());
        for stage in Stage::ALL {
            assert_eq!(cache.stats(stage).computed, 0);
        }
        // bound 0 bypasses adoption like every other cache path.
        cache.adopt(0, 9, Arc::new(AttackColumns::new()));
        assert!(cache.get::<AttackColumns>(4, 9).is_none());
    }

    /// Concurrent same-key misses coalesce onto one compute.
    #[test]
    fn concurrent_misses_coalesce() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = StageCache::isolated();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (cache, runs) = (&cache, &runs);
                scope.spawn(move || {
                    let v = cache.get_or_compute(16, 42, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        AttackColumns::new()
                    });
                    assert_eq!(v.len(), 0);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let stats = cache.stats(Stage::Attacks);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.hit, 7);
    }

    /// Eviction churn racing a coalesced miss at the tightest bound:
    /// while thread A's compute for key 7 is in flight (its cell empty,
    /// therefore eviction-proof) thread B inserts two other keys
    /// through bound 1, forcing LRU evictions, and thread C coalesces
    /// onto A's cell. Nobody deadlocks, both A and C observe the same
    /// computed value, and the counters add up.
    #[test]
    fn concurrent_eviction_races_coalesced_miss() {
        use std::sync::Barrier;
        let cache = StageCache::isolated();
        let make = |n: usize| -> Arc<ObservationColumns> { Arc::new(ObservationColumns::with_capacity(n)) };
        // Rendezvous 1: A's compute has started; B may churn, C may
        // coalesce. Rendezvous 2: B's churn is done; A may finish.
        let in_flight = Barrier::new(3);
        let churned = Barrier::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                cache.get_or_compute(1, 7, || {
                    in_flight.wait();
                    churned.wait();
                    AttackColumns::new()
                })
            });
            let c = scope.spawn(|| {
                in_flight.wait();
                cache.get_or_compute::<AttackColumns>(1, 7, || {
                    panic!("C must coalesce onto A's compute, not re-run it")
                })
            });
            in_flight.wait();
            cache.insert(1, 100, make(1));
            cache.insert(1, 101, make(2));
            churned.wait();
            let a = a.join().expect("A must not deadlock or die");
            let c = c.join().expect("C must not deadlock or die");
            assert_eq!(a.len(), 0);
            assert_eq!(c.len(), 0);
        });
        // B's churn at bound 1 evicted at least one filled entry while
        // A's empty cell survived; A computed once, C hit.
        let attacks = cache.stats(Stage::Attacks);
        assert_eq!(attacks.computed, 1);
        assert_eq!(attacks.hit, 1);
        let observations = cache.stats(Stage::Observations);
        assert_eq!(observations.computed, 2);
        assert!(observations.evicted >= 1, "bound 1 churn must evict");
        // The cache stays usable afterwards: key 7 is now filled.
        let again = cache.get_or_compute::<AttackColumns>(4, 7, || panic!("must be served from cache"));
        assert_eq!(again.len(), 0);
    }

    /// A compute that panics must not wedge concurrent waiters on the
    /// same cell: every coalesced caller either computes or errors, and
    /// the cell recovers — a later compute can still fill it.
    #[test]
    fn panicked_compute_does_not_wedge_waiters() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = StageCache::isolated();
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (cache, attempts) = (&cache, &attempts);
                scope.spawn(move || {
                    let got = simcore::recover::capture("stagecache-test", || {
                        cache.get_or_compute::<AttackColumns>(8, 55, || {
                            attempts.fetch_add(1, Ordering::SeqCst);
                            panic!("injected compute failure")
                        })
                    });
                    let err = got.err().expect("every caller must error, not wedge");
                    assert!(err.message.contains("injected compute failure"));
                });
            }
        });
        assert!(
            attempts.load(Ordering::SeqCst) >= 1,
            "at least one caller must have attempted the compute"
        );
        // The cell recovered: a healthy compute fills it and later
        // lookups hit.
        let v = cache.get_or_compute(8, 55, AttackColumns::new);
        assert_eq!(v.len(), 0);
        let again = cache.get_or_compute::<AttackColumns>(8, 55, || panic!("must be a cache hit now"));
        assert_eq!(again.len(), 0);
    }
}
