//! The study pipeline: build the Internet, generate 4.5 years of
//! attacks, run every observatory, and expose the paper's two data
//! projections (weekly attack counts and daily target tuples).
//!
//! Execution is an explicit three-stage dataflow — `plan` → `attacks`
//! → per-observatory `observations` — with every stage output owned by
//! `Arc` and memoized across runs in the content-addressed
//! [`StageCache`](crate::stagecache::StageCache) (DESIGN.md §7). A
//! sweep that only moves an observation-side knob re-observes without
//! rebuilding the plan or regenerating attacks; a `gen` sweep reuses
//! the plan at every grid point.

use crate::scenario::StudyConfig;
use crate::stagecache::{StageFingerprints, Tiers};
use analytics::{TargetTuple, WeeklySeries};
use attackgen::{AttackColumns, AttackGenerator, AttackRef, ObservationColumns};
use flowmon::{
    split_by_class_columns, Akamai, AlertColumns, IxpBlackholing, IxpDetection, Netscout,
};
use honeypot::{reconstruct_carpet_columns, Honeypot};
use netmodel::InternetPlan;
use obs::metrics::Counter;
use serde::{Deserialize, Serialize};
use simcore::{Date, ExecPool, SimRng};
use std::sync::{Arc, OnceLock};
use telescope::Telescope;

/// The ten observatory series of Fig. 4, plus NewKid (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObsId {
    Orion,
    Ucsd,
    NetscoutDp,
    AkamaiDp,
    IxpDp,
    Hopscotch,
    AmpPot,
    NetscoutRa,
    AkamaiRa,
    IxpRa,
    NewKid,
}

impl ObsId {
    /// The ten main series, direct-path block first (Fig. 4 ordering).
    pub const MAIN_TEN: [ObsId; 10] = [
        ObsId::Orion,
        ObsId::Ucsd,
        ObsId::NetscoutDp,
        ObsId::AkamaiDp,
        ObsId::IxpDp,
        ObsId::Hopscotch,
        ObsId::AmpPot,
        ObsId::NetscoutRa,
        ObsId::AkamaiRa,
        ObsId::IxpRa,
    ];

    /// The four academic observatories of the §7 target analysis.
    pub const ACADEMIC: [ObsId; 4] = [ObsId::Orion, ObsId::Ucsd, ObsId::Hopscotch, ObsId::AmpPot];

    /// Every series the pipeline maintains: the main ten plus NewKid.
    pub const ALL: [ObsId; 11] = [
        ObsId::Orion,
        ObsId::Ucsd,
        ObsId::NetscoutDp,
        ObsId::AkamaiDp,
        ObsId::IxpDp,
        ObsId::Hopscotch,
        ObsId::AmpPot,
        ObsId::NetscoutRa,
        ObsId::AkamaiRa,
        ObsId::IxpRa,
        ObsId::NewKid,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            ObsId::Orion => "ORION",
            ObsId::Ucsd => "UCSD",
            ObsId::NetscoutDp => "Netscout (DP)",
            ObsId::AkamaiDp => "Akamai (DP)",
            ObsId::IxpDp => "IXP (DP)",
            ObsId::Hopscotch => "Hopscotch",
            ObsId::AmpPot => "AmpPot",
            ObsId::NetscoutRa => "Netscout (RA)",
            ObsId::AkamaiRa => "Akamai (RA)",
            ObsId::IxpRa => "IXP (RA)",
            ObsId::NewKid => "NewKid",
        }
    }

    /// Machine-friendly identifier (metric names, CSV columns).
    pub const fn slug(self) -> &'static str {
        match self {
            ObsId::Orion => "orion",
            ObsId::Ucsd => "ucsd",
            ObsId::NetscoutDp => "netscout_dp",
            ObsId::AkamaiDp => "akamai_dp",
            ObsId::IxpDp => "ixp_dp",
            ObsId::Hopscotch => "hopscotch",
            ObsId::AmpPot => "amppot",
            ObsId::NetscoutRa => "netscout_ra",
            ObsId::AkamaiRa => "akamai_ra",
            ObsId::IxpRa => "ixp_ra",
            ObsId::NewKid => "newkid",
        }
    }

    /// Does this series observe direct-path attacks (vs RA)?
    pub const fn is_direct_path(self) -> bool {
        matches!(
            self,
            ObsId::Orion | ObsId::Ucsd | ObsId::NetscoutDp | ObsId::AkamaiDp | ObsId::IxpDp
        )
    }

    pub(crate) const fn index(self) -> usize {
        match self {
            ObsId::Orion => 0,
            ObsId::Ucsd => 1,
            ObsId::NetscoutDp => 2,
            ObsId::AkamaiDp => 3,
            ObsId::IxpDp => 4,
            ObsId::Hopscotch => 5,
            ObsId::AmpPot => 6,
            ObsId::NetscoutRa => 7,
            ObsId::AkamaiRa => 8,
            ObsId::IxpRa => 9,
            ObsId::NewKid => 10,
        }
    }
}

/// Counts of projection computations performed so far (NOT lookups:
/// a memoized hit leaves these untouched). Exposed for the cache-hit
/// regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionStats {
    pub weekly_computed: usize,
    pub normalized_computed: usize,
    pub tuples_computed: usize,
    pub baseline_computed: usize,
    pub akamai_computed: usize,
}

/// The counters of one projection kind: a per-run compute count
/// (backs [`StudyRun::projection_stats`], resets with each run) plus
/// the process-cumulative registry handles.
///
/// The registry handles are resolved once, here, so a memoized hit
/// costs a single relaxed atomic increment — not a `format!`
/// allocation plus a registry map probe per lookup, which dominated
/// the old `memo()` hot path.
struct KindCounters {
    run_computed: Counter,
    hit: Arc<Counter>,
    computed: Arc<Counter>,
}

impl KindCounters {
    fn new(kind: &str) -> KindCounters {
        KindCounters {
            run_computed: Counter::new(),
            hit: obs::metrics::counter(&format!("project.{kind}.hit")),
            computed: obs::metrics::counter(&format!("project.{kind}.computed")),
        }
    }
}

/// Lazily-computed per-observatory projections. Every slot is a
/// `OnceLock`, so concurrent readers (sweep threads, experiment
/// renderers) each compute a projection at most once per run.
///
/// Registering the [`KindCounters`] up front also guarantees every run
/// manifest carries the full `project.<kind>.{hit,computed}` picture,
/// zeros included.
struct ProjectionCache {
    weekly: [OnceLock<WeeklySeries>; 11],
    normalized: [OnceLock<WeeklySeries>; 11],
    tuples: [OnceLock<Vec<TargetTuple>>; 11],
    baseline: OnceLock<Vec<TargetTuple>>,
    akamai: OnceLock<Vec<TargetTuple>>,
    weekly_counters: KindCounters,
    normalized_counters: KindCounters,
    tuples_counters: KindCounters,
    baseline_counters: KindCounters,
    akamai_counters: KindCounters,
}

impl ProjectionCache {
    fn new() -> Self {
        ProjectionCache {
            weekly: std::array::from_fn(|_| OnceLock::new()),
            normalized: std::array::from_fn(|_| OnceLock::new()),
            tuples: std::array::from_fn(|_| OnceLock::new()),
            baseline: OnceLock::new(),
            akamai: OnceLock::new(),
            weekly_counters: KindCounters::new("weekly"),
            normalized_counters: KindCounters::new("normalized"),
            tuples_counters: KindCounters::new("tuples"),
            baseline_counters: KindCounters::new("baseline"),
            akamai_counters: KindCounters::new("akamai"),
        }
    }
}

/// Memoized lookup with cache telemetry: a populated slot counts as a
/// `project.<kind>.hit`, a compute bumps both the per-run counter and
/// the registry's `project.<kind>.computed`.
fn memo<'a, T>(
    slot: &'a OnceLock<T>,
    counters: &KindCounters,
    compute: impl FnOnce() -> T,
) -> &'a T {
    if let Some(v) = slot.get() {
        counters.hit.inc();
        return v;
    }
    slot.get_or_init(|| {
        counters.run_computed.inc();
        counters.computed.inc();
        compute()
    })
}

/// One unit of observatory work: `(which observatory, which attack
/// shard)`. The execute fan-out flattens the cross product of the
/// *sources that need re-observing* onto the pool so a slow
/// observatory cannot serialize the others.
#[derive(Debug, Clone, Copy)]
struct ObsTask {
    observatory: usize,
    shard: usize,
}

/// Heterogeneous per-shard observatory output, already columnar. The
/// flow monitors split their two published series *per shard*; since
/// shards are input-ordered and merged in task order, per-class
/// concatenation reproduces the merge-then-split row order exactly.
enum ShardOut {
    Plain(ObservationColumns),
    Ixp {
        ra: ObservationColumns,
        dp: ObservationColumns,
    },
    Akamai {
        ra: ObservationColumns,
        dp: ObservationColumns,
    },
    Alerts(AlertColumns),
}

/// Record the process peak RSS (`VmHWM`) after a pipeline stage: once
/// under `run.peak_rss.<stage>` for per-stage attribution and once
/// under the overall `run.peak_rss` gauge, both of which land in the
/// JSON manifest and the stderr summary table. A pure side channel —
/// no-op where procfs is unavailable. Public so the CLI can stamp the
/// projection stage (`"project"`), which runs outside `execute_on`.
pub fn record_peak_rss(stage: &str) {
    if let Some(bytes) = obs::peak_rss_bytes() {
        obs::metrics::gauge(&format!("run.peak_rss.{stage}")).set(bytes as f64);
        obs::metrics::gauge("run.peak_rss").set(bytes as f64);
    }
}

/// Monomorphic plain-observer shard: one instantiation per call site,
/// so the per-attack observe call is direct (and inlinable) instead of
/// an opaque `dyn Fn` vtable dispatch in the hottest loop of the
/// fan-out. The observer appends detections straight into a columnar
/// sink — no per-observation `Vec<Ipv4>` ever exists.
fn observe_plain<F: Fn(AttackRef<'_>, &mut ObservationColumns) -> bool>(
    attacks: &AttackColumns,
    lo: usize,
    hi: usize,
    observe: F,
) -> ShardOut {
    let mut out = ObservationColumns::new();
    for i in lo..hi {
        observe(attacks.get(i), &mut out);
    }
    ShardOut::Plain(out)
}

/// A completed study run. The stage outputs (`plan`, `attacks`, the
/// observation streams) are `Arc`-owned: cache hits share one
/// allocation across runs, and the projections layer on top per run.
pub struct StudyRun {
    pub config: StudyConfig,
    /// Stage-1 output: the Internet plan.
    pub plan: Arc<InternetPlan>,
    /// Stage-2 output: the ground-truth attack stream, columnar (one
    /// shared target arena instead of a `Vec<Ipv4>` per attack).
    pub attacks: Arc<AttackColumns>,
    /// Stage-3 outputs: observation streams indexed by [`ObsId::index`].
    observations: Vec<Arc<ObservationColumns>>,
    /// All Netscout alerts (needed for the §7.2 baseline sample).
    pub netscout_alerts: Arc<AlertColumns>,
    /// The Netscout instance of this plan, kept for the baseline
    /// sample (rebuilding it per projection call was the old
    /// `netscout_baseline_tuples` hot spot).
    netscout: Netscout,
    /// The observatory RNG root the run executed with.
    obs_root: SimRng,
    cache: ProjectionCache,
}

impl StudyRun {
    /// Execute the full pipeline. Deterministic in `config.seed`,
    /// regardless of worker count: uses `config.workers` if set, else
    /// the process-wide default pool.
    ///
    /// Panics on an invalid config; callers handling untrusted configs
    /// (CLI, sweeps, fuzzing) should use [`StudyRun::try_execute`].
    pub fn execute(config: &StudyConfig) -> StudyRun {
        Self::try_execute(config).expect("StudyConfig failed validation")
    }

    /// Validate, then execute. The only failure mode is a typed
    /// [`Error::Config`](crate::Error::Config) from
    /// [`StudyConfig::validate`]; a config that passes validation runs
    /// to completion without panicking.
    pub fn try_execute(config: &StudyConfig) -> crate::error::Result<StudyRun> {
        config.validate()?;
        let pool = config.workers.map(ExecPool::new).unwrap_or_default();
        Ok(Self::execute_on(config, &pool))
    }

    /// Validate, then execute on a caller-provided pool.
    pub fn try_execute_on(
        config: &StudyConfig,
        pool: &ExecPool,
    ) -> crate::error::Result<StudyRun> {
        config.validate()?;
        Ok(Self::execute_on(config, pool))
    }

    /// Execute the three-stage dataflow on a caller-provided pool,
    /// against the global [`StageCache`](crate::StageCache) over the
    /// configured disk store.
    ///
    /// Each stage is looked up by its content fingerprint
    /// ([`StageFingerprints`]) and computed only on a miss, so repeated
    /// runs and sweep grids share the stages whose inputs are
    /// unchanged. Cached and recomputed outputs are byte-identical
    /// because every stage is deterministic in its fingerprinted
    /// inputs: stochastic units fork their RNG from immutable data —
    /// week index for generation, (attack id, observatory name) for
    /// observation — and the pool merges shard results in deterministic
    /// order regardless of worker count. Carpet reconstruction and the
    /// flow-monitor class splits remain ordered post-passes inside the
    /// observation stage.
    ///
    /// Stage spans (`plan`, `generate`, `observe`, `merge`) nest under
    /// whatever span the caller holds and are only opened when the
    /// stage actually computes — a fully warm run emits no stage spans.
    pub fn execute_on(config: &StudyConfig, pool: &ExecPool) -> StudyRun {
        // Every stage resolves through the memory cache over the disk
        // store (DESIGN.md §7, §11).
        let tiers = Tiers::of(config);
        let fp = StageFingerprints::of(config);
        let root = SimRng::new(config.seed);

        // Control-plane fault injection: attach the chaos schedule to
        // the pool (so every shard runs under bounded retry) and wrap
        // each stage compute, keyed by its content fingerprint — the
        // injection pattern is a pure function of the schedule and the
        // work's identity, never of worker count or cache state.
        let chaos = config.chaos.as_ref().map(|c| c.schedule());
        let pool = &match chaos {
            Some(cs) => pool.with_chaos(cs),
            None => *pool,
        };

        // Stage 1 — plan (inputs: seed + config.net).
        let plan = tiers.resolve(fp.plan, || {
            crate::faults::with_chaos(chaos.as_ref(), simcore::chaos::sites::STAGE_PLAN, fp.plan, || {
                let _s = obs::span!("plan");
                let mut plan_rng = root.fork_named("plan");
                InternetPlan::build(&config.net, &mut plan_rng)
            })
        });

        record_peak_rss("plan");

        // Stage 2 — attacks (inputs: plan + config.gen + seed).
        let attacks = tiers.resolve(fp.attacks, || {
            crate::faults::with_chaos(chaos.as_ref(), simcore::chaos::sites::STAGE_ATTACKS, fp.attacks, || {
                AttackGenerator::new(&plan, config.gen.clone(), &root).generate_study_on(pool)
            })
        });

        record_peak_rss("attacks");

        let obs_root = root.fork_named("observatories");
        // Always rebuilt (cheap, per-plan): the §7.2 baseline
        // projection samples through the run's own Netscout instance.
        let mut netscout = Netscout::with_defaults(&plan);
        netscout.faults = config.faults.for_source("netscout");

        // Data-plane fault bookkeeping: surface the plan's outage mask
        // in the metrics registry (and therefore every run manifest).
        if !config.faults.is_empty() {
            let masked: u64 = config
                .faults
                .degraded_weeks()
                .iter()
                .map(|(_, weeks)| weeks.len() as u64)
                .sum();
            obs::metrics::counter("fault.degraded_weeks").add(masked);
        }

        // Stage 3 — observations (inputs: plan + attacks + config.obs).
        // Each of the eleven final streams plus the raw Netscout alert
        // stream has its own content key; a source observatory
        // re-observes only if at least one of its output streams
        // missed.
        let mut streams: Vec<Option<Arc<ObservationColumns>>> = ObsId::ALL
            .iter()
            .map(|&id| tiers.lookup(fp.observation(id)))
            .collect();
        let mut alerts: Option<Arc<AlertColumns>> = tiers.lookup(fp.netscout_alerts);

        // Source indices of the fan-out; sources 5–7 each produce two
        // final streams (their RA/DP splits), source 7 also the raw
        // alert stream.
        const N_OBSERVATORIES: usize = 8;
        let need = |id: ObsId| streams[id.index()].is_none();
        let needed: [bool; N_OBSERVATORIES] = [
            need(ObsId::Ucsd),
            need(ObsId::Orion),
            need(ObsId::Hopscotch),
            need(ObsId::AmpPot),
            need(ObsId::NewKid),
            need(ObsId::IxpDp) || need(ObsId::IxpRa),
            need(ObsId::AkamaiDp) || need(ObsId::AkamaiRa),
            need(ObsId::NetscoutDp) || need(ObsId::NetscoutRa) || alerts.is_none(),
        ];

        if needed.iter().any(|&n| n) {
            let observe_span = obs::span!("observe");
            // Each observatory consults its slice of the fault plan
            // while observing (empty slices are bit-for-bit inert).
            let faults_for = |source: &str| config.faults.for_source(source);
            let mut ucsd = Telescope::ucsd(&plan);
            ucsd.faults = faults_for("ucsd");
            let mut orion = Telescope::orion(&plan);
            orion.faults = faults_for("orion");
            let mut hopscotch = Honeypot::hopscotch(&plan);
            hopscotch.faults = faults_for("hopscotch");
            let mut amppot = Honeypot::amppot(&plan);
            amppot.faults = faults_for("amppot");
            let mut newkid = Honeypot::newkid(&plan);
            newkid.faults = faults_for("newkid");
            let mut ixp = IxpBlackholing::with_defaults(&plan);
            ixp.faults = faults_for("ixp");
            let mut akamai = Akamai::with_defaults(&plan);
            akamai.faults = faults_for("akamai");

            // Flatten (needed source × attack-shard) onto the pool.
            // Tasks are ordered source-major / shard-minor and the pool
            // returns results in task order, so per-source
            // concatenation below reproduces a serial pass over the
            // whole population exactly.
            let chunk = simcore::pool::shard_size(attacks.len(), pool.workers());
            let n_shards = attacks.len().div_ceil(chunk).max(1);
            let tasks: Vec<ObsTask> = (0..N_OBSERVATORIES)
                .filter(|&source| needed[source])
                .flat_map(|observatory| {
                    (0..n_shards).map(move |shard| ObsTask { observatory, shard })
                })
                .collect();
            let shard_ns =
                obs::metrics::histogram("observe.shard_ns", &obs::metrics::LATENCY_NS);

            // Per-source accumulators the ordered fold below appends
            // into. Tasks are source-major / shard-minor and the fold
            // consumes results in task order, so each source's stream
            // is the concatenation of its shards in attack order —
            // exactly a serial pass — while every shard's
            // buffers free as soon as they are spliced in.
            let mut plain_streams: Vec<ObservationColumns> =
                (0..5).map(|_| ObservationColumns::new()).collect();
            let mut ixp_ra = ObservationColumns::new();
            let mut ixp_dp = ObservationColumns::new();
            let mut akamai_ra = ObservationColumns::new();
            let mut akamai_dp = ObservationColumns::new();
            let mut alerts_raw = AlertColumns::new();
            pool.par_chunks_fold(&tasks, 1, |_, task| {
                let watch = obs::Stopwatch::start();
                let ObsTask { observatory, shard } = task[0];
                let lo = shard * chunk;
                let hi = (lo + chunk).min(attacks.len());
                let out = match observatory {
                    0 => observe_plain(&attacks, lo, hi, |a, out| {
                        ucsd.observe_into(a, &obs_root, out)
                    }),
                    1 => observe_plain(&attacks, lo, hi, |a, out| {
                        orion.observe_into(a, &obs_root, out)
                    }),
                    2 => observe_plain(&attacks, lo, hi, |a, out| {
                        hopscotch.observe_into(a, &obs_root, out)
                    }),
                    3 => observe_plain(&attacks, lo, hi, |a, out| {
                        amppot.observe_into(a, &obs_root, out)
                    }),
                    4 => observe_plain(&attacks, lo, hi, |a, out| {
                        newkid.observe_into(a, &obs_root, out)
                    }),
                    5 => {
                        let mut ra = ObservationColumns::new();
                        let mut dp = ObservationColumns::new();
                        for i in lo..hi {
                            let a = attacks.get(i);
                            match ixp.observe_view(a, &obs_root) {
                                Some(IxpDetection::ReflectionAmplification) => {
                                    ra.push_row(a.id, a.start, a.targets)
                                }
                                Some(IxpDetection::DirectPath) => {
                                    dp.push_row(a.id, a.start, a.targets)
                                }
                                None => {}
                            }
                        }
                        ShardOut::Ixp { ra, dp }
                    }
                    6 => {
                        let mut ra = ObservationColumns::new();
                        let mut dp = ObservationColumns::new();
                        for i in lo..hi {
                            let a = attacks.get(i);
                            // The alert class is the attack class, so the
                            // RA/DP routing is known before observing.
                            let out = if a.class.is_reflection() { &mut ra } else { &mut dp };
                            akamai.observe_into(a, &obs_root, out);
                        }
                        ShardOut::Akamai { ra, dp }
                    }
                    _ => {
                        let mut out = AlertColumns::new();
                        for i in lo..hi {
                            let a = attacks.get(i);
                            if let Some((class, severity)) = netscout.observe_view(a, &obs_root)
                            {
                                out.push(a, class, severity);
                            }
                        }
                        ShardOut::Alerts(out)
                    }
                };
                if obs::enabled() {
                    shard_ns.record(watch.elapsed_ns());
                }
                out
            }, (), |(), idx, out| match out {
                ShardOut::Plain(v) => plain_streams[tasks[idx].observatory].append(v),
                ShardOut::Ixp { ra, dp } => {
                    ixp_ra.append(ra);
                    ixp_dp.append(dp);
                }
                ShardOut::Akamai { ra, dp } => {
                    akamai_ra.append(ra);
                    akamai_dp.append(dp);
                }
                ShardOut::Alerts(v) => alerts_raw.append(v),
            });
            drop(observe_span);
            let _merge_span = obs::span!("merge");
            let [ucsd_raw, orion_raw, hopscotch_raw, amppot_raw, newkid_raw]: [ObservationColumns;
                5] = plain_streams.try_into().expect("five plain streams");

            // Ordered post-passes: CCC / Appendix-I carpet
            // reconstruction merges concurrent same-prefix honeypot
            // events; the Netscout alert stream splits into its
            // published (RA, DP) series. A source that did not run
            // contributes empty columns here and its `store` below is a
            // no-op (its streams are already resolved from cache).
            let gap = i64::from(config.obs.carpet_gap_secs);
            let hopscotch_obs = reconstruct_carpet_columns(&plan, &hopscotch_raw, gap);
            let amppot_obs = reconstruct_carpet_columns(&plan, &amppot_raw, gap);
            let newkid_obs = reconstruct_carpet_columns(&plan, &newkid_raw, gap);

            let (netscout_ra, netscout_dp) = split_by_class_columns(&alerts_raw);

            // Publish every freshly observed stream: into both tiers
            // for the next run, into `streams` for this one.
            // Already-resolved slots keep their cached Arc (a source
            // can re-run because its *sibling* stream missed).
            let mut store = |id: ObsId, mut v: ObservationColumns| {
                if streams[id.index()].is_none() {
                    v.shrink_to_fit();
                    streams[id.index()] = Some(tiers.publish(fp.observation(id), v));
                }
            };
            store(ObsId::Ucsd, ucsd_raw);
            store(ObsId::Orion, orion_raw);
            store(ObsId::Hopscotch, hopscotch_obs);
            store(ObsId::AmpPot, amppot_obs);
            store(ObsId::NewKid, newkid_obs);
            store(ObsId::IxpDp, ixp_dp);
            store(ObsId::IxpRa, ixp_ra);
            store(ObsId::AkamaiDp, akamai_dp);
            store(ObsId::AkamaiRa, akamai_ra);
            store(ObsId::NetscoutDp, netscout_dp);
            store(ObsId::NetscoutRa, netscout_ra);
            if alerts.is_none() {
                alerts_raw.shrink_to_fit();
                alerts = Some(tiers.publish(fp.netscout_alerts, alerts_raw));
            }
        }

        record_peak_rss("observe");

        let observations: Vec<Arc<ObservationColumns>> = streams
            .into_iter()
            .map(|s| s.expect("every observation stream resolved"))
            .collect();
        let netscout_alerts = alerts.expect("netscout alert stream resolved");

        // Per-observatory kept-observation counts: together with
        // `gen.attacks` these answer "what did each stage actually do"
        // in any run's manifest. Counted per run whether the stream was
        // observed or served from cache.
        for id in ObsId::ALL {
            obs::metrics::counter(&format!("observe.count.{}", id.slug()))
                .add(observations[id.index()].len() as u64);
        }

        StudyRun {
            config: config.clone(),
            plan,
            attacks,
            observations,
            netscout_alerts,
            netscout,
            obs_root,
            cache: ProjectionCache::new(),
        }
    }

    /// Observations of one observatory, columnar.
    pub fn observations(&self, id: ObsId) -> &ObservationColumns {
        &self.observations[id.index()]
    }

    /// Raw weekly attack counts (§5 aggregation), with the paper's
    /// missing-data gaps masked when configured. Memoized per series.
    pub fn weekly_series(&self, id: ObsId) -> &WeeklySeries {
        memo(&self.cache.weekly[id.index()], &self.cache.weekly_counters, || {
            let mut s = WeeklySeries::new(id.name(), self.observations(id).weekly_counts());
            if self.config.missing_data {
                match id {
                    ObsId::Orion => {
                        // ORION missing 2019Q3–Q4 (§6.1).
                        let lo = Date::new(2019, 7, 1).to_sim_time().week_index() as usize;
                        let hi = Date::new(2020, 1, 1).to_sim_time().week_index() as usize;
                        s.mask_range(lo, hi);
                    }
                    ObsId::IxpDp | ObsId::IxpRa => {
                        // IXP missing January 2019.
                        let hi = Date::new(2019, 2, 1).to_sim_time().week_index() as usize;
                        s.mask_range(0, hi);
                    }
                    _ => {}
                }
            }
            // Fault-plan outage windows are *missing data*, not zero
            // counts: mask them so normalization, EWMA, regression and
            // correlations skip the gap instead of being poisoned by
            // artificial zeros.
            for (lo, hi) in self.config.faults.outage_ranges(id) {
                s.mask_range(lo, hi);
            }
            s
        })
    }

    /// Normalized weekly series (median of the first 15 present weeks).
    /// Memoized per series.
    pub fn normalized_series(&self, id: ObsId) -> &WeeklySeries {
        memo(
            &self.cache.normalized[id.index()],
            &self.cache.normalized_counters,
            || self.weekly_series(id).normalize_to_baseline(),
        )
    }

    /// All ten main series, normalized, in Fig.-4 order.
    pub fn all_ten_normalized(&self) -> Vec<WeeklySeries> {
        ObsId::MAIN_TEN
            .iter()
            .map(|&id| self.normalized_series(id).clone())
            .collect()
    }

    /// Distinct (day, target IP) tuples of one observatory (§7).
    /// Memoized per series.
    pub fn target_tuples(&self, id: ObsId) -> &[TargetTuple] {
        let v: &Vec<TargetTuple> =
            memo(&self.cache.tuples[id.index()], &self.cache.tuples_counters, || {
                self.observations(id).distinct_target_tuples()
            });
        v
    }

    /// Target tuples of the Netscout §7.2 baseline sample (~28 % of
    /// alerts). Memoized; reuses the run's own `Netscout` instance and
    /// observatory RNG root, and borrows the sampled observations
    /// instead of cloning them.
    pub fn netscout_baseline_tuples(&self) -> &[TargetTuple] {
        let v: &Vec<TargetTuple> =
            memo(&self.cache.baseline, &self.cache.baseline_counters, || {
                let alerts = &self.netscout_alerts;
                let mut tuples: Vec<TargetTuple> = Vec::new();
                for i in 0..alerts.len() {
                    let row = alerts.obs.get(i);
                    if self.netscout.baseline_keep(row.attack_id.0, &self.obs_root) {
                        tuples.extend(row.target_tuples());
                    }
                }
                tuples.sort_unstable();
                tuples.dedup();
                tuples
            });
        v
    }

    /// Counts of projection computations so far (cache instrumentation).
    pub fn projection_stats(&self) -> ProjectionStats {
        ProjectionStats {
            weekly_computed: self.cache.weekly_counters.run_computed.get() as usize,
            normalized_computed: self.cache.normalized_counters.run_computed.get() as usize,
            tuples_computed: self.cache.tuples_counters.run_computed.get() as usize,
            baseline_computed: self.cache.baseline_counters.run_computed.get() as usize,
            akamai_computed: self.cache.akamai_counters.run_computed.get() as usize,
        }
    }

    /// Target tuples of the Akamai §7.2 join: both classes, restricted
    /// to "targets in the network prefix of Akamai" — the narrow set of
    /// prefixes advertised from the Prolexic ASN, not the full
    /// protected customer base (which is why the paper's Akamai joins
    /// are ≈100× smaller than Netscout's). Memoized: the sort/dedup
    /// runs once per run, repeat calls borrow.
    pub fn akamai_tuples(&self) -> &[TargetTuple] {
        let v: &Vec<TargetTuple> =
            memo(&self.cache.akamai, &self.cache.akamai_counters, || {
                let mut all = self.target_tuples(ObsId::AkamaiRa).to_vec();
                all.extend_from_slice(self.target_tuples(ObsId::AkamaiDp));
                all.retain(|&(_, ip)| self.plan.akamai_announces(ip));
                all.sort_unstable();
                all.dedup();
                all
            });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared quick run for all pipeline tests.
    pub(crate) fn quick_run() -> &'static StudyRun {
        static RUN: OnceLock<StudyRun> = OnceLock::new();
        RUN.get_or_init(|| StudyRun::execute(&StudyConfig::quick()))
    }

    #[test]
    fn run_is_deterministic() {
        let a = StudyRun::execute(&StudyConfig::quick());
        let b = quick_run();
        assert_eq!(a.attacks.len(), b.attacks.len());
        for id in ObsId::MAIN_TEN {
            assert_eq!(
                a.observations(id).len(),
                b.observations(id).len(),
                "{} diverged",
                id.name()
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_gauges_recorded() {
        let _ = quick_run();
        assert!(obs::metrics::gauge("run.peak_rss").get() > 0.0);
        for stage in ["plan", "attacks", "observe"] {
            let g = obs::metrics::gauge(&format!("run.peak_rss.{stage}"));
            assert!(g.get() > 0.0, "run.peak_rss.{stage} not recorded");
        }
    }

    #[test]
    fn every_observatory_sees_something() {
        let run = quick_run();
        for id in ObsId::MAIN_TEN {
            assert!(
                !run.observations(id).is_empty(),
                "{} saw nothing",
                id.name()
            );
        }
        assert!(!run.observations(ObsId::NewKid).is_empty());
    }

    #[test]
    fn telescopes_only_see_spoofed_dp() {
        let run = quick_run();
        use std::collections::HashMap;
        let by_id: HashMap<u64, attackgen::AttackClass> =
            run.attacks.iter().map(|a| (a.id.0, a.class)).collect();
        for id in [ObsId::Ucsd, ObsId::Orion] {
            for o in run.observations(id).iter() {
                assert_eq!(
                    by_id[&o.attack_id.0],
                    attackgen::AttackClass::DirectPathSpoofed
                );
            }
        }
    }

    #[test]
    fn honeypots_only_see_ra() {
        let run = quick_run();
        use std::collections::HashMap;
        let by_id: HashMap<u64, attackgen::AttackClass> =
            run.attacks.iter().map(|a| (a.id.0, a.class)).collect();
        for id in [ObsId::Hopscotch, ObsId::AmpPot] {
            for o in run.observations(id).iter() {
                // Reconstructed events keep the id of their first
                // member; synthetic ids (u64::MAX range) never appear in
                // the event-level path.
                assert!(
                    by_id[&o.attack_id.0].is_reflection(),
                    "{} saw a DP attack",
                    id.name()
                );
            }
        }
    }

    #[test]
    fn ucsd_sees_more_than_orion() {
        let run = quick_run();
        let ucsd = run.observations(ObsId::Ucsd).len();
        let orion = run.observations(ObsId::Orion).len();
        assert!(
            ucsd > 2 * orion,
            "UCSD {ucsd} should dwarf ORION {orion} (24× size)"
        );
    }

    #[test]
    fn weekly_series_lengths() {
        let run = quick_run();
        for id in ObsId::MAIN_TEN {
            assert_eq!(run.weekly_series(id).len(), simcore::STUDY_WEEKS);
        }
    }

    #[test]
    fn missing_data_masks_applied() {
        let run = quick_run();
        let orion = run.weekly_series(ObsId::Orion);
        let w = Date::new(2019, 9, 1).to_sim_time().week_index() as usize;
        assert!(orion.values[w].is_nan(), "ORION 2019Q3 should be masked");
        let ixp = run.weekly_series(ObsId::IxpDp);
        assert!(ixp.values[1].is_nan(), "IXP January 2019 should be masked");
        // UCSD has no gaps.
        assert!(run.weekly_series(ObsId::Ucsd).values[w].is_finite());
    }

    #[test]
    fn normalized_series_baseline_near_one() {
        let run = quick_run();
        let s = run.normalized_series(ObsId::Ucsd);
        let early: Vec<f64> = s.present().take(15).map(|(_, v)| v).collect();
        let m = analytics::median(&early);
        assert!((m - 1.0).abs() < 0.2, "baseline median {m}");
    }

    #[test]
    fn netscout_baseline_is_subset() {
        let run = quick_run();
        let baseline = run.netscout_baseline_tuples();
        let mut full = run.target_tuples(ObsId::NetscoutRa).to_vec();
        full.extend_from_slice(run.target_tuples(ObsId::NetscoutDp));
        let full: std::collections::HashSet<_> = full.into_iter().collect();
        assert!(!baseline.is_empty());
        assert!(baseline.len() < full.len());
        assert!(baseline.iter().all(|t| full.contains(t)));
    }

    #[test]
    fn target_tuples_deduplicated() {
        let run = quick_run();
        let tuples = run.target_tuples(ObsId::Hopscotch);
        let set: std::collections::HashSet<_> = tuples.iter().collect();
        assert_eq!(set.len(), tuples.len());
    }

    #[test]
    fn akamai_tuples_memoized() {
        let run = StudyRun::execute(&StudyConfig::quick());
        assert_eq!(run.projection_stats().akamai_computed, 0);
        let first = run.akamai_tuples();
        assert_eq!(run.projection_stats().akamai_computed, 1);
        let second = run.akamai_tuples();
        // Still one compute, and the repeat call borrows the same data.
        assert_eq!(run.projection_stats().akamai_computed, 1);
        assert!(std::ptr::eq(first.as_ptr(), second.as_ptr()));
        assert_eq!(first, second);
    }
}
