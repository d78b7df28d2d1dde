//! The two serve workloads over one warm `StudyService`.
//!
//! `serve_reads`: two load threads send memoized cheap reads open-loop
//! at a fixed 200 req/s, then up a rate ladder to the highest rate that
//! meets the latency limit. `serve_mixed`: one thread sends the same
//! reads at 100 req/s while a second runs a closed loop of two-value
//! `carpet_gap_secs` sweeps whose values are fresh every time, so each
//! sweep misses the response memo and the observation cells.

use crate::check::{check_sweep, study_seed, HttpResp};
use crate::counters::{counter, Counters, WORKERS};
use crate::layers;
use crate::load::{self, cheap_routes, open_loop, read_mix, Firsts, StreamResult, SEQ_HEADER};
use crate::report::{Metrics, Outcome, STAGES};
use crate::spans::{SpanId, Spans};
use crate::stats::{self, find_max_rate, ladder, summarize, StepResult, TAIL_WINDOW};
use ddoscovery::stagecache::StageCache;
use ddoscovery::{DiskStore, ObsId, StageFingerprints, StudyConfig, StudyRun, StudyService};
use serve::{Handler, Request, Response};
use simcore::{ExecPool, SimRng};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cheap-read rate of the fixed-rate phase, per workload.
const READS_RATE: f64 = 200.0;
const MIXED_RATE: f64 = 100.0;
/// Cold studies priming the store, one per study seed (the first is the
/// served one): run_s is their median. Studies of different seeds
/// differ in cost, so covering several steadies run_s across workload
/// seeds.
const PRIME_SEEDS: u64 = 3;
/// Stage-cache bound of the served configuration, in entries: the boot
/// holds 14 and every two-value sweep adds 24, so the set-up sweeps
/// already bring the cache to its eviction steady state and the
/// measured phase stays in it.
const SERVE_STAGE_CACHE: usize = 64;
/// Setup repetitions: the reported set-up time is their median.
const READS_SETUP_REPS: usize = 9;
const MIXED_SETUP_REPS: usize = 3;
/// Requests per ladder step: enough for a p99 with 10 samples beyond.
const LADDER_STEP_REQUESTS: usize = 1000;
/// Up to 200 * 1.1^40 ≈ 9,000 req/s, far above today's knee.
const LADDER_STEPS: usize = 41;
const LADDER_STRIDE: usize = 8;
/// The experiment whose CSV is the "already rendered" cheap read.
const EXPERIMENT_CSV: &str = "/v1/experiments/table1/table1_trends.csv";
const SWEEP_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server and what it needs to stop.
struct Running {
    addr: SocketAddr,
    shutdown: serve::ShutdownHandle,
    thread: JoinHandle<serve::DrainReport>,
    handler: Option<Arc<TimedHandler>>,
}

impl Running {
    fn stop(self, o: &mut Outcome) {
        self.shutdown.shutdown();
        match self.thread.join() {
            Ok(report) if report.drained => {}
            Ok(_) => o.error("server did not drain before its deadline".into()),
            Err(_) => o.error("server thread panicked".into()),
        }
    }
}

/// A bench-side `Handler` around the service that times every call,
/// classifying it as a memo hit (a key seen before), a render (first
/// sight of a key) or a revalidation. Only the traced run installs it.
struct TimedHandler {
    inner: Arc<StudyService>,
    seen: Mutex<HashSet<String>>,
    hit_us: Mutex<Vec<f64>>,
    render_ms: Mutex<Vec<f64>>,
    /// Handle time of stream request `i` (by its sequence header), ns.
    by_seq: Vec<AtomicU64>,
}

impl TimedHandler {
    fn new(inner: Arc<StudyService>, max_seq: usize) -> TimedHandler {
        TimedHandler {
            inner,
            seen: Mutex::new(HashSet::new()),
            hit_us: Mutex::new(Vec::new()),
            render_ms: Mutex::new(Vec::new()),
            by_seq: (0..max_seq).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Handler for TimedHandler {
    fn handle(&self, req: &Request) -> Response {
        let t = Instant::now();
        let resp = self.inner.handle(req);
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(slot) = req
            .header(SEQ_HEADER)
            .and_then(|s| s.parse::<usize>().ok())
            .and_then(|i| self.by_seq.get(i))
        {
            slot.store(ns, Ordering::Relaxed);
        }
        let memoized = req.path != "/healthz" && !req.path.starts_with("/v1/sweep/");
        if memoized && req.header("if-none-match").is_none() {
            let key = format!("{}?{}", req.path, req.query);
            let first = self.seen.lock().expect("seen lock").insert(key);
            if first {
                self.render_ms
                    .lock()
                    .expect("render lock")
                    .push(ns as f64 / 1e6);
            } else {
                self.hit_us.lock().expect("hit lock").push(ns as f64 / 1e3);
            }
        }
        resp
    }
}

/// Everything one serve workload run needs.
pub struct ServeRun<'a> {
    pub mixed: bool,
    pub seed: u64,
    pub seconds: f64,
    pub spans: &'a Spans,
    pub parent: SpanId,
    pub out_dir: &'a Path,
}

impl ServeRun<'_> {
    pub fn run(&self) -> Outcome {
        let mut o = Outcome::default();
        let store_dir = self.out_dir.join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        self.run_in(&store_dir, &mut o);
        if let Err(e) = std::fs::remove_dir_all(&store_dir) {
            o.error(format!(
                "removing the stage store {}: {e}",
                store_dir.display()
            ));
        }
        o
    }

    fn run_in(&self, store_dir: &Path, o: &mut Outcome) {
        let spans = self.spans;
        let traced = spans.enabled();
        let mut rng = SimRng::new(self.seed).fork_named("perfbench.serve");
        let boot_cfg = store_config(self.seed, 0, store_dir);
        // Sweeps run against the memory stage cache only: writing their
        // fresh observation cells to disk would grow the store per sweep.
        let mut serve_cfg = boot_cfg.clone();
        serve_cfg.disk_store = Some("off".into());
        let pool = ExecPool::new(WORKERS);
        let rejects_before: u64 = STAGES
            .iter()
            .map(|s| counter(&format!("stage.{s}.disk_reject")))
            .sum();

        // Prime the store with cold studies of several study seeds, each
        // in a process of its own, so the memory they used does not count
        // towards this serving process's peak RSS; their median time is
        // run_s.
        let mut prime_s = Vec::new();
        for k in 0..PRIME_SEEDS {
            let _s = spans.open("prime", self.parent);
            o.attempted += 1;
            match prime_in_child(self.seed, k, store_dir) {
                Ok(secs) => prime_s.push(secs),
                Err(e) => {
                    o.failed += 1;
                    o.error(e);
                    return;
                }
            }
        }
        o.metrics.set("run_s", stats::median(&prime_s));
        if traced {
            let _s = spans.open("diskstore.load", self.parent);
            if let Err(e) = disk_loads(&boot_cfg, store_dir, &mut o.metrics) {
                o.error(e);
            }
        }

        // Set up several times: warm boot from the store, bind, and
        // first-touch every route of the mix.
        let routes = cheap_routes(EXPERIMENT_CSV);
        let mut sweep_values = SweepValues::default();
        let reps = if self.mixed {
            MIXED_SETUP_REPS
        } else {
            READS_SETUP_REPS
        };
        let max_seq = self.stream_requests_bound();
        let mut setup_s = Vec::new();
        let mut running: Option<Running> = None;
        let mut firsts = Firsts::new();
        let mut layer_inputs = None;
        for _ in 0..reps {
            if let Some(r) = running.take() {
                r.stop(o);
            }
            StageCache::global().clear();
            let setup = spans.open("setup", self.parent);
            let t = Instant::now();
            let run = {
                let _s = spans.open("boot", setup.id());
                StudyRun::execute_on(&boot_cfg, &pool)
            };
            // Only the traced serve_mixed run re-observes the attacks
            // layer by layer; holding them otherwise would inflate RSS.
            layer_inputs =
                (traced && self.mixed).then(|| (Arc::clone(&run.plan), Arc::clone(&run.attacks)));
            let service = Arc::new(StudyService::new(run, &serve_cfg, "paper"));
            let r = {
                let _s = spans.open("bind", setup.id());
                bind(&service, traced, max_seq)
            };
            let touch = spans.open("touch", setup.id());
            firsts.clear();
            for route in &routes {
                o.attempted += 1;
                match load::get(r.addr, route, None, None, load::READ_TIMEOUT) {
                    Ok(resp)
                        if resp.status == 200 && (route == "/healthz" || resp.etag.is_some()) =>
                    {
                        firsts.insert(route.clone(), resp);
                    }
                    Ok(resp) => {
                        o.failed += 1;
                        o.error(format!("setup {route}: status {}", resp.status));
                    }
                    Err(e) => {
                        o.failed += 1;
                        o.error(format!("setup {route}: {e}"));
                    }
                }
            }
            if self.mixed {
                let values = sweep_values.draw(&mut rng);
                o.attempted += 1;
                if let Err(e) = sweep(r.addr, &values) {
                    o.failed += 1;
                    o.error(format!("setup sweep: {e}"));
                }
            }
            drop(touch);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(setup);
            running = Some(r);
        }
        let r = running.expect("at least one setup repetition");
        if firsts.len() != routes.len() {
            r.stop(o);
            return;
        }
        o.metrics.set("setup_s", stats::median(&setup_s));

        let before = Counters::now();
        let reads_rate = if self.mixed { MIXED_RATE } else { READS_RATE };
        let reads = read_mix(
            &routes,
            (reads_rate * self.seconds).round() as usize,
            &mut rng,
        );
        let handler = r.handler.clone();
        let overhead_ms = Mutex::new(Vec::new());
        let on_done = |i: usize, latency_ms: f64| {
            if let Some(h) = &handler {
                let handle_ns = h.by_seq.get(i).map_or(0, |s| s.load(Ordering::Relaxed));
                overhead_ms
                    .lock()
                    .expect("overhead lock")
                    .push(latency_ms - handle_ns as f64 / 1e6);
            }
        };
        let phase = spans.open(if self.mixed { "mixed" } else { "fixed_rate" }, self.parent);
        let (stream, sweeps) = if self.mixed {
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let sweeper = scope.spawn(|| {
                    let _s = spans.open("sweeps", phase.id());
                    let mut lat = Vec::new();
                    let mut errors = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let values = sweep_values.draw(&mut rng);
                        let t = Instant::now();
                        let outcome = {
                            let _s = spans.open("sweep", phase.id());
                            sweep(r.addr, &values)
                        };
                        match outcome {
                            Ok(()) => lat.push(t.elapsed().as_secs_f64() * 1e3),
                            Err(e) => errors.push(e),
                        }
                    }
                    (lat, errors)
                });
                let stream = {
                    let _s = spans.open("reads", phase.id());
                    open_loop(r.addr, &reads, &firsts, reads_rate, 1, false, &on_done)
                };
                stop.store(true, Ordering::SeqCst);
                (stream, Some(sweeper.join().expect("sweep thread")))
            })
        } else {
            (
                open_loop(r.addr, &reads, &firsts, reads_rate, 2, true, &on_done),
                None,
            )
        };
        let phase_wall = before.at.elapsed().as_secs_f64();
        drop(phase);
        let after_phase = before.record_since(&mut o.metrics);
        self.read_metrics(&stream, o);

        if let Some((lat, errors)) = sweeps {
            o.attempted += (lat.len() + errors.len()) as u64;
            o.failed += errors.len() as u64;
            for e in errors {
                o.error(format!("sweep: {e}"));
            }
            o.metrics.set("sweep_p50_ms", stats::median(&lat));
            o.metrics.set("max_rps", lat.len() as f64 / phase_wall);
            let point_ns: f64 = lat.iter().sum::<f64>() * 1e6 * 2.0;
            let om = (after_phase.observe_merge_ns - before.observe_merge_ns) as f64;
            o.metrics
                .set("split.sweep_observe_merge_share", om / point_ns);
            if traced {
                let (plan, attacks) = layer_inputs.clone().expect("booted");
                let mut layer_cfg = serve_cfg.clone();
                layer_cfg.obs.carpet_gap_secs = sweep_values.draw(&mut rng)[0];
                let layers_span = spans.open("layers.observe", self.parent);
                layers::observe(
                    &layer_cfg,
                    &plan,
                    &attacks,
                    spans,
                    layers_span.id(),
                    &mut o.metrics,
                );
            }
        } else {
            // No request re-executes the study here; the closest are the
            // cold priming studies.
            let prime_ms: Vec<f64> = prime_s.iter().map(|s| s * 1e3).collect();
            o.metrics.set("sweep_p50_ms", stats::median(&prime_ms));
            let first = step_result(READS_RATE, &stream);
            let ladder_span = spans.open("ladder", self.parent);
            let (best, probed) = find_max_rate(
                &ladder(READS_RATE, LADDER_STEPS),
                LADDER_STRIDE,
                Some(first),
                |rate| {
                    let _s = spans.open(format!("ladder.{rate}"), ladder_span.id());
                    std::thread::sleep(Duration::from_millis(50));
                    let reads = read_mix(&routes, LADDER_STEP_REQUESTS, &mut rng);
                    let step = open_loop(r.addr, &reads, &firsts, rate, 2, true, &|_, _| {});
                    o.attempted += step.attempted;
                    o.failed += step.failed;
                    step_result(rate, &step)
                },
            );
            drop(ladder_span);
            for p in &probed {
                eprintln!(
                    "ladder {:>6.0} req/s: tail latency {:>9.3} ms, tail lateness {:>9.3} ms, {}",
                    p.rate,
                    p.latency_tail_ms,
                    p.lateness_tail_ms,
                    if p.passes() { "pass" } else { "fail" }
                );
            }
            // A ladder with no passing step is a measurement, not an
            // output error: the service answered, just too slowly.
            if best.is_none() {
                eprintln!("no ladder rate met the {} ms limit", stats::LIMIT_MS);
            }
            o.metrics.set("max_rps", best.unwrap_or(0.0));
        }

        if let Some(h) = &r.handler {
            let hits = h.hit_us.lock().expect("hit lock").clone();
            let renders = h.render_ms.lock().expect("render lock").clone();
            o.metrics
                .set("service.handle_us.memo_hit", stats::median(&hits));
            o.metrics
                .set("service.handle_ms.render", stats::median(&renders));
            o.metrics.set(
                "service.memo_hit_ratio",
                hits.len() as f64 / (hits.len() + renders.len()).max(1) as f64,
            );
            o.metrics.set(
                "serve.overhead_ms",
                stats::median(&overhead_ms.lock().expect("overhead lock")),
            );
        }
        r.stop(o);
        if let Some(bytes) = obs::peak_rss_bytes() {
            o.metrics.set("peak_rss_mb", bytes as f64 / 1e6);
        }
        let rejects: u64 = STAGES
            .iter()
            .map(|s| counter(&format!("stage.{s}.disk_reject")))
            .sum::<u64>()
            - rejects_before;
        o.metrics.set("diskstore.rejects", rejects as f64);
        if rejects > 0 {
            o.error(format!(
                "the freshly primed stage store rejected {rejects} cells"
            ));
        }
    }

    /// Upper bound on stream request indices, sizing the traced
    /// handler's per-request table.
    fn stream_requests_bound(&self) -> usize {
        let rate = if self.mixed { MIXED_RATE } else { READS_RATE };
        (rate * self.seconds).ceil() as usize + LADDER_STEP_REQUESTS + 1
    }

    fn read_metrics(&self, stream: &StreamResult, o: &mut Outcome) {
        o.attempted += stream.attempted;
        o.failed += stream.failed;
        for e in &stream.errors {
            o.error(format!("read {e}"));
        }
        let all = stream.in_order();
        if let (Some(s), Some((tail, windows))) =
            (summarize(&all), stats::windowed_tail(&all, TAIL_WINDOW))
        {
            o.metrics.set("read_p50_ms", s.median);
            o.metrics.set("read_p99_ms", tail);
            eprintln!(
                "reads at {} req/s: p50 {:.3} ms over {} requests ({} failed); p99 {:.3} ms as the median over {} window(s) of at least {} reads; whole-stream p{:.2} {:.3} ms",
                if self.mixed { MIXED_RATE } else { READS_RATE },
                s.median,
                s.n,
                stream.failed,
                tail,
                windows,
                TAIL_WINDOW,
                s.tail_pct * 100.0,
                s.tail
            );
        }
        let max_late = stream.lateness_ms.iter().copied().fold(0.0, f64::max);
        o.metrics.set("generator.max_lateness_ms", max_late);
        eprintln!("generator max lateness {max_late:.3} ms");
    }
}

/// Ladder verdict inputs of one stream: tails of latency (failures as
/// infinitely slow) and of lateness.
fn step_result(rate: f64, s: &StreamResult) -> StepResult {
    let latency = summarize(&s.in_order()).map_or(f64::INFINITY, |x| x.tail);
    let lateness = summarize(&s.lateness_ms).map_or(f64::INFINITY, |x| x.tail);
    StepResult {
        rate,
        latency_tail_ms: latency,
        lateness_tail_ms: lateness,
    }
}

/// The `k`-th study of workload seed `seed` as the serve workloads run
/// it: the paper study on two workers, the served stage-cache bound, and
/// the disk store at `store_dir`.
fn store_config(seed: u64, k: u64, store_dir: &Path) -> StudyConfig {
    let mut cfg = StudyConfig::paper();
    cfg.seed = study_seed(seed, k);
    cfg.workers = Some(WORKERS);
    cfg.stage_cache = Some(SERVE_STAGE_CACHE);
    cfg.disk_store = Some(store_dir.display().to_string());
    cfg
}

/// Run the `k`-th study of `seed` cold into the store at `store_dir` and
/// return its execute time in seconds. The benchmark runs this in a
/// child process of its own (`--prime-store`).
pub fn prime(seed: u64, k: u64, store_dir: &Path) -> f64 {
    let cfg = store_config(seed, k, store_dir);
    let t = Instant::now();
    std::hint::black_box(StudyRun::execute_on(&cfg, &ExecPool::new(WORKERS)));
    t.elapsed().as_secs_f64()
}

/// Run [`prime`] in a child process of this benchmark and wait for it.
fn prime_in_child(seed: u64, k: u64, store_dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--prime-store")
        .arg(store_dir)
        .args(["--seed", &seed.to_string(), "--study", &k.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the priming process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout
        .trim()
        .strip_prefix("prime_s ")
        .map(str::parse::<f64>)
    {
        Some(Ok(secs)) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "priming study {k} failed ({}): {stdout}",
            out.status
        )),
    }
}

/// Fresh `carpet_gap_secs` values: never repeated within a run, so no
/// sweep hits the response memo or a cached observation cell.
#[derive(Default)]
struct SweepValues(HashSet<u32>);

impl SweepValues {
    fn draw(&mut self, rng: &mut SimRng) -> [u32; 2] {
        let mut one = || loop {
            let v = rng.u64_range(60, 86_400) as u32;
            if v != 3600 && self.0.insert(v) {
                return v;
            }
        };
        [one(), one()]
    }
}

fn sweep(addr: SocketAddr, values: &[u32; 2]) -> Result<(), String> {
    let target = format!(
        "/v1/sweep/carpet_gap_secs?values={},{}",
        values[0], values[1]
    );
    let resp: HttpResp = load::get(addr, &target, None, None, SWEEP_TIMEOUT)?;
    check_sweep(&resp, values)
}

fn bind(service: &Arc<StudyService>, traced: bool, max_seq: usize) -> Running {
    let timed = traced.then(|| Arc::new(TimedHandler::new(Arc::clone(service), max_seq)));
    let handler: Arc<dyn Handler> = match &timed {
        Some(t) => t.clone(),
        None => service.clone(),
    };
    let server = serve::Server::bind(
        serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..serve::ServeConfig::default()
        },
        handler,
    )
    .expect("bind the benchmark server on a free loopback port");
    service.attach_shutdown(server.shutdown_handle());
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    Running {
        addr,
        shutdown,
        thread,
        handler: timed,
    }
}

/// Time `DiskStore::load_*` of the 14 stage cells of `cfg` from the
/// primed store (`diskstore.load_s`) and sum their sizes
/// (`diskstore.load_bytes`). Every cell must load.
fn disk_loads(cfg: &StudyConfig, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let store = DiskStore::open(dir.to_path_buf());
    let fp = StageFingerprints::of(cfg);
    let t = Instant::now();
    let mut loaded = store.load_plan(fp.plan).is_some() as usize
        + store.load_attacks(fp.attacks).is_some() as usize;
    for id in ObsId::ALL {
        loaded += store.load_observations(fp.observation(id)).is_some() as usize;
    }
    loaded += store.load_alerts(fp.netscout_alerts).is_some() as usize;
    m.set("diskstore.load_s", t.elapsed().as_secs_f64());
    let keys: HashSet<String> = [fp.plan, fp.attacks, fp.netscout_alerts]
        .into_iter()
        .chain(fp.observations)
        .map(|k| format!("{k:016x}"))
        .collect();
    let bytes: u64 = store
        .list()
        .iter()
        .filter(|c| keys.contains(&c.key))
        .map(|c| c.bytes)
        .sum();
    m.set("diskstore.load_bytes", bytes as f64);
    if loaded == 14 {
        Ok(())
    } else {
        Err(format!(
            "only {loaded} of 14 stage cells loaded from the primed store"
        ))
    }
}
