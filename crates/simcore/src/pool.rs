//! Deterministic sharded execution pool.
//!
//! The whole study pipeline is embarrassingly parallel *as long as* no
//! worker ever touches shared RNG state: every stochastic component
//! forks its `SimRng` from immutable inputs (attack id, observatory
//! name, week index) before work is distributed. `ExecPool` exploits
//! that by splitting an input slice into index-tagged shards, letting
//! workers claim shards in whatever order the scheduler likes, and then
//! merging results back **in shard order** — so the output is bitwise
//! identical for 1, 2, or N workers.
//!
//! The pool is intentionally stateless (no resident worker threads):
//! each call opens a `std::thread::scope`, which makes it trivially
//! reentrant — a sweep thread can run a nested study fan-out on the
//! same pool handle without deadlock. Crossbeam/rayon would provide a
//! persistent work-stealing pool, but those crates are unavailable in
//! the offline build; scoped std threads cost one spawn per worker per
//! call, which is noise next to the millisecond-scale shards we feed
//! them.

use crate::chaos::{self, ChaosSchedule};
use crate::recover::{self, CaughtPanic};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Pool telemetry handles, fetched from the global registry once. Pure
/// side channel (see `obs`): recording never influences scheduling,
/// shard order, or results.
struct PoolMetrics {
    /// Fan-out calls that actually went parallel.
    calls: Arc<obs::metrics::Counter>,
    /// Shards dispatched across all calls (serial ones included).
    tasks: Arc<obs::metrics::Counter>,
    /// Per-worker busy time per parallel fan-out call.
    busy_ns: Arc<obs::metrics::Histogram>,
    /// max/mean worker busy time of the latest parallel fan-out — 1.0
    /// is a perfectly balanced call.
    imbalance: Arc<obs::metrics::Gauge>,
}

impl PoolMetrics {
    fn get() -> &'static PoolMetrics {
        static M: OnceLock<PoolMetrics> = OnceLock::new();
        M.get_or_init(|| PoolMetrics {
            calls: obs::metrics::counter("pool.calls"),
            tasks: obs::metrics::counter("pool.tasks"),
            busy_ns: obs::metrics::histogram("pool.worker_busy_ns", &obs::metrics::LATENCY_NS),
            imbalance: obs::metrics::gauge("pool.imbalance"),
        })
    }
}

/// Environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "DDOSCOVERY_WORKERS";

/// A stateless fork-join pool with a fixed worker budget.
///
/// An optional [`ChaosSchedule`] injects deterministic panics into shard
/// closures; each shard then runs under the bounded retry in
/// [`recover`], and a shard whose failures outlast the retry budget
/// surfaces as a panic on the **lowest failing shard index** after the
/// deterministic merge — never on whichever worker thread lost the race
/// — so even the failure mode is independent of the worker count.
#[derive(Debug, Clone, Copy)]
pub struct ExecPool {
    workers: usize,
    chaos: Option<ChaosSchedule>,
}

impl ExecPool {
    /// A pool with exactly `workers` workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> ExecPool {
        ExecPool { workers: workers.max(1), chaos: None }
    }

    /// The same pool with a chaos schedule attached to every shard.
    pub fn with_chaos(mut self, schedule: ChaosSchedule) -> ExecPool {
        self.chaos = Some(schedule);
        self
    }

    /// A single-threaded pool: every combinator degenerates to a plain
    /// serial loop.
    pub fn serial() -> ExecPool {
        ExecPool::new(1)
    }

    /// The process-wide default pool: worker count from
    /// [`WORKERS_ENV`] if set, otherwise `available_parallelism`.
    pub fn global() -> ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        *GLOBAL.get_or_init(|| ExecPool::new(default_workers()))
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Split `items` into contiguous shards of `chunk_size`, apply
    /// `f(shard_index, shard)` across workers, and return the results
    /// **in shard order** — the defining determinism guarantee: the
    /// output is a pure function of `(items, chunk_size, f)`, never of
    /// the worker count or scheduling order.
    pub fn par_chunks_indexed<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
        let metrics = PoolMetrics::get();
        metrics.tasks.add(chunks.len() as u64);
        if self.workers == 1 || chunks.len() <= 1 {
            return chunks
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let _t = obs::trace::Guard::new("pool.shard", Some(("shard", i as u64)));
                    unwrap_shard(i, self.call_shard(i, c, &f))
                })
                .collect();
        }
        metrics.calls.inc();

        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Result<R, CaughtPanic>)>> =
            Mutex::new(Vec::with_capacity(chunks.len()));
        let threads = self.workers.min(chunks.len());
        // Per-worker busy time, written once per worker after its loop
        // drains (slot writes are disjoint, so Relaxed is enough).
        let busy: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for slot in &busy {
                let (next, collected, chunks, f) = (&next, &collected, &chunks, &f);
                scope.spawn(move || {
                    let watch = obs::Stopwatch::start();
                    // Batch each worker's results locally; one lock
                    // acquisition per worker, not per shard.
                    let mut local: Vec<(usize, Result<R, CaughtPanic>)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(idx) else { break };
                        let r = {
                            let _t =
                                obs::trace::Guard::new("pool.shard", Some(("shard", idx as u64)));
                            self.call_shard(idx, chunk, &f)
                        };
                        local.push((idx, r));
                    }
                    collected
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .extend(local);
                    slot.store(watch.elapsed_ns() as usize, Ordering::Relaxed);
                });
            }
        });
        if obs::enabled() {
            let busy_ns: Vec<u64> = busy.iter().map(|b| b.load(Ordering::Relaxed) as u64).collect();
            let max = busy_ns.iter().copied().max().unwrap_or(0);
            let mean = busy_ns.iter().sum::<u64>() as f64 / busy_ns.len().max(1) as f64;
            for ns in busy_ns {
                metrics.busy_ns.record(ns);
            }
            if mean > 0.0 {
                metrics.imbalance.set(max as f64 / mean);
            }
        }

        let mut tagged = collected
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        tagged.sort_unstable_by_key(|(idx, _)| *idx);
        debug_assert_eq!(tagged.len(), chunks.len());
        tagged.into_iter().map(|(idx, r)| unwrap_shard(idx, r)).collect()
    }

    /// Like [`ExecPool::par_chunks_indexed`], but results are folded
    /// into an accumulator **in shard order, as they become ready**,
    /// instead of being collected whole: shard `k` is handed to `fold`
    /// as soon as shards `0..=k` have all completed, and freed once
    /// consumed. When shard results are large relative to what the fold
    /// retains (e.g. columnar population shards merged into one column
    /// set), this caps the high-water mark at "accumulator + in-flight
    /// shards" instead of "accumulator + every shard". The fold runs on
    /// the calling thread concurrently with the workers; the
    /// accumulator is a pure function of `(items, chunk_size, f, fold)`
    /// — never of worker count — and a shard whose chaos retries are
    /// exhausted panics on the lowest failing shard index, exactly like
    /// the collecting combinator.
    pub fn par_chunks_fold<T, R, A, F, G>(
        &self,
        items: &[T],
        chunk_size: usize,
        f: F,
        init: A,
        mut fold: G,
    ) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
        G: FnMut(&mut A, usize, R),
    {
        let chunk_size = chunk_size.max(1);
        let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
        let metrics = PoolMetrics::get();
        metrics.tasks.add(chunks.len() as u64);
        let mut acc = init;
        if self.workers == 1 || chunks.len() <= 1 {
            for (i, c) in chunks.iter().enumerate() {
                let r = {
                    let _t = obs::trace::Guard::new("pool.shard", Some(("shard", i as u64)));
                    unwrap_shard(i, self.call_shard(i, c, &f))
                };
                fold(&mut acc, i, r);
            }
            return acc;
        }
        metrics.calls.inc();

        let next = AtomicUsize::new(0);
        let ready: Mutex<std::collections::BTreeMap<usize, Result<R, CaughtPanic>>> =
            Mutex::new(std::collections::BTreeMap::new());
        let done = std::sync::Condvar::new();
        // Set when a worker unwinds with an *organic* panic (chaos
        // panics are caught by `call_shard`): the drain loop would
        // otherwise wait forever for a result that never arrives. The
        // timed wait below rechecks this flag, the drain stops, and the
        // scope join re-raises the worker's panic.
        let worker_died = std::sync::atomic::AtomicBool::new(false);
        let threads = self.workers.min(chunks.len());
        let busy: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for slot in &busy {
                let (next, ready, done, chunks, f) = (&next, &ready, &done, &chunks, &f);
                let worker_died = &worker_died;
                scope.spawn(move || {
                    let signal = SignalOnPanic(worker_died);
                    let watch = obs::Stopwatch::start();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(idx) else { break };
                        let r = {
                            let _t =
                                obs::trace::Guard::new("pool.shard", Some(("shard", idx as u64)));
                            self.call_shard(idx, chunk, f)
                        };
                        ready
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .insert(idx, r);
                        done.notify_all();
                    }
                    slot.store(watch.elapsed_ns() as usize, Ordering::Relaxed);
                    drop(signal);
                });
            }
            // Drain results in shard order while workers keep producing.
            'drain: for want in 0..chunks.len() {
                let r = {
                    let mut buf = ready.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                    match buf.remove(&want) {
                        Some(r) => r,
                        None => {
                            // The next in-order shard isn't ready: the
                            // reorder buffer blocks here, which is the
                            // interval the flight recorder surfaces.
                            let _wait = obs::trace::Guard::new(
                                "pool.reorder_wait",
                                Some(("shard", want as u64)),
                            );
                            loop {
                                if worker_died.load(Ordering::Acquire) {
                                    break 'drain;
                                }
                                buf = done
                                    .wait_timeout(buf, std::time::Duration::from_millis(20))
                                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                                    .0;
                                if let Some(r) = buf.remove(&want) {
                                    break r;
                                }
                            }
                        }
                    }
                };
                fold(&mut acc, want, unwrap_shard(want, r));
            }
        });
        if obs::enabled() {
            let busy_ns: Vec<u64> = busy.iter().map(|b| b.load(Ordering::Relaxed) as u64).collect();
            let max = busy_ns.iter().copied().max().unwrap_or(0);
            let mean = busy_ns.iter().sum::<u64>() as f64 / busy_ns.len().max(1) as f64;
            for ns in busy_ns {
                metrics.busy_ns.record(ns);
            }
            if mean > 0.0 {
                metrics.imbalance.set(max as f64 / mean);
            }
        }
        acc
    }

    /// Run one shard, applying the chaos schedule and bounded retry when
    /// one is attached. Without chaos this is a direct call: organic
    /// panics propagate exactly as before, and no unwind-capture frame
    /// is ever entered.
    fn call_shard<T, R, F>(&self, idx: usize, chunk: &[T], f: &F) -> Result<R, CaughtPanic>
    where
        F: Fn(usize, &[T]) -> R,
    {
        match self.chaos {
            None => Ok(f(idx, chunk)),
            Some(cs) => recover::try_with_retry(chaos::sites::POOL_SHARD, |attempt| {
                cs.maybe_fail(chaos::sites::POOL_SHARD, idx as u64, attempt);
                f(idx, chunk)
            }),
        }
    }

    /// Run `f(0..n)` across workers, returning results in index order.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let indices: Vec<usize> = (0..n).collect();
        let out = self.par_chunks_indexed(&indices, 1, |_, shard| f(shard[0]));
        out
    }
}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::global()
    }
}

/// Worker-side guard for [`ExecPool::par_chunks_fold`]: raises the
/// "worker died" flag when dropped during a panic unwind; a normal
/// drop is a no-op.
struct SignalOnPanic<'a>(&'a std::sync::atomic::AtomicBool);

impl Drop for SignalOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Unwrap a shard result, surfacing an exhausted retry as a panic tagged
/// with the shard index. Both the serial path (which visits shards in
/// order and short-circuits) and the parallel path (which panics on the
/// lowest index after the sorted merge) produce this message for the
/// same shard, keeping the failure deterministic across worker counts.
fn unwrap_shard<R>(idx: usize, r: Result<R, CaughtPanic>) -> R {
    match r {
        Ok(v) => v,
        Err(e) => panic!(
            "pool.shard[{idx}] failed after {} attempts: {}",
            recover::MAX_ATTEMPTS,
            e.message
        ),
    }
}

/// A shard size that gives each worker ~4 shards to claim, bounded so
/// tiny inputs still produce at least one shard.
pub fn shard_size(len: usize, workers: usize) -> usize {
    (len / (workers.max(1) * 4)).max(1)
}

fn default_workers() -> usize {
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_in_shard_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = ExecPool::serial().par_chunks_indexed(&items, 7, |i, c| (i, c.to_vec()));
        for workers in [2, 3, 8] {
            let par = ExecPool::new(workers).par_chunks_indexed(&items, 7, |i, c| (i, c.to_vec()));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn run_indexed_in_order() {
        let serial = ExecPool::serial().run_indexed(64, |i| i * i);
        let par = ExecPool::new(5).run_indexed(64, |i| i * i);
        assert_eq!(serial, par);
        assert_eq!(par[10], 100);
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<u8> = Vec::new();
        let out = ExecPool::new(4).par_chunks_indexed(&empty, 8, |_, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn transient_chaos_is_bitwise_invisible() {
        let items: Vec<u64> = (0..512).collect();
        let sum = |i: usize, c: &[u64]| (i as u64, c.iter().sum::<u64>());
        let base = ExecPool::new(4).par_chunks_indexed(&items, 8, sum);
        let cs = ChaosSchedule { seed: 5, probability: 0.4, failures_per_site: 2 };
        for workers in [1, 3, 8] {
            let out = ExecPool::new(workers).with_chaos(cs).par_chunks_indexed(&items, 8, sum);
            assert_eq!(base, out, "workers={workers}");
        }
    }

    #[test]
    fn permanent_chaos_panics_on_lowest_failing_shard() {
        let items: Vec<u64> = (0..256).collect();
        let cs = ChaosSchedule {
            seed: 5,
            probability: 0.3,
            failures_per_site: recover::MAX_ATTEMPTS,
        };
        let expected = (0..64u64)
            .find(|&i| cs.failures_at("pool.shard", i) > 0)
            .expect("p=0.3 over 64 shards must schedule a failure");
        for workers in [1, 4] {
            let err = recover::capture("test", || {
                ExecPool::new(workers)
                    .with_chaos(cs)
                    .par_chunks_indexed(&items, 4, |_, c| c.len())
            })
            .expect_err("permanent chaos must fail the fan-out");
            assert!(
                err.message.contains(&format!("pool.shard[{expected}]")),
                "workers={workers}: {}",
                err.message
            );
        }
    }

    #[test]
    fn fold_consumes_in_shard_order() {
        let items: Vec<u64> = (0..1000).collect();
        let run = |workers: usize| {
            ExecPool::new(workers).par_chunks_fold(
                &items,
                7,
                |i, c| (i, c.iter().sum::<u64>()),
                Vec::new(),
                |acc: &mut Vec<(usize, u64)>, idx, r| {
                    assert_eq!(idx, r.0);
                    assert_eq!(acc.len(), idx, "fold saw shard {idx} out of order");
                    acc.push(r);
                },
            )
        };
        let serial = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(serial, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn fold_with_transient_chaos_is_invisible() {
        let items: Vec<u64> = (0..512).collect();
        let cs = ChaosSchedule { seed: 5, probability: 0.4, failures_per_site: 2 };
        let run = |pool: ExecPool| {
            pool.par_chunks_fold(
                &items,
                8,
                |_, c| c.iter().sum::<u64>(),
                0u64,
                |acc, _, r| *acc += r,
            )
        };
        let base = run(ExecPool::new(4));
        assert_eq!(base, items.iter().sum::<u64>());
        for workers in [1, 3, 8] {
            assert_eq!(base, run(ExecPool::new(workers).with_chaos(cs)), "workers={workers}");
        }
    }

    #[test]
    fn fold_panics_on_lowest_failing_shard() {
        let items: Vec<u64> = (0..256).collect();
        let cs = ChaosSchedule {
            seed: 5,
            probability: 0.3,
            failures_per_site: recover::MAX_ATTEMPTS,
        };
        let expected = (0..64u64)
            .find(|&i| cs.failures_at("pool.shard", i) > 0)
            .expect("p=0.3 over 64 shards must schedule a failure");
        for workers in [1, 4] {
            let err = recover::capture("test", || {
                ExecPool::new(workers).with_chaos(cs).par_chunks_fold(
                    &items,
                    4,
                    |_, c| c.len(),
                    0usize,
                    |acc, _, r| *acc += r,
                )
            })
            .expect_err("permanent chaos must fail the fold");
            assert!(
                err.message.contains(&format!("pool.shard[{expected}]")),
                "workers={workers}: {}",
                err.message
            );
        }
    }

    #[test]
    fn fold_survives_organic_worker_panic() {
        // An uncaught panic inside the shard closure must not deadlock
        // the ordered drain; it surfaces as a panic from the fold call.
        let items: Vec<u64> = (0..64).collect();
        for workers in [1, 4] {
            let err = recover::capture("test", || {
                ExecPool::new(workers).par_chunks_fold(
                    &items,
                    4,
                    |i, c| {
                        assert!(i != 9, "shard nine always dies");
                        c.len()
                    },
                    0usize,
                    |acc, _, r| *acc += r,
                )
            })
            .expect_err("the organic panic must propagate");
            // Serial folds re-raise the original payload; parallel ones
            // surface it through the scope join. Either way the call
            // returns (the deadlock this test guards against would hang
            // here forever).
            assert!(
                err.message.contains("shard nine") || err.message.contains("scoped thread"),
                "workers={workers}: {}",
                err.message
            );
        }
    }

    #[test]
    fn reentrant_nested_use_does_not_deadlock() {
        let pool = ExecPool::new(2);
        let outer = pool.run_indexed(4, |i| {
            let inner = pool.run_indexed(8, |j| i * 100 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(outer.len(), 4);
        assert_eq!(outer[0], (0..8).sum::<usize>());
    }
}
