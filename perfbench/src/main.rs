//! The benchmark of record for the ddoscovery reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_run|serve_reads|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), a run measures the workload for about
//! `--seconds` and prints every end-to-end metric. Traced (`--trace 1`),
//! it measures the workload twice for half the time each, first
//! untraced and then with the flight recorder armed and bench-side
//! spans open around every layer call, and prints every per-layer
//! metric (the read metrics among them), their tracing overhead, and the
//! root span's self time; the spans go to
//! `perfbench/out/trace-<workload>-<seed>.json` (Perfetto JSON). The
//! last line of standard output is the JSON result. See README.md.

mod check;
mod counters;
mod layers;
mod load;
mod paper_wl;
mod report;
mod serve_wl;
mod spans;
mod stats;

use report::{Outcome, END_TO_END};
use spans::Spans;
use std::path::Path;
use std::process::ExitCode;

/// Where traces and the serve workloads' stage store go, relative to
/// the checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

const WORKLOADS: [&str; 3] = ["paper_run", "serve_reads", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--prime-store DIR --study K`: the serve workloads' child process
    /// that primes the stage store with one cold study.
    prime: Option<(String, u64)>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut prime_store, mut study) = (None, 0);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--prime-store" => prime_store = Some(value),
            "--study" => {
                study = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad --study {value:?}"))?
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = match (workload, &prime_store) {
        (Some(w), _) => w,
        (None, Some(_)) => String::new(),
        (None, None) => return Err("--workload is required".into()),
    };
    if prime_store.is_none() && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; have {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        prime: prime_store.map(|dir| (dir, study)),
    })
}

/// Run `args.workload` once for `seconds`, with spans on or off.
fn measure(args: &Args, seconds: f64, spans: &Spans, digests: &mut paper_wl::Digests) -> Outcome {
    let root = spans.open(args.workload.clone(), 0);
    let out_dir = Path::new(OUT_DIR);
    let mut o = match args.workload.as_str() {
        "paper_run" => paper_wl::PaperRun {
            seed: args.seed,
            seconds,
            spans,
            parent: root.id(),
        }
        .run(digests),
        w => serve_wl::ServeRun {
            mixed: w == "serve_mixed",
            seed: args.seed,
            seconds,
            spans,
            parent: root.id(),
            out_dir,
        }
        .run(),
    };
    drop(root);
    o.metrics
        .set("failed_ratio", stats::failed_ratio(o.attempted, o.failed));
    o
}

fn run(args: &Args) -> Result<String, String> {
    if let Some((dir, k)) = &args.prime {
        return Ok(format!(
            "prime_s {}\n",
            serve_wl::prime(args.seed, *k, Path::new(dir))
        ));
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut digests = paper_wl::Digests::new();
    if !args.trace {
        let o = measure(args, args.seconds, &Spans::new(false), &mut digests);
        for e in &o.errors {
            eprintln!("check failed: {e}");
        }
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        return report::render(&o, &names, true);
    }

    let plain = measure(args, args.seconds / 2.0, &Spans::new(false), &mut digests);
    obs::trace::enable(obs::trace::DEFAULT_LANE_CAPACITY);
    let spans = Spans::new(true);
    let mut o = measure(args, args.seconds / 2.0, &spans, &mut digests);
    obs::trace::disable();
    for (name, _) in report::overhead_metrics() {
        if let (Some(traced), Some(untraced)) = (o.metrics.get(name), plain.metrics.get(name)) {
            o.metrics
                .set(&format!("trace_overhead.{name}"), traced - untraced);
        }
    }
    let records = spans.records();
    let root = records
        .iter()
        .find(|r| r.parent == 0)
        .ok_or("the traced run recorded no root span")?;
    let self_s = spans::self_secs(&records, root.id).expect("root span is recorded");
    o.metrics.set("trace.root_self_s", self_s);
    o.metrics.set("trace.root_self_share", self_s / root.secs());
    for (name, secs) in spans::totals(&records) {
        if !name.starts_with("read") {
            eprintln!("span {name:<40} {secs:>12.6} s");
        }
    }
    let path = format!("{OUT_DIR}/trace-{}-{}.json", args.workload, args.seed);
    obs::trace::export_to_file(&path).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("trace written to {path}");
    o.attempted += plain.attempted;
    o.failed += plain.failed;
    o.errors.extend(plain.errors);
    o.metrics
        .set("failed_ratio", stats::failed_ratio(o.attempted, o.failed));
    for e in &o.errors {
        eprintln!("check failed: {e}");
    }
    report::render(&o, &report::per_layer(), false)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
