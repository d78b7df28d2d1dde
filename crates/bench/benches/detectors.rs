//! Micro-benchmarks of the detection and analytics hot paths — Corsaro
//! packet ingestion, honeypot flow detection, LPM, correlation
//! matrices, the UpSet join, the mechanistic substrates — plus the
//! design ablations DESIGN.md calls out:
//!
//! * event-level vs packet-level observation cost — the reason the
//!   macro study uses the analytic path;
//! * attack generation with and without campaign layering;
//! * Appendix-I carpet-bombing reconstruction on honeypot streams.
//!
//! Serial vs pooled observatory fan-out is measured on the production
//! pipeline by the `pipeline` bench (`BENCH_pipeline.json`).
//!
//! Writes `BENCH_detectors.json` at the workspace root: one
//! `<group>.<name>_median_ns` gauge per kernel (nanoseconds per call),
//! plus `<group>.<name>_per_sec` elements per second where the kernel
//! processes a known number of elements.

use attackgen::packets::backscatter_packets;
use attackgen::{
    Attack, AttackClass, AttackColumns, AttackGenerator, BooterMarket, BooterMarketParams,
    GenConfig, ObservationColumns, PacketEvent, SavModel, SavParams,
};
use ddoscovery::StudyConfig;
use ddoscovery_bench::{bench_manifest, median, time_ns, write_bench_manifest};
use honeypot::{reconstruct_carpet_columns, Honeypot, HoneypotConfig, HoneypotDetector};
use netmodel::{AmpVector, Asn, InternetPlan, Ipv4, NetScale, Prefix, PrefixTable, Transport};
use simcore::{SimRng, SimTime};
use std::hint::black_box;
use telescope::{RsdosConfig, RsdosDetector, Telescope};

/// Timed samples per kernel; each gauge is their median.
const REPS: usize = 41;

struct Kernel<'a> {
    key: String,
    inner: u32,
    elements: Option<u64>,
    call: Box<dyn FnMut() + 'a>,
}

/// The registered kernels, timed together by [`Bench::run`].
#[derive(Default)]
struct Bench<'a> {
    kernels: Vec<Kernel<'a>>,
}

impl<'a> Bench<'a> {
    /// Register `kernel` as `<group>.<name>`. One sample runs it
    /// `inner` times back to back and the gauge is per call: kernels
    /// well under a millisecond get an inner loop of ~10–20 ms so timer
    /// resolution stays small against a sample. `elements` is the
    /// number of items one call processes, if any.
    fn add<T>(
        &mut self,
        group: &str,
        name: &str,
        inner: u32,
        elements: Option<u64>,
        mut kernel: impl FnMut() -> T + 'a,
    ) {
        self.kernels.push(Kernel {
            key: format!("{group}.{name}"),
            inner,
            elements,
            call: Box::new(move || {
                for _ in 0..inner {
                    black_box(kernel());
                }
            }),
        });
    }

    /// Time every kernel and return the gauges. The samples are taken
    /// round-robin — one sample of each kernel per round — so each
    /// kernel's median spans the whole run: on a shared host the speed
    /// drifts by up to ~1.5x over stretches of a second or more, and
    /// back-to-back samples of one kernel would all land in one stretch.
    fn run(mut self) -> Vec<(String, f64)> {
        let mut samples = vec![Vec::with_capacity(REPS); self.kernels.len()];
        for _ in 0..REPS {
            for (kernel, samples) in self.kernels.iter_mut().zip(&mut samples) {
                samples.push(time_ns(&mut kernel.call));
            }
        }
        let mut gauges = Vec::new();
        for (kernel, samples) in self.kernels.iter().zip(samples) {
            let ns = (median(samples) as f64 / f64::from(kernel.inner)).max(1.0);
            let mut line = format!("detectors {:<48} {ns:>14.0} ns", kernel.key);
            gauges.push((format!("{}_median_ns", kernel.key), ns));
            if let Some(n) = kernel.elements {
                let per_sec = n as f64 * 1e9 / ns;
                line.push_str(&format!("   {per_sec:>14.0} elem/s"));
                gauges.push((format!("{}_per_sec", kernel.key), per_sec));
            }
            println!("{line}");
        }
        gauges
    }
}

/// The one Internet plan every fixture is built on.
fn tiny_plan() -> InternetPlan {
    InternetPlan::build(&NetScale::tiny(), &mut SimRng::new(1))
}

/// A mixed backscatter stream: 200 sources, Poisson-ish arrival.
fn backscatter_stream(n: usize) -> Vec<PacketEvent> {
    let mut rng = SimRng::new(2);
    let mut out = Vec::with_capacity(n);
    let mut t = 0i64;
    for _ in 0..n {
        t += rng.u64_below(3) as i64;
        out.push(PacketEvent {
            time: SimTime(t),
            src: Ipv4(1000 + rng.u64_below(200) as u32),
            src_port: 80,
            dst: Ipv4(0x2C00_0000 + rng.next_u32() % 4096),
            dst_port: 50_000,
            transport: Transport::Tcp,
            size_bytes: 60,
        });
    }
    out
}

/// Honeypot reflection traffic: 100k DNS responses from 500 sources
/// hitting one sensor, 50 per second.
fn reflection_stream(sensor: Ipv4) -> Vec<PacketEvent> {
    let mut rng = SimRng::new(3);
    (0..100_000)
        .map(|i| PacketEvent {
            time: SimTime(i / 50),
            src: Ipv4(5000 + rng.u64_below(500) as u32),
            src_port: 55_555,
            dst: sensor,
            dst_port: AmpVector::Dns.src_port(),
            transport: Transport::Udp,
            size_bytes: 64,
        })
        .collect()
}

fn small_gen_cfg(campaigns: bool) -> GenConfig {
    let mut cfg = GenConfig::default();
    cfg.timeline.dp_base_per_week = 40.0;
    cfg.timeline.ra_base_per_week = 60.0;
    if campaigns {
        cfg.random_campaign_count = 8;
        cfg.campaign_rate_scale = 0.125;
    } else {
        cfg.random_campaign_count = 0;
        cfg.campaign_rate_scale = 0.0;
    }
    cfg
}

fn main() {
    // Fixtures first: the registered kernels borrow them, so they must
    // outlive the bench.
    let plan = &tiny_plan();
    let backscatter = backscatter_stream(100_000);
    let hopscotch = HoneypotConfig::hopscotch(plan);
    let reflection = reflection_stream(hopscotch.sensors[0]);

    let mut rng = SimRng::new(4);
    let probes: Vec<Ipv4> = (0..10_000).map(|_| Ipv4(rng.next_u32())).collect();
    let entries: Vec<(Prefix, Asn)> = plan.routed.iter().map(|(p, a)| (p, *a)).collect();

    let mut rng = SimRng::new(5);
    let series: Vec<analytics::WeeklySeries> = (0..10)
        .map(|i| {
            analytics::WeeklySeries::new(
                format!("s{i}"),
                (0..simcore::STUDY_WEEKS)
                    .map(|_| rng.f64() * 100.0)
                    .collect(),
            )
        })
        .collect();
    let sets: Vec<(String, Vec<analytics::TargetTuple>)> = (0..4)
        .map(|i| {
            let tuples: Vec<analytics::TargetTuple> = (0..100_000)
                .map(|_| {
                    (
                        rng.u64_below(1642) as i64,
                        Ipv4(rng.u64_below(200_000) as u32),
                    )
                })
                .collect();
            (format!("set{i}"), tuples)
        })
        .collect();

    let mut rng = SimRng::new(6);
    let prefixes: Vec<(Prefix, u32)> = (0..20_000)
        .map(|i| {
            let len = 8 + rng.u64_below(17) as u8;
            (Prefix::new(Ipv4(rng.next_u32()), len), i)
        })
        .collect();

    let trend = analytics::WeeklySeries::new(
        "x",
        (0..simcore::STUDY_WEEKS)
            .map(|i| 10.0 + 0.02 * i as f64 + ((i * 7) % 13) as f64)
            .collect(),
    );

    // Fidelity ablation: the same 200 direct-path spoofed attacks seen
    // by the event-level observer and by packet synthesis + Corsaro.
    let fidelity_root = SimRng::new(12);
    let gen = AttackGenerator::new(plan, small_gen_cfg(false), &fidelity_root);
    let mut half_year = AttackColumns::new();
    for week in 0..26 {
        gen.generate_week(week, &mut half_year);
    }
    // Packet synthesis takes owned attacks.
    let rsdos: Vec<Attack> = half_year
        .iter()
        .filter(|a| a.class == AttackClass::DirectPathSpoofed)
        .take(200)
        .map(|a| a.to_attack())
        .collect();
    let rsdos_rows = AttackColumns::from_attacks(&rsdos);
    let ucsd = Telescope::ucsd(plan);
    let mut sink = ObservationColumns::new();

    let campaign_root = SimRng::new(13);

    let carpet_root = SimRng::new(14);
    let hp = Honeypot::hopscotch(plan);
    let mut raw = ObservationColumns::new();
    for a in &AttackGenerator::new(plan, small_gen_cfg(true), &carpet_root).generate_study() {
        hp.observe_into(a, &carpet_root, &mut raw);
    }

    let mut b = Bench::default();
    b.add(
        "corsaro",
        "ingest_100k_packets",
        3,
        Some(backscatter.len() as u64),
        || {
            let mut det = RsdosDetector::new(RsdosConfig::default());
            for p in &backscatter {
                det.ingest(black_box(p));
            }
            det.finish().len()
        },
    );
    b.add(
        "honeypot",
        "hopscotch_ingest_100k",
        2,
        Some(reflection.len() as u64),
        || {
            let mut det = HoneypotDetector::new(hopscotch.clone());
            for p in &reflection {
                det.ingest(black_box(p));
            }
            det.finish().len()
        },
    );
    let n = Some(probes.len() as u64);
    b.add("lpm", "trie_lookup_10k", 128, n, || {
        let mut hits = 0usize;
        for &ip in &probes {
            hits += plan.routed.lookup(black_box(ip)).is_some() as usize;
        }
        hits
    });
    // Ablation reference: linear scan over the same table.
    b.add("lpm", "linear_scan_10k", 4, n, || {
        let mut hits = 0usize;
        for &ip in &probes {
            hits += entries
                .iter()
                .filter(|(p, _)| p.contains(ip))
                .max_by_key(|(p, _)| p.len())
                .is_some() as usize;
        }
        hits
    });
    b.add("analytics", "spearman_matrix_10x235", 10, None, || {
        analytics::correlation_matrix(black_box(&series), analytics::Method::Spearman)
            .cells
            .len()
    });
    b.add("analytics", "upset_4x100k_tuples", 1, None, || {
        analytics::upset(black_box(&sets)).total_distinct
    });
    b.add(
        "trie",
        "insert_20k_prefixes",
        2,
        Some(prefixes.len() as u64),
        || {
            let mut t = PrefixTable::new();
            for &(p, v) in &prefixes {
                t.insert(black_box(p), v);
            }
            t.len()
        },
    );
    b.add("substrates", "sav_model_build", 10_000, None, || {
        SavModel::build(plan, SavParams::default(), &SimRng::new(7)).as_count()
    });
    b.add("substrates", "booter_market_235_weeks", 128, None, || {
        BooterMarket::simulate(BooterMarketParams::default(), &SimRng::new(7)).capacity_at_week(200)
    });
    b.add("substrates", "bootstrap_400_replicates", 16, None, || {
        analytics::trend_interval(&trend, 8, 400, &mut SimRng::new(3))
    });
    let n = Some(rsdos.len() as u64);
    b.add(
        "fidelity_ablation",
        "event_level_200_attacks",
        512,
        n,
        || {
            sink.clear();
            for a in rsdos_rows.iter() {
                ucsd.observe_into(black_box(a), &fidelity_root, &mut sink);
            }
            sink.len()
        },
    );
    b.add(
        "fidelity_ablation",
        "packet_level_200_attacks",
        1,
        n,
        || {
            let mut seen = 0usize;
            for a in &rsdos {
                let mut prng = fidelity_root.fork(a.id.0).fork_named("ablation");
                let pkts = backscatter_packets(a, &ucsd.spec, &mut prng);
                let mut det = RsdosDetector::new(RsdosConfig::default());
                for p in &pkts {
                    det.ingest(p);
                }
                seen += (!det.finish().is_empty()) as usize;
            }
            seen
        },
    );
    for (label, campaigns) in [("without_campaigns", false), ("with_campaigns", true)] {
        let root = &campaign_root;
        b.add("campaign_ablation", label, 1, None, move || {
            AttackGenerator::new(plan, small_gen_cfg(campaigns), root)
                .generate_study()
                .len()
        });
    }
    b.add(
        "carpet_reconstruction",
        "appendix_i_merge",
        4,
        Some(raw.len() as u64),
        || reconstruct_carpet_columns(plan, black_box(&raw), 3600).len(),
    );

    // The kernels run on fixed-seed fixtures, not a study; the quick
    // config stands in as the run identity so this file carries the
    // same manifest fields as every other bench file.
    let manifest = bench_manifest(
        "detectors",
        &StudyConfig::quick(),
        vec![("reps".into(), REPS as u64)],
        b.run(),
    );
    let path = write_bench_manifest("BENCH_detectors.json", &manifest);
    println!("detectors: wrote {}", path.display());
}
