//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * event-level vs packet-level observation cost — the reason the
//!   macro study uses the analytic path;
//! * attack generation with and without campaign layering;
//! * carpet-bombing reconstruction cost on honeypot streams.
//!
//! Serial vs pooled observatory fan-out is measured on the production
//! pipeline by the `pipeline` bench (`BENCH_pipeline.json`).

use attackgen::packets::backscatter_packets;
use attackgen::{AttackClass, AttackGenerator, AttackRef, GenConfig, ObservationColumns};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use honeypot::{reconstruct_carpet_columns, Honeypot};
use netmodel::{InternetPlan, NetScale};
use simcore::SimRng;
use std::hint::black_box;
use telescope::{RsdosConfig, RsdosDetector, Telescope};

fn plan() -> InternetPlan {
    let mut rng = SimRng::new(11);
    InternetPlan::build(&NetScale::tiny(), &mut rng)
}

fn small_gen_cfg(campaigns: bool) -> GenConfig {
    let mut cfg = GenConfig::default();
    cfg.timeline.dp_base_per_week = 40.0;
    cfg.timeline.ra_base_per_week = 60.0;
    if !campaigns {
        cfg.random_campaign_count = 0;
        cfg.campaign_rate_scale = 0.0;
    } else {
        cfg.random_campaign_count = 8;
        cfg.campaign_rate_scale = 0.125;
    }
    cfg
}

fn bench_fidelity_ablation(c: &mut Criterion) {
    let plan = plan();
    let root = SimRng::new(12);
    let gen = AttackGenerator::new(&plan, small_gen_cfg(false), &root);
    let mut cols = attackgen::AttackColumns::new();
    for week in 0..26 {
        gen.generate_week(week, &mut cols);
    }
    let rows: Vec<AttackRef<'_>> = cols
        .iter()
        .filter(|a| a.class == AttackClass::DirectPathSpoofed)
        .take(200)
        .collect();
    // Packet synthesis takes owned attacks.
    let rsdos: Vec<attackgen::Attack> = rows.iter().map(|a| a.to_attack()).collect();
    let tele = Telescope::ucsd(&plan);
    let mut group = c.benchmark_group("fidelity_ablation");
    group.throughput(Throughput::Elements(rows.len() as u64));
    let mut sink = ObservationColumns::new();
    group.bench_function("event_level_200_attacks", |b| {
        b.iter(|| {
            sink.clear();
            for &a in &rows {
                tele.observe_into(black_box(a), &root, &mut sink);
            }
            black_box(sink.len())
        })
    });
    group.sample_size(10);
    group.bench_function("packet_level_200_attacks", |b| {
        b.iter(|| {
            let mut seen = 0usize;
            for a in &rsdos {
                let mut prng = root.fork(a.id.0).fork_named("ablation");
                let pkts = backscatter_packets(a, &tele.spec, &mut prng);
                let mut det = RsdosDetector::new(RsdosConfig::default());
                for p in &pkts {
                    det.ingest(p);
                }
                seen += (!det.finish().is_empty()) as usize;
            }
            black_box(seen)
        })
    });
    group.finish();
}

fn bench_campaign_ablation(c: &mut Criterion) {
    let plan = plan();
    let root = SimRng::new(13);
    let mut group = c.benchmark_group("campaign_ablation");
    group.sample_size(10);
    for (label, campaigns) in [("without_campaigns", false), ("with_campaigns", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let gen = AttackGenerator::new(&plan, small_gen_cfg(campaigns), &root);
                black_box(gen.generate_study().len())
            })
        });
    }
    group.finish();
}

fn bench_carpet_reconstruction(c: &mut Criterion) {
    let plan = plan();
    let root = SimRng::new(14);
    let gen = AttackGenerator::new(&plan, small_gen_cfg(true), &root);
    let attacks = gen.generate_study();
    let hp = Honeypot::hopscotch(&plan);
    let mut raw = ObservationColumns::new();
    for a in &attacks {
        hp.observe_into(a, &root, &mut raw);
    }
    let mut group = c.benchmark_group("carpet_reconstruction");
    group.throughput(Throughput::Elements(raw.len() as u64));
    group.bench_function("appendix_i_merge", |b| {
        b.iter(|| {
            let merged = reconstruct_carpet_columns(&plan, black_box(&raw), 3600);
            black_box(merged.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fidelity_ablation,
    bench_campaign_ablation,
    bench_carpet_reconstruction
);
criterion_main!(benches);
