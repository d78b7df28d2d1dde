//! Detector validation: cross-check the event-level observatory models
//! against the packet-level detectors on a sample of real generated
//! attacks (not a paper figure — the fidelity argument of DESIGN.md §1).

use super::ExperimentResult;
use crate::pipeline::StudyRun;
use crate::render::text_table;
use attackgen::packets::{backscatter_packets, sensor_request_packets};
use attackgen::{AttackClass, ObservationColumns};
use honeypot::{HoneypotConfig, HoneypotDetector};
use simcore::SimRng;
use telescope::{RsdosConfig, RsdosDetector, Telescope};

/// How many attacks of each class to validate per run.
const SAMPLE: usize = 120;

pub fn detval(run: &StudyRun) -> ExperimentResult {
    let root = SimRng::new(run.config.seed).fork_named("observatories");
    let ucsd = Telescope::ucsd(&run.plan);

    // --- Telescope: event verdict vs Corsaro over synthesized
    // backscatter.
    // This cold validation path materializes its ~120-row samples from
    // the columnar population (the packet synthesizers take &Attack).
    let rsdos: Vec<attackgen::Attack> = run
        .attacks
        .iter()
        .filter(|a| a.class == AttackClass::DirectPathSpoofed)
        .step_by((run.attacks.len() / (SAMPLE * 4)).max(1))
        .take(SAMPLE)
        .map(|a| a.to_attack())
        .collect();
    let mut tel_agree = 0usize;
    let mut tel_total = 0usize;
    let mut scratch = ObservationColumns::new();
    for a in &rsdos {
        scratch.clear();
        let event = ucsd.observe_into(a.view(), &root, &mut scratch);
        let mut pkt_rng = root.fork(a.id.0).fork_named("detval-packets");
        let pkts = backscatter_packets(a, &ucsd.spec, &mut pkt_rng);
        let mut det = RsdosDetector::new(RsdosConfig::default());
        for p in &pkts {
            det.ingest(p);
        }
        let packet = !det.finish().is_empty();
        tel_total += 1;
        tel_agree += (event == packet) as usize;
    }

    // --- Honeypot: event verdict vs the flow detector over synthesized
    // requests at one Hopscotch sensor. To compare like with like we
    // force the "sensor selected" case: the packet stream *is* the
    // requests at a selected sensor, so the packet verdict conditions on
    // selection while the event verdict also includes the selection
    // draw. We therefore compare only threshold behaviour: event model
    // with selection forced (m = 1) vs the detector.
    let hp_cfg = HoneypotConfig::hopscotch(&run.plan);
    let sensor = hp_cfg.sensors[0];
    let ra: Vec<attackgen::Attack> = run
        .attacks
        .iter()
        .filter(|a| {
            a.class == AttackClass::ReflectionAmplification
                && a.reflectors.map(|r| hp_cfg.supports(r.vector)) == Some(true)
                && !a.is_carpet_bombing()
        })
        .step_by((run.attacks.len() / (SAMPLE * 4)).max(1))
        .take(SAMPLE)
        .map(|a| a.to_attack())
        .collect();
    let mut hp_agree = 0usize;
    let mut hp_total = 0usize;
    for a in &ra {
        let mut pkt_rng = root.fork(a.id.0).fork_named("detval-hp-packets");
        let pkts = sensor_request_packets(a, sensor, &mut pkt_rng);
        let mut det = HoneypotDetector::new(hp_cfg.clone());
        for p in &pkts {
            det.ingest(p);
        }
        let packet = !det.finish().is_empty();
        // Event-side threshold check, selection forced: per-sensor
        // request volume vs the platform threshold.
        let Some(refl) = a.reflectors else {
            continue; // RA sample filter guarantees reflectors; stay panic-free
        };
        let expected = a.pps / refl.reflector_count.max(1) as f64 * a.duration_secs as f64;
        let event = expected >= hp_cfg.min_packets as f64;
        hp_total += 1;
        hp_agree += (event == packet) as usize;
    }

    let rows = vec![
        vec![
            "UCSD Corsaro vs event model".into(),
            format!("{tel_total}"),
            format!("{:.1}%", 100.0 * tel_agree as f64 / tel_total.max(1) as f64),
        ],
        vec![
            "Hopscotch detector vs threshold".into(),
            format!("{hp_total}"),
            format!("{:.1}%", 100.0 * hp_agree as f64 / hp_total.max(1) as f64),
        ],
    ];
    let body = text_table(&["Validation", "Attacks", "Agreement"], &rows);
    let csv = format!(
        "validation,attacks,agreement\ntelescope,{},{:.6}\nhoneypot,{},{:.6}\n",
        tel_total,
        tel_agree as f64 / tel_total.max(1) as f64,
        hp_total,
        hp_agree as f64 / hp_total.max(1) as f64,
    );
    ExperimentResult {
        id: "detval",
        title: "Detector validation: packet-level vs event-level fidelity".into(),
        body,
        csv: vec![("detval.csv".into(), csv)],
    }
}
