//! The full packet-level honeypot processing pipeline, composed the way
//! the paper's data flows (§5): per-sensor flow detection (Table 2) →
//! CCC cross-sensor merging → Appendix-I carpet-bombing reconstruction
//! → an [`ObservationColumns`] stream, the same type the event-level
//! observers emit.
//!
//! The event-level [`crate::event::Honeypot`] path short-circuits all of
//! this for the macro study; this pipeline exists to process actual
//! packet streams (validation, examples, and any future replay of real
//! sensor logs).

use crate::aggregate::{
    events_to_columns, merge_sensor_flows, reconstruct_carpet_columns, HoneypotEvent,
};
use crate::detector::HoneypotDetector;
use crate::platform::HoneypotConfig;
use attackgen::{ObservationColumns, PacketEvent};
use netmodel::InternetPlan;

/// Pipeline statistics, reported alongside the results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    pub packets_ingested: u64,
    pub flows_detected: usize,
    pub events_after_sensor_merge: usize,
    pub attacks_after_reconstruction: usize,
}

/// A packet-in, attacks-out honeypot processing pipeline.
#[derive(Debug)]
pub struct HoneypotPipeline {
    cfg: HoneypotConfig,
    detector: HoneypotDetector,
    packets: u64,
}

impl HoneypotPipeline {
    pub fn new(cfg: HoneypotConfig) -> Self {
        HoneypotPipeline {
            detector: HoneypotDetector::new(cfg.clone()),
            cfg,
            packets: 0,
        }
    }

    pub fn config(&self) -> &HoneypotConfig {
        &self.cfg
    }

    /// Ingest one captured packet (non-sensor traffic is ignored by the
    /// detector).
    pub fn ingest(&mut self, pkt: &PacketEvent) {
        self.packets += 1;
        self.detector.ingest(pkt);
    }

    /// Flush and run the full aggregation chain. The `plan` supplies
    /// the routed-prefix and allocation tables that the Appendix-I
    /// reconstruction consults.
    pub fn finish(self, plan: &InternetPlan) -> (ObservationColumns, PipelineStats) {
        let flows = self.detector.finish();
        let flows_detected = flows.len();
        // CCC merge window: the platform's own flow timeout.
        let events: Vec<HoneypotEvent> = merge_sensor_flows(&flows, self.cfg.timeout_secs);
        let events_after_sensor_merge = events.len();
        let observed = events_to_columns(&events);
        let attacks = reconstruct_carpet_columns(plan, &observed, self.cfg.timeout_secs);
        let stats = PipelineStats {
            packets_ingested: self.packets,
            flows_detected,
            events_after_sensor_merge,
            attacks_after_reconstruction: attacks.len(),
        };
        (attacks, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::{AmpVector, Asn, Ipv4, NetScale, Transport};
    use simcore::{SimRng, SimTime};

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    fn request(t: i64, victim: Ipv4, sensor: Ipv4, port: u16) -> PacketEvent {
        PacketEvent {
            time: SimTime(t),
            src: victim,
            src_port: 55_555,
            dst: sensor,
            dst_port: port,
            transport: Transport::Udp,
            size_bytes: 64,
        }
    }

    #[test]
    fn single_attack_one_event() {
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let sensor_a = cfg.sensors[0];
        let sensor_b = cfg.sensors[1];
        let victim = plan.registry.get(Asn(16276)).unwrap().prefixes[0].nth(9);
        let mut pipe = HoneypotPipeline::new(cfg);
        // The same attack reaches two sensors.
        for t in 0..20 {
            pipe.ingest(&request(t, victim, sensor_a, AmpVector::Dns.src_port()));
            pipe.ingest(&request(t, victim, sensor_b, AmpVector::Dns.src_port()));
        }
        let (attacks, stats) = pipe.finish(&plan);
        assert_eq!(stats.packets_ingested, 40);
        assert_eq!(stats.flows_detected, 2, "one flow per sensor");
        assert_eq!(stats.events_after_sensor_merge, 1, "CCC merges sensors");
        assert_eq!(attacks.len(), 1);
        assert_eq!(attacks.targets(0), &[victim]);
    }

    #[test]
    fn carpet_attack_reconstructed() {
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let sensor = cfg.sensors[0];
        // Sweep 8 consecutive addresses of one OVH prefix.
        let base = plan.registry.get(Asn(16276)).unwrap().prefixes[0].base();
        let mut pipe = HoneypotPipeline::new(cfg);
        let mut t = 0i64;
        for off in 0..8u32 {
            let victim = Ipv4(base.0 + off);
            for _ in 0..6 {
                pipe.ingest(&request(t, victim, sensor, AmpVector::Ssdp.src_port()));
                t += 1;
            }
        }
        let (attacks, stats) = pipe.finish(&plan);
        assert_eq!(stats.flows_detected, 8, "one per-victim flow each");
        assert_eq!(stats.events_after_sensor_merge, 8);
        assert_eq!(
            attacks.len(),
            1,
            "Appendix-I reconstruction should collapse the carpet"
        );
        assert_eq!(attacks.targets(0).len(), 8);
    }

    #[test]
    fn cross_allocation_carpet_stays_split() {
        // Appendix I: sweeps across different allocations are recorded
        // as separate attacks.
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let sensor = cfg.sensors[0];
        let v1 = plan.registry.get(Asn(16276)).unwrap().prefixes[0].nth(1);
        let v2 = plan.registry.get(Asn(24940)).unwrap().prefixes[0].nth(1);
        let mut pipe = HoneypotPipeline::new(cfg);
        for t in 0..10 {
            pipe.ingest(&request(t, v1, sensor, AmpVector::Dns.src_port()));
            pipe.ingest(&request(t, v2, sensor, AmpVector::Dns.src_port()));
        }
        let (attacks, _) = pipe.finish(&plan);
        assert_eq!(attacks.len(), 2);
    }

    #[test]
    fn scans_filtered_by_thresholds() {
        // A scanner touches every sensor with 2 probes: zero attacks.
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let sensors = cfg.sensors.clone();
        let scanner = Ipv4::new(45, 1, 1, 1);
        let mut pipe = HoneypotPipeline::new(cfg);
        for (i, &s) in sensors.iter().enumerate() {
            for k in 0..2 {
                pipe.ingest(&request(i as i64 * 3 + k, scanner, s, AmpVector::Dns.src_port()));
            }
        }
        let (attacks, stats) = pipe.finish(&plan);
        assert!(attacks.is_empty(), "scan probes must not become attacks");
        assert_eq!(stats.flows_detected, 0);
        assert_eq!(stats.packets_ingested, 130);
    }

    #[test]
    fn empty_pipeline() {
        let plan = plan();
        let pipe = HoneypotPipeline::new(HoneypotConfig::amppot(&plan));
        let (attacks, stats) = pipe.finish(&plan);
        assert!(attacks.is_empty());
        assert_eq!(stats, PipelineStats::default());
    }
}
