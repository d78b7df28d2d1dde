//! Property-based tests for the honeypot detector and aggregation
//! chain.

use attackgen::{AttackId, ObservationColumns, PacketEvent};
use honeypot::{
    merge_sensor_flows, reconstruct_carpet_columns, HoneypotConfig, HoneypotDetector,
};
use netmodel::{AmpVector, InternetPlan, Ipv4, NetScale, Transport};
use proptest::prelude::*;
use simcore::{SimRng, SimTime};

fn plan() -> InternetPlan {
    let mut rng = SimRng::new(100);
    InternetPlan::build(&NetScale::tiny(), &mut rng)
}

fn request(t: i64, victim: u32, sensor: Ipv4, port: u16, src_port: u16) -> PacketEvent {
    PacketEvent {
        time: SimTime(t),
        src: Ipv4(victim),
        src_port,
        dst: sensor,
        dst_port: port,
        transport: Transport::Udp,
        size_bytes: 64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Detected flows always satisfy the platform thresholds, and their
    /// packet totals never exceed what was ingested at sensors.
    #[test]
    fn flows_respect_thresholds(
        bursts in proptest::collection::vec(
            // (victim, sensor_idx, start, count, spacing)
            (1u32..40, 0usize..5, 0i64..50_000, 1u64..40, 1i64..30),
            1..20,
        ),
    ) {
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let mut det = HoneypotDetector::new(cfg.clone());
        let mut events: Vec<PacketEvent> = Vec::new();
        for (victim, sensor_idx, start, count, spacing) in bursts {
            let sensor = cfg.sensors[sensor_idx];
            for k in 0..count {
                events.push(request(
                    start + k as i64 * spacing,
                    victim,
                    sensor,
                    AmpVector::Dns.src_port(),
                    55_555,
                ));
            }
        }
        events.sort_by_key(|p| p.time);
        let total_ingested = events.len() as u64;
        for e in &events {
            det.ingest(e);
        }
        let flows = det.finish();
        let mut flow_packets = 0;
        for f in &flows {
            prop_assert!(f.packets >= cfg.min_packets);
            prop_assert!(f.first_seen <= f.last_seen);
            flow_packets += f.packets;
        }
        prop_assert!(flow_packets <= total_ingested);
    }

    /// Cross-sensor merging conserves packets and never increases the
    /// event count.
    #[test]
    fn merge_conserves_packets(
        bursts in proptest::collection::vec(
            (1u32..10, 0usize..6, 0i64..20_000, 6u64..30),
            1..16,
        ),
        gap in 1i64..5_000,
    ) {
        let plan = plan();
        let cfg = HoneypotConfig::hopscotch(&plan);
        let mut det = HoneypotDetector::new(cfg.clone());
        let mut events: Vec<PacketEvent> = Vec::new();
        for (victim, sensor_idx, start, count) in bursts {
            let sensor = cfg.sensors[sensor_idx];
            for k in 0..count {
                events.push(request(start + k as i64, victim, sensor,
                    AmpVector::Dns.src_port(), 55_555));
            }
        }
        events.sort_by_key(|p| p.time);
        for e in &events {
            det.ingest(e);
        }
        let flows = det.finish();
        let flow_packets: u64 = flows.iter().map(|f| f.packets).sum();
        let merged = merge_sensor_flows(&flows, gap);
        prop_assert!(merged.len() <= flows.len());
        let merged_packets: u64 = merged.iter().map(|e| e.packets).sum();
        prop_assert_eq!(flow_packets, merged_packets);
        for e in &merged {
            prop_assert!(e.sensor_count >= 1);
            prop_assert!(e.first_seen <= e.last_seen);
        }
    }

    /// Reconstruction never loses targets, never increases event count,
    /// and every output target appeared in some input.
    #[test]
    fn reconstruction_conserves_targets(
        raw in proptest::collection::vec(
            // (as_pick, offset, start)
            (0usize..3, 0u32..64, 0i64..10_000),
            1..30,
        ),
        gap in 60i64..7_200,
    ) {
        let plan = plan();
        let asns = [
            netmodel::Asn(16276),
            netmodel::Asn(24940),
            netmodel::Asn(16509),
        ];
        let mut observed = ObservationColumns::new();
        for (i, &(as_pick, offset, start)) in raw.iter().enumerate() {
            let base = plan.registry.get(asns[as_pick]).unwrap().prefixes[0];
            let target = base.nth((offset as u64) % base.size());
            observed.push_row(AttackId(i as u64), SimTime(start), &[target]);
        }
        let merged = reconstruct_carpet_columns(&plan, &observed, gap);
        prop_assert!(merged.len() <= observed.len());
        prop_assert!(!merged.is_empty());
        let in_targets: std::collections::HashSet<Ipv4> =
            observed.target_arena.iter().copied().collect();
        let out_targets: std::collections::HashSet<Ipv4> =
            merged.target_arena.iter().copied().collect();
        prop_assert_eq!(in_targets, out_targets);
    }

    /// AmpPot's flow identifier includes the source port: streams that
    /// differ only in spoofed source port never share a flow.
    #[test]
    fn amppot_src_port_partitions(ports in proptest::collection::hash_set(1024u16..60_000, 2..6)) {
        let plan = plan();
        let cfg = HoneypotConfig::amppot(&plan);
        let sensor = cfg.sensors[0];
        let mut det = HoneypotDetector::new(cfg.clone());
        let ports: Vec<u16> = ports.into_iter().collect();
        // 120 packets per port — each port's flow clears the threshold.
        for (pi, &p) in ports.iter().enumerate() {
            for k in 0..120i64 {
                det.ingest(&request(pi as i64 * 10_000 + k, 7, sensor,
                    AmpVector::Ntp.src_port(), p));
            }
        }
        let flows = det.finish();
        prop_assert_eq!(flows.len(), ports.len());
        for f in &flows {
            prop_assert_eq!(f.packets, 120);
        }
    }
}
