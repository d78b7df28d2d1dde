//! Cross-sensor and carpet-bombing aggregation.
//!
//! Two algorithms from the paper:
//!
//! * **CCC cross-sensor aggregation** (§5): attacks seen at multiple
//!   sensors of one platform are merged into a single event —
//!   implemented over packet-level [`HoneypotFlow`]s.
//! * **Appendix-I carpet-bombing reconstruction**: per-victim events are
//!   aggregated under "the longest BGP-routed prefix (from /11 to /28)
//!   that covers the attack", *without* crossing RIR allocation
//!   boundaries — so an attack sweeping many allocations of one AS is
//!   (deliberately, as in the paper) recorded as many attacks.

use crate::detector::HoneypotFlow;
use attackgen::{AttackId, ObservationColumns};
use netmodel::{InternetPlan, Ipv4, Prefix};
use simcore::SimTime;
use std::collections::BTreeMap;

/// Prefix-length search range of the Appendix-I algorithm.
pub const CARPET_MIN_PREFIX: u8 = 11;
pub const CARPET_MAX_PREFIX: u8 = 28;

/// A cross-sensor event: one attack as reconstructed by a platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoneypotEvent {
    pub victim: Ipv4,
    pub first_seen: SimTime,
    pub last_seen: SimTime,
    pub packets: u64,
    pub sensor_count: usize,
}

/// Merge per-sensor flows into per-victim events: flows with the same
/// victim whose active periods are within `merge_gap_secs` of each other
/// become one event (the CCC processing shared across Hopscotch and
/// AmpPot, §5).
pub fn merge_sensor_flows(flows: &[HoneypotFlow], merge_gap_secs: i64) -> Vec<HoneypotEvent> {
    let mut by_victim: BTreeMap<Ipv4, Vec<&HoneypotFlow>> = BTreeMap::new();
    for f in flows {
        by_victim.entry(f.victim).or_default().push(f);
    }
    let mut out = Vec::new();
    for (victim, mut group) in by_victim {
        group.sort_by_key(|f| f.first_seen);
        let mut current: Option<(SimTime, SimTime, u64, Vec<Ipv4>)> = None;
        for f in group {
            match current.as_mut() {
                Some((_, last, packets, sensors)) if f.first_seen.0 <= last.0 + merge_gap_secs => {
                    *last = (*last).max(f.last_seen);
                    *packets += f.packets;
                    if !sensors.contains(&f.key.dst) {
                        sensors.push(f.key.dst);
                    }
                }
                _ => {
                    if let Some((first, last, packets, sensors)) = current.take() {
                        out.push(HoneypotEvent {
                            victim,
                            first_seen: first,
                            last_seen: last,
                            packets,
                            sensor_count: sensors.len(),
                        });
                    }
                    current = Some((f.first_seen, f.last_seen, f.packets, vec![f.key.dst]));
                }
            }
        }
        if let Some((first, last, packets, sensors)) = current {
            out.push(HoneypotEvent {
                victim,
                first_seen: first,
                last_seen: last,
                packets,
                sensor_count: sensors.len(),
            });
        }
    }
    out.sort_by_key(|e| (e.first_seen, e.victim));
    out
}

/// Find the longest BGP-routed prefix in [/11, /28] covering the
/// address, clipped so it never crosses the address's RIR allocation
/// block (Appendix I).
pub fn carpet_prefix(plan: &InternetPlan, ip: Ipv4) -> Option<Prefix> {
    let routed = plan.routed_prefix_of(ip)?;
    let alloc = plan.allocation_of(ip)?;
    let len = routed
        .len()
        .clamp(CARPET_MIN_PREFIX, CARPET_MAX_PREFIX)
        // Never wider than the allocation block.
        .max(alloc.block.len());
    Some(Prefix::new(ip, len))
}

/// Appendix-I reconstruction over an observation stream: merge events
/// that (a) start within `merge_gap_secs` of each other and (b) whose
/// targets fall in the same carpet prefix (same routed block, same
/// allocation). Events whose first target has no routed prefix stay
/// singletons.
///
/// Rows are grouped by the carpet prefix of their first target and
/// scanned in `(prefix, start, input index)` order; a merged event
/// keeps the earliest row's id and start, and unions the targets in
/// first-seen order. The result is sorted by `(start, attack id)`.
pub fn reconstruct_carpet_columns(
    plan: &InternetPlan,
    observed: &ObservationColumns,
    merge_gap_secs: i64,
) -> ObservationColumns {
    let n = observed.len();
    let mut keyed: Vec<(Option<Prefix>, u32)> = (0..n as u32)
        .map(|i| {
            (
                carpet_prefix(plan, observed.targets(i as usize)[0]),
                i,
            )
        })
        .collect();
    keyed.sort_unstable_by_key(|&(p, i)| (p, observed.start[i as usize], i));

    let mut out = ObservationColumns::with_capacity(n);
    let mut i = 0;
    while i < keyed.len() {
        let (prefix, first) = keyed[i];
        let fi = first as usize;
        out.begin_row(
            AttackId(observed.attack_id[fi]),
            SimTime(observed.start[fi]),
        );
        let row_base = out.target_arena.len();
        for &t in observed.targets(fi) {
            out.push_target(t);
        }
        let mut last_start = observed.start[fi];
        let mut j = i + 1;
        while j < keyed.len() {
            let (p2, next) = keyed[j];
            let ni = next as usize;
            let mergeable = prefix.is_some()
                && p2 == prefix
                && observed.start[ni] - last_start <= merge_gap_secs;
            if !mergeable {
                break;
            }
            for &t in observed.targets(ni) {
                if !out.target_arena[row_base..].contains(&t) {
                    out.push_target(t);
                }
            }
            last_start = observed.start[ni];
            j += 1;
        }
        out.commit_row();
        i = j;
    }
    out.sort_by_start_id();
    out
}

/// Convert merged per-victim events into an observation stream, one
/// single-target row per event (packet-level path). Event ids are
/// synthetic, counting down from `u64::MAX` (packet streams do not
/// carry ground-truth ids).
pub fn events_to_columns(events: &[HoneypotEvent]) -> ObservationColumns {
    let mut out = ObservationColumns::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        out.push_row(AttackId(u64::MAX - i as u64), e.first_seen, &[e.victim]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{AttackMode, HpFlowKey};
    use netmodel::NetScale;
    use simcore::SimRng;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    fn flow(victim: u32, sensor: u32, first: i64, last: i64, packets: u64) -> HoneypotFlow {
        HoneypotFlow {
            key: HpFlowKey {
                src: Ipv4(victim),
                src_port: 0,
                dst: Ipv4(sensor),
                dst_port: 53,
            },
            victim: Ipv4(victim),
            first_seen: SimTime(first),
            last_seen: SimTime(last),
            packets,
            ports: [53].into_iter().collect(),
            mode: AttackMode::MonoProtocol,
        }
    }

    #[test]
    fn concurrent_flows_merge_across_sensors() {
        let flows = vec![
            flow(1, 100, 0, 500, 50),
            flow(1, 101, 100, 600, 40),
            flow(1, 102, 200, 550, 30),
        ];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.packets, 120);
        assert_eq!(e.sensor_count, 3);
        assert_eq!(e.first_seen, SimTime(0));
        assert_eq!(e.last_seen, SimTime(600));
    }

    #[test]
    fn distant_flows_stay_separate() {
        let flows = vec![flow(1, 100, 0, 500, 50), flow(1, 100, 10_000, 10_500, 40)];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn different_victims_never_merge() {
        let flows = vec![flow(1, 100, 0, 500, 50), flow(2, 100, 0, 500, 40)];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn same_sensor_counted_once() {
        let flows = vec![flow(1, 100, 0, 100, 10), flow(1, 100, 150, 300, 10)];
        let events = merge_sensor_flows(&flows, 900);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].sensor_count, 1);
    }

    #[test]
    fn carpet_prefix_respects_bounds() {
        let plan = plan();
        // Any routed target address yields a prefix within [/11, /28]
        // that stays inside its allocation.
        let rec = plan.registry.get(netmodel::Asn(16276)).unwrap();
        let ip = rec.prefixes[0].nth(5);
        let p = carpet_prefix(&plan, ip).unwrap();
        assert!((CARPET_MIN_PREFIX..=CARPET_MAX_PREFIX).contains(&p.len()));
        let alloc = plan.allocation_of(ip).unwrap();
        assert!(alloc.block.covers(p), "carpet prefix crosses allocation");
        assert!(p.contains(ip));
    }

    #[test]
    fn carpet_prefix_none_for_unrouted() {
        let plan = plan();
        assert_eq!(carpet_prefix(&plan, Ipv4::new(223, 255, 255, 1)), None);
    }

    /// A stream of single-target rows `(id, target, start secs)`.
    fn stream(rows: &[(u64, Ipv4, i64)]) -> ObservationColumns {
        let mut out = ObservationColumns::new();
        for &(id, ip, t) in rows {
            out.push_row(AttackId(id), SimTime(t), &[ip]);
        }
        out
    }

    #[test]
    fn reconstruction_merges_same_prefix_events() {
        let plan = plan();
        let rec = plan.registry.get(netmodel::Asn(16276)).unwrap();
        let base = rec.prefixes[0].base();
        let at = |off: u32| Ipv4(base.0 + off);
        let observed = stream(&[(1, at(1), 0), (2, at(2), 60), (3, at(3), 120)]);
        let merged = reconstruct_carpet_columns(&plan, &observed, 600);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.targets(0), &[at(1), at(2), at(3)]);
        assert_eq!(merged.attack_id, vec![1], "earliest row names the event");
    }

    #[test]
    fn reconstruction_respects_allocation_boundaries() {
        let plan = plan();
        // Two victims in different allocations (different ASes) at the
        // same time: never merged, even if close in address space.
        let a = plan.registry.get(netmodel::Asn(16276)).unwrap().prefixes[0].nth(0);
        let b = plan.registry.get(netmodel::Asn(24940)).unwrap().prefixes[0].nth(0);
        let observed = stream(&[(1, a, 0), (2, b, 30)]);
        let merged = reconstruct_carpet_columns(&plan, &observed, 600);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn reconstruction_respects_time_gap() {
        let plan = plan();
        let rec = plan.registry.get(netmodel::Asn(16276)).unwrap();
        let base = rec.prefixes[0].base();
        let observed = stream(&[(1, Ipv4(base.0 + 1), 0), (2, Ipv4(base.0 + 2), 10_000)]);
        let merged = reconstruct_carpet_columns(&plan, &observed, 600);
        assert_eq!(merged.len(), 2);
    }

    /// A row of the owned reference: (attack id, start, targets).
    type Row = (AttackId, SimTime, Vec<Ipv4>);

    /// Reference Appendix-I reconstruction over owned rows: a stable
    /// `(prefix, start)` sort, then greedy merging of runs within the
    /// gap. [`reconstruct_carpet_columns`] must match it exactly.
    fn reconstruct_carpet_attacks(
        plan: &InternetPlan,
        observed: &[Row],
        merge_gap_secs: i64,
    ) -> Vec<Row> {
        let mut keyed: Vec<(Option<Prefix>, &Row)> = observed
            .iter()
            .map(|o| (carpet_prefix(plan, o.2[0]), o))
            .collect();
        keyed.sort_by_key(|(p, o)| (*p, o.1));

        let mut out: Vec<Row> = Vec::new();
        let mut i = 0;
        while i < keyed.len() {
            let (prefix, first) = keyed[i];
            let mut merged = first.clone();
            let mut last_start = first.1;
            let mut j = i + 1;
            while j < keyed.len() {
                let (p2, next) = keyed[j];
                let mergeable =
                    prefix.is_some() && p2 == prefix && next.1 .0 - last_start.0 <= merge_gap_secs;
                if !mergeable {
                    break;
                }
                for &t in &next.2 {
                    if !merged.2.contains(&t) {
                        merged.2.push(t);
                    }
                }
                last_start = next.1;
                j += 1;
            }
            out.push(merged);
            i = j;
        }
        out.sort_by_key(|o| (o.1, o.0));
        out
    }

    #[test]
    fn columnar_reconstruction_matches_struct_path() {
        let plan = plan();
        let base = plan.registry.get(netmodel::Asn(16276)).unwrap().prefixes[0].base();
        let other = plan.registry.get(netmodel::Asn(24940)).unwrap().prefixes[0].nth(0);
        // Same-prefix chains, a tie on (prefix, start) to exercise sort
        // stability, a foreign allocation, a time-gapped straggler, and
        // a duplicate target to exercise the union.
        let rows = [
            (4, Ipv4(base.0 + 2), 60),
            (1, Ipv4(base.0 + 1), 0),
            (2, Ipv4(base.0 + 2), 60),
            (3, Ipv4(base.0 + 3), 120),
            (5, other, 30),
            (6, Ipv4(base.0 + 9), 50_000),
        ];
        let owned: Vec<Row> = rows
            .iter()
            .map(|&(id, ip, t)| (AttackId(id), SimTime(t), vec![ip]))
            .collect();
        let struct_path = reconstruct_carpet_attacks(&plan, &owned, 600);
        let columnar = reconstruct_carpet_columns(&plan, &stream(&rows), 600);
        let columnar: Vec<Row> = columnar
            .iter()
            .map(|o| (o.attack_id, o.start, o.targets.to_vec()))
            .collect();
        assert_eq!(columnar, struct_path);
    }

    #[test]
    fn events_to_columns_roundtrip() {
        let events = vec![HoneypotEvent {
            victim: Ipv4(7),
            first_seen: SimTime(100),
            last_seen: SimTime(200),
            packets: 50,
            sensor_count: 2,
        }];
        let obs = events_to_columns(&events);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs.targets(0), &[Ipv4(7)]);
        assert_eq!(obs.get(0).start, SimTime(100));
        assert_eq!(obs.get(0).attack_id, AttackId(u64::MAX));
    }
}
