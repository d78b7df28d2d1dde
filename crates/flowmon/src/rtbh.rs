//! Remote-triggered blackhole (RTBH) event mechanics (§2.3).
//!
//! The IXP observatory's raw material is blackhole announcements: "a
//! target (victim) remotely triggers the dropping of traffic to a whole
//! IP prefix when one or more addresses in that prefix is under a DDoS
//! attack. Blackholing risks collateral damage." This module makes the
//! announcements first-class events — reaction latency, withdrawal lag
//! (operators leave blackholes up long after the attack ends), and the
//! collateral cost of dropping a whole prefix to protect one address —
//! the phenomena of refs \[77\]/\[113\] that the paper's IXP counts sit on
//! top of.

use attackgen::{AttackId, AttackRef};
use netmodel::{InternetPlan, Prefix};
use serde::{Deserialize, Serialize};
use simcore::dist::log_normal;
use simcore::{SimRng, SimTime};

/// Operator-behavior parameters of the blackholing process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RtbhParams {
    /// Median seconds from attack start until the victim announces the
    /// blackhole (detection + human/automation reaction).
    pub reaction_median_secs: f64,
    pub reaction_sigma: f64,
    /// Median seconds the blackhole stays up *after* the attack ends
    /// (operators withdraw late; \[113\] reports hours-long tails).
    pub overstay_median_secs: f64,
    pub overstay_sigma: f64,
    /// Probability that the victim announces a covering /24 rather than
    /// the single /32 (coarse announcements maximize collateral).
    pub announce_slash24_probability: f64,
}

impl Default for RtbhParams {
    fn default() -> Self {
        RtbhParams {
            reaction_median_secs: 300.0,
            reaction_sigma: 0.8,
            overstay_median_secs: 7_200.0,
            overstay_sigma: 1.0,
            announce_slash24_probability: 0.6,
        }
    }
}

/// One blackhole announcement at the IXP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlackholeEvent {
    pub attack_id: AttackId,
    /// The announced (dropped) prefix.
    pub prefix: Prefix,
    pub announced_at: SimTime,
    pub withdrawn_at: SimTime,
}

impl BlackholeEvent {
    pub fn duration_secs(&self) -> i64 {
        self.withdrawn_at.0 - self.announced_at.0
    }
}

/// Derive the blackhole events a set of *IXP-observed* attacks would
/// trigger. Deterministic per attack id.
pub fn blackhole_events(
    attacks: &[AttackRef<'_>],
    params: &RtbhParams,
    root: &SimRng,
) -> Vec<BlackholeEvent> {
    let mut out = Vec::new();
    for attack in attacks {
        let mut rng = root.fork(attack.id.0).fork_named("rtbh");
        let reaction =
            log_normal(&mut rng, params.reaction_median_secs.ln(), params.reaction_sigma) as i64;
        // A blackhole only makes sense while the attack still runs.
        if reaction >= attack.duration_secs as i64 {
            continue;
        }
        let overstay =
            log_normal(&mut rng, params.overstay_median_secs.ln(), params.overstay_sigma) as i64;
        let len = if rng.chance(params.announce_slash24_probability) {
            24
        } else {
            32
        };
        out.push(BlackholeEvent {
            attack_id: attack.id,
            prefix: Prefix::new(attack.primary_target(), len),
            announced_at: attack.start.plus_secs(reaction),
            withdrawn_at: attack.end().plus_secs(overstay),
        });
    }
    out.sort_by_key(|e| (e.announced_at, e.attack_id));
    out
}

/// Aggregate cost statistics of a blackhole event set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RtbhStats {
    pub events: usize,
    /// Total prefix-seconds dropped.
    pub blackholed_secs: i64,
    /// Prefix-seconds dropped while the attack was actually running.
    pub attack_overlap_secs: i64,
    /// Share of blackholed time spent *after* the attack ended
    /// (overshoot — pure self-inflicted unavailability).
    pub overshoot_share: f64,
    /// Mean addresses dropped per blackhole (collateral: everything in
    /// the announced prefix beyond the attacked addresses).
    pub mean_addresses_dropped: f64,
    /// Mean addresses actually under attack per event.
    pub mean_addresses_attacked: f64,
}

/// Compute the cost statistics against the ground-truth attacks, joined
/// on attack id (`attacks` may be in any order). Events whose attack is
/// not among `attacks` count toward blackholed time and dropped
/// addresses, but not toward attack overlap or attacked addresses.
pub fn rtbh_stats(events: &[BlackholeEvent], attacks: &[AttackRef<'_>]) -> Option<RtbhStats> {
    if events.is_empty() {
        return None;
    }
    let mut by_id: Vec<&AttackRef<'_>> = attacks.iter().collect();
    by_id.sort_unstable_by_key(|a| a.id);
    let find = |id: AttackId| {
        by_id
            .binary_search_by_key(&id, |a| a.id)
            .ok()
            .map(|i| by_id[i])
    };
    let mut blackholed = 0i64;
    let mut overlap = 0i64;
    let mut dropped = 0.0f64;
    let mut attacked = 0.0f64;
    for e in events {
        let span = e.duration_secs();
        blackholed += span;
        if let Some(a) = find(e.attack_id) {
            let start = e.announced_at.0.max(a.start.0);
            let end = e.withdrawn_at.0.min(a.end().0);
            overlap += (end - start).max(0);
            attacked += a.targets.len() as f64;
        }
        dropped += e.prefix.size() as f64;
    }
    Some(RtbhStats {
        events: events.len(),
        blackholed_secs: blackholed,
        attack_overlap_secs: overlap,
        overshoot_share: 1.0 - overlap as f64 / blackholed.max(1) as f64,
        mean_addresses_dropped: dropped / events.len() as f64,
        mean_addresses_attacked: attacked / events.len() as f64,
    })
}

/// Which plan-routed prefix a blackhole would propagate for (RTBH
/// signals are accepted for customer prefixes; an announcement wider
/// than the covering allocation is rejected).
pub fn accepted_by_ixp(event: &BlackholeEvent, plan: &InternetPlan) -> bool {
    match plan.allocation_of(event.prefix.base()) {
        Some(alloc) => alloc.block.covers(event.prefix),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attackgen::attack::{Attack, AttackClass, AttackVector};
    use netmodel::{Asn, Ipv4, NetScale};

    fn attack(id: u64, target: Ipv4, start: i64, duration: u32) -> Attack {
        Attack {
            id: AttackId(id),
            class: AttackClass::DirectPathNonSpoofed,
            vector: AttackVector::SynFlood,
            start: SimTime(start),
            duration_secs: duration,
            targets: vec![target],
            target_asn: Asn(1),
            pps: 100_000.0,
            bps: 3e8,
            reflectors: None,
            spoof_space_fraction: 0.0,
            campaign: None,
        }
    }

    #[test]
    fn events_follow_attacks() {
        let attacks: Vec<Attack> = (0..50)
            .map(|i| attack(i, Ipv4(0x0A00_0000 + i as u32), i as i64 * 10_000, 7200))
            .collect();
        let refs: Vec<AttackRef<'_>> = attacks.iter().map(Attack::view).collect();
        let events = blackhole_events(&refs, &RtbhParams::default(), &SimRng::new(1));
        assert!(!events.is_empty());
        for e in &events {
            let a = &attacks[e.attack_id.0 as usize];
            assert!(e.announced_at > a.start, "announced before the attack");
            assert!(e.announced_at < a.end(), "announced after the attack");
            assert!(e.withdrawn_at > a.end(), "withdrawn before the attack ended");
            assert!(e.prefix.contains(a.primary_target()));
            assert!(e.prefix.len() == 24 || e.prefix.len() == 32);
        }
    }

    #[test]
    fn short_attacks_escape_blackholing() {
        // Attacks shorter than the reaction time never get blackholed.
        let attacks: Vec<Attack> = (0..100)
            .map(|i| attack(i, Ipv4(1 + i as u32), 0, 30))
            .collect();
        let refs: Vec<AttackRef<'_>> = attacks.iter().map(Attack::view).collect();
        let events = blackhole_events(&refs, &RtbhParams::default(), &SimRng::new(1));
        // Median reaction is 300 s; a 30 s attack is essentially never
        // caught in time.
        assert!(
            events.len() < 5,
            "{} short attacks blackholed",
            events.len()
        );
    }

    #[test]
    fn stats_capture_overshoot() {
        let a = attack(0, Ipv4(0x0A00_0001), 0, 3600);
        let events = vec![BlackholeEvent {
            attack_id: AttackId(0),
            prefix: Prefix::new(Ipv4(0x0A00_0001), 24),
            announced_at: SimTime(600),
            withdrawn_at: SimTime(3600 + 7200), // 2 h overstay
        }];
        let s = rtbh_stats(&events, &[a.view()]).unwrap();
        assert_eq!(s.events, 1);
        assert_eq!(s.blackholed_secs, 10_200);
        assert_eq!(s.attack_overlap_secs, 3_000);
        assert!((s.overshoot_share - (1.0 - 3000.0 / 10200.0)).abs() < 1e-12);
        assert_eq!(s.mean_addresses_dropped, 256.0);
        assert_eq!(s.mean_addresses_attacked, 1.0);
    }

    #[test]
    fn stats_join_on_id_across_unsorted_rows() {
        let mut wide = attack(5, Ipv4(0x0A00_0001), 0, 1000);
        wide.targets.push(Ipv4(0x0A00_0002));
        let narrow = attack(2, Ipv4(0x0B00_0001), 5000, 1000);
        let event = |id: u64, at: i64| BlackholeEvent {
            attack_id: AttackId(id),
            prefix: Prefix::new(Ipv4(0x0A00_0001), 32),
            announced_at: SimTime(at),
            withdrawn_at: SimTime(at + 2000),
        };
        // Attack 9 is not among the rows: it adds blackholed time and a
        // dropped address, nothing else.
        let events = [event(5, 100), event(2, 5100), event(9, 0)];
        let s = rtbh_stats(&events, &[wide.view(), narrow.view()]).unwrap();
        assert_eq!(s.events, 3);
        assert_eq!(s.blackholed_secs, 6000);
        assert_eq!(s.attack_overlap_secs, 900 + 900);
        assert_eq!(s.mean_addresses_dropped, 1.0);
        assert_eq!(s.mean_addresses_attacked, 1.0, "(2 + 1 + 0) / 3");
    }

    #[test]
    fn stats_none_on_empty() {
        assert!(rtbh_stats(&[], &[]).is_none());
    }

    #[test]
    fn deterministic_events() {
        let attacks: Vec<Attack> = (0..20)
            .map(|i| attack(i, Ipv4(100 + i as u32), 0, 7200))
            .collect();
        let refs: Vec<AttackRef<'_>> = attacks.iter().map(Attack::view).collect();
        let a = blackhole_events(&refs, &RtbhParams::default(), &SimRng::new(9));
        let b = blackhole_events(&refs, &RtbhParams::default(), &SimRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn ixp_rejects_over_broad_announcements() {
        let mut rng = SimRng::new(100);
        let plan = InternetPlan::build(&NetScale::tiny(), &mut rng);
        let rec = plan.registry.get(Asn(16276)).unwrap();
        let inside = rec.prefixes[0].nth(7);
        let ok = BlackholeEvent {
            attack_id: AttackId(1),
            prefix: Prefix::new(inside, 24),
            announced_at: SimTime(0),
            withdrawn_at: SimTime(100),
        };
        assert!(accepted_by_ixp(&ok, &plan));
        // A /8 covering far more than the customer's allocation.
        let too_broad = BlackholeEvent {
            prefix: Prefix::new(inside, 8),
            ..ok
        };
        assert!(!accepted_by_ixp(&too_broad, &plan));
        // Unrouted space.
        let nowhere = BlackholeEvent {
            prefix: Prefix::new(Ipv4::new(223, 255, 255, 1), 24),
            ..ok
        };
        assert!(!accepted_by_ixp(&nowhere, &plan));
    }
}
