//! The Akamai Prolexic observatory model.
//!
//! Prolexic is a DDoS protection service that "detects and mitigates
//! attacks in traffic transiting its AS" (§5): customers own prefixes
//! that can be rerouted through the Prolexic AS. Visibility is therefore
//! scoped to the protected prefix set — which is why the paper's target
//! joins with Akamai are ≈ 100× smaller than with Netscout (§7.2), and
//! why Akamai's trends diverge from every other observatory (§6.3).

use attackgen::{AttackClass, AttackRef, ObservationColumns};
use netmodel::{InternetPlan, PrefixTable};
use serde::{Deserialize, Serialize};
use simcore::SimRng;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AkamaiConfig {
    /// Detection probability for attacks on protected prefixes (the DPS
    /// sits directly on the traffic path, so this is high).
    pub detection_probability: f64,
    /// Minimum bit rate to register as an attack event.
    pub min_bps: f64,
}

impl Default for AkamaiConfig {
    fn default() -> Self {
        AkamaiConfig {
            detection_probability: 0.95,
            min_bps: 1e7,
        }
    }
}

/// Event-level Akamai Prolexic.
#[derive(Debug, Clone)]
pub struct Akamai {
    pub cfg: AkamaiConfig,
    protected: PrefixTable<()>,
    /// Injected data-plane faults (outage windows, flow-sampling
    /// degradation). Empty by default and bit-for-bit inert when empty.
    pub faults: simcore::faults::ObsFaults,
}

impl Akamai {
    pub fn new(plan: &InternetPlan, cfg: AkamaiConfig) -> Self {
        Akamai {
            cfg,
            protected: plan.akamai_protected.clone(),
            faults: simcore::faults::ObsFaults::default(),
        }
    }

    pub fn with_defaults(plan: &InternetPlan) -> Self {
        Self::new(plan, AkamaiConfig::default())
    }

    /// Is the address inside the protected scope?
    pub fn protects(&self, ip: netmodel::Ipv4) -> bool {
        self.protected.lookup(ip).is_some()
    }

    /// Event-level observation into a columnar sink. On detection the
    /// observation row (targets clipped to protected space) is appended
    /// to `out` and the attack's class is returned, so the caller can
    /// route the row into the RA or DP series (Akamai publishes them
    /// separately, Fig. 2(d)/3(d)).
    pub fn observe_into(
        &self,
        attack: AttackRef<'_>,
        root: &SimRng,
        out: &mut ObservationColumns,
    ) -> Option<AttackClass> {
        // Outage check first, before any RNG fork, so unaffected weeks
        // keep their exact detection streams.
        let week = attack.start.week_index();
        if self.faults.is_down(week) {
            return None;
        }
        // At least one target must be in protected space.
        if !attack.targets.iter().any(|&t| self.protects(t)) {
            return None;
        }
        if attack.bps < self.cfg.min_bps {
            return None;
        }
        let mut rng = root.fork(attack.id.0).fork_named("akamai-prolexic");
        if !rng.chance(self.cfg.detection_probability) {
            return None;
        }
        // Sampling degradation swallows the would-be detection from a
        // dedicated RNG fork, leaving the main draw stream untouched.
        if self.faults.drops_sample(root, attack.id.0, week) {
            return None;
        }
        out.begin_row(attack.id, attack.start);
        for &t in attack.targets {
            if self.protects(t) {
                out.push_target(t);
            }
        }
        out.commit_row();
        Some(attack.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attackgen::attack::{Attack, AttackId, AttackVector};
    use netmodel::{Asn, Ipv4, NetScale};
    use simcore::SimTime;

    fn plan() -> InternetPlan {
        let mut rng = SimRng::new(100);
        InternetPlan::build(&NetScale::tiny(), &mut rng)
    }

    /// One attack through [`Akamai::observe_into`]: the detected class
    /// and the one-row stream, or `None` when Prolexic saw nothing.
    fn observe_one(
        ak: &Akamai,
        a: &Attack,
        root: &SimRng,
    ) -> Option<(AttackClass, ObservationColumns)> {
        let mut out = ObservationColumns::new();
        let class = ak.observe_into(a.view(), root, &mut out)?;
        Some((class, out))
    }

    fn attack_on(ip: Ipv4, id: u64, class: AttackClass) -> Attack {
        Attack {
            id: AttackId(id),
            class,
            vector: AttackVector::SynFlood,
            start: SimTime(1000),
            duration_secs: 300,
            targets: vec![ip],
            target_asn: Asn(1),
            pps: 50_000.0,
            bps: 1.7e8,
            reflectors: None,
            spoof_space_fraction: 0.0,
            campaign: None,
        }
    }

    #[test]
    fn protected_targets_usually_observed() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let ip = plan.akamai_prefix_list[0].nth(3);
        let seen = (0..200)
            .filter(|&id| {
                let a = attack_on(ip, id, AttackClass::DirectPathNonSpoofed);
                observe_one(&ak, &a, &root).is_some()
            })
            .count();
        assert!(seen > 170, "seen {seen}");
    }

    #[test]
    fn unprotected_targets_invisible() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        // Find an address outside all protected prefixes.
        let outside = plan
            .registry
            .iter()
            .flat_map(|r| r.prefixes.iter())
            .map(|p| p.nth(1))
            .find(|&ip| !ak.protects(ip))
            .unwrap();
        for id in 0..100 {
            let a = attack_on(outside, id, AttackClass::DirectPathNonSpoofed);
            assert!(observe_one(&ak, &a, &root).is_none());
        }
    }

    #[test]
    fn tiny_attacks_filtered() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let ip = plan.akamai_prefix_list[0].nth(3);
        for id in 0..100 {
            let mut a = attack_on(ip, id, AttackClass::DirectPathNonSpoofed);
            a.bps = 1e6;
            assert!(observe_one(&ak, &a, &root).is_none());
        }
    }

    #[test]
    fn carpet_observation_clipped_to_protected_space() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let protected = plan.akamai_prefix_list[0].nth(3);
        let outside = plan
            .registry
            .iter()
            .flat_map(|r| r.prefixes.iter())
            .map(|p| p.nth(1))
            .find(|&ip| !ak.protects(ip))
            .unwrap();
        let mut found = false;
        for id in 0..50 {
            let mut a = attack_on(protected, id, AttackClass::ReflectionAmplification);
            a.targets = vec![protected, outside];
            if let Some((class, o)) = observe_one(&ak, &a, &root) {
                assert!(class.is_reflection());
                assert_eq!(o.targets(0), &[protected]);
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn split_series_by_class() {
        let plan = plan();
        let ak = Akamai::with_defaults(&plan);
        let root = SimRng::new(1);
        let ip = plan.akamai_prefix_list[0].nth(3);
        let attacks: Vec<Attack> = (0..200)
            .map(|id| {
                attack_on(
                    ip,
                    id,
                    if id % 2 == 0 {
                        AttackClass::ReflectionAmplification
                    } else {
                        AttackClass::DirectPathSpoofed
                    },
                )
            })
            .collect();
        let mut ra = ObservationColumns::new();
        let mut dp = ObservationColumns::new();
        for a in &attacks {
            let out = if a.class.is_reflection() {
                &mut ra
            } else {
                &mut dp
            };
            if let Some(class) = ak.observe_into(a.view(), &root, out) {
                assert_eq!(class, a.class);
            }
        }
        assert!(!ra.is_empty() && !dp.is_empty());
        assert!(ra.attack_id.iter().all(|id| id % 2 == 0));
        assert!(dp.attack_id.iter().all(|id| id % 2 == 1));
    }
}
