//! A mechanistic booter (DDoS-for-hire) market model (§2.1 "Enabling
//! platforms", §2.3/§6.2 takedowns).
//!
//! The macro timeline's takedown dips compress what is really a market
//! process: a heavy-tailed population of booter services, law
//! enforcement seizing the most popular ones on the two warrant dates
//! (2022-12-13, 2023-05-04 — 48 domains in the first action, 13 in the
//! second), and the survivors plus quickly respawned successors
//! re-absorbing the demand (§2.1: booters "after takedown often return
//! shortly on a new website"; Collier et al. \[31\]).
//!
//! The model is a weekly-stepped birth/death process over booter
//! services with Zipf-distributed popularity. Its *induced capacity
//! multiplier* reproduces the macro takedown curve; the
//! `booter_market_matches_macro_dip` test pins that correspondence.

use serde::{Deserialize, Serialize};
use simcore::dist::Zipf;
use simcore::time::takedown_dates;
use simcore::{SimRng, SimTime, STUDY_WEEKS};

/// Market parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BooterMarketParams {
    /// Number of booter services alive at any time (steady state).
    pub population: usize,
    /// Zipf exponent of booter popularity (a few big names carry most
    /// of the attack volume).
    pub popularity_exponent: f64,
    /// Weekly probability that a booter retires organically (operator
    /// exits, payment processor drops them, …).
    pub weekly_churn: f64,
    /// Services seized in the first / second law-enforcement action.
    pub takedown_sizes: [usize; 2],
    /// Weekly probability that a seized operator respawns under a new
    /// domain.
    pub respawn_probability: f64,
    /// Fraction of a seized service's customers who migrate to
    /// surviving booters within the takedown week (Collier et al. \[31\]:
    /// the market re-absorbs demand quickly). The rest wait for the
    /// respawn.
    pub customer_migration: f64,
}

impl Default for BooterMarketParams {
    fn default() -> Self {
        BooterMarketParams {
            population: 60,
            popularity_exponent: 1.1,
            weekly_churn: 0.01,
            takedown_sizes: [12, 6],
            respawn_probability: 0.35,
            customer_migration: 0.75,
        }
    }
}

/// One booter service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Booter {
    pub id: u32,
    /// Relative share of market demand this service carries.
    pub popularity: f64,
    pub alive: bool,
    /// Demand stranded by a seizure, waiting for this operator's
    /// respawn (zero unless seized).
    pub stranded: f64,
}

/// The simulated market: weekly capacity series over the study.
#[derive(Debug, Clone)]
pub struct BooterMarket {
    pub params: BooterMarketParams,
    /// Total alive popularity per study week.
    capacity: Vec<f64>,
    /// Number of alive services per week.
    alive_counts: Vec<usize>,
    /// Takedown weeks (for reporting).
    pub takedown_weeks: [i64; 2],
}

impl BooterMarket {
    /// Simulate the market across the study window.
    pub fn simulate(params: BooterMarketParams, rng: &SimRng) -> Self {
        let mut rng = rng.fork_named("booter-market");
        let zipf = Zipf::new(params.population, params.popularity_exponent);
        let mut booters: Vec<Booter> = (0..params.population)
            .map(|i| Booter {
                id: i as u32,
                popularity: zipf.pmf(i),
                alive: true,
                stranded: 0.0,
            })
            .collect();
        let mut next_id = params.population as u32;
        let takedown_weeks =
            takedown_dates().map(|d| d.to_sim_time().week_index());
        let mut capacity = Vec::with_capacity(STUDY_WEEKS);
        let mut alive_counts = Vec::with_capacity(STUDY_WEEKS);

        for week in 0..STUDY_WEEKS as i64 {
            // Organic churn: an operator exits and a newcomer inherits
            // the market share (demand persists, §2.1).
            for i in 0..booters.len() {
                if booters[i].alive && rng.chance(params.weekly_churn) {
                    booters[i].alive = false;
                    let popularity = booters[i].popularity;
                    booters.push(Booter {
                        id: next_id,
                        popularity,
                        alive: true,
                        stranded: 0.0,
                    });
                    next_id += 1;
                }
            }
            // Law-enforcement actions: seize the top-k alive services.
            for (action, &td_week) in takedown_weeks.iter().enumerate() {
                if week == td_week {
                    let mut alive_idx: Vec<usize> = booters
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| b.alive)
                        .map(|(i, _)| i)
                        .collect();
                    alive_idx.sort_by(|&a, &b| {
                        booters[b].popularity.total_cmp(&booters[a].popularity)
                    });
                    let seized: Vec<usize> = alive_idx
                        .iter()
                        .take(params.takedown_sizes[action])
                        .copied()
                        .collect();
                    // Most customers migrate to survivors at once; the
                    // rest are stranded until the operator respawns.
                    let mut migrated_total = 0.0;
                    for &i in &seized {
                        booters[i].alive = false;
                        let migrated = booters[i].popularity * params.customer_migration;
                        booters[i].stranded = booters[i].popularity - migrated;
                        migrated_total += migrated;
                        booters[i].popularity = 0.0;
                    }
                    let survivor_mass: f64 = booters
                        .iter()
                        .filter(|b| b.alive)
                        .map(|b| b.popularity)
                        .sum();
                    if survivor_mass > 0.0 {
                        for b in booters.iter_mut().filter(|b| b.alive) {
                            b.popularity += migrated_total * b.popularity / survivor_mass;
                        }
                    } else {
                        // The action wiped out the whole market: there is
                        // nowhere to migrate, so all demand waits for the
                        // respawns (demand conservation).
                        let stranded_mass: f64 =
                            seized.iter().map(|&i| booters[i].stranded).sum();
                        for &i in &seized {
                            let share = if stranded_mass > 0.0 {
                                booters[i].stranded / stranded_mass
                            } else {
                                1.0 / seized.len() as f64
                            };
                            booters[i].stranded += migrated_total * share;
                        }
                    }
                }
            }
            // Respawns: seized operators return under new domains and
            // recapture their stranded customers.
            for i in 0..booters.len() {
                if booters[i].stranded > 0.0 && rng.chance(params.respawn_probability) {
                    let popularity = booters[i].stranded;
                    booters[i].stranded = 0.0;
                    booters.push(Booter {
                        id: next_id,
                        popularity,
                        alive: true,
                        stranded: 0.0,
                    });
                    next_id += 1;
                }
            }
            capacity.push(
                booters
                    .iter()
                    .filter(|b| b.alive)
                    .map(|b| b.popularity)
                    .sum(),
            );
            alive_counts.push(booters.iter().filter(|b| b.alive).count());
        }
        BooterMarket {
            params,
            capacity,
            alive_counts,
            takedown_weeks,
        }
    }

    /// Total market capacity at a study week.
    pub fn capacity_at_week(&self, week: i64) -> f64 {
        self.capacity
            .get(week.clamp(0, STUDY_WEEKS as i64 - 1) as usize)
            .copied()
            .unwrap_or(0.0)
    }

    pub fn alive_at_week(&self, week: i64) -> usize {
        self.alive_counts
            .get(week.clamp(0, STUDY_WEEKS as i64 - 1) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The macro multiplier this market induces: capacity normalized to
    /// the pre-takedown average — the mechanistic counterpart of
    /// `TimelineParams::takedown_multiplier`.
    pub fn induced_multiplier(&self, t: SimTime) -> f64 {
        let week = t.week_index();
        let pre: f64 = self.capacity[..self.takedown_weeks[0] as usize]
            .iter()
            .sum::<f64>()
            / self.takedown_weeks[0] as f64;
        self.capacity_at_week(week) / pre.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineParams;

    fn market() -> BooterMarket {
        BooterMarket::simulate(BooterMarketParams::default(), &SimRng::new(5))
    }

    #[test]
    fn capacity_stable_before_takedowns() {
        let m = market();
        let w0 = m.capacity_at_week(0);
        let w_pre = m.capacity_at_week(m.takedown_weeks[0] - 1);
        assert!(
            (w_pre / w0 - 1.0).abs() < 0.25,
            "pre-takedown drift {w0} -> {w_pre}"
        );
    }

    #[test]
    fn takedown_dents_capacity() {
        let m = market();
        let before = m.capacity_at_week(m.takedown_weeks[0] - 1);
        let after = m.capacity_at_week(m.takedown_weeks[0]);
        assert!(after < before * 0.95, "takedown invisible: {before} -> {after}");
    }

    #[test]
    fn market_recovers_via_respawns() {
        // §2.1: booters "often return shortly". Within ~10 weeks the
        // market recovers most of the dent.
        let m = market();
        let before = m.capacity_at_week(m.takedown_weeks[0] - 1);
        let dip = m.capacity_at_week(m.takedown_weeks[0] + 1);
        let later = m.capacity_at_week(m.takedown_weeks[0] + 12);
        assert!(later > dip, "no recovery");
        assert!(
            later > before * 0.85,
            "recovery too weak: {before} -> {dip} -> {later}"
        );
    }

    #[test]
    fn alive_count_replenishes() {
        let m = market();
        let initial = m.alive_at_week(0);
        let final_count = m.alive_at_week(STUDY_WEEKS as i64 - 1);
        assert!(
            final_count as f64 > initial as f64 * 0.8,
            "population collapsed: {initial} -> {final_count}"
        );
    }

    #[test]
    fn booter_market_matches_macro_dip() {
        // Averaged over seeds, the market's induced multiplier matches
        // the macro takedown curve: a modest dip right after each
        // action, recovery after.
        let macro_curve = TimelineParams::default();
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let markets: Vec<BooterMarket> = seeds
            .iter()
            .map(|&s| BooterMarket::simulate(BooterMarketParams::default(), &SimRng::new(s)))
            .collect();
        let mean_mult = |week: i64| -> f64 {
            markets
                .iter()
                .map(|m| m.induced_multiplier(SimTime::from_weeks(week)))
                .sum::<f64>()
                / markets.len() as f64
        };
        let td = markets[0].takedown_weeks[0];
        // Shortly after the takedown, both models dip below 0.95.
        let mech_dip = mean_mult(td + 1);
        let macro_dip = macro_curve.takedown_multiplier(SimTime::from_weeks(td + 1));
        assert!(mech_dip < 0.95, "mechanistic dip {mech_dip}");
        assert!(
            (mech_dip - macro_dip).abs() < 0.12,
            "dip mismatch: mech {mech_dip:.3} vs macro {macro_dip:.3}"
        );
        // Ten weeks on, both have mostly recovered.
        let mech_rec = mean_mult(td + 10);
        let macro_rec = macro_curve.takedown_multiplier(SimTime::from_weeks(td + 10));
        assert!(
            (mech_rec - macro_rec).abs() < 0.12,
            "recovery mismatch: mech {mech_rec:.3} vs macro {macro_rec:.3}"
        );
    }

    #[test]
    fn deterministic() {
        let a = BooterMarket::simulate(BooterMarketParams::default(), &SimRng::new(9));
        let b = BooterMarket::simulate(BooterMarketParams::default(), &SimRng::new(9));
        for w in 0..STUDY_WEEKS as i64 {
            assert_eq!(a.capacity_at_week(w), b.capacity_at_week(w));
        }
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let m = BooterMarket::simulate(BooterMarketParams::default(), &SimRng::new(5));
        // Zipf head: total capacity exceeds population/10 × smallest
        // service's popularity many-fold — proxy: capacity at week 0
        // concentrated (top service ≈ pmf(0) of the Zipf).
        let z = Zipf::new(
            m.params.population,
            m.params.popularity_exponent,
        );
        assert!(z.pmf(0) > 5.0 * z.pmf(m.params.population - 1));
    }
}
