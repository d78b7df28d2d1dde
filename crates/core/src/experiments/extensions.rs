//! Extension experiments beyond the paper's figures:
//!
//! * `lags` — lead/lag structure between observatory series (which
//!   vantage point sees trends first), quantifying the phase offsets
//!   the paper describes narratively (§6.2: Hopscotch peaked early in
//!   2020 while AmpPot peaked late).
//! * `vendor_reports` — closes the §3 loop: synthesize vendor-style
//!   year-over-year claims from each simulated vantage point and
//!   compare them against the surveyed corpus' claim distribution,
//!   including the §3 cherry-picking (quarter-vs-year) sensitivity.

use super::ExperimentResult;
use crate::pipeline::{ObsId, StudyRun};
use crate::render::text_table;
use analytics::{best_lag, mask_counts_on};
use attackgen::{AttackRef, ObservationColumns};
use flowmon::{MitigationModel, MitigationParams};
use netmodel::AmpVector;
use reports::{period_sensitivity, synthesize, table1_industry_counts, TrendClaim};
use simcore::{ExecPool, SimRng};
use telescope::Telescope;

/// Lead/lag matrix over the ten main series.
pub fn lags(run: &StudyRun) -> ExperimentResult {
    let series = run.all_ten_normalized();
    let smoothed: Vec<analytics::WeeklySeries> = series.iter().map(|s| s.ewma(12)).collect();
    let max_lag = 16;
    // Each pair's best lag is independent of the others: one pool task
    // per pair, reported in pair order.
    let pairs: Vec<(usize, usize)> = (0..smoothed.len())
        .flat_map(|i| ((i + 1)..smoothed.len()).map(move |j| (i, j)))
        .collect();
    let best = run.pool().run_indexed(pairs.len(), |k| {
        let (i, j) = pairs[k];
        best_lag(&smoothed[i], &smoothed[j], max_lag)
    });
    let mut rows = Vec::new();
    let mut csv = String::from("leader,follower,lag_weeks,rho,p_value\n");
    for (&(i, j), best) in pairs.iter().zip(best) {
        let Some(best) = best else {
            continue;
        };
        // Only report informative pairs: significant and meaningfully
        // lagged.
        if !best.correlation.significant() {
            continue;
        }
        let (leader, follower, lag) = if best.lag >= 0 {
            (&series[i].name, &series[j].name, best.lag)
        } else {
            (&series[j].name, &series[i].name, -best.lag)
        };
        csv.push_str(&format!(
            "{},{},{},{:.4},{:.6}\n",
            leader, follower, lag, best.correlation.rho, best.correlation.p_value
        ));
        if lag >= 2 {
            rows.push(vec![
                leader.clone(),
                follower.clone(),
                format!("{lag} wk"),
                format!("{:+.2}", best.correlation.rho),
            ]);
        }
    }
    rows.sort_by(|a, b| b[3].cmp(&a[3]));
    let mut body = String::from(
        "Pairs where one observatory leads another by >= 2 weeks (EWMA, best lag in +-16 wk):\n",
    );
    if rows.is_empty() {
        body.push_str("  none — all significant pairs are in phase\n");
    } else {
        body.push_str(&text_table(&["Leader", "Follower", "Lag", "rho"], &rows));
    }
    ExperimentResult {
        id: "lags",
        title: "Extension: lead/lag structure between observatories".into(),
        body,
        csv: vec![("lags.csv".into(), csv)],
    }
}

/// Synthetic vendor reports from each vantage point vs the surveyed
/// corpus.
pub fn vendor_reports(run: &StudyRun) -> ExperimentResult {
    // Vantage points that observe both classes.
    let vantages: [(&str, ObsId, ObsId); 3] = [
        ("Netscout-like", ObsId::NetscoutDp, ObsId::NetscoutRa),
        ("Akamai-like", ObsId::AkamaiDp, ObsId::AkamaiRa),
        ("IXP-like", ObsId::IxpDp, ObsId::IxpRa),
    ];
    let fmt_claim = |c: TrendClaim| -> String {
        match c {
            TrendClaim::Increase(Some(v)) => format!("increase ({:+.0}%)", 100.0 * v),
            TrendClaim::Increase(None) => "increase".into(),
            TrendClaim::Decrease(Some(v)) => format!("decrease ({:+.0}%)", 100.0 * v),
            TrendClaim::Decrease(None) => "decrease".into(),
            TrendClaim::Mixed => "mixed".into(),
            TrendClaim::NotReported => "n/a".into(),
        }
    };
    let mut rows = Vec::new();
    let mut csv = String::from("vantage,dp_yoy,ra_yoy,dp_claim,ra_claim\n");
    let mut dp_inc = 0usize;
    let mut ra_dec = 0usize;
    for (name, dp_id, ra_id) in vantages {
        let dp = run.weekly_series(dp_id);
        let ra = run.weekly_series(ra_id);
        let report = synthesize(name, &dp, &ra);
        dp_inc += report.dp_claim.is_increase() as usize;
        ra_dec += report.ra_claim.is_decrease() as usize;
        csv.push_str(&format!(
            "{},{},{},{:?},{:?}\n",
            name,
            report.dp_yoy.map(|v| format!("{v:.4}")).unwrap_or_default(),
            report.ra_yoy.map(|v| format!("{v:.4}")).unwrap_or_default(),
            report.dp_claim,
            report.ra_claim
        ));
        rows.push(vec![
            name.to_string(),
            fmt_claim(report.dp_claim),
            fmt_claim(report.ra_claim),
        ]);
    }
    let mut body = String::from("Synthetic 2022-vs-2021 vendor claims from simulated vantages:\n");
    body.push_str(&text_table(&["Vantage", "DP claim", "RA claim"], &rows));
    let ((c_dp_inc, c_dp_dec), (c_ra_inc, c_ra_dec)) = table1_industry_counts();
    body.push_str(&format!(
        "\nSimulated vantages: DP increase {dp_inc}/3, RA decrease {ra_dec}/3\n\
         Surveyed corpus (§3): DP ▲({c_dp_inc}) ▼({c_dp_dec}), RA ▲({c_ra_inc}) ▼({c_ra_dec})\n"
    ));
    // Cherry-picking sensitivity (§3 "Comparing short periods may be
    // misleading"): quarterly spread for the Netscout-like RA series.
    let ra = run.weekly_series(ObsId::NetscoutRa);
    let quarters = period_sensitivity(&ra, 2022);
    let qvals: Vec<String> = quarters
        .iter()
        .enumerate()
        .map(|(i, q)| match q {
            Some(v) => format!("Q{}: {:+.0}%", i + 1, 100.0 * v),
            None => format!("Q{}: n/a", i + 1),
        })
        .collect();
    body.push_str(&format!(
        "\nCherry-picking check — Netscout-like RA, 2022 quarters vs 2021: {}\n\
         (a vendor quoting its best quarter would tell a different story than the annual number)\n",
        qvals.join(", ")
    ));
    ExperimentResult {
        id: "vendor_reports",
        title: "Extension: synthetic vendor reports vs the surveyed corpus".into(),
        body,
        csv: vec![("vendor_reports.csv".into(), csv)],
    }
}

/// §7.3 per-protocol honeypot composition: which amplification vectors
/// each platform's targets arrive over, and the per-vector target
/// overlap ("AmpPot observed more targets attacked via CHARGEN while
/// Hopscotch saw more targets attacked via CLDAP ... for QOTD, RPC and
/// NTP both had largely overlapping target sets").
pub fn protocols(run: &StudyRun) -> ExperimentResult {
    // Join each observation to its ground-truth vector over observation
    // ranges on the run's pool: an observation carries its attack's
    // `(start, id)` (a carpet event its first member's), and the
    // population is sorted by `(start, id)`. `NONE` marks an
    // observation of a non-amplification attack.
    const NONE: u8 = u8::MAX;
    let attacks = &run.attacks;
    let platforms = [ObsId::AmpPot, ObsId::Hopscotch];
    let vectors = platforms.map(|id| {
        let obs = run.observations(id);
        run.pool()
            .par_ranges(obs.len(), |range| {
                range
                    .map(|i| {
                        let o = obs.get(i);
                        attacks
                            .find(o.attack_id, o.start)
                            .and_then(|j| attacks.vector[j].amp_vector())
                            .map_or(NONE, |v| v as u8)
                    })
                    .collect::<Vec<u8>>()
            })
            .concat()
    });
    // One task per vector builds that vector's sorted, deduplicated
    // target set at each platform, each in one exact-size allocation,
    // and returns only their sizes and overlap.
    let counts = run.pool().run_indexed(AmpVector::ALL.len(), |i| {
        let v = AmpVector::ALL[i] as u8;
        let [amp, hop] = [0, 1].map(|p| {
            run.observations(platforms[p]).distinct_target_tuples_where(|row| vectors[p][row] == v)
        });
        let shared = mask_counts_on(&ExecPool::serial(), &[&amp, &hop])[0b11];
        (amp.len(), hop.len(), shared)
    });
    let mut rows = Vec::new();
    let mut csv = String::from("vector,amppot_targets,hopscotch_targets,shared,shared_of_smaller\n");
    for (v, (a, h, shared)) in AmpVector::ALL.into_iter().zip(counts) {
        let denom = a.min(h);
        let share = if denom > 0 {
            shared as f64 / denom as f64
        } else {
            0.0
        };
        csv.push_str(&format!("{},{},{},{},{:.4}\n", v.label(), a, h, shared, share));
        rows.push(vec![
            v.label().to_string(),
            format!("{a}"),
            format!("{h}"),
            format!("{shared}"),
            if denom > 0 { format!("{:.0}%", 100.0 * share) } else { "-".into() },
        ]);
    }
    let mut body = String::from(
        "Per-vector (date, IP) targets at the two honeypots (§7.3):\n",
    );
    body.push_str(&text_table(
        &["Vector", "AmpPot", "Hopscotch", "Shared", "Shared/smaller"],
        &rows,
    ));
    body.push_str(
        "\nExpected pattern: CHARGEN/WS-Discovery/SNMP AmpPot-only, CLDAP/Memcached\n\
         Hopscotch-only, large shared sets on the common vectors (DNS, NTP, QOTD, RPC).\n",
    );
    ExperimentResult {
        id: "protocols",
        title: "Extension (§7.3): per-protocol honeypot target composition".into(),
        body,
        csv: vec![("protocols.csv".into(), csv)],
    }
}

/// §5 interference ablation: how much telescope visibility does fast
/// industry mitigation remove? Re-observes the spoofed direct-path
/// stream with mitigation-truncated durations and compares detection
/// counts.
pub fn interference(run: &StudyRun) -> ExperimentResult {
    let root = SimRng::new(run.config.seed).fork_named("observatories");
    // Today's landscape vs a counterfactual where every alerting
    // provider's customer also filters within the first minute.
    let scenarios: [(&str, MitigationParams); 2] = [
        ("today (DPS < 1 min)", MitigationParams::default()),
        (
            "universal fast mitigation",
            MitigationParams {
                dps_delay_secs: 45,
                alerting_delay_secs: 45,
                suppression_probability: 0.9,
            },
        ),
    ];
    let models = scenarios
        .each_ref()
        .map(|(_, params)| MitigationModel::new(params.clone()));
    let telescopes = [
        ("UCSD", Telescope::ucsd(&run.plan)),
        ("ORION", Telescope::orion(&run.plan)),
    ];
    // The baseline verdict does not depend on the scenario: observe each
    // DPS row once per telescope, and again only for a scenario whose
    // mitigation actually shortens it (an untouched row is the same RNG
    // fork on the same row, so it keeps its baseline verdict). Every
    // verdict is a pure function of its row, so the attack ranges fan
    // out on the run's pool and their counts sum.
    let shards = run.pool().par_ranges(run.attacks.len(), |range| {
        let mut baseline = [0usize; 2];
        let mut mitigated = [[0usize; 2]; 2];
        let mut scratch = ObservationColumns::new();
        let mut seen = |a: AttackRef<'_>, tele: &Telescope| -> bool {
            scratch.clear();
            tele.observe_into(a, &root, &mut scratch)
        };
        for a in range.map(|i| run.attacks.get(i)) {
            if a.class != attackgen::AttackClass::DirectPathSpoofed {
                continue;
            }
            let durations = models
                .each_ref()
                .map(|m| m.effective_duration_secs(a, &run.plan, &root));
            for (t, (_, tele)) in telescopes.iter().enumerate() {
                let base = seen(a, tele);
                baseline[t] += base as usize;
                for (s, &duration_secs) in durations.iter().enumerate() {
                    mitigated[s][t] += if duration_secs == a.duration_secs {
                        base
                    } else {
                        seen(AttackRef { duration_secs, ..a }, tele)
                    } as usize;
                }
            }
        }
        (baseline, mitigated)
    });
    let mut baseline = [0usize; 2];
    let mut mitigated = [[0usize; 2]; 2];
    for (b, m) in shards {
        for t in 0..2 {
            baseline[t] += b[t];
            for s in 0..2 {
                mitigated[s][t] += m[s][t];
            }
        }
    }
    let mut rows = Vec::new();
    let mut csv = String::from("scenario,telescope,baseline,with_mitigation,lost_share\n");
    for (s, (scenario, _)) in scenarios.iter().enumerate() {
        for (t, (name, _)) in telescopes.iter().enumerate() {
            let (baseline, mitigated) = (baseline[t], mitigated[s][t]);
            let lost = 1.0 - mitigated as f64 / baseline.max(1) as f64;
            csv.push_str(&format!(
                "{scenario},{name},{baseline},{mitigated},{lost:.4}\n"
            ));
            rows.push(vec![
                scenario.to_string(),
                name.to_string(),
                format!("{baseline}"),
                format!("{mitigated}"),
                format!("{:.1}%", 100.0 * lost),
            ]);
        }
    }
    let mut body = String::from(
        "Telescope RSDoS detections with and without industry mitigation truncating\n\
         attack traffic (the §5 interference concern):\n",
    );
    body.push_str(&text_table(
        &["Scenario", "Telescope", "Baseline", "Mitigated", "Visibility lost"],
        &rows,
    ));
    body.push_str(
        "\nProtected targets mitigated inside the first minute stop backscattering\n\
         before Corsaro's 60 s flow minimum — they vanish from telescope view. Today\n\
         only DPS-protected prefixes react that fast (small loss); if every provider\n\
         did, a large share of the telescope's RSDoS picture would silently disappear —\n\
         exactly the §5 worry that better mitigation degrades independent measurement.\n",
    );
    ExperimentResult {
        id: "interference",
        title: "Extension (§5): mitigation interference with telescope visibility".into(),
        body,
        csv: vec![("interference.csv".into(), csv)],
    }
}

/// §2.3 RTBH mechanics: the blackhole announcements behind the IXP's
/// counts, with their self-inflicted costs — reaction latency, late
/// withdrawal (overshoot) and collateral (whole prefixes dropped to
/// protect single addresses).
pub fn rtbh(run: &StudyRun) -> ExperimentResult {
    use flowmon::{blackhole_events, rtbh_stats, RtbhParams};
    // The blackholed population: attacks the IXP actually observed, as
    // borrowed rows in attack order. Each observation joins to its row
    // by its attack's `(start, id)`.
    let mut rows: Vec<usize> = [ObsId::IxpDp, ObsId::IxpRa]
        .iter()
        .flat_map(|&id| run.observations(id).iter())
        .filter_map(|o| run.attacks.find(o.attack_id, o.start))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let blackholed: Vec<AttackRef<'_>> = rows.into_iter().map(|i| run.attacks.get(i)).collect();
    let root = SimRng::new(run.config.seed).fork_named("observatories");
    let events = blackhole_events(&blackholed, &RtbhParams::default(), &root);
    let accepted = events
        .iter()
        .filter(|e| flowmon::accepted_by_ixp(e, &run.plan))
        .count();
    let mut body;
    let csv;
    // Every event's attack id is in the blackholed subset, so the
    // stats join needs only those rows.
    match rtbh_stats(&events, &blackholed) {
        Some(s) => {
            body = format!(
                "Blackhole events derived from the {} IXP-observed attacks: {}\n\
                 accepted by the IXP (within customer allocations): {}\n\
                 mean blackhole duration: {:.0} s\n\
                 overshoot (blackholed time after the attack ended): {:.1}%\n\
                 mean addresses dropped per event: {:.0} (vs {:.1} actually attacked)\n",
                blackholed.len(),
                s.events,
                accepted,
                s.blackholed_secs as f64 / s.events as f64,
                100.0 * s.overshoot_share,
                s.mean_addresses_dropped,
                s.mean_addresses_attacked,
            );
            body.push_str(
                "\nReading: most blackholed time is self-inflicted post-attack unavailability,\n\
                 and each announcement drops orders of magnitude more addresses than were\n\
                 attacked — the collateral-damage concern of refs [77]/[113] (§2.3).\n",
            );
            csv = format!(
                "metric,value\nevents,{}\naccepted,{}\nblackholed_secs,{}\nattack_overlap_secs,{}\novershoot_share,{:.6}\nmean_addresses_dropped,{:.2}\nmean_addresses_attacked,{:.2}\n",
                s.events,
                accepted,
                s.blackholed_secs,
                s.attack_overlap_secs,
                s.overshoot_share,
                s.mean_addresses_dropped,
                s.mean_addresses_attacked,
            );
        }
        None => {
            body = "no blackhole events (no IXP-observed attacks in this run)\n".into();
            csv = "metric,value\nevents,0\n".into();
        }
    }
    ExperimentResult {
        id: "rtbh",
        title: "Extension (§2.3): RTBH blackholing mechanics and collateral".into(),
        body,
        csv: vec![("rtbh.csv".into(), csv)],
    }
}

/// §6.1 seasonality: H1-vs-H2 asymmetry of every series (the paper's
/// "relative attack counts reached a peak during the first half of the
/// year followed by a valley" for the two-way-traffic observatories).
pub fn seasonality(run: &StudyRun) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut csv = String::from("observatory,h1_mean,h2_mean,h1_over_h2,peak_month\n");
    for id in ObsId::MAIN_TEN {
        let s = run.normalized_series(id);
        let Some(sum) = analytics::seasonal_summary(&s) else {
            continue;
        };
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{}\n",
            id.name(),
            sum.h1_mean,
            sum.h2_mean,
            sum.h1_over_h2,
            sum.peak_month
        ));
        rows.push(vec![
            id.name().to_string(),
            format!("{:.2}", sum.h1_mean),
            format!("{:.2}", sum.h2_mean),
            format!("{:.2}", sum.h1_over_h2),
            format!("{}", sum.peak_month),
        ]);
    }
    let mut body = String::from("Half-year asymmetry of the normalized series (§6.1):\n");
    body.push_str(&text_table(
        &["Observatory", "H1 mean", "H2 mean", "H1/H2", "Peak month"],
        &rows,
    ));
    body.push_str(
        "\nH1/H2 > 1 reproduces the paper's first-half-of-year peaks at the\n\
         two-way-traffic observatories (IXP, Netscout).\n",
    );
    ExperimentResult {
        id: "seasonality",
        title: "Extension (§6.1): first-half-of-year seasonality".into(),
        body,
        csv: vec![("seasonality.csv".into(), csv)],
    }
}

/// §3 L7 growth: several vendors (Cloudflare, F5, Imperva, NBIP,
/// Netscout, NexusGuard, Radware) "reported substantial increases in
/// application-layer (L7) attacks". Measures the HTTP-flood share of
/// Netscout's direct-path alerts over the study.
pub fn l7_growth(run: &StudyRun) -> ExperimentResult {
    use attackgen::attack::AttackVector;
    let mut l7 = vec![0.0; simcore::STUDY_WEEKS];
    let mut other = vec![0.0; simcore::STUDY_WEEKS];
    for o in run.observations(ObsId::NetscoutDp).iter() {
        let w = o.start.week_index();
        if !(0..simcore::STUDY_WEEKS as i64).contains(&w) {
            continue;
        }
        // The alert joins to its attack row by the attack's `(start, id)`.
        let row = run.attacks.find(o.attack_id, o.start);
        if row.is_some_and(|i| run.attacks.vector[i] == AttackVector::HttpFlood) {
            l7[w as usize] += 1.0;
        } else {
            other[w as usize] += 1.0;
        }
    }
    let l7_series = analytics::WeeklySeries::new("L7", l7);
    let other_series = analytics::WeeklySeries::new("other DP", other);
    let share = analytics::share_series(&l7_series, &other_series).ewma(12);
    let mut body = format!(
        "L7 (HTTP-flood) share of Netscout direct-path alerts (smoothed):\n  {}\n",
        crate::render::sparkline(&share.values, 47)
    );
    for year in [2019, 2021, 2022] {
        let lo = simcore::Date::new(year, 1, 1).to_sim_time().week_index().max(0) as usize;
        let hi = (simcore::Date::new(year + 1, 1, 1).to_sim_time().week_index() as usize)
            .min(l7_series.values.len());
        let a: f64 = l7_series.values[lo..hi].iter().sum();
        let b: f64 = other_series.values[lo..hi].iter().sum();
        if a + b > 0.0 {
            body.push_str(&format!("  {year}: L7 {:.1}% of DP alerts\n", 100.0 * a / (a + b)));
        }
    }
    body.push_str(
        "\nThe rising share reproduces the §3 vendor consensus on growing\n\
         application-layer attacks (and §2.1's note that L7 floods are never\n\
         spoofed — they are invisible to telescopes and honeypots alike).\n",
    );
    let csv = crate::render::series_csv(&[l7_series, other_series, share]);
    ExperimentResult {
        id: "l7",
        title: "Extension (§3): application-layer attack growth".into(),
        body,
        csv: vec![("l7_growth.csv".into(), csv)],
    }
}

/// Ground-truth population summary in the §3 metrics taxonomy (count,
/// size, duration, vectors, methods): what an omniscient industry
/// report would have published about the simulated 4.5 years.
pub fn population(run: &StudyRun) -> ExperimentResult {
    // The population is sorted by start, so each year is one row range.
    // Each (year, DP/RA) bucket is one pool task: it collects its
    // durations (kept `u32`) and rates, selects the percentiles in
    // place, and returns only the row's numbers.
    const YEARS: std::ops::RangeInclusive<i32> = 2019..=2023;
    const CLASSES: [&str; 2] = ["DP", "RA"];
    let years: Vec<i32> = YEARS.collect();
    let starts = &run.attacks.start_secs;
    let year_start = |year: i32| {
        let t = simcore::Date::new(year, 1, 1).to_sim_time().0;
        starts.partition_point(|&s| i64::from(s) < t)
    };
    // The `p` quantile of `v` by nearest rank: the value a full sort
    // would hold at that index.
    fn quantile<T: Copy>(v: &mut [T], p: f64, cmp: impl FnMut(&T, &T) -> std::cmp::Ordering) -> T {
        *v.select_nth_unstable_by(((v.len() - 1) as f64 * p).round() as usize, cmp).1
    }
    let buckets = run.pool().run_indexed(years.len() * CLASSES.len(), |k| {
        let year = years[k / CLASSES.len()];
        let mut durations: Vec<u32> = Vec::new();
        let mut pps: Vec<f64> = Vec::new();
        let mut carpet = 0usize;
        for a in (year_start(year)..year_start(year + 1)).map(|i| run.attacks.get(i)) {
            let class = if a.class.is_direct_path() {
                0
            } else if a.class.is_reflection() {
                1
            } else {
                continue;
            };
            if class == k % CLASSES.len() {
                durations.push(a.duration_secs);
                pps.push(a.pps);
                carpet += a.is_carpet_bombing() as usize;
            }
        }
        let n = durations.len();
        (n > 0).then(|| {
            (
                n,
                [0.5, 0.9].map(|p| quantile(&mut durations, p, u32::cmp) as f64),
                [0.5, 0.99].map(|p| quantile(&mut pps, p, f64::total_cmp)),
                carpet as f64 / n as f64,
            )
        })
    });
    let short = run.attacks.duration_secs.iter().filter(|&&d| d < 600).count();
    let mut body = String::new();
    let mut csv = String::from(
        "year,class,count,duration_p50_s,duration_p90_s,pps_p50,pps_p99,carpet_share\n",
    );
    let mut rows = Vec::new();
    for (k, bucket) in buckets.into_iter().enumerate() {
        let Some((n, [d50, d90], [p50, p99], carpet_share)) = bucket else {
            continue;
        };
        let (year, label) = (years[k / CLASSES.len()], CLASSES[k % CLASSES.len()]);
        csv.push_str(&format!(
            "{year},{label},{n},{d50:.0},{d90:.0},{p50:.0},{p99:.0},{carpet_share:.4}\n"
        ));
        rows.push(vec![
            format!("{year}"),
            label.to_string(),
            format!("{n}"),
            format!("{d50:.0}s / {d90:.0}s"),
            format!("{p50:.0} / {p99:.0}"),
            format!("{:.1}%", 100.0 * carpet_share),
        ]);
    }
    body.push_str(&text_table(
        &["Year", "Class", "Count", "Duration p50/p90", "pps p50/p99", "Carpet"],
        &rows,
    ));
    // "Most attacks under 10 min" (§3): verify against the population.
    body.push_str(&format!(
        "\nAttacks under 10 minutes: {:.1}% (the §3 \"most attacks under 10 min\" claim)\n",
        100.0 * short as f64 / run.attacks.len().max(1) as f64
    ));
    ExperimentResult {
        id: "population",
        title: "Extension (§3 metrics): ground-truth attack population summary".into(),
        body,
        csv: vec![("population.csv".into(), csv)],
    }
}
