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
use analytics::{best_lag, membership, TargetTuple};
use attackgen::{AttackRef, ObservationColumns};
use flowmon::{MitigationModel, MitigationParams};
use netmodel::AmpVector;
use reports::{period_sensitivity, synthesize, table1_industry_counts, TrendClaim};
use simcore::SimRng;
use telescope::Telescope;

/// Lead/lag matrix over the ten main series.
pub fn lags(run: &StudyRun) -> ExperimentResult {
    let series = run.all_ten_normalized();
    let smoothed: Vec<analytics::WeeklySeries> = series.iter().map(|s| s.ewma(12)).collect();
    let max_lag = 16;
    let mut rows = Vec::new();
    let mut csv = String::from("leader,follower,lag_weeks,rho,p_value\n");
    for i in 0..smoothed.len() {
        for j in (i + 1)..smoothed.len() {
            let Some(best) = best_lag(&smoothed[i], &smoothed[j], max_lag) else {
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
    // Join observations back to ground-truth vectors through an
    // id-sorted index of the amplification attacks.
    let mut vector_of: Vec<(u64, AmpVector)> = run
        .attacks
        .iter()
        .filter_map(|a| a.vector.amp_vector().map(|v| (a.id.0, v)))
        .collect();
    vector_of.sort_unstable_by_key(|&(id, _)| id);
    // One sorted, deduplicated target set per vector.
    let per_vector_targets = |id: ObsId| -> Vec<Vec<TargetTuple>> {
        let mut out = vec![Vec::new(); AmpVector::ALL.len()];
        for o in run.observations(id).iter() {
            let Ok(i) = vector_of.binary_search_by_key(&o.attack_id.0, |&(id, _)| id) else {
                continue;
            };
            out[vector_of[i].1 as usize].extend(o.target_tuples());
        }
        for set in &mut out {
            set.sort_unstable();
            set.dedup();
        }
        out
    };
    let hop = per_vector_targets(ObsId::Hopscotch);
    let amp = per_vector_targets(ObsId::AmpPot);
    let mut rows = Vec::new();
    let mut csv = String::from("vector,amppot_targets,hopscotch_targets,shared,shared_of_smaller\n");
    for v in AmpVector::ALL {
        let (a, h) = (&amp[v as usize], &hop[v as usize]);
        let shared = membership(&[a, h])
            .iter()
            .filter(|&&(_, mask)| mask == 0b11)
            .count();
        let (a, h) = (a.len(), h.len());
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
    // fork on the same row, so it keeps its baseline verdict).
    let mut baseline = [0usize; 2];
    let mut mitigated = [[0usize; 2]; 2];
    let mut scratch = ObservationColumns::new();
    let mut seen = |a: AttackRef<'_>, tele: &Telescope| -> bool {
        scratch.clear();
        tele.observe_into(a, &root, &mut scratch)
    };
    for a in run.attacks.iter() {
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
    // borrowed rows in attack order.
    let mut observed_ids: Vec<u64> = run.observations(ObsId::IxpDp).attack_id.clone();
    observed_ids.extend_from_slice(&run.observations(ObsId::IxpRa).attack_id);
    observed_ids.sort_unstable();
    let blackholed: Vec<AttackRef<'_>> = run
        .attacks
        .iter()
        .filter(|a| observed_ids.binary_search(&a.id.0).is_ok())
        .collect();
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
    let mut l7_ids: Vec<u64> = run
        .attacks
        .iter()
        .filter(|a| a.vector == AttackVector::HttpFlood)
        .map(|a| a.id.0)
        .collect();
    l7_ids.sort_unstable();
    let mut l7 = vec![0.0; simcore::STUDY_WEEKS];
    let mut other = vec![0.0; simcore::STUDY_WEEKS];
    for o in run.observations(ObsId::NetscoutDp).iter() {
        let w = o.start.week_index();
        if !(0..simcore::STUDY_WEEKS as i64).contains(&w) {
            continue;
        }
        if l7_ids.binary_search(&o.attack_id.0).is_ok() {
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
    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    };
    // One pass over the population buckets the scalars each row reports
    // by (year, DP/RA); durations stay `u32` until sorted.
    const YEARS: std::ops::RangeInclusive<i32> = 2019..=2023;
    let bounds: Vec<simcore::SimTime> = (*YEARS.start()..=*YEARS.end() + 1)
        .map(|year| simcore::Date::new(year, 1, 1).to_sim_time())
        .collect();
    #[derive(Default)]
    struct Bucket {
        durations: Vec<u32>,
        pps: Vec<f64>,
        carpet: usize,
    }
    let mut buckets: Vec<[Bucket; 2]> = YEARS.map(|_| Default::default()).collect();
    let mut short = 0usize;
    for a in run.attacks.iter() {
        short += (a.duration_secs < 600) as usize;
        let class = if a.class.is_direct_path() {
            0
        } else if a.class.is_reflection() {
            1
        } else {
            continue;
        };
        let Some(year) = bounds
            .windows(2)
            .position(|w| a.start >= w[0] && a.start < w[1])
        else {
            continue;
        };
        let b = &mut buckets[year][class];
        b.durations.push(a.duration_secs);
        b.pps.push(a.pps);
        b.carpet += a.is_carpet_bombing() as usize;
    }
    let mut body = String::new();
    let mut csv = String::from(
        "year,class,count,duration_p50_s,duration_p90_s,pps_p50,pps_p99,carpet_share\n",
    );
    let mut rows = Vec::new();
    for (year, classes) in YEARS.zip(&mut buckets) {
        for (label, b) in ["DP", "RA"].into_iter().zip(classes) {
            let n = b.durations.len();
            if n == 0 {
                continue;
            }
            b.durations.sort_unstable();
            let durations: Vec<f64> = b.durations.iter().map(|&d| d as f64).collect();
            b.pps.sort_by(|a, b| a.total_cmp(b));
            let pps = &b.pps;
            let carpet_share = b.carpet as f64 / n as f64;
            csv.push_str(&format!(
                "{year},{label},{},{:.0},{:.0},{:.0},{:.0},{:.4}\n",
                n,
                percentile(&durations, 0.5),
                percentile(&durations, 0.9),
                percentile(pps, 0.5),
                percentile(pps, 0.99),
                carpet_share,
            ));
            rows.push(vec![
                format!("{year}"),
                label.to_string(),
                format!("{n}"),
                format!(
                    "{:.0}s / {:.0}s",
                    percentile(&durations, 0.5),
                    percentile(&durations, 0.9)
                ),
                format!("{:.0} / {:.0}", percentile(pps, 0.5), percentile(pps, 0.99)),
                format!("{:.1}%", 100.0 * carpet_share),
            ]);
        }
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
