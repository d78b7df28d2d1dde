//! Target-overlap time series and industry confirmation joins
//! (Fig. 8, 9, 10, 13 and the §7 scalar statistics).

use crate::membership::{ip_sets_on, mask_counts_on, merge, sorted_distinct, MAX_SETS};
use crate::upset::TargetTuple;
use serde::{Deserialize, Serialize};
use simcore::{ExecPool, STUDY_WEEKS};
use std::collections::HashSet;

/// Study week of a day index, if inside the study window.
fn week_of(day: i64) -> Option<usize> {
    let w = day.div_euclid(7);
    (0..STUDY_WEEKS as i64).contains(&w).then_some(w as usize)
}

/// Weekly counts of distinct (day, IP) targets: tuples are daily-
/// distinct by construction; the weekly series sums days (§5: "time
/// series count daily tuples and sum them up to weekly totals").
pub fn weekly_target_counts(tuples: &[TargetTuple]) -> Vec<f64> {
    let mut out = vec![0.0; STUDY_WEEKS];
    for &(day, _) in sorted_distinct(tuples).iter() {
        if let Some(w) = week_of(day) {
            out[w] += 1.0;
        }
    }
    out
}

/// Fig. 10: two observatories' weekly target counts plus the weekly
/// count of targets they share.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlapSeries {
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub shared: Vec<f64>,
}

/// All three series of [`OverlapSeries`] from one merge of `a` and `b`.
pub fn weekly_overlap(a: &[TargetTuple], b: &[TargetTuple]) -> OverlapSeries {
    let mut out = OverlapSeries {
        a: vec![0.0; STUDY_WEEKS],
        b: vec![0.0; STUDY_WEEKS],
        shared: vec![0.0; STUDY_WEEKS],
    };
    merge(&[a, b], |(day, _), mask| {
        let Some(w) = week_of(day) else {
            return;
        };
        if mask & 0b01 != 0 {
            out.a[w] += 1.0;
        }
        if mask & 0b10 != 0 {
            out.b[w] += 1.0;
        }
        if mask == 0b11 {
            out.shared[w] += 1.0;
        }
    });
    out
}

/// Fig. 8: weekly decomposition of a target stream into *new* IPs
/// (never attacked before within the stream) and *recurring* ones, plus
/// the cumulative CDF of new-target arrivals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NewRecurring {
    pub new_targets: Vec<f64>,
    pub recurring_targets: Vec<f64>,
    /// Cumulative share of all distinct IPs first seen by each week.
    pub cdf: Vec<f64>,
}

pub fn new_vs_recurring(tuples: &[TargetTuple]) -> NewRecurring {
    // Tuple order is day order: track the first appearance of each IP.
    let mut seen: HashSet<netmodel::Ipv4> = HashSet::new();
    let mut new_targets = vec![0.0; STUDY_WEEKS];
    let mut recurring = vec![0.0; STUDY_WEEKS];
    for &(day, ip) in sorted_distinct(tuples).iter() {
        let Some(w) = week_of(day) else {
            continue;
        };
        if seen.insert(ip) {
            new_targets[w] += 1.0;
        } else {
            recurring[w] += 1.0;
        }
    }
    let total_new: f64 = new_targets.iter().sum();
    let mut acc = 0.0;
    let cdf = new_targets
        .iter()
        .map(|&n| {
            acc += n;
            if total_new > 0.0 {
                acc / total_new
            } else {
                0.0
            }
        })
        .collect();
    NewRecurring {
        new_targets,
        recurring_targets: recurring,
        cdf,
    }
}

/// Fig. 9 / Fig. 13: for each exclusive academic subset, the share of
/// its targets confirmed by an industry baseline set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfirmationShares {
    /// (subset mask over the academic sets, subset size, confirmed share).
    pub rows: Vec<(u16, usize, f64)>,
    /// Reverse view: share of the industry set seen by each academic
    /// observatory independently (§7.2 "how many targets inferred by
    /// Netscout were also observed by academia").
    pub industry_seen_by: Vec<f64>,
    /// Share of the industry set seen by the union of academic sets.
    pub industry_seen_by_union: f64,
}

/// Both directions of the join from one merge: the industry set rides
/// along as the top membership bit above the (at most 15) academic sets.
pub fn confirmation_shares<S: AsRef<[TargetTuple]>>(
    academic: &[(String, S)],
    industry: &[TargetTuple],
) -> ConfirmationShares {
    confirmation_shares_on(&ExecPool::serial(), academic, industry)
}

/// [`confirmation_shares`] on `pool`: one mask count over key ranges.
pub fn confirmation_shares_on<S: AsRef<[TargetTuple]>>(
    pool: &ExecPool,
    academic: &[(String, S)],
    industry: &[TargetTuple],
) -> ConfirmationShares {
    let k = academic.len();
    assert!(
        k < MAX_SETS,
        "confirmation supports at most {} academic sets",
        MAX_SETS - 1
    );
    let mut sets: Vec<&[TargetTuple]> = academic.iter().map(|(_, s)| s.as_ref()).collect();
    sets.push(industry);
    let industry_bit = 1u16 << k;
    // Per exclusive academic subset: (targets, confirmed targets).
    let mut subsets = vec![(0usize, 0usize); 1 << k];
    let mut seen_by = vec![0usize; k];
    let mut seen_by_union = 0usize;
    let mut industry_n = 0usize;
    for (mask, &n) in mask_counts_on(pool, &sets).iter().enumerate() {
        let mask = mask as u16;
        let subset = mask & !industry_bit;
        let confirmed = mask & industry_bit != 0;
        if subset != 0 {
            let row = &mut subsets[subset as usize];
            row.0 += n;
            row.1 += if confirmed { n } else { 0 };
        }
        if confirmed {
            industry_n += n;
            seen_by_union += if subset != 0 { n } else { 0 };
            for (i, seen) in seen_by.iter_mut().enumerate() {
                *seen += (subset >> i & 1) as usize * n;
            }
        }
    }
    let rows = subsets
        .iter()
        .enumerate()
        .filter(|&(_, &(total, _))| total > 0)
        .map(|(mask, &(total, confirmed))| (mask as u16, total, confirmed as f64 / total as f64))
        .collect();
    let industry_n = industry_n.max(1) as f64;
    ConfirmationShares {
        rows,
        industry_seen_by: seen_by.iter().map(|&n| n as f64 / industry_n).collect(),
        industry_seen_by_union: seen_by_union as f64 / industry_n,
    }
}

/// Share of distinct *IP addresses* (not tuples) common to two streams,
/// relative to the smaller set — the Jonker-et-al.-style comparison of
/// §7.1 ("this overlap is lower, i.e., 1.18%–2.9% of the IP addresses").
/// The merge runs over the streams' sorted IP projections.
pub fn ip_overlap_share(a: &[TargetTuple], b: &[TargetTuple]) -> f64 {
    ip_overlap_share_on(&ExecPool::serial(), a, b)
}

/// [`ip_overlap_share`] on `pool`: the two IP projections are two
/// tasks, their overlap one mask count over key ranges.
pub fn ip_overlap_share_on(pool: &ExecPool, a: &[TargetTuple], b: &[TargetTuple]) -> f64 {
    let ips = ip_sets_on(pool, &[a, b]);
    let by_mask = mask_counts_on(pool, &[&ips[0], &ips[1]]);
    let smaller = (by_mask[0b01] + by_mask[0b11]).min(by_mask[0b10] + by_mask[0b11]);
    if smaller == 0 {
        return 0.0;
    }
    by_mask[0b11] as f64 / smaller as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Ipv4;

    fn t(day: i64, ip: u32) -> TargetTuple {
        (day, Ipv4(ip))
    }

    #[test]
    fn weekly_counts_dedupe_and_bucket() {
        let tuples = vec![t(0, 1), t(0, 1), t(6, 2), t(7, 3), t(-1, 4), t(999_999, 5)];
        let counts = weekly_target_counts(&tuples);
        assert_eq!(counts[0], 2.0);
        assert_eq!(counts[1], 1.0);
        assert_eq!(counts.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn overlap_series_shared_subset() {
        let a = vec![t(0, 1), t(0, 2), t(7, 3)];
        let b = vec![t(0, 2), t(7, 3), t(7, 4)];
        let o = weekly_overlap(&a, &b);
        assert_eq!(o.a[0], 2.0);
        assert_eq!(o.b[0], 1.0);
        assert_eq!(o.shared[0], 1.0);
        assert_eq!(o.shared[1], 1.0);
        // Shared never exceeds either side.
        for w in 0..STUDY_WEEKS {
            assert!(o.shared[w] <= o.a[w] && o.shared[w] <= o.b[w]);
        }
    }

    #[test]
    fn new_vs_recurring_split() {
        // ip1 attacked on day 0 and day 7: new then recurring.
        let tuples = vec![t(0, 1), t(7, 1), t(7, 2)];
        let nr = new_vs_recurring(&tuples);
        assert_eq!(nr.new_targets[0], 1.0);
        assert_eq!(nr.new_targets[1], 1.0);
        assert_eq!(nr.recurring_targets[1], 1.0);
        // CDF ends at 1.
        assert!((nr.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        // CDF is monotone.
        for w in nr.cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn new_vs_recurring_empty() {
        let nr = new_vs_recurring(&[]);
        assert!(nr.new_targets.iter().all(|&x| x == 0.0));
        assert!(nr.cdf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn confirmation_shares_exclusive_subsets() {
        let academic = vec![
            ("T".to_string(), vec![t(0, 1), t(0, 2)]),
            ("H".to_string(), vec![t(0, 2), t(0, 3)]),
        ];
        // Industry confirms ip2 (seen by both) and ip3 (H only).
        let industry = vec![t(0, 2), t(0, 3), t(0, 9)];
        let c = confirmation_shares(&academic, &industry);
        let row = |mask: u16| c.rows.iter().find(|(m, _, _)| *m == mask).unwrap();
        // T-only = {ip1}: 0 confirmed.
        assert_eq!(row(0b01).2, 0.0);
        // H-only = {ip3}: fully confirmed.
        assert_eq!(row(0b10).2, 1.0);
        // Both = {ip2}: fully confirmed.
        assert_eq!(row(0b11).2, 1.0);
        // Industry seen by T: 1/3; by H: 2/3; by union: 2/3.
        assert!((c.industry_seen_by[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.industry_seen_by[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.industry_seen_by_union - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_seen_targets_confirmed_when_industry_superset() {
        let academic = vec![("A".to_string(), vec![t(0, 1), t(1, 2)])];
        let industry = vec![t(0, 1), t(1, 2), t(2, 3)];
        let c = confirmation_shares(&academic, &industry);
        assert_eq!(c.rows.len(), 1);
        assert_eq!(c.rows[0].2, 1.0);
    }

    #[test]
    fn ip_overlap_uses_addresses_not_tuples() {
        // Same IP on different days still counts once.
        let a = vec![t(0, 1), t(5, 1), t(0, 2)];
        let b = vec![t(9, 1), t(9, 7)];
        // smaller set has 2 IPs {1,7}; intersection {1} ⇒ 0.5.
        assert!((ip_overlap_share(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(ip_overlap_share(&a, &[]), 0.0);
    }
}
