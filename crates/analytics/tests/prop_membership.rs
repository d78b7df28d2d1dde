//! Property tests for the sorted-merge join kernel and every join built
//! on it, each checked against a plain `HashSet` reference on random,
//! unsorted inputs with duplicates (empty sets included, 1–16 sets).
//! Each property runs twice: on the raw input (the copy-and-sort path)
//! and on sorted, deduplicated copies (the borrowed fast path). The
//! pooled `_on` joins run serially and on three workers, whose uneven
//! key ranges must not change a single count.

use analytics::{
    confirmation_shares_on, ip_overlap_share_on, membership, membership_on, sorted_distinct,
    upset_on, weekly_overlap, weekly_target_counts, TargetTuple,
};
use netmodel::Ipv4;
use proptest::prelude::*;
use simcore::{ExecPool, STUDY_WEEKS};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

/// A target tuple from a small domain, so sets overlap and repeat;
/// about one day in four lands at the far end of the study window or
/// past it, so window clipping on both sides is exercised.
fn tuple() -> impl Strategy<Value = TargetTuple> {
    (0u8..4, -8i64..24, 0u32..8).prop_map(|(far, day, ip)| {
        let day = if far == 0 {
            day + STUDY_WEEKS as i64 * 7 - 8
        } else {
            day
        };
        (day, Ipv4(ip))
    })
}

fn tuples() -> impl Strategy<Value = Vec<TargetTuple>> {
    proptest::collection::vec(tuple(), 0..40)
}

fn sets(n: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Vec<TargetTuple>>> {
    proptest::collection::vec(tuples(), n)
}

/// The input as sorted, duplicate-free copies (the borrowed fast path).
fn distinct(sets: &[Vec<TargetTuple>]) -> Vec<Vec<TargetTuple>> {
    sets.iter()
        .map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect()
}

/// The pools every pooled join is checked on.
fn pools() -> [ExecPool; 2] {
    [ExecPool::serial(), ExecPool::new(3)]
}

fn slices(sets: &[Vec<TargetTuple>]) -> Vec<&[TargetTuple]> {
    sets.iter().map(Vec::as_slice).collect()
}

fn named(sets: &[Vec<TargetTuple>]) -> Vec<(String, Vec<TargetTuple>)> {
    sets.iter()
        .enumerate()
        .map(|(i, s)| (format!("S{i}"), s.clone()))
        .collect()
}

fn hash_sets(sets: &[Vec<TargetTuple>]) -> Vec<HashSet<TargetTuple>> {
    sets.iter().map(|s| s.iter().copied().collect()).collect()
}

/// Reference membership: the union in tuple order, each with the mask of
/// the hash sets containing it.
fn reference_membership(sets: &[Vec<TargetTuple>]) -> Vec<(TargetTuple, u16)> {
    let hs = hash_sets(sets);
    let union: HashSet<TargetTuple> = hs.iter().flatten().copied().collect();
    let mut union: Vec<TargetTuple> = union.into_iter().collect();
    union.sort();
    union
        .into_iter()
        .map(|t| {
            let mask = hs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(&t))
                .fold(0u16, |m, (i, _)| m | 1 << i);
            (t, mask)
        })
        .collect()
}

fn reference_weekly(set: &HashSet<TargetTuple>) -> Vec<f64> {
    let mut out = vec![0.0; STUDY_WEEKS];
    for &(day, _) in set {
        let w = day.div_euclid(7);
        if (0..STUDY_WEEKS as i64).contains(&w) {
            out[w as usize] += 1.0;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The merge yields exactly the hash-set union, in tuple order, with
    /// the right masks, on both input paths.
    #[test]
    fn membership_matches_hash_reference(raw in sets(1..=16)) {
        let want = reference_membership(&raw);
        prop_assert_eq!(membership(&slices(&raw)), want.clone());
        prop_assert_eq!(membership(&slices(&distinct(&raw))), want.clone());
        for pool in pools() {
            let all = membership_on(&pool, &slices(&raw), |_| true);
            prop_assert_eq!(all, want.clone());
            let odd: Vec<(TargetTuple, u16)> =
                want.iter().copied().filter(|&(_, mask)| mask & 1 == 1).collect();
            prop_assert_eq!(membership_on(&pool, &slices(&raw), |mask| mask & 1 == 1), odd);
        }
    }

    /// `sorted_distinct` borrows sorted, duplicate-free input and sorts
    /// anything else into a copy with the same distinct tuples.
    #[test]
    fn sorted_distinct_borrows_or_copies(raw in tuples()) {
        let clean = distinct(std::slice::from_ref(&raw)).remove(0);
        prop_assert!(matches!(sorted_distinct(&clean), Cow::Borrowed(_)));
        let got = sorted_distinct(&raw);
        if raw != clean {
            prop_assert!(matches!(got, Cow::Owned(_)));
        }
        prop_assert_eq!(&*got, clean.as_slice());
    }

    /// UpSet sizes, exclusive counts, distinct totals and distinct IPs
    /// equal the hash-set reference.
    #[test]
    fn upset_matches_hash_reference(raw in sets(1..=16)) {
        let hs = hash_sets(&raw);
        let mut exclusive: BTreeMap<u16, usize> = BTreeMap::new();
        for (_, mask) in reference_membership(&raw) {
            *exclusive.entry(mask).or_insert(0) += 1;
        }
        let ips: HashSet<Ipv4> = hs.iter().flatten().map(|&(_, ip)| ip).collect();
        let total: usize = exclusive.values().sum();
        for (input, pool) in [raw.clone(), distinct(&raw)].into_iter().zip(pools()) {
            let u = upset_on(&pool, &named(&input));
            prop_assert_eq!(u.set_sizes.clone(), hs.iter().map(HashSet::len).collect::<Vec<_>>());
            prop_assert_eq!(u.exclusive.clone(), exclusive.clone());
            prop_assert_eq!(u.total_distinct, total);
            prop_assert_eq!(u.distinct_ips, ips.len());
        }
    }

    /// Confirmation shares in both directions equal the hash-set
    /// reference, bit for bit.
    #[test]
    fn confirmation_shares_match_hash_reference(raw in sets(1..=15), industry in tuples()) {
        let hs = hash_sets(&raw);
        let ind: HashSet<TargetTuple> = industry.iter().copied().collect();
        let mut subsets: BTreeMap<u16, (usize, usize)> = BTreeMap::new();
        for (t, mask) in reference_membership(&raw) {
            let row = subsets.entry(mask).or_insert((0, 0));
            row.0 += 1;
            row.1 += ind.contains(&t) as usize;
        }
        let rows: Vec<(u16, usize, f64)> = subsets
            .into_iter()
            .map(|(mask, (total, confirmed))| (mask, total, confirmed as f64 / total as f64))
            .collect();
        let n = ind.len().max(1) as f64;
        let seen_by: Vec<f64> =
            hs.iter().map(|s| s.intersection(&ind).count() as f64 / n).collect();
        let union: HashSet<TargetTuple> = hs.iter().flatten().copied().collect();
        let seen_by_union = union.intersection(&ind).count() as f64 / n;
        for ((input, industry), pool) in [
            (raw.clone(), industry.clone()),
            (distinct(&raw), distinct(std::slice::from_ref(&industry)).remove(0)),
        ]
        .into_iter()
        .zip(pools())
        {
            let c = confirmation_shares_on(&pool, &named(&input), &industry);
            prop_assert_eq!(c.rows, rows.clone());
            prop_assert_eq!(c.industry_seen_by, seen_by.clone());
            prop_assert_eq!(c.industry_seen_by_union, seen_by_union);
        }
    }

    /// Weekly counts and the weekly overlap series equal per-week counts
    /// of the hash sets and their intersection.
    #[test]
    fn weekly_series_match_hash_reference(a in tuples(), b in tuples()) {
        let (ha, hb): (HashSet<TargetTuple>, HashSet<TargetTuple>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let shared: HashSet<TargetTuple> = ha.intersection(&hb).copied().collect();
        let clean = distinct(&[a.clone(), b.clone()]);
        for (a, b) in [(&a, &b), (&clean[0], &clean[1])] {
            prop_assert_eq!(weekly_target_counts(a), reference_weekly(&ha));
            let o = weekly_overlap(a, b);
            prop_assert_eq!(o.a, reference_weekly(&ha));
            prop_assert_eq!(o.b, reference_weekly(&hb));
            prop_assert_eq!(o.shared, reference_weekly(&shared));
        }
    }

    /// The distinct-IP overlap equals the hash-set reference.
    #[test]
    fn ip_overlap_share_matches_hash_reference(a in tuples(), b in tuples()) {
        let ips = |s: &[TargetTuple]| -> HashSet<Ipv4> { s.iter().map(|&(_, ip)| ip).collect() };
        let (ia, ib) = (ips(&a), ips(&b));
        let smaller = ia.len().min(ib.len());
        let want = if smaller == 0 {
            0.0
        } else {
            ia.intersection(&ib).count() as f64 / smaller as f64
        };
        let clean = distinct(&[a.clone(), b.clone()]);
        let [serial, pooled] = pools();
        prop_assert_eq!(ip_overlap_share_on(&serial, &a, &b), want);
        prop_assert_eq!(ip_overlap_share_on(&pooled, &clean[0], &clean[1]), want);
    }
}
