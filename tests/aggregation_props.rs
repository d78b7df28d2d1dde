//! Property tests pinning the §5 aggregation seams of
//! [`ObservationColumns`]: `weekly_counts` and `distinct_target_tuples`
//! are checked against first-principles references computed from the
//! plain `(start, targets)` records the columns were built from, never
//! against a second implementation.
//!
//! Pinned contracts:
//!
//! * `weekly_counts` — always `STUDY_WEEKS` buckets; every in-study
//!   observation lands in exactly the bucket of its week index;
//!   out-of-range weeks (negative starts, past study end) are silently
//!   dropped, never a panic or an out-of-bounds write.
//! * `distinct_target_tuples` — sorted ascending, strictly deduplicated,
//!   and exactly the set of `(start day, target ip)` pairs.

use attackgen::{AttackId, ObservationColumns};
use netmodel::Ipv4;
use proptest::prelude::*;
use simcore::{SimTime, STUDY_WEEKS};
use std::collections::BTreeSet;

/// Seconds spanning well past both study edges (the study is ~234
/// weeks; this covers ± several years outside it, including the exact
/// boundary instants the bucketing must get right).
const WILD_SECS: std::ops::Range<i64> = -200_000_000i64..400_000_000i64;

/// Columns holding one row per `(start secs, target ips)` record, in
/// order.
fn columns(records: &[(i64, Vec<u32>)]) -> ObservationColumns {
    let mut out = ObservationColumns::new();
    for (start, ips) in records {
        let targets: Vec<Ipv4> = ips.iter().map(|&i| Ipv4(i)).collect();
        out.push_row(AttackId(start.unsigned_abs()), SimTime(*start), &targets);
    }
    out
}

fn week(start_secs: i64) -> i64 {
    SimTime(start_secs).week_index()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bucketing: every observation is either counted in exactly its
    /// own week's bucket or dropped because it falls outside the study
    /// — nothing is double counted, nothing panics.
    #[test]
    fn weekly_counts_bucket_or_drop(
        starts in proptest::collection::vec(WILD_SECS, 0..40),
    ) {
        let records: Vec<(i64, Vec<u32>)> = starts.iter().map(|&s| (s, vec![1])).collect();
        let counts = columns(&records).weekly_counts();
        prop_assert_eq!(counts.len(), STUDY_WEEKS);

        let in_range = starts
            .iter()
            .filter(|&&s| (0..STUDY_WEEKS as i64).contains(&week(s)))
            .count();
        let total: f64 = counts.iter().sum();
        prop_assert_eq!(total as usize, in_range, "counts must equal in-study observations");

        // Per-bucket recount from first principles.
        for (w, &c) in counts.iter().enumerate() {
            let expect = starts.iter().filter(|&&s| week(s) == w as i64).count();
            prop_assert_eq!(c as usize, expect, "week {} miscounted", w);
        }
    }

    /// The exact boundary weeks: second 0 is week 0, the last second
    /// before the study end is the last week, one week past is dropped.
    #[test]
    fn weekly_counts_boundaries(off in 0i64..604_800) {
        let last_week_start = (STUDY_WEEKS as i64 - 1) * 604_800;
        let records = vec![
            (off, vec![1]),                                  // inside week 0
            (-1 - off, vec![1]),                             // just before the study
            (last_week_start + off % 604_800, vec![1]),      // inside last week
            (STUDY_WEEKS as i64 * 604_800 + off, vec![1]),   // past the end
        ];
        let counts = columns(&records).weekly_counts();
        prop_assert_eq!(counts[0], 1.0);
        prop_assert_eq!(counts[STUDY_WEEKS - 1], 1.0);
        let total: f64 = counts.iter().sum();
        prop_assert_eq!(total, 2.0, "out-of-study observations must be dropped");
    }

    /// Tuples: sorted, strictly deduplicated, and exactly the
    /// set-theoretic union of every observation's (day, ip) pairs.
    #[test]
    fn distinct_tuples_are_the_sorted_set(
        records in proptest::collection::vec(
            (WILD_SECS, proptest::collection::vec(0u32..50, 0..5)),
            0..30,
        ),
    ) {
        let tuples = columns(&records).distinct_target_tuples();

        // Strictly increasing ⇒ both sorted and deduplicated.
        for pair in tuples.windows(2) {
            prop_assert!(pair[0] < pair[1], "tuples not strictly sorted: {:?}", pair);
        }

        let expect: BTreeSet<(i64, Ipv4)> = records
            .iter()
            .flat_map(|(s, ips)| {
                let day = SimTime(*s).day_index();
                ips.iter().map(move |&i| (day, Ipv4(i)))
            })
            .collect();
        prop_assert_eq!(tuples.len(), expect.len());
        for (got, want) in tuples.iter().zip(expect.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    /// Row views (DESIGN.md §9): every row of the arena reads back the
    /// record it was built from — including negative starts,
    /// out-of-study weeks and empty target lists — and its per-row
    /// projections (`week`, `target_tuples`) agree with the stream-wide
    /// ones.
    #[test]
    fn columnar_projections_match_aos(
        records in proptest::collection::vec(
            (WILD_SECS, proptest::collection::vec(0u32..50, 0..5)),
            0..30,
        ),
    ) {
        let columns = columns(&records);
        prop_assert_eq!(columns.len(), records.len());
        let counts = columns.weekly_counts();
        let tuples = columns.distinct_target_tuples();
        for (i, (start, ips)) in records.iter().enumerate() {
            let row = columns.get(i);
            prop_assert_eq!(row.attack_id, AttackId(start.unsigned_abs()));
            prop_assert_eq!(row.start, SimTime(*start));
            let targets: Vec<Ipv4> = ips.iter().map(|&ip| Ipv4(ip)).collect();
            prop_assert_eq!(row.targets, targets.as_slice());
            prop_assert_eq!(row.week(), week(*start));
            if (0..STUDY_WEEKS as i64).contains(&row.week()) {
                prop_assert!(counts[row.week() as usize] >= 1.0);
            }
            for t in row.target_tuples() {
                prop_assert!(tuples.binary_search(&t).is_ok(), "row tuple {:?} missing", t);
            }
        }
    }
}
