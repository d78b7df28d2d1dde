//! The one set-join kernel behind every target comparison (Fig. 7–10,
//! Fig. 13, Table 4, the §7 statistics): a k-way merge over sorted,
//! duplicate-free `(day, IP)` slices. It yields each distinct tuple once,
//! in tuple order, with the bitmask of the sets that contain it — no
//! hashing, no per-tuple allocation, deterministic by construction.
//!
//! Every `StudyRun` projection is already sorted and deduplicated, so
//! the merge borrows it as is; only unsorted input (hand-built test
//! sets, the "may contain duplicates" contracts) is sorted into a copy.
//!
//! The `_on` variants cut the key space at evenly spaced keys of the
//! largest set and merge each key range as one [`ExecPool`] task. Every
//! distinct key falls in exactly one range, so per-range counts sum and
//! per-range outputs concatenate in key order: the result does not
//! depend on the worker count.

use crate::upset::TargetTuple;
use netmodel::Ipv4;
use simcore::ExecPool;
use std::borrow::Cow;

/// Most sets one `u16` membership mask can describe.
pub(crate) const MAX_SETS: usize = 16;

/// `tuples` as a sorted, duplicate-free slice: borrowed when it already
/// is one (a single comparison pass), otherwise a sorted, deduplicated
/// copy.
pub fn sorted_distinct<T: Ord + Clone>(tuples: &[T]) -> Cow<'_, [T]> {
    if tuples.windows(2).all(|w| w[0] < w[1]) {
        return Cow::Borrowed(tuples);
    }
    let mut owned = tuples.to_vec();
    owned.sort_unstable();
    owned.dedup();
    Cow::Owned(owned)
}

/// Every distinct tuple of `sets`, in tuple order, with the mask of the
/// sets containing it (bit `i` set ⇔ member of `sets[i]`). Inputs may be
/// unsorted and contain duplicates.
pub fn membership(sets: &[&[TargetTuple]]) -> Vec<(TargetTuple, u16)> {
    membership_on(&ExecPool::serial(), sets, |_| true)
}

/// The tuples of [`membership`] whose mask passes `keep`, in tuple
/// order, merged over key ranges on `pool`.
pub fn membership_on(
    pool: &ExecPool,
    sets: &[&[TargetTuple]],
    keep: impl Fn(u16) -> bool + Sync,
) -> Vec<(TargetTuple, u16)> {
    let sorted = distinct_sets(sets);
    let sorted: Vec<&[TargetTuple]> = sorted.iter().map(|s| &**s).collect();
    par_key_ranges(pool, &sorted, |parts| {
        let mut out = Vec::new();
        merge(parts, |t, mask| {
            if keep(mask) {
                out.push((t, mask));
            }
        });
        out
    })
    .concat()
}

/// How many distinct keys of `sets` carry each membership mask:
/// `counts[mask]`, for every mask below `1 << sets.len()`. Merged over
/// key ranges on `pool`.
pub fn mask_counts_on<T: Ord + Copy + Sync>(pool: &ExecPool, sets: &[&[T]]) -> Vec<usize> {
    let sorted = distinct_sets(sets);
    let sorted: Vec<&[T]> = sorted.iter().map(|s| &**s).collect();
    let mut counts = vec![0usize; 1 << sets.len()];
    for part in par_key_ranges(pool, &sorted, |parts| {
        let mut counts = vec![0usize; 1 << parts.len()];
        merge(parts, |_, mask| counts[mask as usize] += 1);
        counts
    }) {
        for (total, n) in counts.iter_mut().zip(part) {
            *total += n;
        }
    }
    counts
}

/// The distinct IPs of each set, sorted: one pool task per set.
pub(crate) fn ip_sets_on(pool: &ExecPool, sets: &[&[TargetTuple]]) -> Vec<Vec<Ipv4>> {
    pool.run_indexed(sets.len(), |i| {
        let mut ips: Vec<Ipv4> = sets[i].iter().map(|&(_, ip)| ip).collect();
        ips.sort_unstable();
        ips.dedup();
        ips
    })
}

/// Every set as a sorted, duplicate-free slice (see
/// [`sorted_distinct`]), checked against the mask width.
fn distinct_sets<'a, T: Ord + Clone>(sets: &[&'a [T]]) -> Vec<Cow<'a, [T]>> {
    assert!(
        sets.len() <= MAX_SETS,
        "membership supports at most {MAX_SETS} sets"
    );
    sets.iter().map(|s| sorted_distinct(s)).collect()
}

/// Run `f` on key-disjoint slices of `sets` (each sorted and
/// duplicate-free), one pool task per key range, results in key order.
/// The ranges are cut at the keys that start each [`ExecPool::par_ranges`]
/// range of the largest set.
pub(crate) fn par_key_ranges<T: Ord + Copy + Sync, R: Send>(
    pool: &ExecPool,
    sets: &[&[T]],
    f: impl Fn(&[&[T]]) -> R + Sync,
) -> Vec<R> {
    let pivot = sets.iter().copied().max_by_key(|s| s.len()).unwrap_or_default();
    pool.par_ranges(pivot.len(), |range| {
        // `lo` is unbounded for the first range, `hi` for the last.
        let lo = pivot.get(range.start).filter(|_| range.start > 0);
        let hi = pivot.get(range.end);
        let cut = |s: &[T], key: Option<&T>, none: usize| {
            key.map_or(none, |k| s.partition_point(|t| t < k))
        };
        let parts: Vec<&[T]> = sets
            .iter()
            .map(|s| &s[cut(s, lo, 0)..cut(s, hi, s.len())])
            .collect();
        f(&parts)
    })
}

/// The merge behind [`membership`], handing each `(key, mask)` to
/// `visit` instead of collecting them, for callers that only count.
pub(crate) fn merge<T: Ord + Copy>(sets: &[&[T]], mut visit: impl FnMut(T, u16)) {
    let sorted = distinct_sets(sets);
    let mut heads = vec![0usize; sorted.len()];
    loop {
        let Some(&min) = sorted
            .iter()
            .zip(&heads)
            .filter_map(|(set, &h)| set.get(h))
            .min()
        else {
            return;
        };
        let mut mask = 0u16;
        for (i, (set, h)) in sorted.iter().zip(heads.iter_mut()).enumerate() {
            if set.get(*h) == Some(&min) {
                mask |= 1 << i;
                *h += 1;
            }
        }
        visit(min, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Ipv4;

    fn t(day: i64, ip: u32) -> TargetTuple {
        (day, Ipv4(ip))
    }

    #[test]
    fn merges_in_tuple_order_with_masks() {
        let a = [t(0, 1), t(0, 2), t(3, 1)];
        let b = [t(0, 2), t(1, 9)];
        assert_eq!(
            membership(&[&a, &b]),
            vec![
                (t(0, 1), 0b01),
                (t(0, 2), 0b11),
                (t(1, 9), 0b10),
                (t(3, 1), 0b01)
            ]
        );
    }

    #[test]
    fn sorted_input_is_borrowed_unsorted_is_copied() {
        let sorted = [t(0, 1), t(0, 2), t(1, 0)];
        assert!(matches!(sorted_distinct(&sorted), Cow::Borrowed(_)));
        let messy = [t(1, 0), t(0, 2), t(0, 2), t(0, 1)];
        let fixed = sorted_distinct(&messy);
        assert!(matches!(fixed, Cow::Owned(_)));
        assert_eq!(&*fixed, &sorted);
    }

    #[test]
    fn no_sets_and_empty_sets_yield_nothing() {
        assert!(membership(&[]).is_empty());
        assert!(membership(&[&[], &[]]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 16 sets")]
    fn more_than_sixteen_sets_rejected() {
        let empty: &[TargetTuple] = &[];
        membership(&[empty; 17]);
    }
}
