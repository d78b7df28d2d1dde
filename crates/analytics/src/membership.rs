//! The one set-join kernel behind every target comparison (Fig. 7–10,
//! Fig. 13, Table 4, the §7 statistics): a k-way merge over sorted,
//! duplicate-free `(day, IP)` slices. It yields each distinct tuple once,
//! in tuple order, with the bitmask of the sets that contain it — no
//! hashing, no per-tuple allocation, deterministic by construction.
//!
//! Every `StudyRun` projection is already sorted and deduplicated, so
//! the merge borrows it as is; only unsorted input (hand-built test
//! sets, the "may contain duplicates" contracts) is sorted into a copy.

use crate::upset::TargetTuple;
use std::borrow::Cow;

/// Most sets one `u16` membership mask can describe.
pub(crate) const MAX_SETS: usize = 16;

/// `tuples` as a sorted, duplicate-free slice: borrowed when it already
/// is one (a single comparison pass), otherwise a sorted, deduplicated
/// copy.
pub fn sorted_distinct(tuples: &[TargetTuple]) -> Cow<'_, [TargetTuple]> {
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
    let mut out = Vec::new();
    merge(sets, |t, mask| out.push((t, mask)));
    out
}

/// The merge behind [`membership`], handing each `(tuple, mask)` to
/// `visit` instead of collecting them, for callers that only count.
pub(crate) fn merge(sets: &[&[TargetTuple]], mut visit: impl FnMut(TargetTuple, u16)) {
    assert!(
        sets.len() <= MAX_SETS,
        "membership supports at most {MAX_SETS} sets"
    );
    let sorted: Vec<Cow<'_, [TargetTuple]>> = sets.iter().map(|s| sorted_distinct(s)).collect();
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
