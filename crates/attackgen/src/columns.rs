//! Columnar (struct-of-arrays) storage for the attack population and
//! the observation streams.
//!
//! At paper scale (~600 k attacks) the array-of-structs [`Attack`]
//! representation is fine; at the 10 M+ scale the reproduction targets
//! it is not: every record carries a 24-byte `Vec<Ipv4>` header plus a
//! separate heap allocation for (usually) a single target address, and
//! the aggregation scans (§5 weekly counts, §7 target tuples) chase a
//! pointer per record. [`AttackColumns`] stores each field in its own
//! parallel column and replaces every per-attack target `Vec` with one
//! shared arena indexed by `(offset, len)` ranges, so
//!
//! * the population costs a flat ~59 bytes/attack instead of ~102,
//! * generation shards concatenate column-wise with a single
//!   permutation sort instead of merging 96-byte structs, and
//! * the §5/§7 projections become branch-light linear scans over dense
//!   arrays.
//!
//! The struct forms survive as *views*: [`AttackRef`] (and
//! [`ObservedRef`] for observations) borrow one logical record from the
//! columns and expose exactly the [`Attack`] field surface, so
//! observers and experiments read `a.pps`, `a.targets`, `a.end()` as
//! before without materializing anything.
//!
//! Narrow encodings (all asserted on entry, never silently truncated):
//! ids and start seconds fit `u32` (the study spans ~1.4 × 10⁸ s and
//! ids are densely rebased), `campaign: Option<u32>` uses `u32::MAX`
//! as the `None` sentinel, and reflector usage collapses to a count
//! column (`u32::MAX` = no reflectors) because the reflector vector is
//! always the attack vector's amplification protocol.

use crate::attack::{Attack, AttackClass, AttackId, AttackVector, ReflectorUse};
use netmodel::{Asn, Ipv4};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// Sentinel in the `campaign` column for "not part of a campaign".
const NO_CAMPAIGN: u32 = u32::MAX;
/// Sentinel in the `reflector_count` column for "no reflectors".
const NO_REFLECTORS: u32 = u32::MAX;

/// The ground-truth attack population in struct-of-arrays layout.
///
/// All columns have identical length; `target_offsets` has one extra
/// trailing entry so row `i`'s targets are
/// `target_arena[target_offsets[i]..target_offsets[i + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttackColumns {
    pub id: Vec<u32>,
    pub class: Vec<AttackClass>,
    pub vector: Vec<AttackVector>,
    pub start_secs: Vec<u32>,
    pub duration_secs: Vec<u32>,
    pub target_asn: Vec<Asn>,
    pub pps: Vec<f64>,
    pub bps: Vec<f64>,
    /// `u32::MAX` ⇒ no reflectors (non-amplification vectors).
    pub reflector_count: Vec<u32>,
    pub spoof_space_fraction: Vec<f64>,
    /// `u32::MAX` ⇒ not a campaign attack.
    pub campaign: Vec<u32>,
    /// Row `i` owns `target_arena[target_offsets[i]..target_offsets[i+1]]`.
    /// Always `len() + 1` entries (a single `[0]` when empty).
    pub target_offsets: Vec<u32>,
    /// Shared target storage for every attack.
    pub target_arena: Vec<Ipv4>,
}

/// Borrowed view of one attack row — field-compatible with [`Attack`]
/// except that `targets` is a borrowed slice of the shared arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackRef<'a> {
    pub id: AttackId,
    pub class: AttackClass,
    pub vector: AttackVector,
    pub start: SimTime,
    pub duration_secs: u32,
    pub targets: &'a [Ipv4],
    pub target_asn: Asn,
    pub pps: f64,
    pub bps: f64,
    pub reflectors: Option<ReflectorUse>,
    pub spoof_space_fraction: f64,
    pub campaign: Option<u32>,
}

impl AttackRef<'_> {
    /// End instant (exclusive).
    pub fn end(&self) -> SimTime {
        self.start.plus_secs(self.duration_secs as i64)
    }

    /// Primary (first) target address.
    pub fn primary_target(&self) -> Ipv4 {
        self.targets[0]
    }

    /// Is this a carpet-bombing (multi-address) attack?
    pub fn is_carpet_bombing(&self) -> bool {
        self.targets.len() > 1
    }

    /// Packet rate per individual target address.
    pub fn pps_per_target(&self) -> f64 {
        self.pps / self.targets.len() as f64
    }

    /// Total packets sent toward the victim over the whole attack.
    pub fn total_packets(&self) -> f64 {
        self.pps * self.duration_secs as f64
    }

    /// Materialize an owned [`Attack`] (clones the target slice). Meant
    /// for small sampled subsets handed to packet-level APIs, not for
    /// bulk conversion.
    pub fn to_attack(&self) -> Attack {
        Attack {
            id: self.id,
            class: self.class,
            vector: self.vector,
            start: self.start,
            duration_secs: self.duration_secs,
            targets: self.targets.to_vec(),
            target_asn: self.target_asn,
            pps: self.pps,
            bps: self.bps,
            reflectors: self.reflectors,
            spoof_space_fraction: self.spoof_space_fraction,
            campaign: self.campaign,
        }
    }
}

impl Attack {
    /// View this owned attack through the columnar record interface, so
    /// hand-built struct attacks (tests, packet-synthesis samples) can
    /// be fed to any observer's [`AttackRef`] entry point.
    pub fn view(&self) -> AttackRef<'_> {
        AttackRef {
            id: self.id,
            class: self.class,
            vector: self.vector,
            start: self.start,
            duration_secs: self.duration_secs,
            targets: &self.targets,
            target_asn: self.target_asn,
            pps: self.pps,
            bps: self.bps,
            reflectors: self.reflectors,
            spoof_space_fraction: self.spoof_space_fraction,
            campaign: self.campaign,
        }
    }
}

impl AttackColumns {
    pub fn new() -> AttackColumns {
        AttackColumns {
            target_offsets: vec![0],
            ..AttackColumns::default()
        }
    }

    /// Pre-size every column for `rows` attacks and `arena` total
    /// target addresses.
    pub fn with_capacity(rows: usize, arena: usize) -> AttackColumns {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        AttackColumns {
            id: Vec::with_capacity(rows),
            class: Vec::with_capacity(rows),
            vector: Vec::with_capacity(rows),
            start_secs: Vec::with_capacity(rows),
            duration_secs: Vec::with_capacity(rows),
            target_asn: Vec::with_capacity(rows),
            pps: Vec::with_capacity(rows),
            bps: Vec::with_capacity(rows),
            reflector_count: Vec::with_capacity(rows),
            spoof_space_fraction: Vec::with_capacity(rows),
            campaign: Vec::with_capacity(rows),
            target_offsets: offsets,
            target_arena: Vec::with_capacity(arena),
        }
    }

    pub fn len(&self) -> usize {
        self.id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Append one attack record. Panics if a field does not fit the
    /// columnar encoding (negative or >u32 start, id ≥ u32::MAX, a
    /// reflector set inconsistent with the vector) — those are
    /// generator bugs, not data.
    pub fn push(&mut self, a: &Attack) {
        let id = u32::try_from(a.id.0).expect("attack id exceeds the u32 column");
        let start =
            u32::try_from(a.start.0).expect("attack start outside the u32-seconds column range");
        let reflector_count = match (a.vector.amp_vector(), a.reflectors) {
            (Some(v), Some(r)) => {
                assert_eq!(r.vector, v, "reflector vector disagrees with attack vector");
                assert_ne!(r.reflector_count, NO_REFLECTORS, "reflector count sentinel");
                r.reflector_count
            }
            (_, None) => NO_REFLECTORS,
            (None, Some(_)) => panic!("reflectors on a non-amplification vector"),
        };
        let campaign = match a.campaign {
            Some(c) => {
                assert_ne!(c, NO_CAMPAIGN, "campaign index sentinel");
                c
            }
            None => NO_CAMPAIGN,
        };
        self.id.push(id);
        self.class.push(a.class);
        self.vector.push(a.vector);
        self.start_secs.push(start);
        self.duration_secs.push(a.duration_secs);
        self.target_asn.push(a.target_asn);
        self.pps.push(a.pps);
        self.bps.push(a.bps);
        self.reflector_count.push(reflector_count);
        self.spoof_space_fraction.push(a.spoof_space_fraction);
        self.campaign.push(campaign);
        self.target_arena.extend_from_slice(&a.targets);
        let end = u32::try_from(self.target_arena.len()).expect("target arena exceeds u32 offsets");
        self.target_offsets.push(end);
    }

    /// Target slice of row `i`.
    pub fn targets(&self, i: usize) -> &[Ipv4] {
        &self.target_arena[self.target_offsets[i] as usize..self.target_offsets[i + 1] as usize]
    }

    /// Borrowed view of row `i`.
    pub fn get(&self, i: usize) -> AttackRef<'_> {
        let rc = self.reflector_count[i];
        let reflectors = (rc != NO_REFLECTORS).then(|| ReflectorUse {
            vector: self.vector[i]
                .amp_vector()
                .expect("reflector count on a non-amplification row"),
            reflector_count: rc,
        });
        let campaign = self.campaign[i];
        AttackRef {
            id: AttackId(self.id[i] as u64),
            class: self.class[i],
            vector: self.vector[i],
            start: SimTime(self.start_secs[i] as i64),
            duration_secs: self.duration_secs[i],
            targets: self.targets(i),
            target_asn: self.target_asn[i],
            pps: self.pps[i],
            bps: self.bps[i],
            reflectors,
            spoof_space_fraction: self.spoof_space_fraction[i],
            campaign: (campaign != NO_CAMPAIGN).then_some(campaign),
        }
    }

    /// Iterate all rows as borrowed views.
    pub fn iter(&self) -> ColumnsIter<'_> {
        ColumnsIter {
            cols: self,
            front: 0,
            back: self.len(),
        }
    }

    /// Build columns from owned attack records (tests, small fixtures).
    pub fn from_attacks(attacks: &[Attack]) -> AttackColumns {
        let arena: usize = attacks.iter().map(|a| a.targets.len()).sum();
        let mut out = AttackColumns::with_capacity(attacks.len(), arena);
        for a in attacks {
            out.push(a);
        }
        out
    }

    /// Materialize every row as an owned [`Attack`]. Test/debug helper —
    /// reintroduces the per-record allocations the columns exist to
    /// avoid.
    pub fn to_vec(&self) -> Vec<Attack> {
        self.iter().map(|a| a.to_attack()).collect()
    }

    /// Append a generation shard whose ids are shard-local (dense from
    /// 0), rebasing them by `id_base`. Consumes the shard so its
    /// buffers free progressively during a multi-shard merge.
    pub fn append_rebased(&mut self, shard: AttackColumns, id_base: u64) {
        let base = self.target_arena.len() as u64;
        assert!(
            base + shard.target_arena.len() as u64 <= u32::MAX as u64,
            "target arena exceeds u32 offsets"
        );
        self.id.extend(shard.id.iter().map(|&i| {
            u32::try_from(id_base + i as u64).expect("rebased attack id exceeds the u32 column")
        }));
        self.class.extend_from_slice(&shard.class);
        self.vector.extend_from_slice(&shard.vector);
        self.start_secs.extend_from_slice(&shard.start_secs);
        self.duration_secs.extend_from_slice(&shard.duration_secs);
        self.target_asn.extend_from_slice(&shard.target_asn);
        self.pps.extend_from_slice(&shard.pps);
        self.bps.extend_from_slice(&shard.bps);
        self.reflector_count.extend_from_slice(&shard.reflector_count);
        self.spoof_space_fraction
            .extend_from_slice(&shard.spoof_space_fraction);
        self.campaign.extend_from_slice(&shard.campaign);
        self.target_offsets
            .extend(shard.target_offsets[1..].iter().map(|&o| o + base as u32));
        self.target_arena.extend_from_slice(&shard.target_arena);
    }

    /// Append rows `lo..hi` of `src`, rebasing ids by `id_base` —
    /// column-wise `memcpy`s plus one arena range copy.
    fn append_range_rebased(&mut self, src: &AttackColumns, lo: usize, hi: usize, id_base: u64) {
        if lo >= hi {
            return;
        }
        self.id.extend(src.id[lo..hi].iter().map(|&i| {
            u32::try_from(id_base + i as u64).expect("rebased attack id exceeds the u32 column")
        }));
        self.class.extend_from_slice(&src.class[lo..hi]);
        self.vector.extend_from_slice(&src.vector[lo..hi]);
        self.start_secs.extend_from_slice(&src.start_secs[lo..hi]);
        self.duration_secs.extend_from_slice(&src.duration_secs[lo..hi]);
        self.target_asn.extend_from_slice(&src.target_asn[lo..hi]);
        self.pps.extend_from_slice(&src.pps[lo..hi]);
        self.bps.extend_from_slice(&src.bps[lo..hi]);
        self.reflector_count.extend_from_slice(&src.reflector_count[lo..hi]);
        self.spoof_space_fraction
            .extend_from_slice(&src.spoof_space_fraction[lo..hi]);
        self.campaign.extend_from_slice(&src.campaign[lo..hi]);
        let (src_lo, src_hi) = (src.target_offsets[lo], src.target_offsets[hi]);
        let end = self.target_arena.len() as u64 + u64::from(src_hi - src_lo);
        assert!(end <= u64::from(u32::MAX), "target arena exceeds u32 offsets");
        let dst_base = self.target_arena.len() as u32;
        self.target_offsets.extend(
            src.target_offsets[lo + 1..=hi].iter().map(|&o| o - src_lo + dst_base),
        );
        self.target_arena
            .extend_from_slice(&src.target_arena[src_lo as usize..src_hi as usize]);
    }

    /// Copy one row of `src` (rebasing its id) onto the end of `self`.
    fn push_row_rebased(&mut self, src: &AttackColumns, i: usize, id_base: u64) {
        self.append_range_rebased(src, i, i + 1, id_base);
    }

    /// Are the rows in canonical `(start, id)` order?
    pub fn is_sorted_by_start_id(&self) -> bool {
        let key =
            |i: usize| ((self.start_secs[i] as u64) << 32) | self.id[i] as u64;
        (1..self.len()).all(|i| key(i - 1) < key(i))
    }

    /// Merge a `(start, id)`-sorted shard with shard-local dense ids
    /// into `self`, rebasing ids by `id_base`. Rows starting at or
    /// after `spill_bound` (seconds — the first week of the *next*
    /// shard) are held back in `carry` instead of appended: a week's
    /// companion attacks can start up to 30 minutes into the following
    /// week (`AttackGenerator::maybe_companion`), so a shard's sorted
    /// tail may interleave with the next shard's head. The previous
    /// call's carry is spliced in at its correct `(start, id)`
    /// positions — carry ids are always smaller than this shard's
    /// rebased ids, so on a start tie the carry row wins. With
    /// `spill_bound: None` (final shard) everything drains. Feeding
    /// every shard through this in week order produces exactly the
    /// concat-then-`sort_by_start_id` population while only ever
    /// holding `self`, one shard, and a tiny carry — the merge that
    /// lets a 10M+ study peak near the population's own footprint.
    pub fn merge_sorted_shard(
        &mut self,
        shard: AttackColumns,
        id_base: u64,
        carry: &mut AttackColumns,
        spill_bound: Option<u32>,
    ) {
        debug_assert!(shard.is_sorted_by_start_id(), "shard not in (start, id) order");
        let split = match spill_bound {
            Some(b) => shard.start_secs.partition_point(|&s| s < b),
            None => shard.len(),
        };
        let old_carry = std::mem::replace(carry, AttackColumns::new());
        let mut lo = 0usize;
        for c in 0..old_carry.len() {
            // First shard row ordered after this carry row: shard rows
            // with an equal start have larger (rebased) ids.
            let s = old_carry.start_secs[c];
            let pos = lo + shard.start_secs[lo..split].partition_point(|&x| x < s);
            self.append_range_rebased(&shard, lo, pos, id_base);
            // Carry rows were rebased when they were held back.
            self.push_row_rebased(&old_carry, c, 0);
            lo = pos;
        }
        self.append_range_rebased(&shard, lo, split, id_base);
        for i in split..shard.len() {
            if let Some(b) = spill_bound {
                debug_assert!(
                    shard.start_secs[i] >= b,
                    "spill split must be a sorted suffix"
                );
            }
            carry.push_row_rebased(&shard, i, id_base);
        }
    }

    /// Sort rows by `(start, id)` — the population's canonical order.
    /// Ids are unique, so the packed `start << 32 | id` key makes an
    /// unstable sort deterministic. One `u32` permutation plus one
    /// column-sized scratch buffer at a time; never a row-wise struct
    /// sort.
    pub fn sort_by_start_id(&mut self) {
        let n = self.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_unstable_by_key(|&i| {
            ((self.start_secs[i as usize] as u64) << 32) | self.id[i as usize] as u64
        });
        if perm.windows(2).all(|w| w[0] < w[1]) {
            return; // already sorted — skip the gather entirely
        }
        gather(&mut self.id, &perm);
        gather(&mut self.class, &perm);
        gather(&mut self.vector, &perm);
        gather(&mut self.start_secs, &perm);
        gather(&mut self.duration_secs, &perm);
        gather(&mut self.target_asn, &perm);
        gather(&mut self.pps, &perm);
        gather(&mut self.bps, &perm);
        gather(&mut self.reflector_count, &perm);
        gather(&mut self.spoof_space_fraction, &perm);
        gather(&mut self.campaign, &perm);
        let mut arena = Vec::with_capacity(self.target_arena.len());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for &i in &perm {
            let i = i as usize;
            arena.extend_from_slice(
                &self.target_arena
                    [self.target_offsets[i] as usize..self.target_offsets[i + 1] as usize],
            );
            offsets.push(arena.len() as u32);
        }
        self.target_arena = arena;
        self.target_offsets = offsets;
    }

    /// Drop the growth slack every column accumulated while being
    /// appended to (large buffers shrink in place via `mremap`; this
    /// never copies the population wholesale).
    pub fn shrink_to_fit(&mut self) {
        self.id.shrink_to_fit();
        self.class.shrink_to_fit();
        self.vector.shrink_to_fit();
        self.start_secs.shrink_to_fit();
        self.duration_secs.shrink_to_fit();
        self.target_asn.shrink_to_fit();
        self.pps.shrink_to_fit();
        self.bps.shrink_to_fit();
        self.reflector_count.shrink_to_fit();
        self.spoof_space_fraction.shrink_to_fit();
        self.campaign.shrink_to_fit();
        self.target_offsets.shrink_to_fit();
        self.target_arena.shrink_to_fit();
    }

    /// Heap bytes currently held by the columns (capacities, matching
    /// what the old code measured for `Vec<Attack>` populations).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.id.capacity() * size_of::<u32>()
            + self.class.capacity() * size_of::<AttackClass>()
            + self.vector.capacity() * size_of::<AttackVector>()
            + self.start_secs.capacity() * size_of::<u32>()
            + self.duration_secs.capacity() * size_of::<u32>()
            + self.target_asn.capacity() * size_of::<Asn>()
            + self.pps.capacity() * size_of::<f64>()
            + self.bps.capacity() * size_of::<f64>()
            + self.reflector_count.capacity() * size_of::<u32>()
            + self.spoof_space_fraction.capacity() * size_of::<f64>()
            + self.campaign.capacity() * size_of::<u32>()
            + self.target_offsets.capacity() * size_of::<u32>()
            + self.target_arena.capacity() * size_of::<Ipv4>()
    }
}

impl<'a> IntoIterator for &'a AttackColumns {
    type Item = AttackRef<'a>;
    type IntoIter = ColumnsIter<'a>;
    fn into_iter(self) -> ColumnsIter<'a> {
        self.iter()
    }
}

/// Double-ended, exact-size iterator over [`AttackColumns`] rows.
#[derive(Debug, Clone)]
pub struct ColumnsIter<'a> {
    cols: &'a AttackColumns,
    front: usize,
    back: usize,
}

impl<'a> Iterator for ColumnsIter<'a> {
    type Item = AttackRef<'a>;
    fn next(&mut self) -> Option<AttackRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        let item = self.cols.get(self.front);
        self.front += 1;
        Some(item)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
    fn nth(&mut self, n: usize) -> Option<AttackRef<'a>> {
        self.front = (self.front + n).min(self.back);
        self.next()
    }
}

impl ExactSizeIterator for ColumnsIter<'_> {}

impl<'a> DoubleEndedIterator for ColumnsIter<'a> {
    fn next_back(&mut self) -> Option<AttackRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.cols.get(self.back))
    }
}

/// One observatory's output stream — what one vantage point believes
/// it saw — in struct-of-arrays layout. Each row holds the ground-truth
/// attack id (for validation joins only), the first-seen time, and the
/// attributed targets (a subset of the attack's) in a shared target
/// arena. The comparison machinery consumes exactly two projections of
/// a stream (§5): [`ObservationColumns::weekly_counts`] and
/// [`ObservationColumns::distinct_target_tuples`]. Observation counts
/// track the attack population (~0.8 rows/attack at default coverage),
/// so keeping these columnar is what lets the observe stage fit inside
/// the generation stage's high-water mark at 10 M+ attacks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationColumns {
    pub attack_id: Vec<u64>,
    pub start: Vec<i64>,
    /// Row `i` owns `target_arena[target_offsets[i]..target_offsets[i+1]]`.
    pub target_offsets: Vec<u32>,
    pub target_arena: Vec<Ipv4>,
}

impl Default for ObservationColumns {
    fn default() -> ObservationColumns {
        ObservationColumns::new()
    }
}

/// Borrowed view of one observation row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedRef<'a> {
    pub attack_id: AttackId,
    pub start: SimTime,
    pub targets: &'a [Ipv4],
}

impl ObservedRef<'_> {
    /// The (day, target) tuples this observation contributes (§7).
    pub fn target_tuples(&self) -> impl Iterator<Item = (i64, Ipv4)> + '_ {
        let day = self.start.day_index();
        self.targets.iter().map(move |&ip| (day, ip))
    }

    /// Study week of the observation.
    pub fn week(&self) -> i64 {
        self.start.week_index()
    }
}

impl ObservationColumns {
    pub fn new() -> ObservationColumns {
        ObservationColumns {
            attack_id: Vec::new(),
            start: Vec::new(),
            target_offsets: vec![0],
            target_arena: Vec::new(),
        }
    }

    pub fn with_capacity(rows: usize) -> ObservationColumns {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        ObservationColumns {
            attack_id: Vec::with_capacity(rows),
            start: Vec::with_capacity(rows),
            target_offsets: offsets,
            target_arena: Vec::with_capacity(rows),
        }
    }

    pub fn len(&self) -> usize {
        self.attack_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attack_id.is_empty()
    }

    /// Row capacity of the id column (used by cache tests to tell
    /// physically distinct instances apart).
    pub fn capacity(&self) -> usize {
        self.attack_id.capacity()
    }

    /// Append one complete observation row.
    pub fn push_row(&mut self, attack_id: AttackId, start: SimTime, targets: &[Ipv4]) {
        self.begin_row(attack_id, start);
        self.target_arena.extend_from_slice(targets);
        self.commit_row();
    }

    /// Start a row whose targets will be pushed incrementally with
    /// [`ObservationColumns::push_target`]; finish it with
    /// [`ObservationColumns::commit_row`] or abandon it with
    /// [`ObservationColumns::rollback_row`]. Lets subset observers
    /// (e.g. Akamai clipping to protected space) filter targets
    /// straight into the arena without a scratch `Vec`.
    pub fn begin_row(&mut self, attack_id: AttackId, start: SimTime) {
        self.attack_id.push(attack_id.0);
        self.start.push(start.0);
    }

    pub fn push_target(&mut self, ip: Ipv4) {
        self.target_arena.push(ip);
    }

    pub fn commit_row(&mut self) {
        let end = u32::try_from(self.target_arena.len())
            .expect("observation target arena exceeds u32 offsets");
        self.target_offsets.push(end);
    }

    /// Targets pushed since the last committed row — i.e. the size of
    /// the row currently being built.
    pub fn pending_targets(&self) -> usize {
        let last = *self.target_offsets.last().expect("offsets never empty");
        self.target_arena.len() - last as usize
    }

    /// Abandon the row opened by the last [`ObservationColumns::begin_row`].
    pub fn rollback_row(&mut self) {
        self.attack_id.pop();
        self.start.pop();
        let last = *self.target_offsets.last().expect("offsets never empty");
        self.target_arena.truncate(last as usize);
    }

    /// Drop every row but keep the allocations, so one scratch sink can
    /// serve many single-row observations.
    pub fn clear(&mut self) {
        self.attack_id.clear();
        self.start.clear();
        self.target_offsets.truncate(1);
        self.target_arena.clear();
    }

    /// Target slice of row `i`.
    pub fn targets(&self, i: usize) -> &[Ipv4] {
        &self.target_arena[self.target_offsets[i] as usize..self.target_offsets[i + 1] as usize]
    }

    pub fn get(&self, i: usize) -> ObservedRef<'_> {
        ObservedRef {
            attack_id: AttackId(self.attack_id[i]),
            start: SimTime(self.start[i]),
            targets: self.targets(i),
        }
    }

    pub fn iter(&self) -> ObservationsIter<'_> {
        ObservationsIter {
            cols: self,
            front: 0,
            back: self.len(),
        }
    }

    /// Append another stream, consuming it (shard merge).
    pub fn append(&mut self, other: ObservationColumns) {
        let base = self.target_arena.len() as u64;
        assert!(
            base + other.target_arena.len() as u64 <= u32::MAX as u64,
            "observation target arena exceeds u32 offsets"
        );
        self.attack_id.extend_from_slice(&other.attack_id);
        self.start.extend_from_slice(&other.start);
        self.target_offsets
            .extend(other.target_offsets[1..].iter().map(|&o| o + base as u32));
        self.target_arena.extend_from_slice(&other.target_arena);
    }

    /// Sort rows by `(start, attack_id)` — the canonical observation
    /// order (used after carpet reconstruction). The input index breaks
    /// ties, making this exactly equivalent to a stable struct sort.
    pub fn sort_by_start_id(&mut self) {
        let n = self.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_unstable_by_key(|&i| (self.start[i as usize], self.attack_id[i as usize], i));
        if perm.windows(2).all(|w| w[0] < w[1]) {
            return;
        }
        gather(&mut self.attack_id, &perm);
        gather(&mut self.start, &perm);
        let mut arena = Vec::with_capacity(self.target_arena.len());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for &i in &perm {
            let i = i as usize;
            arena.extend_from_slice(
                &self.target_arena
                    [self.target_offsets[i] as usize..self.target_offsets[i + 1] as usize],
            );
            offsets.push(arena.len() as u32);
        }
        self.target_arena = arena;
        self.target_offsets = offsets;
    }

    /// Count observed attacks per study week (the §5 aggregation) — a
    /// single branch-light pass over the dense start column.
    pub fn weekly_counts(&self) -> Vec<f64> {
        let mut out = vec![0.0; simcore::STUDY_WEEKS];
        for &start in &self.start {
            let w = SimTime(start).week_index();
            if (0..simcore::STUDY_WEEKS as i64).contains(&w) {
                out[w as usize] += 1.0;
            }
        }
        out
    }

    /// Distinct (day, target IP) tuples of the stream (§7) — one linear
    /// scan over the arena, then sort + dedup.
    pub fn distinct_target_tuples(&self) -> Vec<(i64, Ipv4)> {
        let mut tuples: Vec<(i64, Ipv4)> = Vec::with_capacity(self.target_arena.len());
        for i in 0..self.len() {
            let day = SimTime(self.start[i]).day_index();
            for &ip in self.targets(i) {
                tuples.push((day, ip));
            }
        }
        tuples.sort_unstable();
        tuples.dedup();
        tuples
    }

    /// Drop accumulated growth slack (see
    /// [`AttackColumns::shrink_to_fit`]).
    pub fn shrink_to_fit(&mut self) {
        self.attack_id.shrink_to_fit();
        self.start.shrink_to_fit();
        self.target_offsets.shrink_to_fit();
        self.target_arena.shrink_to_fit();
    }

    /// Heap bytes currently held by the columns.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.attack_id.capacity() * size_of::<u64>()
            + self.start.capacity() * size_of::<i64>()
            + self.target_offsets.capacity() * size_of::<u32>()
            + self.target_arena.capacity() * size_of::<Ipv4>()
    }
}

impl<'a> IntoIterator for &'a ObservationColumns {
    type Item = ObservedRef<'a>;
    type IntoIter = ObservationsIter<'a>;
    fn into_iter(self) -> ObservationsIter<'a> {
        self.iter()
    }
}

/// Double-ended, exact-size iterator over [`ObservationColumns`] rows.
#[derive(Debug, Clone)]
pub struct ObservationsIter<'a> {
    cols: &'a ObservationColumns,
    front: usize,
    back: usize,
}

impl<'a> Iterator for ObservationsIter<'a> {
    type Item = ObservedRef<'a>;
    fn next(&mut self) -> Option<ObservedRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        let item = self.cols.get(self.front);
        self.front += 1;
        Some(item)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
    fn nth(&mut self, n: usize) -> Option<ObservedRef<'a>> {
        self.front = (self.front + n).min(self.back);
        self.next()
    }
}

impl ExactSizeIterator for ObservationsIter<'_> {}

impl<'a> DoubleEndedIterator for ObservationsIter<'a> {
    fn next_back(&mut self) -> Option<ObservedRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.cols.get(self.back))
    }
}

/// Out-of-place permutation gather for one column: `col[k] = col[perm[k]]`.
fn gather<T: Copy>(col: &mut Vec<T>, perm: &[u32]) {
    let out: Vec<T> = perm.iter().map(|&i| col[i as usize]).collect();
    *col = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::AmpVector;

    fn sample_attacks() -> Vec<Attack> {
        vec![
            Attack {
                id: AttackId(0),
                class: AttackClass::DirectPathSpoofed,
                vector: AttackVector::SynFlood,
                start: SimTime(5_000),
                duration_secs: 600,
                targets: vec![Ipv4(0x0A00_0001)],
                target_asn: Asn(65001),
                pps: 120_000.0,
                bps: 4.0e8,
                reflectors: None,
                spoof_space_fraction: 0.85,
                campaign: None,
            },
            Attack {
                id: AttackId(1),
                class: AttackClass::ReflectionAmplification,
                vector: AttackVector::Amplification(AmpVector::Ntp),
                start: SimTime(1_000),
                duration_secs: 1_800,
                targets: vec![Ipv4(0x0B00_0001), Ipv4(0x0B00_0002), Ipv4(0x0B00_0003)],
                target_asn: Asn(65002),
                pps: 50_000.0,
                bps: 4.0e9,
                reflectors: Some(ReflectorUse {
                    vector: AmpVector::Ntp,
                    reflector_count: 800,
                }),
                spoof_space_fraction: 1.0,
                campaign: Some(3),
            },
            Attack {
                id: AttackId(2),
                class: AttackClass::DirectPathNonSpoofed,
                vector: AttackVector::HttpFlood,
                start: SimTime(1_000),
                duration_secs: 60,
                targets: vec![Ipv4(0x0C00_0001)],
                target_asn: Asn(65003),
                pps: 9_000.0,
                bps: 3.0e7,
                reflectors: None,
                spoof_space_fraction: 0.0,
                campaign: None,
            },
        ]
    }

    #[test]
    fn round_trips_attacks_exactly() {
        let attacks = sample_attacks();
        let cols = AttackColumns::from_attacks(&attacks);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.to_vec(), attacks);
        for (a, r) in attacks.iter().zip(cols.iter()) {
            assert_eq!(a.view(), r);
            assert_eq!(a.end(), r.end());
            assert_eq!(a.is_carpet_bombing(), r.is_carpet_bombing());
            assert_eq!(a.pps_per_target(), r.pps_per_target());
            assert_eq!(a.total_packets(), r.total_packets());
            assert_eq!(a.primary_target(), r.primary_target());
        }
    }

    #[test]
    fn arena_ranges_are_contiguous() {
        let cols = AttackColumns::from_attacks(&sample_attacks());
        assert_eq!(cols.target_offsets, vec![0, 1, 4, 5]);
        assert_eq!(cols.target_arena.len(), 5);
        assert_eq!(cols.targets(1).len(), 3);
    }

    #[test]
    fn sort_matches_struct_sort() {
        let mut attacks = sample_attacks();
        let mut cols = AttackColumns::from_attacks(&attacks);
        attacks.sort_by_key(|a| (a.start, a.id));
        cols.sort_by_start_id();
        assert_eq!(cols.to_vec(), attacks);
        // Idempotent (hits the already-sorted fast path).
        let before = cols.clone();
        cols.sort_by_start_id();
        assert_eq!(cols, before);
    }

    #[test]
    fn carry_merge_matches_concat_and_sort() {
        // Synthesize three "weeks" of 2000 s with rows spilling up to
        // 300 s past each boundary (like companion attacks), exactly
        // the shape `generate_study_on` feeds the merge. Every shard
        // has dense local ids in generation order.
        let template = &sample_attacks()[0];
        let row = |id: u64, start: i64| {
            let mut a = template.clone();
            a.id = AttackId(id);
            a.start = SimTime(start);
            a.targets = vec![Ipv4(0x0A00_0000 + id as u32)];
            a
        };
        let mut rng = 0x9E37_79B9u64;
        let mut next = move |m: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % m
        };
        let mut shard_rows = |week: i64, n: u64| -> Vec<Attack> {
            (0..n)
                .map(|i| {
                    // ~1 in 6 rows spills past the week boundary.
                    let off = next(2400) as i64;
                    row(i, week * 2000 + off.min(2000 - 1) + if off >= 2000 { 300 } else { 0 })
                })
                .collect()
        };
        let shards: Vec<Vec<Attack>> = (0..3).map(|w| shard_rows(w, 40)).collect();

        // Reference: concatenate with globally rebased ids, then sort.
        let mut reference = AttackColumns::new();
        let mut base = 0u64;
        for shard in &shards {
            for a in shard {
                let mut a = a.clone();
                a.id = AttackId(base + a.id.0);
                reference.push(&a);
            }
            base += shard.len() as u64;
        }
        reference.sort_by_start_id();

        // Streamed: sort each shard, merge with the boundary carry.
        let mut out = AttackColumns::new();
        let mut carry = AttackColumns::new();
        let mut assigned = 0u64;
        for (w, shard) in shards.iter().enumerate() {
            let mut cols = AttackColumns::from_attacks(shard);
            cols.sort_by_start_id();
            let bound = (w + 1 < shards.len()).then(|| (w as u32 + 1) * 2000);
            out.merge_sorted_shard(cols, assigned, &mut carry, bound);
            assigned += shard.len() as u64;
        }
        assert!(carry.is_empty(), "final shard must drain the carry");
        assert!(out.is_sorted_by_start_id());
        assert_eq!(out, reference);
    }

    #[test]
    fn carry_merge_handles_empty_and_single_shards() {
        let attacks = sample_attacks();
        let mut sorted = AttackColumns::from_attacks(&attacks);
        sorted.sort_by_start_id();

        // One shard, no bound: plain append.
        let mut out = AttackColumns::new();
        let mut carry = AttackColumns::new();
        out.merge_sorted_shard(sorted.clone(), 0, &mut carry, None);
        assert!(carry.is_empty());
        assert_eq!(out, sorted);

        // An empty middle shard forwards the carry intact.
        let mut out = AttackColumns::new();
        let mut carry = AttackColumns::new();
        out.merge_sorted_shard(sorted.clone(), 0, &mut carry, Some(2_000));
        assert_eq!(carry.len(), 1, "the start=5000 row spills");
        out.merge_sorted_shard(AttackColumns::new(), 3, &mut carry, Some(10_000));
        assert!(carry.is_empty(), "carry rows below the bound drain");
        out.merge_sorted_shard(AttackColumns::new(), 3, &mut carry, None);
        assert_eq!(out, sorted);
    }

    #[test]
    fn append_rebased_matches_concat() {
        let attacks = sample_attacks();
        let shard_a = AttackColumns::from_attacks(&attacks[..2]);
        // Shard-local ids restart at 0.
        let mut local: Vec<Attack> = attacks[2..].to_vec();
        for (i, a) in local.iter_mut().enumerate() {
            a.id = AttackId(i as u64);
        }
        let shard_b = AttackColumns::from_attacks(&local);
        let mut merged = AttackColumns::new();
        merged.append_rebased(shard_a, 0);
        merged.append_rebased(shard_b, 2);
        assert_eq!(merged.to_vec(), attacks);
    }

    #[test]
    fn iterator_contracts() {
        let cols = AttackColumns::from_attacks(&sample_attacks());
        assert_eq!(cols.iter().len(), 3);
        let ids: Vec<u64> = cols.iter().map(|a| a.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let rev: Vec<u64> = cols.iter().rev().map(|a| a.id.0).collect();
        assert_eq!(rev, vec![2, 1, 0]);
        let stepped: Vec<u64> = cols.iter().step_by(2).map(|a| a.id.0).collect();
        assert_eq!(stepped, vec![0, 2]);
    }

    #[test]
    fn serde_round_trip() {
        let cols = AttackColumns::from_attacks(&sample_attacks());
        let json = serde_json::to_string(&cols).expect("serialize");
        let back: AttackColumns = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, cols);

        let mut obs = ObservationColumns::new();
        obs.push_row(AttackId(7), SimTime(-3), &[Ipv4(1), Ipv4(2)]);
        let json = serde_json::to_string(&obs).expect("serialize");
        let back: ObservationColumns = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, obs);
    }

    #[test]
    fn resident_bytes_tracks_columns() {
        let cols = AttackColumns::from_attacks(&sample_attacks());
        let b = cols.resident_bytes();
        use std::mem::size_of;
        let per_row = 4 * size_of::<u32>()          // id, start, duration, reflector_count
            + size_of::<AttackClass>()
            + size_of::<AttackVector>()
            + size_of::<Asn>()
            + 3 * size_of::<f64>()                  // pps, bps, spoof fraction
            + size_of::<u32>();                     // campaign
        let floor = 3 * per_row + 4 * size_of::<u32>() + 5 * size_of::<Ipv4>();
        // Capacities may exceed the floor, never undercut it.
        assert!(b >= floor, "resident {b} below the {floor} floor");
        assert!(AttackColumns::new().resident_bytes() >= 4);
    }

    type Row = (AttackId, SimTime, Vec<Ipv4>);

    fn sample_rows() -> Vec<Row> {
        vec![
            (
                AttackId(11),
                SimTime(604_800 * 3 + 17),
                vec![Ipv4(9), Ipv4(8)],
            ),
            (AttackId(5), SimTime(-50), vec![Ipv4(9)]),
            (AttackId(u64::MAX - 4), SimTime(604_800 * 3 + 17), vec![]),
        ]
    }

    fn columns_of(rows: &[Row]) -> ObservationColumns {
        let mut cols = ObservationColumns::new();
        for (id, start, targets) in rows {
            cols.push_row(*id, *start, targets);
        }
        cols
    }

    fn rows_of(cols: &ObservationColumns) -> Vec<Row> {
        cols.iter()
            .map(|o| (o.attack_id, o.start, o.targets.to_vec()))
            .collect()
    }

    #[test]
    fn observations_round_trip_and_project() {
        let rows = sample_rows();
        let cols = columns_of(&rows);
        assert_eq!(rows_of(&cols), rows);
        // Two rows in week 3; the negative start falls outside the study.
        let counts = cols.weekly_counts();
        assert_eq!(counts.len(), simcore::STUDY_WEEKS);
        assert_eq!(counts[3], 2.0);
        assert_eq!(counts.iter().sum::<f64>(), 2.0);
        // The empty-target row contributes no tuple; duplicates collapse.
        let day = SimTime(604_800 * 3 + 17).day_index();
        assert_eq!(
            cols.distinct_target_tuples(),
            vec![
                (SimTime(-50).day_index(), Ipv4(9)),
                (day, Ipv4(8)),
                (day, Ipv4(9)),
            ]
        );
        let row = cols.get(0);
        assert_eq!(row.week(), 3);
        assert_eq!(
            row.target_tuples().collect::<Vec<_>>(),
            vec![(day, Ipv4(9)), (day, Ipv4(8))]
        );
    }

    #[test]
    fn weekly_counts_bucket_and_drop_out_of_study() {
        let mut cols = ObservationColumns::new();
        for day in [0, 6, 7, 14, -5] {
            cols.push_row(AttackId(day as u64), SimTime::from_days(day), &[Ipv4(1)]);
        }
        let counts = cols.weekly_counts();
        assert_eq!(&counts[..4], &[2.0, 1.0, 1.0, 0.0]);
        assert_eq!(
            counts.iter().sum::<f64>(),
            4.0,
            "day -5 is before the study"
        );
    }

    #[test]
    fn distinct_tuples_dedupe_within_and_across_rows() {
        let cols = columns_of(&[
            (
                AttackId(1),
                SimTime::from_days(1),
                vec![Ipv4(9), Ipv4(9), Ipv4(8)],
            ),
            (AttackId(2), SimTime::from_days(1), vec![Ipv4(9)]),
            (AttackId(3), SimTime::from_days(2), vec![Ipv4(9)]),
        ]);
        assert_eq!(
            cols.distinct_target_tuples(),
            vec![(1, Ipv4(8)), (1, Ipv4(9)), (2, Ipv4(9))]
        );
    }

    #[test]
    fn observation_row_building_and_rollback() {
        let mut cols = ObservationColumns::new();
        cols.begin_row(AttackId(1), SimTime(10));
        cols.push_target(Ipv4(1));
        cols.push_target(Ipv4(2));
        cols.commit_row();
        cols.begin_row(AttackId(2), SimTime(20));
        cols.push_target(Ipv4(3));
        cols.rollback_row();
        cols.push_row(AttackId(3), SimTime(30), &[Ipv4(4)]);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.targets(0), &[Ipv4(1), Ipv4(2)]);
        assert_eq!(cols.get(1).attack_id, AttackId(3));
        assert_eq!(cols.targets(1), &[Ipv4(4)]);
        assert_eq!(cols.target_arena.len(), 3, "rolled-back targets evicted");
        cols.clear();
        assert_eq!(cols, ObservationColumns::new());
    }

    #[test]
    fn observation_append_and_sort() {
        let rows = sample_rows();
        let mut a = columns_of(&rows[..1]);
        a.append(columns_of(&rows[1..]));
        assert_eq!(rows_of(&a), rows);
        let mut sorted = rows.clone();
        sorted.sort_by_key(|&(id, start, _)| (start, id));
        a.sort_by_start_id();
        assert_eq!(rows_of(&a), sorted);
    }

    #[test]
    #[should_panic(expected = "reflectors on a non-amplification vector")]
    fn inconsistent_reflectors_rejected() {
        let mut a = sample_attacks().remove(0);
        a.reflectors = Some(ReflectorUse {
            vector: AmpVector::Dns,
            reflector_count: 10,
        });
        AttackColumns::new().push(&a);
    }

    #[test]
    #[should_panic(expected = "start outside the u32-seconds column")]
    fn negative_start_rejected() {
        let mut a = sample_attacks().remove(0);
        a.start = SimTime(-1);
        AttackColumns::new().push(&a);
    }

    #[test]
    fn amp_vector_without_reflectors_round_trips() {
        let mut a = sample_attacks().remove(1);
        a.reflectors = None;
        let cols = AttackColumns::from_attacks(std::slice::from_ref(&a));
        assert_eq!(cols.get(0).reflectors, None);
        assert_eq!(cols.to_vec(), vec![a]);
    }
}
