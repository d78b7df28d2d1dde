//! Bench-side spans for the traced run.
//!
//! A span is opened from benchmark code around a call into one layer
//! and records its name, start, end and parent span. Spans are kept in
//! memory; when the run ends they are summarised (per-name totals, the
//! root's self time) and written as a Perfetto JSON through the
//! program's own flight recorder, which every span also feeds as a
//! begin/end pair on the opening thread's lane, with its id and its
//! parent's id as arguments of the end event.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; 0 is "no parent".
pub type SpanId = u64;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span recorder. Disabled, it records nothing and reads no clock.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

/// An open span; closes on drop.
pub struct Span<'a> {
    spans: &'a Spans,
    id: SpanId,
    parent: SpanId,
    name: Cow<'static, str>,
    start_ns: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under `parent` (0 for a root).
    pub fn open(&self, name: impl Into<Cow<'static, str>>, parent: SpanId) -> Span<'_> {
        let name = name.into();
        if !self.enabled {
            return Span {
                spans: self,
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        obs::trace::begin(name.clone());
        Span {
            spans: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Every closed span, in closing order.
    pub fn records(&self) -> Vec<SpanRec> {
        self.done.lock().expect("span list lock").clone()
    }
}

impl Span<'_> {
    /// This span's id, to parent further spans (0 when disabled).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.spans.now_ns();
        obs::trace::end_with_args(
            self.name.clone(),
            vec![
                (Cow::Borrowed("span_id"), self.id),
                (Cow::Borrowed("parent_id"), self.parent),
            ],
        );
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut done) = self.spans.done.lock() {
            done.push(rec);
        }
    }
}

/// Length of the union of `[start, end)` intervals, in nanoseconds.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// direct children (on any thread) cover, in seconds.
pub fn self_secs(records: &[SpanRec], id: SpanId) -> Option<f64> {
    let span = records.iter().find(|r| r.id == id)?;
    let children: Vec<(u64, u64)> = records
        .iter()
        .filter(|r| r.parent == id)
        .map(|r| (r.start_ns.max(span.start_ns), r.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    Some(span.secs() - union_ns(children) as f64 / 1e9)
}

/// Total seconds per span name.
pub fn totals(records: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for r in records {
        *out.entry(r.name.clone()).or_insert(0.0) += r.secs();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let records = vec![
            rec(1, 0, 0, 1_000),
            rec(2, 1, 100, 400),
            rec(3, 1, 300, 600),   // overlaps 2 (another thread)
            rec(4, 2, 150, 200),   // grandchild: already inside 2
            rec(5, 1, 900, 1_200), // clipped to the root's end
        ];
        let s = self_secs(&records, 1).unwrap();
        assert!((s - 400e-9).abs() < 1e-15, "{s}");
        assert!(self_secs(&records, 9).is_none());
        assert_eq!(totals(&records)["s2"], 300e-9);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let spans = Spans::new(false);
        {
            let s = spans.open("x", 0);
            assert_eq!(s.id(), 0);
        }
        assert!(spans.records().is_empty());
        let spans = Spans::new(true);
        let root = spans.open("root", 0);
        let child_id = {
            let child = spans.open("child", root.id());
            child.id()
        };
        drop(root);
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, child_id);
        assert_eq!(recs[0].parent, recs[1].id);
    }
}
