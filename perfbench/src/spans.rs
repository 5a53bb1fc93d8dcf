//! The benchmark's own spans, recorded around every call it makes into a
//! layer. Spans stay in memory and are written out when the run ends; an
//! untraced run holds a recorder that records nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id; 0 means "no span" (the root's parent).
    pub id: u64,
    /// The span that caused this one, 0 for a root.
    pub parent: u64,
    /// `<layer>.<operation>`, e.g. `overlap.run`.
    pub name: &'static str,
    /// The run or request this span belongs to (0 for layer probes).
    pub op: u64,
    /// Nanoseconds since the recorder's anchor.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's anchor.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span store shared by every benchmark thread.
pub struct Recorder {
    on: bool,
    anchor: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, to pass as a child's parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.rec.now_ns();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            op: self.op,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

impl Recorder {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            anchor: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the anchor.
    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` for operation `op`.
    pub fn span(&self, name: &'static str, parent: u64, op: u64) -> Guard<'_> {
        let (id, start_ns) = if self.on {
            (
                self.next_id.fetch_add(1, Ordering::Relaxed) + 1,
                self.now_ns(),
            )
        } else {
            (0, 0)
        };
        Guard {
            rec: self,
            id,
            parent,
            name,
            op,
            start_ns,
        }
    }

    /// Record an already-measured interval (for spans whose bounds come
    /// from another clock, converted to this anchor by the caller).
    pub fn record(&self, name: &'static str, parent: u64, op: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.spans
            .lock()
            .expect("span store poisoned by a panicking benchmark thread")
            .push(Span {
                id,
                parent,
                name,
                op,
                start_ns,
                end_ns,
            });
    }

    /// Every finished span, ordered by start.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking benchmark thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Merge `(start, end)` intervals into a sorted disjoint union.
pub fn merge(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Self time per span id: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered: u64 = children
                .remove(&s.id)
                .map(|iv| {
                    let clipped = iv
                        .into_iter()
                        .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .collect();
                    merge(clipped).iter().map(|(a, b)| b - a).sum()
                })
                .unwrap_or(0);
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, seconds, in name order.
pub fn self_time_by_layer(spans: &[Span]) -> std::collections::BTreeMap<&'static str, f64> {
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out = std::collections::BTreeMap::new();
    for (id, ns) in self_times(spans) {
        *out.entry(by_id[&id].layer()).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Render spans as a Chrome trace-event document (complete events, one
/// track per operation id).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.layer(),
            s.op,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "overlap.run", 0, 100),
            // Overlapping children cover 10..60 once, not twice.
            span(2, 1, "advect-core.init", 10, 40),
            span(3, 1, "simmpi.world", 30, 60),
            // A child running past its parent is clipped.
            span(4, 1, "overlap.assemble", 90, 120),
        ];
        let st: std::collections::HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&1], 100 - 50 - 10);
        assert_eq!(st[&2], 30);
        let by_layer = self_time_by_layer(&spans);
        let total: f64 = by_layer.values().sum();
        // Layer self times add up to the root's duration plus the
        // overhang and overlap the children carry themselves.
        assert!((total - (40.0 + 30.0 + 30.0 + 30.0) * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let rec = Recorder::new(false);
        {
            let g = rec.span("overlap.run", 0, 1);
            assert_eq!(g.id(), 0);
        }
        rec.record("serve.request", 0, 1, 0, 5);
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn spans_record_parent_and_operation() {
        let rec = Recorder::new(true);
        {
            let root = rec.span("overlap.run", 0, 7);
            let _child = rec.span("advect-core.stencil", root.id(), 7);
        }
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.parent != 0).unwrap();
        assert_eq!(child.op, 7);
        assert!(chrome_json(&spans).starts_with("[{\"name\":"));
    }
}
