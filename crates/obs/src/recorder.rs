//! Flight-recorder substrate: fixed-capacity rings for "what just
//! happened" evidence.
//!
//! The run service keeps an always-on recorder of recent request events
//! and the last few run traces, so an anomaly (deadline miss, rejection
//! burst, straggler flag, SLO burn) can dump a self-contained bundle
//! without having had tracing "turned on" beforehand. This module is the
//! service-agnostic substrate: [`Ring`], the one generic overwrite ring,
//! holding request events, whole traced runs ([`StoredRun`]) and the run
//! server's log lines alike. The request lifecycle schema on top lives
//! in `serve::reqtrace`.
//!
//! The zero-cost-off contract matches the tracing / metrics / fault /
//! causal layers: a disabled ring is `None` inside and every operation
//! returns immediately; each ring-state construction bumps the
//! [`Layer::Recorder`] ledger entry ([`crate::states_allocated`]) so a
//! test can prove the off path allocates nothing.
//!
//! The event ring is overwrite-on-wrap with a lock-free slot claim: a
//! writer claims a global index with one `fetch_add` and writes the slot
//! `index % capacity` under that slot's (uncontended) lock, tagging it
//! with the 1-based global sequence. Later claims win ties, so the
//! overwrite order is exactly claim order — sequential pushes produce a
//! bit-identical window regardless of how often the ring has wrapped,
//! which is what the wraparound-determinism test pins down.

use crate::{note_state_allocated, Layer, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Slot<T> {
    /// 1-based global sequence of the value held, 0 = never written.
    seq: u64,
    value: T,
}

struct RingInner<T> {
    next: AtomicU64,
    slots: Box<[Mutex<Slot<T>>]>,
}

/// A fixed-capacity overwrite ring. Pushing moves the value in and
/// [`Ring::snapshot`] clones the window out, so large records (a stored
/// run's traces) should only be built once [`Ring::is_on`] says they
/// will be kept.
pub struct Ring<T: Clone + Default> {
    inner: Option<Arc<RingInner<T>>>,
}

impl<T: Clone + Default> Clone for Ring<T> {
    fn clone(&self) -> Self {
        Ring {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Clone + Default> Ring<T> {
    /// A disabled ring: every operation is a no-op, nothing allocated.
    pub const fn off() -> Self {
        Ring { inner: None }
    }

    /// An enabled ring holding the most recent `capacity` records.
    /// `capacity == 0` yields a disabled ring.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return Ring::off();
        }
        note_state_allocated(Layer::Recorder);
        let slots: Box<[Mutex<Slot<T>>]> = (0..capacity)
            .map(|_| {
                Mutex::new(Slot {
                    seq: 0,
                    value: T::default(),
                })
            })
            .collect();
        Ring {
            inner: Some(Arc::new(RingInner {
                next: AtomicU64::new(0),
                slots,
            })),
        }
    }

    /// Whether the ring records anything.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.slots.len())
    }

    /// Total records ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.next.load(Ordering::SeqCst))
    }

    /// Record one value, overwriting the oldest once full.
    pub fn push(&self, value: T) {
        let Some(inner) = &self.inner else { return };
        let i = inner.next.fetch_add(1, Ordering::SeqCst);
        let cap = inner.slots.len() as u64;
        let mut slot = inner.slots[(i % cap) as usize].lock().unwrap();
        // A writer that claimed a later lap of this slot may have locked
        // it first; the later claim wins so overwrite order == claim
        // order even under adversarial scheduling.
        if i + 1 > slot.seq {
            slot.seq = i + 1;
            slot.value = value;
        }
    }

    /// The current window, oldest to newest. Records whose slot was
    /// overtaken by a concurrent writer mid-snapshot are skipped rather
    /// than torn.
    pub fn snapshot(&self) -> Vec<T> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let next = inner.next.load(Ordering::SeqCst);
        let cap = inner.slots.len() as u64;
        let lo = next.saturating_sub(cap);
        let mut out = Vec::with_capacity((next - lo) as usize);
        for i in lo..next {
            let slot = inner.slots[(i % cap) as usize].lock().unwrap();
            if slot.seq == i + 1 {
                out.push(slot.value.clone());
            }
        }
        out
    }
}

/// One executed run kept for stitching: which request ran it, where its
/// `serve.execute` span sits on the service track, and the run's traces.
#[derive(Debug, Clone, Default)]
pub struct StoredRun {
    /// Request id that executed the run.
    pub request_id: u64,
    /// Thread id of the request's `serve.execute` span on the service
    /// track (the stitch arrow's source track).
    pub exec_tid: u32,
    /// Service-anchor nanoseconds when execution started; run traces are
    /// rebased to this origin at export time.
    pub exec_start_ns: u64,
    /// The run's per-rank traces (the run's own anchor, ~0-based).
    pub traces: Vec<Trace>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Span};

    #[test]
    fn off_rings_do_nothing() {
        let r: Ring<u64> = Ring::off();
        r.push(7);
        assert!(!r.is_on());
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.pushed(), 0);
        assert!(r.snapshot().is_empty());
        let t: Ring<StoredRun> = Ring::off();
        t.push(StoredRun::default());
        assert!(t.snapshot().is_empty());
        assert_eq!(Ring::<u64>::with_capacity(0).capacity(), 0);
    }

    #[test]
    fn ring_keeps_newest_window_in_push_order() {
        let r: Ring<u64> = Ring::with_capacity(4);
        for v in 0..3 {
            r.push(v);
        }
        assert_eq!(r.snapshot(), vec![0, 1, 2]);
        for v in 3..11 {
            r.push(v);
        }
        assert_eq!(r.snapshot(), vec![7, 8, 9, 10]);
        assert_eq!(r.pushed(), 11);
    }

    #[test]
    fn wraparound_is_deterministic_across_repeats() {
        // The overwrite order is claim order, so the same push sequence
        // yields a bit-identical window every time, however many laps
        // the ring has done.
        let runs: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                let r: Ring<u64> = Ring::with_capacity(8);
                for v in 0..1000 {
                    r.push(v * 2654435761 % 977);
                }
                r.snapshot()
            })
            .collect();
        assert_eq!(runs[0].len(), 8);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn concurrent_pushes_never_tear_and_keep_claim_order() {
        let r: Ring<u64> = Ring::with_capacity(16);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for v in 0..500u64 {
                        r.push(t * 1_000_000 + v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(r.pushed(), 2000);
        // Every surviving value is one that was actually pushed.
        for v in snap {
            assert!(v % 1_000_000 < 500);
        }
    }

    #[test]
    fn stored_runs_evict_oldest() {
        let t: Ring<StoredRun> = Ring::with_capacity(2);
        for id in 0..3 {
            t.push(StoredRun {
                request_id: id,
                exec_tid: 1,
                exec_start_ns: id * 100,
                traces: vec![Trace {
                    rank: 0,
                    spans: vec![Span::wall(Category::ComputeInterior, "", 1, 0, 10)],
                    dropped: 0,
                }],
            });
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].request_id, 1);
        assert_eq!(snap[1].request_id, 2);
        assert_eq!(snap[1].traces.len(), 1);
    }

    #[test]
    fn construction_bumps_the_state_counter() {
        let before = crate::states_allocated(Layer::Recorder);
        let _r: Ring<u64> = Ring::with_capacity(2);
        let _t: Ring<StoredRun> = Ring::with_capacity(2);
        assert!(crate::states_allocated(Layer::Recorder) >= before + 2);
    }
}
