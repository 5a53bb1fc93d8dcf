//! Decompositions that must add up: a run's wall time into the program's
//! span categories, and a request's latency into server stages.

use obs::{Axis, Category};
use overlap::RunReport;

/// The span categories a run records, in `obs::Category::ALL` order.
pub const RUN_CATEGORIES: [Category; 12] = [
    Category::ComputeInterior,
    Category::ComputeVeneer,
    Category::Pack,
    Category::Unpack,
    Category::MpiSend,
    Category::MpiRecv,
    Category::MpiWait,
    Category::MpiAllreduce,
    Category::MpiBarrier,
    Category::PcieH2d,
    Category::PcieD2h,
    Category::KernelLaunch,
];

/// Rank-seconds of traced runs, split by category.
///
/// `total` is ranks × run wall time. Each category's busy time is the
/// union of its spans on a rank; `covered` is the union over all
/// categories, so `Σ busy − covered` is time two categories overlapped
/// and `total − covered` is time no span covers (launch, field init,
/// state copy, assembly). Hence
/// `Σ category shares − overlap share + unattributed share = 1`.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// Busy rank-seconds per entry of [`RUN_CATEGORIES`].
    pub busy: [f64; RUN_CATEGORIES.len()],
    /// Rank-seconds covered by at least one span.
    pub covered: f64,
    /// Rank-seconds of the runs.
    pub total: f64,
}

impl Phases {
    /// Add one traced run that took `wall_s`.
    pub fn add(&mut self, report: &RunReport, wall_s: f64) {
        let table = report.phase_breakdown(Axis::Wall);
        for row in &table.ranks {
            for (b, cat) in self.busy.iter_mut().zip(RUN_CATEGORIES) {
                *b += row.get(cat);
            }
        }
        for trace in &report.traces {
            let iv = trace
                .spans
                .iter()
                .filter(|s| RUN_CATEGORIES.contains(&s.cat))
                .filter_map(|s| s.interval_on(Axis::Wall))
                .collect();
            self.covered += obs::metrics::union_seconds(&obs::metrics::merge_intervals(iv));
        }
        self.total += report.traces.len() as f64 * wall_s;
    }

    /// `(name, share)` for every category, then `overlap` and
    /// `unattributed`. Empty when nothing was added.
    pub fn shares(&self) -> Vec<(String, f64)> {
        if self.total <= 0.0 {
            return Vec::new();
        }
        let mut out: Vec<(String, f64)> = RUN_CATEGORIES
            .iter()
            .zip(self.busy)
            .map(|(c, b)| (c.name().to_string(), b / self.total))
            .collect();
        let busy: f64 = self.busy.iter().sum();
        out.push(("overlap".to_string(), (busy - self.covered) / self.total));
        out.push((
            "unattributed".to_string(),
            (self.total - self.covered) / self.total,
        ));
        out
    }
}

/// The server stages of one request, nanoseconds, and its client-side
/// round trip.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Parse, canonicalize, cache lookup, enqueue.
    pub accept: f64,
    /// Enqueue to worker pick (requests that started an execution).
    pub queue: f64,
    /// The run and its artifact render; for a dedup join, the wait for
    /// the execution it joined.
    pub execute: f64,
    /// Publishing the artifact to the cache and the waiters.
    pub render: f64,
    /// Client send to client receive.
    pub total: f64,
}

/// Stage names in [`Stages::parts`] order.
pub const STAGES: [&str; 5] = ["accept", "queue", "execute", "render", "respond"];

impl Stages {
    /// `respond` is the round trip minus the server stages: the wire,
    /// the connection thread and the wake-up. Returns the five parts and
    /// the gap, the amount by which the server stages exceed the round
    /// trip (0 when they fit).
    pub fn parts(&self) -> ([f64; 5], f64) {
        let server = self.accept + self.queue + self.execute + self.render;
        let respond = self.total - server;
        (
            [
                self.accept,
                self.queue,
                self.execute,
                self.render,
                respond.max(0.0),
            ],
            (-respond).max(0.0),
        )
    }
}

/// Stage shares over the requests whose latency ranks in `[lo, hi)` of
/// `reqs` sorted by round trip (fractions of the count): the sum of each
/// stage over the band divided by the band's summed round trip. Returns
/// the five shares and the gap share; shares + gap − 1 is 0 up to
/// rounding.
pub fn stage_shares(reqs: &[Stages], lo: f64, hi: f64) -> ([f64; 5], f64) {
    let mut sorted = reqs.to_vec();
    sorted.sort_by(|a, b| a.total.total_cmp(&b.total));
    let n = sorted.len();
    let a = ((lo * n as f64).floor() as usize).min(n.saturating_sub(1));
    let b = ((hi * n as f64).ceil() as usize).clamp(a + 1, n.max(a + 1));
    let band = &sorted[a..b.min(n)];
    let total: f64 = band.iter().map(|s| s.total).sum();
    let mut sums = [0.0; 5];
    let mut gap = 0.0;
    for s in band {
        let (parts, g) = s.parts();
        for (acc, p) in sums.iter_mut().zip(parts) {
            *acc += p;
        }
        gap += g;
    }
    if total <= 0.0 {
        return ([0.0; 5], 0.0);
    }
    (sums.map(|x| x / total), gap / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use advect_core::stepper::AdvectionProblem;
    use overlap::{Impl, RunConfig};
    use std::time::Instant;

    #[test]
    fn phase_shares_close_over_the_run() {
        for im in [Impl::BulkSync, Impl::Nonblocking, Impl::HybridOverlap] {
            let cfg = RunConfig::new(AdvectionProblem::general_case(16), 3)
                .tasks(2)
                .with_block((8, 8))
                .with_trace(true);
            let t = Instant::now();
            let (_, report) = im.run_with_report(&cfg, Some(&crate::solve::gpu()));
            let mut phases = Phases::default();
            phases.add(&report, t.elapsed().as_secs_f64());
            let shares = phases.shares();
            let get = |name: &str| shares.iter().find(|(n, _)| n == name).unwrap().1;
            let categories: f64 = shares[..RUN_CATEGORIES.len()].iter().map(|(_, s)| s).sum();
            let closure = categories - get("overlap") + get("unattributed");
            assert!((closure - 1.0).abs() < 1e-9, "{im:?}: {closure}");
            assert!(get("compute.interior") + get("compute.veneer") > 0.0);
            assert!((0.0..=1.0).contains(&get("unattributed")));
        }
    }

    #[test]
    fn stage_shares_sum_to_one_or_report_the_gap() {
        let fits = Stages {
            accept: 1.0,
            queue: 2.0,
            execute: 5.0,
            render: 1.0,
            total: 10.0,
        };
        let overflows = Stages { total: 8.0, ..fits };
        let (shares, gap) = stage_shares(&[fits], 0.0, 1.0);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(gap, 0.0);
        assert!((shares[4] - 0.1).abs() < 1e-12);
        let (shares, gap) = stage_shares(&[overflows], 0.0, 1.0);
        assert!((shares.iter().sum::<f64>() - gap - 1.0).abs() < 1e-12);
        assert!((gap - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn stage_bands_pick_by_latency() {
        let reqs: Vec<Stages> = (1..=100)
            .map(|i| Stages {
                execute: if i > 90 { i as f64 } else { 0.0 },
                accept: if i > 90 { 0.0 } else { i as f64 },
                total: i as f64,
                ..Stages::default()
            })
            .collect();
        let (p50, _) = stage_shares(&reqs, 0.45, 0.55);
        assert_eq!(p50[0], 1.0);
        let (tail, _) = stage_shares(&reqs, 0.9, 1.0);
        assert_eq!(tail[2], 1.0);
    }
}
