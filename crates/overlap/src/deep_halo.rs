//! Extension implementation: communication-avoiding deep halos.
//!
//! The paper's implementations exchange a one-point halo every step. A
//! classic alternative for the latency-dominated regime its Figures 3/4
//! expose at high core counts is a **deep halo**: exchange a `W`-point
//! halo once, then take `W` stencil steps locally, recomputing a shrinking
//! shell of neighbor points redundantly instead of communicating. Message
//! *count* drops by `W×` (latency), message volume grows slightly, and
//! compute grows by the redundant shell — a trade that pays exactly where
//! IV-C stopped paying.
//!
//! Correctness is exact, not approximate: after an exchange, sub-step
//! `s` (0-based) needs source values valid `W-s` points beyond the
//! interior — available by induction from the depth-`W` exchange. The
//! result is **bit-identical** to the serial reference because every
//! computed value sees exactly the same inputs in the same tap order.
//!
//! Since PR 7 the `W` licensed sub-steps are executed as **one
//! time-tiled traversal** ([`advect_core::timetile::advance_pooled`]):
//! instead of `W` whole-grid sweeps between exchanges (each streaming
//! the subdomain through memory), each trapezoid tile is advanced all
//! `W` steps while hot in cache. The trace shows exactly one
//! `timetile.traversal` span per exchange.

use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::Field3;
use advect_core::sweep::SweepPool;

/// The deep-halo (communication-avoiding) bulk-synchronous implementation.
pub struct DeepHaloBulkSync;

impl DeepHaloBulkSync {
    /// Run with halo width `width` (1 reduces to IV-B's schedule) and
    /// return the assembled global state.
    pub fn run(cfg: &RunConfig, width: usize) -> Field3 {
        Self::run_with_report(cfg, width).0
    }

    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig, width: usize) -> (Field3, RunReport) {
        assert!(width >= 1, "halo width must be at least 1");
        run_ranks(cfg, "deep_halo", None, width, |r| {
            let (nx, ny, nz) = r.sub.extent;
            assert!(
                width <= nx.min(ny).min(nz),
                "halo width {width} exceeds subdomain extent ({nx},{ny},{nz})"
            );
            let pool = SweepPool::new(cfg.threads);
            let mut cur = Field3::new_placed(nx, ny, nz, width, &pool);
            crate::runner::fill_local_initial(cfg, &r.sub, &mut cur);
            let mut new = Field3::new_placed(nx, ny, nz, width, &pool);
            let stencil = cfg.problem.stencil();
            let tile = match cfg.tile {
                Some((ty, tz)) => advect_core::tile::TileSpec::new(ty, tz),
                None => advect_core::timetile::tile_for_host(cur.extents().0, width, cfg.threads),
            };
            // One timed iteration per exchange: bursts of `width` steps.
            let mut remaining = cfg.steps;
            r.steps(cfg.steps.div_ceil(width as u64), || {
                r.exchange(&mut cur);
                let burst = (width as u64).min(remaining);
                let throttle = r.comm.throttle_start();
                {
                    // One fused traversal advances the interior by the
                    // whole burst — the depth-`width` exchange licenses
                    // every skirt read the trapezoid tiles make.
                    let label = "timetile.traversal";
                    let _span = r.tracer.span(obs::Category::ComputeInterior, label);
                    advect_core::timetile::advance_pooled(
                        &cur,
                        &mut new,
                        &stencil,
                        cur.interior_range(),
                        burst as usize,
                        tile,
                        &pool,
                    );
                    std::mem::swap(&mut cur, &mut new);
                }
                r.comm.throttle_end(throttle);
                remaining -= burst;
            });
            cur
        })
    }

    /// Redundant points computed per interior point per step for halo
    /// width `w` on a cubic subdomain of side `n` (the compute overhead
    /// the latency saving must beat).
    pub fn redundancy(n: usize, w: usize) -> f64 {
        let n = n as f64;
        let mut extended = 0.0;
        for s in 0..w {
            let e = (w - 1 - s) as f64;
            extended += (n + 2.0 * e).powi(3);
        }
        extended / (w as f64 * n.powi(3)) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::{exchange_halos, HaloBuffers};
    use advect_core::stepper::{AdvectionProblem, SerialStepper};
    use decomp::ExchangePlan;
    use simmpi::World;

    fn reference(problem: AdvectionProblem, steps: u64) -> Field3 {
        let mut s = SerialStepper::new(problem);
        s.run(steps);
        s.into_state()
    }

    #[test]
    fn deep_halo_matches_serial_bitwise() {
        let problem = AdvectionProblem::general_case(12);
        for width in [1usize, 2, 3] {
            for steps in [1u64, 2, 4, 5] {
                let expect = reference(problem, steps);
                let cfg = RunConfig::new(problem, steps).tasks(4).with_threads(2);
                let got = DeepHaloBulkSync::run(&cfg, width);
                assert_eq!(
                    got.max_abs_diff(&expect),
                    0.0,
                    "width {width}, steps {steps}"
                );
            }
        }
    }

    #[test]
    fn deep_halo_handles_partial_final_burst() {
        // 7 steps at width 3: bursts of 3, 3, 1.
        let problem = AdvectionProblem::general_case(12);
        let expect = reference(problem, 7);
        let cfg = RunConfig::new(problem, 7).tasks(2).with_threads(2);
        let got = DeepHaloBulkSync::run(&cfg, 3);
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn deep_halo_exchanges_fewer_times() {
        // The point of the scheme: width W runs W× fewer exchanges. Verify
        // via message counts on a 2-rank world.
        let problem = AdvectionProblem::general_case(10);
        let count_messages = |width: usize| -> u64 {
            let decomp = decomp::Decomposition::new(2, (10, 10, 10));
            let dref = &decomp;
            let results = World::run(2, move |comm| {
                let sub = dref.subdomains[comm.rank()];
                let mut cur = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, width);
                cur.fill_interior(|x, y, z| (x + y + z) as f64);
                let plan = ExchangePlan::new(sub.extent, width);
                let bufs = HaloBuffers::new(&plan, comm);
                let stencil = problem.stencil();
                let mut new = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, width);
                let pool = SweepPool::new(1);
                let tile = advect_core::tile::TileSpec::host(cur.extents().0);
                let mut remaining = 6u64;
                while remaining > 0 {
                    exchange_halos(&mut cur, &plan, dref, comm.rank(), comm, &bufs);
                    let burst = (width as u64).min(remaining);
                    advect_core::timetile::advance_pooled(
                        &cur,
                        &mut new,
                        &stencil,
                        cur.interior_range(),
                        burst as usize,
                        tile,
                        &pool,
                    );
                    std::mem::swap(&mut cur, &mut new);
                    remaining -= burst;
                }
                comm.stats().messages_sent
            });
            results.iter().sum()
        };
        let w1 = count_messages(1);
        let w3 = count_messages(3);
        assert_eq!(w1, 3 * w3, "w1 {w1}, w3 {w3}");
    }

    #[test]
    fn deep_halo_runs_one_traversal_per_exchange() {
        // 7 steps at width 3 → bursts of 3, 3, 1: exactly three fused
        // traversals per rank, one per exchange, visible in the trace.
        let problem = AdvectionProblem::general_case(12);
        let cfg = RunConfig::new(problem, 7)
            .tasks(2)
            .with_threads(2)
            .with_trace(true);
        let (_, report) = DeepHaloBulkSync::run_with_report(&cfg, 3);
        assert!(!report.traces.is_empty());
        for trace in &report.traces {
            let traversals = trace
                .spans
                .iter()
                .filter(|s| s.label == "timetile.traversal")
                .count();
            assert_eq!(traversals, 3, "rank {}", trace.rank);
        }
    }

    #[test]
    fn redundancy_grows_with_width_and_shrinks_with_domain() {
        let r2_small = DeepHaloBulkSync::redundancy(20, 2);
        let r2_big = DeepHaloBulkSync::redundancy(100, 2);
        let r3_small = DeepHaloBulkSync::redundancy(20, 3);
        assert!(r2_small > r2_big);
        assert!(r3_small > r2_small);
        assert_eq!(DeepHaloBulkSync::redundancy(50, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "halo width")]
    fn rejects_width_larger_than_subdomain() {
        let problem = AdvectionProblem::general_case(8);
        let cfg = RunConfig::new(problem, 1).tasks(8); // 4³-ish subdomains
        let _ = DeepHaloBulkSync::run(&cfg, 5);
    }
}
