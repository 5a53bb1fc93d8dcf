//! Implementation IV-D: MPI using OpenMP threading for overlap.
//!
//! Instead of nonblocking MPI, an asynchronous thread overlaps the
//! communication: the master thread (`!$omp master`) performs the
//! (blocking) MPI exchange and then joins the computation of interior
//! points, while the other threads begin computing interior points
//! immediately. The interior loop uses `schedule(guided)` — chunks
//! proportional to the remaining work divided by the number of threads —
//! so the late-joining master picks up whatever remains. An OpenMP
//! barrier ensures communication is complete before the boundary points
//! are computed.
//!
//! The concurrent halo mutation (master) and interior reads (workers) are
//! disjoint by the interior/boundary split; both go through
//! [`advect_core::field::SharedField`]'s `UnsafeCell` cells, keeping the
//! overlap sound.
//!
//! The guided core and the boundary write every interior point of `new`,
//! so the paper's Step 3 copy is a swap of the two fields; the master's
//! next exchange rewrites every halo point of the field swapped in before
//! the barrier that precedes the boundary, the only code that reads it.
//! A straggler's slowdown is modelled on each thread's guided interior
//! loop, the step's compute that runs outside the master's exchange.

use crate::halo::exchange_halos_shared;
use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::{Field3, Range3, SharedField};
use advect_core::stencil::apply_stencil;
use advect_core::team::{GuidedChunks, ThreadTeam};
use decomp::partition::shell_and_core;

/// The OpenMP-thread-overlap distributed implementation.
pub struct ThreadOverlapMpi;

impl ThreadOverlapMpi {
    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig) -> (Field3, RunReport) {
        run_ranks(cfg, "thread_overlap", None, 1, |r| {
            let mut cur = r.initial_field();
            let mut new = r.zero_field();
            let team = ThreadTeam::new(cfg.threads);
            let stencil = cfg.problem.stencil();
            let tile = cfg.tile_spec(cur.extents().0);
            let full = cur.interior_range();
            let (core, shell) = shell_and_core(full, 1);
            r.steps(cfg.steps, || {
                {
                    let core_planes = (core.z.1 - core.z.0).max(0) as usize;
                    let queue = GuidedChunks::new(0..core_planes, cfg.threads, 1);
                    let cur_shared = SharedField::new(&mut cur);
                    let new_shared = SharedField::new(&mut new);
                    let cur_ref = &cur_shared;
                    let new_ref = &new_shared;
                    team.parallel(|ctx| {
                        if ctx.is_master() {
                            // Master: communicate, then join the guided loop.
                            let (plan, bufs) = (&r.plan, &r.halo_bufs);
                            exchange_halos_shared(cur_ref, plan, r.decomp, r.rank, r.comm, bufs);
                        }
                        let throttle = r.comm.throttle_start();
                        {
                            let _span = r
                                .tracer
                                .span(obs::Category::ComputeInterior, "interior.guided");
                            while let Some(chunk) = queue.next_chunk() {
                                let region = Range3::new(
                                    core.x,
                                    core.y,
                                    (core.z.0 + chunk.start as i64, core.z.0 + chunk.end as i64),
                                );
                                apply_stencil(cur_ref, new_ref, &stencil, region, tile);
                            }
                        }
                        r.comm.throttle_end(throttle);
                        // Communication (master reached here) is complete
                        // before any thread computes boundary points.
                        ctx.barrier();
                        for (i, region) in shell.iter().enumerate() {
                            if i % ctx.num_threads == ctx.tid {
                                apply_stencil(cur_ref, new_ref, &stencil, *region, tile);
                            }
                        }
                    });
                }
                // Step 3: the new state becomes the current one.
                std::mem::swap(&mut cur, &mut new);
            });
            cur
        })
    }
}
