//! Implementation IV-C: MPI using nonblocking communication for overlap.
//!
//! The local domain is partitioned into interior points and boundary
//! points (those that touch halo points). The interior is further split
//! into thirds along z; the first third is computed between the
//! nonblocking initiation of the x communication and its completion, the
//! second within y, and the third within z. The boundary points are
//! computed after all communication completes. The thirds and the
//! boundary together write every interior point of `new`, so the paper's
//! Step 3 copy is a swap of the two fields; the next step's three phases
//! rewrite every halo point of the field swapped in, and only the
//! boundary, computed after they complete, reads the halo.

use crate::halo::{complete_phase, post_phase_recvs, send_phase};
use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::Field3;
use advect_core::stencil::apply_stencil;
use advect_core::team::ThreadTeam;
use advect_core::tile::z_cuts;
use decomp::partition::{shell_and_core, thirds_along_z};

/// The nonblocking-overlap distributed implementation.
pub struct NonblockingMpi;

impl NonblockingMpi {
    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig) -> (Field3, RunReport) {
        run_ranks(cfg, "nonblocking", None, 1, |r| {
            let (decomp, rank, comm, bufs, tracer) =
                (r.decomp, r.rank, r.comm, &r.halo_bufs, &r.tracer);
            let mut cur = r.initial_field();
            let mut new = r.zero_field();
            let team = ThreadTeam::new(cfg.threads);
            let stencil = cfg.problem.stencil();
            let tile = cfg.tile_spec(cur.extents().0);
            let full = cur.interior_range();
            let (core, shell) = shell_and_core(full, 1);
            let thirds = thirds_along_z(core);
            let cuts = z_cuts(r.sub.extent.2, cfg.threads);
            r.steps(cfg.steps, || {
                // Interleave: initiate phase d, compute interior third d,
                // complete phase d.
                for (d, third) in thirds.iter().enumerate() {
                    let inflight = post_phase_recvs(&r.plan.phases[d], decomp, rank, comm);
                    send_phase(&r.plan.phases[d], &cur, decomp, rank, comm, bufs);
                    let throttle = comm.throttle_start();
                    {
                        let _span = tracer.span(obs::Category::ComputeInterior, "interior.third");
                        let src = &cur;
                        let slabs = new.z_slabs_mut(&cuts);
                        team.parallel_with(slabs, |_ctx, mut slab| {
                            apply_stencil(src, &mut slab, &stencil, *third, tile);
                        });
                    }
                    comm.throttle_end(throttle);
                    complete_phase(inflight, &mut cur, comm, bufs);
                }
                // Boundary points after communication.
                {
                    let _span = tracer.span(obs::Category::ComputeInterior, "boundary");
                    let src = &cur;
                    let slabs = new.z_slabs_mut(&cuts);
                    team.parallel_with(slabs, |_ctx, mut slab| {
                        for region in &shell {
                            apply_stencil(src, &mut slab, &stencil, *region, tile);
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
