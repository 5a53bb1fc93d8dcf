//! Implementation IV-B: bulk-synchronous MPI.
//!
//! Each step performs the whole halo exchange (dimension-serialized,
//! nonblocking receives posted first), then the full local stencil — no
//! overlap of communication and computation. The paper's Step 3 copy is a
//! swap of the two fields: the stencil writes every interior point of
//! `new`, and the next exchange rewrites every halo point of the field
//! swapped in before the stencil reads it.

use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::Field3;
use advect_core::stencil::apply_stencil;
use advect_core::team::ThreadTeam;
use advect_core::tile::z_cuts;

/// The bulk-synchronous distributed implementation.
pub struct BulkSyncMpi;

impl BulkSyncMpi {
    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig) -> (Field3, RunReport) {
        run_ranks(cfg, "bulk_sync", None, 1, |r| {
            let mut cur = r.initial_field();
            let mut new = r.zero_field();
            let team = ThreadTeam::new(cfg.threads);
            let stencil = cfg.problem.stencil();
            let tile = cfg.tile_spec(cur.extents().0);
            let cuts = z_cuts(r.sub.extent.2, cfg.threads);
            let region = cur.interior_range();
            r.steps(cfg.steps, || {
                // Step 1: full exchange, master thread drives communication.
                r.exchange(&mut cur);
                // Step 2: stencil over the whole interior, threaded by z-slab.
                let throttle = r.comm.throttle_start();
                {
                    let _span = r.tracer.span(obs::Category::ComputeInterior, "stencil");
                    let src = &cur;
                    let slabs = new.z_slabs_mut(&cuts);
                    team.parallel_with(slabs, |_ctx, mut slab| {
                        apply_stencil(src, &mut slab, &stencil, region, tile);
                    });
                }
                r.comm.throttle_end(throttle);
                // Step 3: the new state becomes the current one.
                std::mem::swap(&mut cur, &mut new);
            });
            cur
        })
    }
}
