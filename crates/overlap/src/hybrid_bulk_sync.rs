//! Implementation IV-H: CPU and GPU computation with bulk-synchronous MPI.
//!
//! Each task's domain is partitioned as a block in a box (Figure 1): the
//! GPU computes the interior block, the CPU the enclosing box whose wall
//! thickness balances the load. A step starts by exchanging the inner
//! halo/boundary buffers with the GPU and the outer halos/boundaries with
//! other tasks through MPI; then the GPU kernels and the CPU wall
//! computation run — CPU and GPU computation may overlap, but all
//! communication is up-front and serial.

use crate::gpu_common::DeviceField;
use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::{Field3, SharedField};
use advect_core::stencil::apply_stencil;
use advect_core::team::ThreadTeam;
use decomp::partition::BoxPartition;
use simgpu::{GpuSpec, Stream};

/// The hybrid bulk-synchronous implementation.
pub struct HybridBulkSync;

impl HybridBulkSync {
    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, RunReport) {
        run_ranks(cfg, "hybrid_bulk_sync", Some(spec), 1, |r| {
            let gpu = r.gpu();
            let mut cur = r.initial_field();
            let mut new = r.zero_field();
            let mut dev = DeviceField::from_host(gpu, &cur);
            let part = BoxPartition::new(r.sub.extent, cfg.thickness);
            let team = ThreadTeam::new(cfg.threads);
            let stencil = cfg.problem.stencil();
            let tile = cfg.tile_spec(cur.extents().0);
            let s = Stream::DEFAULT;
            r.steps(cfg.steps, || {
                // Inner exchange: GPU boundary ring to the CPU...
                dev.regions_d2h(gpu, s, dev.cur, &part.gpu_boundary_ring, &mut cur);
                gpu.sync_device();
                // ...outer exchange: MPI halos...
                r.exchange(&mut cur);
                // ...inner exchange: CPU ring back to the GPU as its halo.
                dev.regions_h2d(gpu, s, dev.cur, &part.gpu_halo_ring, &cur);
                // GPU kernels for the inner block points (async)...
                dev.launch(gpu, s, &part.gpu_boundary_ring, cfg.block);
                dev.launch(gpu, s, &[part.gpu_deep_interior], cfg.block);
                // ...while the CPU computes the outer box points.
                let throttle = r.comm.throttle_start();
                {
                    let _span = r.tracer.span(obs::Category::ComputeVeneer, "cpu.walls");
                    let src = &cur;
                    let writer = SharedField::new(&mut new);
                    let walls = &part.cpu_walls;
                    team.parallel(|ctx| {
                        for (i, w) in walls.iter().enumerate() {
                            if i % ctx.num_threads == ctx.tid {
                                apply_stencil(src, &writer, &stencil, *w, tile);
                            }
                        }
                    });
                }
                // State copy: CPU walls; the GPU flips buffers.
                for w in &part.cpu_walls {
                    cur.copy_region_from(&new, *w);
                }
                r.comm.throttle_end(throttle);
                gpu.sync_device();
                dev.swap();
            });
            // Pull the GPU block into the host state for verification.
            dev.readback(gpu, cur, part.gpu_block)
        })
    }
}
