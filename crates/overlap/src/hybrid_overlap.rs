//! Implementation IV-I: CPU and GPU computation partitioned for overlap
//! with nonblocking MPI and CPU-GPU communication.
//!
//! The most-extensive overlap, and the paper's best performer. Same
//! kernels and Figure 1 decomposition as IV-H, but:
//!
//! * the GPU interior runs on one stream while a second stream carries
//!   the halo-ring upload, the GPU boundary kernels, and the new
//!   boundary-ring download — so GPU compute, PCIe traffic, and CPU work
//!   all overlap;
//! * MPI communication in each dimension overlaps the computation of the
//!   CPU interior/inner-boundary points of that dimension's walls; the
//!   outer boundary points (which need MPI halos) come last;
//! * the new GPU boundary ring is downloaded *this* step into the new
//!   state, so the next step needs no blocking ring download — this is
//!   the decoupling of MPI communication from CPU-GPU communication that
//!   Section V-E identifies as the real win.

use crate::gpu_common::DeviceField;
use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::{Field3, SharedField};
use advect_core::stencil::apply_stencil;
use advect_core::team::ThreadTeam;
use decomp::partition::{shell_and_core, BoxPartition};
use simgpu::{GpuSpec, Stream};

/// The full-overlap hybrid implementation.
pub struct HybridOverlap;

impl HybridOverlap {
    /// Run, returning the global state plus per-rank substrate statistics.
    ///
    /// Panics if `cfg.thickness == 0`: the full-overlap schedule uploads
    /// the GPU's halo ring *before* the MPI exchange, which is only
    /// possible when a CPU veneer (thickness ≥ 1) separates the GPU block
    /// from the MPI halo — precisely the decoupling Section V-E credits
    /// for this implementation's performance. Thickness 0 is
    /// implementation IV-G's territory.
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, RunReport) {
        assert!(
            cfg.thickness >= 1,
            "IV-I needs a CPU veneer (thickness >= 1); use IV-G for thickness 0"
        );
        run_ranks(cfg, "hybrid_overlap", Some(spec), 1, |r| {
            let (gpu, comm, tracer) = (r.gpu(), r.comm, &r.tracer);
            let mut cur = r.initial_field();
            let mut new = r.zero_field();
            let mut dev = DeviceField::from_host(gpu, &cur);
            let part = BoxPartition::new(r.sub.extent, cfg.thickness);
            let team = ThreadTeam::new(cfg.threads);
            let stencil = cfg.problem.stencil();
            let tile = cfg.tile_spec(cur.extents().0);
            let full = cur.interior_range();
            // Inner parts of walls (computable before MPI completes) vs.
            // outer boundary points (touching the MPI halo).
            let (inner1, outer_shell) = shell_and_core(full, 1);
            let s_halo = gpu.create_stream();
            r.steps(cfg.steps, || {
                // 1. GPU interior kernel on the compute stream.
                dev.launch(gpu, Stream::DEFAULT, &[part.gpu_deep_interior], cfg.block);
                // 2. Async halo-ring upload, boundary kernels, and new
                //    boundary-ring download, all on the halo stream.
                dev.regions_h2d(gpu, s_halo, dev.cur, &part.gpu_halo_ring, &cur);
                dev.launch(gpu, s_halo, &part.gpu_boundary_ring, cfg.block);
                dev.regions_d2h(gpu, s_halo, dev.new, &part.gpu_boundary_ring, &mut new);
                // 3. Per-dimension: MPI phase overlapped with the inner
                //    points of that dimension's walls. `cur` is shared
                //    because the phase completion writes its halo while
                //    wall computation reads its interior — disjoint points,
                //    all routed through SharedField cells.
                {
                    let cur_shared = SharedField::new(&mut cur);
                    let writer = SharedField::new(&mut new);
                    for dim in 0..3 {
                        let phase = &r.plan.phases[dim];
                        let mut recvs = Vec::with_capacity(2);
                        for (i, t) in phase.transfers.iter().enumerate() {
                            let from = r.decomp.neighbor(r.rank, t.dim, -t.send_dir);
                            recvs.push((i, comm.irecv(from, t.recv_tag)));
                        }
                        for (i, t) in phase.transfers.iter().enumerate() {
                            let to = r.decomp.neighbor(r.rank, t.dim, t.send_dir);
                            let mut buf = r.halo_bufs.take(dim, i, t.send_region.len(), comm);
                            {
                                let _span = tracer.span(obs::Category::Pack, "halo.pack");
                                cur_shared.pack_into(t.send_region, &mut buf);
                            }
                            comm.send_pooled(to, t.send_tag, buf);
                        }
                        // Inner wall points of this dimension, overlapped
                        // with the communication just initiated.
                        let (lo, hi) = part.cpu_walls_of_dim(dim);
                        let walls = [lo.intersect(&inner1), hi.intersect(&inner1)];
                        let cur_ref = &cur_shared;
                        let writer_ref = &writer;
                        let throttle = comm.throttle_start();
                        {
                            let _span = tracer.span(obs::Category::ComputeVeneer, "walls.inner");
                            team.parallel(|ctx| {
                                for (i, w) in walls.iter().enumerate() {
                                    if i % ctx.num_threads == ctx.tid {
                                        apply_stencil(cur_ref, writer_ref, &stencil, *w, tile);
                                    }
                                }
                            });
                        }
                        comm.throttle_end(throttle);
                        for (i, req) in recvs {
                            let data = req.wait();
                            {
                                let _span = tracer.span(obs::Category::Unpack, "halo.unpack");
                                cur_shared.unpack(phase.transfers[i].recv_region, &data);
                            }
                            r.halo_bufs.deposit(dim, i, data);
                        }
                    }
                    // 4. Outer boundary points of every wall (need halos).
                    let mut outer_regions = Vec::new();
                    for w in &part.cpu_walls {
                        for s in &outer_shell {
                            let region = w.intersect(s);
                            if !region.is_empty() {
                                outer_regions.push(region);
                            }
                        }
                    }
                    let cur_ref = &cur_shared;
                    let writer_ref = &writer;
                    let _span = tracer.span(obs::Category::ComputeVeneer, "walls.outer");
                    team.parallel(|ctx| {
                        for (i, w) in outer_regions.iter().enumerate() {
                            if i % ctx.num_threads == ctx.tid {
                                apply_stencil(cur_ref, writer_ref, &stencil, *w, tile);
                            }
                        }
                    });
                }
                // 5. Synchronize the CUDA streams; advance the state.
                gpu.sync_device();
                for w in &part.cpu_walls {
                    cur.copy_region_from(&new, *w);
                }
                for ring in &part.gpu_boundary_ring {
                    cur.copy_region_from(&new, *ring);
                }
                dev.swap();
            });
            dev.readback(gpu, cur, part.gpu_block)
        })
    }
}
