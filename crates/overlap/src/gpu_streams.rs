//! Implementation IV-G: GPU with MPI overlap using CUDA streams.
//!
//! Two streams: the interior kernel runs on one while the other carries
//! the halo traffic — CPU-GPU buffer copies, then the boundary-face
//! kernels. The interior computation thus overlaps the MPI communication,
//! the buffer copies, and (on GPUs with concurrent kernels) the boundary
//! computation. The CPU ends the step by synchronizing the two streams.

use crate::gpu_common::DeviceField;
use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::Field3;
use decomp::partition::BoxPartition;
use simgpu::{GpuSpec, Stream};

/// The streams-overlap multi-GPU implementation.
pub struct GpuStreamsMpi;

impl GpuStreamsMpi {
    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, RunReport) {
        run_ranks(cfg, "gpu_streams", Some(spec), 1, |r| {
            let gpu = r.gpu();
            let mut host = r.initial_field();
            let mut dev = DeviceField::from_host(gpu, &host);
            let part = BoxPartition::new(r.sub.extent, 0);
            let s_halo = gpu.create_stream();
            r.steps(cfg.steps, || {
                // Interior kernel first, on the default stream: it overlaps
                // everything the halo stream does below.
                dev.launch(gpu, Stream::DEFAULT, &[part.gpu_deep_interior], cfg.block);
                // Halo stream: boundary buffers out, MPI, halo buffers in,
                // boundary kernels.
                dev.regions_d2h(gpu, s_halo, dev.cur, &part.gpu_boundary_ring, &mut host);
                gpu.sync_stream(s_halo);
                r.exchange(&mut host);
                dev.regions_h2d(gpu, s_halo, dev.cur, &part.gpu_halo_ring, &host);
                dev.launch(gpu, s_halo, &part.gpu_boundary_ring, cfg.block);
                // The CPU ends the time step by synchronizing the streams.
                gpu.sync_device();
                dev.swap();
            });
            dev.readback(gpu, host, part.gpu_block)
        })
    }
}
