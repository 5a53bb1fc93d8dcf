//! Implementation IV-F: GPU with bulk-synchronous MPI.
//!
//! Multi-GPU: CPUs perform the MPI communication. Separate kernels handle
//! the interior points and the boundary faces; buffers keep CPU-GPU
//! communication in large contiguous chunks. Each step, a CPU copies
//! boundary buffers from the GPU, communicates the boundaries as in the
//! CPU-only bulk-synchronous implementation, copies halo buffers back to
//! the GPU, and makes kernel calls for the faces and interior — all
//! serialized on the default stream (no overlap).

use crate::gpu_common::DeviceField;
use crate::runner::{run_ranks, RunConfig, RunReport};
use advect_core::field::Field3;
use decomp::partition::BoxPartition;
use simgpu::{GpuSpec, Stream};

/// The bulk-synchronous multi-GPU implementation.
pub struct GpuBulkSyncMpi;

impl GpuBulkSyncMpi {
    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, RunReport) {
        run_ranks(cfg, "gpu_bulk_sync", Some(spec), 1, |r| {
            let gpu = r.gpu();
            // Host mirror: only its skin and halos are kept current.
            let mut host = r.initial_field();
            let mut dev = DeviceField::from_host(gpu, &host);
            // With no CPU box (thickness 0) the GPU block is the whole
            // subdomain; the partition provides the face/interior split.
            let part = BoxPartition::new(r.sub.extent, 0);
            let s = Stream::DEFAULT;
            r.steps(cfg.steps, || {
                // CPU copies boundary buffers from the GPU...
                dev.regions_d2h(gpu, s, dev.cur, &part.gpu_boundary_ring, &mut host);
                gpu.sync_device();
                // ...communicates the boundaries...
                r.exchange(&mut host);
                // ...copies halo buffers back to the GPU...
                dev.regions_h2d(gpu, s, dev.cur, &part.gpu_halo_ring, &host);
                // ...and makes kernel calls for the faces and interior.
                dev.launch(gpu, s, &part.gpu_boundary_ring, cfg.block);
                dev.launch(gpu, s, &[part.gpu_deep_interior], cfg.block);
                gpu.sync_device();
                dev.swap();
            });
            dev.readback(gpu, host, part.gpu_block)
        })
    }
}
