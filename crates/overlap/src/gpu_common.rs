//! Shared plumbing for the GPU implementations: the per-rank device,
//! device-resident fields in the same layout as host [`Field3`]s, stencil
//! launches over regions, ring transfers (pack → PCIe → unpack) between
//! device state and a host mirror, and the final readback.

use crate::runner::RunConfig;
use advect_core::field::{Field3, Range3};
use simgpu::{FieldDims, Gpu, GpuBuffer, GpuSpec, StencilLaunch, Stream};

/// A rank's device: the run's GPU fault plan reseeded for the rank, the
/// rank's tracer and the run's metrics installed, and the stencil
/// coefficients in constant memory.
pub(crate) fn rank_device(
    spec: &GpuSpec,
    cfg: &RunConfig,
    rank: usize,
    tracer: &obs::Tracer,
    metrics: &obs::registry::Metrics,
) -> Gpu {
    let gpu = Gpu::new(spec.clone()).with_fault_plan(cfg.fault.gpu.for_rank(rank));
    gpu.install_tracer(tracer.clone());
    gpu.install_metrics(metrics, rank);
    gpu.set_constant(cfg.problem.stencil().a);
    gpu
}

/// A device-resident field pair (current and new state) in host layout.
pub struct DeviceField {
    /// Field layout (interior + halo) shared by both buffers.
    pub dims: FieldDims,
    /// Current-state buffer.
    pub cur: GpuBuffer,
    /// New-state buffer (swapped with `cur` each step — the paper flips
    /// kernel arguments "to avoid the need for an extra copy operation").
    pub new: GpuBuffer,
    /// Linear staging buffer for pack/unpack + PCIe transfers.
    pub staging: GpuBuffer,
}

impl DeviceField {
    /// Allocate device state matching `host` and upload its current
    /// contents (untimed — initialization is excluded from measurements).
    pub fn from_host(gpu: &Gpu, host: &Field3) -> Self {
        let (nx, ny, nz) = host.interior();
        let dims = FieldDims {
            nx,
            ny,
            nz,
            halo: host.halo(),
        };
        let cur = gpu.alloc(dims.len());
        let new = gpu.alloc(dims.len());
        // Staging sized for the largest transfer we make: a full halo
        // shell (single allocation reused for every ring transfer).
        let shell = dims.len() - nx * ny * nz;
        let staging = gpu.alloc(shell.max(nx * ny).max(1) * 2);
        gpu.upload_untimed(cur, host.data());
        Self {
            dims,
            cur,
            new,
            staging,
        }
    }

    /// Swap current and new state (pointer flip).
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.new);
    }

    /// Download a set of regions of a device buffer into the host mirror:
    /// pack kernel → device-to-host copy → host unpack.
    pub fn regions_d2h(
        &self,
        gpu: &Gpu,
        stream: Stream,
        src: GpuBuffer,
        regions: &[Range3],
        host: &mut Field3,
    ) {
        for &r in regions {
            if r.is_empty() {
                continue;
            }
            gpu.launch_pack(stream, src, self.dims, r, self.staging, 0);
            let mut buf = vec![0.0; r.len()];
            gpu.d2h(stream, self.staging, 0, &mut buf);
            host.unpack(r, &buf);
        }
    }

    /// Upload a set of regions of the host mirror into a device buffer:
    /// host pack → host-to-device copy → unpack kernel.
    pub fn regions_h2d(
        &self,
        gpu: &Gpu,
        stream: Stream,
        dst: GpuBuffer,
        regions: &[Range3],
        host: &Field3,
    ) {
        for &r in regions {
            if r.is_empty() {
                continue;
            }
            let mut buf = vec![0.0; r.len()];
            host.pack(r, &mut buf);
            gpu.h2d(stream, &buf, self.staging, 0);
            gpu.launch_unpack(stream, dst, self.dims, r, self.staging, 0);
        }
    }

    /// Launch the stencil kernel `cur → new` on `stream` over each
    /// non-empty region (non-periodic: the halo comes from the rings).
    pub fn launch(&self, gpu: &Gpu, stream: Stream, regions: &[Range3], block: (usize, usize)) {
        for &region in regions.iter().filter(|r| !r.is_empty()) {
            let launch = StencilLaunch {
                dims: self.dims,
                region,
                block,
                periodic: false,
            };
            gpu.launch_stencil(stream, self.cur, self.new, launch);
        }
    }

    /// Final verification readback (untimed): `host` with the current
    /// device state copied into the GPU's `block`.
    pub fn readback(&self, gpu: &Gpu, mut host: Field3, block: Range3) -> Field3 {
        if !block.is_empty() {
            gpu.sync_device();
            let data = gpu.read_untimed(self.cur);
            for (x, y, z) in block.iter() {
                *host.at_mut(x, y, z) = data[self.dims.idx(x, y, z)];
            }
        }
        host
    }
}
