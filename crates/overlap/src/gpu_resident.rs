//! Implementation IV-E: GPU resident.
//!
//! The whole problem lives in GPU global memory for the length of the
//! computation, with no memory exchanges with the CPU: the layout is
//! halo-free and the kernel's halo threads wrap around the global domain
//! to implement periodicity. The CPU issues one kernel call per step,
//! flipping the arguments between two state buffers. This is the
//! best-case scenario the parallel GPU implementations are measured
//! against (86 GF on Yona, Section V-E).

use crate::runner::{RunConfig, RunReport, Solo, StepTimer};
use advect_core::field::Field3;
use simgpu::{FieldDims, Gpu, GpuSpec, StencilLaunch, Stream};

/// The single-GPU resident implementation.
pub struct GpuResident;

impl GpuResident {
    /// Run on a fresh device, returning the final state plus a report
    /// carrying the device counters (and, when traced, the kernel-launch
    /// wall spans plus the device timeline bridged onto the virtual axis).
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, RunReport) {
        let solo = Solo::new(cfg, "gpu_resident");
        let gpu = Gpu::new(spec.clone()).with_fault_plan(cfg.fault.gpu);
        gpu.install_tracer(solo.tracer.clone());
        gpu.install_metrics(&solo.metrics, 0);
        let out = Self::run_timed(cfg, &gpu, &solo.timer);
        solo.report(out, Some(&gpu))
    }

    /// Run on an existing device (lets callers inspect device stats).
    pub fn run_on(cfg: &RunConfig, gpu: &Gpu) -> Field3 {
        Self::run_timed(cfg, gpu, &StepTimer::default())
    }

    fn run_timed(cfg: &RunConfig, gpu: &Gpu, timer: &StepTimer) -> Field3 {
        let n = cfg.problem.n;
        let dims = FieldDims {
            nx: n,
            ny: n,
            nz: n,
            halo: 0,
        };
        gpu.set_constant(cfg.problem.stencil().a);
        let init = cfg.problem.initial_field();
        let mut flat = vec![0.0; dims.len()];
        for (x, y, z) in dims.interior().iter() {
            flat[dims.idx(x, y, z)] = init.at(x, y, z);
        }
        let mut cur = gpu.alloc(dims.len());
        let mut new = gpu.alloc(dims.len());
        gpu.upload_untimed(cur, &flat);
        // The CPU and GPU synchronize immediately before timer calls; the
        // initial copy is excluded from measurement.
        gpu.sync_device();
        gpu.reset_clock();
        timer.run(cfg.steps, || {
            gpu.launch_stencil(
                Stream::DEFAULT,
                cur,
                new,
                StencilLaunch {
                    dims,
                    region: dims.interior(),
                    block: cfg.block,
                    periodic: true,
                },
            );
            std::mem::swap(&mut cur, &mut new);
        });
        gpu.sync_device();
        let data = gpu.read_untimed(cur);
        let mut out = Field3::new(n, n, n, 1);
        for (x, y, z) in dims.interior().iter() {
            *out.at_mut(x, y, z) = data[dims.idx(x, y, z)];
        }
        out
    }
}
