//! Layer probes: each times one layer's public functions from outside, on
//! the workload's probe shape, inside a benchmark span named after it.

use crate::spans::Recorder;
use crate::stats;
use crate::workload::SolveSpec;
use advect_core::field::Field3;
use advect_core::flops::FLOPS_PER_POINT;
use advect_core::stencil::{apply_stencil_region, copy_region_slab};
use advect_core::stepper::AdvectionProblem;
use decomp::{Decomposition, ExchangePlan};
use overlap::halo::{exchange_halos, HaloBuffers};
use overlap::runner::{assemble_global, local_initial_field};
use overlap::Impl;
use simgpu::kernels::{run_stencil, FieldDims, StencilLaunch};
use simgpu::Gpu;
use simmpi::World;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` repeatedly — at least `min_reps` times and until `budget`
/// has passed — and return the median seconds per call.
fn time_median(
    rec: &Recorder,
    name: &'static str,
    min_reps: usize,
    budget: f64,
    mut f: impl FnMut(),
) -> f64 {
    let _span = rec.span(name, 0, 0);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// Rank 0's subdomain extent in the probe shape's decomposition.
fn rank0_extent(spec: &SolveSpec) -> (usize, usize, usize) {
    Decomposition::new(spec.width, (spec.grid, spec.grid, spec.grid)).subdomains[0].extent
}

/// A field of the given interior extent with smooth non-zero values in
/// its interior and halo.
fn filled(extent: (usize, usize, usize)) -> Field3 {
    let mut f = Field3::new(extent.0, extent.1, extent.2, 1);
    for (i, v) in f.data_mut().iter_mut().enumerate() {
        *v = 1.0 + (i % 97) as f64 * 1e-3;
    }
    f
}

/// `advect-core`: the single-threaded region stencil and the state copy
/// over one rank's interior. Returns (stencil GF/s, copy ms).
pub fn stencil_and_copy(
    spec: &SolveSpec,
    problem: &AdvectionProblem,
    rec: &Recorder,
) -> (f64, f64) {
    let extent = rank0_extent(spec);
    let src = filled(extent);
    let mut dst = Field3::new(extent.0, extent.1, extent.2, 1);
    let region = src.interior_range();
    let stencil = problem.stencil();
    let stencil_s = time_median(rec, "advect-core.stencil", 3, 0.5, || {
        apply_stencil_region(black_box(&src), &mut dst, &stencil, region);
        black_box(&dst);
    });
    let cuts = advect_core::tile::z_cuts(extent.2, 1);
    let copy_s = time_median(rec, "advect-core.state_copy", 3, 0.3, || {
        for mut slab in dst.z_slabs_mut(&cuts) {
            copy_region_slab(black_box(&src), &mut slab, region);
        }
        black_box(&dst);
    });
    let points = region.len() as f64;
    (
        points * FLOPS_PER_POINT as f64 / stencil_s / 1e9,
        copy_s * 1e3,
    )
}

/// `advect-core` field init and `overlap` assembly at the probe shape:
/// (init ms of rank 0's field, `assemble_global` ms on rank 0).
pub fn init_and_assemble(
    spec: &SolveSpec,
    problem: AdvectionProblem,
    rec: &Recorder,
) -> (f64, f64) {
    let cfg = spec.config(Impl::BulkSync, problem, 1);
    let decomp = cfg.decomposition();
    let init_s = time_median(rec, "advect-core.init", 3, 0.3, || {
        black_box(local_initial_field(&cfg, &decomp, 0));
    });
    let _span = rec.span("overlap.assemble", 0, 0);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < 0.3 {
        let per_rank = World::run(cfg.ntasks, |comm| {
            let local = local_initial_field(&cfg, &decomp, comm.rank());
            comm.barrier();
            let t = Instant::now();
            black_box(assemble_global(&cfg, &decomp, comm, &local));
            t.elapsed().as_secs_f64()
        });
        samples.push(per_rank[0]);
    }
    (init_s * 1e3, stats::median(&samples) * 1e3)
}

/// `overlap::halo`: steady-state `exchange_halos` on the probe shape's
/// decomposition, µs per exchange on rank 0 (the slowest rank's count
/// sets the pace, and every rank exchanges the same number of times).
pub fn halo_exchange(spec: &SolveSpec, rec: &Recorder) -> f64 {
    let _span = rec.span("overlap.halo_exchange", 0, 0);
    let n = spec.grid;
    let decomp = Decomposition::new(spec.width, (n, n, n));
    let per_rank = World::run(spec.width, |comm| {
        let rank = comm.rank();
        let mut field = filled(decomp.subdomains[rank].extent);
        let plan = ExchangePlan::new(decomp.subdomains[rank].extent, 1);
        let bufs = HaloBuffers::new(&plan, comm);
        for _ in 0..3 {
            exchange_halos(&mut field, &plan, &decomp, rank, comm, &bufs);
        }
        // Rank 0 sizes the batch; every rank runs the same count.
        comm.barrier();
        let t = Instant::now();
        for _ in 0..3 {
            exchange_halos(&mut field, &plan, &decomp, rank, comm, &bufs);
        }
        let first = comm.allreduce_max(t.elapsed().as_secs_f64() / 3.0);
        let reps = (0.3 / first).clamp(10.0, 5000.0) as usize;
        let mut samples = Vec::with_capacity(reps / 10);
        for _ in 0..reps / 10 {
            comm.barrier();
            let t = Instant::now();
            for _ in 0..10 {
                exchange_halos(&mut field, &plan, &decomp, rank, comm, &bufs);
            }
            samples.push(t.elapsed().as_secs_f64() / 10.0);
        }
        stats::median(&samples)
    });
    per_rank[0] * 1e6
}

/// `simmpi`: `World::run` with a no-op body at the probe width, µs.
pub fn world_launch(spec: &SolveSpec, rec: &Recorder) -> f64 {
    time_median(rec, "simmpi.world_launch", 50, 0.2, || {
        black_box(World::run(spec.width, |comm| comm.rank()));
    }) * 1e6
}

/// `simgpu` probe results.
pub struct GpuProbe {
    /// Functional stencil kernel, giga-points per second.
    pub kernel_gpts: f64,
    /// `Gpu::launch_stencil` minus the kernel itself, µs per launch (0
    /// when the difference is below the timer's resolution).
    pub launch_overhead_us: f64,
    /// `Gpu::h2d` + `Gpu::d2h` wall throughput, GB/s.
    pub pcie_gbs: f64,
}

/// Time `simgpu`'s functional kernel on rank 0's subdomain, the launch
/// path's own cost on tiny launches, and the PCIe copy functions.
pub fn gpu(spec: &SolveSpec, problem: &AdvectionProblem, rec: &Recorder) -> GpuProbe {
    let coeffs = problem.stencil().a;
    let (nx, ny, nz) = rank0_extent(spec);
    let dims = FieldDims {
        nx,
        ny,
        nz,
        halo: 1,
    };
    let src: Vec<f64> = (0..dims.len())
        .map(|i| 1.0 + (i % 97) as f64 * 1e-3)
        .collect();
    let mut dst = vec![0.0; dims.len()];
    let launch = StencilLaunch {
        dims,
        region: dims.interior(),
        block: (32, 8),
        periodic: false,
    };
    let kernel_s = time_median(rec, "simgpu.kernel", 3, 0.5, || {
        run_stencil(black_box(&src), &mut dst, &coeffs, &launch);
        black_box(&dst);
    });

    // Launch overhead: batches of one-point launches, where the kernel
    // is a few dozen flops and the hazard check and scheduling dominate,
    // against the same batches of bare kernels; batches alternate so a
    // drift of the host's speed cancels in each pair.
    let tiny = FieldDims {
        nx: 4,
        ny: 4,
        nz: 4,
        halo: 1,
    };
    let tiny_launch = StencilLaunch {
        dims: tiny,
        region: advect_core::field::Range3::new((1, 2), (1, 2), (1, 2)),
        block: (32, 8),
        periodic: false,
    };
    const LAUNCHES: usize = 2000;
    let tiny_src = vec![1.0; tiny.len()];
    let mut tiny_dst = vec![0.0; tiny.len()];
    let g = Gpu::new(crate::solve::gpu());
    g.set_constant(coeffs);
    let a = g.alloc(tiny.len());
    let b = g.alloc(tiny.len());
    g.upload_untimed(a, &tiny_src);
    let stream = g.create_stream();
    let mut overhead = Vec::new();
    {
        let _span = rec.span("simgpu.launch", 0, 0);
        for _ in 0..21 {
            let t = Instant::now();
            for _ in 0..LAUNCHES {
                run_stencil(black_box(&tiny_src), &mut tiny_dst, &coeffs, &tiny_launch);
            }
            let bare = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..LAUNCHES {
                g.launch_stencil(stream, a, b, tiny_launch);
            }
            let launched = t.elapsed().as_secs_f64();
            overhead.push((launched - bare) / LAUNCHES as f64);
        }
    }
    black_box((&tiny_dst, g.stats()));

    // PCIe copies of rank 0's field (capped at 16 Mi values).
    let len = dims.len().min(16 << 20);
    let g = Gpu::new(crate::solve::gpu());
    let buf = g.alloc(len);
    let stream = g.create_stream();
    let mut host = vec![1.0; len];
    let copy_s = time_median(rec, "simgpu.pcie", 3, 0.3, || {
        g.h2d(stream, black_box(&host), buf, 0);
        g.d2h(stream, buf, 0, &mut host);
        black_box(&host);
    });
    GpuProbe {
        kernel_gpts: launch.points() as f64 / kernel_s / 1e9,
        launch_overhead_us: stats::median(&overhead).max(0.0) * 1e6,
        pcie_gbs: 2.0 * 8.0 * len as f64 / copy_s / 1e9,
    }
}

/// `serve` front end: mean µs per line to parse the stream's request
/// lines and to canonicalize their parameters.
pub fn parse_and_canonicalize(seed: u64, rec: &Recorder) -> (f64, f64) {
    let lines: Vec<String> = (0..2000)
        .map(|j| {
            serve::protocol::render_request(&crate::workload::request(
                seed,
                (j % 2) as usize,
                j / 2,
            ))
        })
        .collect();
    let mut parse_s = Vec::new();
    let mut canon_s = Vec::new();
    let limits = overlap::RunLimits::default();
    for _ in 0..5 {
        let params: Vec<overlap::RunParams> = {
            let _span = rec.span("serve.parse", 0, 0);
            let t = Instant::now();
            let parsed = lines
                .iter()
                .map(|l| match serve::protocol::parse_line(black_box(l)) {
                    Ok(serve::Command::Run(req)) => req.params,
                    other => panic!("stream line did not parse as a run: {other:?}"),
                })
                .collect();
            parse_s.push(t.elapsed().as_secs_f64());
            parsed
        };
        let _span = rec.span("serve.canonicalize", 0, 0);
        let t = Instant::now();
        for p in &params {
            black_box(p.canonicalize(&limits).expect("stream requests are valid"));
        }
        canon_s.push(t.elapsed().as_secs_f64());
    }
    let per = |v: &[f64]| stats::median(v) / lines.len() as f64 * 1e6;
    (per(&parse_s), per(&canon_s))
}

/// `obs`: Chrome export of a traced run's report, ms.
pub fn chrome_export(report: &overlap::RunReport, rec: &Recorder) -> f64 {
    let mut samples = Vec::new();
    let _span = rec.span("obs.chrome_export", 0, 0);
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < Duration::from_millis(100) {
        let t = Instant::now();
        black_box(obs::chrome::chrome_trace(&report.traces));
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples) * 1e3
}
