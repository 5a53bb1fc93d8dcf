//! The four workloads and the inputs each makes from its seed.
//!
//! Every input is a pure function of the seed: the solver workloads draw
//! the initial pulse and the order implementations run in, `serve_mix`
//! draws its whole request stream. The program only ever sees the
//! generated inputs.

use advect_core::stepper::AdvectionProblem;
use overlap::{Impl, RunConfig, RunParams};
use serve::protocol::Request;
use simmpi::splitmix64;

/// A set of whole-run shapes: every listed implementation on one grid.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpec {
    /// Cubic grid edge.
    pub grid: usize,
    /// Steps of a measured run.
    pub steps: u64,
    /// MPI tasks for the MPI implementations; threads for IV-A. Either
    /// way the run's width.
    pub width: usize,
    /// The implementations, in the paper's order.
    pub impls: &'static [Impl],
}

impl SolveSpec {
    /// The run configuration for `im`: `width` tasks × 1 thread for the MPI
    /// implementations, 1 task × `width` threads otherwise; the paper's
    /// 32×8 block and a CPU box 2 points thick for the GPU ones.
    pub fn config(&self, im: Impl, problem: AdvectionProblem, steps: u64) -> RunConfig {
        let cfg = RunConfig::new(problem, steps)
            .with_block((32, 8))
            .with_thickness(2);
        if im.uses_mpi() {
            cfg.tasks(self.width)
        } else {
            cfg.with_threads(self.width)
        }
    }
}

/// What a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Verified whole runs, back to back.
    Solve(SolveSpec),
    /// The run server over TCP, closed loop.
    Serve,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it drives.
    pub kind: Kind,
    /// The shape the traced run's layer probes and per-implementation
    /// fits use: the workload's own for the solver workloads.
    pub probe: SolveSpec,
}

const CPU_IMPLS: [Impl; 4] = [
    Impl::SingleTask,
    Impl::BulkSync,
    Impl::Nonblocking,
    Impl::ThreadOverlap,
];
const MPI_CPU_IMPLS: [Impl; 3] = [Impl::BulkSync, Impl::Nonblocking, Impl::ThreadOverlap];
const HYBRID_IMPLS: [Impl; 3] = [Impl::GpuStreams, Impl::HybridBulkSync, Impl::HybridOverlap];

// cpu_large: 288³ makes the two global state fields (2 × 191 MB) larger
// than a 300 MiB LLC, so the stencil streams from memory; 10 steps put
// the stencil and the per-run fixed cost on a par.
const CPU_LARGE: SolveSpec = SolveSpec {
    grid: 288,
    steps: 10,
    width: 2,
    impls: &CPU_IMPLS,
};
// halo_small: a 40³ grid is in cache, so the 26-neighbour exchange and
// the barriers are a large share of each of the 400 steps.
const HALO_SMALL: SolveSpec = SolveSpec {
    grid: 40,
    steps: 400,
    width: 2,
    impls: &MPI_CPU_IMPLS,
};
// gpu_hybrid: the simulated-GPU kernels and PCIe staging dominate.
const GPU_HYBRID: SolveSpec = SolveSpec {
    grid: 128,
    steps: 16,
    width: 2,
    impls: &HYBRID_IMPLS,
};
// serve_mix's probe shape: a mid-stream cold grid, every implementation.
const SERVE_PROBE: SolveSpec = SolveSpec {
    grid: 32,
    steps: 4,
    width: 2,
    impls: &Impl::ALL,
};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cpu_large",
        kind: Kind::Solve(CPU_LARGE),
        probe: CPU_LARGE,
    },
    Workload {
        name: "halo_small",
        kind: Kind::Solve(HALO_SMALL),
        probe: HALO_SMALL,
    },
    Workload {
        name: "gpu_hybrid",
        kind: Kind::Solve(GPU_HYBRID),
        probe: GPU_HYBRID,
    },
    Workload {
        name: "serve_mix",
        kind: Kind::Serve,
        probe: SERVE_PROBE,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A deterministic stream of 64-bit draws.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `words` (seed first).
    pub fn new(words: &[u64]) -> Self {
        Rng(words
            .iter()
            .fold(0x5eed_u64, |h, w| splitmix64(h ^ splitmix64(*w))))
    }

    /// Next draw.
    pub fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The solver workloads' problem: the general-case velocity on an `n³`
/// unit cube, with the pulse's centre and width drawn from the seed.
pub fn problem(seed: u64, n: usize) -> AdvectionProblem {
    let mut rng = Rng::new(&[seed, 1]);
    let center = [
        rng.uniform(0.25, 0.75),
        rng.uniform(0.25, 0.75),
        rng.uniform(0.25, 0.75),
    ];
    let sigma = rng.uniform(0.06, 0.14);
    AdvectionProblem::general_case(n).with_pulse(center, sigma)
}

/// The order of `impls` in round `round`: a seeded shuffle.
pub fn order(seed: u64, round: u64, impls: &[Impl]) -> Vec<Impl> {
    let mut rng = Rng::new(&[seed, 2, round]);
    let mut v = impls.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Closed-loop client connections `serve_mix` drives.
pub const CLIENTS: usize = 2;
/// Server worker threads in `serve_mix`.
pub const WORKERS: usize = 2;
/// Largest run width a `serve_mix` request asks for.
pub const MAX_REQUEST_WIDTH: u32 = 2;
/// Grid edges of `serve_mix`'s cold keys.
pub const GRIDS: [u32; 8] = [12, 16, 20, 24, 28, 32, 36, 40];
/// Largest step count of a `serve_mix` request.
pub const MAX_STEPS: u32 = 4;
/// Keys in the hot set.
const HOT_KEYS: u64 = 8;
/// Grid of the untimed warm-up requests: outside the stream's
/// key space, so set-up leaves nothing in the cache for the stream.
pub const WARMUP_GRID: u32 = 8;

/// A run shape drawn from `rng`. `hot` draws the cheap shapes of the hot
/// set; cold shapes cover implementation × grid × steps × tasks × block
/// × thickness, and one in eight asks for the trace or metrics artifact.
fn shape(rng: &mut Rng, hot: bool) -> RunParams {
    let implementation = Impl::ALL[rng.below(Impl::ALL.len() as u64) as usize];
    let (grid, steps) = if hot {
        (GRIDS[rng.below(3) as usize], 1 + rng.below(2) as u32)
    } else {
        (
            GRIDS[rng.below(GRIDS.len() as u64) as usize],
            1 + rng.below(MAX_STEPS as u64) as u32,
        )
    };
    let width = 1 + rng.below(MAX_REQUEST_WIDTH as u64) as u32;
    let (tasks, threads) = if implementation.uses_mpi() {
        (width, 1)
    } else {
        (1, width)
    };
    let block = [(8, 8), (16, 8), (32, 8)][rng.below(3) as usize];
    let thickness = 1 + rng.below(2) as u32;
    let flag = if hot { 8 } else { rng.below(16) };
    RunParams {
        impl_slug: implementation.slug().to_string(),
        grid,
        steps,
        tasks,
        threads,
        block,
        thickness,
        machine: String::new(),
        fault_seed: None,
        trace: flag == 0,
        metrics: flag == 1,
    }
}

/// Request `j` of client `client` in `serve_mix`'s stream for `seed`.
/// About half repeat one of the seed's hot keys (cache hits and dedup
/// joins); the rest are cold shapes. No request sets a fault seed: the
/// chaos throttle's sleeps would set the tail.
pub fn request(seed: u64, client: usize, j: u64) -> Request {
    let mut rng = Rng::new(&[seed, 3, client as u64, j]);
    let params = if rng.below(2) == 0 {
        let hot = rng.below(HOT_KEYS);
        shape(&mut Rng::new(&[seed, 4, hot]), true)
    } else {
        shape(&mut rng, false)
    };
    Request {
        tenant: format!("c{client}"),
        params,
        timeout_ms: None,
    }
}

/// The untimed warm-up request for `im`: one per implementation.
pub fn warmup_request(im: Impl) -> Request {
    Request {
        tenant: "warmup".to_string(),
        params: RunParams {
            impl_slug: im.slug().to_string(),
            grid: WARMUP_GRID,
            steps: 1,
            tasks: 2,
            threads: 1,
            block: (8, 8),
            thickness: 1,
            machine: String::new(),
            fault_seed: None,
            trace: false,
            metrics: false,
        },
        timeout_ms: None,
    }
}

/// Concurrent threads each workload asks the host for: the widest run,
/// and for `serve_mix` the worker pool and the client connections.
pub fn widths(w: &Workload) -> Vec<(&'static str, usize)> {
    let mut out = vec![("run width (tasks × threads)", w.probe.width)];
    if let Kind::Serve = w.kind {
        out.push((
            "request width (tasks × threads)",
            MAX_REQUEST_WIDTH as usize,
        ));
        out.push(("server workers", WORKERS));
        out.push(("client connections", CLIENTS));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::protocol::render_request;

    fn stream(seed: u64) -> Vec<String> {
        (0..CLIENTS)
            .flat_map(|c| (0..200).map(move |j| render_request(&request(seed, c, j))))
            .collect()
    }

    #[test]
    fn the_stream_is_a_pure_function_of_the_seed() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_eq!(order(7, 3, &Impl::ALL), order(7, 3, &Impl::ALL));
        let (a, b) = (problem(7, 16), problem(8, 16));
        assert_eq!(a.pulse_center, problem(7, 16).pulse_center);
        assert_ne!(a.pulse_center, b.pulse_center);
    }

    #[test]
    fn the_stream_mixes_hot_and_cold_keys_and_every_request_is_valid() {
        let limits = overlap::RunLimits::default();
        let mut keys = std::collections::HashMap::new();
        let lines = 2000u64;
        for j in 0..lines {
            let req = request(11, 0, j);
            assert_eq!(req.params.fault_seed, None);
            let key = req.params.canonicalize(&limits).expect("valid request");
            assert!(key.tasks() * key.threads() <= MAX_REQUEST_WIDTH);
            *keys.entry(key).or_insert(0u64) += 1;
        }
        let repeated: u64 = keys.values().filter(|&&n| n > 50).sum();
        let share = repeated as f64 / lines as f64;
        assert!((0.4..0.6).contains(&share), "hot share {share}");
        let flagged = keys.keys().filter(|k| k.trace() || k.metrics()).count();
        assert!(flagged > 0);
    }

    #[test]
    fn no_workload_asks_for_more_threads_than_the_host_has() {
        let cpus = crate::host::cpus();
        for w in &WORKLOADS {
            for (what, width) in widths(w) {
                assert!(
                    crate::host::check_width(what, width, cpus).is_ok(),
                    "{}: {what} = {width} exceeds {cpus} CPUs",
                    w.name
                );
            }
            if let Kind::Solve(spec) = w.kind {
                for &im in spec.impls {
                    let cfg = spec.config(im, problem(1, spec.grid), 1);
                    assert!(cfg.ntasks * cfg.threads <= spec.width);
                }
            }
        }
    }
}
