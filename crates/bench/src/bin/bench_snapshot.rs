//! Writes a machine-readable benchmark snapshot (`BENCH_<n>.json` at the
//! repository root, `<n>` one past the latest committed snapshot) so perf
//! changes can be compared across commits:
//!
//! * stencil throughput in GF/s (53 flops/point, Table I count) for the
//!   SIMD fast path and its scalar per-point oracle on the 128³
//!   interior, plus the resulting speedup ratio — single-threaded, and
//!   recorded as such via `stencil_threads`;
//! * a per-thread scaling table: the pooled cache-blocked sweep
//!   (`apply_stencil_region_pooled`) and the full IV-A implementation
//!   (`ThreadedStepper`) at 1/2/4/full workers, each with its parallel
//!   efficiency `gf / (threads · gf₁)` — keys embed the width
//!   (`scaling_pool_t4_gf`) so history never compares different thread
//!   counts as a trend;
//! * a temporal-blocking table: full-implementation GF/s at
//!   `k ∈ {1, 2, 4, 8}` fused steps per traversal
//!   ([`advect_core::timetile`]) on the smallest grid whose two state
//!   fields overflow the detected last-level cache, at one worker and
//!   the full machine — `k = 1` times the classic streaming stepper, so
//!   `timetile_k4_over_k1_t<w>` is the measured payoff of fusion; the
//!   host NUMA shape (`numa_nodes`, `numa_cores_per_node`) and LLC size
//!   are recorded alongside so the numbers stay interpretable;
//! * steady-state halo-exchange throughput over the pooled fast path and
//!   the fresh-allocation baseline on a 64³ grid across 4 ranks —
//!   exchanged values/s, messages/s, and the pooled-over-fresh ratio;
//! * four instrumentation off-overhead ratios, all oriented the same
//!   way: **today's exchange throughput divided by the committed
//!   pre-layer baseline** (`BENCH_2.json` predates tracing,
//!   `BENCH_3.json` predates fault injection, `BENCH_4.json` predates
//!   metrics, `BENCH_7.json` predates causal message stamping). ≥ 1.0
//!   means the disabled layer is free (or the comm path got faster
//!   since); the `--check` gate warns on any ratio below 0.90
//!   (advisory — the fresh and committed sides of a cross-build ratio
//!   are measured in different host scheduler epochs, so the
//!   zero-allocation tests, not this ratio, enforce the off-path
//!   contract). The causal
//!   ratio is additionally drift-corrected by the committed-vs-fresh
//!   single-threaded stencil throughput (a causal-free probe of
//!   same-day host speed), because its pre-layer baseline is the
//!   immediately preceding snapshot and has no accumulated comm-layer
//!   improvements to absorb host-speed drift between snapshot days;
//!   Earlier snapshots oriented tracing/fault the other way
//!   (committed / fresh), which mis-read comm-layer *improvements* as
//!   overhead — that is why `BENCH_5.json` shows 0.697;
//! * causal-layer health on test-scale grids: `blame_max_rank_share`,
//!   the largest rank's share of total wait-blame across traced clean
//!   runs of the MPI implementations (drift toward 1.0 means one rank
//!   dominates every wait), and `model_rank_agreement`, the
//!   model-vs-measured overlap ranking agreement over all nine
//!   implementations (1.0 means no confident inversion);
//! * run-server saturation: closed-loop requests/s and p99 latency at
//!   1/2/4 concurrent tenants over a fixed in-process worker pool
//!   (`serve_rps_t<n>`, `serve_p99_ms_t<n>`, advisory), plus
//!   `serve_cache_hit_speedup` — cold execution latency over cached
//!   response latency measured in the same run, the one enforced
//!   server gate;
//! * `recorder_off_overhead_ratio`: a second two-tenant sweep with every
//!   service-observability ring disabled (flight recorder, trace ring,
//!   event log), divided by the committed pre-recorder baseline
//!   (`BENCH_9.json` predates the flight recorder) — same orientation
//!   and same advisory status as the other `*_off_overhead_ratio` keys;
//!   the `instruments_off` zero-allocation test is the enforced
//!   contract;
//! * wall-clock seconds for the `figures --report` claim evaluation.
//!
//! Every timed section warms up untimed and reports a median-of-N, so a
//! single scheduler hiccup on a shared runner cannot move a metric.
//!
//! Usage: `cargo run --release -p bench --bin bench_snapshot [--check] [OUT.json]`
//!
//! With `--check`, the fresh numbers are additionally gated through
//! [`bench::history::History::check`] against the *latest* committed
//! `BENCH_<n>.json` discovered by scan: any throughput metric falling
//! below 75% of its committed value (25% tolerance for shared-runner
//! noise) fails the run with exit code 1. `*_off_overhead_ratio` keys
//! (vs the absolute 0.90 floor) and raw `*_per_sec` exchange keys are
//! advisory — below-floor prints a warning, because both are at the
//! mercy of hypervisor CPU-steal epochs that swing the exchange bench
//! 2.5× with the binary unchanged; the enforced signals are the
//! zero-allocation tests and the same-epoch `exchange_pooled_over_fresh`
//! ratio. This is CI's perf-regression gate.

use advect_core::coeffs::{Stencil27, Velocity};
use advect_core::field::Field3;
use advect_core::flops::FLOPS_PER_POINT;
use advect_core::stencil::{
    apply_stencil_region, apply_stencil_region_pooled, apply_stencil_region_scalar,
};
use advect_core::stepper::{AdvectionProblem, ThreadedStepper};
use advect_core::sweep::SweepPool;
use advect_core::tile::TileSpec;
use decomp::{Decomposition, ExchangePlan};
use overlap::halo::{exchange_halos, exchange_halos_fresh};
use overlap::{HaloBuffers, Impl, RunConfig, RunReport};
use simgpu::GpuSpec;
use simmpi::World;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 128;
const IMPL_N: usize = 64;
const EXCHANGE_N: usize = 64;
const EXCHANGE_TASKS: usize = 4;
const EXCHANGE_STEPS: usize = 16;

/// Median seconds per call over `samples` timed calls, after `warmup`
/// untimed calls that fault pages in and settle the frequency governor.
fn time_median(warmup: usize, samples: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
    times[times.len() / 2]
}

/// Median seconds for `EXCHANGE_STEPS` steady-state halo exchanges on an
/// `EXCHANGE_N`³ grid over `EXCHANGE_TASKS` ranks. Each rank warms up
/// with one untimed exchange, barriers, then times the loop; the world's
/// median-across-ranks per launch feeds the median across launches.
fn time_exchange(samples: usize, pooled: bool) -> f64 {
    let d = Decomposition::new(EXCHANGE_TASKS, (EXCHANGE_N, EXCHANGE_N, EXCHANGE_N));
    let run_once = || {
        let dref = &d;
        let mut per_rank = World::run(EXCHANGE_TASKS, move |comm| {
            let sub = dref.subdomains[comm.rank()];
            let mut f = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
            f.fill_interior(|x, y, z| (x + y + z) as f64);
            let plan = ExchangePlan::new(sub.extent, 1);
            let bufs = HaloBuffers::new(&plan, comm);
            // Warm up: populate staging slots / mailbox paths untimed.
            if pooled {
                exchange_halos(&mut f, &plan, dref, comm.rank(), comm, &bufs);
            } else {
                exchange_halos_fresh(&mut f, &plan, dref, comm.rank(), comm);
            }
            comm.barrier();
            let t0 = Instant::now();
            for _ in 0..EXCHANGE_STEPS {
                if pooled {
                    exchange_halos(&mut f, &plan, dref, comm.rank(), comm, &bufs);
                } else {
                    exchange_halos_fresh(&mut f, &plan, dref, comm.rank(), comm);
                }
            }
            let dt = t0.elapsed().as_secs_f64();
            black_box(f.at(0, 0, 0));
            dt
        });
        per_rank.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
        per_rank[per_rank.len() / 2]
    };
    let mut times: Vec<f64> = (0..samples).map(|_| run_once()).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
    times[times.len() / 2]
}

fn repo_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
}

/// A metric from a committed snapshot at the repository root, or 0.0
/// when the file or key is absent.
fn committed_f64(file: &str, key: &str) -> f64 {
    std::fs::read_to_string(repo_root().join(file))
        .ok()
        .and_then(|text| obs::json::Value::parse(&text).ok())
        .and_then(|v| v[key].as_f64())
        .unwrap_or(0.0)
}

/// The team widths the scaling table measures: 1, 2, 4, and the full
/// machine, deduplicated (a 2-core host measures 1/2/4).
pub fn scaling_widths() -> Vec<usize> {
    let full = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut widths = vec![1, 2, 4, full];
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// Smallest benchmark grid whose two state fields overflow `llc_bytes`
/// (2 fields × 8 bytes × n³), so the `k = 1` baseline streams from
/// memory and temporal fusion has traffic to save. Capped at 320³ to
/// bound snapshot wall-clock on huge-cache hosts.
fn timetile_grid(llc_bytes: usize) -> usize {
    const CANDIDATES: [usize; 8] = [96, 128, 160, 192, 224, 256, 288, 320];
    CANDIDATES
        .into_iter()
        .find(|&n| 16 * n * n * n > llc_bytes)
        .unwrap_or(320)
}

/// Fraction of the committed value a fresh number may drop to before
/// `--check` fails: 25% headroom for shared-runner noise.
const CHECK_TOLERANCE: f64 = 0.75;

/// Worker pool width for the run-server saturation sweep.
const SERVE_WORKERS: usize = 2;
/// Closed-loop requests each tenant issues during the sweep.
const SERVE_REQUESTS: usize = 24;
/// Tenant counts the saturation curve measures.
const SERVE_TENANTS: [usize; 3] = [1, 2, 4];

/// One tenant's request for the server sweep: half the sequence draws
/// from three shared hot keys (cache/dedup traffic), half is unique via
/// the fault seed (cold executions), mirroring `load_gen`'s mix.
fn serve_request(tenant: usize, seq: usize) -> serve::protocol::Request {
    let params = if seq.is_multiple_of(2) {
        let shapes = [(10u32, 2u32, 2u32), (10, 2, 4), (12, 1, 2)];
        let (grid, steps, tasks) = shapes[seq / 2 % shapes.len()];
        overlap::RunParams {
            impl_slug: "bulk_sync".into(),
            grid,
            steps,
            tasks,
            threads: 1,
            ..overlap::RunParams::default()
        }
    } else {
        overlap::RunParams {
            impl_slug: "bulk_sync".into(),
            grid: 8,
            steps: 1,
            tasks: 2,
            threads: 1,
            fault_seed: Some(1 + (tenant * 1000 + seq) as u64),
            ..overlap::RunParams::default()
        }
    };
    serve::protocol::Request {
        tenant: format!("tenant-{tenant}"),
        params,
        timeout_ms: None,
    }
}

/// Closed-loop sweep at `tenants` concurrent tenants against a fresh
/// in-process server: returns `(requests_per_second, p99_ms)`.
/// `recorder_off` disables every service-observability ring (flight
/// recorder, trace ring, event log) so the sweep exercises the
/// zero-cost-off path the `recorder_off_overhead_ratio` key reports on.
fn serve_sweep(tenants: usize, recorder_off: bool) -> (f64, f64) {
    let mut cfg = serve::server::ServerConfig {
        workers: SERVE_WORKERS,
        ..serve::server::ServerConfig::default()
    };
    if recorder_off {
        cfg.recorder_capacity = 0;
        cfg.trace_ring_capacity = 0;
        cfg.log_capacity = 0;
    }
    let server = serve::server::Server::start(cfg);
    let t0 = Instant::now();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(tenants * SERVE_REQUESTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                let server = &server;
                scope.spawn(move || {
                    (0..SERVE_REQUESTS)
                        .map(|i| {
                            let req = serve_request(t, i);
                            let r0 = Instant::now();
                            server.run(&req).expect("sweep request succeeds");
                            r0.elapsed().as_nanos() as u64
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for h in handles {
            latencies_ns.extend(h.join().expect("tenant thread"));
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    server.shutdown();
    latencies_ns.sort_unstable();
    let p99 = latencies_ns[(latencies_ns.len() - 1) * 99 / 100] as f64 / 1e6;
    (latencies_ns.len() as f64 / wall, p99)
}

/// Cache-hit speedup, both sides measured in the same run and epoch:
/// the median latency of cold executions over the median latency of
/// cached responses for an identical key.
fn serve_cache_speedup() -> f64 {
    let server = serve::server::Server::start(serve::server::ServerConfig {
        workers: SERVE_WORKERS,
        ..serve::server::ServerConfig::default()
    });
    let request = |seed: u64| serve::protocol::Request {
        tenant: "bench".into(),
        params: overlap::RunParams {
            impl_slug: "bulk_sync".into(),
            grid: 10,
            steps: 2,
            tasks: 2,
            threads: 1,
            fault_seed: Some(seed),
            ..overlap::RunParams::default()
        },
        timeout_ms: None,
    };
    let median = |mut v: Vec<u64>| -> f64 {
        v.sort_unstable();
        v[v.len() / 2] as f64
    };
    let cold: Vec<u64> = (1..=9)
        .map(|seed| {
            let t0 = Instant::now();
            let resp = server.run(&request(seed)).expect("cold run succeeds");
            assert!(!resp.cached);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    // Warm one more key, then time repeated hits on it.
    server.run(&request(100)).expect("warm run succeeds");
    let cached: Vec<u64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            let resp = server.run(&request(100)).expect("cached run succeeds");
            assert!(resp.cached);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    server.shutdown();
    median(cold) / median(cached).max(1.0)
}

fn main() {
    let mut check = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            other => out_path = Some(other.to_string()),
        }
    }
    // The history must load before the new snapshot is written, or the
    // gate would compare today's numbers against themselves.
    let history = bench::history::History::load(repo_root()).unwrap_or_default();
    let out_path = out_path.unwrap_or_else(|| {
        repo_root()
            .join(format!("BENCH_{}.json", history.next_index()))
            .to_string_lossy()
            .into_owned()
    });

    let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9);
    let mut src = Field3::new(N, N, N, 1);
    src.fill_interior(|x, y, z| ((x * 13 + y * 7 + z * 3) % 17) as f64 * 0.1);
    src.copy_periodic_halo();
    let mut dst = Field3::new(N, N, N, 1);
    let region = src.interior_range();
    let flops = (N as f64).powi(3) * FLOPS_PER_POINT as f64;

    let t_fast = time_median(3, 21, || {
        apply_stencil_region(black_box(&src), &mut dst, &s, region)
    });
    let t_scalar = time_median(3, 21, || {
        apply_stencil_region_scalar(black_box(&src), &mut dst, &s, region)
    });
    let gf_fast = flops / t_fast / 1e9;
    let gf_scalar = flops / t_scalar / 1e9;

    // Per-thread scaling: the pooled cache-blocked sweep and the full
    // IV-A step at each team width, with parallel efficiency relative to
    // one worker. Keys embed the width, so a trend in the history always
    // compares like with like.
    let widths = scaling_widths();
    let tile = TileSpec::host(src.extents().0);
    let mut pool_gf: Vec<(usize, f64)> = Vec::new();
    for &w in &widths {
        let pool = SweepPool::new(w);
        let t = time_median(2, 11, || {
            apply_stencil_region_pooled(black_box(&src), &mut dst, &s, region, tile, &pool);
        });
        pool_gf.push((w, flops / t / 1e9));
    }
    let impl_flops = (IMPL_N as f64).powi(3) * FLOPS_PER_POINT as f64;
    let mut impl_gf: Vec<(usize, f64)> = Vec::new();
    for &w in &widths {
        let mut stepper = ThreadedStepper::new(AdvectionProblem::general_case(IMPL_N), w);
        let t = time_median(1, 5, || stepper.step());
        black_box(stepper.state().at(0, 0, 0));
        impl_gf.push((w, impl_flops / t / 1e9));
    }
    let efficiency = |curve: &[(usize, f64)], w: usize, gf: f64| -> f64 {
        let base = curve[0].1;
        if base > 0.0 {
            gf / (w as f64 * base)
        } else {
            0.0
        }
    };

    // Temporal blocking: GF/s of k fused steps per traversal on a grid
    // whose two state fields overflow the detected last-level cache —
    // k = 1 (the classic streaming stepper) pays full memory traffic
    // every step, so fusion has something to save. Measured at one
    // worker and at the full machine.
    let topo = advect_core::numa::host();
    let llc = advect_core::numa::host_llc_bytes();
    let tt_n = timetile_grid(llc);
    let tt_flops = (tt_n as f64).powi(3) * FLOPS_PER_POINT as f64;
    let tt_widths: Vec<usize> = {
        let full = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut v = vec![1, full];
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut tt_gf: Vec<(usize, usize, f64)> = Vec::new();
    for &w in &tt_widths {
        for k in [1usize, 2, 4, 8] {
            let problem = AdvectionProblem::general_case(tt_n);
            let gf = if k == 1 {
                let mut stepper = ThreadedStepper::new(problem, w);
                let t = time_median(1, 3, || stepper.step());
                black_box(stepper.state().at(0, 0, 0));
                tt_flops / t / 1e9
            } else {
                let mut stepper = ThreadedStepper::new(problem, w).with_time_tile(k);
                let t = time_median(1, 3, || stepper.run(k as u64));
                black_box(stepper.state().at(0, 0, 0));
                tt_flops * k as f64 / t / 1e9
            };
            tt_gf.push((k, w, gf));
        }
    }
    let tt_at = |k: usize, w: usize| -> f64 {
        tt_gf
            .iter()
            .find(|&&(kk, ww, _)| kk == k && ww == w)
            .map_or(0.0, |&(_, _, gf)| gf)
    };

    // Comm layer: per-rank messages and values per steady-state exchange.
    let msgs = (6 * EXCHANGE_STEPS) as f64;
    let values = (6 * EXCHANGE_N * EXCHANGE_N * EXCHANGE_STEPS) as f64;
    let t_pooled = time_exchange(11, true);
    let t_fresh = time_exchange(11, false);
    let ex_values_per_s = values / t_pooled;
    let ex_msgs_per_s = msgs / t_pooled;
    let pooled_over_fresh = t_fresh / t_pooled;
    // Instrumentation off-overhead ratios, all oriented fresh over the
    // committed pre-layer baseline: this binary enables none of the
    // layers, so the exchange above already paid every disabled hook.
    // ≥ 1.0 means free (or faster than before the layer existed);
    // anything below the 0.90 check floor *suggests* the off path costs
    // real throughput — suggests, because the two sides of the ratio
    // are measured in different scheduler epochs; the zero-allocation
    // tests are the enforced contract.
    let off_ratio = |pre_layer_file: &str| -> f64 {
        let baseline = committed_f64(pre_layer_file, "exchange_values_per_sec");
        if baseline > 0.0 {
            ex_values_per_s / baseline
        } else {
            0.0
        }
    };
    let tracing_off_overhead = off_ratio("BENCH_2.json");
    let fault_off_overhead = off_ratio("BENCH_3.json");
    let metrics_off_overhead = off_ratio("BENCH_4.json");
    // BENCH_7 predates causal message stamping; the exchange above ran
    // untraced, so it paid whatever the disabled causal hooks cost.
    // Unlike the older baselines above, BENCH_7 is the *immediately
    // preceding* snapshot — no intervening comm-layer improvements
    // absorb day-to-day host-speed drift, and on this host whole-run
    // throughput swings ±20–35% between snapshot days while interleaved
    // A/B runs of the pre-causal and causal builds land within a few
    // percent of each other. The raw ratio would therefore mostly
    // measure how fast the host happens to be today. Correct for that
    // with a causal-free probe of same-day host speed: the
    // single-threaded stencil, which never touches simmpi. Both probe
    // values are committed, so the correction is reproducible.
    let causal_off_overhead = {
        let raw = off_ratio("BENCH_7.json");
        let stencil_baseline = committed_f64("BENCH_7.json", "stencil_fast_gf");
        let drift = if stencil_baseline > 0.0 {
            gf_fast / stencil_baseline
        } else {
            1.0
        };
        if drift > 0.0 {
            raw / drift
        } else {
            raw
        }
    };

    // Causal-layer health on test-scale grids: one traced clean run per
    // implementation feeds wait-blame concentration (the largest rank's
    // share of total blame across the MPI impls — a drift toward 1.0
    // means one rank started dominating every wait) and the
    // model-vs-measured overlap ranking agreement into the history.
    let spec = GpuSpec::tesla_c2050();
    let blame_base = RunConfig::new(AdvectionProblem::general_case(12), 3)
        .with_threads(2)
        .with_block((8, 8))
        .with_trace(true);
    let mut blame_runs: Vec<(Impl, RunConfig, RunReport)> = Vec::new();
    for im in Impl::ALL {
        let cfg = if im.uses_mpi() {
            blame_base.tasks(4)
        } else {
            blame_base
        };
        let (_, report) = im.run_with_report(&cfg, Some(&spec));
        blame_runs.push((im, cfg, report));
    }
    let blame_max_rank_share = blame_runs
        .iter()
        .filter(|(im, _, _)| im.uses_mpi())
        .map(|(_, _, r)| r.blame().max_outgoing_share())
        .fold(0.0, f64::max);
    let model_rank_agreement =
        bench::divergence::divergence_report(&blame_runs).ranking_agreement();

    // Run-server saturation: closed-loop load at 1/2/4 concurrent
    // tenants over a fixed worker pool, plus the cache-hit speedup
    // (cold execution over cached response, measured in the same run —
    // the one enforced server gate; rps and p99 are advisory because
    // the shared runner's scheduler owns most of their variance).
    let serve_curve: Vec<(usize, f64, f64)> = SERVE_TENANTS
        .iter()
        .map(|&t| {
            let (rps, p99) = serve_sweep(t, false);
            (t, rps, p99)
        })
        .collect();
    let cache_hit_speedup = serve_cache_speedup();
    // Recorder off-overhead: a two-tenant sweep with every service-
    // observability ring disabled, over the committed pre-recorder
    // baseline. BENCH_9's serve_rps_t2 was measured before the recorder
    // existed, so anything the disabled hooks cost shows up here —
    // modulo cross-epoch host drift, which is why the key is advisory
    // and the instruments_off test is the enforced contract.
    let recorder_off_overhead = {
        let (rps_off, _) = serve_sweep(2, true);
        let baseline = committed_f64("BENCH_9.json", "serve_rps_t2");
        if baseline > 0.0 {
            rps_off / baseline
        } else {
            0.0
        }
    };

    let t0 = Instant::now();
    let claims = figures::report::evaluate_claims();
    let report = figures::report::render_markdown(&claims);
    black_box(report.len());
    let t_report = t0.elapsed().as_secs_f64();

    let mut json = format!(
        "{{\n  \"grid\": {N},\n  \"flops_per_point\": {FLOPS_PER_POINT},\n  \
         \"stencil_threads\": 1,\n  \
         \"stencil_fast_gf\": {gf_fast:.3},\n  \"stencil_scalar_gf\": {gf_scalar:.3},\n  \
         \"fast_over_scalar\": {:.3},\n",
        gf_fast / gf_scalar,
    );
    json.push_str(&format!(
        "  \"scaling_grid\": {N},\n  \"scaling_impl_grid\": {IMPL_N},\n  \
         \"scaling_full_threads\": {},\n",
        widths.last().copied().unwrap_or(1),
    ));
    for &(w, gf) in &pool_gf {
        json.push_str(&format!(
            "  \"scaling_pool_t{w}_gf\": {gf:.3},\n  \
             \"scaling_pool_t{w}_eff\": {:.3},\n",
            efficiency(&pool_gf, w, gf),
        ));
    }
    for &(w, gf) in &impl_gf {
        json.push_str(&format!(
            "  \"scaling_impl_t{w}_gf\": {gf:.3},\n  \
             \"scaling_impl_t{w}_eff\": {:.3},\n",
            efficiency(&impl_gf, w, gf),
        ));
    }
    json.push_str(&format!(
        "  \"numa_nodes\": {},\n  \"numa_cores_per_node\": {},\n  \
         \"timetile_grid\": {tt_n},\n  \"timetile_llc_mib\": {},\n  \
         \"timetile_full_threads\": {},\n",
        topo.node_count(),
        topo.cores_per_node(),
        llc / (1024 * 1024),
        tt_widths.last().copied().unwrap_or(1),
    ));
    for &(k, w, gf) in &tt_gf {
        json.push_str(&format!("  \"timetile_k{k}_t{w}_gf\": {gf:.3},\n"));
    }
    for &w in &tt_widths {
        if tt_at(1, w) > 0.0 {
            json.push_str(&format!(
                "  \"timetile_k4_over_k1_t{w}\": {:.3},\n",
                tt_at(4, w) / tt_at(1, w),
            ));
        }
    }
    json.push_str(&format!("  \"serve_threads\": {SERVE_WORKERS},\n"));
    for &(t, rps, p99) in &serve_curve {
        json.push_str(&format!(
            "  \"serve_rps_t{t}\": {rps:.1},\n  \"serve_p99_ms_t{t}\": {p99:.3},\n"
        ));
    }
    json.push_str(&format!(
        "  \"serve_cache_hit_speedup\": {cache_hit_speedup:.1},\n  \
         \"recorder_off_overhead_ratio\": {recorder_off_overhead:.3},\n"
    ));
    json.push_str(&format!(
        "  \"exchange_grid\": {EXCHANGE_N},\n  \"exchange_tasks\": {EXCHANGE_TASKS},\n  \
         \"exchange_threads\": 1,\n  \
         \"exchange_values_per_sec\": {ex_values_per_s:.0},\n  \
         \"exchange_messages_per_sec\": {ex_msgs_per_s:.0},\n  \
         \"exchange_pooled_over_fresh\": {pooled_over_fresh:.3},\n  \
         \"tracing_off_overhead_ratio\": {tracing_off_overhead:.3},\n  \
         \"fault_off_overhead_ratio\": {fault_off_overhead:.3},\n  \
         \"metrics_off_overhead_ratio\": {metrics_off_overhead:.3},\n  \
         \"causal_off_overhead_ratio\": {causal_off_overhead:.3},\n  \
         \"blame_max_rank_share\": {blame_max_rank_share:.3},\n  \
         \"model_rank_agreement\": {model_rank_agreement:.3},\n  \
         \"figures_report_seconds\": {t_report:.3},\n  \
         \"sweep_threads\": {}\n}}\n",
        SweepPool::global().threads(),
    ));
    std::fs::write(&out_path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");

    if check {
        let mut gates = vec![
            ("stencil_fast_gf".to_string(), gf_fast),
            ("stencil_scalar_gf".to_string(), gf_scalar),
            ("exchange_values_per_sec".to_string(), ex_values_per_s),
            ("exchange_messages_per_sec".to_string(), ex_msgs_per_s),
            (
                "tracing_off_overhead_ratio".to_string(),
                tracing_off_overhead,
            ),
            ("fault_off_overhead_ratio".to_string(), fault_off_overhead),
            (
                "metrics_off_overhead_ratio".to_string(),
                metrics_off_overhead,
            ),
            ("causal_off_overhead_ratio".to_string(), causal_off_overhead),
            ("model_rank_agreement".to_string(), model_rank_agreement),
        ];
        for &(w, gf) in &pool_gf {
            gates.push((format!("scaling_pool_t{w}_gf"), gf));
        }
        for &(k, w, gf) in &tt_gf {
            gates.push((format!("timetile_k{k}_t{w}_gf"), gf));
        }
        for &w in &tt_widths {
            if tt_at(1, w) > 0.0 {
                gates.push((
                    format!("timetile_k4_over_k1_t{w}"),
                    tt_at(4, w) / tt_at(1, w),
                ));
            }
        }
        for &(t, rps, p99) in &serve_curve {
            gates.push((format!("serve_rps_t{t}"), rps));
            gates.push((format!("serve_p99_ms_t{t}"), p99));
        }
        gates.push(("serve_cache_hit_speedup".to_string(), cache_hit_speedup));
        gates.push((
            "recorder_off_overhead_ratio".to_string(),
            recorder_off_overhead,
        ));
        let gate_refs: Vec<(&str, f64)> = gates.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let outcome = history.check(&gate_refs, CHECK_TOLERANCE);
        match &outcome.baseline {
            Some(p) => eprintln!("check baseline: {}", p.display()),
            None => eprintln!("check baseline: none (no committed snapshots)"),
        }
        for key in &outcome.skipped {
            eprintln!("check {key}: no committed baseline, skipped");
        }
        for g in &outcome.gates {
            eprintln!(
                "check {}: fresh {:.3} vs floor-of {:.3} \
                 (x{:.2}) {}",
                g.key,
                g.fresh,
                g.committed,
                g.ratio,
                if g.ok {
                    "ok"
                } else if g.warn {
                    if g.key.starts_with("serve_") {
                        "WARN (advisory: scheduler-sensitive service metric)"
                    } else {
                        "WARN (advisory: cross-epoch ratio; zero-alloc tests enforce the off path)"
                    }
                } else {
                    "REGRESSION"
                }
            );
        }
        if !outcome.passed() {
            eprintln!(
                "bench check FAILED: {} metric(s) regressed past tolerance",
                outcome.regressions()
            );
            std::process::exit(1);
        }
        match outcome.warnings() {
            0 => eprintln!("bench check passed"),
            w => eprintln!("bench check passed ({w} advisory warning(s))"),
        }
    }
}
