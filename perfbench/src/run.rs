//! One benchmark run: the untraced run that yields the end-to-end metrics,
//! and the traced run that yields the per-layer ones.

use crate::decompose::{self, Phases, STAGES};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::workload::{self, Kind, SolveSpec, Workload};
use crate::{host, layers, mix, solve};
use advect_core::flops::FLOPS_PER_POINT;
use overlap::Impl;
use serve::Stage;
use std::collections::BTreeMap;

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    /// Metric name → value, in the metric table's units.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: verified runs and requests.
    pub attempted: u64,
    /// Of those, how many failed: oracle mismatch, error response,
    /// reject, timeout, or a broken connection.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Human-readable context lines (sample counts, oracle time, …).
    pub notes: Vec<String>,
    /// The traced run's document (spans, per-implementation tables).
    pub trace_doc: Option<String>,
}

impl Outcome {
    fn count_runs(&mut self, runs: &[solve::Outcome]) {
        for r in runs {
            self.attempted += 1;
            if !r.ok {
                self.failed += 1;
                self.failures.push(format!(
                    "{} ({} steps): state differs from the serial oracle or the run panicked",
                    r.implementation.slug(),
                    r.steps
                ));
            }
        }
    }

    fn count_requests(&mut self, reqs: &[mix::Req]) {
        for r in reqs {
            self.attempted += 1;
            if let Some(f) = &r.failure {
                self.failed += 1;
                self.failures
                    .push(format!("request c{}#{}: {f}", r.client, r.seq));
            }
        }
    }
}

/// Set-up repeats at least three times and until this many seconds of
/// set-up were measured, at most [`MAX_SETUPS`] times; `setup_s` is the
/// median.
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 25;

fn more_setups(setups: &[f64]) -> bool {
    setups.len() < 3 || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_SECONDS)
}

/// Run workload `w` for `seconds` of measurement: untraced (end-to-end
/// metrics) or traced (per-layer metrics).
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let rec = Recorder::new(trace);
    if trace {
        traced(w, seed, seconds, &rec)
    } else {
        match w.kind {
            Kind::Solve(spec) => untraced_solve(&spec, seed, seconds, &rec),
            Kind::Serve => untraced_serve(seed, seconds, &rec),
        }
    }
}

fn untraced_solve(
    spec: &SolveSpec,
    seed: u64,
    seconds: f64,
    rec: &Recorder,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let problem = workload::problem(seed, spec.grid);
    let oracle = solve::oracle(problem, &[1, spec.steps], rec);
    out.notes.push(format!(
        "oracle: {} serial steps of {}^3 in {:.3} s (not in setup_s)",
        spec.steps, spec.grid, oracle.seconds
    ));
    let mut setups = Vec::new();
    while more_setups(&setups) {
        let (s, runs) = solve::setup(spec, problem, &oracle, rec);
        setups.push(s);
        out.count_runs(&runs);
    }
    let runs = solve::measure(spec, problem, &oracle, seed, seconds, false, rec);
    out.count_runs(&runs);
    // One run of each implementation at its median wall time: a run hit
    // by a transient stall does not move the throughput.
    let (mut flops, mut wall) = (0.0, 0.0);
    for &im in spec.impls {
        let mine: Vec<&solve::Outcome> = runs.iter().filter(|r| r.implementation == im).collect();
        let walls: Vec<f64> = mine.iter().map(|r| r.wall_s).collect();
        let median = stats::median(&walls);
        flops += mine[0].flops;
        wall += median;
        out.notes.push(format!(
            "{}: median run {:.1} ms over {} runs",
            im.slug(),
            median * 1e3,
            mine.len()
        ));
    }
    let ms: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
    let (p99, pct, n) = stats::p99(&ms);
    out.notes.push(format!(
        "req_ms_p99 is p{pct:.1} of {n} runs; every run executes, so cold_ms_p50 = req_ms_p50"
    ));
    let m = &mut out.metrics;
    m.insert("solve_gflops", flops / wall / 1e9);
    m.insert("req_ms_p50", stats::median(&ms));
    m.insert("req_ms_p99", p99);
    m.insert("cold_ms_p50", stats::median(&ms));
    m.insert("rps", spec.impls.len() as f64 / wall);
    m.insert("setup_s", stats::median(&setups));
    m.insert("peak_rss_mib", host::peak_rss_mib());
    Ok(out)
}

fn untraced_serve(seed: u64, seconds: f64, rec: &Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = mix::oracle(rec);
    out.notes.push(format!(
        "oracle: {} (grid, steps) checksums in {:.3} s (not in setup_s)",
        oracle.checksums.len(),
        oracle.seconds
    ));
    let mut setups = Vec::new();
    let mut h = loop {
        let (s, h) = mix::setup(false, rec)?;
        setups.push(s);
        if !more_setups(&setups) {
            break h;
        }
        h.stop()?;
    };
    h.connect()?;
    let (reqs, stats) = mix::drive(&mut h, seed, seconds, &oracle, rec);
    h.stop()?;
    out.count_requests(&reqs);
    serve_end_to_end(&mut out, &reqs, &stats);
    out.metrics.insert("setup_s", stats::median(&setups));
    out.metrics.insert("peak_rss_mib", host::peak_rss_mib());
    Ok(out)
}

/// The request-stream metrics shared by the untraced run (end to end) and
/// the traced run's serve section.
fn serve_end_to_end(out: &mut Outcome, reqs: &[mix::Req], stats: &serve::ServerStats) {
    let ok: Vec<&mix::Req> = reqs.iter().filter(|r| r.failure.is_none()).collect();
    let all_ms: Vec<f64> = reqs.iter().map(|r| r.ms()).collect();
    let cold: Vec<f64> = ok.iter().filter(|r| !r.cached).map(|r| r.ms()).collect();
    let hit: Vec<f64> = ok.iter().filter(|r| r.cached).map(|r| r.ms()).collect();
    let (p99, pct, n) = stats::p99(&all_ms);
    out.notes.push(format!(
        "{} requests ({} cache hits, {} cold), server: {} hits, {} dedup joins, {} executions, {} rejects, {} timeouts; req_ms_p99 is p{pct:.2} of {n}",
        reqs.len(),
        hit.len(),
        cold.len(),
        stats.cache_hits,
        stats.dedup_joins,
        stats.executions,
        stats.rejects,
        stats.timeouts
    ));
    let first = ok.iter().map(|r| r.start_ns).min().unwrap_or(0);
    let last = ok.iter().map(|r| r.end_ns).max().unwrap_or(1);
    let elapsed = (last - first).max(1) as f64 / 1e9;
    let flops: f64 = ok.iter().map(|r| r.flops).sum();
    let m = &mut out.metrics;
    m.insert("solve_gflops", flops / elapsed / 1e9);
    m.insert("req_ms_p50", stats::median(&all_ms));
    m.insert("req_ms_p99", p99);
    m.insert("cold_ms_p50", median_or_zero(&cold));
    m.insert("rps", ok.len() as f64 / elapsed);
}

/// The cache's per-layer metrics over a request stream.
fn serve_cache(m: &mut BTreeMap<&'static str, f64>, reqs: &[mix::Req], stats: &serve::ServerStats) {
    let hit: Vec<f64> = reqs
        .iter()
        .filter(|r| r.failure.is_none() && r.cached)
        .map(|r| r.ms())
        .collect();
    m.insert("serve.hit_ms_p50", median_or_zero(&hit));
    let requests = stats.requests.max(1) as f64;
    m.insert("serve.hit_frac", stats.cache_hits as f64 / requests);
    m.insert("serve.dedup_frac", stats.dedup_joins as f64 / requests);
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

/// Per-implementation fit from whole runs at one step and at `steps`:
/// step time is the slope, fixed cost the intercept.
struct Fit {
    step_s: f64,
    fixed_s: f64,
}

fn fit(im: Impl, one: &[solve::Outcome], full: &[solve::Outcome], steps: u64) -> Fit {
    let walls = |runs: &[solve::Outcome]| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.implementation == im && !r.traced)
            .map(|r| r.wall_s)
            .collect()
    };
    let w1 = stats::median(&walls(one));
    let ws = stats::median(&walls(full));
    let step_s = (ws - w1) / (steps - 1) as f64;
    Fit {
        step_s,
        fixed_s: w1 - step_s,
    }
}

fn traced(w: &Workload, seed: u64, seconds: f64, rec: &Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = w.probe;
    let problem = workload::problem(seed, spec.grid);
    let (solve_seconds, serve_seconds) = match w.kind {
        Kind::Solve(_) => (seconds, 1.5),
        Kind::Serve => (2.0, seconds),
    };
    let mut m = BTreeMap::new();

    // Host.
    let llc = host::llc_bytes();
    let bw = {
        let _span = rec.span("host.stream", 0, 0);
        host::bandwidth(llc)
    };
    out.notes.push(format!(
        "host: {} CPUs, LLC {:.1} MiB, copy/triad arrays {:.0} MiB each (single thread)",
        host::cpus(),
        llc as f64 / 1048576.0,
        bw.array_bytes as f64 / 1048576.0
    ));
    m.insert("host.cpus", host::cpus() as f64);
    m.insert("host.llc_mib", llc as f64 / 1048576.0);
    m.insert("host.copy_gbs", bw.copy_gbs);
    m.insert("host.triad_gbs", bw.triad_gbs);

    // Whole runs: traced/untraced pairs, one-step runs, a GPU run.
    let oracle = solve::oracle(problem, &[1, 2, spec.steps], rec);
    let (_, setup_runs) = solve::setup(&spec, problem, &oracle, rec);
    out.count_runs(&setup_runs);
    let pairs = solve::measure(&spec, problem, &oracle, seed, solve_seconds, true, rec);
    out.count_runs(&pairs);
    let ones = solve::one_step_runs(&spec, problem, &oracle, 1.0, rec);
    out.count_runs(&ones);
    let gpu_run = solve::run_verified(
        &spec,
        problem,
        &oracle,
        Impl::HybridOverlap,
        2,
        false,
        solve::Site {
            rec,
            parent: 0,
            op: 0,
        },
    );
    out.count_runs(std::slice::from_ref(&gpu_run));

    // Requests.
    let soracle = mix::oracle(rec);
    let (_, mut h) = mix::setup(true, rec)?;
    h.connect()?;
    let (reqs, sstats) = mix::drive(&mut h, seed, serve_seconds, &soracle, rec);
    let events = h.server.recorded_events();
    let anchor_ns = h.anchor_ns;
    h.stop()?;
    out.count_requests(&reqs);
    let mut serve_out = Outcome::default();
    serve_end_to_end(&mut serve_out, &reqs, &sstats);
    out.notes.extend(serve_out.notes);
    serve_cache(&mut m, &reqs, &sstats);

    // Layer probes.
    let (stencil_gflops, copy_ms) = layers::stencil_and_copy(&spec, &problem, rec);
    m.insert("advect-core.stencil_gflops", stencil_gflops);
    m.insert(
        "advect-core.stencil_roofline_frac",
        stencil_gflops / (bw.copy_gbs * FLOPS_PER_POINT as f64 / 16.0),
    );
    m.insert("advect-core.state_copy_ms", copy_ms);
    let (init_ms, assemble_ms) = layers::init_and_assemble(&spec, problem, rec);
    m.insert("advect-core.init_ms", init_ms);
    m.insert("overlap.assemble_ms", assemble_ms);
    m.insert("advect-core.serial_step_ms", stats::median(&oracle.step_ms));
    m.insert(
        "overlap.halo_exchange_us",
        layers::halo_exchange(&spec, rec),
    );
    m.insert("simmpi.world_launch_us", layers::world_launch(&spec, rec));
    let g = layers::gpu(&spec, &problem, rec);
    m.insert("simgpu.kernel_gpts", g.kernel_gpts);
    m.insert("simgpu.launch_overhead_us", g.launch_overhead_us);
    m.insert("simgpu.pcie_gbs", g.pcie_gbs);
    let (parse_us, canon_us) = layers::parse_and_canonicalize(seed, rec);
    m.insert("serve.parse_us", parse_us);
    m.insert("serve.canonicalize_us", canon_us);

    // Per-implementation fits and phase shares.
    let n3 = (spec.grid as f64).powi(3);
    let mut per_impl = String::from("{");
    let mut all_phases = Phases::default();
    let (mut gflops, mut step_ms, mut fixed_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &im) in spec.impls.iter().enumerate() {
        let f = fit(im, &ones, &pairs, spec.steps);
        let g = n3 * FLOPS_PER_POINT as f64 / f.step_s / 1e9;
        gflops.push(g);
        step_ms.push(f.step_s * 1e3);
        fixed_ms.push(f.fixed_s * 1e3);
        let mut phases = Phases::default();
        for r in pairs.iter().filter(|r| r.implementation == im && r.traced) {
            if let Some(report) = &r.report {
                phases.add(report, r.wall_s);
                all_phases.add(report, r.wall_s);
            }
        }
        let shares: Vec<String> = phases
            .shares()
            .iter()
            .map(|(n, s)| format!("\"{n}\":{}", num(*s)))
            .collect();
        if i > 0 {
            per_impl.push(',');
        }
        per_impl.push_str(&format!(
            "\"{}\":{{\"gflops\":{},\"step_ms\":{},\"fixed_ms\":{},\"phase_share\":{{{}}}}}",
            im.slug(),
            num(g),
            num(f.step_s * 1e3),
            num(f.fixed_s * 1e3),
            shares.join(",")
        ));
        out.notes.push(format!(
            "overlap.{}: {:.2} GF/s, step {:.3} ms, fixed {:.1} ms",
            im.slug(),
            g,
            f.step_s * 1e3,
            f.fixed_s * 1e3
        ));
    }
    per_impl.push('}');
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    m.insert("overlap.gflops", mean(&gflops));
    m.insert("overlap.step_ms", mean(&step_ms));
    m.insert("overlap.fixed_ms", mean(&fixed_ms));
    for (name, share) in all_phases.shares() {
        m.insert(metric_name(format!("obs.phase.{name}_share")), share);
    }

    // simmpi counters of the untraced full-length MPI runs.
    let mpi_full: Vec<&solve::Outcome> = pairs
        .iter()
        .filter(|r| r.implementation.uses_mpi() && !r.traced)
        .collect();
    let (mut wait, mut rank_s, mut recycled, mut buffers) = (0.0, 0.0, 0.0, 0.0);
    for r in &mpi_full {
        let report = r.report.as_ref().expect("verified runs carry a report");
        wait += report.total_wait_ns() as f64 * 1e-9;
        rank_s += report.comm.len() as f64 * r.wall_s;
        for c in &report.comm {
            recycled += c.buffers_recycled as f64;
            buffers += (c.buffers_recycled + c.buffers_allocated) as f64;
        }
    }
    m.insert("simmpi.wait_frac", wait / rank_s);
    m.insert("simmpi.recycle_frac", recycled / buffers);
    let per_step = |count: fn(&overlap::RunReport) -> u64| -> f64 {
        let mut v = Vec::new();
        for &im in spec.impls.iter().filter(|im| im.uses_mpi()) {
            let at = |runs: &[solve::Outcome]| {
                runs.iter()
                    .find(|r| r.implementation == im && !r.traced)
                    .and_then(|r| r.report.as_ref())
                    .map(count)
                    .unwrap_or(0) as f64
            };
            v.push((at(&pairs) - at(&ones)) / (spec.steps - 1) as f64);
        }
        mean(&v)
    };
    m.insert("simmpi.msgs_per_step", per_step(|r| r.total_messages()));
    m.insert(
        "simmpi.values_per_step",
        per_step(|r| r.total_values_sent()),
    );

    // simgpu counters of the two-step IV-I run (deterministic).
    let gpu_report = gpu_run.report.as_ref().ok_or("IV-I probe run failed")?;
    let steps = gpu_run.steps as f64;
    let gsum = |f: fn(&simgpu::GpuStats) -> f64| gpu_report.gpu.iter().map(f).sum::<f64>() / steps;
    m.insert(
        "simgpu.virtual_compute_s_per_step",
        gsum(|g| g.compute_busy),
    );
    m.insert("simgpu.virtual_copy_s_per_step", gsum(|g| g.copy_busy));
    m.insert(
        "simgpu.launches_per_step",
        gsum(|g| (g.stencil_launches + g.pack_launches) as f64),
    );
    m.insert(
        "simgpu.pcie_values_per_step",
        gsum(|g| (g.h2d_points + g.d2h_points) as f64),
    );

    // obs: Chrome export and the interleaved tracing cost.
    // One traced report per implementation (the first round's).
    let exports: Vec<f64> = spec
        .impls
        .iter()
        .filter_map(|&im| {
            pairs
                .iter()
                .find(|r| r.traced && r.implementation == im)
                .and_then(|r| r.report.as_ref())
        })
        .map(|report| layers::chrome_export(report, rec))
        .collect();
    m.insert("obs.chrome_export_ms", stats::median(&exports));
    let ratios: Vec<f64> = pairs
        .chunks(2)
        .map(|p| {
            let (t, u) = if p[0].traced {
                (&p[0], &p[1])
            } else {
                (&p[1], &p[0])
            };
            t.wall_s / u.wall_s
        })
        .collect();
    let (q1, q2, q3) = stats::quartiles(&ratios);
    m.insert("obs.trace_on_ratio", q2);
    m.insert("obs.trace_on_ratio_q1", q1);
    m.insert("obs.trace_on_ratio_q3", q3);
    out.notes.push(format!(
        "obs.trace_on_ratio: median of {} interleaved traced/untraced pairs, quartiles {q1:.4}..{q3:.4}",
        ratios.len()
    ));

    // Requests: server stage spans under the client's request spans.
    let matched = mix::stages(&events, &reqs);
    request_stages(&mut m, &matched, &reqs, rec, anchor_ns, &mut out.notes);

    // The benchmark's own spans.
    let spans = rec.finish();
    let self_time = spans::self_time_by_layer(&spans);
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let covered: u64 = spans::merge(roots).iter().map(|(a, b)| b - a).sum();
    m.insert(
        "obs.self_time_covered_frac",
        covered as f64 / rec.now_ns().max(1) as f64,
    );
    for (layer, s) in &self_time {
        out.notes.push(format!("self time {layer}: {s:.3} s"));
    }

    let metric_json: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let self_json: Vec<String> = self_time
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    let ratio_json: Vec<String> = ratios.iter().map(|r| num(*r)).collect();
    out.trace_doc = Some(format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"metrics\":{{{}}},\"per_impl\":{per_impl},\"self_time_s\":{{{}}},\"trace_on_ratio_pairs\":[{}],\"traceEvents\":{}}}\n",
        w.name,
        metric_json.join(","),
        self_json.join(","),
        ratio_json.join(","),
        spans::chrome_json(&spans)
    ));
    out.metrics = m;
    Ok(out)
}

/// Serve stage percentiles and the per-request decomposition at p50 and
/// in the tail; records each matched request's server stages as child
/// spans of its client-side span.
fn request_stages(
    m: &mut BTreeMap<&'static str, f64>,
    matched: &[mix::Matched],
    reqs: &[mix::Req],
    rec: &Recorder,
    anchor_ns: u64,
    notes: &mut Vec<String>,
) {
    let ok: Vec<&mix::Matched> = matched.iter().filter(|x| x.req.failure.is_none()).collect();
    let executed: Vec<&&mix::Matched> = ok.iter().filter(|x| x.executed).collect();
    let ms = |f: &dyn Fn(&mix::Matched) -> f64, v: &[&&mix::Matched]| -> Vec<f64> {
        v.iter().map(|x| f(x) / 1e6).collect()
    };
    let queue = ms(&|x| x.stages.queue, &executed);
    let (queue_p99, _, _) = if queue.is_empty() {
        (0.0, 0.0, 0)
    } else {
        stats::p99(&queue)
    };
    m.insert("serve.queue_wait_ms_p50", median_or_zero(&queue));
    m.insert("serve.queue_wait_ms_p99", queue_p99);
    m.insert(
        "serve.execute_ms_p50",
        median_or_zero(&ms(&|x| x.stages.execute, &executed)),
    );
    m.insert(
        "serve.render_ms_p50",
        median_or_zero(&ms(&|x| x.stages.render, &executed)),
    );
    let all: Vec<&&mix::Matched> = ok.iter().collect();
    m.insert(
        "serve.respond_ms_p50",
        median_or_zero(&ms(&|x| x.stages.parts().0[4], &all)),
    );
    let stages: Vec<decompose::Stages> = ok.iter().map(|x| x.stages).collect();
    // The p99 band: the requests at or beyond the p99 used for
    // req_ms_p99 (at least the eleven slowest).
    let n = stages.len().max(1) as f64;
    let p99_lo = (1.0 - 11.0 / n).clamp(0.0, 0.99);
    for (band, lo, hi) in [("p50", 0.45, 0.55), ("p99", p99_lo, 1.0)] {
        let (shares, gap) = decompose::stage_shares(&stages, lo, hi);
        for (stage, share) in STAGES.iter().zip(shares) {
            m.insert(metric_name(format!("serve.{band}.{stage}_share")), share);
        }
        m.insert(metric_name(format!("serve.{band}.gap_share")), gap);
    }
    notes.push(format!(
        "request decomposition: {} of {} requests matched to server events",
        matched.len(),
        reqs.len()
    ));
    let spans = rec.finish();
    let by_op: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(|s| (s.op, s.id))
        .collect();
    for x in matched {
        let op = mix::request_op(x.req.client, x.req.seq);
        let Some(&parent) = by_op.get(&op) else {
            continue;
        };
        for &(stage, start, end) in &x.spans {
            let name = match stage {
                Stage::Accepted => "serve.accept",
                Stage::Queued => "serve.queue",
                Stage::Executing => "serve.execute",
                Stage::Rendered => "serve.render",
                _ => continue,
            };
            rec.record(name, parent, op, anchor_ns + start, anchor_ns + end);
        }
    }
}

/// The metric table's static name equal to `full`.
fn metric_name(full: String) -> &'static str {
    crate::metrics::per_layer()
        .into_iter()
        .find(|(n, _)| *n == full)
        .map(|(n, _)| n)
        .unwrap_or_else(|| panic!("{full} is not in the metric table"))
}

/// A JSON number with every digit (`null` for a non-finite value).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_prints_the_same_end_to_end_metrics() {
        let w = workload::by_name("serve_mix").expect("serve_mix exists");
        let names = |seed| -> Vec<&'static str> {
            let out = run(w, seed, 0.5, false).expect("serve_mix runs");
            assert_eq!(out.failed, 0, "{:?}", out.failures);
            assert!(out.attempted > 0);
            out.metrics.keys().copied().collect()
        };
        let mut want: Vec<&str> = crate::metrics::END_TO_END.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names(1), want);
        assert_eq!(names(2), want);
    }
}
