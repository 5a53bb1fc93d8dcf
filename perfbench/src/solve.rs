//! Whole verified runs: the serial oracle, set-up, and the timed loop of
//! the solver workloads.

use crate::spans::Recorder;
use crate::workload::{self, SolveSpec};
use advect_core::flops::total_flops;
use advect_core::stepper::{AdvectionProblem, SerialStepper};
use overlap::{Impl, RunReport};
use serve::artifact::state_checksum;
use simgpu::GpuSpec;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The GPU every GPU implementation runs on.
pub fn gpu() -> GpuSpec {
    GpuSpec::tesla_c2050()
}

/// Serial-stepper checksums of one problem at several step counts.
pub struct Oracle {
    /// Steps → FNV-1a checksum of the state's bits.
    pub checksums: BTreeMap<u64, u64>,
    /// Wall time of each serial step, ms.
    pub step_ms: Vec<f64>,
    /// Total oracle time, seconds (initial field and checksums included).
    pub seconds: f64,
}

/// Step `problem` serially to the largest of `steps`, recording the
/// checksum at each listed count.
pub fn oracle(problem: AdvectionProblem, steps: &[u64], rec: &Recorder) -> Oracle {
    let root = rec.span("bench.oracle", 0, 0);
    let t = Instant::now();
    let mut stepper = SerialStepper::new(problem);
    let mut checksums = BTreeMap::new();
    let mut step_ms = Vec::new();
    let last = steps.iter().copied().max().unwrap_or(0);
    for done in 1..=last {
        let s = Instant::now();
        {
            let _step = rec.span("advect-core.serial_step", root.id(), 0);
            stepper.step();
        }
        step_ms.push(s.elapsed().as_secs_f64() * 1e3);
        if steps.contains(&done) {
            checksums.insert(done, state_checksum(stepper.state()));
        }
    }
    Oracle {
        checksums,
        step_ms,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// One finished run.
pub struct Outcome {
    /// Which implementation ran.
    pub implementation: Impl,
    /// Steps it took.
    pub steps: u64,
    /// Whether the run recorded program spans.
    pub traced: bool,
    /// Wall time of the whole run: world launch, field init, steps and
    /// `assemble_global`.
    pub wall_s: f64,
    /// Table-I flops of the run.
    pub flops: f64,
    /// Bit-identical to the serial oracle (false also when it panicked).
    pub ok: bool,
    /// The run's substrate counters and (traced) spans.
    pub report: Option<RunReport>,
}

/// Where a run's benchmark spans go: the recorder, the parent span and
/// the run id.
#[derive(Clone, Copy)]
pub struct Site<'a> {
    /// The span store.
    pub rec: &'a Recorder,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Run id.
    pub op: u64,
}

/// Run `im` for `steps` steps and check its state against the oracle.
pub fn run_verified(
    spec: &SolveSpec,
    problem: AdvectionProblem,
    oracle: &Oracle,
    im: Impl,
    steps: u64,
    traced: bool,
    at: Site<'_>,
) -> Outcome {
    let expect = oracle.checksums[&steps];
    let run_span = at.rec.span("overlap.run", at.parent, at.op);
    let cfg = spec.config(im, problem, steps).with_trace(traced);
    let gpu = gpu();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| im.run_with_report(&cfg, Some(&gpu))));
    let wall_s = t.elapsed().as_secs_f64();
    drop(run_span);
    let (ok, report) = match result {
        Ok((state, report)) => {
            let _verify = at.rec.span("bench.verify", at.parent, at.op);
            (state_checksum(&state) == expect, Some(report))
        }
        Err(_) => (false, None),
    };
    Outcome {
        implementation: im,
        steps,
        traced,
        wall_s,
        flops: total_flops(problem.n.pow(3) as u64, steps) as f64,
        ok,
        report,
    }
}

/// Set-up: one untimed one-step run per shape. Returns the seconds it
/// took and the runs (which are verified like any other).
pub fn setup(
    spec: &SolveSpec,
    problem: AdvectionProblem,
    oracle: &Oracle,
    rec: &Recorder,
) -> (f64, Vec<Outcome>) {
    let root = rec.span("bench.setup", 0, 0);
    let at = Site {
        rec,
        parent: root.id(),
        op: 0,
    };
    let t = Instant::now();
    let runs = spec
        .impls
        .iter()
        .map(|&im| run_verified(spec, problem, oracle, im, 1, false, at))
        .collect();
    (t.elapsed().as_secs_f64(), runs)
}

/// The timed loop: whole rounds over the workload's implementations, each
/// round in a seeded order, until `seconds` of run time have been
/// measured. With `paired`, every run is followed or preceded by the same
/// run with program tracing on — which one goes first alternates — so
/// tracing's cost is measured in interleaved pairs.
pub fn measure(
    spec: &SolveSpec,
    problem: AdvectionProblem,
    oracle: &Oracle,
    seed: u64,
    seconds: f64,
    paired: bool,
    rec: &Recorder,
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = Vec::new();
    let mut measured = 0.0;
    let mut op = 1;
    let mut round = 0;
    while round == 0 || measured < seconds {
        for (i, im) in workload::order(seed, round, spec.impls)
            .into_iter()
            .enumerate()
        {
            let sides: &[bool] = match (paired, (round as usize + i) % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &traced in sides {
                let at = Site { rec, parent: 0, op };
                let o = run_verified(spec, problem, oracle, im, spec.steps, traced, at);
                op += 1;
                measured += o.wall_s;
                out.push(o);
            }
        }
        round += 1;
    }
    out
}

/// One-step runs for the per-implementation fits: whole rounds until
/// `seconds` of run time, at least one.
pub fn one_step_runs(
    spec: &SolveSpec,
    problem: AdvectionProblem,
    oracle: &Oracle,
    seconds: f64,
    rec: &Recorder,
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = Vec::new();
    let mut measured = 0.0;
    while out.is_empty() || measured < seconds {
        for &im in spec.impls {
            let at = Site {
                rec,
                parent: 0,
                op: 0,
            };
            let o = run_verified(spec, problem, oracle, im, 1, false, at);
            measured += o.wall_s;
            out.push(o);
        }
    }
    out
}
