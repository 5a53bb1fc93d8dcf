//! The report contract every runner honours, traced and metered: one
//! `comm`/`fault` row and one trace per rank, device counters exactly when
//! the implementation uses a GPU, and one `advect_step_ns` observation per
//! rank per timed iteration.

use advect_core::stepper::AdvectionProblem;
use overlap::{DeepHaloBulkSync, Impl, RunConfig, RunReport};
use simgpu::GpuSpec;

fn cfg(tasks: usize, steps: u64) -> RunConfig {
    RunConfig::new(AdvectionProblem::general_case(12), steps)
        .tasks(tasks)
        .with_threads(2)
        .with_block((8, 8))
        .with_thickness(1)
        .with_trace(true)
        .with_metrics(true)
}

fn check(what: &str, report: &RunReport, ranks: usize, gpu: bool, iterations: u64) {
    assert_eq!(report.comm.len(), ranks, "{what}: comm rows");
    assert_eq!(report.fault.len(), ranks, "{what}: fault rows");
    let gpu_rows = if gpu { ranks } else { 0 };
    assert_eq!(report.gpu.len(), gpu_rows, "{what}: gpu rows");
    let mut traced: Vec<usize> = report.traces.iter().map(|t| t.rank).collect();
    traced.sort_unstable();
    assert_eq!(traced, (0..ranks).collect::<Vec<_>>(), "{what}: traces");
    let observed = report.metrics.histogram_snapshot("advect_step_ns").count;
    assert_eq!(
        observed,
        iterations * ranks as u64,
        "{what}: advect_step_ns"
    );
}

#[test]
fn every_runner_reports_one_row_trace_and_step_series_per_rank() {
    let spec = GpuSpec::tesla_c2050();
    let steps = 3;
    for im in Impl::ALL {
        let ranks = if im.uses_mpi() { 4 } else { 1 };
        let (_, report) = im.run_with_report(&cfg(ranks, steps), Some(&spec));
        check(im.slug(), &report, ranks, im.uses_gpu(), steps);
    }
    // Deep halo times one iteration per exchange: 7 steps at width 3 are
    // bursts of 3, 3 and 1.
    let (_, report) = DeepHaloBulkSync::run_with_report(&cfg(4, 7), 3);
    check("deep_halo", &report, 4, false, 3);
}
