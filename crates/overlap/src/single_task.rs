//! Implementation IV-A: single task, multiple threads.

use crate::runner::{RunConfig, RunReport, Solo};
use advect_core::field::Field3;
use advect_core::stepper::ThreadedStepper;

/// The baseline: one task, OpenMP-style threading over the three
/// algorithmic steps (halo copy, stencil, and the state copy done as a
/// swap of the two fields).
pub struct SingleTask;

impl SingleTask {
    /// Run, returning the final state plus a report. There is no
    /// communication and no device; when traced, each step contributes
    /// one `compute.interior` span covering the threaded step.
    pub fn run_with_report(cfg: &RunConfig) -> (Field3, RunReport) {
        let solo = Solo::new(cfg, "single_task");
        let mut stepper = ThreadedStepper::new(cfg.problem, cfg.threads);
        if let Some((ty, tz)) = cfg.tile {
            stepper = stepper.with_tile(advect_core::tile::TileSpec::new(ty, tz));
        }
        solo.timer.run(cfg.steps, || {
            let _span = solo.tracer.span(obs::Category::ComputeInterior, "step");
            stepper.step();
        });
        solo.report(stepper.into_state(), None)
    }
}
