//! The fault path must be pay-for-what-you-use: a run with
//! `FaultSpec::off()` (the default) must not allocate any fault state —
//! no limbo queues, no per-channel sequence tables. Mirrors the
//! zero-allocation guarantee the tracing subsystem makes in
//! `tests/trace_alloc.rs`.
//!
//! This lives in its own test binary so no concurrently-running chaos
//! test can bump the process-global counter mid-measurement; the two
//! tests below take [`COUNTER`] so they cannot bump it for each other.

use advect_core::stepper::AdvectionProblem;
use overlap::{Impl, RunConfig};
use simgpu::GpuSpec;
use std::sync::Mutex;

/// Held for each measurement of the process-global counter.
static COUNTER: Mutex<()> = Mutex::new(());

#[test]
fn fault_off_runs_allocate_no_fault_state() {
    let _serial = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let spec = GpuSpec::tesla_c2050();
    for im in Impl::ALL {
        let mut cfg = RunConfig::new(AdvectionProblem::general_case(12), 2)
            .with_threads(2)
            .with_block((8, 8))
            .with_thickness(1);
        if im.uses_mpi() {
            cfg = cfg.tasks(4);
        }
        let before = simmpi::fault_states_allocated();
        let _ = im.run(&cfg, im.uses_gpu().then_some(&spec));
        let after = simmpi::fault_states_allocated();
        assert_eq!(
            after - before,
            0,
            "{} allocated fault state with the plan off",
            im.slug()
        );
    }
}

#[test]
fn chaos_runs_do_allocate_fault_state() {
    // Sanity check on the counter itself: with a perturbing plan, each
    // rank's mailbox carries a limbo allocation.
    let _serial = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RunConfig::new(AdvectionProblem::general_case(12), 1)
        .tasks(4)
        .with_threads(2)
        .with_faults(overlap::FaultSpec::chaos(1));
    let before = simmpi::fault_states_allocated();
    let _ = Impl::BulkSync.run(&cfg, None);
    let after = simmpi::fault_states_allocated();
    assert_eq!(after - before, 4);
}
