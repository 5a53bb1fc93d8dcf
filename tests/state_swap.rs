//! The CPU runners (IV-A…IV-D) swap their two state fields where the
//! paper copies the new state into the current one (Step 3). A swap hands
//! the next step a field whose halo is two steps old and whose interior
//! the step before last wrote, so a missed halo rewrite or an unwritten
//! interior point shows up only at one step parity, or only when a
//! subdomain is so thin that every point touches the halo. These tests pin
//! the swap against the serial stepper (which keeps the literal copy) at
//! odd and even step counts and on 1–2-plane subdomains, pin the row-wise
//! initial fill against the analytic pulse, and check that the straggler
//! throttle still covers real compute now that the copy it once wrapped
//! is gone.

use advect_core::analytic::{AnalyticSolution, GaussianPulse};
use advect_core::coeffs::Velocity;
use advect_core::field::Field3;
use advect_core::stepper::{AdvectionProblem, SerialStepper, ThreadedStepper};
use overlap::runner::{FaultSpec, RunConfig};
use overlap::Impl;

const PARITY_STEPS: [u64; 3] = [1, 2, 5];

fn reference(problem: AdvectionProblem, steps: u64) -> Field3 {
    let mut s = SerialStepper::new(problem);
    s.run(steps);
    s.into_state()
}

fn assert_bit_identical(got: &Field3, expect: &Field3, what: &str) {
    for (x, y, z) in expect.interior_range().iter() {
        assert_eq!(
            got.at(x, y, z).to_bits(),
            expect.at(x, y, z).to_bits(),
            "{what}: differs at ({x},{y},{z})"
        );
    }
}

#[test]
fn threaded_stepper_swap_matches_serial_at_both_parities() {
    let problem = AdvectionProblem::general_case(9);
    for steps in PARITY_STEPS {
        let expect = reference(problem, steps);
        for threads in [1usize, 2, 3] {
            let mut stepper = ThreadedStepper::new(problem, threads);
            stepper.run(steps);
            let what = format!("IV-A stepper, {threads} threads, {steps} steps");
            assert_bit_identical(&stepper.into_state(), &expect, &what);
        }
    }
}

#[test]
fn cpu_runners_match_serial_at_both_parities_and_on_thin_subdomains() {
    let n = 10;
    let problem = AdvectionProblem::general_case(n);
    // 5 and 7 tasks on 10 planes: prime counts decompose along one axis,
    // leaving subdomains 1–2 planes thick, all shell and no core.
    let thin = |tasks: usize| {
        let d = RunConfig::new(problem, 1).tasks(tasks).decomposition();
        d.subdomains
            .iter()
            .map(|s| s.extent.0.min(s.extent.1).min(s.extent.2))
            .min()
            .expect("at least one subdomain")
    };
    assert!(thin(5) <= 2 && thin(7) <= 2, "decomposition is not thin");
    for steps in PARITY_STEPS {
        let expect = reference(problem, steps);
        let single = RunConfig::new(problem, steps).with_threads(2);
        let what = format!("single_task, {steps} steps");
        assert_bit_identical(&Impl::SingleTask.run(&single, None), &expect, &what);
        for im in [Impl::BulkSync, Impl::Nonblocking, Impl::ThreadOverlap] {
            for tasks in [1usize, 2, 5, 7] {
                for threads in [1usize, 2] {
                    let cfg = RunConfig::new(problem, steps)
                        .tasks(tasks)
                        .with_threads(threads);
                    let what = format!(
                        "{}, {tasks} tasks × {threads} threads, {steps} steps",
                        im.name()
                    );
                    assert_bit_identical(&im.run(&cfg, None), &expect, &what);
                }
            }
        }
    }
}

/// A uniform draw in `[0, 1)` from a splitmix64 stream.
fn unit(state: &mut u64) -> f64 {
    *state = simmpi::splitmix64(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

#[test]
fn pulse_fill_is_bit_identical_to_eval() {
    let mut rng = 0x5eed_u64;
    for case in 0..48 {
        // A non-cubic periodic grid and a non-cubic window into it, at a
        // non-zero offset that may run past the domain's far edge.
        let grid: [usize; 3] = std::array::from_fn(|_| 6 + (unit(&mut rng) * 10.0) as usize);
        let spacing = 0.05 + unit(&mut rng) * 0.1;
        let domain = grid.map(|g| g as f64 * spacing);
        let extent: [usize; 3] =
            std::array::from_fn(|d| 1 + (unit(&mut rng) * grid[d] as f64) as usize);
        let origin: [i64; 3] = std::array::from_fn(|d| (unit(&mut rng) * grid[d] as f64) as i64);
        // Centres within a few grid points of the periodic wrap, on
        // either side, so minimum-image deltas flip sign inside the window.
        let center: [f64; 3] = std::array::from_fn(|d| {
            let near = (unit(&mut rng) - 0.5) * 4.0 * spacing;
            if unit(&mut rng) < 0.5 {
                near.rem_euclid(domain[d])
            } else {
                domain[d] - near.abs()
            }
        });
        let pulse = GaussianPulse {
            center,
            sigma: domain[0] * (0.05 + unit(&mut rng) * 0.2),
            domain,
            velocity: Velocity::new(-0.5 - unit(&mut rng), unit(&mut rng) - 0.5, -unit(&mut rng)),
        };
        let t = if case % 4 == 0 {
            0.0
        } else {
            unit(&mut rng) * 3.0
        };
        let halo = 1 + case % 3;
        let mut f = Field3::new(extent[0], extent[1], extent[2], halo);
        pulse.fill(&mut f, origin, spacing, t);
        let at = |d: usize, i: i64| (origin[d] + i) as f64 * spacing;
        for (x, y, z) in f.full_range().iter() {
            let got = f.at(x, y, z);
            let expect = if f.interior_range().contains(x, y, z) {
                pulse.eval(at(0, x), at(1, y), at(2, z), t)
            } else {
                0.0 // halos untouched
            };
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "case {case}: {pulse:?} origin {origin:?} t {t} at ({x},{y},{z})"
            );
        }
    }
}

#[test]
fn straggler_throttle_covers_a_material_share_of_compute() {
    // At factor 3 a throttle over the whole compute sleeps 2× the traced
    // compute; requiring half of it means the throttled section is at
    // least a quarter of each rank's compute, not an emptied copy block.
    let factor = 3.0;
    let fault = FaultSpec {
        mpi: simmpi::FaultPlan::off().with_stragglers(1.0, factor),
        ..FaultSpec::off()
    };
    let problem = AdvectionProblem::general_case(24);
    for (im, threads) in [
        (Impl::BulkSync, 1usize),
        (Impl::Nonblocking, 1),
        (Impl::ThreadOverlap, 1),
        (Impl::ThreadOverlap, 2),
    ] {
        let cfg = RunConfig::new(problem, 4)
            .tasks(2)
            .with_threads(threads)
            .with_trace(true)
            .with_faults(fault);
        let (state, report) = im.run_with_report(&cfg, None);
        assert_bit_identical(&state, &reference(problem, 4), im.name());
        assert_eq!(report.traces.len(), 2);
        for (rank, (trace, f)) in report.traces.iter().zip(&report.fault).enumerate() {
            let compute: Vec<obs::Span> = trace
                .spans
                .iter()
                .filter(|s| s.cat == obs::Category::ComputeInterior)
                .cloned()
                .collect();
            let compute_ns = 1e9
                * obs::metrics::union_seconds(&obs::metrics::busy_intervals(
                    &compute,
                    obs::Resource::Compute,
                    obs::Axis::Wall,
                ));
            let throttle_ns = f.compute_throttle_ns as f64;
            assert!(
                compute_ns > 0.0 && throttle_ns >= 0.5 * compute_ns,
                "{} ({threads} threads) rank {rank}: throttle {throttle_ns} ns \
                 against {compute_ns} ns of traced compute",
                im.name()
            );
        }
    }
}
