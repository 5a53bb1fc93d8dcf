//! Run all nine of the paper's implementations (Sections IV-A … IV-I)
//! functionally on the simulated substrates, verify each against the
//! serial reference, and show what the performance model predicts for
//! them on Yona — the machine where the paper's headline factor-of-two
//! result appears.
//!
//! ```text
//! cargo run --release --example overlap_comparison
//! ```
//!
//! The `state hash` column fingerprints each final state's bits, so the
//! output of the default build and of the scalar-oracle build
//! (`--features advect-core/scalar-kernels`) must be byte-identical: a
//! fast path that drifted from the scalar one changes the hashes even
//! though each build still matches its own serial stepper.

use advection_overlap::prelude::*;
use serve::artifact::state_checksum;

fn main() {
    let problem = AdvectionProblem::general_case(16);
    let steps = 4;
    let spec = GpuSpec::tesla_c2050();

    let mut reference = SerialStepper::new(problem);
    reference.run(steps);

    println!(
        "functional layer: {}³ grid, {steps} steps, 4 MPI tasks, 2 threads/task",
        problem.n
    );
    println!(
        "{:<6} {:<28} {:>12} {:>10} {:>18}",
        "sect.", "implementation", "max|diff|", "verified", "state hash"
    );
    for im in overlap::Impl::ALL {
        let cfg = RunConfig::new(problem, steps)
            .tasks(if im.uses_mpi() { 4 } else { 1 })
            .with_threads(2)
            .with_block((8, 8))
            .with_thickness(if im == Impl::HybridOverlap { 1 } else { 2 });
        let state = im.run(&cfg, Some(&spec));
        let diff = state.max_abs_diff(reference.state());
        println!(
            "{:<6} {:<28} {:>12.1e} {:>10} {:>18}",
            im.section(),
            im.name(),
            diff,
            if diff == 0.0 { "bit-exact" } else { "FAILED" },
            format!("{:016x}", state_checksum(&state))
        );
        assert_eq!(diff, 0.0);
    }

    // The performance layer: what each implementation achieves on Yona at
    // the paper's scales (best over tuning parameters).
    let m = yona();
    println!();
    println!("performance model: Yona, 420³, best over threads/task and box thickness (GF)");
    print!("{:<28}", "implementation");
    let node_counts = [1usize, 2, 4, 8, 16];
    for n in node_counts {
        print!(
            " {:>8}",
            format!("{n} node{}", if n > 1 { "s" } else { "" })
        );
    }
    println!();
    for im in perfmodel::AnyImpl::ALL {
        print!("{:<28}", im.label());
        for n in node_counts {
            let b = perfmodel::best_gf(&m, im, n * 12, (32, 8));
            if b.gf > 0.0 {
                print!(" {:>8.1}", b.gf);
            } else {
                print!(" {:>8}", "-");
            }
        }
        println!();
    }
    println!();
    println!(
        "the CPU+GPU full-overlap implementation (IV-I) dominates the other parallel\n\
         implementations by ≥2x and nearly matches the GPU-resident 86 GF per node —\n\
         the paper's headline result."
    );
}
