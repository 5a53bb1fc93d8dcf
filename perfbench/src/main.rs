//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload <cpu_large|halo_small|gpu_hybrid|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the named workload from the seed for the given seconds of
//! measurement, checks every result bit for bit against the serial
//! oracle, prints every metric by name with its unit, and ends with one
//! JSON line: end-to-end metrics untraced (`--trace 0`), per-layer
//! metrics traced (`--trace 1`, which also writes its spans to
//! `.bench_out/`). Exits 1 when any operation failed, 2 on bad arguments
//! or a host too small for the workload. See README.md.

mod decompose;
mod host;
mod layers;
mod metrics;
mod mix;
mod run;
mod solve;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpus = host::cpus();
    for (what, width) in workload::widths(args.workload) {
        if let Err(e) = host::check_width(what, width, cpus) {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::from(2);
        }
    }
    let out = match run::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            return ExitCode::from(2);
        }
    };
    let wanted: Vec<(&str, &str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END.to_vec()
    };
    println!(
        "workload {} seed {} seconds {} trace {} (host: {cpus} CPUs)",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for f in &out.failures {
        println!("  FAILED {f}");
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  fail_frac = {fail_frac} ({} of {})",
        out.failed, out.attempted
    );
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let Some(&value) = out.metrics.get(name) else {
            eprintln!("perfbench: internal error: metric {name} was not measured");
            return ExitCode::from(2);
        };
        if !value.is_finite() {
            eprintln!("perfbench: internal error: metric {name} = {value}");
            return ExitCode::from(2);
        }
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            run::num(value)
        ));
    }
    if let Some(doc) = &out.trace_doc {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.json", args.workload.name, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("  spans and per-layer tables written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
