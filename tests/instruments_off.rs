//! The off contract of every instrument layer — trace, causal stamping,
//! metrics, faults and the flight recorder — in one test binary: a layer
//! that is off allocates no state, alone or with every other layer off.
//!
//! Each layer counts its state allocations in one process-wide ledger
//! (`obs::states_allocated`), so the cases run serially from one
//! `#[test]`: a concurrent case would move the entries under measurement.

use advect_core::stepper::AdvectionProblem;
use obs::Layer;
use overlap::{BulkSyncMpi, FaultSpec, Impl, RunConfig, RunParams};
use serve::protocol::Request;
use serve::server::{Server, ServerConfig};
use simgpu::GpuSpec;

/// One ledger snapshot, indexed by `Layer as usize`.
fn ledger() -> [u64; 5] {
    Layer::ALL.map(obs::states_allocated)
}

/// `layer`'s growth since `before`.
fn moved(before: &[u64; 5], layer: Layer) -> u64 {
    obs::states_allocated(layer) - before[layer as usize]
}

fn config(steps: u64) -> RunConfig {
    RunConfig::new(AdvectionProblem::general_case(12), steps)
        .tasks(4)
        .with_threads(2)
        .with_block((8, 8))
        .with_thickness(1)
}

/// A switch matrix row: which layers `on` turns on, and the layers that
/// must then stay flat across every implementation.
type Case = (&'static str, fn(RunConfig) -> RunConfig, &'static [Layer]);

const CASES: [Case; 4] = [
    ("all off", |c| c, &Layer::ALL),
    (
        "trace off",
        |c| c.with_metrics(true).with_faults(FaultSpec::chaos(1)),
        &[Layer::Trace, Layer::Causal],
    ),
    (
        "metrics off",
        |c| c.with_trace(true).with_faults(FaultSpec::chaos(1)),
        &[Layer::Metrics],
    ),
    (
        "faults off",
        |c| c.with_trace(true).with_metrics(true),
        &[Layer::Fault],
    ),
];

fn off_layers_stay_flat() {
    let spec = GpuSpec::tesla_c2050();
    for (case, on, flat) in CASES {
        let before = ledger();
        for im in Impl::ALL {
            let cfg = on(config(2));
            let cfg = if im.uses_mpi() { cfg } else { cfg.tasks(1) };
            let _ = im.run_with_report(&cfg, Some(&spec));
        }
        for &layer in flat {
            assert_eq!(moved(&before, layer), 0, "{case}: {layer:?} allocated");
        }
    }
}

/// The ledger does observe each layer when on, so the zeros above mean
/// something.
fn on_layers_are_counted() {
    let before = ledger();
    let (_, report) = BulkSyncMpi::run_with_report(&config(3).with_trace(true));
    assert_eq!(moved(&before, Layer::Trace), 4, "one trace slab per rank");
    assert!(moved(&before, Layer::Causal) > 0);
    assert!(!report.causal_graph().edges.is_empty(), "no causal edges");

    let before = ledger();
    let (_, report) = BulkSyncMpi::run_with_report(&config(3).with_metrics(true));
    assert!(moved(&before, Layer::Metrics) > 0);
    let prom = report.metrics.render_prometheus();
    assert!(prom.contains("advect_mpi_wait_ns"), "{prom}");
    assert!(prom.contains("advect_step_ns"), "{prom}");
    let recv = report
        .metrics
        .histogram_snapshot("advect_mpi_recv_latency_ns");
    assert_eq!(recv.count, 72, "4 ranks x 6 receives x 3 steps");

    let before = ledger();
    Impl::BulkSync.run(&config(1).with_faults(FaultSpec::chaos(1)), None);
    assert_eq!(moved(&before, Layer::Fault), 4, "one limbo per mailbox");
}

fn request(seed: u64) -> Request {
    Request {
        tenant: "alloc".into(),
        params: RunParams {
            impl_slug: "bulk_sync".into(),
            grid: 8,
            steps: 1,
            tasks: 2,
            threads: 1,
            fault_seed: Some(seed),
            ..RunParams::default()
        },
        timeout_ms: None,
    }
}

/// Two full server lifecycles with every ring off construct no ring
/// state; a default server constructs its event, trace and log rings.
fn recorder_off_allocates_no_rings() {
    let before = ledger();
    for lap in 0..2u64 {
        let server = Server::start(ServerConfig {
            workers: 1,
            recorder_capacity: 0,
            trace_ring_capacity: 0,
            log_capacity: 0,
            ..ServerConfig::default()
        });
        for i in 0..4u64 {
            let resp = server.run(&request(1 + lap * 100 + i)).expect("runs");
            assert!(!resp.artifact.is_empty());
        }
        assert!(server.dump_json().is_err(), "dump needs the recorder");
        assert!(server.recorded_events().is_empty());
        server.shutdown();
    }
    assert_eq!(moved(&before, Layer::Recorder), 0, "recorder off");

    let before = ledger();
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let rings = moved(&before, Layer::Recorder);
    assert!(rings >= 3, "event + trace + log rings, saw {rings}");
    server.shutdown();
}

#[test]
fn instrument_layers_allocate_nothing_when_off() {
    off_layers_stay_flat();
    on_layers_are_counted();
    recorder_off_allocates_no_rings();
}
