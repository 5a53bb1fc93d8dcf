//! The metric tables: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a test checks it).

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("solve_gflops", "GF/s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("cold_ms_p50", "ms"),
    ("rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Stage names of the per-request decomposition.
macro_rules! stage_shares {
    ($band:literal) => {
        [
            (concat!("serve.", $band, ".accept_share"), "frac"),
            (concat!("serve.", $band, ".queue_share"), "frac"),
            (concat!("serve.", $band, ".execute_share"), "frac"),
            (concat!("serve.", $band, ".render_share"), "frac"),
            (concat!("serve.", $band, ".respond_share"), "frac"),
            (concat!("serve.", $band, ".gap_share"), "frac"),
        ]
    };
}

const HOST_AND_CORE: [(&str, &str); 30] = [
    ("host.cpus", "count"),
    ("host.llc_mib", "MiB"),
    ("host.copy_gbs", "GB/s"),
    ("host.triad_gbs", "GB/s"),
    ("advect-core.stencil_gflops", "GF/s"),
    ("advect-core.stencil_roofline_frac", "frac"),
    ("advect-core.state_copy_ms", "ms"),
    ("advect-core.init_ms", "ms"),
    ("advect-core.serial_step_ms", "ms"),
    ("overlap.assemble_ms", "ms"),
    ("overlap.halo_exchange_us", "us"),
    ("overlap.gflops", "GF/s"),
    ("overlap.step_ms", "ms"),
    ("overlap.fixed_ms", "ms"),
    ("simmpi.world_launch_us", "us"),
    ("simmpi.wait_frac", "frac"),
    ("simmpi.recycle_frac", "frac"),
    ("simmpi.msgs_per_step", "count"),
    ("simmpi.values_per_step", "count"),
    ("simgpu.kernel_gpts", "Gpt/s"),
    ("simgpu.launch_overhead_us", "us"),
    ("simgpu.pcie_gbs", "GB/s"),
    ("simgpu.virtual_compute_s_per_step", "s"),
    ("simgpu.virtual_copy_s_per_step", "s"),
    ("simgpu.launches_per_step", "count"),
    ("simgpu.pcie_values_per_step", "count"),
    ("serve.parse_us", "us"),
    ("serve.canonicalize_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
];

const SERVE_AND_OBS: [(&str, &str); 13] = [
    ("serve.execute_ms_p50", "ms"),
    ("serve.render_ms_p50", "ms"),
    ("serve.respond_ms_p50", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_frac", "frac"),
    ("serve.dedup_frac", "frac"),
    ("obs.chrome_export_ms", "ms"),
    ("obs.trace_on_ratio", "ratio"),
    ("obs.trace_on_ratio_q1", "ratio"),
    ("obs.trace_on_ratio_q3", "ratio"),
    ("obs.self_time_covered_frac", "frac"),
    ("obs.phase.overlap_share", "frac"),
    ("obs.phase.unattributed_share", "frac"),
];

const PHASES: [(&str, &str); 12] = [
    ("obs.phase.compute.interior_share", "frac"),
    ("obs.phase.compute.veneer_share", "frac"),
    ("obs.phase.pack_share", "frac"),
    ("obs.phase.unpack_share", "frac"),
    ("obs.phase.mpi.send_share", "frac"),
    ("obs.phase.mpi.recv_share", "frac"),
    ("obs.phase.mpi.wait_share", "frac"),
    ("obs.phase.mpi.allreduce_share", "frac"),
    ("obs.phase.mpi.barrier_share", "frac"),
    ("obs.phase.pcie.h2d_share", "frac"),
    ("obs.phase.pcie.d2h_share", "frac"),
    ("obs.phase.kernel.launch_share", "frac"),
];

/// Per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut v = HOST_AND_CORE.to_vec();
    v.extend(SERVE_AND_OBS);
    v.extend(PHASES);
    v.extend(stage_shares!("p50"));
    v.extend(stage_shares!("p99"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use figures::json::Value;

    fn listed(doc: &Value, section: &str) -> Vec<(String, String)> {
        match &doc[section] {
            Value::Array(items) => items
                .iter()
                .map(|m| match (&m["name"], &m["unit"]) {
                    (Value::String(n), Value::String(u)) => (n.clone(), u.clone()),
                    other => panic!("bad {section} entry {other:?}"),
                })
                .collect(),
            other => panic!("{section} is not an array: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&per_layer()));
        let names: Vec<String> = match &doc["workloads"] {
            Value::Array(ws) => ws
                .iter()
                .map(|w| match &w["name"] {
                    Value::String(s) => s.clone(),
                    other => panic!("bad workload {other:?}"),
                })
                .collect(),
            other => panic!("workloads is not an array: {other:?}"),
        };
        let ours: Vec<String> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        all.extend(per_layer().iter().map(|(n, _)| *n));
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(per_layer().len() <= 128);
        for n in all {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }
}
