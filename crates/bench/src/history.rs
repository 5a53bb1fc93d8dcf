//! Bench-snapshot trajectory: every committed `BENCH_<n>.json` at the
//! repository root, parsed into one ordered history. The history is the
//! single source for the CI perf gate (`bench_snapshot --check` routes
//! through [`History::check`] against the latest committed snapshot) and
//! for the `bench_history` regression dashboard (sparkline table plus
//! per-metric deltas between the two most recent snapshots).

use obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// How a metric's movement should be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: bigger is better.
    HigherIsBetter,
    /// Duration-like (`*_seconds`): smaller is better.
    LowerIsBetter,
    /// Overhead ratios (`*_ratio`): healthy near 1.0, drift either way
    /// is a finding, not a regression.
    NearOne,
    /// Benchmark configuration (grid sizes, task counts): not a metric.
    Config,
}

/// Keys that describe the benchmark setup rather than a measurement.
/// Any key ending in `_threads` or `_grid` is also configuration: it
/// records the shape a section ran at, not a result.
const CONFIG_KEYS: &[&str] = &[
    "grid",
    "flops_per_point",
    "exchange_tasks",
    "numa_nodes",
    "numa_cores_per_node",
    "timetile_llc_mib",
];

/// Whether a key is a latency in milliseconds (`serve_p99_ms`,
/// `serve_p99_ms_t4`): lower is better, and [`History::check`] gates it
/// with the tolerance inverted.
fn is_latency_ms(key: &str) -> bool {
    key.ends_with("_ms") || key.contains("_ms_t")
}

/// Classify a snapshot key by naming convention.
pub fn direction(key: &str) -> Direction {
    if CONFIG_KEYS.contains(&key) || key.ends_with("_threads") || key.ends_with("_grid") {
        Direction::Config
    } else if key.ends_with("_ratio") {
        Direction::NearOne
    } else if key.ends_with("_seconds") || is_latency_ms(key) {
        Direction::LowerIsBetter
    } else if key.ends_with("_share") {
        // Concentration shares (e.g. the largest rank's slice of total
        // wait-blame): a rise means one participant dominates.
        Direction::LowerIsBetter
    } else {
        Direction::HigherIsBetter
    }
}

/// One committed `BENCH_<n>.json`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The `<n>` in the filename; orders the history.
    pub index: u64,
    /// Where the snapshot was read from.
    pub path: PathBuf,
    /// Every numeric top-level field.
    pub values: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Parse one snapshot file.
    pub fn load(index: u64, path: &Path) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Value::Object(fields) = &doc else {
            return Err(format!("{}: not a JSON object", path.display()));
        };
        let mut values = BTreeMap::new();
        for (k, v) in fields {
            if let Some(x) = v.as_f64() {
                values.insert(k.clone(), x);
            }
        }
        if values.is_empty() {
            return Err(format!("{}: no numeric fields", path.display()));
        }
        Ok(Snapshot {
            index,
            path: path.to_path_buf(),
            values,
        })
    }

    /// A metric's value, if this snapshot recorded it.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// The thread count the section owning `key` ran at, if this
    /// snapshot recorded one: the longest `<section>_threads` key whose
    /// stem prefixes `key` (`stencil_threads` governs `stencil_fast_gf`).
    pub fn threads_for(&self, key: &str) -> Option<f64> {
        self.values
            .iter()
            .filter_map(|(k, v)| {
                let stem = k.strip_suffix("_threads")?;
                (!stem.is_empty() && key.starts_with(stem)).then_some((stem.len(), *v))
            })
            .max_by_key(|&(len, _)| len)
            .map(|(_, v)| v)
    }
}

/// The ordered sequence of committed snapshots.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Snapshots sorted by index, oldest first.
    pub snapshots: Vec<Snapshot>,
}

/// Absolute floor every `*_off_overhead_ratio` should clear under
/// [`History::check`]: each instrumentation layer, disabled, may cost at
/// most 10% of the exchange throughput measured before the layer
/// existed. Advisory (a below-floor ratio warns, it does not fail the
/// check): the fresh numerator and the committed denominator are by
/// construction measured in different host scheduler epochs, and the
/// exchange bench swings far more than 10% between epochs — the
/// *enforced* off-path contract is the deterministic zero-allocation
/// test (`tests/instruments_off.rs`).
pub const RATIO_FLOOR: f64 = 0.90;

/// One gate comparison from [`History::check`].
#[derive(Debug, Clone)]
pub struct Gate {
    /// Metric key.
    pub key: String,
    /// The freshly measured value.
    pub fresh: f64,
    /// The latest committed value.
    pub committed: f64,
    /// `fresh / committed`.
    pub ratio: f64,
    /// Whether the ratio clears the tolerance floor.
    pub ok: bool,
    /// Advisory gate: a miss is reported as a warning, not counted as a
    /// regression (see [`RATIO_FLOOR`] for why off-overhead ratios are
    /// advisory).
    pub warn: bool,
}

/// The outcome of gating fresh numbers against the latest snapshot.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The snapshot the gates compared against (its file path).
    pub baseline: Option<PathBuf>,
    /// Per-metric comparisons.
    pub gates: Vec<Gate>,
    /// Metrics without a committed baseline, skipped.
    pub skipped: Vec<String>,
}

impl CheckOutcome {
    /// Whether every *enforced* gate cleared its floor (advisory gates
    /// may warn without failing the check).
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|g| g.ok || g.warn)
    }

    /// Number of failing enforced gates.
    pub fn regressions(&self) -> usize {
        self.gates.iter().filter(|g| !g.ok && !g.warn).count()
    }

    /// Number of advisory gates below their floor.
    pub fn warnings(&self) -> usize {
        self.gates.iter().filter(|g| !g.ok && g.warn).count()
    }
}

impl History {
    /// Scan `root` for `BENCH_<n>.json` files and load them in order.
    /// Unparseable files are errors; an empty directory yields an empty
    /// history (callers decide whether that is fatal).
    pub fn load(root: &Path) -> Result<History, String> {
        let mut snapshots = Vec::new();
        let entries = std::fs::read_dir(root).map_err(|e| format!("{}: {e}", root.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(index) = name
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            snapshots.push(Snapshot::load(index, &entry.path())?);
        }
        snapshots.sort_by_key(|s| s.index);
        Ok(History { snapshots })
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }

    /// The next free snapshot index (`latest + 1`, or 1 when empty).
    pub fn next_index(&self) -> u64 {
        self.latest().map_or(1, |s| s.index + 1)
    }

    /// Every metric key recorded by any snapshot, config keys excluded.
    pub fn metric_keys(&self) -> Vec<String> {
        let mut keys = BTreeSet::new();
        for s in &self.snapshots {
            for k in s.values.keys() {
                if direction(k) != Direction::Config {
                    keys.insert(k.clone());
                }
            }
        }
        keys.into_iter().collect()
    }

    /// Gate fresh measurements against the latest committed snapshot:
    /// each `(key, fresh)` whose committed value exists and is positive
    /// must satisfy `fresh / committed >= tolerance`.
    ///
    /// `*_off_overhead_ratio` keys gate differently: they are already
    /// normalized against their pre-layer baseline, so they compare to
    /// the absolute [`RATIO_FLOOR`] regardless of what any snapshot
    /// committed — a drifting baseline must not grandfather in a real
    /// instrumentation overhead. These gates are *advisory* (a miss
    /// warns instead of failing): the fresh and committed sides of a
    /// cross-build ratio live in different scheduler epochs, and no
    /// same-run normalization can remove that without cancelling the
    /// measurement itself — the zero-allocation tests are the enforced
    /// off-path contract. Raw `*_per_sec` exchange-throughput keys are
    /// advisory for the same reason: on a 1-vCPU guest, hypervisor CPU
    /// steal — invisible to the guest and unbounded — swings the
    /// 4-thread exchange bench 2.5× with the binary unchanged (309→122M
    /// values/s observed within hours), so a raw-throughput floor gates
    /// the hypervisor, not the code. The enforced exchange-regression
    /// signal is `exchange_pooled_over_fresh`, whose two sides are
    /// measured seconds apart in the same run and epoch.
    pub fn check(&self, fresh: &[(&str, f64)], tolerance: f64) -> CheckOutcome {
        let mut outcome = CheckOutcome {
            baseline: self.latest().map(|s| s.path.clone()),
            gates: Vec::new(),
            skipped: Vec::new(),
        };
        for &(key, value) in fresh {
            if key.ends_with("_off_overhead_ratio") {
                outcome.gates.push(Gate {
                    key: key.to_string(),
                    fresh: value,
                    committed: RATIO_FLOOR,
                    ratio: value,
                    ok: value >= RATIO_FLOOR,
                    warn: true,
                });
                continue;
            }
            let committed = self.latest().and_then(|s| s.get(key)).unwrap_or(0.0);
            if committed <= 0.0 {
                outcome.skipped.push(key.to_string());
                continue;
            }
            let ratio = value / committed;
            // Latency keys invert: the gate trips when fresh grows past
            // 1/tolerance of committed. Both latency and request-rate
            // keys are advisory — they measure the shared runner's
            // scheduler as much as the code (the enforced server signal
            // is `serve_cache_hit_speedup`, a same-run ratio).
            let (ok, warn) = if is_latency_ms(key) {
                (ratio <= 1.0 / tolerance, true)
            } else {
                (
                    ratio >= tolerance,
                    key.ends_with("_per_sec") || key.ends_with("_rps") || key.contains("_rps_t"),
                )
            };
            outcome.gates.push(Gate {
                key: key.to_string(),
                fresh: value,
                committed,
                ratio,
                ok,
                warn,
            });
        }
        outcome
    }

    /// Markdown dashboard: one sparkline row per metric across the whole
    /// history, the latest value, and its delta against the previous
    /// snapshot classified by [`direction`].
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Bench history ({} snapshots)\n\n",
            self.snapshots.len()
        ));
        if self.snapshots.is_empty() {
            out.push_str("_No committed BENCH_<n>.json snapshots found._\n");
            return out;
        }
        let indices: Vec<String> = self.snapshots.iter().map(|s| s.index.to_string()).collect();
        out.push_str(&format!("Snapshots: {}\n\n", indices.join(" → ")));
        out.push_str("| metric | trend | latest | vs prev | reading |\n");
        out.push_str("|---|---|---|---|---|\n");
        for key in self.metric_keys() {
            let series: Vec<Option<f64>> = self.snapshots.iter().map(|s| s.get(&key)).collect();
            let present: Vec<&Snapshot> = self
                .snapshots
                .iter()
                .filter(|s| s.get(&key).is_some())
                .collect();
            let Some(&last_snap) = present.last() else {
                continue;
            };
            let latest = last_snap.get(&key).expect("present");
            let prev_snap = present.len().checked_sub(2).map(|i| present[i]);
            // A GF measured at 4 workers is not a trend against a GF
            // measured at 1: when both snapshots record the owning
            // section's thread count and they differ, refuse to compare.
            let (delta, reading) = match prev_snap {
                Some(prev) => match (prev.threads_for(&key), last_snap.threads_for(&key)) {
                    (Some(a), Some(b)) if a != b => (
                        format!("n/a ({}→{} threads)", a as u64, b as u64),
                        "not comparable".to_string(),
                    ),
                    _ => {
                        let p = prev.get(&key).expect("present");
                        if p != 0.0 {
                            let pct = (latest - p) / p * 100.0;
                            (format!("{pct:+.1}%"), classify(&key, pct))
                        } else {
                            ("new".to_string(), "—".to_string())
                        }
                    }
                },
                None => ("new".to_string(), "—".to_string()),
            };
            out.push_str(&format!(
                "| {key} | `{}` | {} | {delta} | {reading} |\n",
                sparkline(&series),
                fmt_value(latest),
            ));
        }
        // Overhead-ratio lineage: each instrumentation layer's off-cost
        // ratio, from the snapshot that introduced it onward.
        let ratios: Vec<String> = self
            .metric_keys()
            .into_iter()
            .filter(|k| k.ends_with("_overhead_ratio"))
            .collect();
        if !ratios.is_empty() {
            out.push_str("\n### Overhead-ratio lineage\n\n");
            out.push_str(
                "Each instrumentation layer must stay near 1.0 when \
                 disabled; the ratio compares exchange throughput with \
                 the layer's plumbing present-but-off against the \
                 snapshot that predates it.\n\n",
            );
            let mut header = String::from("| snapshot |");
            for r in &ratios {
                header.push_str(&format!(" {r} |"));
            }
            out.push_str(&header);
            out.push('\n');
            out.push_str(&format!("|---|{}\n", "---|".repeat(ratios.len())));
            for s in &self.snapshots {
                let mut row = format!("| {} |", s.index);
                for r in &ratios {
                    match s.get(r) {
                        Some(v) => row.push_str(&format!(" {v:.3} |")),
                        None => row.push_str(" — |"),
                    }
                }
                out.push_str(&row);
                out.push('\n');
            }
        }
        // Causal blame / divergence health from the latest snapshot that
        // carries the causal layer's keys (absent on snapshots predating
        // it): wait-blame concentration and model-vs-measured ranking
        // agreement from traced clean runs.
        if let Some(s) = self
            .snapshots
            .iter()
            .rev()
            .find(|s| s.get("blame_max_rank_share").is_some())
        {
            out.push_str(&format!(
                "\n### Causal blame / divergence (snapshot {})\n\n\
                 From one traced clean run per implementation: the \
                 largest rank's share of total wait-blame across the MPI \
                 implementations (toward 1.0 one rank dominates every \
                 wait; near 1/ranks the waits are balanced), and the \
                 model-vs-measured overlap ranking agreement over all \
                 nine implementations (1.0 = no confident inversion).\n\n\
                 | metric | value |\n|---|---|\n",
                s.index
            ));
            for key in ["blame_max_rank_share", "model_rank_agreement"] {
                if let Some(v) = s.get(key) {
                    out.push_str(&format!("| {key} | {v:.3} |\n"));
                }
            }
        }
        // Per-thread scaling curve from the latest snapshot that carries
        // one: pooled sweep and full-implementation GF with parallel
        // efficiency at each measured team width.
        if let Some(s) = self
            .snapshots
            .iter()
            .rev()
            .find(|s| s.values.keys().any(|k| k.starts_with("scaling_pool_t")))
        {
            let mut widths: Vec<u64> = s
                .values
                .keys()
                .filter_map(|k| {
                    k.strip_prefix("scaling_pool_t")?
                        .strip_suffix("_gf")?
                        .parse()
                        .ok()
                })
                .collect();
            widths.sort_unstable();
            out.push_str(&format!(
                "\n### Per-thread scaling (snapshot {})\n\n\
                 Parallel efficiency is `gf / (threads × gf₁)`; 1.0 is \
                 perfect scaling, and the curve bends where the team \
                 leaves the compute-bound regime.\n\n\
                 | threads | pool GF | pool eff | impl GF | impl eff |\n\
                 |---|---|---|---|---|\n",
                s.index
            ));
            for w in widths {
                let cell = |k: String| match s.get(&k) {
                    Some(v) => format!("{v:.3}"),
                    None => "—".to_string(),
                };
                out.push_str(&format!(
                    "| {w} | {} | {} | {} | {} |\n",
                    cell(format!("scaling_pool_t{w}_gf")),
                    cell(format!("scaling_pool_t{w}_eff")),
                    cell(format!("scaling_impl_t{w}_gf")),
                    cell(format!("scaling_impl_t{w}_eff")),
                ));
            }
        }
        // Steps-per-traversal curve from the latest snapshot that carries
        // a temporal-blocking section (absent on snapshots predating it):
        // implementation GF at each fused depth k and measured team width.
        if let Some(s) = self
            .snapshots
            .iter()
            .rev()
            .find(|s| s.values.keys().any(|k| k.starts_with("timetile_k")))
        {
            let mut ks: Vec<u64> = Vec::new();
            let mut ws: Vec<u64> = Vec::new();
            for key in s.values.keys() {
                if let Some((k, w)) = key
                    .strip_prefix("timetile_k")
                    .and_then(|r| r.strip_suffix("_gf"))
                    .and_then(|r| r.split_once("_t"))
                {
                    if let (Ok(k), Ok(w)) = (k.parse(), w.parse()) {
                        ks.push(k);
                        ws.push(w);
                    }
                }
            }
            ks.sort_unstable();
            ks.dedup();
            ws.sort_unstable();
            ws.dedup();
            out.push_str(&format!(
                "\n### Steps per traversal (snapshot {})\n\n\
                 Temporal blocking fuses k steps into one grid traversal; \
                 k = 1 is the classic streaming stepper on the same \
                 larger-than-LLC grid",
                s.index
            ));
            match (s.get("timetile_grid"), s.get("timetile_llc_mib")) {
                (Some(n), Some(mib)) => out.push_str(&format!(
                    " ({}³ against a {} MiB last-level cache).\n\n",
                    n as u64, mib as u64
                )),
                _ => out.push_str(".\n\n"),
            }
            let mut header = String::from("| steps/traversal |");
            for w in &ws {
                header.push_str(&format!(" {w}-thread GF |"));
            }
            out.push_str(&header);
            out.push('\n');
            out.push_str(&format!("|---|{}\n", "---|".repeat(ws.len())));
            for k in &ks {
                let mut row = format!("| {k} |");
                for w in &ws {
                    match s.get(&format!("timetile_k{k}_t{w}_gf")) {
                        Some(v) => row.push_str(&format!(" {v:.3} |")),
                        None => row.push_str(" — |"),
                    }
                }
                out.push_str(&row);
                out.push('\n');
            }
        }
        // Service saturation from the latest snapshot that carries the
        // run-server section (absent on snapshots predating it): the
        // load generator's closed-loop sweep over concurrent tenants,
        // plus the cache-hit speedup (cold execution over cached
        // response, same run — the one enforced server gate).
        if let Some(s) = self
            .snapshots
            .iter()
            .rev()
            .find(|s| s.values.keys().any(|k| k.starts_with("serve_rps_t")))
        {
            let mut tenants: Vec<u64> = s
                .values
                .keys()
                .filter_map(|k| k.strip_prefix("serve_rps_t")?.parse().ok())
                .collect();
            tenants.sort_unstable();
            out.push_str(&format!(
                "\n### Service saturation (snapshot {})\n\n\
                 Closed-loop load generation against the in-process run \
                 server, sweeping concurrent tenants",
                s.index
            ));
            match s.get("serve_threads") {
                Some(w) => out.push_str(&format!(" over {} worker(s).\n\n", w as u64)),
                None => out.push_str(".\n\n"),
            }
            out.push_str("| tenants | requests/s | p99 ms |\n|---|---|---|\n");
            for t in &tenants {
                let cell = |k: String| match s.get(&k) {
                    Some(v) => format!("{v:.1}"),
                    None => "—".to_string(),
                };
                out.push_str(&format!(
                    "| {t} | {} | {} |\n",
                    cell(format!("serve_rps_t{t}")),
                    cell(format!("serve_p99_ms_t{t}")),
                ));
            }
            if let Some(v) = s.get("serve_cache_hit_speedup") {
                out.push_str(&format!(
                    "\nCache-hit speedup (cold / cached, same run): **{v:.1}×**\n"
                ));
            }
        }
        out
    }

    /// JSON trajectory: the full per-snapshot values plus per-metric
    /// latest/delta summaries, for machine consumers (CI artifacts).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"snapshots\": [\n");
        for (i, s) in self.snapshots.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"index\": {}, \"path\": {}, \"values\": {{",
                s.index,
                obs::json::escape(&s.path.display().to_string())
            ));
            for (j, (k, v)) in s.values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", obs::json::escape(k), number(*v)));
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.snapshots.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"metrics\": {\n");
        let keys = self.metric_keys();
        for (i, key) in keys.iter().enumerate() {
            let present: Vec<&Snapshot> = self
                .snapshots
                .iter()
                .filter(|s| s.get(key).is_some())
                .collect();
            let latest = present.last().and_then(|s| s.get(key)).unwrap_or(0.0);
            let prev_snap = present.len().checked_sub(2).map(|i| present[i]);
            let comparable = match (prev_snap, present.last()) {
                (Some(prev), Some(last)) => match (prev.threads_for(key), last.threads_for(key)) {
                    (Some(a), Some(b)) => a == b,
                    _ => true,
                },
                _ => true,
            };
            let delta_pct = match prev_snap.and_then(|s| s.get(key)) {
                Some(p) if p != 0.0 && comparable => (latest - p) / p * 100.0,
                _ => 0.0,
            };
            out.push_str(&format!(
                "    {}: {{\"latest\": {}, \"delta_pct\": {}, \"comparable\": {comparable}}}",
                obs::json::escape(key),
                number(latest),
                number(delta_pct)
            ));
            out.push_str(if i + 1 < keys.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Human verdict for a percent move in `key`.
fn classify(key: &str, pct: f64) -> String {
    const NOISE_PCT: f64 = 5.0;
    if pct.abs() <= NOISE_PCT {
        return "steady".to_string();
    }
    match direction(key) {
        Direction::HigherIsBetter => {
            if pct > 0.0 {
                "improvement"
            } else {
                "regression"
            }
        }
        Direction::LowerIsBetter => {
            if pct < 0.0 {
                "improvement"
            } else {
                "regression"
            }
        }
        Direction::NearOne => "drift",
        Direction::Config => "—",
    }
    .to_string()
}

/// Eight-level sparkline over the present values; missing entries render
/// as `·`.
fn sparkline(series: &[Option<f64>]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let present: Vec<f64> = series.iter().flatten().copied().collect();
    let (lo, hi) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    series
        .iter()
        .map(|v| match v {
            None => '·',
            Some(x) => {
                if hi <= lo {
                    BARS[3]
                } else {
                    let t = ((x - lo) / (hi - lo) * 7.0).round() as usize;
                    BARS[t.min(7)]
                }
            }
        })
        .collect()
}

/// Compact value formatting: large throughputs get thousands separators
/// dropped in favor of engineering notation; small numbers keep 3 d.p.
fn fmt_value(v: f64) -> String {
    if v.abs() >= 1e6 {
        format!(
            "{:.2}e{}",
            v / 10f64.powi(v.abs().log10() as i32),
            v.abs().log10() as i32
        )
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// JSON number formatting shared with the exporters: finite, trailing
/// precision trimmed.
fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(index: u64, pairs: &[(&str, f64)]) -> Snapshot {
        Snapshot {
            index,
            path: PathBuf::from(format!("BENCH_{index}.json")),
            values: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn loads_committed_history_in_order() {
        // The repo root carries the real snapshots this dashboard serves.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let h = History::load(root).expect("history parses");
        assert!(h.snapshots.len() >= 4, "expected committed snapshots");
        let indices: Vec<u64> = h.snapshots.iter().map(|s| s.index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
        assert_eq!(h.next_index(), indices.last().unwrap() + 1);
        assert!(h.latest().unwrap().get("stencil_fast_gf").unwrap() > 0.0);
        let md = h.render_markdown();
        assert!(md.contains("stencil_fast_gf"), "{md}");
        assert!(md.contains("Overhead-ratio lineage"), "{md}");
        let json = h.render_json();
        let doc = Value::parse(&json).expect("valid json");
        assert!(doc["snapshots"].as_array().unwrap().len() >= 4);
    }

    #[test]
    fn direction_classification_follows_naming() {
        assert_eq!(direction("grid"), Direction::Config);
        assert_eq!(direction("sweep_threads"), Direction::Config);
        assert_eq!(direction("stencil_threads"), Direction::Config);
        assert_eq!(direction("scaling_grid"), Direction::Config);
        assert_eq!(direction("scaling_full_threads"), Direction::Config);
        assert_eq!(direction("numa_nodes"), Direction::Config);
        assert_eq!(direction("numa_cores_per_node"), Direction::Config);
        assert_eq!(direction("timetile_llc_mib"), Direction::Config);
        assert_eq!(direction("timetile_grid"), Direction::Config);
        assert_eq!(direction("timetile_full_threads"), Direction::Config);
        assert_eq!(direction("timetile_k4_t1_gf"), Direction::HigherIsBetter);
        assert_eq!(
            direction("timetile_k4_over_k1_t1"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("tracing_off_overhead_ratio"), Direction::NearOne);
        assert_eq!(
            direction("figures_report_seconds"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction("stencil_fast_gf"), Direction::HigherIsBetter);
        assert_eq!(direction("scaling_pool_t4_gf"), Direction::HigherIsBetter);
        assert_eq!(direction("causal_off_overhead_ratio"), Direction::NearOne);
        assert_eq!(direction("blame_max_rank_share"), Direction::LowerIsBetter);
        assert_eq!(direction("model_rank_agreement"), Direction::HigherIsBetter);
        assert_eq!(direction("serve_threads"), Direction::Config);
        assert_eq!(direction("serve_rps_t4"), Direction::HigherIsBetter);
        assert_eq!(direction("serve_p99_ms_t4"), Direction::LowerIsBetter);
        assert_eq!(direction("serve_p99_ms"), Direction::LowerIsBetter);
        assert_eq!(
            direction("serve_cache_hit_speedup"),
            Direction::HigherIsBetter
        );
    }

    #[test]
    fn latency_gates_invert_and_rps_gates_warn() {
        let h = History {
            snapshots: vec![snap(
                9,
                &[
                    ("serve_p99_ms_t4", 10.0),
                    ("serve_rps_t4", 1000.0),
                    ("serve_cache_hit_speedup", 50.0),
                ],
            )],
        };
        // Latency improving (dropping) passes even though the raw ratio
        // 0.5 is far below the 0.75 tolerance...
        let faster = h.check(&[("serve_p99_ms_t4", 5.0)], 0.75);
        assert!(faster.passed(), "{faster:?}");
        assert_eq!(faster.warnings(), 0);
        // ...and regressing past 1/tolerance warns without failing (the
        // runner's scheduler owns most of the variance).
        let slower = h.check(&[("serve_p99_ms_t4", 20.0)], 0.75);
        assert!(slower.passed(), "advisory latency gate must not fail");
        assert_eq!(slower.warnings(), 1);
        // Request rate collapses warn like `_per_sec` keys...
        let slow_rps = h.check(&[("serve_rps_t4", 100.0)], 0.75);
        assert!(slow_rps.passed(), "{slow_rps:?}");
        assert_eq!(slow_rps.warnings(), 1);
        // ...while the same-run cache-hit speedup stays enforced.
        let broken_cache = h.check(&[("serve_cache_hit_speedup", 2.0)], 0.75);
        assert!(!broken_cache.passed());
        assert_eq!(broken_cache.regressions(), 1);
    }

    #[test]
    fn markdown_renders_the_saturation_table() {
        let h = History {
            snapshots: vec![snap(
                9,
                &[
                    ("serve_threads", 2.0),
                    ("serve_rps_t1", 800.0),
                    ("serve_p99_ms_t1", 4.2),
                    ("serve_rps_t4", 2100.0),
                    ("serve_p99_ms_t4", 9.8),
                    ("serve_cache_hit_speedup", 42.0),
                ],
            )],
        };
        let md = h.render_markdown();
        assert!(md.contains("Service saturation (snapshot 9)"), "{md}");
        assert!(md.contains("over 2 worker(s)"), "{md}");
        assert!(md.contains("| 1 | 800.0 | 4.2 |"), "{md}");
        assert!(md.contains("| 4 | 2100.0 | 9.8 |"), "{md}");
        assert!(md.contains("**42.0×**"), "{md}");
    }

    #[test]
    fn markdown_survives_snapshots_without_a_serve_section() {
        let h = History {
            snapshots: vec![snap(5, &[("stencil_fast_gf", 19.0)])],
        };
        let md = h.render_markdown();
        assert!(!md.contains("Service saturation"), "{md}");
    }

    #[test]
    fn markdown_renders_the_causal_section() {
        let h = History {
            snapshots: vec![
                // A pre-causal snapshot must not break the section.
                snap(7, &[("exchange_values_per_sec", 1.0e8)]),
                snap(
                    8,
                    &[
                        ("blame_max_rank_share", 0.412),
                        ("model_rank_agreement", 1.0),
                        ("causal_off_overhead_ratio", 1.02),
                    ],
                ),
            ],
        };
        let md = h.render_markdown();
        assert!(
            md.contains("Causal blame / divergence (snapshot 8)"),
            "{md}"
        );
        assert!(md.contains("| blame_max_rank_share | 0.412 |"), "{md}");
        assert!(md.contains("| model_rank_agreement | 1.000 |"), "{md}");
        // The causal off-ratio joins the overhead lineage table.
        assert!(md.contains("causal_off_overhead_ratio"), "{md}");
    }

    #[test]
    fn histories_without_causal_keys_still_render() {
        let h = History {
            snapshots: vec![snap(5, &[("stencil_fast_gf", 19.0)])],
        };
        let md = h.render_markdown();
        assert!(!md.contains("Causal blame / divergence"), "{md}");
        let json = h.render_json();
        Value::parse(&json).expect("valid json");
    }

    #[test]
    fn off_overhead_ratios_gate_on_the_absolute_floor() {
        // Even with a committed (mis-oriented) 0.697 in the history, the
        // ratio compares to the absolute floor: ≥ 0.90 is clean, below
        // warns — advisory, so the check still passes (the enforced
        // off-path contract is the zero-allocation suite).
        let h = History {
            snapshots: vec![snap(5, &[("tracing_off_overhead_ratio", 0.697)])],
        };
        let ok = h.check(&[("tracing_off_overhead_ratio", 1.43)], 0.75);
        assert!(ok.passed(), "{ok:?}");
        assert_eq!(ok.warnings(), 0);
        assert_eq!(ok.gates[0].committed, RATIO_FLOOR);
        let bad = h.check(&[("tracing_off_overhead_ratio", 0.85)], 0.75);
        assert!(bad.passed(), "advisory gates must not fail the check");
        // The relative tolerance would have cleared 0.85 against 0.697;
        // only the absolute floor flags it.
        assert_eq!(bad.warnings(), 1);
        assert_eq!(bad.regressions(), 0);
    }

    #[test]
    fn per_sec_keys_are_advisory_under_hypervisor_steal() {
        let h = History {
            snapshots: vec![snap(
                8,
                &[
                    ("exchange_values_per_sec", 260.0e6),
                    ("exchange_pooled_over_fresh", 1.10),
                ],
            )],
        };
        // A raw-throughput collapse warns (steal epochs swing it 2.5×
        // with the binary unchanged) but does not fail the check...
        let steal = h.check(&[("exchange_values_per_sec", 122.0e6)], 0.75);
        assert!(steal.passed(), "{steal:?}");
        assert_eq!(steal.warnings(), 1);
        assert_eq!(steal.regressions(), 0);
        // ...while the same-epoch pooled/fresh ratio stays enforced.
        let real = h.check(&[("exchange_pooled_over_fresh", 0.70)], 0.75);
        assert!(!real.passed());
        assert_eq!(real.regressions(), 1);
    }

    #[test]
    fn threads_for_picks_the_owning_section() {
        let s = snap(
            6,
            &[
                ("stencil_threads", 1.0),
                ("stencil_fast_gf", 19.0),
                ("exchange_threads", 1.0),
                ("sweep_threads", 4.0),
                ("scaling_full_threads", 4.0),
            ],
        );
        assert_eq!(s.threads_for("stencil_fast_gf"), Some(1.0));
        assert_eq!(s.threads_for("exchange_values_per_sec"), Some(1.0));
        // No `*_threads` stem prefixes the per-width scaling keys: the
        // width lives in the key itself, so trends always compare like
        // with like.
        assert_eq!(s.threads_for("scaling_pool_t4_gf"), None);
        assert_eq!(s.threads_for("figures_report_seconds"), None);
    }

    #[test]
    fn markdown_refuses_cross_thread_trends() {
        let h = History {
            snapshots: vec![
                snap(1, &[("stencil_threads", 1.0), ("stencil_fast_gf", 10.0)]),
                snap(2, &[("stencil_threads", 4.0), ("stencil_fast_gf", 30.0)]),
            ],
        };
        let md = h.render_markdown();
        assert!(md.contains("not comparable"), "{md}");
        assert!(md.contains("n/a (1→4 threads)"), "{md}");
        assert!(!md.contains("improvement"), "{md}");
        let json = h.render_json();
        let doc = Value::parse(&json).expect("valid json");
        let m = &doc["metrics"]["stencil_fast_gf"];
        assert_eq!(m["comparable"].as_bool(), Some(false));
        assert_eq!(m["delta_pct"].as_f64(), Some(0.0));
    }

    #[test]
    fn markdown_renders_the_scaling_table() {
        let h = History {
            snapshots: vec![snap(
                6,
                &[
                    ("scaling_pool_t1_gf", 19.0),
                    ("scaling_pool_t1_eff", 1.0),
                    ("scaling_pool_t4_gf", 20.0),
                    ("scaling_pool_t4_eff", 0.263),
                    ("scaling_impl_t1_gf", 8.0),
                    ("scaling_impl_t1_eff", 1.0),
                ],
            )],
        };
        let md = h.render_markdown();
        assert!(md.contains("Per-thread scaling (snapshot 6)"), "{md}");
        assert!(
            md.contains("| 1 | 19.000 | 1.000 | 8.000 | 1.000 |"),
            "{md}"
        );
        assert!(md.contains("| 4 | 20.000 | 0.263 | — | — |"), "{md}");
    }

    #[test]
    fn markdown_renders_the_timetile_table() {
        let h = History {
            snapshots: vec![snap(
                7,
                &[
                    ("timetile_grid", 256.0),
                    ("timetile_llc_mib", 260.0),
                    ("timetile_k1_t1_gf", 2.0),
                    ("timetile_k4_t1_gf", 3.0),
                    ("timetile_k1_t4_gf", 6.0),
                    ("timetile_k8_t4_gf", 9.5),
                ],
            )],
        };
        let md = h.render_markdown();
        assert!(md.contains("Steps per traversal (snapshot 7)"), "{md}");
        assert!(
            md.contains("(256³ against a 260 MiB last-level cache)"),
            "{md}"
        );
        assert!(
            md.contains("| steps/traversal | 1-thread GF | 4-thread GF |"),
            "{md}"
        );
        assert!(md.contains("| 1 | 2.000 | 6.000 |"), "{md}");
        assert!(md.contains("| 4 | 3.000 | — |"), "{md}");
        assert!(md.contains("| 8 | — | 9.500 |"), "{md}");
    }

    #[test]
    fn markdown_survives_snapshots_without_a_timetile_section() {
        // Every snapshot before PR 7 lacks timetile keys: the dashboard
        // must render them without the new table rather than erroring.
        let h = History {
            snapshots: vec![snap(5, &[("stencil_fast_gf", 19.0)])],
        };
        let md = h.render_markdown();
        assert!(!md.contains("Steps per traversal"), "{md}");
        assert!(md.contains("stencil_fast_gf"), "{md}");
    }

    #[test]
    fn check_gates_against_latest_and_skips_missing() {
        let h = History {
            snapshots: vec![
                snap(1, &[("stencil_fast_gf", 20.0)]),
                snap(2, &[("stencil_fast_gf", 10.0)]),
            ],
        };
        let outcome = h.check(
            &[("stencil_fast_gf", 9.0), ("exchange_values_per_sec", 1e8)],
            0.75,
        );
        // Gate compares against snapshot 2 (10.0), not snapshot 1 (20.0).
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.gates.len(), 1);
        assert!((outcome.gates[0].ratio - 0.9).abs() < 1e-12);
        assert_eq!(outcome.skipped, vec!["exchange_values_per_sec"]);

        let fail = h.check(&[("stencil_fast_gf", 5.0)], 0.75);
        assert!(!fail.passed());
        assert_eq!(fail.regressions(), 1);
    }

    #[test]
    fn markdown_classifies_regressions_and_improvements() {
        let h = History {
            snapshots: vec![
                snap(
                    1,
                    &[("stencil_fast_gf", 10.0), ("figures_report_seconds", 1.0)],
                ),
                snap(
                    2,
                    &[("stencil_fast_gf", 5.0), ("figures_report_seconds", 0.5)],
                ),
            ],
        };
        let md = h.render_markdown();
        assert!(md.contains("regression"), "{md}");
        assert!(md.contains("improvement"), "{md}");
        // Sparkline endpoints: low bar then high bar (or inverse).
        assert!(md.contains('█') && md.contains('▁'), "{md}");
    }

    #[test]
    fn sparkline_handles_gaps_and_flat_series() {
        assert_eq!(sparkline(&[Some(1.0), None, Some(1.0)]), "▄·▄");
        assert_eq!(sparkline(&[Some(0.0), Some(7.0)]), "▁█");
    }
}
