//! Model-vs-measured divergence: align a perfmodel schedule's resource
//! timeline against the phase breakdown a real (traced) run produced,
//! and report where the analytic model and the measurement disagree.
//!
//! The module is deliberately dependency-free: a model timeline is just
//! `&[(Resource, start_s, end_s)]` intervals, so any schedule export can
//! feed it. The two aligned quantities per implementation are the
//! **overlap efficiencies** (MPI↔compute and PCIe↔compute, the paper's
//! figures of merit) and the **exchange share** (fraction of the
//! makespan the communication resource is busy). A divergence report
//! carries model and measured values side by side; the CI gate is
//! [`DivergenceReport::inversions`] — the model may be biased in
//! absolute terms, but when it *confidently* ranks implementation A
//! above B on an overlap dimension, the measurement must not confidently
//! rank them the other way.

use crate::metrics::{intersect, merge_intervals, union_seconds, PairOverlap};
use crate::Resource;

/// One busy interval of a model schedule: `(resource, start_s, end_s)`.
pub type ModelInterval = (Resource, f64, f64);

/// A model's rank-confidence margin: only efficiency differences at
/// least this large count as a confident model ranking.
pub const MODEL_MARGIN: f64 = 0.25;
/// The measurement must contradict a confident model ranking by at
/// least this much to count as an inversion (absorbs run-to-run noise).
pub const MEASURED_MARGIN: f64 = 0.05;

/// Pairwise overlap of two resources on a model timeline, shaped like
/// the measured [`PairOverlap`] so both sides compare like-for-like.
pub fn model_pair_overlap(iv: &[ModelInterval], a: Resource, b: Resource) -> PairOverlap {
    let pick = |r: Resource| {
        merge_intervals(
            iv.iter()
                .filter(|(res, _, _)| *res == r)
                .map(|&(_, s, e)| (s, e))
                .collect(),
        )
    };
    let ia = pick(a);
    let ib = pick(b);
    let both = union_seconds(&intersect(&ia, &ib));
    let all = merge_intervals(ia.iter().chain(ib.iter()).copied().collect());
    let makespan = match (all.first(), all.last()) {
        (Some(first), Some(last)) => last.1 - first.0,
        _ => 0.0,
    };
    PairOverlap {
        busy_a: union_seconds(&ia),
        busy_b: union_seconds(&ib),
        both,
        makespan,
    }
}

/// Fraction of the whole model timeline's span during which `r` is busy
/// (0.0 on an empty timeline).
pub fn model_share(iv: &[ModelInterval], r: Resource) -> f64 {
    let all = merge_intervals(iv.iter().map(|&(_, s, e)| (s, e)).collect());
    let span = match (all.first(), all.last()) {
        (Some(first), Some(last)) => last.1 - first.0,
        _ => return 0.0,
    };
    if span <= 0.0 {
        return 0.0;
    }
    let busy = union_seconds(&merge_intervals(
        iv.iter()
            .filter(|(res, _, _)| *res == r)
            .map(|&(_, s, e)| (s, e))
            .collect(),
    ));
    busy / span
}

/// Model-vs-measured alignment for one implementation.
#[derive(Debug, Clone, Default)]
pub struct DivergenceRow {
    /// Implementation slug (e.g. `gpu_streams_overlap`).
    pub slug: String,
    /// Whether the MPI↔compute dimension applies.
    pub uses_mpi: bool,
    /// Whether the PCIe↔compute dimension applies.
    pub uses_gpu: bool,
    /// Model MPI↔compute overlap efficiency.
    pub model_mpi_eff: f64,
    /// Measured MPI↔compute overlap efficiency.
    pub measured_mpi_eff: f64,
    /// Model PCIe↔compute overlap efficiency.
    pub model_pcie_eff: f64,
    /// Measured PCIe↔compute overlap efficiency.
    pub measured_pcie_eff: f64,
    /// Model share of the step the communication resource is busy.
    pub model_exchange_share: f64,
    /// Measured exchange share.
    pub measured_exchange_share: f64,
}

/// A confidently-contradicted pairwise ranking.
#[derive(Debug, Clone)]
pub struct Inversion {
    /// Which overlap dimension disagreed (`"mpi"` or `"pcie"`).
    pub dimension: &'static str,
    /// The implementation the model confidently ranked higher.
    pub model_winner: String,
    /// The implementation the measurement confidently ranked higher.
    pub measured_winner: String,
    /// Model efficiency difference (≥ [`MODEL_MARGIN`]).
    pub model_delta: f64,
    /// Measured efficiency difference in the opposite direction.
    pub measured_delta: f64,
}

/// The full per-run divergence table.
#[derive(Debug, Clone, Default)]
pub struct DivergenceReport {
    /// One row per implementation, in presentation order.
    pub rows: Vec<DivergenceRow>,
}

/// Whether two rows are comparable on the MPI dimension: both must use
/// MPI, *and* live on the same substrate. The measured MPI↔compute
/// overlap is a host-wall-clock quantity — a GPU implementation's
/// compute lives on the device timeline, invisible to it — so ranking a
/// GPU impl against a CPU impl on this dimension would compare
/// incommensurable measurements.
fn comparable_mpi(a: &DivergenceRow, b: &DivergenceRow) -> bool {
    a.uses_mpi && b.uses_mpi && a.uses_gpu == b.uses_gpu
}

/// Whether two rows are comparable on the PCIe dimension: both move
/// halos over PCIe, i.e. both are GPU implementations.
fn comparable_pcie(a: &DivergenceRow, b: &DivergenceRow) -> bool {
    a.uses_gpu && b.uses_gpu
}

/// Pairwise comparability predicate for one divergence dimension.
type Comparable = fn(&DivergenceRow, &DivergenceRow) -> bool;

/// Accessor pulling one efficiency scalar out of a row.
type EffOf = fn(&DivergenceRow) -> f64;

impl DivergenceReport {
    /// Every pair the model ranks confidently (efficiency gap ≥
    /// [`MODEL_MARGIN`] on a dimension both impls use) that the
    /// measurement confidently ranks the opposite way (gap ≥
    /// [`MEASURED_MARGIN`]). Empty means the model's ordering survived
    /// contact with the measurement — the CI gate.
    pub fn inversions(&self) -> Vec<Inversion> {
        let mut out = Vec::new();
        let dims: [(&'static str, Comparable, EffOf, EffOf); 2] = [
            (
                "mpi",
                comparable_mpi,
                |r| r.model_mpi_eff,
                |r| r.measured_mpi_eff,
            ),
            (
                "pcie",
                comparable_pcie,
                |r| r.model_pcie_eff,
                |r| r.measured_pcie_eff,
            ),
        ];
        for (dim, comparable, model, measured) in dims {
            for i in 0..self.rows.len() {
                for j in i + 1..self.rows.len() {
                    let (a, b) = (&self.rows[i], &self.rows[j]);
                    if !comparable(a, b) {
                        continue;
                    }
                    // Orient so the model ranks `hi` above `lo`.
                    let (hi, lo) = if model(a) >= model(b) { (a, b) } else { (b, a) };
                    let model_delta = model(hi) - model(lo);
                    if model_delta < MODEL_MARGIN {
                        continue;
                    }
                    let measured_delta = measured(lo) - measured(hi);
                    if measured_delta >= MEASURED_MARGIN {
                        out.push(Inversion {
                            dimension: dim,
                            model_winner: hi.slug.clone(),
                            measured_winner: lo.slug.clone(),
                            model_delta,
                            measured_delta,
                        });
                    }
                }
            }
        }
        out
    }

    /// Fraction of confidently-model-ranked pairs the measurement agrees
    /// with (1.0 when none are confidently ranked, or all agree) — the
    /// bench-history scalar.
    pub fn ranking_agreement(&self) -> f64 {
        let mut gated = 0usize;
        let dims: [(Comparable, EffOf); 2] = [
            (comparable_mpi, |r| r.model_mpi_eff),
            (comparable_pcie, |r| r.model_pcie_eff),
        ];
        for (comparable, model) in dims {
            for i in 0..self.rows.len() {
                for j in i + 1..self.rows.len() {
                    let (a, b) = (&self.rows[i], &self.rows[j]);
                    if comparable(a, b) && (model(a) - model(b)).abs() >= MODEL_MARGIN {
                        gated += 1;
                    }
                }
            }
        }
        if gated == 0 {
            return 1.0;
        }
        1.0 - self.inversions().len() as f64 / gated as f64
    }

    /// Render the table as markdown (dimensions an impl doesn't use show
    /// as `—`).
    pub fn render_markdown(&self) -> String {
        let cell = |applies: bool, v: f64| {
            if applies {
                format!("{v:.3}")
            } else {
                "—".to_string()
            }
        };
        let mut out = String::from(
            "| impl | mpi eff (model) | mpi eff (meas) | pcie eff (model) | pcie eff (meas) | exch share (model) | exch share (meas) |\n|---|---|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {:.3} | {:.3} |\n",
                r.slug,
                cell(r.uses_mpi, r.model_mpi_eff),
                cell(r.uses_mpi, r.measured_mpi_eff),
                cell(r.uses_gpu, r.model_pcie_eff),
                cell(r.uses_gpu, r.measured_pcie_eff),
                r.model_exchange_share,
                r.measured_exchange_share,
            ));
        }
        let inv = self.inversions();
        out.push_str(&format!(
            "\nRanking agreement: {:.3} ({} inversion{})\n",
            self.ranking_agreement(),
            inv.len(),
            if inv.len() == 1 { "" } else { "s" }
        ));
        for i in &inv {
            out.push_str(&format!(
                "- {}: model ranks {} above {} (Δ {:.3}) but measurement disagrees (Δ {:.3})\n",
                i.dimension, i.model_winner, i.measured_winner, i.model_delta, i.measured_delta
            ));
        }
        out
    }

    /// Render rows and the agreement scalar as a JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"impl\":\"{}\",\"uses_mpi\":{},\"uses_gpu\":{},\"model_mpi_eff\":{:.6},\"measured_mpi_eff\":{:.6},\"model_pcie_eff\":{:.6},\"measured_pcie_eff\":{:.6},\"model_exchange_share\":{:.6},\"measured_exchange_share\":{:.6}}}",
                r.slug,
                r.uses_mpi,
                r.uses_gpu,
                r.model_mpi_eff,
                r.measured_mpi_eff,
                r.model_pcie_eff,
                r.measured_pcie_eff,
                r.model_exchange_share,
                r.measured_exchange_share,
            ));
        }
        out.push_str(&format!(
            "],\"ranking_agreement\":{:.6},\"inversions\":{}}}",
            self.ranking_agreement(),
            self.inversions().len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_pair_overlap_counts_concurrent_seconds() {
        // Compute 0..10, MPI 4..8 fully inside it.
        let iv = vec![(Resource::Compute, 0.0, 10.0), (Resource::Mpi, 4.0, 8.0)];
        let p = model_pair_overlap(&iv, Resource::Mpi, Resource::Compute);
        assert!((p.busy_a - 4.0).abs() < 1e-12);
        assert!((p.busy_b - 10.0).abs() < 1e-12);
        assert!((p.both - 4.0).abs() < 1e-12);
        assert!((p.makespan - 10.0).abs() < 1e-12);
        assert!((p.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serial_model_has_zero_overlap_efficiency() {
        let iv = vec![(Resource::Mpi, 0.0, 3.0), (Resource::Compute, 3.0, 10.0)];
        let p = model_pair_overlap(&iv, Resource::Mpi, Resource::Compute);
        assert_eq!(p.efficiency(), 0.0);
        assert!((model_share(&iv, Resource::Mpi) - 0.3).abs() < 1e-12);
    }

    fn row(slug: &str, model: f64, measured: f64) -> DivergenceRow {
        DivergenceRow {
            slug: slug.to_string(),
            uses_mpi: true,
            model_mpi_eff: model,
            measured_mpi_eff: measured,
            ..DivergenceRow::default()
        }
    }

    #[test]
    fn agreement_is_perfect_when_measurement_tracks_model() {
        let rep = DivergenceReport {
            rows: vec![row("overlap", 0.9, 0.8), row("serial", 0.0, 0.05)],
        };
        assert!(rep.inversions().is_empty());
        assert_eq!(rep.ranking_agreement(), 1.0);
    }

    #[test]
    fn confident_contradiction_is_an_inversion() {
        let rep = DivergenceReport {
            rows: vec![row("overlap", 0.9, 0.1), row("serial", 0.0, 0.6)],
        };
        let inv = rep.inversions();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].model_winner, "overlap");
        assert_eq!(inv[0].measured_winner, "serial");
        assert_eq!(rep.ranking_agreement(), 0.0);
    }

    #[test]
    fn small_disagreements_are_absorbed_by_margins() {
        // Model gap below MODEL_MARGIN: not gated at all.
        let rep = DivergenceReport {
            rows: vec![row("a", 0.5, 0.1), row("b", 0.4, 0.6)],
        };
        assert!(rep.inversions().is_empty());
        assert_eq!(rep.ranking_agreement(), 1.0);
        // Confident model gap, but measured contradiction under
        // MEASURED_MARGIN: noise, not an inversion.
        let rep = DivergenceReport {
            rows: vec![row("a", 0.9, 0.50), row("b", 0.2, 0.52)],
        };
        assert!(rep.inversions().is_empty());
    }

    #[test]
    fn non_mpi_impls_are_excluded_from_the_mpi_dimension() {
        let mut serial = row("single_task", 0.0, 0.9);
        serial.uses_mpi = false;
        let rep = DivergenceReport {
            rows: vec![row("overlap", 0.9, 0.1), serial],
        };
        assert!(rep.inversions().is_empty());
    }

    #[test]
    fn renderers_are_well_formed() {
        let rep = DivergenceReport {
            rows: vec![row("overlap", 0.9, 0.8)],
        };
        let md = rep.render_markdown();
        assert!(md.contains("| overlap |"));
        assert!(md.contains("Ranking agreement: 1.000"));
        let json = rep.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(crate::json::Value::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"ranking_agreement\":1.000000"));
    }
}
