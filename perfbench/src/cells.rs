//! The benchmark's workloads: exact experiment ids expanded into cell sets.
//!
//! Cell sets come from `registry::by_id` and each experiment's `cells`,
//! never from `--filter` substrings (`fig2` would also select fig20,
//! fig21 and fig22). Every set carries its native baselines explicitly,
//! so the count checked here is the number of cells `execute` runs.

use std::collections::HashSet;

use strata_expt::{by_id, CellKey, Experiment, RunKind};
use strata_workloads::{Params, SAMPLED_ONLY_SCALE};

/// One named workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    /// Exact experiment ids whose cells make up the workload.
    pub experiments: &'static [&'static str],
    /// Workload scale every cell runs at.
    pub scale: u32,
    /// Whether cells are estimated from traces (sampled mode).
    pub sampled: bool,
    /// Distinct cells, native baselines included, the experiments expand
    /// into. A mismatch means the cell set is not what the name says.
    pub expected_cells: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    // 312 distinct translated cells over 12 benchmarks (fig8 and fig9 on
    // x86, fig10 on all 3 profiles), plus 12 x 3 natives.
    Workload {
        name: "exact-mech",
        experiments: &["fig8", "fig9", "fig10"],
        scale: 1,
        sampled: false,
        expected_cells: 348,
    },
    // fig2: re-entry on 12 benchmarks, fig13: linked and unlinked on 12,
    // fig14: 6 cache capacities on gcc and perlbmk, plus 12 x86 natives.
    Workload {
        name: "exact-churn",
        experiments: &["fig2", "fig13", "fig14"],
        scale: 1,
        sampled: false,
        expected_cells: 60,
    },
    Workload {
        name: "sampled-s10",
        experiments: &["fig8", "fig9", "fig10"],
        scale: SAMPLED_ONLY_SCALE,
        sampled: true,
        expected_cells: 348,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

impl Workload {
    /// The workload parameters for `seed`: the seed is the variant.
    pub fn params(&self, seed: u64) -> Params {
        Params {
            scale: self.scale,
            variant: seed,
        }
    }

    /// The named experiments, resolved by exact id.
    pub fn experiments(&self) -> Result<Vec<&'static Experiment>, String> {
        self.experiments
            .iter()
            .map(|id| by_id(id).ok_or_else(|| format!("no experiment with id `{id}`")))
            .collect()
    }

    /// The deduplicated cell set at `params`, each translated cell
    /// preceded by its native baseline, checked against
    /// [`Workload::expected_cells`].
    pub fn cells(&self, params: Params) -> Result<Vec<CellKey>, String> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for e in self.experiments()? {
            for cell in (e.cells)(params) {
                if matches!(cell.kind, RunKind::Translated(_)) {
                    let native = cell.native_counterpart();
                    if seen.insert(native.key_string()) {
                        out.push(native);
                    }
                }
                if seen.insert(cell.key_string()) {
                    out.push(cell);
                }
            }
        }
        if out.len() != self.expected_cells {
            return Err(format!(
                "{}: {} distinct cells from {}, expected {}",
                self.name,
                out.len(),
                self.experiments.join("+"),
                self.expected_cells
            ));
        }
        Ok(out)
    }
}

/// Identifies the program a cell runs.
pub type ProgramKey = (&'static str, Params);

/// The distinct programs `cells` run, in first-seen order.
pub fn programs(cells: &[CellKey]) -> Vec<ProgramKey> {
    let mut out: Vec<ProgramKey> = Vec::new();
    for key in cells {
        if !out.contains(&(key.workload, key.params)) {
            out.push((key.workload, key.params));
        }
    }
    out
}
