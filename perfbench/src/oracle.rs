//! Correctness checks run in the same command as the measurement.

use std::path::Path;

use strata_arch::ArchProfile;
use strata_expt::suite::SuiteSection;
use strata_expt::{
    baseline_gate, by_id, CellKey, Experiment, Output, RunKind, Store, SuiteReport, View,
};
use strata_stats::Json;
use strata_workloads::{Params, SAMPLED_ONLY_SCALE};

use crate::{guarded, run_cells};

/// One named check and its verdict.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Self-check of the failure path: an exact-mode cell at a sampled-only
/// scale must come back as exactly one failed cell, not a crash.
pub fn sampled_only_cell_fails(seed: u64) -> Check {
    let params = Params {
        scale: SAMPLED_ONLY_SCALE,
        variant: seed,
    };
    let key = CellKey::native("gzip", ArchProfile::x86_like(), params);
    let failures = run_cells(&Store::in_memory(), std::slice::from_ref(&key));
    let ok = failures.len() == 1 && failures[0].what == key.key_string();
    let detail = match failures.first() {
        Some(f) => format!(
            "{} failed cell(s); {}: {}",
            failures.len(),
            f.what,
            f.message
        ),
        None => "the cell ran instead of failing".into(),
    };
    check("exact cell at scale 10 is one failed cell", ok, detail)
}

/// Every translated cell's checksum equals its native baseline's.
pub fn checksums(store: &Store, cells: &[CellKey]) -> Check {
    let mut compared = 0;
    for key in cells {
        if !matches!(key.kind, RunKind::Translated(_)) {
            continue;
        }
        let (Some(t), Some(n)) = (store.get(key), store.get(&key.native_counterpart())) else {
            return check(
                "translated checksums equal native",
                false,
                format!("{} has no result", key.key_string()),
            );
        };
        if t.checksum() != n.checksum() {
            return check(
                "translated checksums equal native",
                false,
                format!(
                    "{}: {:#010x} vs native {:#010x}",
                    key.key_string(),
                    t.checksum(),
                    n.checksum()
                ),
            );
        }
        compared += 1;
    }
    check(
        "translated checksums equal native",
        compared > 0,
        format!("{compared} translated cells"),
    )
}

/// All `(records, render)` digests are equal.
pub fn identical(name: &'static str, digests: &[(u64, u64)]) -> Check {
    let ok = digests.windows(2).all(|w| w[0] == w[1]);
    check(name, ok, format!("{} runs compared", digests.len()))
}

fn params_json(params: Params) -> Json {
    Json::obj([
        ("scale", Json::uint(params.scale as u64)),
        ("variant", Json::uint(params.variant)),
    ])
}

/// `baseline_gate` against the committed baseline at tolerance 0 must
/// report no delta at all. The report is assembled from the exact
/// experiments run, in the artifact shape `strata bench` writes.
pub fn baseline(
    store: &Store,
    outputs: &[(&'static Experiment, Output)],
    params: Params,
    dir: &Path,
) -> Check {
    let section = |e: &Experiment, output: &Output| {
        Json::obj([
            ("id", Json::str(e.id)),
            ("title", Json::str(e.title)),
            ("params", params_json(params)),
            (
                "tables",
                Json::arr(output.tables.iter().map(|t| t.to_json())),
            ),
            ("notes", Json::arr(output.notes.iter().map(Json::str))),
        ])
    };
    let mut artifacts: Vec<(String, String)> = outputs
        .iter()
        .map(|(e, out)| (format!("{}.json", e.id), section(e, out).render_pretty()))
        .collect();
    let cells = Json::obj([
        ("id", Json::str("cells")),
        ("title", Json::str("Per-cell raw metrics")),
        ("params", params_json(params)),
        (
            "tables",
            Json::arr([View::new(store, params).cells_table().to_json()]),
        ),
        ("notes", Json::arr([])),
    ]);
    artifacts.push(("cells.json".into(), cells.render_pretty()));
    let report = SuiteReport {
        sections: outputs
            .iter()
            .map(|(e, out)| SuiteSection {
                id: e.id,
                title: e.title,
                output: out.clone(),
            })
            .collect(),
        rendered: String::new(),
        artifacts,
        unique_cells: store.len(),
        store_stats: store.stats(),
    };
    match baseline_gate(&report, dir, 0.0) {
        Ok(delta) => check(
            "baseline gate at tolerance 0",
            delta.deltas.is_empty() && delta.compared > 0,
            format!(
                "{} deltas over {} compared cells",
                delta.deltas.len(),
                delta.compared
            ),
        ),
        Err(e) => check("baseline gate at tolerance 0", false, e),
    }
}

/// fig21 rendered at the workload's scale reports `FIDELITY PASS`.
pub fn fidelity(store: &Store, params: Params) -> Check {
    let Some(fig21) = by_id("fig21") else {
        return check("fig21 fidelity", false, "no fig21 experiment".into());
    };
    let view = View::new(store, params);
    match guarded(|| "render fig21".into(), || (fig21.render)(&view)) {
        Ok(out) => {
            let verdict = out
                .notes
                .iter()
                .find(|n| n.contains("FIDELITY"))
                .cloned()
                .unwrap_or_else(|| "no verdict line".into());
            check("fig21 fidelity", verdict.contains("FIDELITY PASS"), verdict)
        }
        Err(f) => check("fig21 fidelity", false, f.message),
    }
}
