//! The traced run's serial pass: times the public calls into each layer,
//! from the benchmark's own code, over the workload's own cells and
//! programs. Nothing inside the program is instrumented.

use std::hint::black_box;
use std::path::Path;

use strata_arch::ArchModel;
use strata_core::{RunReport, Sdt};
use strata_expt::exec::{build_program, cell_result};
use strata_expt::sampled::{ensure_bundle, estimate_cell, trace_file_name};
use strata_expt::{CellKey, RunKind, Store, FUEL};
use strata_machine::syscall::SyscallState;
use strata_machine::{
    layout, ExecTier, ExecutionObserver, Machine, NullObserver, Program, StepOutcome, TierConfig,
    TierStats,
};
use strata_trace::{select, Trace};

use crate::cells::{ProgramKey, Workload};
use crate::spans::Tracer;
use crate::{guarded, host, record_traces, records_digest, Failure, Metric};

/// What the pass runs over.
pub struct Context<'a> {
    pub workload: &'a Workload,
    pub cells: &'a [CellKey],
    pub programs: &'a [ProgramKey],
    /// The untraced run's store: native instruction counts and
    /// checksums, and the results the pass must reproduce.
    pub reference: &'a Store,
    /// Trace directory of a sampled workload.
    pub traces: &'a Path,
    /// Where an exact workload records traces for the trace and replay
    /// layers.
    pub scratch: &'a Path,
}

/// The pass's metrics and the cell failures it met.
pub struct Pass {
    pub metrics: Vec<Metric>,
    pub failures: Vec<Failure>,
    /// Digest of the cell records the serial cell pass produced.
    pub records_digest: u64,
}

/// Runs `program` to halt on a bare `Machine` under `observer`,
/// servicing application syscalls; returns the checksum and tier stats.
fn run_machine<O: ExecutionObserver>(
    program: &Program,
    tier: ExecTier,
    observer: &mut O,
) -> Result<(u32, Option<TierStats>), String> {
    let mut machine = Machine::new(layout::DEFAULT_MEM_BYTES);
    program.load(&mut machine).map_err(|e| e.to_string())?;
    machine.set_tier(tier);
    let mut syscalls = SyscallState::new();
    loop {
        match machine.run(observer, FUEL).map_err(|e| e.to_string())? {
            StepOutcome::Halted => break,
            StepOutcome::Trap(code) => {
                if !syscalls.handle(code, &machine) {
                    return Err(format!("unexpected trap {code:#x}"));
                }
            }
            StepOutcome::Running => unreachable!("run returns only on halt, trap or error"),
        }
    }
    Ok((syscalls.checksum(), machine.tier_stats()))
}

fn native_of(store: &Store, key: &CellKey) -> Result<(u64, u32), String> {
    store
        .get(&key.native_counterpart())
        .and_then(|r| r.as_native().map(|n| (n.instructions, n.checksum)))
        .ok_or_else(|| format!("{}: no native result", key.key_string()))
}

fn ns_per(seconds: f64, count: u64) -> f64 {
    seconds * 1e9 / count.max(1) as f64
}

/// Runs every layer's timed calls and derives the per-layer metrics.
pub fn measure(cx: &Context, tracer: &mut Tracer) -> Result<Pass, String> {
    let built: Vec<Program> = cx
        .programs
        .iter()
        .map(|&(w, p)| build_program(w, p))
        .collect();
    let program = |key: &CellKey| {
        let i = cx
            .programs
            .iter()
            .position(|&pk| pk == (key.workload, key.params))
            .expect("every cell's program is in the program list");
        &built[i]
    };
    let natives: Vec<&CellKey> = cx
        .cells
        .iter()
        .filter(|k| matches!(k.kind, RunKind::Native))
        .collect();
    let translated: Vec<&CellKey> = cx
        .cells
        .iter()
        .filter(|k| matches!(k.kind, RunKind::Translated(_)))
        .collect();
    let mut metrics = Vec::new();

    // machine and arch: each native cell's program on the bare
    // interpreter, then right away under the cell's ArchModel, so both
    // runs see the same host state; the cost model's share is the
    // difference. The threaded tier runs once per program.
    let mut arch_extra = 0.0;
    for key in &natives {
        let (instrs, checksum) = native_of(cx.reference, key)?;
        let (sum, _) = tracer.span("machine.run.interp", |_| {
            run_machine(program(key), ExecTier::Interp, &mut NullObserver)
        })?;
        tracer.count("instructions", instrs);
        let bare = tracer.last_seconds();
        tracer.span("machine.run.arch", |_| {
            run_machine(
                program(key),
                ExecTier::Interp,
                &mut ArchModel::new(key.profile.clone()),
            )
        })?;
        tracer.count("instructions", instrs);
        arch_extra += tracer.last_seconds() - bare;
        if sum != checksum {
            return Err(format!(
                "{}: bare machine checksum differs",
                key.key_string()
            ));
        }
    }
    for (i, &pk) in cx.programs.iter().enumerate() {
        let native = natives
            .iter()
            .find(|k| (k.workload, k.params) == pk)
            .ok_or_else(|| format!("{}: no native cell", pk.0))?;
        let (instrs, checksum) = native_of(cx.reference, native)?;
        let (sum, stats) = tracer.span("machine.run.threaded", |_| {
            run_machine(
                &built[i],
                ExecTier::Threaded(TierConfig::default()),
                &mut NullObserver,
            )
        })?;
        tracer.count("instructions", instrs);
        tracer.count(
            "translated_retired",
            stats.map_or(0, |s| s.translated_retired),
        );
        if sum != checksum {
            return Err(format!("{}: threaded tier checksum differs", pk.0));
        }
    }
    metrics.push(Metric::new(
        "machine.interp_ns_per_instr",
        ns_per(
            tracer.seconds("machine.run.interp"),
            tracer.sum("machine.run.interp", "instructions"),
        ),
        "ns",
    ));
    metrics.push(Metric::new(
        "machine.threaded_ns_per_instr",
        ns_per(
            tracer.seconds("machine.run.threaded"),
            tracer.sum("machine.run.threaded", "instructions"),
        ),
        "ns",
    ));
    metrics.push(Metric::new(
        "machine.tier_retired_frac",
        tracer.sum("machine.run.threaded", "translated_retired") as f64
            / tracer.sum("machine.run.threaded", "instructions").max(1) as f64,
        "ratio",
    ));
    metrics.push(Metric::new(
        "arch.cost_ns_per_instr",
        ns_per(arch_extra, tracer.sum("machine.run.arch", "instructions")),
        "ns",
    ));

    // core, execution: construction, a cold run and a warm rerun on the
    // same Sdt. A sampled workload's cells are 10x longer, so it probes
    // one translated cell per program instead of all of them.
    let mut probes: Vec<&CellKey> = Vec::new();
    for key in &translated {
        if !cx.workload.sampled || !probes.iter().any(|p| p.workload == key.workload) {
            probes.push(key);
        }
    }
    for key in &probes {
        let RunKind::Translated(cfg) = key.kind else {
            continue;
        };
        let (_, checksum) = native_of(cx.reference, key)?;
        let fail = |e: strata_core::SdtError| format!("{}: {e}", key.key_string());
        let mut sdt = tracer
            .span("core.sdt_new", |_| Sdt::new(cfg, program(key)))
            .map_err(fail)?;
        let cold: RunReport = tracer
            .span("core.run.cold", |_| sdt.run(key.profile.clone(), FUEL))
            .map_err(fail)?;
        tracer.count("instructions", cold.instructions);
        let warm = tracer
            .span("core.run.warm", |_| sdt.run(key.profile.clone(), FUEL))
            .map_err(fail)?;
        tracer.count("instructions", warm.instructions);
        if cold.checksum != checksum {
            return Err(format!("{}: cold run checksum differs", key.key_string()));
        }
    }
    let new_us: Vec<f64> = tracer
        .named("core.sdt_new")
        .map(|s| s.duration().as_secs_f64() * 1e6)
        .collect();
    metrics.push(Metric::new("core.sdt_new_us", host::median(&new_us), "us"));
    for (name, span) in [
        ("core.run_ns_per_instr", "core.run.cold"),
        ("core.warm_ns_per_instr", "core.run.warm"),
    ] {
        metrics.push(Metric::new(
            name,
            ns_per(tracer.seconds(span), tracer.sum(span, "instructions")),
            "ns",
        ));
    }

    // core, counts: summed over the untraced run's translated results.
    let mut counts = [0u64; 5];
    for key in &translated {
        let result = cx
            .reference
            .get(key)
            .ok_or_else(|| format!("{}: no result", key.key_string()))?;
        let m = &result
            .as_translated()
            .ok_or_else(|| format!("{}: not a translated result", key.key_string()))?
            .mech;
        for (c, v) in counts.iter_mut().zip([
            m.translator_entries,
            m.fragments,
            m.cache_flushes,
            m.exit_misses,
            m.ib_misses,
        ]) {
            *c += v;
        }
    }
    for (name, v) in [
        "core.translator_entries",
        "core.fragments",
        "core.cache_flushes",
        "core.exit_misses",
        "core.ib_misses",
    ]
    .into_iter()
    .zip(counts)
    {
        metrics.push(Metric::new(name, v as f64, "count"));
    }

    // expt: every cell alone, serially, through `cell_result` on a fresh
    // store — natives first, as `execute` orders them.
    let store = Store::in_memory();
    let mut failures = Vec::new();
    for key in natives.iter().chain(&translated) {
        let run = tracer.span("expt.cell", |_| {
            guarded(
                || key.key_string(),
                || {
                    cell_result(&store, key, program(key));
                },
            )
        });
        if let Err(f) = run {
            failures.push(f);
        }
    }
    let records_digest = records_digest(&store);

    // trace: an exact workload records its own traces here; a sampled
    // one recorded them (timed) while preparing.
    let traces = if cx.workload.sampled {
        cx.traces
    } else {
        let _ = std::fs::remove_dir_all(cx.scratch);
        record_traces(cx.scratch, cx.programs, tracer)?;
        cx.scratch
    };
    for &(w, p) in cx.programs {
        let path = traces.join(trace_file_name(w, p));
        let trace = tracer
            .span("trace.read", |_| Trace::read(&path))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        tracer.count("records", trace.records.len() as u64);
        tracer.span("trace.simpoints", |_| black_box(select(&trace)));
    }
    metrics.push(Metric::new(
        "trace.read_ns_per_record",
        ns_per(
            tracer.seconds("trace.read"),
            tracer.sum("trace.read", "records"),
        ),
        "ns",
    ));
    metrics.push(Metric::new(
        "trace.simpoints_ms",
        tracer.seconds("trace.simpoints") * 1e3,
        "ms",
    ));
    metrics.push(Metric::new(
        "trace.record_ns_per_instr",
        ns_per(
            tracer.seconds("trace.record"),
            tracer.sum("trace.record", "records"),
        ),
        "ns",
    ));

    // core, replay: every translated cell estimated from its trace, with
    // bundles loaded beforehand so only the replay is timed.
    for &(w, p) in cx.programs {
        ensure_bundle(traces, w, p)?;
    }
    for key in &translated {
        let RunKind::Translated(cfg) = key.kind else {
            continue;
        };
        let cell = tracer.span("core.replay", |_| {
            estimate_cell(traces, key.workload, key.params, cfg, key.profile.clone())
        })?;
        tracer.count("replayed", cell.replayed_records);
        tracer.count("records", cell.trace_records);
    }
    let replayed = tracer.sum("core.replay", "replayed");
    metrics.push(Metric::new(
        "core.replay_ns_per_record",
        ns_per(tracer.seconds("core.replay"), replayed),
        "ns",
    ));
    metrics.push(Metric::new(
        "core.replay_work_frac",
        replayed as f64 / tracer.sum("core.replay", "records").max(1) as f64,
        "ratio",
    ));

    Ok(Pass {
        metrics,
        failures,
        records_digest,
    })
}

/// Execute and render medians over the traced iterations, and the
/// per-cell times of the serial cell pass.
pub fn expt_metrics(tracer: &Tracer) -> Vec<Metric> {
    let ms = |name| -> Vec<f64> {
        tracer
            .named(name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    };
    let cell_ms = ms("expt.cell");
    vec![
        Metric::new(
            "expt.execute_s",
            host::median(&ms("expt.execute")) / 1e3,
            "s",
        ),
        Metric::new("expt.render_ms", host::median(&ms("expt.render")), "ms"),
        Metric::new("expt.cell_ms_p50", host::percentile(&cell_ms, 0.5), "ms"),
        Metric::new("expt.cell_ms_p90", host::percentile(&cell_ms, 0.9), "ms"),
        Metric::new(
            "expt.cell_ms_max",
            cell_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
    ]
}
