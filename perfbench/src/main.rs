//! Host-time benchmark for strata-lab.
//!
//! Runs one named workload through the library path `strata bench` uses
//! — cells from exact experiment ids, `execute` on 2 jobs over an
//! in-memory `Store`, then every experiment's `render` over a `View` —
//! and prints the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a traced run. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact-mech --seed 0 --seconds 20 --trace 0
//! ```
//!
//! The seed selects the workload variant (`Params::variant`). Metric
//! definitions and the layer-to-metric map are in `perfbench/README.md`.

mod cells;
mod host;
mod layers;
mod oracle;
mod spans;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use strata_arch::PredictorSpec;
use strata_expt::exec::{build_program, cell_result};
use strata_expt::sampled::{
    ensure_bundle, pick_interval, program_for, simpts_file_name, trace_file_name,
};
use strata_expt::{
    atomic_write, atomic_write_bytes, exec_tier, execute, render_record, sampled_mode,
    set_exec_tier, set_sampled, CellKey, CellResult, Experiment, Output, Store, View, FUEL,
};
use strata_machine::ExecTier;
use strata_trace::{select, SimPoints, Trace};
use strata_workloads::Params;

use cells::{ProgramKey, Workload};
use oracle::Check;
use spans::Tracer;

/// Worker threads for `execute`, fixed so results compare across hosts.
pub const JOBS: usize = 2;

/// Process-global modes an inherited value would silently change.
const PINNED_ENV: [&str; 3] = ["STRATA_TIER", "STRATA_SAMPLED", "STRATA_PREDICTOR"];

/// Set-up repetitions; `setup_s` is their median. Exact set-up takes
/// milliseconds, so it repeats before every iteration to sample the
/// whole run; sampled set-up loads ~1 GiB of traces and runs once up
/// front, its last repetition keeping the bundles for the iterations.
const EXACT_SETUP_REPS: usize = 7;
const SAMPLED_SETUP_REPS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package lives one level below the repository root")
        .to_path_buf()
}

/// Scratch space the benchmark owns (traces, span files).
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A cell or render that panicked, with its cause.
#[derive(Debug)]
pub struct Failure {
    pub what: String,
    pub message: String,
}

/// The text of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs `f`, turning a panic into a [`Failure`] named `what`.
pub fn guarded<R>(what: impl Fn() -> String, f: impl FnOnce() -> R) -> Result<R, Failure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| Failure {
        what: what(),
        message: panic_message(p.as_ref()),
    })
}

/// `execute` on [`JOBS`] threads inside an unwind boundary. When any
/// cell panics, every cell the store still lacks is retried alone, so
/// each failure is reported with its cell key and message.
pub fn run_cells(store: &Store, cells: &[CellKey]) -> Vec<Failure> {
    if guarded(String::new, || execute(store, cells, JOBS)).is_ok() {
        return Vec::new();
    }
    let mut failures = Vec::new();
    for key in cells {
        if store.get(key).is_some() {
            continue;
        }
        let run = guarded(
            || key.key_string(),
            || {
                let program = build_program(key.workload, key.params);
                cell_result(store, key, &program);
            },
        );
        if let Err(f) = run {
            failures.push(f);
        }
    }
    if failures.is_empty() {
        failures.push(Failure {
            what: "execute".into(),
            message: "panicked, yet every cell succeeded when retried alone".into(),
        });
    }
    failures
}

/// Guest instructions a cell's result describes.
fn instructions(result: &CellResult) -> u64 {
    match result {
        CellResult::Native(n) => n.instructions,
        CellResult::Translated(r) => r.instructions,
    }
}

/// FNV-1a over every cell record in `store`, in key order.
pub fn records_digest(store: &Store) -> u64 {
    let mut text = String::new();
    for (key, result) in store.snapshot() {
        text.push_str(&render_record(&key, &result));
    }
    strata_trace::fnv1a64(text.as_bytes())
}

/// One end-to-end pass: execute, then render every experiment.
pub struct Iteration {
    wall: f64,
    cpu: f64,
    instructions: u64,
    failures: Vec<Failure>,
    outputs: Vec<(&'static Experiment, Output)>,
    store: Store,
}

impl Iteration {
    /// Digest of the cell records and the rendered text.
    fn digest(&self) -> (u64, u64) {
        let mut text = String::new();
        for (e, out) in &self.outputs {
            text.push_str(e.id);
            for t in &out.tables {
                text.push_str(&t.render_text());
            }
            for n in &out.notes {
                text.push_str(n);
            }
        }
        (
            records_digest(&self.store),
            strata_trace::fnv1a64(text.as_bytes()),
        )
    }
}

fn iteration(
    cells: &[CellKey],
    experiments: &[&'static Experiment],
    params: Params,
    tracer: &mut Tracer,
) -> Iteration {
    let store = Store::in_memory();
    let (u0, t0) = (host::usage(), Instant::now());
    let mut failures = tracer.span("expt.execute", |_| run_cells(&store, cells));
    let view = View::new(&store, params);
    let mut outputs = Vec::new();
    tracer.span("expt.render", |t| {
        for e in experiments {
            match t.span("expt.render.experiment", |_| {
                guarded(|| format!("render {}", e.id), || (e.render)(&view))
            }) {
                Ok(out) => outputs.push((*e, out)),
                Err(f) => failures.push(f),
            }
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (host::usage().cpu.saturating_sub(u0.cpu)).as_secs_f64();
    let instructions = store.snapshot().iter().map(|(_, r)| instructions(r)).sum();
    Iteration {
        wall,
        cpu,
        instructions,
        failures,
        outputs,
        store,
    }
}

/// Records reference traces for `programs` into `dir`, as `strata trace
/// record` would, timing each `strata_trace::record` call.
pub fn record_traces(
    dir: &Path,
    programs: &[ProgramKey],
    tracer: &mut Tracer,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for &(workload, params) in programs {
        let program = build_program(workload, params);
        let recorded = tracer
            .span("trace.record", |_| {
                strata_trace::record(&program, FUEL, exec_tier())
            })
            .map_err(|e| format!("recording {workload}: {e}"))?;
        let records = recorded.log.records().len() as u64;
        tracer.count("records", records);
        let trace = recorded.into_trace(
            workload,
            params.scale,
            params.variant,
            pick_interval(records),
        );
        let path = dir.join(trace_file_name(workload, params));
        atomic_write_bytes(&path, &trace.to_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let path = dir.join(simpts_file_name(workload, params));
        atomic_write(&path, &select(&trace).render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Makes sure `dir` holds traces for `programs`, recording them (untimed)
/// when absent or when `fresh` asks for a timed recording. Trace
/// directories of other seeds or sources are removed.
fn prepare_traces(
    dir: &Path,
    programs: &[ProgramKey],
    fresh: bool,
    tracer: &mut Tracer,
) -> Result<(), String> {
    if let (Some(parent), Some(name)) = (dir.parent(), dir.file_name()) {
        if let Ok(entries) = std::fs::read_dir(parent) {
            for entry in entries.flatten() {
                if entry.file_name() != name {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
    }
    let present = programs.iter().all(|&(w, p)| {
        dir.join(trace_file_name(w, p)).is_file() && dir.join(simpts_file_name(w, p)).is_file()
    });
    if present && !fresh {
        return Ok(());
    }
    record_traces(dir, programs, tracer)
}

/// Loads one bundle the way `ensure_bundle` does on a cache miss — read
/// the trace, parse the SimPoints sidecar — and drops it.
fn load_bundle_once(dir: &Path, workload: &str, params: Params) -> Result<(), String> {
    let path = dir.join(trace_file_name(workload, params));
    let trace = Trace::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let path = dir.join(simpts_file_name(workload, params));
    let points = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| SimPoints::parse(&text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if trace.workload != workload || points.instructions != trace.records.len() as u64 {
        return Err(format!("{}: trace and sidecar disagree", dir.display()));
    }
    black_box((trace, points));
    Ok(())
}

/// Times set-up — program build, plus trace-bundle loading in sampled
/// mode — several times and returns each repetition's seconds. The last
/// sampled repetition goes through `program_for` and `ensure_bundle`,
/// which keep what they load for the timed iterations.
fn setup(
    w: &Workload,
    programs: &[ProgramKey],
    traces: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let reps = if w.sampled {
        SAMPLED_SETUP_REPS
    } else {
        EXACT_SETUP_REPS
    };
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let last = rep + 1 == reps;
        let t0 = Instant::now();
        tracer.span("setup", |t| -> Result<(), String> {
            for &(workload, params) in programs {
                t.span("workloads.build", |_| {
                    if w.sampled && last {
                        black_box(program_for(workload, params));
                    } else {
                        black_box(build_program(workload, params));
                    }
                });
                if !w.sampled {
                    continue;
                }
                t.span("trace.load", |_| {
                    if last {
                        ensure_bundle(traces, workload, params).map(drop)
                    } else {
                        load_bundle_once(traces, workload, params)
                    }
                })?;
            }
            Ok(())
        })?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Pins every process-global mode, refusing inherited environment
/// values, and returns `(tier, predictor, mode)` as resolved.
fn pin_modes(w: &Workload, traces: &Path) -> Result<(String, String, String), String> {
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; the benchmark pins the tier, predictor and mode itself (unset it)"
            ));
        }
    }
    set_exec_tier(ExecTier::Interp);
    strata_arch::set_predictor(PredictorSpec::Legacy);
    if w.sampled {
        set_sampled(traces.to_path_buf());
    }
    let tier = match exec_tier() {
        ExecTier::Interp => "interp".to_string(),
        other => return Err(format!("execution tier resolved to {other:?}, not interp")),
    };
    let predictor = strata_arch::predictor();
    if predictor != PredictorSpec::Legacy {
        return Err(format!("predictor resolved to {}", predictor.label()));
    }
    let mode = match sampled_mode() {
        Some(dir) if w.sampled && dir == traces => format!("sampled:{}", dir.display()),
        None if !w.sampled => "exact".to_string(),
        other => return Err(format!("sampled mode resolved to {other:?}")),
    };
    Ok((tier, predictor.label(), mode))
}

/// A measured metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    checks: Vec<Check>,
    failures: Vec<Failure>,
    attempted: u64,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = cells::find(&args.workload)?;
    let root = repo_root();
    let params = w.params(args.seed);
    let fingerprint = host::source_fingerprint(&root);
    let traces = work_dir().join("traces").join(format!(
        "{fingerprint:016x}-s{}v{}",
        params.scale, params.variant
    ));
    let (tier, predictor, mode) = pin_modes(w, &traces)?;
    let experiments = w.experiments()?;
    let cells = w.cells(params)?;
    let programs = cells::programs(&cells);
    println!(
        "context {{\"workload\":\"{}\",\"seed\":{},\"scale\":{},\"variant\":{},\"cells\":{},\
         \"tier\":\"{tier}\",\"predictor\":\"{predictor}\",\"mode\":\"{mode}\",\"jobs\":{JOBS},\
         \"nproc\":{},\"cpu\":\"{}\",\"commit\":\"{}\",\"source_fnv\":\"{fingerprint:016x}\"}}",
        w.name,
        args.seed,
        params.scale,
        params.variant,
        cells.len(),
        host::nproc(),
        host::cpu_model(),
        host::commit(&root),
    );

    let mut tracer = if args.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let mut checks = Vec::new();
    let mut setup_times = Vec::new();
    if w.sampled {
        prepare_traces(&traces, &programs, args.trace, &mut tracer)?;
        setup_times = setup(w, &programs, &traces, &mut tracer)?;
    } else {
        checks.push(oracle::sampled_only_cell_fails(args.seed));
    }

    // End-to-end iterations for about `--seconds`. A traced run pairs
    // each untraced iteration with a traced one; the pairs give the
    // tracing overhead and the traced iterations the execute and render
    // spans.
    let budget = args.seconds as f64;
    let start = Instant::now();
    let mut runs: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    loop {
        if !w.sampled {
            setup_times.extend(setup(w, &programs, &traces, &mut tracer)?);
        }
        runs.push(iteration(
            &cells,
            &experiments,
            params,
            &mut Tracer::disabled(),
        ));
        if args.trace {
            traced.push(tracer.span("run", |t| iteration(&cells, &experiments, params, t)));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / runs.len() as f64;
        if elapsed >= budget - mean / 2.0 {
            break;
        }
    }
    let overheads: Vec<f64> = runs
        .iter()
        .zip(&traced)
        .map(|(u, t)| (t.wall - u.wall) / u.wall)
        .collect();
    runs.append(&mut traced);

    let last = runs.last().expect("at least one iteration ran");
    checks.push(oracle::checksums(&last.store, &cells));
    let digests: Vec<(u64, u64)> = runs.iter().map(Iteration::digest).collect();
    checks.push(oracle::identical(
        if args.trace {
            "traced run equals untraced run"
        } else {
            "iterations identical"
        },
        &digests,
    ));
    if !w.sampled && args.seed == 0 {
        checks.push(oracle::baseline(
            &last.store,
            &last.outputs,
            params,
            &root.join("results").join("baseline"),
        ));
    }
    if w.sampled {
        checks.push(oracle::fidelity(&last.store, params));
    }

    let mut failures: Vec<Failure> = Vec::new();
    let mut attempted = 0u64;
    for run in &mut runs {
        attempted += (cells.len() + experiments.len()) as u64;
        failures.append(&mut run.failures);
    }

    let metrics = if args.trace {
        let untraced = &runs[0];
        let pass = layers::measure(
            &layers::Context {
                workload: w,
                cells: &cells,
                programs: &programs,
                reference: &untraced.store,
                traces: &traces,
                scratch: &work_dir().join("traces-exact"),
            },
            &mut tracer,
        )?;
        attempted += cells.len() as u64;
        failures.extend(pass.failures);
        checks.push(oracle::identical(
            "serial per-layer cells equal untraced run",
            &[
                (records_digest(&untraced.store), 0),
                (pass.records_digest, 0),
            ],
        ));
        let mut metrics = vec![Metric::new(
            "workloads.build_ms",
            tracer.seconds("workloads.build") * 1e3 / setup_times.len() as f64,
            "ms",
        )];
        metrics.extend(pass.metrics);
        metrics.extend(layers::expt_metrics(&tracer));
        metrics.push(Metric::new(
            "bench.trace_overhead_frac",
            host::median(&overheads),
            "ratio",
        ));
        let spans_path = work_dir().join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        tracer.write(&spans_path, &format!("{}-seed{}", w.name, args.seed))?;
        println!("spans {}", spans_path.display());
        metrics
    } else {
        let of = |f: fn(&Iteration) -> f64| host::median(&runs.iter().map(f).collect::<Vec<_>>());
        vec![
            Metric::new("wall_s", of(|r| r.wall), "s"),
            Metric::new("cpu_s", of(|r| r.cpu), "s"),
            Metric::new("setup_s", host::median(&setup_times), "s"),
            Metric::new(
                "guest_mips",
                of(|r| r.instructions as f64 / r.wall / 1e6),
                "MIPS",
            ),
            Metric::new(
                "peak_rss_mib",
                host::usage().max_rss_kib as f64 / 1024.0,
                "MiB",
            ),
        ]
    };
    for (i, r) in runs.iter().enumerate() {
        println!("iteration {i} wall_s {} cpu_s {}", r.wall, r.cpu);
    }
    Ok(Outcome {
        metrics,
        checks,
        failures,
        attempted,
    })
}

fn main() -> ExitCode {
    // Panics are caught and reported as values with their cause.
    std::panic::set_hook(Box::new(|_| {}));
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match guarded(String::new, || run(&args)) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        Err(f) => {
            eprintln!("error: panic: {}", f.message);
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.failures {
        println!("failure {}: {}", f.what, f.message);
    }
    let failed = outcome.failures.len() as u64;
    println!(
        "failed_frac {} ({failed} of {} cell runs and renders)",
        failed as f64 / outcome.attempted as f64,
        outcome.attempted
    );
    for c in &outcome.checks {
        println!(
            "check {}: {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAIL" },
            c.detail
        );
    }
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = finite && failed == 0 && outcome.checks.iter().all(|c| c.ok);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        outcome.attempted,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
