//! `loom` — command-line driver for the Sheu–Tai partitioning and
//! mapping pipeline.
//!
//! ```text
//! loom workloads
//! loom partition --workload matmul --size 4 [--pi 1,1,1] [--grouping 1]
//! loom map       --workload matvec --size 16 --cube 2
//! loom simulate  --workload sor --size 16 --cube 3
//!                [--t-calc 1 --t-start 50 --t-comm 5] [--batch] [--contention]
//!                [--fault-plan plan.json --fault-seed 7 --recovery remap]
//! loom codegen   --workload l1 --size 4 --cube 1 [--run]
//! loom check     --workload sor --size 8 --cube 2 [--symbolic]
//!                [--format human|json|sarif] [--allow LC004]
//! loom viz       --workload sor --size 8 [--dot]
//! loom explore   --workload matvec --size 16 [--pi-bound 1] [--top 10]
//!                [--threads 4] [--no-prune] [--bench-out bench.json]
//!                [--symbolic] [--symbolic-budget POINTS]
//! loom profile   --workload matvec --size 16 --cube 2 [--top 3] [--json]
//!                [--trace-out t.json] [--metrics-out m.json] [--flame-out f.txt]
//! loom obs diff  old.json new.json [--threshold 1] [--warn-only] [--json]
//! loom table1    [--m 1024]
//! ```
//!
//! Setting `LOOM_FLIGHT_DIR` makes every pipeline-running subcommand
//! flush its flight-recorder ring (JSONL) into that directory on exit.
//!
//! Every failure funnels through the typed [`CliError`] (exit 2 for
//! usage problems, exit 1 for wrong artifacts); `.loom` input is parsed
//! by the resilient front end, so malformed files come back as a full
//! `LP0NN` diagnostic report — all problems in one pass — rather than
//! one terse abort.

// `print!`/`println!` that stop the process quietly when stdout is
// closed (`loom simulate … | head -1`) instead of panicking; they shadow
// the std macros for the whole binary.
macro_rules! print {
    ($($arg:tt)*) => {
        crate::write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

mod args;
mod error;

use args::Args;
use error::CliError;
use loom_core::analytic::table1_rows;
use loom_core::pipeline::MachineOptions;
use loom_core::report::Table;
use loom_core::{Admission, Pipeline, PipelineConfig, TraceMode};
use loom_loopir::DepOptions;
use loom_machine::MachineParams;
use loom_obs::{FlightRecorder, Json, Recorder};

fn usage() -> ! {
    eprintln!(
        "usage: loom <command> [flags]\n\
         commands:\n\
         \x20 workloads                         list built-in workloads\n\
         \x20 partition --workload W --size S   run Algorithm 1, print blocks\n\
         \x20 map       --workload W --cube N   run Algorithms 1+2, print placement\n\
         \x20 simulate  --workload W --cube N   full pipeline + machine simulation\n\
         \x20 sim       alias for simulate\n\
         \x20 codegen   --workload W --cube N   emit SPMD pseudo-code [--run verifies]\n\
         \x20 check     --workload W --cube N   static verifier [--symbolic|--interleave]\n\
         \x20           [--format human|json|sarif] [--allow IDS] [--explain LC0NN]\n\
         \x20           [--corrupt drop-send|dup-send|drop-recv|swap] [--corrupt-seed N]\n\
         \x20 viz       --workload W            ASCII block/wavefront grids [--dot]\n\
         \x20 explore   --workload W            rank (Π, grouping, N) by simulated cost\n\
         \x20           [--threads T] [--no-prune] [--bench-out FILE] [--metrics-out FILE]\n\
         \x20           [--symbolic] rank by closed-form T_exec (simulate only on Unknown)\n\
         \x20           [--symbolic-budget POINTS] probe budget for the derivation\n\
         \x20 profile   --workload W --cube N   critical-path profile of a simulated run\n\
         \x20           [--top K] [--json] [--trace-out FILE] [--flame-out FILE]\n\
         \x20 obs diff  OLD NEW                 compare two bench/metrics JSON documents\n\
         \x20           [--threshold B] [--warn-only] [--json]\n\
         \x20 table1    [--m M]                 the paper's Table I\n\
         common flags: --size S (default 8), --size2 S (2nd extent), --pi a,b,…,\n\
         \x20               --file NEST.loom (parse a .loom nest; variable-distance\n\
         \x20               dependences are folded and certified per LC016 unless\n\
         \x20               --no-uniformize restores the front-end rejection)\n\
         output flags (simulate/check/explore/profile):\n\
         \x20               --metrics-out FILE (counters + simulator metrics JSON),\n\
         \x20               --trace-out FILE (Chrome/Perfetto trace JSON),\n\
         \x20               --flame-out FILE (collapsed-stack flamegraph export)\n\
         simulate flags: --t-calc/--t-start/--t-comm, --batch, --contention,\n\
         \x20               --mesh RxC | --ring N (instead of --cube),\n\
         \x20               --validate (replay the trace through verify_trace)\n\
         fault flags:    --fault-plan FILE (JSON fault plan, see docs/RESILIENCE.md),\n\
         \x20               --fault-seed N (override the plan's noise seed),\n\
         \x20               --recovery abort|retry|remap (default retry),\n\
         \x20               --degradation-out FILE (degradation report JSON)"
    );
    std::process::exit(2)
}

/// Parse `--file` into a nest through the resilient front end.
/// Malformed input renders the full `LP0NN` report (honoring
/// `--format` and `--allow`); with every error suppressed the
/// recovered partial IR is used.
fn parse_file_nest(a: &Args, path: &str) -> Result<loom_loopir::LoopNest, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    let name = path.rsplit('/').next().unwrap_or("nest").to_string();
    let out = loom_loopir::parse_nest_recovering(&name, &src);
    if out.diags.is_empty() {
        // The front-end invariant: no diagnostics implies an IR.
        return out
            .nest
            .ok_or_else(|| CliError::failed(format!("{path}: internal error: no IR produced")));
    }
    let mut report = loom_check::report_from_parse(&out.diags);
    apply_allow(a, &mut report);
    if report.has_errors() {
        render_report(a, &report)?;
        return Err(CliError::Diagnostics);
    }
    // Every error was --allow'ed: surface the warnings on stderr and
    // continue with whatever IR recovery salvaged.
    eprint!("{}", report.render_human());
    out.nest
        .ok_or_else(|| CliError::failed(format!("{path}: no usable IR after recovery")))
}

/// `--pi`, validated: the all-zero time function is never a schedule
/// (every projection stage divides by ‖Π‖²), so reject it up front
/// instead of letting the partitioner assert.
fn pi_flag(a: &Args) -> Result<Option<Vec<i64>>, CliError> {
    match a.int_list_flag("pi")? {
        Some(pi) if pi.iter().all(|&c| c == 0) => Err(CliError::usage(
            "error: --pi needs at least one nonzero coefficient",
        )),
        other => Ok(other),
    }
}

/// `--pi` if given, else the optimal legal time function for `deps`.
fn pick_pi(
    a: &Args,
    nest: &loom_loopir::LoopNest,
    deps: &[Vec<i64>],
    label: &str,
) -> Result<Vec<i64>, CliError> {
    if let Some(pi) = pi_flag(a)? {
        return Ok(pi);
    }
    let pi =
        loom_hyperplane::find_optimal(deps, nest.space(), loom_hyperplane::SearchConfig::default())
            .map_err(|e| CliError::failed(format!("{label}: no legal time function: {e}")))?
            .coeffs()
            .to_vec();
    if pi.iter().all(|&c| c == 0) {
        // Only reachable with an empty dependence set: every candidate
        // is vacuously legal and the zero vector minimizes the search.
        return Err(CliError::failed(format!(
            "{label}: the nest has no loop-carried dependences, so no time \
             function is forced; pass one explicitly with --pi"
        )));
    }
    Ok(pi)
}

/// The nest a command works on: its pipeline, its dependence set `D`
/// and its default Π.
struct Input {
    /// The pipeline; a `--file` nest's carries its admission.
    pipeline: Pipeline,
    /// A builtin workload's documented `D`, or a `--file` nest's
    /// admitted one.
    deps: Vec<Vec<i64>>,
    /// The workload's canonical Π, or the optimum for a `--file` nest.
    pi: Vec<i64>,
}

impl Input {
    fn nest(&self) -> &loom_loopir::LoopNest {
        self.pipeline.nest()
    }
}

/// Parse `--file` and admit its dependences once: non-uniform nests go
/// through certified uniformization (LC016) unless --no-uniformize
/// restores the front-end rejection, and an uncertifiable nest renders
/// its report. The admission rides in the pipeline, so no later stage
/// extracts again. Also returns the certificate, empty for a uniform
/// nest.
fn file_input(
    a: &Args,
    path: &str,
    recorder: &Recorder,
) -> Result<(Input, Vec<loom_check::Diagnostic>), CliError> {
    let nest = parse_file_nest(a, path)?;
    let uniformize = !a.switch("no-uniformize");
    let admission = match Admission::build(&nest, DepOptions::default(), uniformize, recorder) {
        Ok(admission) => admission,
        Err(loom_core::PipelineError::StaticCheck(mut report)) => {
            apply_allow(a, &mut report);
            render_report(a, &report)?;
            return Err(CliError::Diagnostics);
        }
        Err(loom_core::PipelineError::Deps(e)) => {
            return Err(CliError::usage(format!("{path}: {e}")))
        }
        Err(e) => return Err(pipeline_failed(e)),
    };
    let pi = pick_pi(a, &nest, &admission.vectors, path)?;
    let certificate = admission.certificate.clone();
    let input = Input {
        deps: admission.vectors.clone(),
        pi,
        pipeline: Pipeline::admitted(nest, admission),
    };
    Ok((input, certificate))
}

/// The `--file` nest (admitted under `recorder`) or the builtin
/// `--workload`.
fn pick_workload(a: &Args, recorder: &Recorder) -> Result<Input, CliError> {
    if let Some(path) = a.flags.get("file") {
        let (input, certificate) = file_input(a, path, recorder)?;
        if !certificate.is_empty() {
            let vecs: Vec<String> = input
                .deps
                .iter()
                .map(|v| {
                    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                    format!("({})", parts.join(","))
                })
                .collect();
            eprintln!(
                "note: {path}: variable-distance dependences folded into the \
                 certified synthesized set {{{}}} (LC016); run \
                 `loom check --file {path}` for the certificate and the \
                 tightness report",
                vecs.join(", ")
            );
        }
        return Ok(input);
    }
    let size = a.int_flag("size", 8)?;
    let size2 = a.int_flag("size2", size)?;
    let w = match a.str_flag("workload", "l1").as_str() {
        "l1" => loom_workloads::l1::workload(size),
        "matmul" => loom_workloads::matmul::workload(size),
        "matvec" => loom_workloads::matvec::workload(size),
        "conv" | "conv1d" => loom_workloads::conv::workload(size, size2.min(size)),
        "sor" | "stencil" => loom_workloads::sor::workload(size, size2),
        "transitive" | "tc" => loom_workloads::transitive::workload(size),
        "dft" => loom_workloads::dft::workload(size),
        "conv2d" => loom_workloads::conv2d::workload(size, size2.min(size)),
        "heat2d" | "heat" => loom_workloads::heat2d::workload(size, size2),
        "triangular" | "tri" => loom_workloads::triangular::workload(size),
        other => {
            return Err(CliError::usage(format!(
                "unknown workload `{other}`; run `loom workloads`"
            )))
        }
    };
    Ok(Input {
        pipeline: Pipeline::new(w.nest),
        deps: w.deps,
        pi: w.pi,
    })
}

fn machine_params(a: &Args) -> Result<MachineParams, CliError> {
    Ok(MachineParams {
        t_calc: a.int_flag("t-calc", 1)?.max(0) as u64,
        t_start: a.int_flag("t-start", 50)?.max(0) as u64,
        t_comm: a.int_flag("t-comm", 5)?.max(0) as u64,
        t_recv: a.int_flag("t-recv", 0)?.max(0) as u64,
    })
}

fn pick_target(a: &Args) -> Result<Option<loom_core::Target>, CliError> {
    if let Some(mesh) = a.flags.get("mesh") {
        let parts: Vec<&str> = mesh.split(['x', 'X']).collect();
        if let [r, c] = parts[..] {
            if let (Ok(rows), Ok(cols)) = (r.parse(), c.parse()) {
                return Ok(Some(loom_core::Target::Mesh { rows, cols }));
            }
        }
        return Err(CliError::usage("error: --mesh expects RxC (e.g. 2x4)"));
    }
    if let Some(ring) = a.flags.get("ring") {
        return match ring.parse() {
            Ok(n) => Ok(Some(loom_core::Target::Ring(n))),
            Err(_) => Err(CliError::usage("error: --ring expects an integer")),
        };
    }
    Ok(None)
}

/// `--grouping` as an index, when given.
fn grouping_choice(a: &Args) -> Result<Option<usize>, CliError> {
    match a.flags.get("grouping") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::usage("error: --grouping expects an index")),
    }
}

/// Build the fault configuration from `--fault-plan` / `--fault-seed`
/// / `--recovery`. The plan is statically validated (rule `LC008`)
/// against the machine the run will target before it is accepted; any
/// error diagnostic refuses the run.
fn fault_config(a: &Args) -> Result<Option<loom_machine::FaultConfig>, CliError> {
    let Some(path) = a.flags.get("fault-plan") else {
        return Ok(None);
    };
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    let doc = loom_obs::Json::parse(&src)
        .map_err(|e| CliError::usage(format!("{path}: invalid JSON: {e}")))?;
    let plan = loom_machine::FaultPlan::from_json(&doc)
        .map_err(|e| CliError::usage(format!("{path}: invalid fault plan: {e}")))?;
    let topology = pick_target(a)?
        .unwrap_or(loom_core::Target::Hypercube(
            a.int_flag("cube", 1)?.max(0) as usize
        ))
        .topology();
    // Route the LC008 diagnostics through a Report so `--allow LC008`
    // downgrades them exactly like every other rule: suppression and
    // exit-code policy are uniform across all rules.
    let mut report =
        loom_check::Report::from_diagnostics(loom_check::check_fault_plan(&plan, &topology));
    apply_allow(a, &mut report);
    for d in report.diagnostics() {
        eprintln!("{path}: {d}");
    }
    if report.has_errors() {
        return Err(CliError::Diagnostics);
    }
    let policy: loom_machine::RecoveryPolicy = a
        .str_flag("recovery", "retry")
        .parse()
        .map_err(|e: String| CliError::usage(format!("error: {e}")))?;
    let mut fc = loom_machine::FaultConfig::new(plan, policy);
    if a.flags.contains_key("fault-seed") {
        fc.seed_override = Some(a.int_flag("fault-seed", 0)?.max(0) as u64);
    }
    Ok(Some(fc))
}

fn run_pipeline(
    a: &Args,
    w: &Input,
    with_machine: bool,
) -> Result<loom_core::PipelineOutput, CliError> {
    run_pipeline_with(a, w, with_machine, &Recorder::disabled())
}

fn run_pipeline_with(
    a: &Args,
    w: &Input,
    with_machine: bool,
    recorder: &Recorder,
) -> Result<loom_core::PipelineOutput, CliError> {
    let machine = if with_machine {
        Some(MachineOptions {
            params: machine_params(a)?,
            batch_messages: a.switch("batch"),
            link_contention: a.switch("contention"),
            trace: if a.switch("validate") {
                TraceMode::Validate
            } else if a.flags.contains_key("trace-out") {
                TraceMode::Record
            } else {
                TraceMode::Off
            },
            collect_metrics: a.flags.contains_key("metrics-out")
                || a.flags.contains_key("trace-out"),
            faults: fault_config(a)?,
            ..Default::default()
        })
    } else {
        None
    };
    let config = PipelineConfig {
        time_fn: pi_flag(a)?.or(Some(w.pi.clone())),
        cube_dim: a.int_flag("cube", 1)?.max(0) as usize,
        target: pick_target(a)?,
        partition: loom_partition::PartitionConfig {
            grouping_choice: grouping_choice(a)?,
            seed: None,
        },
        machine,
        ..Default::default()
    };
    w.pipeline
        .run_with(&config, recorder)
        .map_err(pipeline_failed)
}

/// A failed pipeline stage, exit 1.
fn pipeline_failed(e: loom_core::PipelineError) -> CliError {
    let too_large = matches!(
        e,
        loom_core::PipelineError::Partition(loom_partition::Error::TooLarge { .. })
    );
    failed_with_size_hint(format!("pipeline failed: {e}"), too_large)
}

/// `msg` as an exit-1 failure; for a space too large to enumerate, with
/// a pointer to the explorer mode that needs no enumeration.
fn failed_with_size_hint(msg: String, too_large: bool) -> CliError {
    if too_large {
        CliError::failed(format!(
            "{msg}\nhint: `loom explore --symbolic` ranks configurations from closed-form \
             costs without enumerating the iteration space"
        ))
    } else {
        CliError::failed(msg)
    }
}

/// An enabled recorder whose flight ring honors `LOOM_FLIGHT_DIR`.
fn obs_recorder() -> Recorder {
    Recorder::enabled_with_flight(FlightRecorder::from_env())
}

/// Flush the recorder's flight ring to `LOOM_FLIGHT_DIR` (no-op when
/// the variable is unset).
fn flush_flight(rec: &Recorder, name: &str) {
    if let Some(path) = rec.flight().flush_to_env_dir(name) {
        eprintln!("flight log written to {}", path.display());
    }
}

/// Write the collapsed-stack span export for `--flame-out`.
fn write_flame(rec: &Recorder, path: &str) -> Result<(), CliError> {
    write_out(
        path,
        loom_obs::flight::collapsed_stacks(&rec.spans()),
        "flamegraph",
    )
}

fn write_out(path: &str, contents: String, what: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    println!("{what} written to {path}");
    Ok(())
}

fn cmd_workloads() {
    let mut t = Table::new(["name", "depth", "D", "paper role"]);
    for (name, w, role) in [
        ("l1", loom_workloads::l1::workload(4), "§II running example"),
        (
            "matmul",
            loom_workloads::matmul::workload(4),
            "§III Example 2",
        ),
        (
            "matvec",
            loom_workloads::matvec::workload(8),
            "§IV / Table I",
        ),
        (
            "conv1d",
            loom_workloads::conv::workload(8, 4),
            "§I motivation",
        ),
        ("sor", loom_workloads::sor::workload(6, 6), "extension"),
        (
            "transitive",
            loom_workloads::transitive::workload(4),
            "§I motivation",
        ),
        ("dft", loom_workloads::dft::workload(8), "§I motivation"),
        (
            "conv2d",
            loom_workloads::conv2d::workload(4, 2),
            "extension (4-deep)",
        ),
        (
            "triangular",
            loom_workloads::triangular::workload(6),
            "extension (affine bounds)",
        ),
        (
            "heat2d",
            loom_workloads::heat2d::workload(3, 4),
            "extension (negative deps)",
        ),
    ] {
        t.row([
            name.to_string(),
            format!("{}", w.nest.dim()),
            format!("{:?}", w.deps),
            role.to_string(),
        ]);
    }
    println!("{t}");
}

fn cmd_partition(a: &Args) -> Result<(), CliError> {
    let w = pick_workload(a, &Recorder::disabled())?;
    // Partitioning is machine-independent; default to the 1-processor
    // cube so a small block count never fails the mapping stage.
    let mut a2 = a.clone();
    a2.flags.entry("cube".into()).or_insert_with(|| "0".into());
    let out = run_pipeline(&a2, &w, false)?;
    println!("{}", w.nest());
    println!("D = {:?}", out.deps);
    println!("{} ({} steps)", out.pi, out.pi.steps(w.nest().space()));
    let p = &out.partitioning;
    println!(
        "r = {}, beta = {}, {} projected points -> {} blocks (largest {})",
        p.vectors().r,
        p.vectors().beta,
        p.projected().len(),
        p.num_blocks(),
        p.max_block_size()
    );
    println!(
        "arcs: {} total, {} interblock ({:.0}%)",
        out.comm.total_arcs,
        out.comm.interblock_arcs,
        100.0 * out.comm.interblock_fraction()
    );
    if a.switch("blocks") {
        for (b, block) in p.blocks().iter().enumerate() {
            let pts: Vec<String> = block
                .iter()
                .map(|&id| format!("{:?}", p.structure().point(id)))
                .collect();
            println!("  B{b}: {}", pts.join(" "));
        }
    }
    let violations = loom_partition::laws::check_all(p);
    println!(
        "laws: {}",
        if violations.is_empty() {
            "all hold".into()
        } else {
            format!("{violations:?}")
        }
    );
    Ok(())
}

fn cmd_map(a: &Args) -> Result<(), CliError> {
    let w = pick_workload(a, &Recorder::disabled())?;
    let out = run_pipeline(a, &w, false)?;
    // Hypercube processors print as binary node labels, mesh/ring
    // processors as their index.
    let label = |proc: usize| match out.placement.as_hypercube() {
        Some(m) => format!("P{proc:0w$b}", w = m.cube().dim().max(1)),
        None => format!("P{proc}"),
    };
    let mut t = Table::new(["block", "size", "processor"]);
    for (b, &proc) in out.placement.assignment().iter().enumerate() {
        t.row([
            format!("B{b}"),
            format!("{}", out.partitioning.block(b).len()),
            label(proc),
        ]);
    }
    println!("{t}");
    let q = loom_mapping::metrics::evaluate_on(
        &out.tig,
        out.placement.assignment(),
        &out.target.topology(),
    );
    println!("quality: {q}");
    Ok(())
}

fn cmd_simulate(a: &Args) -> Result<(), CliError> {
    let rec = obs_recorder();
    let w = pick_workload(a, &rec)?;
    let out = run_pipeline_with(a, &w, true, &rec)?;
    let sim = out.sim_report().map_err(pipeline_failed)?;
    let params = machine_params(a)?;
    println!(
        "{} on {:?} ({} procs), t_calc={} t_start={} t_comm={}{}{}",
        w.nest().name(),
        out.target,
        out.placement.num_procs(),
        params.t_calc,
        params.t_start,
        params.t_comm,
        if a.switch("batch") { ", batched" } else { "" },
        if a.switch("contention") {
            ", contention"
        } else {
            ""
        },
    );
    println!("makespan          = {}", sim.makespan);
    println!("busiest processor = {}", sim.max_proc_occupancy());
    println!("messages, words   = {}, {}", sim.messages, sim.words);
    let mut t = Table::new(["proc", "compute", "comm", "total"]);
    for p in 0..sim.compute.len() {
        t.row([
            format!("P{p}"),
            format!("{}", sim.compute[p]),
            format!("{}", sim.comm[p]),
            format!("{}", sim.compute[p] + sim.comm[p]),
        ]);
    }
    println!("{t}");
    println!(
        "utilization:\n{}",
        loom_viz::utilization_chart(&sim.compute, &sim.comm, sim.makespan, 40)
    );
    if let Some(deg) = sim.degradation.as_ref() {
        println!(
            "faults: {} injected, {} hit ({} drops, {} corruptions, {} delays)",
            deg.faults_injected, deg.faults_hit, deg.drops, deg.corruptions, deg.delays
        );
        println!(
            "recovery: {} retries ({} words resent), {} reroutes, {} crashes, {} tasks remapped",
            deg.retries, deg.retransmitted_words, deg.reroutes, deg.crashes, deg.remapped_tasks
        );
        println!(
            "degradation: makespan {} -> {} (+{:.1}%)",
            deg.baseline_makespan,
            deg.degraded_makespan,
            100.0 * deg.makespan_inflation()
        );
        if let Some(path) = a.flags.get("degradation-out") {
            write_out(path, deg.to_json().render_pretty(), "degradation report")?;
        }
    }
    if a.switch("validate") {
        // A violating trace already failed the pipeline with
        // PipelineError::Trace, so reaching here means a clean replay.
        println!("trace validated: no violations");
    }
    let obs = a.obs_flags();
    if let Some(path) = &obs.metrics_out {
        let doc = loom_core::obs_export::metrics_json(&rec, Some(sim));
        write_out(path, doc.render_pretty(), "metrics")?;
    }
    if let Some(path) = &obs.trace_out {
        match loom_machine::trace::chrome_trace(sim, out.placement.num_procs()) {
            Some(doc) => write_out(path, doc.render_pretty(), "trace")?,
            None => {
                return Err(CliError::failed(
                    "internal error: no trace recorded despite --trace-out",
                ))
            }
        }
    }
    if let Some(path) = &obs.flame_out {
        write_flame(&rec, path)?;
    }
    flush_flight(&rec, "simulate");
    Ok(())
}

fn cmd_codegen(a: &Args) -> Result<(), CliError> {
    let w = pick_workload(a, &Recorder::disabled())?;
    let out = run_pipeline(a, &w, false)?;
    let cg = loom_codegen::generate(
        w.nest(),
        &out.partitioning,
        out.placement.assignment(),
        out.placement.num_procs(),
    )
    .map_err(|e| CliError::failed(format!("codegen refused: {e}")))?;
    println!("{}", loom_codegen::render::render(w.nest(), &cg));
    println!(
        "{} computes, {} messages",
        cg.program.num_computes(),
        cg.program.num_messages()
    );
    if a.switch("run") {
        use loom_exec::memory::address_hash_init;
        let result = loom_codegen::run(w.nest(), &cg, &address_hash_init)
            .map_err(|e| CliError::failed(format!("SPMD run failed: {e}")))?;
        let serial = loom_exec::sequential_on(&cg.elements, &address_hash_init);
        match loom_exec::equivalent(&result.gathered, &serial) {
            Ok(()) => println!("verified: bit-identical to sequential execution"),
            Err(d) => return Err(CliError::failed(format!("DIVERGED: {d:?}"))),
        }
    }
    Ok(())
}

/// Render a check report in the selected `--format` (`human`, `json`,
/// or `sarif`; the legacy `--json` switch still selects JSON).
fn render_report(a: &Args, report: &loom_check::Report) -> Result<(), CliError> {
    let format = if a.switch("json") {
        "json".to_string()
    } else {
        a.str_flag("format", "human")
    };
    match format.as_str() {
        "human" => print!("{}", report.render_human()),
        "json" => println!("{}", report.to_json().render_pretty()),
        "sarif" => {
            let artifact = a.flags.get("file").map(|s| s.as_str());
            println!("{}", report.to_sarif(artifact).render_pretty())
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown --format `{other}` (expected human, json, or sarif)"
            )))
        }
    }
    Ok(())
}

fn apply_allow(a: &Args, report: &mut loom_check::Report) {
    if let Some(allow) = a.flags.get("allow") {
        let codes: Vec<String> = allow
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        report.allow(&codes);
    }
}

/// Parse `--corrupt MODE` into a program mutation.
fn parse_mutation(name: &str) -> Result<loom_check::Mutation, CliError> {
    match name {
        "drop-send" => Ok(loom_check::Mutation::DropSend),
        "dup-send" => Ok(loom_check::Mutation::DupSend),
        "drop-recv" => Ok(loom_check::Mutation::DropRecv),
        "swap" => Ok(loom_check::Mutation::SwapSendEarlier),
        other => Err(CliError::usage(format!(
            "unknown --corrupt `{other}` (expected drop-send, dup-send, drop-recv, or swap)"
        ))),
    }
}

fn cmd_check(a: &Args) -> Result<(), CliError> {
    if let Some(code) = a.flags.get("explain") {
        return match loom_check::explain(code) {
            Some(text) => {
                print!("{text}");
                Ok(())
            }
            None => Err(CliError::usage(format!(
                "unknown rule `{code}`; known rules are LC001 through LC018 and LP001 through LP008"
            ))),
        };
    }
    let symbolic = a.switch("symbolic");
    let interleave = a.switch("interleave") || a.flags.contains_key("corrupt");
    if symbolic && interleave {
        return Err(CliError::usage(
            "--symbolic and --interleave/--corrupt are mutually exclusive",
        ));
    }
    // An admitted `--file` nest's certificate rides along in the
    // report; a rejected one comes back as a rejection report on
    // stdout, not a front-end abort on stderr.
    let (w, certificate) = match a.flags.get("file") {
        Some(path) => file_input(a, path, &Recorder::disabled())?,
        None => (pick_workload(a, &Recorder::disabled())?, Vec::new()),
    };
    let nest = w.nest();
    let pi = loom_hyperplane::TimeFn::new(pi_flag(a)?.unwrap_or_else(|| w.pi.clone()));
    let cube_dim = a.int_flag("cube", 1)?.max(0) as usize;
    let rec = obs_recorder();

    // Stage the pipeline by hand rather than through `run_pipeline`: an
    // illegal Π must come back as an LC001/LC009 diagnostic on stdout,
    // not as a partitioner error on stderr.
    let mut report = loom_check::Report::from_diagnostics(if symbolic {
        loom_check::check_legality_symbolic(&pi, &w.deps)
    } else {
        loom_check::check_legality(&pi, &w.deps)
    });
    if !report.has_errors() {
        let config = loom_partition::PartitionConfig {
            grouping_choice: grouping_choice(a)?,
            seed: None,
        };
        let partitioning =
            loom_partition::partition(nest.space().clone(), w.deps.clone(), pi.clone(), &config)
                .map_err(|e| {
                    let too_large = matches!(e, loom_partition::Error::TooLarge { .. });
                    failed_with_size_hint(format!("partitioning failed: {e}"), too_large)
                })?;
        let tig = loom_partition::Tig::from_partitioning(&partitioning);
        let mapping = loom_mapping::map_partitioning(&partitioning, cube_dim)
            .map_err(|e| CliError::failed(format!("mapping failed: {e}")))?;
        if let Some(mode) = a.flags.get("corrupt") {
            // Seeded-mutation mode: generate the SPMD program, corrupt
            // it, and run the interleaving engine's program-level
            // rules on the result — an expect-fail harness for LC013–
            // LC015 counterexamples.
            let mutation = parse_mutation(mode)?;
            let seed = a.int_flag("corrupt-seed", 1)?.max(0) as u64;
            let mut cg = loom_codegen::generate(
                nest,
                &partitioning,
                mapping.assignment(),
                1usize << mapping.cube().dim(),
            )
            .map_err(|e| CliError::failed(format!("codegen failed: {e}")))?;
            cg.program =
                loom_check::mutate_program(&cg.program, mutation, seed).ok_or_else(|| {
                    CliError::usage(format!(
                        "--corrupt {mode}: the program has no eligible site"
                    ))
                })?;
            report = loom_check::check_program(
                nest,
                &cg,
                &loom_check::InterleaveOptions::default(),
                &rec,
            );
        } else {
            report = loom_check::check_pipeline_mode(
                &loom_check::PipelineCheck {
                    nest,
                    deps: &w.deps,
                    pi: &pi,
                    partitioning: &partitioning,
                    tig: &tig,
                    assignment: mapping.assignment(),
                    cube_dim: mapping.cube().dim(),
                },
                if interleave {
                    loom_check::CheckMode::Interleaving
                } else if symbolic {
                    loom_check::CheckMode::Symbolic
                } else {
                    loom_check::CheckMode::Enumerative
                },
                &rec,
            );
        }
    }
    // Prepend the uniformization certificate/tightness diagnostics of
    // an admitted --file nest — except in symbolic mode, where
    // check_pipeline_mode's LC010 arm re-derives and already includes
    // them.
    if !certificate.is_empty() && !symbolic {
        let mut merged = loom_check::Report::from_diagnostics(certificate);
        merged.extend(report.diagnostics().to_vec());
        report = merged;
    }
    apply_allow(a, &mut report);
    render_report(a, &report)?;
    let obs = a.obs_flags();
    if let Some(path) = &obs.metrics_out {
        let doc = loom_core::obs_export::metrics_json(&rec, None);
        write_out(path, doc.render_pretty(), "metrics")?;
    }
    if let Some(path) = &obs.flame_out {
        write_flame(&rec, path)?;
    }
    flush_flight(&rec, "check");
    if report.has_errors() {
        return Err(CliError::Diagnostics);
    }
    Ok(())
}

fn cmd_viz(a: &Args) -> Result<(), CliError> {
    let w = pick_workload(a, &Recorder::disabled())?;
    let out = run_pipeline(a, &w, false)?;
    if a.switch("dot") {
        println!("{}", loom_viz::group_graph_dot(&out.partitioning));
        println!(
            "{}",
            loom_viz::tig_dot(&out.tig, Some(out.placement.assignment()))
        );
        return Ok(());
    }
    match loom_viz::block_grid(&out.partitioning) {
        Some(grid) => {
            println!("blocks (one letter per block):\n{grid}");
            let sched = loom_hyperplane::Schedule::build(out.pi.clone(), w.nest().space());
            println!(
                "hyperplane steps (mod 10):\n{}",
                loom_viz::wavefront_grid(&sched, w.nest().space()).unwrap()
            );
        }
        None => {
            println!("(space is not 2-D; emitting DOT instead)\n");
            println!("{}", loom_viz::group_graph_dot(&out.partitioning));
        }
    }
    Ok(())
}

/// `--symbolic`: the size family behind the picked builtin workload, so
/// the explorer can rank by closed-form `T_exec`. A `--file` nest has
/// no size family, so the combination is a usage error.
fn symbolic_explore(a: &Args) -> Result<loom_core::explore::SymbolicExplore, CliError> {
    if a.flags.contains_key("file") {
        return Err(CliError::usage(
            "error: --symbolic needs a size-parameterized builtin workload; \
             a --file nest has no size family",
        ));
    }
    let size = a.int_flag("size", 8)?;
    let size2 = a.int_flag("size2", size)?;
    let raw = a.str_flag("workload", "l1");
    // Pin the secondary parameter exactly as `pick_workload` does, so
    // `family(size)` reproduces the nest being explored.
    let (name, size2) = match raw.as_str() {
        "conv" | "conv1d" => ("conv", Some(size2.min(size))),
        "conv2d" => ("conv2d", Some(size2.min(size))),
        "sor" | "stencil" => ("sor", Some(size2)),
        "heat2d" | "heat" => ("heat2d", Some(size2)),
        "transitive" | "tc" => ("transitive", None),
        "triangular" | "tri" => ("triangular", None),
        other => (other, None),
    };
    let fam = loom_workloads::family_of(name, size2).ok_or_else(|| {
        CliError::usage(format!("unknown workload `{raw}`; run `loom workloads`"))
    })?;
    let family: loom_core::symbolic_cost::NestFamily = std::sync::Arc::new(move |n| fam(n).nest);
    let mut opts = loom_core::symbolic_cost::DeriveOptions::default();
    if let Some(b) = a.flags.get("symbolic-budget") {
        opts.max_probe_points = b.parse().map_err(|_| {
            CliError::usage("error: --symbolic-budget expects a point count (integer)")
        })?;
    }
    Ok(loom_core::explore::SymbolicExplore { family, size, opts })
}

fn cmd_explore(a: &Args) -> Result<(), CliError> {
    let w = pick_workload(a, &Recorder::disabled())?;
    let dims: Vec<usize> = a
        .int_list_flag("cubes")?
        .map(|v| v.into_iter().map(|x| x.max(0) as usize).collect())
        .unwrap_or_else(|| vec![1, 2, 3]);
    let cfg = loom_core::explore::ExploreConfig {
        pi_bound: a.int_flag("pi-bound", 1)?.max(1),
        top: a.int_flag("top", 10)?.max(1) as usize,
        machine: MachineOptions {
            params: machine_params(a)?,
            ..Default::default()
        },
        threads: a.int_flag("threads", 0)?.max(0) as usize,
        prune: !a.switch("no-prune"),
        symbolic: if a.switch("symbolic") {
            Some(symbolic_explore(a)?)
        } else {
            None
        },
    };
    let rec = obs_recorder();
    let start = std::time::Instant::now();
    let best = loom_core::explore::explore_with(w.nest(), &dims, &cfg, &rec)
        .map_err(|e| CliError::failed(format!("exploration failed: {e}")))?;
    let wall_us = start.elapsed().as_micros() as u64;
    if let Some(path) = &a.obs_flags().flame_out {
        write_flame(&rec, path)?;
    }
    flush_flight(&rec, "explore");
    if let Some(path) = a.flags.get("metrics-out") {
        let doc = loom_core::obs_export::metrics_json(&rec, None);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = a.flags.get("bench-out") {
        let counters = rec.counters();
        let get = |k: &str| counters.get(k).copied().unwrap_or(0);
        let mut fields = vec![
            ("workload", loom_obs::Json::from(w.nest().name())),
            (
                "candidates",
                loom_obs::Json::from(get("explore.candidates")),
            ),
            ("simulated", loom_obs::Json::from(get("explore.simulated"))),
            ("pruned", loom_obs::Json::from(get("explore.pruned"))),
            ("wall_us", loom_obs::Json::from(wall_us)),
            ("ranked", loom_obs::Json::from(best.len())),
        ];
        if cfg.symbolic.is_some() {
            fields.push((
                "symbolic_exact",
                loom_obs::Json::from(get("explore.symbolic.exact")),
            ));
            fields.push((
                "symbolic_fallback",
                loom_obs::Json::from(get("explore.symbolic.fallback")),
            ));
            fields.push((
                "symbolic_probe_points",
                loom_obs::Json::from(get("explore.symbolic.probe_points")),
            ));
        }
        let doc = loom_obs::Json::obj(fields);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
        eprintln!("bench summary written to {path}");
    }
    if cfg.symbolic.is_some() {
        let counters = rec.counters();
        let get = |k: &str| counters.get(k).copied().unwrap_or(0);
        eprintln!(
            "symbolic: {} exact, {} fallback, {} infeasible \
             ({} probe sims, {} probe points)",
            get("explore.symbolic.exact"),
            get("explore.symbolic.fallback"),
            get("explore.symbolic.infeasible"),
            get("explore.symbolic.probe_sims"),
            get("explore.symbolic.probe_points"),
        );
    }
    let mut t = Table::new([
        "rank", "Π", "grouping", "N", "blocks", "makespan", "messages",
    ]);
    for (i, c) in best.iter().enumerate() {
        t.row([
            format!("{}", i + 1),
            format!("{:?}", c.pi),
            format!("D[{}]", c.grouping),
            format!("{}", 1usize << c.cube_dim),
            format!("{}", c.blocks),
            format!("{}", c.makespan),
            format!("{}", c.messages),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn cmd_profile(a: &Args) -> Result<(), CliError> {
    let rec = obs_recorder();
    let w = pick_workload(a, &rec)?;
    let cfg = PipelineConfig {
        time_fn: pi_flag(a)?.or(Some(w.pi.clone())),
        cube_dim: a.int_flag("cube", 1)?.max(0) as usize,
        target: pick_target(a)?,
        machine: None,
        ..Default::default()
    };
    // Stage by hand: the profiler needs the Program and SimConfig,
    // which PipelineOutput does not carry.
    let stage = w
        .pipeline
        .stage_partition(&cfg, &rec)
        .map_err(pipeline_failed)?;
    let (placement, target) = stage.map_with(&cfg, &rec).map_err(pipeline_failed)?;
    let program = {
        let _s = rec.span("pipeline.program");
        stage.program(&placement)
    };
    let sim_cfg = loom_machine::SimConfig {
        params: machine_params(a)?,
        topology: target.topology(),
        words_per_arc: 1,
        batch_messages: a.switch("batch"),
        link_contention: a.switch("contention"),
        record_trace: true,
        collect_metrics: true,
    };
    let report = {
        let _s = rec.span("pipeline.simulate");
        loom_machine::simulate(&program, &sim_cfg)
            .map_err(|e| CliError::failed(format!("simulation failed: {e}")))?
    };
    let k = a.int_flag("top", 3)?.max(1) as usize;
    let profile = {
        let _s = rec.span("profile.critical_path");
        loom_machine::critical_path_top_k(&program, &sim_cfg, &report, k)
            .map_err(|e| CliError::failed(format!("profiling failed: {e}")))?
    };
    if a.switch("json") {
        println!("{}", profile.to_json().render_pretty());
    } else {
        println!(
            "{} on {:?} ({} procs)",
            w.nest().name(),
            target,
            placement.num_procs()
        );
        print!("{}", profile.render_human());
    }
    let obs = a.obs_flags();
    if let Some(path) = &obs.trace_out {
        match loom_machine::trace::chrome_trace_annotated(
            &report,
            placement.num_procs(),
            Some(&profile),
        ) {
            Some(doc) => write_out(path, doc.render_pretty(), "annotated trace")?,
            None => {
                return Err(CliError::failed(
                    "internal error: no trace recorded despite profiling",
                ))
            }
        }
    }
    if let Some(path) = &obs.metrics_out {
        let doc = loom_core::obs_export::metrics_json(&rec, Some(&report));
        write_out(path, doc.render_pretty(), "metrics")?;
    }
    if let Some(path) = &obs.flame_out {
        write_flame(&rec, path)?;
    }
    flush_flight(&rec, "profile");
    Ok(())
}

/// Read + parse a JSON document for `loom obs diff` (size- and
/// depth-bounded: the inputs are untrusted).
fn read_json(path: &str) -> Result<Json, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    Json::parse(&src).map_err(|e| CliError::usage(format!("{path}: invalid JSON: {e}")))
}

fn cmd_obs(a: &Args) -> Result<(), CliError> {
    let (old_path, new_path) =
        match (
            a.positional.first().map(String::as_str),
            a.positional.get(1),
            a.positional.get(2),
        ) {
            (Some("diff"), Some(old), Some(new)) => (old.clone(), new.clone()),
            _ => return Err(CliError::usage(
                "usage: loom obs diff <old.json> <new.json> [--threshold B] [--warn-only] [--json]",
            )),
        };
    let old = read_json(&old_path)?;
    let new = read_json(&new_path)?;
    let opts = loom_obs::DiffOptions {
        tolerance_buckets: a.int_flag("threshold", 1)?.max(0) as usize,
    };
    let report = loom_obs::diff::diff(&old, &new, &opts);
    if a.switch("json") {
        println!("{}", report.to_json().render_pretty());
    } else {
        let table = report.render_table();
        if table.is_empty() {
            println!(
                "no differences beyond noise ({} leaves compared)",
                report.compared
            );
        } else {
            print!("{table}");
        }
    }
    if report.has_regressions() {
        if a.switch("warn-only") {
            eprintln!("regressions found (exit 0: --warn-only)");
        } else {
            return Err(CliError::Diagnostics);
        }
    }
    Ok(())
}

fn cmd_table1(a: &Args) -> Result<(), CliError> {
    let m = a.int_flag("m", 1024)?.max(1) as u64;
    let params = machine_params(a)?;
    let mut t = Table::new(["N", "T_exec (symbolic)", "ticks"]);
    for (n, terms) in table1_rows(m) {
        t.row([
            format!("{n}"),
            terms.render(),
            format!("{}", terms.evaluate(&params)),
        ]);
    }
    println!("{t}");
    Ok(())
}

/// Write to stdout. A reader that closed the pipe wants no more output,
/// so the run ends there with exit 0; any other write failure is exit 1.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let a = args::parse(std::env::args().skip(1));
    let result = match a.command.as_deref() {
        Some("workloads") => {
            cmd_workloads();
            Ok(())
        }
        Some("partition") => cmd_partition(&a),
        Some("map") => cmd_map(&a),
        Some("simulate") | Some("sim") => cmd_simulate(&a),
        Some("codegen") => cmd_codegen(&a),
        Some("check") => cmd_check(&a),
        Some("viz") => cmd_viz(&a),
        Some("explore") => cmd_explore(&a),
        Some("profile") => cmd_profile(&a),
        Some("obs") => cmd_obs(&a),
        Some("table1") => cmd_table1(&a),
        _ => usage(),
    };
    if let Err(e) = result {
        e.render();
        std::process::exit(e.exit_code());
    }
}
