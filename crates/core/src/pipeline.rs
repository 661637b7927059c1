//! The end-to-end pipeline: loop nest → dependences → Π → blocks →
//! hypercube mapping → simulated execution.

use crate::admission::Admission;
use loom_check::CheckMode;
use loom_hyperplane::{OffsetError, SearchConfig, TimeFn};
use loom_loopir::{DepOptions, LoopNest, Point};
use loom_machine::trace::{verify_trace, TraceViolation};
use loom_machine::{
    simulate_scratch, simulate_with_faults_scratch, FaultConfig, MachineParams, Program, SimConfig,
    SimReport, SimScratch, Topology,
};
use loom_mapping::other_targets::{map_partitioning_mesh, map_partitioning_ring};
use loom_mapping::{map_partitioning, Mapping};
use loom_obs::{Json, Recorder};
use loom_partition::comm::block_graph;
use loom_partition::{partition, CommStats, PartitionConfig, Partitioning, Tig};
use std::borrow::Cow;

/// The machine the blocks are mapped onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Binary n-cube (the paper's Algorithm 2).
    Hypercube(usize),
    /// 2-D mesh (extension; rows × cols must be powers of two).
    Mesh {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Ring (extension; length must be a power of two).
    Ring(usize),
}

impl Target {
    /// The matching simulator topology.
    pub fn topology(&self) -> Topology {
        match *self {
            Target::Hypercube(d) => Topology::Hypercube(d),
            Target::Mesh { rows, cols } => Topology::Mesh { rows, cols },
            Target::Ring(n) => Topology::Ring(n),
        }
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.topology().len()
    }

    /// `true` iff the machine has no processors (impossible by
    /// construction; included for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Machine-simulation options for the pipeline (the topology is the
/// pipeline's [`Target`]).
#[derive(Clone, Debug)]
pub struct MachineOptions {
    /// Timing parameters.
    pub params: MachineParams,
    /// Words per dependence arc.
    pub words_per_arc: u64,
    /// Merge per-task same-destination messages.
    pub batch_messages: bool,
    /// Model per-link contention in the interconnect.
    pub link_contention: bool,
    /// What happens to the execution trace.
    pub trace: TraceMode,
    /// Collect rich simulator telemetry
    /// ([`loom_machine::SimMetrics`]).
    pub collect_metrics: bool,
    /// Run the `loom-check` static verifier with this engine over the
    /// pipeline's artifacts after mapping (before simulation) and fail
    /// with [`PipelineError::StaticCheck`] on any error-severity
    /// diagnostic. [`CheckMode::Enumerative`] walks points and
    /// messages, [`CheckMode::Symbolic`] proves the same properties in
    /// time independent of the iteration-space extent, and
    /// [`CheckMode::Interleaving`] model-checks the generated program
    /// over all message interleavings. `None` skips the check.
    pub check: Option<CheckMode>,
    /// Inject faults during simulation: the deterministic plan plus the
    /// recovery policy ([`loom_machine::fault`]). `None` simulates the
    /// paper's perfectly reliable machine.
    pub faults: Option<FaultConfig>,
}

impl Default for MachineOptions {
    fn default() -> MachineOptions {
        MachineOptions {
            params: MachineParams::classic_1991(),
            words_per_arc: 1,
            batch_messages: false,
            link_contention: false,
            trace: TraceMode::Off,
            collect_metrics: false,
            check: None,
            faults: None,
        }
    }
}

/// What the simulation does with its execution trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Record no trace.
    Off,
    /// Record the trace into [`SimReport::trace`].
    Record,
    /// Record the trace, check it against the program after simulation,
    /// and fail the pipeline with [`PipelineError::Trace`] on any
    /// violation.
    Validate,
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Dependence-extraction options. Read only by a pipeline built with
    /// [`Pipeline::new`]: an [`admitted`](Pipeline::admitted) one has
    /// applied them already, as it has `uniformize`.
    pub dep_options: DepOptions,
    /// Admit nests the uniform front end rejects through certified
    /// uniformization (`LC016`): variable-distance dependences are
    /// folded into a synthesized constant-vector basis, the cover is
    /// proven by the Presburger core, and the folded set drives the
    /// rest of the pipeline. An uncertifiable nest is rejected with
    /// the full report as [`PipelineError::StaticCheck`]. Disable to
    /// get the seed behavior (every non-uniform nest is a
    /// [`PipelineError::Deps`] rejection).
    pub uniformize: bool,
    /// Fixed time function; `None` searches for the optimal one.
    pub time_fn: Option<Vec<i64>>,
    /// Search bounds when `time_fn` is `None`.
    pub search: SearchConfig,
    /// Algorithm 1 options.
    pub partition: PartitionConfig,
    /// Hypercube dimension `n` (the machine has `2ⁿ` processors).
    /// When `target` is set, only a static check reads it
    /// ([`PartitionedStage::check`]).
    pub cube_dim: usize,
    /// Explicit machine target; `None` uses `Hypercube(cube_dim)`.
    pub target: Option<Target>,
    /// Simulate on the machine model; `None` stops after mapping.
    pub machine: Option<MachineOptions>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            dep_options: DepOptions::default(),
            uniformize: true,
            time_fn: None,
            search: SearchConfig::default(),
            partition: PartitionConfig::default(),
            cube_dim: 2,
            target: None,
            machine: Some(MachineOptions::default()),
        }
    }
}

/// The block placement, for whichever machine shape was targeted.
#[derive(Clone, Debug)]
pub enum Placement {
    /// Algorithm 2's hypercube mapping.
    Hypercube(Mapping),
    /// A mesh/ring mapping (extension targets).
    Other(loom_mapping::TargetMapping),
}

impl Placement {
    /// The block → processor table.
    pub fn assignment(&self) -> &[usize] {
        match self {
            Placement::Hypercube(m) => m.assignment(),
            Placement::Other(m) => m.assignment(),
        }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        match self {
            Placement::Hypercube(m) => m.cube().len(),
            Placement::Other(m) => m.num_procs(),
        }
    }

    /// The hypercube mapping, when the target was a hypercube.
    pub fn as_hypercube(&self) -> Option<&Mapping> {
        match self {
            Placement::Hypercube(m) => Some(m),
            Placement::Other(_) => None,
        }
    }
}

/// Everything the pipeline produced.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// The admitted dependence set `D`.
    pub deps: Vec<Point>,
    /// The time transformation Π.
    pub pi: TimeFn,
    /// Algorithm 1's partitioning.
    pub partitioning: Partitioning,
    /// Interblock communication statistics.
    pub comm: CommStats,
    /// The Task Interaction Graph of the blocks.
    pub tig: Tig,
    /// The block placement on the configured target; Algorithm 2's
    /// mapping for hypercube targets
    /// ([`Placement::as_hypercube`]).
    pub placement: Placement,
    /// The machine target used.
    pub target: Target,
    /// Fine-grain statement schedule offsets δ_s (see
    /// [`loom_hyperplane::offsets`]): statement `s` of iteration `x`
    /// runs at `Π·x + δ_s`. All zeros for single-statement bodies and
    /// nests without intra-iteration dependences.
    pub stmt_offsets: Vec<i64>,
    /// The simulated execution, when requested.
    pub sim: Option<SimReport>,
}

impl PipelineOutput {
    /// The simulation report, as a typed error instead of a panic when
    /// the pipeline was configured with `machine: None`.
    pub fn sim_report(&self) -> Result<&SimReport, PipelineError> {
        self.sim.as_ref().ok_or(PipelineError::NoSimulation)
    }
}

/// A pipeline failure, wrapping the failing stage's error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Dependence extraction failed (non-uniform nest).
    Deps(loom_loopir::Error),
    /// No legal/valid time transformation.
    TimeFn(loom_hyperplane::Error),
    /// Π orders every dependence vector, but no statement offsets make
    /// it valid at statement granularity: intra-iteration and carried
    /// dependences close a cycle through the body's statements.
    Offsets(OffsetError),
    /// Partitioning failed.
    Partition(loom_partition::Error),
    /// Mapping failed.
    Mapping(loom_mapping::Error),
    /// Simulation failed.
    Sim(loom_machine::sim::SimError),
    /// The simulated execution trace violated a structural property
    /// (only produced under [`TraceMode::Validate`]).
    Trace(Vec<TraceViolation>),
    /// The `loom-check` static verifier reported error-severity
    /// diagnostics (only produced when
    /// [`MachineOptions::check`] is set). The full report —
    /// warnings included — rides along for rendering.
    StaticCheck(loom_check::Report),
    /// A simulation-derived artifact was requested from a pipeline
    /// configured with `machine: None`, so no simulation ever ran.
    NoSimulation,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Deps(e) => write!(f, "dependence extraction: {e}"),
            PipelineError::TimeFn(e) => write!(f, "time transformation: {e}"),
            PipelineError::Offsets(e) => write!(f, "statement offsets: {e}"),
            PipelineError::Partition(e) => write!(f, "partitioning: {e}"),
            PipelineError::Mapping(e) => write!(f, "mapping: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation: {e}"),
            PipelineError::Trace(v) => {
                write!(f, "trace validation: {} violation(s): {v:?}", v.len())
            }
            PipelineError::StaticCheck(report) => {
                write!(f, "static check: {}", report.render_human().trim_end())
            }
            PipelineError::NoSimulation => {
                write!(
                    f,
                    "no simulation: the pipeline ran with machine options disabled"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The pipeline driver.
#[derive(Clone, Debug)]
pub struct Pipeline {
    nest: LoopNest,
    admission: Option<Admission>,
}

impl Pipeline {
    /// Wrap a loop nest; each run admits its dependences under the
    /// run's `dep_options` and `uniformize` settings.
    pub fn new(nest: LoopNest) -> Pipeline {
        Pipeline {
            nest,
            admission: None,
        }
    }

    /// Wrap a loop nest whose dependences were already admitted
    /// ([`Admission::build`]): every run reads `admission` instead of
    /// extracting again.
    pub fn admitted(nest: LoopNest, admission: Admission) -> Pipeline {
        Pipeline {
            nest,
            admission: Some(admission),
        }
    }

    /// The nest being compiled.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// Run all stages.
    pub fn run(&self, config: &PipelineConfig) -> Result<PipelineOutput, PipelineError> {
        self.run_with(config, &Recorder::disabled())
    }

    /// [`run`](Pipeline::run) with instrumentation: when `recorder` is
    /// enabled, each stage records a `pipeline.<stage>` span, and
    /// structural counters (`pipeline.deps`, `pipeline.blocks`,
    /// `pipeline.interblock_arcs`) are filled in along the way.
    pub fn run_with(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<PipelineOutput, PipelineError> {
        let out = {
            let _total = recorder.span("pipeline.total");
            self.stage_partition(config, recorder)?
                .complete_with(config, recorder, None)?
        };
        recorder.flight().emit(
            "pipeline.done",
            &[
                ("nest", Json::from(self.nest.name())),
                ("blocks", Json::from(out.partitioning.num_blocks())),
                ("procs", Json::from(out.placement.num_procs())),
            ],
        );
        Ok(out)
    }

    /// Stage 1: the stored admission, or a fresh one under `config`.
    fn admission(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<Cow<'_, Admission>, PipelineError> {
        match &self.admission {
            Some(admission) => Ok(Cow::Borrowed(admission)),
            None => Admission::build(&self.nest, config.dep_options, config.uniformize, recorder)
                .map(Cow::Owned),
        }
    }

    /// Run stages 1–3 (dependences → Π → statement offsets →
    /// partitioning + TIG): the prefix of the pipeline that depends
    /// only on the nest, the time function, and the grouping choice —
    /// never on the machine. The returned [`PartitionedStage`] can be
    /// completed once per machine size without re-running any of it.
    pub fn stage_partition(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<PartitionedStage<'_>, PipelineError> {
        // 1. Dependence admission.
        let admission = self.admission(config, recorder)?;
        let deps = &admission.vectors;
        recorder.add("pipeline.deps", deps.len() as u64);

        // 2. Time transformation (hyperplane method).
        let pi = {
            let _s = recorder.span("pipeline.time_fn");
            self.time_fn(deps, config, recorder)?
        };

        // 2b. Statement-level offsets (fine-grain schedule), from the
        // admitted records including intra-iteration ones.
        let stmt_offsets = {
            let _s = recorder.span("pipeline.stmt_offsets");
            loom_hyperplane::compute_offsets(self.nest.stmts().len(), &admission.records, &pi)
                .map_err(PipelineError::Offsets)?
        };

        // 3. Partitioning (Algorithm 1).
        let partitioning = {
            let _s = recorder.span("pipeline.partition");
            partition(
                self.nest.space().clone(),
                deps.clone(),
                pi.clone(),
                &config.partition,
            )
            .map_err(PipelineError::Partition)?
        };
        let (comm, tig) = {
            let _s = recorder.span("pipeline.block_graph");
            block_graph(&partitioning)
        };
        recorder.add("pipeline.blocks", partitioning.num_blocks() as u64);
        recorder.add("pipeline.interblock_arcs", comm.interblock_arcs as u64);

        Ok(PartitionedStage {
            nest: &self.nest,
            deps: deps.clone(),
            pi,
            stmt_offsets,
            partitioning,
            comm,
            tig,
        })
    }

    /// The symbolic-cost stage: derive a closed-form `T_exec` for this
    /// nest's configuration over the size family it belongs to
    /// (`family(target_size)` must equal the wrapped nest), instead of
    /// simulating at the target size. Resumable: the [`ProbeCache`]
    /// carries every probe partitioning and probe simulation across
    /// calls, so re-deriving for another cube dimension or a larger
    /// target (same Π and grouping) reuses all of them. A
    /// [`Derivation::Unknown`] result means the caller should fall back
    /// to [`run`](Pipeline::run) — always correct, just not O(1).
    ///
    /// [`ProbeCache`]: crate::symbolic_cost::ProbeCache
    /// [`Derivation::Unknown`]: crate::symbolic_cost::Derivation::Unknown
    pub fn stage_symbolic_cost(
        &self,
        family: &dyn Fn(i64) -> LoopNest,
        target_size: i64,
        config: &PipelineConfig,
        opts: &crate::symbolic_cost::DeriveOptions,
        cache: &mut crate::symbolic_cost::ProbeCache,
        recorder: &Recorder,
    ) -> Result<crate::symbolic_cost::Derivation, PipelineError> {
        let _s = recorder.span("pipeline.symbolic_cost");
        let admission = self.admission(config, recorder)?;
        let pi = self.time_fn(&admission.vectors, config, recorder)?;
        let machine = config.machine.clone().unwrap_or_default();
        let derived = crate::symbolic_cost::derive(
            family,
            &admission.vectors,
            pi.coeffs(),
            &config.partition,
            config.cube_dim,
            target_size,
            &machine,
            opts,
            cache,
        );
        recorder.add("pipeline.symbolic_probe_sims", cache.sims());
        recorder.add("pipeline.symbolic_probe_points", cache.points_spent());
        Ok(derived)
    }

    /// The time transformation Π: `config.time_fn` when fixed (checked
    /// legal for `deps`), otherwise the hyperplane method's optimum.
    fn time_fn(
        &self,
        deps: &[Point],
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<TimeFn, PipelineError> {
        match &config.time_fn {
            Some(coeffs) => {
                let pi = TimeFn::new(coeffs.clone());
                pi.check_legal(deps).map_err(PipelineError::TimeFn)?;
                Ok(pi)
            }
            None => {
                loom_hyperplane::find_optimal_with(deps, self.nest.space(), config.search, recorder)
                    .map_err(PipelineError::TimeFn)
            }
        }
    }
}

/// The machine-independent prefix of a pipeline run: everything up to
/// and including partitioning and the TIG, produced by
/// [`Pipeline::stage_partition`]. The mapping and simulation stages
/// still have to run; exploration computes one stage per (Π, grouping)
/// pair and completes it once per machine size, instead of re-running
/// projection, grouping, and region growing for every `cube_dim`.
#[derive(Clone, Debug)]
pub struct PartitionedStage<'a> {
    nest: &'a LoopNest,
    /// The admitted dependence set `D`.
    pub deps: Vec<Point>,
    /// The time transformation Π.
    pub pi: TimeFn,
    /// Fine-grain statement schedule offsets δ_s (see
    /// [`loom_hyperplane::offsets`]).
    pub stmt_offsets: Vec<i64>,
    /// Algorithm 1's partitioning.
    pub partitioning: Partitioning,
    /// Interblock communication statistics.
    pub comm: CommStats,
    /// The Task Interaction Graph of the blocks.
    pub tig: Tig,
}

impl PartitionedStage<'_> {
    /// Step 4 — mapping: Algorithm 2 on hypercubes, the extension
    /// allocators on meshes/rings. Only the target's placement is built.
    pub fn map_with(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<(Placement, Target), PipelineError> {
        let target = config.target.unwrap_or(Target::Hypercube(config.cube_dim));
        let _s = recorder.span("pipeline.mapping");
        let placement = match target {
            Target::Hypercube(d) => Placement::Hypercube(
                map_partitioning(&self.partitioning, d).map_err(PipelineError::Mapping)?,
            ),
            Target::Mesh { rows, cols } => Placement::Other(
                map_partitioning_mesh(&self.partitioning, rows, cols)
                    .map_err(PipelineError::Mapping)?,
            ),
            Target::Ring(n) => Placement::Other(
                map_partitioning_ring(&self.partitioning, n).map_err(PipelineError::Mapping)?,
            ),
        };
        Ok((placement, target))
    }

    /// Step 4b — static verification (`loom-check`) with the given
    /// engine: every rule runs against the stage's artifacts plus the
    /// placement, counters land as `check.<code>` (symbolic runs add the
    /// `check.symbolic.*` proof-discharge counters), and error-severity
    /// diagnostics abort the pipeline before any simulation is paid for.
    /// The rules are stated for hypercubes, so a mesh/ring placement is
    /// checked through Algorithm 2's mapping at `cube_dim` instead.
    pub fn check(
        &self,
        placement: &Placement,
        cube_dim: usize,
        mode: CheckMode,
        recorder: &Recorder,
    ) -> Result<(), PipelineError> {
        let _s = recorder.span("pipeline.check");
        let alg2;
        let mapping = match placement.as_hypercube() {
            Some(m) => m,
            None => {
                alg2 = map_partitioning(&self.partitioning, cube_dim)
                    .map_err(PipelineError::Mapping)?;
                &alg2
            }
        };
        let report = loom_check::check_pipeline_mode(
            &loom_check::PipelineCheck {
                nest: self.nest,
                deps: &self.deps,
                pi: &self.pi,
                partitioning: &self.partitioning,
                tig: &self.tig,
                assignment: mapping.assignment(),
                cube_dim: mapping.cube().dim(),
            },
            mode,
            recorder,
        );
        if report.has_errors() {
            return Err(PipelineError::StaticCheck(report));
        }
        Ok(())
    }

    /// The executable form of this stage's blocks under a placement.
    pub fn program(&self, placement: &Placement) -> Program {
        Program::from_partitioning(
            &self.partitioning,
            placement.assignment(),
            placement.num_procs(),
            self.nest.flops_per_iteration(),
        )
    }

    /// Finish the pipeline (mapping → static check → simulation),
    /// consuming the stage into a full [`PipelineOutput`].
    pub fn complete(self, config: &PipelineConfig) -> Result<PipelineOutput, PipelineError> {
        self.complete_with(config, &Recorder::disabled(), None)
    }

    /// [`complete`](PartitionedStage::complete) with instrumentation
    /// and an optional reusable [`SimScratch`]: back-to-back
    /// completions through the same scratch skip the simulator's buffer
    /// allocations while staying bit-identical to fresh-state runs.
    pub fn complete_with(
        self,
        config: &PipelineConfig,
        recorder: &Recorder,
        scratch: Option<&mut SimScratch>,
    ) -> Result<PipelineOutput, PipelineError> {
        let (placement, target) = self.map_with(config, recorder)?;
        if let Some(mode) = config.machine.as_ref().and_then(|o| o.check) {
            self.check(&placement, config.cube_dim, mode, recorder)?;
        }

        // 5. Machine simulation.
        let sim = match &config.machine {
            None => None,
            Some(opts) => {
                let program = {
                    let _s = recorder.span("pipeline.program");
                    self.program(&placement)
                };
                Some(run_machine(&program, target, opts, recorder, scratch)?)
            }
        };

        let PartitionedStage {
            deps,
            pi,
            stmt_offsets,
            partitioning,
            comm,
            tig,
            ..
        } = self;
        Ok(PipelineOutput {
            deps,
            pi,
            partitioning,
            comm,
            tig,
            placement,
            target,
            stmt_offsets,
            sim,
        })
    }
}

/// Step 5 — simulate `program` on `target` under `opts`, with fault
/// bookkeeping (`fault.*` counters) and post-hoc trace validation.
/// `scratch` lets callers reuse the simulator's working buffers across
/// runs; `None` simulates from fresh state. Shared by
/// [`PartitionedStage::complete_with`] and exploration's pruned path.
pub fn run_machine(
    program: &Program,
    target: Target,
    opts: &MachineOptions,
    recorder: &Recorder,
    scratch: Option<&mut SimScratch>,
) -> Result<SimReport, PipelineError> {
    let _s = recorder.span("pipeline.simulate");
    let mut local = SimScratch::default();
    let scratch = scratch.unwrap_or(&mut local);
    let sim_config = SimConfig {
        params: opts.params,
        topology: target.topology(),
        words_per_arc: opts.words_per_arc,
        batch_messages: opts.batch_messages,
        link_contention: opts.link_contention,
        record_trace: opts.trace != TraceMode::Off,
        collect_metrics: opts.collect_metrics,
    };
    let report = match &opts.faults {
        None => simulate_scratch(program, &sim_config, scratch).map_err(PipelineError::Sim)?,
        Some(fc) => {
            let r = simulate_with_faults_scratch(program, &sim_config, fc, scratch)
                .map_err(PipelineError::Sim)?;
            if let Some(deg) = r.degradation.as_ref() {
                recorder.add("fault.injected", deg.faults_injected);
                recorder.add("fault.hit", deg.faults_hit);
                recorder.add("fault.drops", deg.drops);
                recorder.add("fault.corruptions", deg.corruptions);
                recorder.add("fault.delays", deg.delays);
                recorder.add("fault.reroutes", deg.reroutes);
                recorder.add("fault.retries", deg.retries);
                recorder.add("fault.retransmitted_words", deg.retransmitted_words);
                recorder.add("fault.crashes", deg.crashes);
                recorder.add("fault.remapped_tasks", deg.remapped_tasks);
                recorder.add("fault.state_transfer_words", deg.state_transfer_words);
                recorder.add(
                    "fault.makespan_inflation_permille",
                    (deg.makespan_inflation() * 1000.0).round().max(0.0) as u64,
                );
            }
            r
        }
    };
    // Remap recovery legitimately moves tasks off their statically
    // assigned processors, which is exactly what verify_trace rejects —
    // skip validation for runs that actually remapped.
    let remapped = report
        .degradation
        .as_ref()
        .is_some_and(|d| d.remapped_tasks > 0);
    if opts.trace == TraceMode::Validate && !remapped {
        let violations = verify_trace(program, report.trace.as_deref().unwrap_or(&[]));
        if !violations.is_empty() {
            return Err(PipelineError::Trace(violations));
        }
    }
    recorder.flight().emit(
        "sim.done",
        &[
            ("makespan", Json::from(report.makespan)),
            ("messages", Json::from(report.messages)),
            ("words", Json::from(report.words)),
        ],
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_end_to_end() {
        let w = loom_workloads::l1::workload(4);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                cube_dim: 1,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.deps.len(), 3);
        assert_eq!(out.pi.coeffs(), &[1, 1]);
        assert_eq!(out.partitioning.num_blocks(), 4);
        assert_eq!(out.comm.total_arcs, 33);
        assert_eq!(out.comm.interblock_arcs, 12);
        assert_eq!(out.tig.len(), 4);
        let sim = out.sim.unwrap();
        assert!(sim.makespan > 0);
        assert_eq!(sim.compute.len(), 2);
    }

    #[test]
    fn symbolic_cost_stage_is_resumable_across_cube_dims() {
        use crate::symbolic_cost::{Derivation, DeriveOptions, ProbeCache};
        let fam = |n: i64| loom_workloads::matvec::workload(n).nest;
        let pipeline = Pipeline::new(fam(32));
        let mut cache = ProbeCache::new();
        let cfg = PipelineConfig {
            time_fn: Some(vec![1, 1]),
            cube_dim: 1,
            ..Default::default()
        };
        let rec = Recorder::disabled();
        let opts = DeriveOptions::default();
        let d1 = pipeline
            .stage_symbolic_cost(&fam, 32, &cfg, &opts, &mut cache, &rec)
            .unwrap();
        let Derivation::Exact(c1) = d1 else {
            panic!("matvec cube=1 must derive exactly: {d1:?}");
        };
        let points_before = cache.points_spent();
        // Re-derive on a larger cube with the same cache: every probe
        // partitioning is reused, only the new cube's simulations run.
        let cfg2 = PipelineConfig { cube_dim: 2, ..cfg };
        let d2 = pipeline
            .stage_symbolic_cost(&fam, 32, &cfg2, &opts, &mut cache, &rec)
            .unwrap();
        let Derivation::Exact(c2) = d2 else {
            panic!("matvec cube=2 must derive exactly");
        };
        assert!(cache.points_spent() > points_before);
        // Both forms agree with the full pipeline at the target size.
        for (cube_dim, cost) in [(1usize, &c1), (2, &c2)] {
            let out = Pipeline::new(fam(32))
                .run(&PipelineConfig {
                    time_fn: Some(vec![1, 1]),
                    cube_dim,
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(cost.makespan(32), Some(out.sim.as_ref().unwrap().makespan));
            assert_eq!(
                cost.messages_at(32),
                Some(out.sim.as_ref().unwrap().messages)
            );
        }
    }

    #[test]
    fn fixed_time_fn_respected() {
        let w = loom_workloads::sor::workload(6, 6);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(vec![2, 1]),
                cube_dim: 1,
                machine: None,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.pi.coeffs(), &[2, 1]);
        assert!(out.sim.is_none());
        assert!(matches!(out.sim_report(), Err(PipelineError::NoSimulation)));
    }

    #[test]
    fn illegal_fixed_time_fn_rejected() {
        let w = loom_workloads::l1::workload(4);
        let err = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(vec![1, -1]),
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::TimeFn(_)));
    }

    fn matvec_makespans(m: i64, params: MachineParams, dims: &[usize]) -> Vec<u64> {
        let w = loom_workloads::matvec::workload(m);
        dims.iter()
            .map(|&cube_dim| {
                let out = Pipeline::new(w.nest.clone())
                    .run(&PipelineConfig {
                        time_fn: Some(w.pi.clone()),
                        cube_dim,
                        machine: Some(MachineOptions {
                            params,
                            ..Default::default()
                        }),
                        ..Default::default()
                    })
                    .unwrap();
                out.sim.unwrap().makespan
            })
            .collect()
    }

    #[test]
    fn parallel_speedup_on_matvec_when_comm_is_cheap() {
        // On a low-latency machine the simulated makespan must drop as
        // the cube grows.
        let results = matvec_makespans(32, MachineParams::low_latency(), &[0, 1, 2, 3]);
        assert!(
            results.windows(2).all(|w| w[1] < w[0]),
            "makespan must shrink with machine size: {results:?}"
        );
    }

    #[test]
    fn fine_grain_loses_on_classic_machine() {
        // The paper's own caveat: with 1991 communication costs and a
        // small problem, parallel execution is *slower* than serial —
        // "our method is suitable for medium- to coarse-grain
        // computation". The simulator reproduces that regime too.
        let results = matvec_makespans(16, MachineParams::classic_1991(), &[0, 2]);
        assert!(
            results[1] > results[0],
            "fine grain + expensive messages should lose: {results:?}"
        );
    }

    #[test]
    fn cube_too_large_fails_cleanly() {
        let w = loom_workloads::l1::workload(4); // 4 blocks
        let err = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                cube_dim: 4,
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::Mapping(_)));
    }

    #[test]
    fn stmt_offsets_exposed() {
        // L1: no intra-iteration deps → zero offsets for both statements.
        let w = loom_workloads::l1::workload(4);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                machine: None,
                cube_dim: 1,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.stmt_offsets, vec![0, 0]);
    }

    #[test]
    fn infeasible_stmt_offsets_are_a_typed_error() {
        // A[i] = B[i-1] + 1; B[i] = A[i] * 2: Π = (1) orders D = {(1)},
        // but the S0 → S1 intra edge closes a cycle with the carried
        // S1 → S0 edge that only a steeper Π breaks.
        let nest = loom_loopir::parse_nest(
            "cycle",
            "for i = 1 to 7\n  A[i] = B[i-1] + 1;\n  B[i] = A[i] * 2;\n",
        )
        .unwrap();
        let config = |pi| PipelineConfig {
            time_fn: Some(vec![pi]),
            cube_dim: 0,
            machine: None,
            ..Default::default()
        };
        let err = Pipeline::new(nest.clone()).run(&config(1)).unwrap_err();
        assert!(
            matches!(err, PipelineError::Offsets(OffsetError::Infeasible { .. })),
            "{err}"
        );
        let out = Pipeline::new(nest).run(&config(2)).unwrap();
        assert_eq!(out.stmt_offsets, vec![0, 1]);
    }

    #[test]
    fn mesh_and_ring_targets_simulate() {
        let w = loom_workloads::matvec::workload(16);
        for target in [
            Target::Mesh { rows: 2, cols: 4 },
            Target::Ring(8),
            Target::Hypercube(3),
        ] {
            let out = Pipeline::new(w.nest.clone())
                .run(&PipelineConfig {
                    time_fn: Some(w.pi.clone()),
                    target: Some(target),
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(out.target, target);
            assert_eq!(out.placement.num_procs(), 8);
            let sim = out.sim.unwrap();
            assert_eq!(sim.compute.len(), 8);
            let total: u64 = sim.compute.iter().sum();
            assert_eq!(total, 16 * 16 * 2);
            assert_eq!(
                out.placement.as_hypercube().is_some(),
                matches!(target, Target::Hypercube(_))
            );
        }
    }

    #[test]
    fn instrumented_run_records_phases() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        let names: Vec<String> = rec.spans().iter().map(|s| s.name.clone()).collect();
        for phase in [
            "pipeline.deps",
            "pipeline.time_fn",
            "hyperplane.search",
            "pipeline.stmt_offsets",
            "pipeline.partition",
            "pipeline.block_graph",
            "pipeline.mapping",
            "pipeline.program",
            "pipeline.simulate",
            "pipeline.total",
        ] {
            assert!(
                names.contains(&phase.to_string()),
                "missing {phase}: {names:?}"
            );
        }
        let counters = rec.counters();
        assert_eq!(counters.get("pipeline.deps"), Some(&3));
        assert_eq!(
            counters.get("pipeline.blocks"),
            Some(&(out.partitioning.num_blocks() as u64))
        );
        assert!(counters.contains_key("hyperplane.candidates"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::disabled();
        Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        assert!(rec.spans().is_empty());
        assert!(rec.counters().is_empty());
    }

    #[test]
    fn flight_events_flow_through_the_pipeline() {
        use loom_obs::FlightRecorder;
        let w = loom_workloads::l1::workload(4);
        let flight = FlightRecorder::with_capacity(256);
        let rec = Recorder::enabled_with_flight(flight.clone());
        Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        let events = flight.events();
        assert!(events.iter().any(|e| e.kind == "sim.done"));
        assert!(events.iter().any(|e| e.kind == "span"));
        assert_eq!(
            events.last().map(|e| e.kind.as_str()),
            Some("pipeline.done")
        );
        let sim_done = events.iter().find(|e| e.kind == "sim.done").unwrap();
        let j = sim_done.to_json();
        assert!(j.get("makespan").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn validate_trace_accepts_clean_runs() {
        let w = loom_workloads::sor::workload(8, 8);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    trace: TraceMode::Validate,
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap();
        // Validation records the trace.
        assert!(out.sim.unwrap().trace.is_some());
    }

    #[test]
    fn pipeline_metrics_flow_through() {
        let w = loom_workloads::matvec::workload(16);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    collect_metrics: true,
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap();
        let sim = out.sim.unwrap();
        let m = sim.metrics.as_ref().unwrap();
        assert_eq!(m.procs.len(), 4);
        assert_eq!(m.messages.len(), sim.messages as usize);
    }

    #[test]
    fn static_check_passes_clean_pipelines_and_records_counters() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    machine: Some(MachineOptions {
                        check: Some(CheckMode::Enumerative),
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        assert!(out.sim.is_some());
        let names: Vec<String> = rec.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.contains(&"pipeline.check".to_string()));
        assert!(names.contains(&"check.total".to_string()));
    }

    #[test]
    fn static_check_on_mesh_target_checks_algorithm2_mapping() {
        // The hypercube rules need a hypercube mapping: a mesh run checks
        // Algorithm 2's mapping at `cube_dim`, built only for the check.
        let w = loom_workloads::matvec::workload(16);
        let config = |cube_dim| PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim,
            target: Some(Target::Mesh { rows: 2, cols: 2 }),
            machine: Some(MachineOptions {
                check: Some(CheckMode::Enumerative),
                ..Default::default()
            }),
            ..Default::default()
        };
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest.clone())
            .run_with(&config(2), &rec)
            .unwrap();
        assert!(out.placement.as_hypercube().is_none());
        assert!(rec.spans().iter().any(|s| s.name == "check.total"));
        // A cube too large for the blocks fails only because of the check.
        let err = Pipeline::new(w.nest.clone()).run(&config(20)).unwrap_err();
        assert!(matches!(err, PipelineError::Mapping(_)));
        let mut unchecked = config(20);
        unchecked.machine.as_mut().unwrap().check = None;
        assert!(Pipeline::new(w.nest.clone()).run(&unchecked).is_ok());
    }

    #[test]
    fn static_check_off_by_default() {
        let opts = MachineOptions::default();
        assert!(opts.check.is_none());
        assert!(opts.faults.is_none());
    }

    #[test]
    fn symbolic_check_gate_passes_and_records_proof_counters() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    machine: Some(MachineOptions {
                        check: Some(CheckMode::Symbolic),
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        assert!(out.sim.is_some());
        let counters = rec.counters();
        assert!(counters.contains_key("check.symbolic.lattice"));
        assert_eq!(counters.get("check.symbolic.fallback"), Some(&0));
    }

    #[test]
    fn interleave_check_gate_passes_and_records_exploration_counters() {
        let w = loom_workloads::l1::workload(6);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 2,
                    machine: Some(MachineOptions {
                        check: Some(CheckMode::Interleaving),
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        assert!(out.sim.is_some());
        let counters = rec.counters();
        // A generated program is a Kahn network: DPOR visits exactly
        // one interleaving while the naive baseline visits more.
        assert_eq!(counters.get("check.interleave.explored"), Some(&1));
        assert!(counters.get("check.interleave.naive").copied().unwrap_or(0) > 1);
        assert_eq!(counters.get("check.interleave.deadlocks"), Some(&0));
        assert!(
            counters
                .get("check.absint.parametric")
                .copied()
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn fault_plumbing_reaches_simulator_and_recorder() {
        use loom_machine::{FaultPlan, RecoveryPolicy};
        let w = loom_workloads::matvec::workload(16);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    time_fn: Some(w.pi.clone()),
                    cube_dim: 2,
                    machine: Some(MachineOptions {
                        faults: Some(FaultConfig::new(
                            FaultPlan::none().with_crash(3, 50),
                            RecoveryPolicy::Remap,
                        )),
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        let sim = out.sim.unwrap();
        let deg = sim.degradation.as_ref().unwrap();
        assert_eq!(deg.crashes, 1);
        assert!(deg.state_transfer_words > 0);
        let counters = rec.counters();
        assert_eq!(counters.get("fault.crashes"), Some(&1));
        assert_eq!(counters.get("fault.injected"), Some(&1));
        assert!(counters.contains_key("fault.state_transfer_words"));
    }

    #[test]
    fn abort_policy_propagates_unrecoverable() {
        use loom_machine::{FaultPlan, RecoveryPolicy, SimError};
        let w = loom_workloads::matvec::workload(16);
        let err = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    faults: Some(FaultConfig::new(
                        FaultPlan::none().with_crash(0, 0),
                        RecoveryPolicy::Abort,
                    )),
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap_err();
        match err {
            PipelineError::Sim(SimError::Unrecoverable { .. }) => {}
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_pipeline() {
        use loom_machine::{FaultPlan, RecoveryPolicy};
        let w = loom_workloads::matvec::workload(16);
        let base_cfg = PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim: 2,
            ..Default::default()
        };
        let base = Pipeline::new(w.nest.clone())
            .run(&base_cfg)
            .unwrap()
            .sim
            .unwrap();
        let faulted = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                machine: Some(MachineOptions {
                    faults: Some(FaultConfig::new(
                        FaultPlan::none(),
                        RecoveryPolicy::RetryOnly,
                    )),
                    ..Default::default()
                }),
                ..base_cfg
            })
            .unwrap()
            .sim
            .unwrap();
        assert_eq!(faulted.makespan, base.makespan);
        assert_eq!(faulted.messages, base.messages);
        assert_eq!(faulted.words, base.words);
        assert_eq!(faulted.degradation.unwrap().faults_hit, 0);
    }

    #[test]
    fn non_uniform_nest_rejected_with_uniformize_off() {
        use loom_loopir::{Access, Aff, IterSpace, LoopNest, Stmt};
        let nest = LoopNest::new(
            "bad",
            IterSpace::rect(&[4]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![Aff::new(vec![2], 0)]),
                vec![Access::simple("A", 1, &[(0, 0)])],
            )],
        )
        .unwrap();
        let err = Pipeline::new(nest)
            .run(&PipelineConfig {
                uniformize: false,
                ..PipelineConfig::default()
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::Deps(_)));
    }

    #[test]
    fn non_uniform_nest_admitted_through_uniformization() {
        use loom_loopir::{Access, Aff, IterSpace, LoopNest, Stmt};
        // A[2i] = A[i]: the seed front end rejects this with LC010;
        // certified folding admits it with the synthesized set {(1)}.
        let nest = LoopNest::new(
            "vardist",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![Aff::new(vec![2], 0)]),
                vec![Access::simple("A", 1, &[(0, 0)])],
            )],
        )
        .unwrap();
        let rec = Recorder::enabled();
        let out = Pipeline::new(nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 0,
                    ..PipelineConfig::default()
                },
                &rec,
            )
            .expect("admitted through uniformization");
        assert_eq!(out.deps, vec![vec![1]]);
        assert!(out.pi.dot(&[1]) >= 1);
        let counters = rec.counters();
        assert!(counters.get("check.uniformize.pairs") >= Some(&1));
        assert!(counters.get("check.uniformize.proofs") >= Some(&1));
        assert_eq!(counters.get("check.uniformize.refuted"), Some(&0));
        assert_eq!(counters.get("check.uniformize.unknown"), Some(&0));
    }

    #[test]
    fn uncoverable_nest_rejected_with_report() {
        use loom_loopir::{Access, IterSpace, LoopNest, Stmt};
        // Rank-mismatched accesses cannot be folded: admission must
        // fail with the full diagnostic report, never a wrong admission.
        let nest = LoopNest::new(
            "ranks",
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 2, &[(0, 0)]),
                vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
            )],
        )
        .unwrap();
        let err = Pipeline::new(nest)
            .run(&PipelineConfig::default())
            .unwrap_err();
        match err {
            PipelineError::StaticCheck(report) => assert!(report.has_errors()),
            other => panic!("expected StaticCheck rejection, got {other}"),
        }
    }
}
