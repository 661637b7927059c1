//! The three workloads' job lists, and how one job runs and is checked.
//!
//! Every job drives public entry points of the loom crates the way the
//! CLI does, and returns a seed-independent JSON summary of its output
//! that is compared with the committed expected outputs. Where an
//! independent oracle exists the job also checks it and fails on
//! disagreement: codegen memories against `loom_exec::sequential`,
//! Symbolic and Interleaving error-rule sets against the Enumerative
//! one, and symbolic rankings against the plain simulated ranking.

use crate::trace::Tracer;
use loom_check::{CheckMode, PipelineCheck, Report, Severity};
use loom_core::explore::{explore_with, Candidate, ExploreConfig, SymbolicExplore};
use loom_core::symbolic_cost::DeriveOptions;
use loom_core::{MachineOptions, Pipeline, PipelineConfig, PipelineOutput, Placement, Target};
use loom_hyperplane::{SearchConfig, TimeFn};
use loom_loopir::{DepOptions, LoopNest};
use loom_machine::{MachineParams, Program, SimConfig, SimReport, SimScratch};
use loom_mapping::{map_partitioning, Mapping};
use loom_obs::{Json, Recorder, SplitMix64};
use loom_partition::{partition, PartitionConfig, Partitioning, Tig};
use loom_workloads::{conv2d, heat2d, matmul, matvec, triangular, Workload as Nest};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Pool workers for explore jobs: the benchmark host's core count.
const EXPLORE_THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Pipeline::run` through simulation on three nests of 0.5–1 M
    /// points: point-graph walks dominate.
    CompileLarge,
    /// `explore_with`, plain and symbolic: thousands of small
    /// partitions and simulations, Π enumeration, pruning, the pool.
    ExploreSweep,
    /// Static checks in all three modes, codegen + interpreter +
    /// threads against the sequential oracle, the recovering parser,
    /// and uniformization.
    VerifyExec,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CompileLarge,
        Workload::ExploreSweep,
        Workload::VerifyExec,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileLarge => "compile_large",
            Workload::ExploreSweep => "explore_sweep",
            Workload::VerifyExec => "verify_exec",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One unit of work; `name` keys its expected output.
pub struct Job {
    /// Stable job name.
    pub name: String,
    kind: Kind,
}

enum Kind {
    Compile {
        nest: LoopNest,
        config: PipelineConfig,
    },
    Explore {
        nest: LoopNest,
        dims: Vec<usize>,
        config: ExploreConfig,
        /// Also run the plain explorer and require the same ranking.
        oracle: bool,
    },
    Check {
        nest: Nest,
        cube: usize,
    },
    Codegen {
        nest: Nest,
        cube: usize,
    },
    Parse {
        files: Vec<(String, String)>,
    },
    Uniformize {
        nests: Vec<(String, LoopNest)>,
    },
}

/// Everything a workload needs before timing starts.
pub struct Inputs {
    /// Jobs in run order (permuted by the seed).
    pub jobs: Vec<Job>,
    /// Committed expected outputs, keyed by job name.
    pub expected: Json,
    /// Seeds the initial array values given to codegen and exec.
    pub init_seed: u64,
}

/// Generate the workload's nests, read the samples it needs, load the
/// expected outputs from `expected_path`, and order the jobs by `seed`.
pub fn setup(
    workload: Workload,
    seed: u64,
    samples_dir: &Path,
    expected_path: &Path,
) -> Result<Inputs, String> {
    let mut jobs = match workload {
        Workload::CompileLarge => compile_jobs(),
        Workload::ExploreSweep => explore_jobs(),
        Workload::VerifyExec => verify_jobs(samples_dir)?,
    };
    let expected = match std::fs::read_to_string(expected_path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{}: {e}", expected_path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Obj(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", expected_path.display())),
    };
    let mut rng = SplitMix64::new(seed);
    rng.shuffle(&mut jobs);
    Ok(Inputs {
        jobs,
        expected,
        init_seed: rng.next_u64(),
    })
}

fn job(name: &str, kind: Kind) -> Job {
    Job {
        name: name.to_string(),
        kind,
    }
}

fn compile_jobs() -> Vec<Job> {
    let compile = |name: &str, nest: Nest, cube_dim, target, machine| {
        job(
            name,
            Kind::Compile {
                nest: nest.nest,
                config: PipelineConfig {
                    cube_dim,
                    target,
                    machine: Some(machine),
                    ..Default::default()
                },
            },
        )
    };
    vec![
        // Table I's nest: 10^6 points on 16 processors.
        compile(
            "matvec1024_cube4",
            matvec::workload(1024),
            4,
            None,
            MachineOptions::default(),
        ),
        // 3-D, about 6.4k blocks, through the contention path.
        compile(
            "matmul80_cube4_contention",
            matmul::workload(80),
            4,
            None,
            MachineOptions {
                batch_messages: true,
                link_contention: true,
                ..Default::default()
            },
        ),
        // Affine bounds, and the mesh mapper.
        compile(
            "triangular1000_mesh4x4",
            triangular::workload(1000),
            4,
            Some(Target::Mesh { rows: 4, cols: 4 }),
            MachineOptions::default(),
        ),
    ]
}

fn explore_jobs() -> Vec<Job> {
    let plain = |name: &str, nest: Nest, pi_bound| {
        job(
            name,
            Kind::Explore {
                nest: nest.nest,
                dims: vec![1, 2, 3],
                config: explore_config(pi_bound, MachineParams::classic_1991(), None),
                oracle: false,
            },
        )
    };
    let symbolic =
        |name: &str, family: &str, size2, size, pi_bound, dims: &[usize], params, oracle| {
            let fam = loom_workloads::family_of(family, size2).expect("builtin family");
            let nest = fam(size).nest;
            let sym = SymbolicExplore {
                family: Arc::new(move |n| fam(n).nest),
                size,
                opts: DeriveOptions::default(),
            };
            job(
                name,
                Kind::Explore {
                    nest,
                    dims: dims.to_vec(),
                    config: explore_config(pi_bound, params, Some(sym)),
                    oracle,
                },
            )
        };
    // Short pipeline-fill transients: matvec settles into one cost
    // regime, so the closed forms are exact at size 1024.
    let low_latency = MachineParams {
        t_calc: 3,
        t_start: 2,
        t_comm: 1,
        t_recv: 0,
    };
    let classic = MachineParams::classic_1991();
    vec![
        plain("explore_matvec64", matvec::workload(64), 2),
        plain("explore_matmul12", matmul::workload(12), 2),
        plain("explore_heat2d8x8", heat2d::workload(8, 8), 2),
        plain("explore_triangular48", triangular::workload(48), 3),
        // 4-deep: 288 candidates.
        plain("explore_conv2d8", conv2d::workload(8, 8), 2),
        // Sizes where a symbolic fallback can still be simulated, so
        // the plain ranking is the oracle.
        symbolic(
            "symbolic_matvec12",
            "matvec",
            None,
            12,
            2,
            &[1, 2, 3],
            classic,
            true,
        ),
        symbolic(
            "symbolic_sor10",
            "sor",
            Some(10),
            10,
            2,
            &[1, 2, 3],
            classic,
            true,
        ),
        symbolic(
            "symbolic_matvec1024_lowlat",
            "matvec",
            None,
            1024,
            1,
            &[1, 2],
            low_latency,
            false,
        ),
    ]
}

fn explore_config(
    pi_bound: i64,
    params: MachineParams,
    symbolic: Option<SymbolicExplore>,
) -> ExploreConfig {
    ExploreConfig {
        pi_bound,
        top: 10,
        machine: MachineOptions {
            params,
            ..Default::default()
        },
        threads: EXPLORE_THREADS,
        prune: true,
        symbolic,
    }
}

/// The variable-distance samples that uniformization admits.
const VARDIST_SAMPLES: [&str; 3] = [
    "nonuniform.loom",
    "vardist_scale.loom",
    "vardist_diag2d.loom",
];

fn verify_jobs(samples_dir: &Path) -> Result<Vec<Job>, String> {
    let files = read_samples(samples_dir)?;
    let mut vardist = Vec::new();
    for name in VARDIST_SAMPLES {
        let (_, src) = files
            .iter()
            .find(|(f, _)| f == name)
            .ok_or_else(|| format!("sample {name} missing"))?;
        let nest = loom_loopir::parse_nest_recovering(name, src)
            .nest
            .ok_or_else(|| format!("sample {name} does not parse"))?;
        vardist.push((name.to_string(), nest));
    }
    let check = |name: &str, nest: Nest| job(name, Kind::Check { nest, cube: 3 });
    let codegen = |name: &str, nest: Nest| job(name, Kind::Codegen { nest, cube: 1 });
    Ok(vec![
        check("check_matvec256", matvec::workload(256)),
        check("check_matmul32", matmul::workload(32)),
        check("check_heat2d16x24", heat2d::workload(16, 24)),
        codegen("codegen_matmul48", matmul::workload(48)),
        codegen("codegen_heat2d32x32", heat2d::workload(32, 32)),
        job("parse_samples", Kind::Parse { files }),
        job("uniformize_vardist", Kind::Uniformize { nests: vardist }),
    ])
}

/// Every `*.loom` file under `dir` (one level of subdirectories), as
/// (path relative to `dir`, contents), sorted by path.
fn read_samples(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut dirs = vec![(dir.to_path_buf(), String::new())];
    while let Some((d, prefix)) = dirs.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("{}: {e}", d.display()))?.path();
            let file = path
                .file_name()
                .and_then(|f| f.to_str())
                .unwrap_or_default();
            let rel = format!("{prefix}{file}");
            if path.is_dir() {
                dirs.push((path.clone(), format!("{rel}/")));
            } else if file.ends_with(".loom") {
                let src = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                out.push((rel, src));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The initial value of `array[element]` under `seed`: an address hash
/// mixed with the seed, in `[1, 16.75]` like
/// `loom_exec::memory::address_hash_init`.
fn seeded_init(seed: u64, array: &str, element: &[i64]) -> f64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in array
        .bytes()
        .map(u64::from)
        .chain(element.iter().map(|&x| x as u64))
    {
        h = (h ^ b).wrapping_mul(0x0100_0000_01b3);
    }
    (SplitMix64::new(h).next_u64() % 1009) as f64 / 64.0 + 1.0
}

impl Job {
    /// Run the job once. `Err` is a failed operation: a library error,
    /// or an oracle that disagrees.
    pub fn run(&self, tr: &Tracer, init_seed: u64) -> Result<Json, String> {
        match &self.kind {
            Kind::Compile { nest, config } => {
                // Untraced, the pipeline runs as the CLI runs it; traced,
                // the same stages are called one by one so each crate
                // gets its own span.
                if tr.is_on() {
                    compile_staged(nest, config, tr)
                } else {
                    let out = Pipeline::new(nest.clone())
                        .run(config)
                        .map_err(|e| e.to_string())?;
                    Ok(compile_summary(&out))
                }
            }
            Kind::Explore {
                nest,
                dims,
                config,
                oracle,
            } => run_explore(nest, dims, config, *oracle, tr),
            Kind::Check { nest, cube } => run_check(nest, *cube, tr),
            Kind::Codegen { nest, cube } => run_codegen(nest, *cube, init_seed, tr),
            Kind::Parse { files } => Ok(run_parse(files, tr)),
            Kind::Uniformize { nests } => run_uniformize(nests, tr),
        }
    }
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn int_list(xs: &[i64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::from(x)).collect())
}

/// What a compile job must reproduce: the stage artifacts' shapes, the
/// placement, and the simulated execution.
struct CompileParts<'a> {
    deps: &'a [Vec<i64>],
    pi: &'a TimeFn,
    stmt_offsets: &'a [i64],
    partitioning: &'a Partitioning,
    comm: &'a loom_partition::CommStats,
    tig: &'a Tig,
    placement: &'a Placement,
    sim: &'a SimReport,
}

fn compile_summary(out: &PipelineOutput) -> Json {
    let sim = out.sim.as_ref().expect("compile jobs configure a machine");
    summarize(&CompileParts {
        deps: &out.deps,
        pi: &out.pi,
        stmt_offsets: &out.stmt_offsets,
        partitioning: &out.partitioning,
        comm: &out.comm,
        tig: &out.tig,
        placement: &out.placement,
        sim,
    })
}

fn summarize(p: &CompileParts<'_>) -> Json {
    let tig_weight: u64 = p.tig.edges().map(|(_, w)| w).sum();
    Json::obj(vec![
        (
            "deps",
            Json::Arr(p.deps.iter().map(|d| int_list(d)).collect()),
        ),
        ("pi", int_list(p.pi.coeffs())),
        ("stmt_offsets", int_list(p.stmt_offsets)),
        ("points", Json::from(p.partitioning.structure().len())),
        ("blocks", Json::from(p.partitioning.num_blocks())),
        ("total_arcs", Json::from(p.comm.total_arcs)),
        ("interblock_arcs", Json::from(p.comm.interblock_arcs)),
        ("tig_edges", Json::from(p.tig.edges().count())),
        ("tig_weight", Json::from(tig_weight)),
        ("procs", Json::from(p.placement.num_procs())),
        (
            "assignment_fnv",
            Json::from(format!(
                "{:016x}",
                fnv(p.placement.assignment().iter().map(|&a| a as u64))
            )),
        ),
        ("makespan", Json::from(p.sim.makespan)),
        ("messages", Json::from(p.sim.messages)),
        ("words", Json::from(p.sim.words)),
        (
            "proc_time_fnv",
            Json::from(format!(
                "{:016x}",
                fnv(p.sim.compute.iter().chain(&p.sim.comm).copied())
            )),
        ),
    ])
}

/// `Pipeline::run`, one public stage at a time, each under its crate's
/// span. The summary must equal the untraced `Pipeline::run` summary.
fn compile_staged(nest: &LoopNest, config: &PipelineConfig, tr: &Tracer) -> Result<Json, String> {
    let deps = tr
        .span("loopir.deps_s", || {
            loom_loopir::deps::dependence_vectors(nest, config.dep_options)
        })
        .map_err(|e| e.to_string())?;
    let pi = tr
        .span("hyperplane.search_s", || {
            loom_hyperplane::find_optimal_with(
                &deps,
                nest.space(),
                config.search,
                &Recorder::disabled(),
            )
        })
        .map_err(|e| e.to_string())?;
    let records = tr
        .span("loopir.deps_s", || {
            let intra = DepOptions {
                include_intra: true,
                ..config.dep_options
            };
            loom_loopir::deps::extract_dependences(nest, intra)
        })
        .map_err(|e| e.to_string())?;
    let stmt_offsets = tr
        .span("hyperplane.offsets_s", || {
            loom_hyperplane::compute_offsets(nest.stmts().len(), &records, &pi)
        })
        .map_err(|e| format!("{e:?}"))?;
    let partitioning = traced_partition(nest, &deps, &pi, &config.partition, tr)?;
    let comm = tr.span("partition.comm_stats_s", || {
        loom_partition::comm::comm_stats(&partitioning)
    });
    tr.count("partition.interblock_arcs", comm.interblock_arcs as f64);
    let tig = tr.span("partition.tig_s", || Tig::from_partitioning(&partitioning));
    let target = config.target.unwrap_or(Target::Hypercube(config.cube_dim));
    let placement = tr
        .span(
            "mapping.map_s",
            || -> Result<Placement, loom_mapping::Error> {
                // As `PartitionedStage::map_with`: Algorithm 2's hypercube
                // mapping is always built, then the target's own placement.
                let alg2_dim = match target {
                    Target::Hypercube(d) => d,
                    _ => config.cube_dim,
                };
                let mapping = map_partitioning(&partitioning, alg2_dim)?;
                Ok(match target {
                    Target::Hypercube(_) => Placement::Hypercube(mapping),
                    Target::Mesh { rows, cols } => {
                        Placement::Other(loom_mapping::other_targets::map_partitioning_mesh(
                            &partitioning,
                            rows,
                            cols,
                        )?)
                    }
                    Target::Ring(n) => Placement::Other(
                        loom_mapping::other_targets::map_partitioning_ring(&partitioning, n)?,
                    ),
                })
            },
        )
        .map_err(|e| e.to_string())?;
    let machine = config
        .machine
        .as_ref()
        .ok_or("compile jobs configure a machine")?;
    let sim = traced_simulate(nest, &partitioning, &placement, target, machine, tr)?;
    Ok(summarize(&CompileParts {
        deps: &deps,
        pi: &pi,
        stmt_offsets: &stmt_offsets,
        partitioning: &partitioning,
        comm: &comm,
        tig: &tig,
        placement: &placement,
        sim: &sim,
    }))
}

fn traced_partition(
    nest: &LoopNest,
    deps: &[Vec<i64>],
    pi: &TimeFn,
    config: &PartitionConfig,
    tr: &Tracer,
) -> Result<Partitioning, String> {
    let p = tr
        .span("partition.partition_s", || {
            partition(nest.space().clone(), deps.to_vec(), pi.clone(), config)
        })
        .map_err(|e| e.to_string())?;
    tr.count("partition.points", p.structure().len() as f64);
    tr.count("partition.blocks", p.num_blocks() as f64);
    Ok(p)
}

/// `Program::from_partitioning` + `simulate_scratch`, as
/// `loom_core::run_machine` calls them for a fault-free machine.
fn traced_simulate(
    nest: &LoopNest,
    partitioning: &Partitioning,
    placement: &Placement,
    target: Target,
    machine: &MachineOptions,
    tr: &Tracer,
) -> Result<SimReport, String> {
    let program = tr.span("machine.program_s", || {
        Program::from_partitioning(
            partitioning,
            placement.assignment(),
            placement.num_procs(),
            nest.flops_per_iteration(),
        )
    });
    let config = SimConfig {
        params: machine.params,
        topology: target.topology(),
        words_per_arc: machine.words_per_arc,
        batch_messages: machine.batch_messages,
        link_contention: machine.link_contention,
        record_trace: false,
        collect_metrics: false,
    };
    let sim = tr
        .span("machine.simulate_s", || {
            loom_machine::simulate_scratch(&program, &config, &mut SimScratch::default())
        })
        .map_err(|e| e.to_string())?;
    tr.count("machine.messages", sim.messages as f64);
    Ok(sim)
}

fn ranking(ranked: &[Candidate]) -> Json {
    Json::Arr(
        ranked
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("pi", int_list(&c.pi)),
                    ("grouping", Json::from(c.grouping)),
                    ("procs", Json::from(1usize << c.cube_dim)),
                    ("makespan", Json::from(c.makespan)),
                    ("messages", Json::from(c.messages)),
                    ("blocks", Json::from(c.blocks)),
                ])
            })
            .collect(),
    )
}

fn run_explore(
    nest: &LoopNest,
    dims: &[usize],
    config: &ExploreConfig,
    oracle: bool,
    tr: &Tracer,
) -> Result<Json, String> {
    let plain = |config: &ExploreConfig| {
        let (ranked, c) = tr.explore("core.explore_s", |rec| {
            explore_with(nest, dims, config, rec)
        });
        for key in ["candidates", "simulated", "pruned"] {
            let n = c.get(&format!("explore.{key}")).copied().unwrap_or(0);
            tr.count(&format!("core.explore.{key}"), n as f64);
        }
        ranked.map_err(|e| e.to_string())
    };
    let ranked = if config.symbolic.is_some() {
        let (ranked, c) = tr.explore("core.explore_symbolic_s", |rec| {
            explore_with(nest, dims, config, rec)
        });
        for key in ["exact", "fallback", "probe_points"] {
            let n = c
                .get(&format!("explore.symbolic.{key}"))
                .copied()
                .unwrap_or(0);
            tr.count(&format!("core.symbolic.{key}"), n as f64);
        }
        let ranked = ranked.map_err(|e| e.to_string())?;
        if oracle {
            let reference = plain(&ExploreConfig {
                symbolic: None,
                ..config.clone()
            })?;
            if reference != ranked {
                return Err("symbolic ranking differs from the simulated ranking".into());
            }
        }
        ranked
    } else {
        plain(config)?
    };
    Ok(ranking(&ranked))
}

/// Partition `nest` under its documented Π and map it onto a
/// `cube`-dimensional hypercube, under the crates' spans.
fn partition_and_map(
    nest: &Nest,
    cube: usize,
    tr: &Tracer,
) -> Result<(Partitioning, Tig, Mapping), String> {
    let deps = tr
        .span("loopir.deps_s", || {
            loom_loopir::deps::dependence_vectors(&nest.nest, DepOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let p = traced_partition(
        &nest.nest,
        &deps,
        &nest.time_fn(),
        &PartitionConfig::default(),
        tr,
    )?;
    let tig = tr.span("partition.tig_s", || Tig::from_partitioning(&p));
    let m = tr
        .span("mapping.map_s", || map_partitioning(&p, cube))
        .map_err(|e| e.to_string())?;
    Ok((p, tig, m))
}

fn rule_counts(report: &Report) -> Json {
    Json::obj(
        report
            .rule_counts()
            .into_iter()
            .map(|(code, n)| (code, Json::from(n)))
            .collect(),
    )
}

fn error_rules(report: &Report) -> BTreeSet<&'static str> {
    report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule.code())
        .collect()
}

/// Absorb the check engines' counters from `rec`.
fn count_check(tr: &Tracer, rec: &Recorder) {
    let c = rec.counters();
    for (from, to) in [
        ("check.interleave.explored", "check.interleave.explored"),
        ("check.symbolic.fallback", "check.symbolic.fallback"),
    ] {
        tr.count(to, c.get(from).copied().unwrap_or(0) as f64);
    }
}

fn run_check(nest: &Nest, cube: usize, tr: &Tracer) -> Result<Json, String> {
    let (p, tig, m) = partition_and_map(nest, cube, tr)?;
    let pi = nest.time_fn();
    let input = PipelineCheck {
        nest: &nest.nest,
        deps: &nest.deps,
        pi: &pi,
        partitioning: &p,
        tig: &tig,
        assignment: m.assignment(),
        cube_dim: m.cube().dim(),
    };
    let rec = tr.recorder();
    let mut reports = Vec::new();
    for (mode, span, key) in [
        (CheckMode::Enumerative, "check.enumerative_s", "enumerative"),
        (CheckMode::Symbolic, "check.symbolic_s", "symbolic"),
        (
            CheckMode::Interleaving,
            "check.interleave_s",
            "interleaving",
        ),
    ] {
        let report = tr.span(span, || loom_check::check_pipeline_mode(&input, mode, &rec));
        reports.push((key, report));
    }
    count_check(tr, &rec);
    let reference = error_rules(&reports[0].1);
    for (key, report) in &reports[1..] {
        if error_rules(report) != reference {
            return Err(format!(
                "{key} error rules {:?} differ from enumerative {reference:?}",
                error_rules(report)
            ));
        }
    }
    Ok(Json::obj(
        reports
            .iter()
            .map(|(key, report)| (*key, rule_counts(report)))
            .collect(),
    ))
}

fn run_codegen(nest: &Nest, cube: usize, init_seed: u64, tr: &Tracer) -> Result<Json, String> {
    let (p, _tig, m) = partition_and_map(nest, cube, tr)?;
    let n = &nest.nest;
    let cg = tr
        .span("codegen.generate_s", || {
            loom_codegen::generate(n, &p, m.assignment(), m.cube().len())
        })
        .map_err(|e| e.to_string())?;
    let init = move |array: &str, element: &[i64]| seeded_init(init_seed, array, element);
    let interp = tr
        .span("codegen.interp_s", || loom_codegen::run(n, &cg, &init))
        .map_err(|e| e.to_string())?;
    tr.count("codegen.messages", interp.messages as f64);
    let threaded = tr
        .span("codegen.threads_s", || {
            loom_codegen::run_threaded_gathered(n, &cg, &init)
        })
        .map_err(|e| e.to_string())?;
    let serial = tr.span("exec.sequential_s", || loom_exec::sequential(n, &init));
    for (label, memory) in [("interpreter", &interp.gathered), ("threads", &threaded)] {
        tr.span("exec.equivalent_s", || {
            loom_exec::equivalent(memory, &serial)
        })
        .map_err(|d| format!("{label} memory differs from sequential: {d:?}"))?;
        if memory.digest() != serial.digest() {
            return Err(format!("{label} memory digest differs from sequential"));
        }
    }
    Ok(Json::obj(vec![
        ("computes", Json::from(cg.program.num_computes())),
        ("program_messages", Json::from(cg.program.num_messages())),
        ("messages", Json::from(interp.messages)),
        ("words", Json::from(interp.words)),
        ("cells", Json::from(serial.len())),
    ]))
}

fn run_parse(files: &[(String, String)], tr: &Tracer) -> Json {
    Json::obj(
        files
            .iter()
            .map(|(name, src)| {
                let out = tr.span("loopir.parse_s", || {
                    loom_loopir::parse_nest_recovering(name, src)
                });
                tr.count("loopir.diags", out.diags.len() as f64);
                let mut codes: BTreeMap<&str, u64> = BTreeMap::new();
                for d in &out.diags {
                    *codes.entry(d.code.code()).or_default() += 1;
                }
                let codes = codes.into_iter().map(|(c, n)| (c, Json::from(n))).collect();
                let summary = Json::obj(vec![
                    ("ir", Json::from(out.nest.is_some())),
                    ("diags", Json::obj(codes)),
                ]);
                (name.clone(), summary)
            })
            .collect(),
    )
}

/// Admit each variable-distance nest through certified uniformization,
/// then partition it and check it symbolically on one processor.
fn run_uniformize(nests: &[(String, LoopNest)], tr: &Tracer) -> Result<Json, String> {
    let mut out = Vec::new();
    for (name, nest) in nests {
        let mut stats = loom_check::UniformizeStats::default();
        let (u, diags) = tr
            .span("check.uniformize_s", || {
                loom_check::admit_uniformized(nest, DepOptions::default(), &mut stats)
            })
            .map_err(|report| format!("{name}: {}", report.render_human()))?;
        let pi = tr
            .span("hyperplane.search_s", || {
                loom_hyperplane::find_optimal(&u.vectors, nest.space(), SearchConfig::default())
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let p = traced_partition(nest, &u.vectors, &pi, &PartitionConfig::default(), tr)?;
        let tig = tr.span("partition.tig_s", || Tig::from_partitioning(&p));
        let m = tr
            .span("mapping.map_s", || map_partitioning(&p, 0))
            .map_err(|e| format!("{name}: {e}"))?;
        let rec = tr.recorder();
        let report = tr.span("check.symbolic_s", || {
            loom_check::check_pipeline_mode(
                &PipelineCheck {
                    nest,
                    deps: &u.vectors,
                    pi: &pi,
                    partitioning: &p,
                    tig: &tig,
                    assignment: m.assignment(),
                    cube_dim: 0,
                },
                CheckMode::Symbolic,
                &rec,
            )
        });
        count_check(tr, &rec);
        if report.has_errors() {
            return Err(format!("{name}: {}", report.render_human()));
        }
        out.push((
            name.clone(),
            Json::obj(vec![
                (
                    "vectors",
                    Json::Arr(u.vectors.iter().map(|v| int_list(v)).collect()),
                ),
                ("admission", rule_counts(&Report::from_diagnostics(diags))),
                ("pi", int_list(pi.coeffs())),
                ("blocks", Json::from(p.num_blocks())),
                ("check", rule_counts(&report)),
            ]),
        ));
    }
    Ok(Json::obj(out))
}

/// One rung of the scaling ladder: matvec `size` on a 4-cube, staged
/// under `tr`'s spans. Returns the point count.
pub fn ladder_step(size: i64, tr: &Tracer) -> Result<f64, String> {
    let config = PipelineConfig {
        cube_dim: 4,
        ..Default::default()
    };
    compile_staged(&matvec::workload(size).nest, &config, tr)?;
    Ok(tr
        .counters()
        .get("partition.points")
        .copied()
        .unwrap_or(0.0))
}

/// The names of every job of every workload, in report order.
pub fn all_job_names(samples_dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for jobs in [compile_jobs(), explore_jobs(), verify_jobs(samples_dir)?] {
        names.extend(jobs.into_iter().map(|j| j.name));
    }
    Ok(names)
}

/// A compile job whose mapping must fail: 16 blocks on 2^20 processors.
#[cfg(test)]
pub(crate) fn failing_job() -> Job {
    job(
        "failing",
        Kind::Compile {
            nest: matvec::workload(16).nest,
            config: PipelineConfig {
                cube_dim: 20,
                ..Default::default()
            },
        },
    )
}
