//! `loom-check` — a static verifier and race detector for the
//! partition/map/codegen pipeline.
//!
//! The paper's correctness argument is a chain of theorems: the time
//! transformation Π is legal (`Π·d ≥ 1`), iterations merged into one
//! block never share a step (Lemma 1), each group talks to at most
//! `2m − β` others (Theorem 2), and the Gray-coded hypercube mapping
//! puts communicating neighbors one hop apart. This crate turns each
//! link of that chain — plus a happens-before data-race analysis of
//! the generated SPMD program — into an executable lint that inspects
//! the pipeline's artifacts *without running them* and reports every
//! violation as a structured [`Diagnostic`]: stable rule id, severity,
//! a span into the loop IR or the derived structures, a human message,
//! and machine-readable JSON.
//!
//! Rule catalogue (see `docs/CHECKS.md`):
//!
//! | id      | name               | checks                                  |
//! |---------|--------------------|-----------------------------------------|
//! | `LC001` | schedule-legality  | `Π·dᵢ ≥ 1` for every dependence         |
//! | `LC002` | block-shared-step  | Lemma 1, by exact rational arithmetic   |
//! | `LC003` | neighbor-bound     | Theorem 2's `2m − β` out-degree bound   |
//! | `LC004` | gray-adjacency     | unit-hop mapping of Ω-neighbor blocks   |
//! | `LC005` | data-race          | happens-before race scan of SPMD code   |
//! | `LC006` | grouping-rank      | Ω is a rank-β independent set           |
//! | `LC007` | unmatched-message  | every `Recv` is satisfiable, no orphans |
//! | `LC008` | fault-plan         | fault plans reference live hardware     |
//! | `LC009` | parametric-legality| legality + Lemma 1, proven symbolically |
//! | `LC010` | access-dependence  | declared `D` matches the subscripts     |
//! | `LC011` | protocol-summary   | symbolic send/recv summary ≡ TIG        |
//! | `LC012` | blocking-cycle     | no wait cycle with total lag ≤ 0        |
//! | `LC013` | interleaving-deadlock | deadlock-freedom under *every* interleaving (DPOR) |
//! | `LC014` | interleaving-determinacy | final memory is interleaving-independent |
//! | `LC015` | block-access-bounds | op indices and access images stay in bounds |
//! | `LC016` | uniformize-soundness | synthesized vectors cover the true dependence relation |
//! | `LC017` | uniformize-tightness | over-approximation and the parallelism it costs |
//! | `LC018` | uniformize-legality  | `Π·v ≥ 1` for every synthesized vector |
//!
//! `LC001`–`LC008` are *enumerative*: they certify one instantiated
//! iteration space by walking its points and messages. `LC009`–`LC012`
//! form the *symbolic* engine ([`symbolic`], backed by the bounded
//! Presburger core in [`presburger`]): they prove the same properties
//! from the lattice and affine structure in time independent of the
//! iteration-space extent, falling back to enumeration only on the
//! rare `Unknown`. `LC013`–`LC015` are the *interleaving* engine
//! ([`interleave`] + [`absint`]): a stateless model checker with
//! dynamic partial-order reduction explores every message interleaving
//! of the generated SPMD program, and an interval abstract
//! interpretation bounds its memory accesses. [`CheckMode`] selects
//! which engine [`check_pipeline_mode`] runs; the enumerative rules
//! stay available as the cross-validation oracle.
//!
//! The checks run standalone (each `check_*` function takes exactly
//! the artifacts it inspects), through [`check_pipeline`] on a bundle
//! of everything the pipeline produced, via `loom check` on the CLI,
//! or as a gated `loom-core` pipeline stage
//! (`MachineOptions::check`, which takes a [`CheckMode`]).

#![deny(missing_docs)]

pub mod absint;
pub mod catalog;
mod diag;
mod faultplan;
pub mod frontend;
mod gray;
pub mod interleave;
mod legality;
mod lemma1;
pub mod presburger;
mod races;
pub mod symbolic;
mod theorem2;
pub mod uniformize;

pub use absint::{check_block_bounds, AbsintStats};
pub use catalog::{catalog, explain, RuleDoc};
pub use diag::{Diagnostic, Report, RuleId, Severity, Span};
pub use faultplan::check_fault_plan;
pub use frontend::{report_from_parse, rule_for};
pub use gray::check_gray;
pub use interleave::{
    check_interleavings, enumerate_naive, explore_dpor, mutate_program, DeadlockWitness,
    Exploration, InterleaveOptions, InterleaveStats, Mutation, NaiveResult,
};
pub use legality::check_legality;
pub use lemma1::check_lemma1;
pub use presburger::{System, Verdict};
pub use races::{check_races, check_races_in};
pub use symbolic::{
    ap_overlap, block_traffic, check_access_dependences, check_access_dependences_uniformized,
    check_blocking_cycles, check_legality_symbolic, check_lemma1_symbolic,
    check_lemma1_symbolic_groups, check_protocol, BlockTraffic, SymbolicStats,
};
pub use theorem2::{check_grouping_vectors, check_neighbor_bound, check_theorem2};
pub use uniformize::{
    admit_uniformized, certify_cover, check_folded_legality, check_tightness, UniformizeStats,
};

use loom_hyperplane::TimeFn;
use loom_loopir::{LoopNest, Point};
use loom_obs::Recorder;
use loom_partition::{Partitioning, Tig};

/// Everything the pipeline produced, bundled for [`check_pipeline`].
pub struct PipelineCheck<'a> {
    /// The source nest.
    pub nest: &'a LoopNest,
    /// The extracted dependence vectors `D`.
    pub deps: &'a [Point],
    /// The chosen time transformation Π.
    pub pi: &'a TimeFn,
    /// Algorithm 1's partitioning.
    pub partitioning: &'a Partitioning,
    /// The Task Interaction Graph of the blocks.
    pub tig: &'a Tig,
    /// The block → processor assignment (Algorithm 2's Gray mapping).
    pub assignment: &'a [usize],
    /// Hypercube dimension the assignment targets.
    pub cube_dim: usize,
}

/// Which verification engine [`check_pipeline_mode`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMode {
    /// The original point-and-message-walking rules (`LC001`–`LC007`).
    /// Cost grows with the iteration-space extent.
    Enumerative,
    /// The symbolic engine: `LC009` (parametric legality + Lemma 1),
    /// `LC010` (exact front-end dependence analysis), `LC011`/`LC012`
    /// (size-independent protocol verification) replace `LC001`,
    /// `LC002`, `LC005`, and `LC007`; the structural rules `LC003`,
    /// `LC004`, and `LC006` run unchanged. Cost is O(lines·deps),
    /// independent of the extent along Π.
    Symbolic,
    /// The interleaving engine: on top of the enumerative structural
    /// rules, `LC015` bounds every op index and access of the
    /// generated program by interval abstract interpretation, then
    /// `LC013`/`LC014` model-check deadlock-freedom and determinacy
    /// across **all** message interleavings with dynamic partial-order
    /// reduction (see [`interleave`]). Strictly stronger than the
    /// single-schedule `LC005`/`LC007` scan, at small-size cost.
    Interleaving,
}

/// Run every check against a pipeline's artifacts.
///
/// The race scan (`LC005`/`LC007`) needs an SPMD program; it is
/// generated here from the partitioning and assignment. Nests outside
/// the value-routable class (e.g. multi-dimensional accumulations like
/// conv2d) cannot be code-generated, and the race scan is skipped with
/// an `Info` diagnostic instead of an error — the remaining rules
/// still run.
pub fn check_pipeline(input: &PipelineCheck<'_>) -> Report {
    check_pipeline_with(input, &Recorder::disabled())
}

/// [`check_pipeline`] with instrumentation: when `recorder` is enabled,
/// the run records a `check.total` span and one `check.<code>` counter
/// per diagnostic.
pub fn check_pipeline_with(input: &PipelineCheck<'_>, recorder: &Recorder) -> Report {
    check_pipeline_mode(input, CheckMode::Enumerative, recorder)
}

/// [`check_pipeline_with`] with an explicit engine choice.
///
/// Symbolic runs additionally record how the proof obligations were
/// discharged as `check.symbolic.lattice` / `check.symbolic.fm` /
/// `check.symbolic.fallback` counters.
pub fn check_pipeline_mode(
    input: &PipelineCheck<'_>,
    mode: CheckMode,
    recorder: &Recorder,
) -> Report {
    let _total = recorder.span("check.total");
    let mut report = Report::new();
    match mode {
        CheckMode::Enumerative | CheckMode::Interleaving => {
            report.extend(check_legality(input.pi, input.deps));
            report.extend(check_lemma1(
                input.pi,
                input.partitioning.structure().points(),
                input.partitioning.blocks(),
            ));
        }
        CheckMode::Symbolic => {
            report.extend(check_legality_symbolic(input.pi, input.deps));
        }
    }
    report.extend(check_theorem2(input.partitioning));
    report.extend(check_grouping_vectors(
        input.partitioning.projected(),
        input.partitioning.vectors(),
    ));
    report.extend(check_gray(
        input.partitioning,
        input.tig,
        input.assignment,
        input.cube_dim,
    ));
    match mode {
        CheckMode::Enumerative => {
            match loom_codegen::generate(
                input.nest,
                input.partitioning,
                input.assignment,
                1usize << input.cube_dim,
            ) {
                Ok(cg) => report.extend(check_races_in(&cg.program, &cg.elements)),
                Err(e) => report.push(Diagnostic::info(
                    RuleId::DataRace,
                    Span::Nest,
                    format!("race analysis skipped: no SPMD program ({e})"),
                )),
            }
        }
        CheckMode::Symbolic => {
            let mut stats = SymbolicStats::default();
            report.extend(check_lemma1_symbolic(input.partitioning, &mut stats));
            let mut ustats = UniformizeStats::default();
            let (deps_diags, uniformized) =
                check_access_dependences_uniformized(input.nest, Some(input.deps), &mut ustats);
            report.extend(deps_diags);
            if let Some(u) = &uniformized {
                if !u.is_trivial() {
                    report.extend(check_folded_legality(input.pi, u));
                }
            }
            report.extend(check_protocol(input.partitioning, input.tig, &mut stats));
            report.extend(check_blocking_cycles(input.partitioning));
            recorder.add("check.symbolic.lattice", stats.lattice_proofs);
            recorder.add("check.symbolic.fm", stats.fm_decided);
            recorder.add("check.symbolic.fallback", stats.enumerated);
            recorder.add("check.uniformize.pairs", ustats.pairs_folded);
            recorder.add("check.uniformize.vectors", ustats.vectors_synthesized);
            recorder.add("check.uniformize.proofs", ustats.proofs);
            recorder.add("check.uniformize.refuted", ustats.refuted);
            recorder.add("check.uniformize.unknown", ustats.unknown);
            recorder.add("check.uniformize.tightness", ustats.tightness_warnings);
        }
        CheckMode::Interleaving => {
            match loom_codegen::generate(
                input.nest,
                input.partitioning,
                input.assignment,
                1usize << input.cube_dim,
            ) {
                Ok(cg) => {
                    let sub =
                        check_program(input.nest, &cg, &InterleaveOptions::default(), recorder);
                    report.extend(sub.diagnostics().to_vec());
                }
                Err(e) => report.push(Diagnostic::info(
                    RuleId::InterleavingDeadlock,
                    Span::Nest,
                    format!("interleaving exploration skipped: no SPMD program ({e})"),
                )),
            }
        }
    }
    for (code, n) in report.rule_counts() {
        recorder.add(&format!("check.{code}"), n);
    }
    report
}

/// Run the interleaving engine's program-level rules
/// (`LC015` bounds, then `LC013`/`LC014` model checking) over an
/// already-generated — possibly corrupted — SPMD program.
///
/// This is the entry point shared by the [`CheckMode::Interleaving`]
/// pipeline arm, the CLI's `--interleave` / `--corrupt` paths, and the
/// property harness: unlike [`check_pipeline_mode`] it takes the
/// program as-is instead of regenerating it, so seeded mutations (see
/// [`interleave::mutate_program`]) flow through the same verdict path
/// as pristine programs. The abstract interpretation runs first; if it
/// finds structural errors the model checker (which would index out of
/// bounds on them) is skipped with an `Info` diagnostic.
pub fn check_program(
    nest: &LoopNest,
    cg: &loom_codegen::gen::Codegen,
    opts: &InterleaveOptions,
    recorder: &Recorder,
) -> Report {
    let mut report = Report::new();
    let mut astats = AbsintStats::default();
    report.extend(check_block_bounds(nest, cg, &mut astats));
    recorder.add("check.absint.parametric", astats.parametric);
    recorder.add("check.absint.enumerated", astats.enumerated);
    let mut istats = InterleaveStats::default();
    if report.has_errors() {
        report.push(Diagnostic::info(
            RuleId::InterleavingDeadlock,
            Span::Nest,
            "interleaving exploration skipped: the program fails its bounds checks (LC015)",
        ));
    } else {
        report.extend(check_interleavings(nest, cg, opts, &mut istats));
    }
    recorder.add("check.interleave.explored", istats.explored);
    recorder.add("check.interleave.naive", istats.naive);
    recorder.add("check.interleave.transitions", istats.transitions);
    recorder.add("check.interleave.sleep_skips", istats.sleep_skips);
    recorder.add("check.interleave.deadlocks", istats.deadlocks);
    recorder.add("check.interleave.replays", istats.replays);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_mapping::map_partitioning;
    use loom_partition::{partition, PartitionConfig};

    fn bundle_of(w: &loom_workloads::Workload, cube_dim: usize) -> Report {
        let deps = w.verified_deps();
        let pi = w.time_fn();
        let p = partition(
            w.nest.space().clone(),
            deps.clone(),
            pi.clone(),
            &PartitionConfig::default(),
        )
        .unwrap();
        let tig = Tig::from_partitioning(&p);
        let m = map_partitioning(&p, cube_dim).unwrap();
        check_pipeline(&PipelineCheck {
            nest: &w.nest,
            deps: &deps,
            pi: &pi,
            partitioning: &p,
            tig: &tig,
            assignment: m.assignment(),
            cube_dim,
        })
    }

    #[test]
    fn l1_pipeline_is_clean() {
        let w = loom_workloads::l1::workload(4);
        let r = bundle_of(&w, 1);
        assert!(!r.has_errors(), "{}", r.render_human());
    }

    #[test]
    fn conv2d_skips_races_with_info() {
        let w = loom_workloads::conv2d::workload(4, 2);
        let r = bundle_of(&w, 1);
        assert!(!r.has_errors(), "{}", r.render_human());
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.severity == Severity::Info && d.rule == RuleId::DataRace));
    }

    #[test]
    fn symbolic_pipeline_is_clean_and_counts_proofs() {
        for w in [
            loom_workloads::l1::workload(4),
            loom_workloads::matvec::workload(8),
            loom_workloads::matmul::workload(4),
        ] {
            let deps = w.verified_deps();
            let pi = w.time_fn();
            let p = partition(
                w.nest.space().clone(),
                deps.clone(),
                pi.clone(),
                &PartitionConfig::default(),
            )
            .unwrap();
            let tig = Tig::from_partitioning(&p);
            let m = map_partitioning(&p, 1).unwrap();
            let rec = Recorder::enabled();
            let r = check_pipeline_mode(
                &PipelineCheck {
                    nest: &w.nest,
                    deps: &deps,
                    pi: &pi,
                    partitioning: &p,
                    tig: &tig,
                    assignment: m.assignment(),
                    cube_dim: 1,
                },
                CheckMode::Symbolic,
                &rec,
            );
            assert!(!r.has_errors(), "{}: {}", w.nest.name(), r.render_human());
            let counters = rec.counters();
            assert!(counters.contains_key("check.symbolic.lattice"));
            assert!(counters.contains_key("check.symbolic.fm"));
            assert_eq!(counters.get("check.symbolic.fallback"), Some(&0));
        }
    }

    #[test]
    fn counters_flow_through_recorder() {
        let w = loom_workloads::l1::workload(4);
        let deps = w.verified_deps();
        let pi = loom_hyperplane::TimeFn::new(vec![1, 1]);
        let p = partition(
            w.nest.space().clone(),
            deps.clone(),
            pi.clone(),
            &PartitionConfig::default(),
        )
        .unwrap();
        let tig = Tig::from_partitioning(&p);
        let m = map_partitioning(&p, 1).unwrap();
        let mut scrambled = m.assignment().to_vec();
        scrambled.reverse();
        let rec = Recorder::enabled();
        let report = check_pipeline_with(
            &PipelineCheck {
                nest: &w.nest,
                deps: &deps,
                pi: &pi,
                partitioning: &p,
                tig: &tig,
                assignment: &scrambled,
                cube_dim: 1,
            },
            &rec,
        );
        let counters = rec.counters();
        for (code, n) in report.rule_counts() {
            assert_eq!(counters.get(&format!("check.{code}")), Some(&n));
        }
        assert!(rec.spans().iter().any(|s| s.name == "check.total"));
    }
}
