//! Property harness for the uniformization engine: randomly generated
//! variable-distance nests must either be **admitted with a certificate
//! that re-verifies** and execute bit-identically to the sequential
//! oracle under a folded-set schedule, or be **rejected with evidence**
//! — never silently admitted, never wrongly scheduled. Randomness comes
//! from a seeded [`SplitMix64`] so every run checks the same cases.

use loom_check::{
    admit_uniformized, certify_cover, check_access_dependences_uniformized, Report, UniformizeStats,
};
use loom_core::explore::{explore, ExploreConfig};
use loom_core::pipeline::MachineOptions;
use loom_core::{Pipeline, PipelineConfig};
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, execute_in_order, schedule_order, sequential};
use loom_hyperplane::{find_optimal, Schedule, SearchConfig};
use loom_loopir::{parse_nest, Access, Aff, DepOptions, IterSpace, LoopNest, Stmt};
use loom_machine::MachineParams;
use loom_obs::SplitMix64;
use loom_partition::ComputationalStructure;

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Compare `got` against the golden file at `rel`, regenerating it when
/// `GOLDEN_DUMP=1` is set.
fn assert_golden(rel: &str, got: &str) {
    let path = repo_path(rel);
    if std::env::var("GOLDEN_DUMP").as_deref() == Ok("1") {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("{path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        got, want,
        "{rel} drifted; regenerate with GOLDEN_DUMP=1 if intentional"
    );
}

fn read_sample(name: &str) -> LoopNest {
    let path = repo_path(&format!("samples/{name}"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_nest(name, &src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A random 1-D scaling nest `A[k*i + c] = A[i] + 1` — the canonical
/// variable-distance shape (distance `(k−1)·i + c` grows with `i`).
fn random_scale_nest(rng: &mut SplitMix64, extent: i64) -> LoopNest {
    let k = rng.range_i64(2, 5);
    let c = rng.range_i64(0, 3);
    LoopNest::new(
        format!("scale_k{k}_c{c}"),
        IterSpace::rect(&[extent]).unwrap(),
        vec![Stmt::assign(
            Access::new("A", vec![Aff::new(vec![k], c)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        )],
    )
    .unwrap()
}

/// A random 2-D coupled nest `A[i, i+j] = A[i, j] + 1` over a random
/// rectangle — the distance `(0, i)` varies with the outer index.
fn random_diag_nest(rng: &mut SplitMix64) -> LoopNest {
    let rows = rng.range_i64(3, 8);
    let cols = rng.range_i64(3, 8);
    LoopNest::new(
        "diag2d",
        IterSpace::rect(&[rows, cols]).unwrap(),
        vec![Stmt::assign(
            Access::new("A", vec![Aff::var(2, 0), Aff::new(vec![1, 1], 0)]),
            vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
        )],
    )
    .unwrap()
}

/// Every admitted random nest carries an LC016 certificate that the
/// Presburger core **re-verifies from scratch**: a second independent
/// `certify_cover` pass over the returned fold must refute every escape
/// system again with zero refutations and zero Unknowns.
#[test]
fn certificates_reverify_on_random_nests() {
    let mut rng = SplitMix64::new(0x5eed_0016);
    for case in 0..24 {
        let nest = if case % 3 == 2 {
            random_diag_nest(&mut rng)
        } else {
            let extent = rng.range_i64(6, 17);
            random_scale_nest(&mut rng, extent)
        };
        let mut stats = UniformizeStats::default();
        let (u, diags) = admit_uniformized(&nest, DepOptions::default(), &mut stats)
            .unwrap_or_else(|r| panic!("case {case} ({}): {}", nest.name(), r.render_human()));
        assert!(!u.vectors.is_empty(), "case {case}: empty folded set");
        assert_eq!(stats.refuted, 0, "case {case}");
        assert_eq!(stats.unknown, 0, "case {case}");
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("cover certified")
                    || d.message.contains("conflict-free")),
            "case {case}: no certificate in {diags:#?}"
        );
        // Independent re-verification of the same fold.
        let mut again = UniformizeStats::default();
        let rediags = certify_cover(&nest, &u, &mut again)
            .unwrap_or_else(|e| panic!("case {case}: certificate did not re-verify: {e:#?}"));
        assert_eq!(again.refuted, 0, "case {case}");
        assert_eq!(again.unknown, 0, "case {case}");
        assert!(again.proofs >= stats.proofs, "case {case}");
        assert!(!rediags.is_empty(), "case {case}");
    }
}

/// Executing a random variable-distance nest in the order of a
/// hyperplane schedule legal for the **folded** vector set computes
/// bit-identical memory to the sequential source loop — across sizes.
/// This is the semantic soundness of uniformization: the synthesized
/// uniform set over-approximates the true dependences, so any order it
/// admits preserves every real flow.
#[test]
fn folded_schedule_execution_matches_sequential_oracle() {
    let mut rng = SplitMix64::new(0x5eed_0017);
    for case in 0..12 {
        for extent in [4, 7, 11, 16] {
            let nest = if case % 3 == 2 {
                random_diag_nest(&mut rng)
            } else {
                random_scale_nest(&mut rng, extent)
            };
            let mut stats = UniformizeStats::default();
            let (u, _) = admit_uniformized(&nest, DepOptions::default(), &mut stats)
                .unwrap_or_else(|r| panic!("{}: {}", nest.name(), r.render_human()));
            let pi = find_optimal(&u.vectors, nest.space(), SearchConfig::default())
                .unwrap_or_else(|e| panic!("{}: no legal pi: {e:?}", nest.name()));
            assert!(pi.is_legal_for(&u.vectors), "{}", nest.name());
            let sched = Schedule::build(pi, nest.space());
            let cs = ComputationalStructure::new(nest.space().clone(), u.vectors.clone()).unwrap();
            let order = schedule_order(&cs, &sched);
            let parallel = execute_in_order(&nest, &cs, &order, &address_hash_init)
                .unwrap_or_else(|e| panic!("{}: bad order {e:?}", nest.name()));
            let serial = sequential(&nest, &address_hash_init);
            assert_eq!(
                equivalent(&parallel, &serial),
                Ok(()),
                "case {case} ({}) diverged at extent {extent}",
                nest.name()
            );
        }
    }
}

/// Rejected-by-design inputs stay rejected **with evidence**: a rank
/// mismatch between the write and read subscripts admits no cover, so
/// admission must fail with an error-bearing report that names the
/// offending access pair — Unknown never silently admits.
#[test]
fn uncoverable_nests_reject_with_evidence() {
    // Write rank 1, read rank 2 on the same array: no distance vector
    // is even well-formed, so folding cannot apply.
    let nest = LoopNest::new(
        "rankmix",
        IterSpace::rect(&[6, 6]).unwrap(),
        vec![Stmt::assign(
            Access::simple("A", 2, &[(0, 0)]),
            vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
        )],
    )
    .unwrap();
    let mut stats = UniformizeStats::default();
    let report = admit_uniformized(&nest, DepOptions::default(), &mut stats)
        .expect_err("rank mismatch must not be admitted");
    assert!(report.has_errors(), "{}", report.render_human());
    let human = report.render_human();
    assert!(human.contains("A"), "{human}");
    assert!(
        human.contains("rank") || human.contains("fold") || human.contains("cover"),
        "no evidence in:\n{human}"
    );
}

/// The three variable-distance samples — all rejected by the seed's
/// uniform front end with LC010 — now run the **full pipeline**, and
/// the resulting schedule reproduces the sequential oracle
/// bit-for-bit. This is the acceptance bar for the engine.
#[test]
fn vardist_samples_run_the_pipeline_and_match_the_oracle() {
    for sample in [
        "nonuniform.loom",
        "vardist_scale.loom",
        "vardist_diag2d.loom",
    ] {
        let nest = read_sample(sample);
        let out = Pipeline::new(nest.clone())
            .run(&PipelineConfig {
                cube_dim: 0,
                ..Default::default()
            })
            .unwrap_or_else(|e| panic!("{sample}: pipeline rejected: {e}"));
        assert!(!out.deps.is_empty(), "{sample}: empty folded D");
        assert!(out.pi.is_legal_for(&out.deps), "{sample}");
        let sched = Schedule::build(out.pi.clone(), nest.space());
        let order = schedule_order(out.partitioning.structure(), &sched);
        let parallel = execute_in_order(
            &nest,
            out.partitioning.structure(),
            &order,
            &address_hash_init,
        )
        .unwrap_or_else(|e| panic!("{sample}: bad order {e:?}"));
        let serial = sequential(&nest, &address_hash_init);
        assert_eq!(equivalent(&parallel, &serial), Ok(()), "{sample} diverged");
    }
}

/// Golden end-to-end pipeline output for the committed
/// variable-distance samples: the folded dependence set, the chosen Π,
/// the partition shape, the simulated makespan on the paper's 1991
/// machine, and the full certification report are all pinned.
/// Regenerate with `GOLDEN_DUMP=1 cargo test -p loom-tests-int --test
/// uniformize`.
#[test]
fn vardist_pipeline_goldens() {
    for sample in [
        "nonuniform.loom",
        "vardist_scale.loom",
        "vardist_diag2d.loom",
    ] {
        let nest = read_sample(sample);
        let out = Pipeline::new(nest.clone())
            .run(&PipelineConfig {
                cube_dim: 0,
                machine: Some(MachineOptions {
                    params: MachineParams::classic_1991(),
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap_or_else(|e| panic!("{sample}: pipeline rejected: {e}"));
        let sim = out.sim.as_ref().expect("machine requested");
        let mut stats = UniformizeStats::default();
        let (diags, u) = check_access_dependences_uniformized(&nest, None, &mut stats);
        let u = u.unwrap_or_else(|| panic!("{sample}: not admitted"));
        assert_eq!(u.vectors, out.deps, "{sample}: engine/pipeline D mismatch");
        let report = Report::from_diagnostics(diags);
        let got = format!(
            "sample: {sample}\nfolded D = {:?}\npi = {:?} ({} step(s))\n\
             blocks = {}, arcs = {} total / {} interblock\n\
             makespan = {}, messages = {}\n\n{}",
            out.deps,
            out.pi.coeffs(),
            out.pi.steps(nest.space()),
            out.partitioning.num_blocks(),
            out.comm.total_arcs,
            out.comm.interblock_arcs,
            sim.makespan,
            sim.messages,
            report.render_human(),
        );
        let stem = sample.trim_end_matches(".loom");
        assert_golden(
            &format!("crates/tests-int/golden/uniformize/{stem}.pipeline.txt"),
            &got,
        );
    }
}

/// `explore` ranks mappings for formerly-rejected nests: the seed's
/// explorer refused these inputs outright (LC010 before any candidate
/// was tried); with uniformization it returns a non-empty ranked list
/// whose best candidate carries a legal Π for the folded set.
#[test]
fn explore_ranks_mappings_for_formerly_rejected_nests() {
    for sample in [
        "nonuniform.loom",
        "vardist_scale.loom",
        "vardist_diag2d.loom",
    ] {
        let nest = read_sample(sample);
        let ranked = explore(&nest, &[0], &ExploreConfig::default())
            .unwrap_or_else(|e| panic!("{sample}: explore rejected: {e}"));
        assert!(!ranked.is_empty(), "{sample}: no candidates ranked");
        let best = &ranked[0];
        assert!(best.makespan > 0, "{sample}");
        for pair in ranked.windows(2) {
            assert!(
                pair[0].makespan <= pair[1].makespan,
                "{sample}: ranking out of order"
            );
        }
    }
}
