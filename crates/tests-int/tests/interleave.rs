//! Property harness for the interleaving model checker (LC013/LC014).
//!
//! Three engines see every program: the DPOR explorer, the naive
//! enumerator (ground truth, budget-capped), and the vector-clock scan
//! (`check_races`, rules LC005/LC007). On pristine pipelines all three
//! must be silent and the DPOR reduction must be *strict* wherever the
//! naive count exceeds one. Under seeded mutations the verdicts must
//! move together: a dropped send is a deadlock for the explorer
//! (LC013), a deadlock for the enumerator, and an unmatched message
//! for the scan (LC007); a stale-payload swap is a determinacy
//! violation (LC014) against the sequential oracle.

#[path = "support/dpor.rs"]
mod dpor_oracle;

use loom_check::{
    check_interleavings, check_races, enumerate_naive, explore_dpor, mutate_program, Exploration,
    InterleaveOptions, InterleaveStats, Mutation, RuleId, Severity,
};
use loom_codegen::{generate, run_schedule};
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, sequential};
use loom_hyperplane::TimeFn;
use loom_loopir::LoopNest;
use loom_mapping::map_partitioning;
use loom_obs::SplitMix64;
use loom_partition::{partition, PartitionConfig};

/// Build the SPMD program for a workload on a 2-cube (four processors:
/// enough concurrency that the naive enumeration genuinely branches).
fn program_for(w: &loom_workloads::Workload) -> (LoopNest, loom_codegen::gen::Codegen) {
    let p = partition(
        w.nest.space().clone(),
        w.deps.clone(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let m = map_partitioning(&p, 2).unwrap();
    let cg = generate(&w.nest, &p, m.assignment(), 4).unwrap();
    (w.nest.clone(), cg)
}

fn workloads() -> Vec<loom_workloads::Workload> {
    vec![
        loom_workloads::l1::workload(6),
        loom_workloads::matvec::workload(8),
        loom_workloads::sor::workload(6, 6),
    ]
}

#[test]
fn clean_pipelines_are_schedule_independent_and_dpor_is_strict() {
    let mut saw_strict_reduction = false;
    for w in workloads() {
        let (nest, cg) = program_for(&w);
        let mut stats = InterleaveStats::default();
        let diags = check_interleavings(&nest, &cg, &InterleaveOptions::default(), &mut stats);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{}: clean pipeline must verify: {diags:?}",
            w.nest.name()
        );
        assert_eq!(stats.deadlocks, 0, "{}", w.nest.name());
        assert!(!stats.truncated, "{}", w.nest.name());
        // The generated protocol has unique tags, so the batched DPOR
        // collapses the whole program to one Kahn equivalence class.
        assert_eq!(
            stats.explored,
            1,
            "{}: unique-tag program must be a single class",
            w.nest.name()
        );
        assert!(stats.naive >= stats.explored, "{}", w.nest.name());
        if stats.naive > 1 {
            assert!(
                stats.explored < stats.naive,
                "{}: DPOR must beat naive enumeration ({} vs {})",
                w.nest.name(),
                stats.explored,
                stats.naive
            );
            saw_strict_reduction = true;
        }
        assert!(stats.replays > 0, "{}", w.nest.name());
    }
    assert!(
        saw_strict_reduction,
        "at least one workload must exhibit real concurrency"
    );
}

#[test]
fn dpor_schedules_replay_to_the_sequential_oracle() {
    for w in workloads() {
        let (nest, cg) = program_for(&w);
        let mut stats = InterleaveStats::default();
        let expl = explore_dpor(&cg.program, &InterleaveOptions::default(), &mut stats);
        assert!(expl.deadlock.is_none(), "{}", w.nest.name());
        assert!(!expl.schedules.is_empty(), "{}", w.nest.name());
        let oracle = sequential(&nest, &address_hash_init);
        for sched in &expl.schedules {
            let run = run_schedule(&nest, &cg, sched, &address_hash_init)
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", w.nest.name()));
            assert!(
                equivalent(&run.gathered, &oracle).is_ok(),
                "{}: explored schedule diverges from the sequential nest",
                w.nest.name()
            );
        }
    }
}

/// Seeded mutations, swept over workloads and seeds: the three engines
/// must agree on the *direction* of every verdict.
#[test]
fn seeded_mutations_cross_validate_the_three_engines() {
    let mut rng = SplitMix64::new(0x1c01_3014);
    let mut lc013 = 0usize;
    let mut lc014 = 0usize;
    let mut granular = 0usize;
    for w in workloads() {
        let (nest, cg) = program_for(&w);
        for mutation in Mutation::all() {
            for _ in 0..2 {
                let seed = rng.next_u64();
                let Some(mutated) = mutate_program(&cg.program, mutation, seed) else {
                    continue;
                };
                let mut bad = cg.clone();
                bad.program = mutated;
                let mut stats = InterleaveStats::default();
                let diags =
                    check_interleavings(&nest, &bad, &InterleaveOptions::default(), &mut stats);
                // The checker must never disagree with its own ground
                // truth (that diagnostic is reserved for checker bugs).
                assert!(
                    diags.iter().all(|d| !d.message.contains("internal:")),
                    "{}/{mutation:?}/{seed:#x}: {diags:?}",
                    w.nest.name()
                );
                let deadlocked = diags.iter().any(|d| {
                    d.rule == RuleId::InterleavingDeadlock && d.severity == Severity::Error
                });
                let diverged = diags.iter().any(|d| {
                    d.rule == RuleId::InterleavingDeterminacy && d.severity == Severity::Error
                });

                // Cross-check 1: the naive enumerator is ground truth
                // for deadlock reachability.
                let naive = enumerate_naive(&bad.program, 4096, 0);
                if !naive.truncated && !stats.truncated {
                    assert_eq!(
                        deadlocked,
                        naive.deadlock,
                        "{}/{mutation:?}/{seed:#x}: DPOR and naive enumeration disagree",
                        w.nest.name()
                    );
                }

                // Cross-check 2: the static vector-clock scan.
                let scan = check_races(&nest, &bad.program);
                match mutation {
                    Mutation::DropSend => {
                        // A send that never happens blocks its receive
                        // in *every* interleaving: LC013 for the model
                        // checker, LC007 for the scan.
                        assert!(
                            deadlocked,
                            "{}/{seed:#x}: dropped send must deadlock",
                            w.nest.name()
                        );
                        assert!(
                            scan.iter().any(|d| d.rule == RuleId::UnmatchedMessage),
                            "{}/{seed:#x}: scan must see the orphaned receive",
                            w.nest.name()
                        );
                        lc013 += 1;
                    }
                    Mutation::DupSend => {
                        // Duplicate tags break the unique-tag batching:
                        // the explorer falls back to granular mode and
                        // must visit more than one class. The payload
                        // is bitwise-identical, so determinacy holds.
                        assert!(!deadlocked, "{}/{seed:#x}", w.nest.name());
                        if !stats.truncated {
                            assert!(
                                stats.explored > 1,
                                "{}/{seed:#x}: duplicate keys must force exploration",
                                w.nest.name()
                            );
                            granular += 1;
                        }
                    }
                    Mutation::DropRecv | Mutation::SwapSendEarlier => {
                        // Stale data: the replay diverges from the
                        // oracle (LC014) or the scan flags the broken
                        // protocol. Individual instances can be benign
                        // (the payload may be redundantly delivered
                        // under another tag), so the requirement that
                        // the engines do catch these is aggregated
                        // over the sweep below.
                        let scan_caught = scan.iter().any(|d| d.severity == Severity::Error);
                        if diverged || deadlocked || scan_caught {
                            lc014 += 1;
                        }
                    }
                }
            }
        }
    }
    // The sweep must actually exercise every verdict direction.
    assert!(lc013 >= 3, "too few LC013 verdicts ({lc013})");
    assert!(lc014 >= 2, "too few stale-data catches ({lc014})");
    assert!(granular >= 3, "too few granular explorations ({granular})");
}

/// `explore_dpor` indexes trace events by mailbox key and only tests the
/// events sharing a key with each transition for races; the full-scan
/// oracle tests every earlier event. Backtrack sets are sets, so both
/// must report identical stats, deadlock witnesses and schedules — on
/// every builtin, pristine and under every mutation at several seeds.
#[test]
fn keyed_race_index_matches_the_full_trace_scan() {
    fn same(name: &str, prog: &loom_codegen::SpmdProgram) -> bool {
        let opts = InterleaveOptions {
            max_interleavings: 512,
            ..InterleaveOptions::default()
        };
        let (mut fast_stats, mut full_stats) =
            (InterleaveStats::default(), InterleaveStats::default());
        let fast: Exploration = explore_dpor(prog, &opts, &mut fast_stats);
        let full = dpor_oracle::explore_dpor_full_scan(prog, &opts, &mut full_stats);
        assert_eq!(fast_stats, full_stats, "{name}");
        assert_eq!(fast.completed, full.completed, "{name}");
        assert_eq!(fast.schedules, full.schedules, "{name}");
        let witness = |e: &Exploration| {
            e.deadlock
                .as_ref()
                .map(|w| (w.steps.clone(), w.blocked.clone()))
        };
        assert_eq!(witness(&fast), witness(&full), "{name}");
        !prog.unique_tags()
    }
    let mut rng = SplitMix64::new(0xd0_5e7);
    let mut granular = 0;
    for w in loom_workloads::all_default() {
        let p = partition(
            w.nest.space().clone(),
            w.deps.clone(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let m = map_partitioning(&p, 2).unwrap();
        let Ok(cg) = generate(&w.nest, &p, m.assignment(), 4) else {
            continue; // conv2d: not value-routable
        };
        same(w.nest.name(), &cg.program);
        for mutation in Mutation::all() {
            for _ in 0..3 {
                let seed = rng.next_u64();
                if let Some(bad) = mutate_program(&cg.program, mutation, seed) {
                    let name = format!("{}/{mutation:?}/{seed:#x}", w.nest.name());
                    granular += usize::from(same(&name, &bad));
                }
            }
        }
    }
    assert!(
        granular > 0,
        "duplicate keys must exercise the race detection"
    );
}
