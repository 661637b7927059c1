//! Differential test of the dependence-arc walk: the
//! `ComputationalStructure::{successors, predecessors}` sequences, and
//! the communication statistics and TIG the pipeline derives from them,
//! against a brute-force oracle that tests `IterSpace::contains` for
//! every point and every dependence vector.

use loom_core::{Pipeline, PipelineConfig, PipelineOutput};
use loom_loopir::{parse_nest, LoopNest, Point};
use std::collections::{BTreeMap, HashMap};

fn read_sample(name: &str) -> LoopNest {
    let path = format!("{}/../../samples/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_nest(name, &src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every builtin workload (triangular has affine bounds) plus the
/// variable-distance samples that uniformization admits.
fn nests() -> Vec<LoopNest> {
    let mut nests: Vec<LoopNest> = loom_workloads::all_default()
        .into_iter()
        .map(|w| w.nest)
        .collect();
    nests.push(loom_workloads::triangular::workload(9).nest);
    for sample in [
        "nonuniform.loom",
        "vardist_scale.loom",
        "vardist_diag2d.loom",
    ] {
        nests.push(read_sample(sample));
    }
    nests
}

fn run(nest: &LoopNest) -> PipelineOutput {
    Pipeline::new(nest.clone())
        .run(&PipelineConfig {
            cube_dim: 0,
            machine: None,
            ..Default::default()
        })
        .unwrap_or_else(|e| panic!("{}: {e}", nest.name()))
}

/// The oracle's arcs of one point in one direction (`sign` = +1 for
/// successors, -1 for predecessors), in dependence order.
fn oracle_arcs(
    nest: &LoopNest,
    index: &HashMap<Point, usize>,
    p: &[i64],
    deps: &[Point],
    sign: i64,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (k, d) in deps.iter().enumerate() {
        let q: Point = p.iter().zip(d).map(|(&a, &b)| a + sign * b).collect();
        if nest.space().contains(&q) {
            out.push((index[&q], k));
        }
    }
    out
}

#[test]
fn arc_walk_matches_brute_force_oracle() {
    for nest in nests() {
        let name = nest.name().to_string();
        let out = run(&nest);
        let p = &out.partitioning;
        let cs = p.structure();
        let points: Vec<Point> = nest.space().points().collect();
        assert_eq!(cs.points(), &points[..], "{name}: point ids");
        let index: HashMap<Point, usize> = points
            .iter()
            .enumerate()
            .map(|(i, q)| (q.clone(), i))
            .collect();

        let mut total = 0;
        let mut traffic: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (id, pt) in points.iter().enumerate() {
            let succ = oracle_arcs(&nest, &index, pt, &out.deps, 1);
            let pred = oracle_arcs(&nest, &index, pt, &out.deps, -1);
            assert_eq!(cs.successors(id).collect::<Vec<_>>(), succ, "{name} {pt:?}");
            assert_eq!(
                cs.predecessors(id).collect::<Vec<_>>(),
                pred,
                "{name} {pt:?}"
            );
            total += succ.len();
            for (q, _) in succ {
                let (a, b) = (p.block_of(id), p.block_of(q));
                if a != b {
                    *traffic.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                }
            }
        }
        assert!(total > 0, "{name}: no arcs");
        assert_eq!(cs.num_arcs(), total, "{name}");
        assert_eq!(out.comm.total_arcs, total, "{name}");
        let interblock: u64 = traffic.values().sum();
        assert_eq!(out.comm.interblock_arcs as u64, interblock, "{name}");
        assert_eq!(out.tig.total_traffic(), interblock, "{name}");
        let tig: BTreeMap<(usize, usize), u64> = out.tig.edges().collect();
        assert_eq!(tig, traffic, "{name}: TIG edges");
    }
}
