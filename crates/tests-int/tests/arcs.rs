//! Differential tests of the point graph against enumeration oracles:
//!
//! * the dependence-arc walk — the
//!   `ComputationalStructure::{successors, predecessors}` sequences, and
//!   the communication statistics and TIG the pipeline derives from
//!   them — against a brute-force oracle that tests
//!   `IterSpace::contains` for every point and every dependence vector;
//! * the rank index behind `ComputationalStructure::id_of` against
//!   `PointIter` positions and `IterSpace::contains`;
//! * the row-wise `IterSpace::{count, count_up_to, bounding_box}` and
//!   `TimeFn::step_range` against enumeration;
//! * the projection lines found by `p − u` lookups against grouping by
//!   the scaled integer projection;
//! * the integer projected structure — ids, `neighbor`, region growing
//!   and Algorithm 2's placement — against the rational definitions in
//!   `support`.

mod support;

use loom_core::{Pipeline, PipelineConfig, PipelineOutput};
use loom_hyperplane::TimeFn;
use loom_loopir::{parse_nest, Aff, IterSpace, LoopNest, Point};
use loom_mapping::{map_partitioning, map_positions};
use loom_partition::grouping::select_vectors;
use loom_partition::grow::{grow, GrowConfig};
use loom_partition::{partition, ComputationalStructure, PartitionConfig, ProjectedStructure};
use loom_rational::{QVec, Ratio};
use std::collections::{BTreeMap, HashMap};
use support::RationalProjection;

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

/// The spaces the rank index, the row walks and the projection lines
/// are checked on: every nest above; `for i in 0..=2, j in i..=1`,
/// whose last row is empty; a 3-deep wedge whose middle and inner
/// loops run empty; and a 9-deep nest.
fn spaces() -> Vec<(String, IterSpace)> {
    let mut out: Vec<(String, IterSpace)> = nests()
        .into_iter()
        .map(|n| (n.name().to_string(), n.space().clone()))
        .collect();
    let empty_row = IterSpace::new(
        vec![Aff::constant(2, 0), Aff::var(2, 0)],
        vec![Aff::constant(2, 2), Aff::constant(2, 1)],
    )
    .unwrap();
    out.push(("empty_row".into(), empty_row));
    // for i in 0..=3, j in i..=2, k in i+j−1..=1
    let wedge = IterSpace::new(
        vec![
            Aff::constant(3, 0),
            Aff::var(3, 0),
            Aff::new(vec![1, 1, 0], -1),
        ],
        vec![
            Aff::constant(3, 3),
            Aff::constant(3, 2),
            Aff::constant(3, 1),
        ],
    )
    .unwrap();
    out.push(("wedge".into(), wedge));
    let mut extents = vec![1; 9];
    extents[0] = 3;
    extents[8] = 3;
    out.push(("deep9".into(), IterSpace::rect(&extents).unwrap()));
    out
}

/// Time functions of every sign pattern the projection must handle:
/// the wavefront, one with gcd 2, one whose first nonzero coefficient
/// is negative, and a skew (heat2d's `(2,1,1)` in three dimensions).
fn time_fns(n: usize) -> Vec<Vec<i64>> {
    let mut last_negative = vec![0; n];
    last_negative[n - 1] = -1;
    let mut skew = vec![1; n];
    skew[0] = 2;
    vec![vec![1; n], vec![2; n], last_negative, skew]
}

fn dot(p: &[i64], pi: &[i64]) -> i64 {
    p.iter().zip(pi).map(|(&x, &a)| x * a).sum()
}

/// Per-coordinate `[min, max]` over a non-empty point list.
fn enumerated_box(points: &[Point]) -> Vec<(i64, i64)> {
    (0..points[0].len())
        .map(|j| {
            let xs = points.iter().map(|p| p[j]);
            (xs.clone().min().unwrap(), xs.max().unwrap())
        })
        .collect()
}

#[test]
fn rank_index_matches_enumeration_and_contains() {
    for (name, space) in spaces() {
        let points: Vec<Point> = space.points().collect();
        let cs = ComputationalStructure::new(space.clone(), vec![]).unwrap();
        assert_eq!(cs.points(), &points[..], "{name}: point ids");
        let ids: HashMap<&Point, usize> = points.iter().enumerate().map(|(i, p)| (p, i)).collect();
        // Every lattice point of the bounding box grown by one in each
        // direction: inside points map to their position, others to None.
        let grown: Vec<(i64, i64)> = enumerated_box(&points)
            .into_iter()
            .map(|(lo, hi)| (lo - 1, hi + 1))
            .collect();
        let mut q: Vec<i64> = grown.iter().map(|&(lo, _)| lo).collect();
        let mut probed = 0usize;
        'cells: loop {
            let expected = space.contains(&q).then(|| ids[&q]);
            assert_eq!(cs.id_of(&q), expected, "{name} {q:?}");
            probed += 1;
            for j in (0..q.len()).rev() {
                if q[j] < grown[j].1 {
                    q[j] += 1;
                    q[j + 1..]
                        .iter_mut()
                        .zip(&grown[j + 1..])
                        .for_each(|(x, &(lo, _))| *x = lo);
                    continue 'cells;
                }
            }
            break;
        }
        assert!(probed > points.len(), "{name}: probed only {probed} cells");
        assert_eq!(cs.id_of(&points[0][1..]), None, "{name}: wrong arity");
    }
}

#[test]
fn row_walks_match_enumeration() {
    for (name, space) in spaces() {
        let points: Vec<Point> = space.points().collect();
        let n = points.len();
        assert_eq!(space.count(), n, "{name}");
        for cap in [0, n - 1, n, n + 1, usize::MAX] {
            assert_eq!(
                space.count_up_to(cap),
                (n <= cap).then_some(n),
                "{name} cap {cap}"
            );
        }
        assert_eq!(space.bounding_box(), enumerated_box(&points), "{name}");
        for pi in time_fns(space.dim()) {
            let steps = points.iter().map(|p| dot(p, &pi));
            let expected = steps.clone().min().zip(steps.max());
            assert_eq!(
                TimeFn::new(pi.clone()).step_range(&space),
                expected,
                "{name} Π={pi:?}"
            );
        }
    }
    // A space with no points at all: every row is empty.
    let empty = IterSpace::new(
        vec![Aff::constant(2, 0), Aff::var(2, 0) + 3],
        vec![Aff::constant(2, 2), Aff::constant(2, 1)],
    )
    .unwrap();
    assert_eq!(empty.points().count(), 0);
    assert_eq!((empty.count(), empty.count_up_to(0)), (0, Some(0)));
    assert_eq!(empty.bounding_box(), vec![(0, -1), (0, -1)]);
    assert_eq!(TimeFn::new(vec![1, 1]).step_range(&empty), None);
}

/// The projection lines as grouping by the scaled integer projection
/// `p·(Π·Π) − (p·Π)·Π` finds them: line ids in order of first
/// appearance over the points in id order, members sorted by step.
fn scaled_projection_lines(points: &[Point], pi: &[i64]) -> Vec<Vec<usize>> {
    let pi_sq: i64 = pi.iter().map(|&a| a * a).sum();
    let mut index: HashMap<Vec<i64>, usize> = HashMap::new();
    let mut lines: Vec<Vec<usize>> = Vec::new();
    for (id, p) in points.iter().enumerate() {
        let t = dot(p, pi);
        let key: Vec<i64> = p.iter().zip(pi).map(|(&x, &a)| x * pi_sq - t * a).collect();
        let pid = *index.entry(key).or_insert_with(|| {
            lines.push(Vec::new());
            lines.len() - 1
        });
        lines[pid].push(id);
    }
    for members in &mut lines {
        members.sort_by_key(|&id| dot(&points[id], pi));
    }
    lines
}

#[test]
fn projection_lines_match_scaled_projection_oracle() {
    for (name, space) in spaces() {
        let points: Vec<Point> = space.points().collect();
        let dim = space.dim();
        let cs = ComputationalStructure::new(space, vec![]).unwrap();
        for pi in time_fns(dim) {
            let qp = ProjectedStructure::project(&cs, &TimeFn::new(pi.clone())).unwrap();
            let oracle = scaled_projection_lines(&points, &pi);
            assert_eq!(qp.len(), oracle.len(), "{name} Π={pi:?}: line count");
            let pi_q = QVec::from_ints(&pi);
            for (pid, members) in oracle.iter().enumerate() {
                assert_eq!(
                    qp.line_members(pid),
                    &members[..],
                    "{name} Π={pi:?} line {pid}"
                );
                let image = QVec::from_ints(&points[members[0]]).project(&pi_q);
                assert_eq!(qp.point_q(pid), image, "{name} Π={pi:?} line {pid}");
                let scaled = qp.scale_q(&image).unwrap();
                assert_eq!(qp.id_of(&scaled), Some(pid), "{name} Π={pi:?} line {pid}");
            }
        }
    }
}

/// Every valid `.loom` sample, through the pipeline for its dependences.
fn sample_nests() -> Vec<(LoopNest, Vec<Point>)> {
    let dir = format!("{}/../../samples", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".loom"))
        .collect();
    names.sort();
    assert!(names.len() >= 8, "samples: {names:?}");
    names
        .iter()
        .map(|n| {
            let nest = read_sample(n);
            let deps = run(&nest).deps;
            (nest, deps)
        })
        .collect()
}

#[test]
fn integer_projection_matches_rational_oracle() {
    let mut cases: Vec<(LoopNest, Vec<Point>)> = loom_workloads::all_default()
        .into_iter()
        .chain([loom_workloads::triangular::workload(9)])
        .map(|w| {
            let deps = w.verified_deps();
            (w.nest, deps)
        })
        .collect();
    cases.extend(sample_nests());
    let mut placements = 0;
    for (nest, deps) in cases {
        let name = nest.name().to_string();
        let dim = nest.space().dim();
        let cs = ComputationalStructure::new(nest.space().clone(), deps.clone()).unwrap();
        for pi in time_fns(dim) {
            let time_fn = TimeFn::new(pi.clone());
            let qp = ProjectedStructure::project(&cs, &time_fn).unwrap();
            let oracle = RationalProjection::new(&cs, &time_fn);
            let ctx = format!("{name} Π={pi:?}");

            // Identical projected ids, exact unscaling, and `neighbor`
            // agreeing with the rational sum looked up in a BTreeMap.
            assert_eq!(qp.len(), oracle.points.len(), "{ctx}");
            for (pid, q) in oracle.points.iter().enumerate() {
                assert_eq!(qp.point_q(pid), *q, "{ctx} pid {pid}");
                assert_eq!(qp.id_of(qp.point(pid)), Some(pid), "{ctx} pid {pid}");
                for (k, d) in oracle.deps.iter().enumerate() {
                    assert_eq!(
                        qp.neighbor(pid, k),
                        oracle.id_of(&(q + d)),
                        "{ctx} pid {pid} dep {k}"
                    );
                }
            }
            for (k, d) in oracle.deps.iter().enumerate() {
                assert_eq!(qp.dep_q(k), *d, "{ctx} dep {k}");
                assert_eq!(
                    qp.multiplier(k),
                    d.least_integer_multiplier(),
                    "{ctx} dep {k}"
                );
            }

            // Region growing from the default seed, the paper's seed
            // (−1,…,−1,2), a projected point in the middle of V^p, and a
            // seed off the scaled lattice.
            let s = qp.scale();
            let mut paper = vec![Ratio::int(-1); dim];
            paper[dim - 1] = Ratio::int(2);
            let mut off_lattice = vec![Ratio::int(0); dim];
            off_lattice[0] = Ratio::new(1, s + 1);
            let seeds = [
                None,
                Some(QVec::new(paper)),
                Some(oracle.points[oracle.points.len() / 2].clone()),
                Some(QVec::new(off_lattice)),
            ];
            let gv = select_vectors(&qp, None).unwrap();
            for seed in seeds {
                let ctx = format!("{ctx} seed {seed:?}");
                let grouping = grow(&qp, &gv, &GrowConfig { seed: seed.clone() }).unwrap();
                let (groups, group_of) = support::grow(&oracle, &gv, seed.as_ref());
                assert_eq!(grouping.group_of, group_of, "{ctx}");
                assert_eq!(grouping.len(), groups.len(), "{ctx}");
                for (g, o) in grouping.groups.iter().zip(&groups) {
                    assert_eq!(g.members, o.members, "{ctx}");
                    assert_eq!(qp.unscale(&g.base), o.base, "{ctx}");
                }

                // Algorithm 2: the integer positions place every block
                // where the rational dots do, on every cube that fits.
                let config = PartitionConfig {
                    grouping_choice: None,
                    seed,
                };
                let Ok(p) = partition(nest.space().clone(), deps.clone(), time_fn.clone(), &config)
                else {
                    continue; // Π is not legal for these dependences
                };
                assert_eq!(p.grouping().group_of, group_of, "{ctx}");
                let positions = support::positions(&oracle, &groups, &p.vectors().omega());
                for cube in (0..=3).filter(|&c| 1 << c <= p.num_blocks()) {
                    let expected = map_positions(&positions, cube).unwrap();
                    let mapping = map_partitioning(&p, cube).unwrap();
                    assert_eq!(
                        mapping.assignment(),
                        expected.assignment(),
                        "{ctx} cube {cube}"
                    );
                    placements += 1;
                }
            }
        }
    }
    assert!(placements > 100, "only {placements} placements compared");
}
