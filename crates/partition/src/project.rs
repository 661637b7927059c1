//! The projection phase: `Q = (V, D)` → `Q^p = (V^p, D^p)`.

use crate::points::{Lattice, Points};
use crate::Error;
use loom_hyperplane::TimeFn;
use loom_loopir::{IterSpace, Point};
use loom_rational::int::gcd_all;
use loom_rational::QVec;
use std::collections::BTreeMap;

/// The computational structure `Q = (V, D)` of a nested loop
/// (Definition 2): the enumerated index set plus the dependence vectors.
/// Points are stored flat in lexicographic order, so a point's id is its
/// lexicographic rank, and [`id_of`](ComputationalStructure::id_of)
/// inverts it from the loop bounds without hashing.
#[derive(Clone, Debug)]
pub struct ComputationalStructure {
    space: IterSpace,
    lattice: Lattice,
    deps: Vec<Point>,
}

impl ComputationalStructure {
    /// Enumerate a space and attach its dependence set. A space whose
    /// point count overflows `usize` or whose coordinates cannot be
    /// allocated is [`Error::TooLarge`].
    pub fn new(space: IterSpace, deps: Vec<Point>) -> Result<ComputationalStructure, Error> {
        let lattice = Lattice::new(&space)?;
        Ok(ComputationalStructure {
            space,
            lattice,
            deps,
        })
    }

    /// The iteration space.
    pub fn space(&self) -> &IterSpace {
        &self.space
    }

    /// All index points, in lexicographic order; a point's position in
    /// this view is its id.
    pub fn points(&self) -> Points<'_> {
        self.lattice.points()
    }

    /// Coordinates of point `id`.
    pub fn point(&self, id: usize) -> &[i64] {
        self.lattice.point(id)
    }

    /// The dependence set `D`.
    pub fn deps(&self) -> &[Point] {
        &self.deps
    }

    /// Number of iteration points `|V|`.
    pub fn len(&self) -> usize {
        self.lattice.len()
    }

    /// `true` iff there are no points (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of an index point, if it belongs to `V`.
    pub fn id_of(&self, p: &[i64]) -> Option<usize> {
        if p.len() != self.space.dim() {
            return None;
        }
        self.lattice.rank(|j| Some(p[j]))
    }

    /// The dependence arcs leaving point `id` (Definition 2: `p → p + d`
    /// whenever `p + d ∈ V`), as `(successor id, dependence index)` in
    /// dependence order. This and [`predecessors`] are the only code
    /// that decides what an arc is; every consumer walks them.
    ///
    /// [`predecessors`]: ComputationalStructure::predecessors
    pub fn successors(&self, id: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.arcs(id, 1)
    }

    /// The dependence arcs entering point `id` (`p − d → p` whenever
    /// `p − d ∈ V`), as `(predecessor id, dependence index)` in
    /// dependence order.
    pub fn predecessors(&self, id: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.arcs(id, -1)
    }

    /// The neighbours `p + sign·d` of point `id` that lie in `V`, looked
    /// up coordinate by coordinate in the rank index; nothing is built
    /// or allocated.
    fn arcs(&self, id: usize, sign: i64) -> impl Iterator<Item = (usize, usize)> + '_ {
        let p = self.point(id);
        self.deps.iter().enumerate().filter_map(move |(k, d)| {
            if d.len() != p.len() {
                return None;
            }
            self.lattice
                .rank(|j| {
                    if sign > 0 {
                        p[j].checked_add(d[j])
                    } else {
                        p[j].checked_sub(d[j])
                    }
                })
                .map(|q| (q, k))
        })
    }

    /// Total number of dependence arcs in `Q` (33 for the paper's L1).
    pub fn num_arcs(&self) -> usize {
        (0..self.len()).map(|i| self.successors(i).count()).sum()
    }
}

/// The primitive step `u = Π / gcd(Π)` between consecutive lattice points
/// on a projection line, signed so that its first nonzero coordinate is
/// positive: `p + u` is then lexicographically after `p`.
pub(crate) fn line_step(pi: &[i64]) -> Vec<i64> {
    let g = gcd_all(pi);
    assert!(g != 0, "zero time function");
    let sign = match pi.iter().find(|&&a| a != 0) {
        Some(&a) if a < 0 => -1,
        _ => 1,
    };
    pi.iter().map(|&a| sign * (a / g)).collect()
}

/// The projected structure `Q^p = (V^p, D^p)` (Definition 5): the images
/// of `V` and `D` on the zero-hyperplane `Π·x = 0`.
#[derive(Clone, Debug)]
pub struct ProjectedStructure {
    pi: TimeFn,
    proj_points: Vec<QVec>,
    proj_index: BTreeMap<QVec, usize>,
    /// Original point ids of projection line `pid`, sorted by execution
    /// step, at `members[line_start[pid]..line_start[pid + 1]]`.
    line_start: Vec<usize>,
    members: Vec<usize>,
    proj_deps: Vec<QVec>,
}

impl ProjectedStructure {
    /// Project a computational structure along Π (which must be legal for
    /// `cs.deps()`; legality is the caller's responsibility and checked by
    /// [`crate::partition`]).
    ///
    /// Implementation note: the lattice points of one projection line are
    /// `p + k·u` for the step `u` of [`line_step`]. `V` is the set of
    /// lattice points of a convex polyhedron (the loop bounds are affine),
    /// so each line meets it in a contiguous run of `k`. Walking the
    /// points in id (lexicographic) order, a point therefore opens a new
    /// line iff `p − u ∉ V`, and otherwise joins the line of `p − u`,
    /// which has a smaller id. Projected-point ids follow first
    /// appearance, and members come out in lexicographic order, which on
    /// a line is execution-step order when `Π·u > 0` and its reverse when
    /// Π is lexicographically negative. The rational coordinates are
    /// materialized once per line.
    pub fn project(cs: &ComputationalStructure, pi: &TimeFn) -> ProjectedStructure {
        let pi_q = pi.as_qvec();
        let u = line_step(pi.coeffs());
        let mut proj_points: Vec<QVec> = Vec::new();
        let mut line_of = vec![0usize; cs.len()];
        let mut line_len: Vec<usize> = Vec::new();
        for id in 0..cs.len() {
            let p = cs.point(id);
            let pid = match cs.lattice.rank(|j| p[j].checked_sub(u[j])) {
                Some(prev) => line_of[prev],
                None => {
                    proj_points.push(QVec::from_ints(p).project(&pi_q));
                    line_len.push(0);
                    proj_points.len() - 1
                }
            };
            line_of[id] = pid;
            line_len[pid] += 1;
        }
        let line_start: Vec<usize> = std::iter::once(0)
            .chain(line_len.iter().scan(0, |end, &len| {
                *end += len;
                Some(*end)
            }))
            .collect();
        let mut next = line_start.clone();
        let mut members = vec![0usize; cs.len()];
        for (id, &pid) in line_of.iter().enumerate() {
            members[next[pid]] = id;
            next[pid] += 1;
        }
        if pi.dot(&u) < 0 {
            // Π is lexicographically negative: steps fall along `u`.
            for w in line_start.windows(2) {
                members[w[0]..w[1]].reverse();
            }
        }
        let proj_index: BTreeMap<QVec, usize> = proj_points
            .iter()
            .enumerate()
            .map(|(pid, q)| (q.clone(), pid))
            .collect();
        let proj_deps = cs
            .deps()
            .iter()
            .map(|d| QVec::from_ints(d).project(&pi_q))
            .collect();
        ProjectedStructure {
            pi: pi.clone(),
            proj_points,
            proj_index,
            line_start,
            members,
            proj_deps,
        }
    }

    /// The time function used as projection vector.
    pub fn time_fn(&self) -> &TimeFn {
        &self.pi
    }

    /// The distinct projected points `V^p`; position = projected-point id.
    pub fn points(&self) -> &[QVec] {
        &self.proj_points
    }

    /// Number of projected points `|V^p|` (37 for the paper's 4×4×4
    /// matmul with Π = (1,1,1)).
    pub fn len(&self) -> usize {
        self.proj_points.len()
    }

    /// `true` iff there are no projected points.
    pub fn is_empty(&self) -> bool {
        self.proj_points.is_empty()
    }

    /// Id of a projected point, if present.
    pub fn id_of(&self, q: &QVec) -> Option<usize> {
        self.proj_index.get(q).copied()
    }

    /// Original point ids lying on the projection line of projected point
    /// `pid`, sorted by execution step.
    pub fn line_members(&self, pid: usize) -> &[usize] {
        &self.members[self.line_start[pid]..self.line_start[pid + 1]]
    }

    /// The projected dependence vectors `D^p`, aligned index-for-index
    /// with the original dependence set.
    pub fn deps(&self) -> &[QVec] {
        &self.proj_deps
    }

    /// Indices of dependences whose projection is nonzero (dependences
    /// parallel to Π project to the zero vector and stay inside a single
    /// projection line).
    pub fn nonzero_dep_indices(&self) -> Vec<usize> {
        self.proj_deps
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_zero())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_rational::Ratio;

    fn l1() -> (ComputationalStructure, TimeFn) {
        let space = IterSpace::rect(&[4, 4]).unwrap();
        let deps = vec![vec![0, 1], vec![1, 1], vec![1, 0]];
        (
            ComputationalStructure::new(space, deps).unwrap(),
            TimeFn::new(vec![1, 1]),
        )
    }

    #[test]
    fn l1_arc_count_matches_paper() {
        // The paper: "the number of data dependencies between index
        // points is 33".
        let (cs, _) = l1();
        assert_eq!(cs.num_arcs(), 33);
    }

    #[test]
    fn l1_projection_has_seven_lines() {
        // Paper: seven projected points / projection lines for L1.
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi);
        assert_eq!(qp.len(), 7);
        // The projected points include (−3/2, 3/2) … (3/2, −3/2).
        let q = |a: i64, b: i64| QVec::new(vec![Ratio::new(a, 2), Ratio::new(b, 2)]);
        for expected in [
            q(-3, 3),
            q(-2, 2),
            q(-1, 1),
            q(0, 0),
            q(1, -1),
            q(2, -2),
            q(3, -3),
        ] {
            assert!(qp.id_of(&expected).is_some(), "missing {expected}");
        }
        // Line membership counts: 1,2,3,4,3,2,1 in some order; total 16.
        let mut sizes: Vec<usize> = (0..7).map(|i| qp.line_members(i).len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn l1_projected_deps_match_paper_fig3() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi);
        let h = |a: i64, b: i64| QVec::new(vec![Ratio::new(a, 2), Ratio::new(b, 2)]);
        // d1 = (0,1) → (−1/2, 1/2); d2 = (1,1) → (0,0); d3 = (1,0) → (1/2, −1/2).
        assert_eq!(qp.deps()[0], h(-1, 1));
        assert!(qp.deps()[1].is_zero());
        assert_eq!(qp.deps()[2], h(1, -1));
        assert_eq!(qp.nonzero_dep_indices(), vec![0, 2]);
    }

    #[test]
    fn matmul_projection_has_37_points() {
        // Paper Fig. 5: 37 projected points for the 4×4×4 matmul.
        let space = IterSpace::rect(&[4, 4, 4]).unwrap();
        let deps = vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]];
        let cs = ComputationalStructure::new(space, deps).unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::wavefront(3));
        assert_eq!(qp.len(), 37);
        // Every original point lands on exactly one line.
        let total: usize = (0..qp.len()).map(|i| qp.line_members(i).len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn line_members_sorted_by_time() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi);
        for pid in 0..qp.len() {
            let times: Vec<i64> = qp
                .line_members(pid)
                .iter()
                .map(|&id| pi.time_of(&cs.points()[id]))
                .collect();
            for w in times.windows(2) {
                assert!(w[0] < w[1], "line members not strictly time-ordered");
            }
        }
    }

    #[test]
    fn successors_respect_space_bounds() {
        let (cs, _) = l1();
        let corner = cs.id_of(&[3, 3]).unwrap();
        assert_eq!(cs.successors(corner).count(), 0);
        let origin = cs.id_of(&[0, 0]).unwrap();
        assert_eq!(cs.successors(origin).count(), 3);
        assert_eq!(cs.predecessors(origin).count(), 0);
        let a = cs.id_of(&[1, 1]).unwrap();
        // (1,1) − (0,1), − (1,1), − (1,0), in dependence order.
        let expected = [
            (cs.id_of(&[1, 0]).unwrap(), 0),
            (origin, 1),
            (cs.id_of(&[0, 1]).unwrap(), 2),
        ];
        assert_eq!(cs.predecessors(a).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn arcs_beyond_inline_dims_match_inline_walk() {
        // A 9-deep nest with seven unit loops has the same arcs as the
        // equivalent 2-deep nest.
        let mut extents = vec![1; 9];
        extents[0] = 3;
        extents[8] = 3;
        let mut d = vec![0; 9];
        d[0] = 1;
        d[8] = 1;
        let wide =
            ComputationalStructure::new(IterSpace::rect(&extents).unwrap(), vec![d]).unwrap();
        let flat = ComputationalStructure::new(IterSpace::rect(&[3, 3]).unwrap(), vec![vec![1, 1]])
            .unwrap();
        for id in 0..flat.len() {
            let s: Vec<_> = wide.successors(id).collect();
            assert_eq!(s, flat.successors(id).collect::<Vec<_>>());
            let p: Vec<_> = wide.predecessors(id).collect();
            assert_eq!(p, flat.predecessors(id).collect::<Vec<_>>());
        }
        assert_eq!(wide.num_arcs(), 4);
    }

    #[test]
    fn line_step_is_primitive_and_lexicographically_positive() {
        assert_eq!(line_step(&[1, 1]), vec![1, 1]);
        assert_eq!(line_step(&[2, 2]), vec![1, 1]);
        assert_eq!(line_step(&[0, -1]), vec![0, 1]);
        assert_eq!(line_step(&[-2, 4, 6]), vec![1, -2, -3]);
        assert_eq!(line_step(&[2, 1, 1]), vec![2, 1, 1]);
    }

    #[test]
    fn oversized_space_is_an_error_not_an_abort() {
        // The point count overflows usize.
        let huge = IterSpace::rect(&[i64::MAX, i64::MAX]).unwrap();
        assert_eq!(
            ComputationalStructure::new(huge, vec![]).unwrap_err(),
            Error::TooLarge { points: None }
        );
        // 2^60 points fit in usize, but their coordinates cannot be
        // allocated.
        let wide = IterSpace::rect(&[1 << 40, 1 << 20]).unwrap();
        assert_eq!(
            ComputationalStructure::new(wide, vec![]).unwrap_err(),
            Error::TooLarge {
                points: Some(1 << 60)
            }
        );
    }

    #[test]
    fn empty_space_rejected() {
        let space = IterSpace::rect_bounds(&[1], &[0]).unwrap();
        assert_eq!(
            ComputationalStructure::new(space, vec![]).unwrap_err(),
            Error::EmptySpace
        );
    }
}
