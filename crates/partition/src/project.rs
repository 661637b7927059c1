//! The projection phase: `Q = (V, D)` → `Q^p = (V^p, D^p)`.

use crate::Error;
use loom_hyperplane::TimeFn;
use loom_loopir::{IterSpace, Point};
use loom_rational::QVec;
use std::collections::{BTreeMap, HashMap};

/// The computational structure `Q = (V, D)` of a nested loop
/// (Definition 2): the enumerated index set plus the dependence vectors.
#[derive(Clone, Debug)]
pub struct ComputationalStructure {
    space: IterSpace,
    points: Vec<Point>,
    index: HashMap<Point, usize>,
    deps: Vec<Point>,
}

impl ComputationalStructure {
    /// Enumerate a space and attach its dependence set.
    pub fn new(space: IterSpace, deps: Vec<Point>) -> Result<ComputationalStructure, Error> {
        let points: Vec<Point> = space.points().collect();
        if points.is_empty() {
            return Err(Error::EmptySpace);
        }
        let index = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i))
            .collect();
        Ok(ComputationalStructure {
            space,
            points,
            index,
            deps,
        })
    }

    /// The iteration space.
    pub fn space(&self) -> &IterSpace {
        &self.space
    }

    /// All index points, in lexicographic order; a point's position in
    /// this slice is its id.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The dependence set `D`.
    pub fn deps(&self) -> &[Point] {
        &self.deps
    }

    /// Number of iteration points `|V|`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff there are no points (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Id of an index point, if it belongs to `V`.
    pub fn id_of(&self, p: &[i64]) -> Option<usize> {
        self.index.get(p).copied()
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

    /// The neighbours `p + sign·d` of point `id` that lie in `V`. The
    /// neighbour is built in a stack buffer, so the walk allocates only
    /// for nests deeper than [`INLINE_DIM`].
    fn arcs(&self, id: usize, sign: i64) -> impl Iterator<Item = (usize, usize)> + '_ {
        let p = &self.points[id][..];
        let mut inline = [0i64; INLINE_DIM];
        let mut spill = vec![0; if p.len() > INLINE_DIM { p.len() } else { 0 }];
        self.deps.iter().enumerate().filter_map(move |(k, d)| {
            let q = if p.len() > INLINE_DIM {
                &mut spill[..]
            } else {
                &mut inline[..p.len()]
            };
            for ((out, &a), &b) in q.iter_mut().zip(p).zip(d) {
                *out = a + sign * b;
            }
            self.index.get(&q[..]).map(|&qid| (qid, k))
        })
    }

    /// Total number of dependence arcs in `Q` (33 for the paper's L1).
    pub fn num_arcs(&self) -> usize {
        (0..self.len()).map(|i| self.successors(i).count()).sum()
    }
}

/// Nest depth up to which arc walks build neighbour points on the stack.
const INLINE_DIM: usize = 8;

/// The projected structure `Q^p = (V^p, D^p)` (Definition 5): the images
/// of `V` and `D` on the zero-hyperplane `Π·x = 0`.
#[derive(Clone, Debug)]
pub struct ProjectedStructure {
    pi: TimeFn,
    proj_points: Vec<QVec>,
    proj_index: BTreeMap<QVec, usize>,
    /// Original point ids on each projection line, sorted by execution step.
    members: Vec<Vec<usize>>,
    proj_deps: Vec<QVec>,
}

impl ProjectedStructure {
    /// Project a computational structure along Π (which must be legal for
    /// `cs.deps()`; legality is the caller's responsibility and checked by
    /// [`crate::partition`]).
    ///
    /// Implementation note: grouping points into projection lines uses
    /// the *scaled integer* projection `p·(Π·Π) − (p·Π)·Π ∈ ℤⁿ`, which
    /// identifies the same lines as the exact rational projection
    /// (`(Π·Π)` is a positive constant factor) without allocating a
    /// rational vector per iteration point; the rational coordinates are
    /// materialized once per distinct line.
    pub fn project(cs: &ComputationalStructure, pi: &TimeFn) -> ProjectedStructure {
        let pi_q = pi.as_qvec();
        let pi_coeffs = pi.coeffs();
        let pi_sq: i64 = pi_coeffs.iter().map(|&a| a * a).sum();
        assert!(pi_sq > 0, "zero time function");

        let mut scaled_index: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        // Assign projected-point ids in order of first appearance, then
        // re-sort members by time below.
        let mut proj_points: Vec<QVec> = Vec::new();
        let mut scaled = vec![0i64; cs.space().dim()];
        for (id, p) in cs.points().iter().enumerate() {
            let t = pi.time_of(p);
            for (k, out) in scaled.iter_mut().enumerate() {
                *out = p[k]
                    .checked_mul(pi_sq)
                    .and_then(|x| x.checked_sub(t * pi_coeffs[k]))
                    .expect("scaled projection overflow");
            }
            match scaled_index.get(&scaled) {
                Some(&pid) => members[pid].push(id),
                None => {
                    let pid = proj_points.len();
                    scaled_index.insert(scaled.clone(), pid);
                    proj_points.push(QVec::from_ints(p).project(&pi_q));
                    members.push(vec![id]);
                }
            }
        }
        let proj_index: BTreeMap<QVec, usize> = proj_points
            .iter()
            .enumerate()
            .map(|(pid, q)| (q.clone(), pid))
            .collect();
        for m in &mut members {
            m.sort_by_key(|&id| pi.time_of(&cs.points()[id]));
        }
        let proj_deps = cs
            .deps()
            .iter()
            .map(|d| QVec::from_ints(d).project(&pi_q))
            .collect();
        ProjectedStructure {
            pi: pi.clone(),
            proj_points,
            proj_index,
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
        &self.members[pid]
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
        // A 9-deep nest takes the heap-buffer path; its arcs must be the
        // same relation as in the equivalent 2-deep nest.
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
    fn empty_space_rejected() {
        let space = IterSpace::rect_bounds(&[1], &[0]).unwrap();
        assert_eq!(
            ComputationalStructure::new(space, vec![]).unwrap_err(),
            Error::EmptySpace
        );
    }
}
