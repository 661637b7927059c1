//! The projection phase: `Q = (V, D)` → `Q^p = (V^p, D^p)`.

use crate::points::{Lattice, Points};
use crate::Error;
use loom_hyperplane::TimeFn;
use loom_loopir::{IterSpace, Point};
use loom_rational::int::{gcd, gcd_all};
use loom_rational::{QVec, Ratio};

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
///
/// Coordinates are stored scaled by the positive integer `s = |Π|²`: the
/// image `q = x − (x·Π / Π·Π)·Π` of a point `x` is kept as the exact
/// integer vector `s·q = s·x − (x·Π)·Π`. Scaling by a positive constant
/// preserves sums, equality and lexicographic order, so Algorithms 1 and
/// 2, which only add projected vectors, look them up and compare them,
/// run on these integers and decide exactly what they would decide on
/// the rationals. [`point_q`](ProjectedStructure::point_q) and
/// [`dep_q`](ProjectedStructure::dep_q) are the rational view, for
/// display and for rational reasoning outside the hot loops.
#[derive(Clone, Debug)]
pub struct ProjectedStructure {
    pi: TimeFn,
    dim: usize,
    scale: i64,
    /// `s·q` of projected point `pid` at `coords[pid·n..(pid + 1)·n]`.
    coords: Vec<i64>,
    /// Projected-point ids in lexicographic order of their coordinates.
    sorted: Vec<usize>,
    /// Original point ids of projection line `pid`, sorted by execution
    /// step, at `members[line_start[pid]..line_start[pid + 1]]`.
    line_start: Vec<usize>,
    members: Vec<usize>,
    /// `s·d^p` of dependence `k` at `dep_coords[k·n..(k + 1)·n]`.
    dep_coords: Vec<i64>,
}

impl ProjectedStructure {
    /// Project a computational structure along Π (which must be legal for
    /// `cs.deps()`; legality is the caller's responsibility and checked by
    /// [`crate::partition`]). A Π whose scaled coordinates overflow `i64`
    /// is [`Error::ProjectionOverflow`].
    ///
    /// Implementation note: the lattice points of one projection line are
    /// `p + k·u` for the step `u` of [`line_step`]. `V` is the set of
    /// lattice points of a convex polyhedron (the loop bounds are affine),
    /// so each line meets it in a contiguous run of `k`, starting at its
    /// lexicographically smallest point. Walking the points in id
    /// (lexicographic) order, the first point not yet on a line opens
    /// the next one, and `p + u, p + 2u, …` are its members until the
    /// run leaves `V`. Projected-point ids follow first appearance, and
    /// members come out in lexicographic order, which on a line is
    /// execution-step order when `Π·u > 0` and its reverse when Π is
    /// lexicographically negative. The scaled coordinates are computed
    /// once per line.
    pub fn project(cs: &ComputationalStructure, pi: &TimeFn) -> Result<ProjectedStructure, Error> {
        let dim = cs.space().dim();
        for found in std::iter::once(pi.dim()).chain(cs.deps().iter().map(Vec::len)) {
            if found != dim {
                return Err(loom_hyperplane::Error::DimMismatch {
                    expected: dim,
                    found,
                }
                .into());
            }
        }
        let overflow = || Error::ProjectionOverflow {
            pi: pi.coeffs().to_vec(),
        };
        let picf = pi.coeffs();
        let scale = picf
            .iter()
            .try_fold(0i64, |acc, &a| acc.checked_add(a.checked_mul(a)?))
            .ok_or_else(overflow)?;
        // s·x − (x·Π)·Π, appended to `out`; `None` on overflow.
        let push_scaled = |x: &[i64], out: &mut Vec<i64>| -> Option<()> {
            let t = x
                .iter()
                .zip(picf)
                .try_fold(0i64, |acc, (&c, &a)| acc.checked_add(c.checked_mul(a)?))?;
            for (&c, &a) in x.iter().zip(picf) {
                out.push(scale.checked_mul(c)?.checked_sub(t.checked_mul(a)?)?);
            }
            Some(())
        };
        let u = line_step(picf);
        let falling = pi.dot(&u) < 0; // Π lexicographically negative
        let mut coords: Vec<i64> = Vec::new();
        let mut line_start = vec![0];
        let mut members = Vec::with_capacity(cs.len());
        let mut on_line = vec![false; cs.len()];
        for id in 0..cs.len() {
            if on_line[id] {
                continue;
            }
            push_scaled(cs.point(id), &mut coords).ok_or_else(overflow)?;
            let start = members.len();
            let mut last = id;
            loop {
                on_line[last] = true;
                members.push(last);
                let p = cs.point(last);
                match cs.lattice.rank(|j| p[j].checked_add(u[j])) {
                    Some(next) => last = next,
                    None => break,
                }
            }
            if falling {
                members[start..].reverse();
            }
            line_start.push(members.len());
        }
        let mut dep_coords = Vec::with_capacity(cs.deps().len() * dim);
        for d in cs.deps() {
            push_scaled(d, &mut dep_coords).ok_or_else(overflow)?;
        }
        let mut sorted: Vec<usize> = (0..line_start.len() - 1).collect();
        let at = |pid: usize| &coords[pid * dim..(pid + 1) * dim];
        sorted.sort_unstable_by(|&a, &b| at(a).cmp(at(b)));
        Ok(ProjectedStructure {
            pi: pi.clone(),
            dim,
            scale,
            coords,
            sorted,
            line_start,
            members,
            dep_coords,
        })
    }

    /// The time function used as projection vector.
    pub fn time_fn(&self) -> &TimeFn {
        &self.pi
    }

    /// The scale `s = |Π|²` of every stored coordinate.
    pub fn scale(&self) -> i64 {
        self.scale
    }

    /// Number of projected points `|V^p|` (37 for the paper's 4×4×4
    /// matmul with Π = (1,1,1)).
    pub fn len(&self) -> usize {
        self.line_start.len() - 1
    }

    /// `true` iff there are no projected points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scaled coordinates `s·q` of projected point `pid`; position in
    /// `0..len()` is the projected-point id.
    pub fn point(&self, pid: usize) -> &[i64] {
        &self.coords[pid * self.dim..(pid + 1) * self.dim]
    }

    /// Projected point `pid` as the rational vector `q`.
    pub fn point_q(&self, pid: usize) -> QVec {
        self.unscale(self.point(pid))
    }

    /// Id of the projected point with scaled coordinates `scaled`, if
    /// present: a binary search over the lexicographic order.
    pub fn id_of(&self, scaled: &[i64]) -> Option<usize> {
        if scaled.len() != self.dim {
            return None;
        }
        self.find(|j| Some(scaled[j]))
    }

    /// Id of the projected point `q_pid + d_k^p`, if present — the probe
    /// behind every walk over the projected dependence graph.
    pub fn neighbor(&self, pid: usize, k: usize) -> Option<usize> {
        let (p, d) = (self.point(pid), self.dep(k));
        self.find(|j| p[j].checked_add(d[j]))
    }

    /// The projected point whose `j`-th scaled coordinate is `coord(j)`;
    /// `None` for a coordinate outside `i64`, which no point has.
    fn find(&self, coord: impl Fn(usize) -> Option<i64>) -> Option<usize> {
        if (0..self.dim).any(|j| coord(j).is_none()) {
            return None;
        }
        self.sorted
            .binary_search_by(|&pid| {
                let p = self.point(pid);
                (0..self.dim)
                    .map(|j| p[j].cmp(&coord(j).unwrap_or_default()))
                    .find(|o| o.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok()
            .map(|i| self.sorted[i])
    }

    /// The smallest projected point in lexicographic order.
    pub(crate) fn lexicographic_min(&self) -> Option<usize> {
        self.sorted.first().copied()
    }

    /// Original point ids lying on the projection line of projected point
    /// `pid`, sorted by execution step.
    pub fn line_members(&self, pid: usize) -> &[usize] {
        &self.members[self.line_start[pid]..self.line_start[pid + 1]]
    }

    /// Number of dependences (the projections `D^p` are aligned
    /// index-for-index with the original dependence set).
    pub fn num_deps(&self) -> usize {
        self.dep_coords.len() / self.dim.max(1)
    }

    /// Scaled projected dependence `s·d_k^p`.
    pub fn dep(&self, k: usize) -> &[i64] {
        &self.dep_coords[k * self.dim..(k + 1) * self.dim]
    }

    /// Projected dependence `d_k^p` as a rational vector.
    pub fn dep_q(&self, k: usize) -> QVec {
        self.unscale(self.dep(k))
    }

    /// `r_k`, the least positive integer with `r_k·d_k^p ∈ ℤⁿ`
    /// (Algorithm 1, Step 1): `s / gcd(s, s·d_k^p)`.
    pub fn multiplier(&self, k: usize) -> i64 {
        self.scale / gcd(self.scale, gcd_all(self.dep(k)))
    }

    /// Indices of dependences whose projection is nonzero (dependences
    /// parallel to Π project to the zero vector and stay inside a single
    /// projection line).
    pub fn nonzero_dep_indices(&self) -> Vec<usize> {
        (0..self.num_deps())
            .filter(|&k| self.dep(k).iter().any(|&c| c != 0))
            .collect()
    }

    /// The rational vector `v / s` of scaled coordinates `v`.
    pub fn unscale(&self, v: &[i64]) -> QVec {
        QVec::new(v.iter().map(|&c| Ratio::new(c, self.scale)).collect())
    }

    /// The scaled coordinates `s·q` of a rational vector, or `None` when
    /// `q` has the wrong arity or `s·q` is not an integer vector in
    /// `i64` — such a vector is no projected point and no sum of them.
    pub fn scale_q(&self, q: &QVec) -> Option<Vec<i64>> {
        if q.dim() != self.dim {
            return None;
        }
        q.coords()
            .iter()
            .map(|c| {
                let n = i128::from(c.num()) * i128::from(self.scale);
                let d = i128::from(c.den());
                (n % d == 0).then(|| i64::try_from(n / d).ok()).flatten()
            })
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
        let qp = ProjectedStructure::project(&cs, &pi).unwrap();
        assert_eq!(qp.len(), 7);
        // The projected points include (−3/2, 3/2) … (3/2, −3/2), stored
        // scaled by |Π|² = 2.
        assert_eq!(qp.scale(), 2);
        let q = |a: i64, b: i64| QVec::new(vec![Ratio::new(a, 2), Ratio::new(b, 2)]);
        for a in -3..=3 {
            let pid = qp.id_of(&[a, -a]).expect("projected point");
            assert_eq!(qp.point_q(pid), q(a, -a));
        }
        // Line membership counts: 1,2,3,4,3,2,1 in some order; total 16.
        let mut sizes: Vec<usize> = (0..7).map(|i| qp.line_members(i).len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn l1_projected_deps_match_paper_fig3() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi).unwrap();
        let h = |a: i64, b: i64| QVec::new(vec![Ratio::new(a, 2), Ratio::new(b, 2)]);
        // d1 = (0,1) → (−1/2, 1/2); d2 = (1,1) → (0,0); d3 = (1,0) → (1/2, −1/2).
        assert_eq!(qp.dep(0), [-1, 1]);
        assert_eq!(qp.dep_q(0), h(-1, 1));
        assert!(qp.dep_q(1).is_zero());
        assert_eq!(qp.dep_q(2), h(1, -1));
        assert_eq!(qp.nonzero_dep_indices(), vec![0, 2]);
        assert_eq!((qp.multiplier(0), qp.multiplier(1)), (2, 1));
    }

    #[test]
    fn neighbor_steps_by_projected_dependence() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi).unwrap();
        // Scaled by 2, the lines are (a, −a) for a in −3..=3 and
        // d1^p = (−1, 1): stepping by it walks down to (−3, 3).
        let at = |a: i64| qp.id_of(&[a, -a]).unwrap();
        for a in -2..=3 {
            assert_eq!(qp.neighbor(at(a), 0), Some(at(a - 1)));
            assert_eq!(qp.neighbor(at(a), 1), Some(at(a)), "d2 ∥ Π");
        }
        assert_eq!(qp.neighbor(at(-3), 0), None);
        assert_eq!(qp.neighbor(at(3), 2), None);
        assert_eq!(qp.lexicographic_min(), Some(at(-3)));
    }

    #[test]
    fn projection_overflow_is_an_error_not_a_panic() {
        // |Π|² fits in i64, but |Π|²·x does not once x ≥ 2.
        let cs = ComputationalStructure::new(IterSpace::rect(&[8, 8]).unwrap(), vec![vec![1, 0]])
            .unwrap();
        let pi = TimeFn::new(vec![3_000_000_000, 5]);
        let err = ProjectedStructure::project(&cs, &pi).unwrap_err();
        assert_eq!(
            err,
            Error::ProjectionOverflow {
                pi: vec![3_000_000_000, 5]
            }
        );
        assert!(err.to_string().contains("(3000000000,5)"), "{err}");
    }

    #[test]
    fn scale_q_inverts_unscale_and_rejects_off_lattice() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi).unwrap();
        for pid in 0..qp.len() {
            assert_eq!(qp.scale_q(&qp.point_q(pid)).as_deref(), Some(qp.point(pid)));
        }
        let third = QVec::new(vec![Ratio::new(1, 3), Ratio::ZERO]);
        assert_eq!(qp.scale_q(&third), None);
        assert_eq!(qp.scale_q(&QVec::from_ints(&[1, 2, 3])), None);
        assert_eq!(qp.scale_q(&QVec::from_ints(&[i64::MAX, 0])), None);
    }

    #[test]
    fn matmul_projection_has_37_points() {
        // Paper Fig. 5: 37 projected points for the 4×4×4 matmul.
        let space = IterSpace::rect(&[4, 4, 4]).unwrap();
        let deps = vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]];
        let cs = ComputationalStructure::new(space, deps).unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::wavefront(3)).unwrap();
        assert_eq!(qp.len(), 37);
        // Every original point lands on exactly one line.
        let total: usize = (0..qp.len()).map(|i| qp.line_members(i).len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn line_members_sorted_by_time() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi).unwrap();
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
