//! The index set `Jⁿ` — iteration spaces with affine bounds.

use crate::aff::Aff;
use crate::{Error, Point};
use std::ops::ControlFlow;

/// The index set `Jⁿ = {(i₁,…,iₙ) | l_j ≤ i_j ≤ u_j}` of an `n`-nested
/// loop, where each bound is an affine expression that may reference
/// *outer* indices only (as in the paper's loop model; strides are
/// normalized to 1).
///
/// ```
/// use loom_loopir::IterSpace;
/// let s = IterSpace::rect(&[4, 4]).unwrap(); // 0..=3 × 0..=3
/// assert_eq!(s.points().count(), 16);
/// assert!(s.contains(&[3, 0]));
/// assert!(!s.contains(&[4, 0]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterSpace {
    lo: Vec<Aff>,
    hi: Vec<Aff>,
}

impl IterSpace {
    /// A rectangular space `0 ≤ i_j < sizes[j]` (i.e. upper bound
    /// `sizes[j] − 1` inclusive, matching the paper's `for i = 0 to u`).
    pub fn rect(sizes: &[i64]) -> Result<IterSpace, Error> {
        let n = sizes.len();
        if n == 0 {
            return Err(Error::Empty);
        }
        let lo = (0..n).map(|_| Aff::constant(n, 0)).collect();
        let hi = sizes.iter().map(|&s| Aff::constant(n, s - 1)).collect();
        IterSpace::new(lo, hi)
    }

    /// A rectangular space with explicit inclusive integer bounds.
    pub fn rect_bounds(lo: &[i64], hi: &[i64]) -> Result<IterSpace, Error> {
        if lo.len() != hi.len() {
            return Err(Error::DimMismatch {
                what: "rect_bounds",
                expected: lo.len(),
                found: hi.len(),
            });
        }
        if lo.is_empty() {
            return Err(Error::Empty);
        }
        let n = lo.len();
        IterSpace::new(
            lo.iter().map(|&l| Aff::constant(n, l)).collect(),
            hi.iter().map(|&h| Aff::constant(n, h)).collect(),
        )
    }

    /// A space with general affine bounds (inclusive). Each bound of loop
    /// `j` may only reference indices `0..j`.
    pub fn new(lo: Vec<Aff>, hi: Vec<Aff>) -> Result<IterSpace, Error> {
        if lo.len() != hi.len() {
            return Err(Error::DimMismatch {
                what: "IterSpace bounds",
                expected: lo.len(),
                found: hi.len(),
            });
        }
        let n = lo.len();
        if n == 0 {
            return Err(Error::Empty);
        }
        for (level, b) in lo.iter().chain(hi.iter()).enumerate() {
            let level = level % n;
            if b.dim() != n {
                return Err(Error::DimMismatch {
                    what: "bound expression",
                    expected: n,
                    found: b.dim(),
                });
            }
            if let Some(mv) = b.max_var() {
                if mv >= level {
                    return Err(Error::ForwardBound { level });
                }
            }
        }
        Ok(IterSpace { lo, hi })
    }

    /// Dimensionality `n`.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower-bound expression of loop `j`.
    pub fn lower(&self, j: usize) -> &Aff {
        &self.lo[j]
    }

    /// Upper-bound expression of loop `j` (inclusive).
    pub fn upper(&self, j: usize) -> &Aff {
        &self.hi[j]
    }

    /// `true` iff `point` lies in the index set.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.dim()
            && (0..self.dim()).all(|j| {
                let x = point[j];
                self.lo[j].eval(point) <= x && x <= self.hi[j].eval(point)
            })
    }

    /// Number of index points, exact for affine bounds. The space is
    /// walked box by box (see [`count_up_to`](IterSpace::count_up_to)),
    /// so no point is built. Panics if the count overflows `usize`;
    /// callers facing unbounded spaces use `count_up_to`.
    pub fn count(&self) -> usize {
        self.count_up_to(usize::MAX)
            .expect("iteration space has more than usize::MAX points")
    }

    /// The number of index points if it is at most `cap`, else `None`.
    /// The count is summed over the boxes that make up the space (a box
    /// per innermost row at most; one box for a rectangular space) with
    /// checked arithmetic and stops as soon as it passes `cap`, so a
    /// 10^12-point space costs no more than its first few rows.
    pub fn count_up_to(&self, cap: usize) -> Option<usize> {
        let mut total = 0usize;
        let stopped = self.for_each_box(|ranges| {
            let size = ranges.iter().try_fold(1usize, |acc, &(lo, hi)| {
                let len = usize::try_from(hi.abs_diff(lo)).ok()?.checked_add(1)?;
                acc.checked_mul(len)
            });
            match size.and_then(|s| total.checked_add(s)) {
                Some(t) if t <= cap => {
                    total = t;
                    ControlFlow::Continue(())
                }
                _ => ControlFlow::Break(()),
            }
        });
        (!stopped).then_some(total)
    }

    /// The smallest and largest value of the linear form `coeffs · x`
    /// over the space, or `None` if it is empty. Exact for affine
    /// bounds: over a box the extremes of a linear form sit at the
    /// box's corners, one coordinate at a time.
    pub fn linear_range(&self, coeffs: &[i64]) -> Option<(i64, i64)> {
        assert_eq!(coeffs.len(), self.dim(), "linear_range: arity mismatch");
        let mut range: Option<(i64, i64)> = None;
        self.for_each_box(|ranges| {
            let (mut lo_sum, mut hi_sum) = (0i64, 0i64);
            for (&a, &(lo, hi)) in coeffs.iter().zip(ranges) {
                let (x, y) = (a * lo, a * hi);
                lo_sum += x.min(y);
                hi_sum += x.max(y);
            }
            range = Some(match range {
                None => (lo_sum, hi_sum),
                Some((lo, hi)) => (lo.min(lo_sum), hi.max(hi_sum)),
            });
            ControlFlow::Continue(())
        });
        range
    }

    /// Iterate over all index points in lexicographic order.
    pub fn points(&self) -> PointIter<'_> {
        PointIter::new(self)
    }

    /// The bounding box `[min_j, max_j]` of each coordinate over the whole
    /// space (used by searches that need a finite coordinate range).
    pub fn bounding_box(&self) -> Vec<(i64, i64)> {
        let mut bb: Vec<Option<(i64, i64)>> = vec![None; self.dim()];
        self.for_each_box(|ranges| {
            for (slot, &(lo, hi)) in bb.iter_mut().zip(ranges) {
                *slot = Some(match *slot {
                    None => (lo, hi),
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                });
            }
            ControlFlow::Continue(())
        });
        bb.into_iter().map(|o| o.unwrap_or((0, -1))).collect()
    }

    /// Walk the space as a disjoint union of non-empty boxes, calling
    /// `visit` with each box's inclusive range per loop; returns `true`
    /// iff `visit` stopped the walk. The innermost loop always
    /// contributes its whole row. An outer loop `j` contributes its
    /// whole range too when no inner bound references `i_j` — every
    /// value of `i_j` then has the same inner rows — and one value per
    /// box otherwise. A rectangular space is one box; a triangular one
    /// is a box per row.
    fn for_each_box(&self, mut visit: impl FnMut(&[(i64, i64)]) -> ControlFlow<()>) -> bool {
        let n = self.dim();
        let free: Vec<bool> = (0..n)
            .map(|j| (j + 1..n).all(|k| self.lo[k].coeff(j) == 0 && self.hi[k].coeff(j) == 0))
            .collect();
        let mut probe = vec![0i64; n];
        let mut ranges = vec![(0i64, 0i64); n];
        self.boxes_from(0, &free, &mut probe, &mut ranges, &mut visit)
            .is_break()
    }

    fn boxes_from<F: FnMut(&[(i64, i64)]) -> ControlFlow<()>>(
        &self,
        level: usize,
        free: &[bool],
        probe: &mut [i64],
        ranges: &mut [(i64, i64)],
        visit: &mut F,
    ) -> ControlFlow<()> {
        // Bounds only reference outer indices, already set in `probe`.
        let lo = self.lo[level].eval(probe);
        let hi = self.hi[level].eval(probe);
        if lo > hi {
            return ControlFlow::Continue(());
        }
        let last = level + 1 == probe.len();
        if free[level] {
            ranges[level] = (lo, hi);
            probe[level] = lo;
            return if last {
                visit(ranges)
            } else {
                self.boxes_from(level + 1, free, probe, ranges, visit)
            };
        }
        for x in lo..=hi {
            ranges[level] = (x, x);
            probe[level] = x;
            self.boxes_from(level + 1, free, probe, ranges, visit)?;
        }
        ControlFlow::Continue(())
    }
}

/// Lexicographic iterator over the points of an [`IterSpace`].
///
/// Handles affine (triangular) bounds: inner bounds are re-evaluated as the
/// outer indices advance. Loops whose bounds are momentarily empty
/// (`lo > hi`) contribute no points, matching `for` semantics.
pub struct PointIter<'a> {
    space: &'a IterSpace,
    current: Option<Point>,
}

impl<'a> PointIter<'a> {
    fn new(space: &'a IterSpace) -> PointIter<'a> {
        PointIter {
            space,
            current: Self::first_from(space, &[]),
        }
    }

    /// Extend a valid prefix to the lexicographically first full point,
    /// or `None` if some inner loop is empty and no sibling exists.
    fn first_from(space: &IterSpace, prefix: &[i64]) -> Option<Point> {
        let n = space.dim();
        let mut p = prefix.to_vec();
        while p.len() < n {
            let j = p.len();
            // Bounds only reference outer indices, so pad with zeros.
            let mut probe = p.clone();
            probe.resize(n, 0);
            let lo = space.lo[j].eval(&probe);
            let hi = space.hi[j].eval(&probe);
            if lo > hi {
                // Empty inner loop: advance the deepest settable prefix.
                return Self::advance_prefix(space, p);
            }
            p.push(lo);
        }
        Some(p)
    }

    /// Advance the last coordinate of `prefix`, carrying outward on
    /// exhaustion; then extend back to a full point.
    fn advance_prefix(space: &IterSpace, mut prefix: Point) -> Option<Point> {
        let n = space.dim();
        loop {
            let j = prefix.len().checked_sub(1)?;
            let mut probe = prefix.clone();
            probe.resize(n, 0);
            let hi = space.hi[j].eval(&probe);
            if prefix[j] < hi {
                prefix[j] += 1;
                return Self::first_from(space, &prefix);
            }
            prefix.pop();
        }
    }
}

impl Iterator for PointIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let out = self.current.take()?;
        self.current = Self::advance_prefix(self.space, out.clone());
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_enumeration_lex_order() {
        let s = IterSpace::rect(&[2, 3]).unwrap();
        let pts: Vec<_> = s.points().collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn rect_bounds_offset() {
        let s = IterSpace::rect_bounds(&[1, 1], &[3, 2]).unwrap();
        assert_eq!(s.count(), 6);
        assert!(s.contains(&[1, 1]));
        assert!(s.contains(&[3, 2]));
        assert!(!s.contains(&[0, 1]));
        assert!(!s.contains(&[3, 3]));
    }

    #[test]
    fn triangular_space() {
        // for i = 0..=3, for j = 0..=i  → 1+2+3+4 = 10 points.
        let n = 2;
        let lo = vec![Aff::constant(n, 0), Aff::constant(n, 0)];
        let hi = vec![Aff::constant(n, 3), Aff::var(n, 0)];
        let s = IterSpace::new(lo, hi).unwrap();
        assert_eq!(s.count(), 10);
        assert!(s.contains(&[2, 2]));
        assert!(!s.contains(&[2, 3]));
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[9], vec![3, 3]);
    }

    #[test]
    fn empty_inner_loop_skipped() {
        // for i = 0..=2, for j = i..=1: i=2 row is empty.
        let n = 2;
        let lo = vec![Aff::constant(n, 0), Aff::var(n, 0)];
        let hi = vec![Aff::constant(n, 2), Aff::constant(n, 1)];
        let s = IterSpace::new(lo, hi).unwrap();
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn fully_empty_space() {
        let s = IterSpace::rect_bounds(&[2], &[1]).unwrap();
        assert_eq!(s.count(), 0);
        assert_eq!(s.bounding_box(), vec![(0, -1)]);
    }

    #[test]
    fn forward_bound_rejected() {
        let n = 2;
        // Lower bound of loop 0 references index 1.
        let lo = vec![Aff::var(n, 1), Aff::constant(n, 0)];
        let hi = vec![Aff::constant(n, 3), Aff::constant(n, 3)];
        assert_eq!(
            IterSpace::new(lo, hi).unwrap_err(),
            Error::ForwardBound { level: 0 }
        );
        // Self-reference also rejected.
        let lo2 = vec![Aff::constant(n, 0), Aff::var(n, 1)];
        let hi2 = vec![Aff::constant(n, 3), Aff::constant(n, 3)];
        assert_eq!(
            IterSpace::new(lo2, hi2).unwrap_err(),
            Error::ForwardBound { level: 1 }
        );
    }

    #[test]
    fn zero_dim_rejected() {
        assert_eq!(IterSpace::rect(&[]).unwrap_err(), Error::Empty);
    }

    #[test]
    fn bounding_box_triangular() {
        let n = 2;
        let lo = vec![Aff::constant(n, 0), Aff::var(n, 0)];
        let hi = vec![Aff::constant(n, 3), Aff::constant(n, 5)];
        let s = IterSpace::new(lo, hi).unwrap();
        assert_eq!(s.bounding_box(), vec![(0, 3), (0, 5)]);
    }

    #[test]
    fn count_up_to_stops_past_the_cap() {
        let s = IterSpace::rect(&[4, 5]).unwrap();
        assert_eq!(s.count_up_to(20), Some(20));
        assert_eq!(s.count_up_to(19), None);
        // 2^80 points overflow usize; a rectangular space is one box, so
        // finding that out walks no rows.
        let huge = IterSpace::rect(&[1 << 40, 1 << 40]).unwrap();
        assert_eq!(huge.count_up_to(usize::MAX), None);
    }

    #[test]
    fn linear_range_over_triangle() {
        // for i = 0..=3, for j = i..=5: i − j spans −5..=0, i + 2j 0..=13.
        let n = 2;
        let lo = vec![Aff::constant(n, 0), Aff::var(n, 0)];
        let hi = vec![Aff::constant(n, 3), Aff::constant(n, 5)];
        let s = IterSpace::new(lo, hi).unwrap();
        assert_eq!(s.linear_range(&[1, -1]), Some((-5, 0)));
        assert_eq!(s.linear_range(&[1, 2]), Some((0, 13)));
        let empty = IterSpace::rect_bounds(&[2], &[1]).unwrap();
        assert_eq!(empty.linear_range(&[1]), None);
    }

    #[test]
    fn three_dim_count() {
        let s = IterSpace::rect(&[4, 4, 4]).unwrap();
        assert_eq!(s.count(), 64);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts.len(), 64);
        // Strictly increasing lexicographic order.
        for w in pts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
