//! The wavefront schedule a time function induces on an index set.

use crate::time::TimeFn;
use crate::Error;
use loom_loopir::{IterSpace, Point};
use std::collections::BTreeMap;

/// A materialized hyperplane schedule: every index point of a space
/// assigned to its execution step, normalized so the first step is 0.
///
/// ```
/// use loom_hyperplane::{Schedule, TimeFn};
/// use loom_loopir::IterSpace;
/// let space = IterSpace::rect(&[4, 4]).unwrap();
/// let sched = Schedule::build(TimeFn::new(vec![1, 1]), &space);
/// assert_eq!(sched.num_steps(), 7);
/// assert_eq!(sched.step_of(&[0, 0]), Some(0));
/// assert_eq!(sched.front(3).len(), 4); // i+j == 3 has 4 points
/// ```
#[derive(Clone, Debug)]
pub struct Schedule {
    pi: TimeFn,
    t_min: i64,
    fronts: Vec<Vec<Point>>,
}

impl Schedule {
    /// Enumerate the space and bucket points by execution step.
    pub fn build(pi: TimeFn, space: &IterSpace) -> Schedule {
        let mut buckets: BTreeMap<i64, Vec<Point>> = BTreeMap::new();
        for p in space.points() {
            buckets.entry(pi.time_of(&p)).or_default().push(p);
        }
        let t_min = buckets.keys().next().copied().unwrap_or(0);
        let t_max = buckets.keys().next_back().copied().unwrap_or(-1);
        let mut fronts = vec![Vec::new(); (t_max - t_min + 1).max(0) as usize];
        for (t, pts) in buckets {
            fronts[(t - t_min) as usize] = pts;
        }
        Schedule { pi, t_min, fronts }
    }

    /// The time function.
    pub fn time_fn(&self) -> &TimeFn {
        &self.pi
    }

    /// Number of execution steps.
    pub fn num_steps(&self) -> usize {
        self.fronts.len()
    }

    /// Normalized step of a point (0-based), or `None` if the point's
    /// step lies outside the schedule. Points not in the original space
    /// but on a populated hyperplane still report that hyperplane's step.
    pub fn step_of(&self, point: &[i64]) -> Option<usize> {
        let t = self.pi.time_of(point) - self.t_min;
        (0..self.fronts.len() as i64)
            .contains(&t)
            .then_some(t as usize)
    }

    /// All points executing at normalized step `t` (the wavefront).
    pub fn front(&self, t: usize) -> &[Point] {
        &self.fronts[t]
    }

    /// The widest front — the maximum parallelism the schedule exposes.
    pub fn max_parallelism(&self) -> usize {
        self.fronts.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of scheduled points.
    pub fn num_points(&self) -> usize {
        self.fronts.iter().map(Vec::len).sum()
    }

    /// Verify the schedule respects every dependence: for each point `p`
    /// with `p + d` in the space, `step(p) < step(p + d)`. Steps are
    /// `Π·x` shifted by a constant, so `step(p + d) = step(p) + Π·d`, and
    /// this holds exactly when `Π·d ≥ 1` for every `d`.
    pub fn validate(&self, deps: &[Point]) -> Result<(), Error> {
        self.pi.check_legal(deps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1_sched() -> (Schedule, IterSpace, Vec<Point>) {
        let space = IterSpace::rect(&[4, 4]).unwrap();
        let deps = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        (
            Schedule::build(TimeFn::new(vec![1, 1]), &space),
            space,
            deps,
        )
    }

    #[test]
    fn fronts_match_paper_fig1() {
        let (s, _, _) = l1_sched();
        assert_eq!(s.num_steps(), 7);
        // Diagonal front sizes of a 4×4 square: 1,2,3,4,3,2,1.
        let sizes: Vec<usize> = (0..7).map(|t| s.front(t).len()).collect();
        assert_eq!(sizes, vec![1, 2, 3, 4, 3, 2, 1]);
        assert_eq!(s.max_parallelism(), 4);
        assert_eq!(s.num_points(), 16);
    }

    #[test]
    fn validates_against_deps() {
        let (s, _, deps) = l1_sched();
        assert!(s.validate(&deps).is_ok());
        // An illegal dependence must be caught.
        assert!(s.validate(&[vec![-1, 0]]).is_err());
    }

    #[test]
    fn step_of_normalization() {
        let space = IterSpace::rect_bounds(&[1, 1], &[3, 3]).unwrap();
        let s = Schedule::build(TimeFn::new(vec![1, 1]), &space);
        assert_eq!(s.step_of(&[1, 1]), Some(0));
        assert_eq!(s.step_of(&[3, 3]), Some(4));
        assert_eq!(s.step_of(&[0, 0]), None);
    }

    #[test]
    fn empty_space_schedule() {
        let space = IterSpace::rect_bounds(&[1], &[0]).unwrap();
        let s = Schedule::build(TimeFn::new(vec![1]), &space);
        assert_eq!(s.num_steps(), 0);
        assert_eq!(s.num_points(), 0);
        assert_eq!(s.max_parallelism(), 0);
    }

    #[test]
    fn points_within_front_are_independent() {
        let (s, _, deps) = l1_sched();
        for t in 0..s.num_steps() {
            let front = s.front(t);
            for a in front {
                for b in front {
                    if a != b {
                        let diff: Point = a.iter().zip(b).map(|(&x, &y)| x - y).collect();
                        assert!(!deps.contains(&diff), "dependent points share a front");
                    }
                }
            }
        }
    }
}
