//! Rational oracles for the integer projected structure: the projection
//! `q = x − (x·Π / Π·Π)·Π` in exact `QVec` arithmetic, a
//! `BTreeMap<QVec, usize>` lookup, Algorithm 1's region growing
//! (Steps 3–5) on rational bases, and Algorithm 2's block positions as
//! rational dots. The production code does all of this on coordinates
//! scaled by `|Π|²`; these are the unscaled definitions it must agree
//! with.

use loom_hyperplane::TimeFn;
use loom_partition::{ComputationalStructure, GroupingVectors};
use loom_rational::{QVec, Ratio};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `Q^p` in rationals: projected points in order of first appearance
/// over the points in id order, the index inverting them, and `D^p`.
pub struct RationalProjection {
    pub points: Vec<QVec>,
    pub index: BTreeMap<QVec, usize>,
    pub deps: Vec<QVec>,
}

impl RationalProjection {
    pub fn new(cs: &ComputationalStructure, pi: &TimeFn) -> RationalProjection {
        let pi_q = pi.as_qvec();
        let mut points = Vec::new();
        let mut index = BTreeMap::new();
        for id in 0..cs.len() {
            let q = QVec::from_ints(cs.point(id)).project(&pi_q);
            index.entry(q.clone()).or_insert_with(|| {
                points.push(q);
                points.len() - 1
            });
        }
        let deps = cs
            .deps()
            .iter()
            .map(|d| QVec::from_ints(d).project(&pi_q))
            .collect();
        RationalProjection {
            points,
            index,
            deps,
        }
    }

    pub fn id_of(&self, q: &QVec) -> Option<usize> {
        self.index.get(q).copied()
    }
}

/// One group as the rational growth produces it.
#[derive(Debug, PartialEq, Eq)]
pub struct RationalGroup {
    pub base: QVec,
    pub members: Vec<usize>,
}

/// Algorithm 1, Steps 3–5, on rational bases: a breadth-first walk from
/// the seed (default: the lexicographically smallest projected point)
/// along `±r·d_l^p` and `±d_j^p`, reseeding at the smallest ungrouped
/// projected-point id. A seed of the wrong arity meets no point.
pub fn grow(
    qp: &RationalProjection,
    gv: &GroupingVectors,
    seed: Option<&QVec>,
) -> (Vec<RationalGroup>, Vec<usize>) {
    const UNASSIGNED: usize = usize::MAX;
    let mut group_of = vec![UNASSIGNED; qp.points.len()];
    let mut groups = Vec::new();
    let Some(gidx) = gv.grouping else {
        for (pid, slot) in group_of.iter_mut().enumerate() {
            *slot = groups.len();
            groups.push(RationalGroup {
                base: qp.points[pid].clone(),
                members: vec![pid],
            });
        }
        return (groups, group_of);
    };
    let dim = qp.points[0].dim();
    let dl = qp.deps[gidx].clone();
    let stride = dl.scale(Ratio::int(gv.r));
    let aux: Vec<QVec> = gv.auxiliary.iter().map(|&i| qp.deps[i].clone()).collect();
    let mut visited: BTreeSet<QVec> = BTreeSet::new();
    let mut remaining: BTreeSet<usize> = (0..qp.points.len()).collect();
    let mut first_seed = match seed {
        Some(s) => Some(s.clone()),
        None => qp.points.iter().min().cloned(),
    };
    while let Some(&start) = remaining.iter().next() {
        let seed_base = first_seed
            .take()
            .unwrap_or_else(|| qp.points[start].clone());
        let mut queue = VecDeque::from([seed_base]);
        while let Some(base) = queue.pop_front() {
            if base.dim() != dim || !visited.insert(base.clone()) {
                continue;
            }
            let members: Vec<usize> = (0..gv.r)
                .filter_map(|k| qp.id_of(&(&base + &dl.scale(Ratio::int(k)))))
                .filter(|&pid| group_of[pid] == UNASSIGNED)
                .collect();
            if members.is_empty() {
                continue;
            }
            for &pid in &members {
                group_of[pid] = groups.len();
                remaining.remove(&pid);
            }
            queue.push_back(&base + &stride);
            queue.push_back(&base - &stride);
            for a in &aux {
                queue.push_back(&base + a);
                queue.push_back(&base - a);
            }
            groups.push(RationalGroup { base, members });
        }
    }
    (groups, group_of)
}

/// Algorithm 2's block positions as rational dots: group base · ḡ for
/// every direction `omega` of Ω, or the block index when Ω is empty.
pub fn positions(
    qp: &RationalProjection,
    groups: &[RationalGroup],
    omega: &[usize],
) -> Vec<Vec<Ratio>> {
    groups
        .iter()
        .enumerate()
        .map(|(b, g)| match omega {
            [] => vec![Ratio::int(b as i64)],
            _ => omega.iter().map(|&i| g.base.dot(&qp.deps[i])).collect(),
        })
        .collect()
}
