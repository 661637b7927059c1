//! Executable validators for the paper's Lemmas 1–3 and Theorems 1–2.
//!
//! These are *checks*, not proofs: given a concrete partitioning they
//! verify the properties the paper establishes analytically, and report
//! every violation found. The test suites and benches run them on each
//! partitioning they produce; a violation indicates an implementation
//! bug (or a boundary configuration outside a lemma's hypotheses —
//! Lemma 2's "only one group" claim assumes interior groups, so the
//! checker treats clipped boundary groups separately).

use crate::blocks::Partitioning;
use crate::comm::group_dependence_graph;
use std::collections::BTreeSet;
use std::fmt;

/// A violated law, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LawViolation {
    /// Theorem 1 / Lemma 1: two iterations in one block share a step.
    SharedStep {
        /// The block.
        block: usize,
        /// The execution step both points occupy.
        step: i64,
    },
    /// Theorem 2: a group sends data to more than `2m − β` groups.
    OutDegree {
        /// The group.
        group: usize,
        /// Its out-degree.
        degree: usize,
        /// The bound `2m − β`.
        bound: usize,
    },
    /// Lemma 2: a group depends on more than one group along a grouping
    /// or auxiliary direction.
    MultiTargetAlongOmega {
        /// The source group.
        group: usize,
        /// The dependence index (into `D`).
        dep: usize,
        /// The distinct target groups observed.
        targets: Vec<usize>,
    },
    /// Lemma 3: a group sends to more than two groups along a
    /// non-grouping direction.
    TooManyTargetsOffOmega {
        /// The source group.
        group: usize,
        /// The dependence index (into `D`).
        dep: usize,
        /// The distinct target groups observed.
        targets: Vec<usize>,
    },
}

impl fmt::Display for LawViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LawViolation::SharedStep { block, step } => {
                write!(f, "block {block}: two iterations share step {step}")
            }
            LawViolation::OutDegree {
                group,
                degree,
                bound,
            } => write!(
                f,
                "group {group}: out-degree {degree} exceeds 2m−β = {bound}"
            ),
            LawViolation::MultiTargetAlongOmega {
                group,
                dep,
                targets,
            } => write!(
                f,
                "group {group}: depends on {targets:?} along grouping/auxiliary dep {dep}"
            ),
            LawViolation::TooManyTargetsOffOmega {
                group,
                dep,
                targets,
            } => write!(
                f,
                "group {group}: sends to {targets:?} (>2) along non-grouping dep {dep}"
            ),
        }
    }
}

/// Theorem 1 (via Lemma 1): within every block, all iterations execute at
/// pairwise-distinct steps, so assigning a block to one processor never
/// perturbs the hyperplane schedule.
pub fn check_theorem1(p: &Partitioning) -> Vec<LawViolation> {
    let mut violations = Vec::new();
    let pi = p.time_fn().clone();
    for (b, block) in p.blocks().iter().enumerate() {
        let mut seen = BTreeSet::new();
        for &id in block {
            let t = pi.time_of(&p.structure().points()[id]);
            if !seen.insert(t) {
                violations.push(LawViolation::SharedStep { block: b, step: t });
            }
        }
    }
    violations
}

/// Theorem 2: every group sends data to at most `2m − β` other groups.
pub fn check_theorem2(p: &Partitioning) -> Vec<LawViolation> {
    let m = p.structure().deps().len();
    let beta = p.vectors().beta;
    let bound = 2 * m - beta;
    group_dependence_graph(p)
        .iter()
        .enumerate()
        .filter(|(_, out)| out.len() > bound)
        .map(|(g, out)| LawViolation::OutDegree {
            group: g,
            degree: out.len(),
            bound,
        })
        .collect()
}

/// Per-direction group targets: for each group and each nonzero projected
/// dependence, the set of *other* groups reached by stepping members by
/// that dependence.
fn targets_per_direction(p: &Partitioning) -> Vec<Vec<BTreeSet<usize>>> {
    let qp = p.projected();
    let g = p.grouping();
    let nonzero = qp.nonzero_dep_indices();
    let mut targets = vec![vec![BTreeSet::new(); qp.num_deps()]; g.len()];
    for pid in 0..qp.len() {
        let from = g.group_of[pid];
        for &k in &nonzero {
            if let Some(qid) = qp.neighbor(pid, k) {
                let to = g.group_of[qid];
                if to != from {
                    targets[from][k].insert(to);
                }
            }
        }
    }
    targets
}

/// Lemma 2: along the grouping vector and each auxiliary vector, a group
/// depends on (at most) one other group. Boundary-clipped groups can see
/// zero targets; more than one is a violation.
pub fn check_lemma2(p: &Partitioning) -> Vec<LawViolation> {
    let omega: BTreeSet<usize> = p.vectors().omega().into_iter().collect();
    let mut violations = Vec::new();
    for (gid, per_dep) in targets_per_direction(p).iter().enumerate() {
        for (dep, targets) in omega.iter().map(|&d| (d, &per_dep[d])) {
            if targets.len() > 1 {
                violations.push(LawViolation::MultiTargetAlongOmega {
                    group: gid,
                    dep,
                    targets: targets.iter().copied().collect(),
                });
            }
        }
    }
    violations
}

/// Lemma 3: along every remaining (non-grouping, non-auxiliary, nonzero)
/// projected dependence, a group sends data to at most two groups.
pub fn check_lemma3(p: &Partitioning) -> Vec<LawViolation> {
    let omega: BTreeSet<usize> = p.vectors().omega().into_iter().collect();
    let nonzero: BTreeSet<usize> = p.projected().nonzero_dep_indices().into_iter().collect();
    let mut violations = Vec::new();
    for (gid, per_dep) in targets_per_direction(p).iter().enumerate() {
        for &dep in nonzero.difference(&omega) {
            let targets = &per_dep[dep];
            if targets.len() > 2 {
                violations.push(LawViolation::TooManyTargetsOffOmega {
                    group: gid,
                    dep,
                    targets: targets.iter().copied().collect(),
                });
            }
        }
    }
    violations
}

/// Run every validator; empty result means the partitioning satisfies
/// all the paper's structural laws.
pub fn check_all(p: &Partitioning) -> Vec<LawViolation> {
    let mut v = check_theorem1(p);
    v.extend(check_theorem2(p));
    v.extend(check_lemma2(p));
    v.extend(check_lemma3(p));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{partition, PartitionConfig};
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;
    use loom_rational::QVec;

    #[test]
    fn l1_satisfies_all_laws() {
        let p = partition(
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(check_all(&p), vec![]);
    }

    #[test]
    fn matmul_satisfies_all_laws() {
        let p = partition(
            IterSpace::rect(&[4, 4, 4]).unwrap(),
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            TimeFn::wavefront(3),
            &PartitionConfig {
                grouping_choice: Some(0),
                seed: Some(QVec::from_ints(&[-1, -1, 2])),
            },
        )
        .unwrap();
        assert_eq!(check_all(&p), vec![]);
    }

    #[test]
    fn matmul_all_grouping_choices_satisfy_laws() {
        for choice in 0..3 {
            let p = partition(
                IterSpace::rect(&[4, 4, 4]).unwrap(),
                vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
                TimeFn::wavefront(3),
                &PartitionConfig {
                    grouping_choice: Some(choice),
                    seed: None,
                },
            )
            .unwrap();
            assert_eq!(check_all(&p), vec![], "violation with choice {choice}");
        }
    }

    #[test]
    fn matvec_satisfies_all_laws() {
        let p = partition(
            IterSpace::rect(&[12, 12]).unwrap(),
            vec![vec![1, 0], vec![0, 1]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(check_all(&p), vec![]);
    }

    #[test]
    fn five_point_stencil_satisfies_laws() {
        // D = {(0,1), (1,0), (1,1)} with larger extent and Π = (1,2):
        // exercises unequal Π coefficients.
        let deps = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        let pi = TimeFn::new(vec![1, 2]);
        assert!(pi.is_legal_for(&deps));
        let p = partition(
            IterSpace::rect(&[6, 6]).unwrap(),
            deps,
            pi,
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(check_theorem1(&p), vec![]);
        assert_eq!(check_theorem2(&p), vec![]);
    }
}
