//! Rules `LC003` and `LC006` — Theorem 2's neighbor bound and the
//! grouping-vector selection invariants behind it.
//!
//! Theorem 2: with `m` dependence vectors and `β` the rank of the
//! projected dependence matrix `mat(D^p)`, every group communicates
//! with at most `2m − β` other groups. `LC003` recomputes `β` from
//! scratch (it does not trust the value the partitioner recorded) and
//! checks the bound against the statically derived group dependence
//! graph. `LC006` validates the recorded [`GroupingVectors`] themselves:
//! `β` matches the rank, the chosen set `{d_l^p} ∪ Ψ` has exactly `β`
//! members, and those members are linearly independent — the invariant
//! that used to be a debug-only assert inside `loom-partition`.

use crate::diag::{Diagnostic, RuleId, Span};
use loom_partition::comm::group_dependence_graph;
use loom_partition::{GroupingVectors, Partitioning, ProjectedStructure};
use loom_rational::{linalg, QMat, QVec};
use std::collections::BTreeSet;

/// Rank of the nonzero projected dependence columns (zero columns never
/// change rank).
fn projected_rank(qp: &ProjectedStructure) -> usize {
    let cols: Vec<QVec> = qp
        .nonzero_dep_indices()
        .into_iter()
        .map(|i| qp.dep_q(i))
        .collect();
    if cols.is_empty() {
        0
    } else {
        linalg::rank(&QMat::from_columns(&cols))
    }
}

/// Check Theorem 2's `2m − β` bound on a partitioning.
pub fn check_theorem2(p: &Partitioning) -> Vec<Diagnostic> {
    let m = p.structure().deps().len();
    let beta = projected_rank(p.projected());
    check_neighbor_bound(&group_dependence_graph(p), m, beta)
}

/// The bound check itself, on an explicit out-neighbor graph — exposed
/// so tests can feed synthetic graphs that violate the theorem.
pub fn check_neighbor_bound(graph: &[BTreeSet<usize>], m: usize, beta: usize) -> Vec<Diagnostic> {
    let bound = (2 * m).saturating_sub(beta);
    graph
        .iter()
        .enumerate()
        .filter(|(_, targets)| targets.len() > bound)
        .map(|(g, targets)| {
            Diagnostic::error(
                RuleId::NeighborBound,
                Span::Group { group: g },
                format!(
                    "group sends data to {} other groups, exceeding \
                     2m\u{2212}\u{3b2} = 2\u{b7}{m}\u{2212}{beta} = {bound} (Theorem 2)",
                    targets.len()
                ),
            )
        })
        .collect()
}

/// Rule `LC006`: validate a [`GroupingVectors`] selection against the
/// projected structure it was derived from.
pub fn check_grouping_vectors(qp: &ProjectedStructure, gv: &GroupingVectors) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ndeps = qp.num_deps();
    for i in gv.omega() {
        if i >= ndeps {
            out.push(Diagnostic::error(
                RuleId::GroupingRank,
                Span::Nest,
                format!("grouping-vector index {i} out of range (have {ndeps} dependences)"),
            ));
            return out;
        }
    }
    let rank = projected_rank(qp);
    if gv.beta != rank {
        out.push(Diagnostic::error(
            RuleId::GroupingRank,
            Span::Nest,
            format!(
                "recorded \u{3b2} = {} disagrees with rank(mat(D^p)) = {rank}",
                gv.beta
            ),
        ));
    }
    match gv.grouping {
        None => {
            if rank != 0 {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    format!(
                        "degenerate grouping (no grouping vector) but mat(D^p) \
                         has rank {rank} > 0"
                    ),
                ));
            }
            if !gv.auxiliary.is_empty() {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    "auxiliary vectors present without a grouping vector",
                ));
            }
        }
        Some(g) => {
            if gv.auxiliary.len() + 1 != gv.beta {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    format!(
                        "\u{3a9} holds {} vector(s) where \u{3b2} = {} requires a \
                         rank-\u{3b2} independent set",
                        gv.auxiliary.len() + 1,
                        gv.beta
                    ),
                ));
            }
            let chosen: Vec<QVec> = std::iter::once(g)
                .chain(gv.auxiliary.iter().copied())
                .map(|i| qp.dep_q(i))
                .collect();
            if !linalg::independent(&chosen) {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    "the chosen grouping/auxiliary set is linearly dependent",
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;
    use loom_partition::{partition, ComputationalStructure, PartitionConfig};

    fn l1() -> Partitioning {
        partition(
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn l1_satisfies_theorem2() {
        assert!(check_theorem2(&l1()).is_empty());
    }

    #[test]
    fn synthetic_graph_over_bound_flagged() {
        // m = 1, β = 1 → bound 1; vertex 0 talks to two groups.
        let graph = vec![BTreeSet::from([1, 2]), BTreeSet::new(), BTreeSet::new()];
        let ds = check_neighbor_bound(&graph, 1, 1);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].span, Span::Group { group: 0 });
    }

    #[test]
    fn l1_grouping_vectors_validate() {
        let p = l1();
        assert!(check_grouping_vectors(p.projected(), p.vectors()).is_empty());
    }

    #[test]
    fn fabricated_beta_mismatch_flagged() {
        let p = l1();
        let mut gv = p.vectors().clone();
        gv.beta += 1;
        let ds = check_grouping_vectors(p.projected(), &gv);
        assert!(ds.iter().any(|d| d.rule == RuleId::GroupingRank));
    }

    #[test]
    fn fabricated_short_omega_flagged() {
        // Recompute the real β but drop the auxiliary set — exactly the
        // condition the promoted partition assert guards.
        let cs = ComputationalStructure::new(
            IterSpace::rect(&[4, 4, 4]).unwrap(),
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
        )
        .unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::wavefront(3)).unwrap();
        let real = loom_partition::grouping::select_vectors(&qp, None).unwrap();
        let gv = GroupingVectors {
            auxiliary: Vec::new(),
            ..real
        };
        let ds = check_grouping_vectors(&qp, &gv);
        assert!(!ds.is_empty());
    }
}
