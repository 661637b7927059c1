//! Rule `LC002` — Lemma 1: no two iterations merged into one block may
//! share a time step.
//!
//! A block executes on one processor; if two of its iterations fall on
//! the same hyperplane, the block serializes work the schedule counted
//! as parallel and the makespan analysis of Theorem 1 collapses. Times
//! are compared with exact rational arithmetic (`Π` as a `QVec` dotted
//! with each point), not by sampling or floating point, so a violation
//! can neither be missed nor fabricated by rounding.

use crate::diag::{Diagnostic, RuleId, Span};
use loom_hyperplane::TimeFn;
use loom_partition::Points;
use loom_rational::{QVec, Ratio};
use std::collections::BTreeMap;

/// Check that every block's iterations occupy pairwise-distinct steps.
///
/// `blocks` holds iteration-point ids (indices into `points`) per
/// block, in the shape [`loom_partition::Partitioning::blocks`]
/// produces — taking the raw blocks lets tests hand in deliberately
/// merged blocks without rebuilding a `Partitioning`.
pub fn check_lemma1(pi: &TimeFn, points: Points<'_>, blocks: &[Vec<usize>]) -> Vec<Diagnostic> {
    let piq = pi.as_qvec();
    let mut out = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        let mut first_at: BTreeMap<Ratio, usize> = BTreeMap::new();
        for &id in block {
            let point = &points[id];
            if point.len() != pi.dim() {
                // LC001 reports dimension mismatches; a time is
                // undefined here, so skip rather than double-report.
                continue;
            }
            let t = QVec::from_ints(point).dot(&piq);
            match first_at.get(&t) {
                Some(&first) => out.push(Diagnostic::error(
                    RuleId::BlockSharedStep,
                    Span::PointPair {
                        a: points[first].to_vec(),
                        b: point.to_vec(),
                    },
                    format!(
                        "both iterations of block B{b} execute at step {t}; \
                         Lemma 1 requires distinct steps within a block"
                    ),
                )),
                None => {
                    first_at.insert(t, id);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use loom_loopir::IterSpace;
    use loom_partition::ComputationalStructure;

    /// The 4×4 grid; point `(i, j)` has id `4i + j`.
    fn grid4() -> ComputationalStructure {
        ComputationalStructure::new(IterSpace::rect(&[4, 4]).unwrap(), vec![]).unwrap()
    }

    #[test]
    fn diagonal_block_is_clean() {
        // Points along i−j = 0 all have distinct i+j.
        let pts = grid4();
        let block: Vec<usize> = (0..4).map(|k| k * 4 + k).collect();
        assert!(check_lemma1(&TimeFn::new(vec![1, 1]), pts.points(), &[block]).is_empty());
    }

    #[test]
    fn antidiagonal_block_violates() {
        // Points along i+j = 3 all share step 3 under Π = (1,1).
        let pts = grid4();
        let block: Vec<usize> = (0..4).map(|k| k * 4 + (3 - k)).collect();
        let ds = check_lemma1(&TimeFn::new(vec![1, 1]), pts.points(), &[block]);
        // 4 points on one hyperplane → 3 duplicates of the first.
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(|d| d.rule == RuleId::BlockSharedStep));
    }

    #[test]
    fn merged_legit_blocks_detected() {
        // The i−j = 0 diagonal occupies even steps 0,2,4,6; merging in
        // the i−j = −2 diagonal (steps 2,4) collides at steps 2 and 4.
        let pts = grid4();
        let mut block: Vec<usize> = (0..4).map(|k| k * 4 + k).collect();
        block.extend((0..2).map(|k| k * 4 + k + 2));
        let ds = check_lemma1(&TimeFn::new(vec![1, 1]), pts.points(), &[block]);
        assert_eq!(ds.len(), 2);
    }
}
