//! Rule `LC004` — Gray-code mapping adjacency.
//!
//! Algorithm 2 bisects the groups along the grouping direction Ω and
//! allocates the clusters to subcubes via a Gray code, precisely so
//! that groups exchanging data along Ω land on hypercube neighbors
//! (hop count 1). This check recomputes which group pairs are
//! Ω-adjacent directly from the projected structure, then measures the
//! Hamming distance of every communicating pair under the given
//! assignment: an Ω-adjacent pair more than one hop apart is an error
//! (the Gray property is broken); any other communicating pair routed
//! over several hops is reported as dilation at warning severity,
//! since the paper's bound only covers the Ω directions.
//!
//! The 1-hop guarantee is exact only when every cluster holds a single
//! block (`num_blocks ≤ 2^n`). With more blocks than processors,
//! Phase I folds several groups into each cluster and only
//! *consecutive clusters* are Gray-adjacent — Ω-neighbors in
//! non-consecutive clusters can legitimately sit several hops apart,
//! so in the folded regime every multi-hop pair is reported as a
//! dilation warning rather than an error.

use crate::diag::{Diagnostic, RuleId, Span};
use loom_mapping::Hypercube;
use loom_partition::{Partitioning, Tig};
use std::collections::BTreeSet;

/// Group pairs connected by a grouping/auxiliary (Ω) dependence:
/// stepping any member point of one group by an Ω direction lands in
/// the other.
fn omega_adjacent_pairs(p: &Partitioning) -> BTreeSet<(usize, usize)> {
    let qp = p.projected();
    let g = p.grouping();
    let omega = p.vectors().omega();
    let mut pairs = BTreeSet::new();
    for pid in 0..qp.len() {
        let from = g.group_of[pid];
        for &k in &omega {
            if let Some(qid) = qp.neighbor(pid, k) {
                let to = g.group_of[qid];
                if to != from {
                    pairs.insert((from.min(to), from.max(to)));
                }
            }
        }
    }
    pairs
}

/// Check the block → processor assignment against the TIG: every
/// Ω-adjacent communicating pair must be at most one hop apart.
///
/// Takes the raw `assignment` slice (block id → processor) rather than
/// an opaque [`loom_mapping::Mapping`], so tests can hand in a
/// deliberately scrambled allocation.
pub fn check_gray(
    p: &Partitioning,
    tig: &Tig,
    assignment: &[usize],
    cube_dim: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cube = Hypercube::new(cube_dim);
    if assignment.len() != p.num_blocks() {
        out.push(Diagnostic::error(
            RuleId::GrayAdjacency,
            Span::Nest,
            format!(
                "assignment covers {} block(s), but the partitioning has {}",
                assignment.len(),
                p.num_blocks()
            ),
        ));
        return out;
    }
    for (b, &proc) in assignment.iter().enumerate() {
        if proc >= cube.len() {
            out.push(Diagnostic::error(
                RuleId::GrayAdjacency,
                Span::Block { block: b },
                format!(
                    "block assigned to processor {proc}, but the {cube_dim}-cube \
                     has only {} processors",
                    cube.len()
                ),
            ));
            return out;
        }
    }
    let omega_adjacent = omega_adjacent_pairs(p);
    // With more blocks than processors, Phase I folds several groups per
    // cluster and only consecutive clusters are Gray-adjacent; the exact
    // 1-hop guarantee then no longer covers every Ω-neighbor pair.
    let strict = p.num_blocks() <= cube.len();
    for ((a, b), _weight) in tig.edges() {
        let (pa, pb) = (assignment[a], assignment[b]);
        if pa == pb {
            continue;
        }
        let hops = cube.distance(pa, pb);
        if hops <= 1 {
            continue;
        }
        let span = Span::TigEdge { a, b };
        if strict && omega_adjacent.contains(&(a, b)) {
            out.push(Diagnostic::error(
                RuleId::GrayAdjacency,
                span,
                format!(
                    "\u{3a9}-neighbor blocks mapped to processors {pa} and {pb}, \
                     {hops} hops apart; Gray-code allocation guarantees 1"
                ),
            ));
        } else if omega_adjacent.contains(&(a, b)) {
            out.push(Diagnostic::warning(
                RuleId::GrayAdjacency,
                span,
                format!(
                    "\u{3a9}-neighbor blocks mapped {hops} hops apart on \
                     processors {pa} and {pb} (clusters hold several blocks, \
                     so the 1-hop guarantee does not apply)"
                ),
            ));
        } else {
            out.push(Diagnostic::warning(
                RuleId::GrayAdjacency,
                span,
                format!(
                    "communicating blocks mapped {hops} hops apart \
                     (dilation {hops}) on processors {pa} and {pb}"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;
    use loom_mapping::map_partitioning;
    use loom_partition::{partition, PartitionConfig};

    fn matvec(cube_dim: usize) -> (Partitioning, Tig, Vec<usize>) {
        let p = partition(
            IterSpace::rect(&[12, 12]).unwrap(),
            vec![vec![1, 0], vec![0, 1]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        let tig = Tig::from_partitioning(&p);
        let m = map_partitioning(&p, cube_dim).unwrap();
        let assignment = m.assignment().to_vec();
        (p, tig, assignment)
    }

    #[test]
    fn algorithm2_mapping_has_no_errors() {
        for cube_dim in 0..=3 {
            let (p, tig, assignment) = matvec(cube_dim);
            let ds = check_gray(&p, &tig, &assignment, cube_dim);
            assert!(
                !ds.iter().any(|d| d.severity == crate::Severity::Error),
                "cube_dim {cube_dim}: {ds:?}"
            );
        }
    }

    #[test]
    fn scrambled_assignment_flagged() {
        // 12 blocks on a 4-cube: singleton clusters, so the 1-hop
        // guarantee is exact. A binary (non-Gray) walk puts chain
        // neighbors 1(001)–2(010) two hops apart.
        let (p, tig, _) = matvec(3);
        let assignment: Vec<usize> = (0..p.num_blocks()).collect();
        let ds = check_gray(&p, &tig, &assignment, 4);
        assert!(
            ds.iter()
                .any(|d| d.severity == crate::Severity::Error && d.rule == RuleId::GrayAdjacency),
            "{ds:?}"
        );
    }

    #[test]
    fn folded_mapping_downgrades_to_warning() {
        // More blocks than processors: Ω-neighbor pairs beyond one hop
        // are dilation warnings, never errors.
        let (p, tig, _) = matvec(2);
        // Binary walk on a 2-cube: chain neighbors 1(01)–2(10) are two
        // hops apart, but with 12 blocks in 4 clusters that is dilation.
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 4).collect();
        let ds = check_gray(&p, &tig, &assignment, 2);
        assert!(!ds.is_empty(), "expected dilation warnings");
        assert!(
            ds.iter().all(|d| d.severity != crate::Severity::Error),
            "{ds:?}"
        );
    }

    #[test]
    fn wrong_assignment_length_rejected() {
        let (p, tig, _) = matvec(1);
        let ds = check_gray(&p, &tig, &[0], 1);
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn out_of_range_processor_rejected() {
        let (p, tig, mut assignment) = matvec(1);
        assignment[0] = 7;
        let ds = check_gray(&p, &tig, &assignment, 1);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].span, Span::Block { block: 0 });
    }
}
