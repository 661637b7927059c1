//! Step 6 of Algorithm 1: materializing partitioned blocks, plus the
//! top-level [`partition`] entry point.

use crate::grouping::{select_vectors, GroupingVectors};
use crate::grow::{grow, Grouping, GrowConfig};
use crate::project::{ComputationalStructure, ProjectedStructure};
use crate::Error;
use loom_hyperplane::TimeFn;
use loom_loopir::{IterSpace, Point};
use loom_rational::QVec;

/// Options for [`partition`] — the "arbitrary" choices Algorithm 1
/// leaves open, pinned for reproducibility and exposed for ablation.
#[derive(Clone, Debug, Default)]
pub struct PartitionConfig {
    /// Force a particular dependence (by index into the dependence set)
    /// to be the grouping vector. Must achieve the maximal multiplier.
    pub grouping_choice: Option<usize>,
    /// Base vertex of the first group (Step 3's arbitrary line/point).
    pub seed: Option<QVec>,
}

/// The complete output of Algorithm 1: the partitioning `G_Π(Q)`.
#[derive(Clone, Debug)]
pub struct Partitioning {
    cs: ComputationalStructure,
    qp: ProjectedStructure,
    vectors: GroupingVectors,
    grouping: Grouping,
    /// Iteration-point ids per block, ordered by execution step.
    blocks: Vec<Vec<usize>>,
    /// Block id of every iteration point.
    block_of: Vec<usize>,
}

impl Partitioning {
    /// The computational structure `Q`.
    pub fn structure(&self) -> &ComputationalStructure {
        &self.cs
    }

    /// The projected structure `Q^p`.
    pub fn projected(&self) -> &ProjectedStructure {
        &self.qp
    }

    /// The selected grouping/auxiliary vectors.
    pub fn vectors(&self) -> &GroupingVectors {
        &self.vectors
    }

    /// The groups of projected points.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// Number of blocks `α`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iteration-point ids of block `b`, sorted by execution step.
    pub fn block(&self, b: usize) -> &[usize] {
        &self.blocks[b]
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Vec<usize>] {
        &self.blocks
    }

    /// Block id of iteration point `id`.
    pub fn block_of(&self, id: usize) -> usize {
        self.block_of[id]
    }

    /// Size of the largest block (the paper's `W` determines the busiest
    /// processor's computation time).
    pub fn max_block_size(&self) -> usize {
        self.blocks.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The time function in use.
    pub fn time_fn(&self) -> &TimeFn {
        self.qp.time_fn()
    }
}

/// Run Algorithm 1 end to end.
///
/// Validates Π against the dependence set, projects, selects vectors,
/// grows groups, and materializes blocks.
///
/// ```
/// use loom_hyperplane::TimeFn;
/// use loom_loopir::IterSpace;
/// use loom_partition::{partition, PartitionConfig};
/// let space = IterSpace::rect(&[4, 4]).unwrap();
/// let deps = vec![vec![0, 1], vec![1, 1], vec![1, 0]];
/// let p = partition(space, deps, TimeFn::new(vec![1, 1]),
///                   &PartitionConfig::default()).unwrap();
/// assert_eq!(p.num_blocks(), 4); // the paper's B₀…B₃ (+ boundary B₄ merged…)
/// ```
pub fn partition(
    space: IterSpace,
    deps: Vec<Point>,
    pi: TimeFn,
    config: &PartitionConfig,
) -> Result<Partitioning, Error> {
    pi.check_legal(&deps)?;
    let cs = ComputationalStructure::new(space, deps)?;
    let qp = ProjectedStructure::project(&cs, &pi)?;
    let vectors = select_vectors(&qp, config.grouping_choice)?;
    let grouping = grow(
        &qp,
        &vectors,
        &GrowConfig {
            seed: config.seed.clone(),
        },
    )?;

    // Step 6: B_i = ∪ over v_k^p ∈ G_i of the projection line's points.
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); grouping.len()];
    let mut block_of = vec![usize::MAX; cs.len()];
    for (pid, &gid) in grouping.group_of.iter().enumerate() {
        for &point_id in qp.line_members(pid) {
            blocks[gid].push(point_id);
            block_of[point_id] = gid;
        }
    }
    for b in &mut blocks {
        b.sort_by_key(|&id| pi.time_of(cs.point(id)));
    }

    Ok(Partitioning {
        cs,
        qp,
        vectors,
        grouping,
        blocks,
        block_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn l1_four_blocks_cover_all_points() {
        let p = l1();
        assert_eq!(p.num_blocks(), 4);
        let total: usize = p.blocks().iter().map(Vec::len).sum();
        assert_eq!(total, 16);
        for id in 0..16 {
            let b = p.block_of(id);
            assert!(p.block(b).contains(&id));
        }
    }

    #[test]
    fn l1_largest_block_holds_main_diagonal() {
        // The group containing lines i−j = 0 and i−j = ±1 has 4 + 3 = 7
        // points — the busiest processor in the paper's analysis.
        let p = l1();
        assert_eq!(p.max_block_size(), 7);
    }

    #[test]
    fn illegal_time_fn_rejected() {
        let e = partition(
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![vec![0, 1]],
            TimeFn::new(vec![1, -1]),
            &PartitionConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(e, Error::IllegalTimeFn(_)));
    }

    #[test]
    fn blocks_time_ordered() {
        let p = l1();
        for b in 0..p.num_blocks() {
            let times: Vec<i64> = p
                .block(b)
                .iter()
                .map(|&id| p.time_fn().time_of(&p.structure().points()[id]))
                .collect();
            for w in times.windows(2) {
                assert!(w[0] < w[1], "block not strictly time-ordered (Lemma 1)");
            }
        }
    }

    #[test]
    fn matmul_blocks() {
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
        assert_eq!(p.num_blocks(), 17);
        let total: usize = p.blocks().iter().map(Vec::len).sum();
        assert_eq!(total, 64);
    }
}
