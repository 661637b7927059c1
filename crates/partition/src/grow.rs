//! Steps 3–5 of Algorithm 1: region-growing the projected points into
//! groups.

use crate::grouping::GroupingVectors;
use crate::project::ProjectedStructure;
use crate::Error;
use loom_rational::QVec;
use std::collections::VecDeque;

/// One group of projected points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The base vertex `v₀^p`, scaled by `|Π|²` like every coordinate of
    /// the [`ProjectedStructure`] (`qp.unscale(&base)` is the rational
    /// vertex). It may lie outside `V^p` for boundary groups whose low
    /// end is clipped by the index-set boundary.
    pub base: Vec<i64>,
    /// Projected-point ids in the group, ordered along the grouping
    /// vector from the base.
    pub members: Vec<usize>,
}

/// The grouping of a projected structure: a disjoint cover of `V^p`.
#[derive(Clone, Debug)]
pub struct Grouping {
    /// All groups, in creation (breadth-first) order.
    pub groups: Vec<Group>,
    /// Group id of each projected point.
    pub group_of: Vec<usize>,
}

impl Grouping {
    /// Number of groups (17 for the paper's 4×4×4 matmul example with the
    /// paper's seed).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` iff there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Configuration of the growth (the "arbitrary" choices Step 3 leaves
/// open, pinned down for reproducibility).
#[derive(Clone, Debug, Default)]
pub struct GrowConfig {
    /// Base vertex of the first group. Defaults to the lexicographically
    /// smallest projected point. The paper's matmul walkthrough uses
    /// `(−1, −1, 2)`. A seed that is not an integer vector once scaled
    /// by `|Π|²` (or leaves `i64` when scaled) meets no projected point.
    pub seed: Option<QVec>,
}

/// Region-grow the groups (Algorithm 1, Steps 3–5).
///
/// Starting from a seed group of `r` points along the grouping vector,
/// breadth-first exploration visits the forward/backward neighboring
/// groups along the grouping vector (stride `r·d_l^p`) and along each
/// auxiliary vector (stride `d_j^p`), creating each group's members as the
/// projected points `base + k·d_l^p, 0 ≤ k < r` that exist and are still
/// ungrouped. When an island is exhausted but ungrouped points remain
/// (disconnected or irregular regions), growth reseeds at the ungrouped
/// point with the smallest id.
///
/// All of it runs on the scaled integer coordinates of `qp`. A base
/// whose coordinates overflow `i64` is [`Error::ProjectionOverflow`].
pub fn grow(
    qp: &ProjectedStructure,
    gv: &GroupingVectors,
    config: &GrowConfig,
) -> Result<Grouping, Error> {
    const UNASSIGNED: usize = usize::MAX;
    let n_points = qp.len();
    let mut group_of = vec![UNASSIGNED; n_points];
    let mut groups: Vec<Group> = Vec::new();

    let Some(gidx) = gv.grouping else {
        // Degenerate case: every projected point is its own group.
        for (pid, slot) in group_of.iter_mut().enumerate() {
            *slot = groups.len();
            groups.push(Group {
                base: qp.point(pid).to_vec(),
                members: vec![pid],
            });
        }
        return Ok(Grouping { groups, group_of });
    };

    let overflow = || Error::ProjectionOverflow {
        pi: qp.time_fn().coeffs().to_vec(),
    };
    let dl = qp.dep(gidx);
    let n = dl.len();
    let r = gv.r;
    // r·d_l^p — same-line group stride — then each auxiliary vector.
    let stride: Vec<i64> = dl
        .iter()
        .map(|&c| c.checked_mul(r))
        .collect::<Option<_>>()
        .ok_or_else(overflow)?;
    let steps: Vec<&[i64]> = std::iter::once(&stride[..])
        .chain(gv.auxiliary.iter().map(|&i| qp.dep(i)))
        .collect();

    // The breadth-first queue: bases of `n` coordinates laid end to end.
    let mut queue: VecDeque<i64> = VecDeque::new();
    let mut base: Vec<i64> = Vec::new();
    let mut pos: Vec<i64> = Vec::new();
    // Every pid below `cursor` is grouped; pids only ever get grouped,
    // so the smallest ungrouped pid never decreases.
    let mut cursor = 0;

    let mut first_seed = match &config.seed {
        Some(q) => Some(qp.scale_q(q)),
        None => qp
            .lexicographic_min()
            .map(|pid| Some(qp.point(pid).to_vec())),
    };

    loop {
        while cursor < n_points && group_of[cursor] != UNASSIGNED {
            cursor += 1;
        }
        if cursor == n_points {
            break;
        }
        // Step 3: seed a group. The very first seed may be user-chosen;
        // reseeds use the smallest ungrouped point.
        match first_seed.take() {
            Some(Some(seed)) => queue.extend(seed),
            Some(None) => continue, // a seed off the scaled lattice meets no point
            None => queue.extend(qp.point(cursor)),
        }

        // Step 4: breadth-first neighbor expansion.
        while !queue.is_empty() {
            base.clear();
            base.extend(queue.drain(..n));
            // A base seen before adds nothing: every position it reaches
            // was grouped on its first visit. Skipping the bases that
            // head their group, found by their k = 0 position, saves
            // most of the repeat probes.
            if let Some(pid) = qp.id_of(&base) {
                let gid = group_of[pid];
                if gid != UNASSIGNED && groups[gid].base == base {
                    continue;
                }
            }
            let mut members = Vec::new();
            pos.clone_from(&base);
            for k in 0..r {
                // pos = base + k·d_l^p; past an overflow every later
                // position is outside `i64` too, where no point lies.
                if k > 0 && !add_assign(&mut pos, dl, 1) {
                    break;
                }
                if let Some(pid) = qp.id_of(&pos) {
                    if group_of[pid] == UNASSIGNED {
                        members.push(pid);
                    }
                }
            }
            if members.is_empty() {
                continue; // nothing here: do not expand past empty space
            }
            let gid = groups.len();
            for &pid in &members {
                group_of[pid] = gid;
            }
            // Forward/backward neighbors along the grouping vector and
            // each auxiliary grouping vector.
            for step in &steps {
                for sign in [1, -1] {
                    pos.clone_from(&base);
                    if !add_assign(&mut pos, step, sign) {
                        return Err(overflow());
                    }
                    queue.extend(&pos);
                }
            }
            groups.push(Group {
                base: base.clone(),
                members,
            });
        }
        // Step 5: loop reseeds while ungrouped points remain.
    }

    Ok(Grouping { groups, group_of })
}

/// `v += sign·step` in checked arithmetic; `false` (with `v` partly
/// updated) on overflow.
fn add_assign(v: &mut [i64], step: &[i64], sign: i64) -> bool {
    v.iter_mut().zip(step).all(
        |(x, &d)| match d.checked_mul(sign).and_then(|d| x.checked_add(d)) {
            Some(y) => {
                *x = y;
                true
            }
            None => false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::select_vectors;
    use crate::project::ComputationalStructure;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;

    fn build(
        sizes: &[i64],
        deps: Vec<Vec<i64>>,
        pi: Vec<i64>,
        prefer: Option<usize>,
        seed: Option<QVec>,
    ) -> (ProjectedStructure, GroupingVectors, Grouping) {
        let cs = ComputationalStructure::new(IterSpace::rect(sizes).unwrap(), deps).unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::new(pi)).unwrap();
        let gv = select_vectors(&qp, prefer).unwrap();
        let g = grow(&qp, &gv, &GrowConfig { seed }).unwrap();
        (qp, gv, g)
    }

    fn assert_disjoint_cover(qp: &ProjectedStructure, g: &Grouping) {
        let mut seen = vec![false; qp.len()];
        for (gid, grp) in g.groups.iter().enumerate() {
            assert!(!grp.members.is_empty(), "empty group {gid}");
            for &pid in &grp.members {
                assert!(!seen[pid], "point {pid} in two groups");
                seen[pid] = true;
                assert_eq!(g.group_of[pid], gid);
            }
        }
        assert!(seen.iter().all(|&s| s), "ungrouped projected point");
    }

    #[test]
    fn l1_grouping_matches_paper_fig3b() {
        // Paper: four groups; each holds two projected points except the
        // boundary group G₄ (sizes 2,2,2,1).
        let (qp, gv, g) = build(
            &[4, 4],
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            vec![1, 1],
            None,
            None,
        );
        assert_eq!(gv.r, 2);
        assert_eq!(g.len(), 4);
        assert_disjoint_cover(&qp, &g);
        let mut sizes: Vec<usize> = g.groups.iter().map(|x| x.members.len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2, 2, 2]);
    }

    #[test]
    fn matmul_grouping_with_paper_seed_gives_17_groups() {
        // Example 2 / Fig. 6: grouping vector d_A^p, auxiliary d_C^p,
        // seed (−1,−1,2) → 17 groups.
        let seed = QVec::from_ints(&[-1, -1, 2]);
        let (qp, gv, g) = build(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
            Some(0), // d_A
            Some(seed),
        );
        assert_eq!(gv.r, 3);
        assert_disjoint_cover(&qp, &g);
        assert_eq!(g.len(), 17, "paper reports 17 partitioned groups");
    }

    #[test]
    fn matmul_grouping_default_seed_covers_all() {
        let (qp, _, g) = build(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
            None,
            None,
        );
        assert_disjoint_cover(&qp, &g);
        // Group sizes never exceed r = 3.
        assert!(g.groups.iter().all(|x| x.members.len() <= 3));
    }

    #[test]
    fn members_ordered_along_grouping_vector() {
        let (qp, gv, g) = build(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
            Some(0),
            None,
        );
        let dl = qp.dep_q(gv.grouping.unwrap());
        for grp in &g.groups {
            for w in grp.members.windows(2) {
                let diff = &qp.point_q(w[1]) - &qp.point_q(w[0]);
                // Consecutive members differ by a positive multiple of d_l^p
                // (gaps happen at clipped boundaries).
                assert!(
                    diff.positively_parallel(&dl) || diff == dl,
                    "members not along grouping vector"
                );
            }
        }
    }

    #[test]
    fn degenerate_grouping_one_group_per_line() {
        let (qp, gv, g) = build(&[4, 4], vec![vec![1, 1]], vec![1, 1], None, None);
        assert_eq!(gv.grouping, None);
        assert_eq!(g.len(), qp.len());
        assert_disjoint_cover(&qp, &g);
    }

    #[test]
    fn matvec_grouping_halves_lines() {
        // Matvec M=8: 15 projection lines, r = 2 → 8 groups (paper: M
        // groups, boundary group of one).
        let (qp, gv, g) = build(
            &[8, 8],
            vec![vec![1, 0], vec![0, 1]],
            vec![1, 1],
            None,
            None,
        );
        assert_eq!(gv.r, 2);
        assert_eq!(qp.len(), 15);
        assert_eq!(g.len(), 8);
        assert_disjoint_cover(&qp, &g);
    }
}
