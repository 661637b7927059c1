//! Phase I of Algorithm 2: cluster formation by recursive bisection.

use crate::Error;

/// The result of recursively bisecting the blocks `n` times: `2ⁿ`
/// clusters, each with its per-direction split path.
#[derive(Clone, Debug)]
pub struct ClusterFormation {
    /// Block ids per cluster, in cluster-address order
    /// (see [`ClusterFormation::addresses`]).
    pub clusters: Vec<Vec<usize>>,
    /// The hypercube address of each cluster (concatenated per-direction
    /// Gray codes, Phase II Step 1 of Algorithm 2).
    pub addresses: Vec<u64>,
    /// How many times each direction was split (`p_i`; Σ p_i = n).
    pub splits_per_dir: Vec<u32>,
    /// Each cluster's binary chunk coordinate along every direction
    /// (first split = most significant bit). Unlike `addresses`, these
    /// are plain binary ranks, which non-hypercube allocators (mesh,
    /// ring) consume directly.
    pub coords: Vec<Vec<u64>>,
}

/// Recursively bisect blocks into `2^cube_dim` equal-size clusters.
///
/// `positions[b][i]` is block `b`'s scalar coordinate along bisection
/// direction `i` (for a partitioning: the group base vertex dotted with
/// the grouping / auxiliary grouping vector ḡᵢ). Only their order
/// matters, so any totally ordered scalar will do. Directions are used
/// round-robin (`i = j mod β`), as in the paper. Ties are broken by
/// block id so the formation is deterministic.
///
/// Per the paper's assumption the number of blocks must be at least the
/// number of processors; otherwise `Error::CubeTooLarge` is returned.
pub fn form_clusters<T: Ord>(
    positions: &[Vec<T>],
    cube_dim: usize,
) -> Result<ClusterFormation, Error> {
    let ndirs = positions.first().map_or(0, Vec::len);
    let schedule: Vec<usize> = (0..cube_dim).map(|j| j % ndirs.max(1)).collect();
    form_clusters_with_schedule(positions, &schedule)
}

/// Like [`form_clusters`], but with an explicit per-split direction
/// schedule (`schedule[j]` is the direction of the `j`-th bisection).
/// Used by the mesh/ring allocators, which need specific split counts
/// per direction rather than the paper's round robin.
pub fn form_clusters_with_schedule<T: Ord>(
    positions: &[Vec<T>],
    schedule: &[usize],
) -> Result<ClusterFormation, Error> {
    let cube_dim = schedule.len();
    let blocks = positions.len();
    if blocks == 0 {
        return Err(Error::BadPositions);
    }
    let ndirs = positions[0].len();
    if ndirs == 0
        || positions.iter().any(|p| p.len() != ndirs)
        || schedule.iter().any(|&d| d >= ndirs)
    {
        return Err(Error::BadPositions);
    }
    if blocks < (1usize << cube_dim) {
        return Err(Error::CubeTooLarge { blocks, cube_dim });
    }

    // Each in-flight cluster carries its ids and per-direction bit path.
    struct Cluster {
        ids: Vec<usize>,
        path: Vec<Vec<bool>>, // path[dir] = split bits, first split first
    }
    let mut clusters = vec![Cluster {
        ids: (0..blocks).collect(),
        path: vec![Vec::new(); ndirs],
    }];
    let mut splits_per_dir = vec![0u32; ndirs];

    for &i in schedule {
        splits_per_dir[i] += 1;
        let mut next = Vec::with_capacity(clusters.len() * 2);
        for mut c in clusters {
            c.ids
                .sort_by(|&a, &b| positions[a][i].cmp(&positions[b][i]).then(a.cmp(&b)));
            let low_len = c.ids.len() / 2;
            let high = c.ids.split_off(low_len);
            let mut low_path = c.path.clone();
            low_path[i].push(false);
            let mut high_path = c.path;
            high_path[i].push(true);
            next.push(Cluster {
                ids: c.ids,
                path: low_path,
            });
            next.push(Cluster {
                ids: high,
                path: high_path,
            });
        }
        clusters = next;
    }

    // Phase II Step 1: per-direction Gray codes, concatenated with
    // direction 0 most significant.
    let mut out_clusters = Vec::with_capacity(clusters.len());
    let mut addresses = Vec::with_capacity(clusters.len());
    let mut all_coords = Vec::with_capacity(clusters.len());
    for c in clusters {
        let mut addr: u64 = 0;
        let mut coords = vec![0u64; ndirs];
        for i in 0..ndirs {
            let p = splits_per_dir[i];
            let mut coord: u64 = 0;
            for &bit in &c.path[i] {
                coord = (coord << 1) | bit as u64;
            }
            coords[i] = coord;
            if p > 0 {
                addr = (addr << p) | crate::gray::gray(coord);
            }
        }
        out_clusters.push(c.ids);
        addresses.push(addr);
        all_coords.push(coords);
    }
    Ok(ClusterFormation {
        clusters: out_clusters,
        addresses,
        splits_per_dir,
        coords: all_coords,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_rational::Ratio;

    /// Positions of a `rows × cols` mesh of unit blocks, row-major:
    /// direction 0 = x (column), direction 1 = y (row).
    fn mesh_positions(rows: usize, cols: usize) -> Vec<Vec<Ratio>> {
        let mut pos = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                pos.push(vec![Ratio::int(c as i64), Ratio::int(r as i64)]);
            }
        }
        pos
    }

    #[test]
    fn paper_fig8_mesh_onto_3_cube() {
        // A 4×4 mesh TIG divided 3 times → 8 clusters of 2 blocks.
        let pos = mesh_positions(4, 4);
        let cf = form_clusters(&pos, 3).unwrap();
        assert_eq!(cf.clusters.len(), 8);
        assert!(cf.clusters.iter().all(|c| c.len() == 2));
        // Round-robin over 2 directions, 3 splits: p = [2, 1].
        assert_eq!(cf.splits_per_dir, vec![2, 1]);
        // Addresses are a permutation of 0..8.
        let mut a = cf.addresses.clone();
        a.sort();
        assert_eq!(a, (0..8).collect::<Vec<u64>>());
        // Each cluster's two blocks are mesh-adjacent (vertical pairs):
        for c in &cf.clusters {
            let diff = (c[0] as i64 - c[1] as i64).abs();
            assert!(diff == 4 || diff == 1, "cluster {c:?} not adjacent");
        }
    }

    #[test]
    fn gray_adjacency_along_directions() {
        // Clusters adjacent along one direction must have addresses that
        // differ in exactly one bit (the point of the Gray numbering).
        let pos = mesh_positions(8, 8);
        let cf = form_clusters(&pos, 4).unwrap(); // p = [2, 2]
        assert_eq!(cf.splits_per_dir, vec![2, 2]);
        // Reconstruct each cluster's (x-chunk, y-chunk) coordinates from
        // its blocks: blocks 8r + c with x-chunk = c / 2, y-chunk = r / 2.
        let coord_of = |cluster: &Vec<usize>| {
            let b = cluster[0];
            ((b % 8) / 2, (b / 8) / 2)
        };
        for (ci, c1) in cf.clusters.iter().enumerate() {
            for (cj, c2) in cf.clusters.iter().enumerate() {
                let (x1, y1) = coord_of(c1);
                let (x2, y2) = coord_of(c2);
                let manhattan = x1.abs_diff(x2) + y1.abs_diff(y2);
                if manhattan == 1 {
                    let hamming = (cf.addresses[ci] ^ cf.addresses[cj]).count_ones();
                    assert_eq!(hamming, 1, "neighbor chunks not cube-adjacent");
                }
            }
        }
    }

    #[test]
    fn equal_size_with_exact_power() {
        let pos: Vec<Vec<Ratio>> = (0..16).map(|i| vec![Ratio::int(i)]).collect();
        let cf = form_clusters(&pos, 2).unwrap();
        assert_eq!(cf.clusters.len(), 4);
        assert!(cf.clusters.iter().all(|c| c.len() == 4));
        // One direction, split twice.
        assert_eq!(cf.splits_per_dir, vec![2]);
        // 1-D Gray order: cluster of smallest positions → address 0, next
        // → 1, then 3, 2.
        let addr_of_block0 = cf
            .clusters
            .iter()
            .position(|c| c.contains(&0))
            .map(|i| cf.addresses[i])
            .unwrap();
        assert_eq!(addr_of_block0, 0);
        let addr_of_block15 = cf
            .clusters
            .iter()
            .position(|c| c.contains(&15))
            .map(|i| cf.addresses[i])
            .unwrap();
        assert_eq!(addr_of_block15, 0b10); // last Gray word of 2 bits
    }

    #[test]
    fn uneven_sizes_stay_balanced() {
        let pos: Vec<Vec<Ratio>> = (0..10).map(|i| vec![Ratio::int(i)]).collect();
        let cf = form_clusters(&pos, 2).unwrap();
        let mut sizes: Vec<usize> = cf.clusters.iter().map(Vec::len).collect();
        sizes.sort();
        assert_eq!(sizes, vec![2, 2, 3, 3]);
    }

    #[test]
    fn too_small_rejected() {
        let pos: Vec<Vec<Ratio>> = (0..3).map(|i| vec![Ratio::int(i)]).collect();
        assert_eq!(
            form_clusters(&pos, 2).unwrap_err(),
            Error::CubeTooLarge {
                blocks: 3,
                cube_dim: 2
            }
        );
    }

    #[test]
    fn bad_positions_rejected() {
        assert_eq!(
            form_clusters::<Ratio>(&[], 1).unwrap_err(),
            Error::BadPositions
        );
        let ragged = vec![vec![Ratio::int(0)], vec![]];
        assert_eq!(form_clusters(&ragged, 0).unwrap_err(), Error::BadPositions);
    }

    #[test]
    fn zero_dim_cube_single_cluster() {
        let pos: Vec<Vec<Ratio>> = (0..5).map(|i| vec![Ratio::int(i)]).collect();
        let cf = form_clusters(&pos, 0).unwrap();
        assert_eq!(cf.clusters.len(), 1);
        assert_eq!(cf.clusters[0].len(), 5);
        assert_eq!(cf.addresses, vec![0]);
    }
}
