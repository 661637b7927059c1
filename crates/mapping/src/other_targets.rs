//! Mapping partitioned blocks onto non-hypercube machines.
//!
//! The paper's Algorithm 2 targets hypercubes and leaves other machines
//! to "techniques developed for task allocation on multiprocessor
//! systems" (its §V). This module supplies the natural analogues for the
//! other classic message-passing topologies:
//!
//! * **mesh** — bisect into a `cols × rows` chunk grid (X splits for
//!   columns, Y splits for rows, interleaved) and place chunk `(x, y)`
//!   on mesh node `(x, y)`; with a single bisection direction the
//!   clusters snake through the mesh boustrophedon, so consecutive
//!   clusters stay adjacent,
//! * **ring** — order clusters along the first direction and place the
//!   `k`-th cluster on node `k`; chain neighbors are ring neighbors.

use crate::allocate::partition_positions;
use crate::bisect::{form_clusters_with_schedule, ClusterFormation};
use crate::Error;
use loom_partition::Partitioning;

/// A placement of blocks onto a `rows × cols` mesh (nodes numbered
/// row-major) or a ring.
#[derive(Clone, Debug)]
pub struct TargetMapping {
    num_procs: usize,
    proc_of_block: Vec<usize>,
    formation: ClusterFormation,
}

impl TargetMapping {
    /// Number of processors in the target machine.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Processor of block `b`.
    pub fn proc_of(&self, b: usize) -> usize {
        self.proc_of_block[b]
    }

    /// The full block → processor table.
    pub fn assignment(&self) -> &[usize] {
        &self.proc_of_block
    }

    /// The underlying cluster formation.
    pub fn formation(&self) -> &ClusterFormation {
        &self.formation
    }
}

fn log2_exact(n: usize) -> Option<u32> {
    (n.is_power_of_two()).then(|| n.trailing_zeros())
}

/// Map blocks (with bisection-direction coordinates) onto a
/// `rows × cols` mesh. Both extents must be powers of two.
pub fn map_positions_mesh<T: Ord>(
    positions: &[Vec<T>],
    rows: usize,
    cols: usize,
) -> Result<TargetMapping, Error> {
    let (Some(row_bits), Some(col_bits)) = (log2_exact(rows), log2_exact(cols)) else {
        return Err(Error::BadPositions);
    };
    let ndirs = positions.first().map_or(0, Vec::len);
    if ndirs == 0 {
        return Err(Error::BadPositions);
    }
    // Build the split schedule: X (direction 0) gets col_bits splits,
    // Y (direction 1, or 0 again for chain-shaped inputs) gets row_bits,
    // interleaved for balanced chunks.
    let ydir = if ndirs >= 2 { 1 } else { 0 };
    let mut schedule = Vec::with_capacity((row_bits + col_bits) as usize);
    let mut x_left = col_bits;
    let mut y_left = row_bits;
    while x_left > 0 || y_left > 0 {
        if x_left > 0 {
            schedule.push(0);
            x_left -= 1;
        }
        if y_left > 0 {
            schedule.push(ydir);
            y_left -= 1;
        }
    }
    let formation = form_clusters_with_schedule(positions, &schedule)?;

    let mut proc_of_block = vec![0usize; positions.len()];
    if ndirs >= 2 {
        // Chunk (x, y) → node (row = y, col = x): mesh-adjacent chunks
        // land on mesh-adjacent nodes by construction.
        for (ci, cluster) in formation.clusters.iter().enumerate() {
            let x = formation.coords[ci][0] as usize;
            let y = formation.coords[ci][1] as usize;
            let proc = y * cols + x;
            for &b in cluster {
                proc_of_block[b] = proc;
            }
        }
    } else {
        // One direction: clusters form a chain ordered by their single
        // coordinate; snake it through the mesh so consecutive chain
        // clusters are mesh neighbors.
        let mut order: Vec<usize> = (0..formation.clusters.len()).collect();
        order.sort_by_key(|&ci| formation.coords[ci][0]);
        for (k, &ci) in order.iter().enumerate() {
            let r = k / cols;
            let c = if r.is_multiple_of(2) {
                k % cols
            } else {
                cols - 1 - (k % cols)
            };
            let proc = r * cols + c;
            for &b in &formation.clusters[ci] {
                proc_of_block[b] = proc;
            }
        }
    }
    Ok(TargetMapping {
        num_procs: rows * cols,
        proc_of_block,
        formation,
    })
}

/// Map blocks onto a ring of `len` nodes (`len` a power of two): the
/// `k`-th cluster along direction 0 goes to node `k`.
pub fn map_positions_ring<T: Ord>(
    positions: &[Vec<T>],
    len: usize,
) -> Result<TargetMapping, Error> {
    let Some(bits) = log2_exact(len) else {
        return Err(Error::BadPositions);
    };
    let schedule = vec![0usize; bits as usize];
    let formation = form_clusters_with_schedule(positions, &schedule)?;
    let mut proc_of_block = vec![0usize; positions.len()];
    for (ci, cluster) in formation.clusters.iter().enumerate() {
        let proc = formation.coords[ci][0] as usize;
        for &b in cluster {
            proc_of_block[b] = proc;
        }
    }
    Ok(TargetMapping {
        num_procs: len,
        proc_of_block,
        formation,
    })
}

/// Map a partitioning onto a mesh.
pub fn map_partitioning_mesh(
    p: &Partitioning,
    rows: usize,
    cols: usize,
) -> Result<TargetMapping, Error> {
    map_positions_mesh(&partition_positions(p)?, rows, cols)
}

/// Map a partitioning onto a ring.
pub fn map_partitioning_ring(p: &Partitioning, len: usize) -> Result<TargetMapping, Error> {
    map_positions_ring(&partition_positions(p)?, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_rational::Ratio;

    fn grid_positions(rows: usize, cols: usize) -> Vec<Vec<Ratio>> {
        let mut pos = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                pos.push(vec![Ratio::int(c as i64), Ratio::int(r as i64)]);
            }
        }
        pos
    }

    fn chain_positions(n: usize) -> Vec<Vec<Ratio>> {
        (0..n).map(|i| vec![Ratio::int(i as i64)]).collect()
    }

    #[test]
    fn grid_onto_mesh_preserves_adjacency() {
        // 8×8 blocks onto a 4×4 mesh: chunk (x,y) → node (x,y); every
        // grid-neighboring block pair lands on the same or mesh-adjacent
        // nodes.
        let pos = grid_positions(8, 8);
        let m = map_positions_mesh(&pos, 4, 4).unwrap();
        assert_eq!(m.num_procs(), 16);
        let mesh = loom_machine::Topology::Mesh { rows: 4, cols: 4 };
        for r in 0..8usize {
            for c in 0..8usize {
                let b = r * 8 + c;
                if c + 1 < 8 {
                    let d = mesh.distance(m.proc_of(b), m.proc_of(b + 1));
                    assert!(d <= 1, "x-neighbors {}..{} at distance {d}", b, b + 1);
                }
                if r + 1 < 8 {
                    let d = mesh.distance(m.proc_of(b), m.proc_of(b + 8));
                    assert!(d <= 1, "y-neighbors {}..{} at distance {d}", b, b + 8);
                }
            }
        }
    }

    #[test]
    fn chain_onto_mesh_snakes() {
        let pos = chain_positions(32);
        let m = map_positions_mesh(&pos, 4, 4).unwrap();
        let mesh = loom_machine::Topology::Mesh { rows: 4, cols: 4 };
        // Consecutive chain blocks: same or adjacent node.
        for b in 0..31 {
            let d = mesh.distance(m.proc_of(b), m.proc_of(b + 1));
            assert!(d <= 1, "chain {}..{} at distance {d}", b, b + 1);
        }
    }

    #[test]
    fn chain_onto_ring_wraps_contiguously() {
        let pos = chain_positions(16);
        let m = map_positions_ring(&pos, 8).unwrap();
        assert_eq!(m.num_procs(), 8);
        let ring = loom_machine::Topology::Ring(8);
        for b in 0..15 {
            let d = ring.distance(m.proc_of(b), m.proc_of(b + 1));
            assert!(d <= 1, "chain {}..{} at distance {d}", b, b + 1);
        }
        // Balanced: two blocks per node.
        for node in 0..8 {
            assert_eq!(m.assignment().iter().filter(|&&p| p == node).count(), 2);
        }
    }

    #[test]
    fn matvec_partitioning_onto_ring_and_mesh() {
        use loom_hyperplane::TimeFn;
        use loom_partition::{partition, PartitionConfig};
        let w = loom_workloads::matvec::workload(16);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let ring = map_partitioning_ring(&p, 4).unwrap();
        assert_eq!(ring.assignment().len(), 16);
        let mesh = map_partitioning_mesh(&p, 2, 4).unwrap();
        assert_eq!(mesh.num_procs(), 8);
        assert!(mesh.assignment().iter().all(|&x| x < 8));
    }

    #[test]
    fn non_power_of_two_rejected() {
        let pos = chain_positions(16);
        assert_eq!(
            map_positions_mesh(&pos, 3, 4).unwrap_err(),
            Error::BadPositions
        );
        assert_eq!(
            map_positions_ring(&pos, 6).unwrap_err(),
            Error::BadPositions
        );
    }
}
