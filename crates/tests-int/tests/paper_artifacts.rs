//! Every concrete number the paper prints, asserted in one place.
//! This is the reproduction's ground truth; EXPERIMENTS.md references
//! these assertions.

use loom_core::analytic::matvec_exec_terms;
use loom_hyperplane::TimeFn;
use loom_partition::comm::{comm_stats, group_dependence_graph};
use loom_partition::{partition, PartitionConfig};
use loom_rational::{QVec, Ratio};

fn l1_partitioning() -> loom_partition::Partitioning {
    let w = loom_workloads::l1::workload(4);
    partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap()
}

fn paper_matmul() -> loom_partition::Partitioning {
    let w = loom_workloads::matmul::workload(4);
    partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig {
            grouping_choice: Some(1), // d_A in sorted order
            seed: Some(QVec::from_ints(&[-1, -1, 2])),
        },
    )
    .unwrap()
}

// --- Example 1 / §II ------------------------------------------------------

#[test]
fn example1_dependence_vectors() {
    let w = loom_workloads::l1::workload(4);
    assert_eq!(w.verified_deps(), vec![vec![0, 1], vec![1, 0], vec![1, 1]]);
}

#[test]
fn fig1_seven_hyperplanes() {
    let w = loom_workloads::l1::workload(4);
    assert_eq!(TimeFn::new(w.pi.clone()).steps(w.nest.space()), 7);
}

#[test]
fn fig3_seven_projected_points_and_specific_coordinates() {
    let p = l1_partitioning();
    let qp = p.projected();
    assert_eq!(qp.len(), 7);
    // The paper lists V^p = {(-3/2,3/2), (-1,1), (-1/2,1/2), (0,0),
    // (1/2,-1/2), (1,-1), (3/2,-3/2)}.
    let h = |a: i64, b: i64| QVec::new(vec![Ratio::new(a, 2), Ratio::new(b, 2)]);
    for v in [
        h(-3, 3),
        h(-2, 2),
        h(-1, 1),
        h(0, 0),
        h(1, -1),
        h(2, -2),
        h(3, -3),
    ] {
        let scaled = qp.scale_q(&v).expect("on the scaled lattice");
        assert!(qp.id_of(&scaled).is_some(), "missing projected point {v}");
    }
}

#[test]
fn fig3b_four_groups_of_two_lines() {
    let p = l1_partitioning();
    assert_eq!(p.num_blocks(), 4);
    assert_eq!(p.vectors().r, 2);
    let mut sizes: Vec<usize> = p
        .grouping()
        .groups
        .iter()
        .map(|g| g.members.len())
        .collect();
    sizes.sort();
    assert_eq!(sizes, vec![1, 2, 2, 2], "boundary group G4 has one line");
}

#[test]
fn section2_33_dependencies_12_interblock() {
    let stats = comm_stats(&l1_partitioning());
    assert_eq!(stats.total_arcs, 33);
    assert_eq!(stats.interblock_arcs, 12);
}

// --- Example 2 / §III -----------------------------------------------------

#[test]
fn example2_dependence_matrix() {
    let w = loom_workloads::matmul::workload(4);
    assert_eq!(
        w.verified_deps(),
        vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]
    );
}

#[test]
fn fig5_37_projected_points_and_projected_deps() {
    let p = paper_matmul();
    let qp = p.projected();
    assert_eq!(qp.len(), 37);
    let third = |a: i64, b: i64, c: i64| {
        QVec::new(vec![Ratio::new(a, 3), Ratio::new(b, 3), Ratio::new(c, 3)])
    };
    // d_A^p = (-1/3, 2/3, -1/3), d_B^p = (2/3, -1/3, -1/3),
    // d_C^p = (-1/3, -1/3, 2/3); sorted dep order is [d_C, d_A, d_B].
    assert_eq!(qp.dep_q(0), third(-1, -1, 2));
    assert_eq!(qp.dep_q(1), third(-1, 2, -1));
    assert_eq!(qp.dep_q(2), third(2, -1, -1));
}

#[test]
fn example2_rank_two_and_r_three() {
    let p = paper_matmul();
    assert_eq!(p.vectors().beta, 2);
    assert_eq!(p.vectors().r, 3);
    assert_eq!(p.vectors().auxiliary.len(), 1);
}

#[test]
fn step3_seed_group_members_match_paper() {
    // G1 = {(-1,-1,2), (-4/3,-1/3,5/3), (-5/3,1/3,4/3)}.
    let p = paper_matmul();
    let qp = p.projected();
    let seed_base = QVec::from_ints(&[-1, -1, 2]);
    let g0 = &p.grouping().groups[0];
    assert_eq!(qp.unscale(&g0.base), seed_base);
    let members: Vec<QVec> = g0.members.iter().map(|&pid| qp.point_q(pid)).collect();
    let third = |a: i64, b: i64, c: i64| {
        QVec::new(vec![Ratio::new(a, 3), Ratio::new(b, 3), Ratio::new(c, 3)])
    };
    assert_eq!(members[0], seed_base);
    assert_eq!(members[1], third(-4, -1, 5));
    assert_eq!(members[2], third(-5, 1, 4));
}

#[test]
fn step6_17_partitioned_groups() {
    assert_eq!(paper_matmul().num_blocks(), 17);
}

#[test]
fn fig7_g10_sends_to_four_groups_and_theorem2() {
    let p = paper_matmul();
    let graph = group_dependence_graph(&p);
    let m = 3;
    let beta = 2;
    let max_out = graph.iter().map(|s| s.len()).max().unwrap();
    assert_eq!(max_out, 2 * m - beta, "the bound is attained (paper's G10)");
    assert!(graph.iter().all(|s| s.len() <= 2 * m - beta));
}

// --- §IV / Table I --------------------------------------------------------

#[test]
fn matvec_projected_deps_and_m_groups() {
    // §IV: D^p = {(1/2,-1/2), (-1/2,1/2)}, M groups of two lines.
    let w = loom_workloads::matvec::workload(8);
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let h = |a: i64, b: i64| QVec::new(vec![Ratio::new(a, 2), Ratio::new(b, 2)]);
    assert_eq!(p.projected().dep_q(0), h(-1, 1));
    assert_eq!(p.projected().dep_q(1), h(1, -1));
    assert_eq!(p.projected().len(), 2 * 8 - 1, "2M-1 projection lines");
    assert_eq!(p.num_blocks(), 8, "M groups");
}

#[test]
fn table1_all_rows_exact() {
    let rows = [
        (1u64, 2_097_152u64, 0u64),
        (4, 786_944, 2046),
        (16, 245_888, 2046),
        (64, 64_544, 2046),
        (256, 16_328, 2046),
        (1024, 4094, 2046),
    ];
    for (n, calc, comm) in rows {
        let t = matvec_exec_terms(1024, n);
        assert_eq!(t.calc_coeff, calc, "calc coefficient, N={n}");
        assert_eq!(t.comm_coeff, comm, "comm coefficient, N={n}");
    }
}

#[test]
fn table1_communication_term_is_machine_size_invariant() {
    // "the communication time of our method is invariant when the
    // machine size becomes larger".
    let comm: Vec<u64> = [4u64, 16, 64, 256, 1024]
        .iter()
        .map(|&n| matvec_exec_terms(1024, n).comm_coeff)
        .collect();
    assert!(comm.windows(2).all(|w| w[0] == w[1]));
}
