//! Bench: the numerical executors — sequential oracle throughput,
//! trace-order replay, the SPMD interpreter and threads, and codegen.

use loom_codegen::generate;
use loom_exec::memory::address_hash_init;
use loom_exec::{execute_in_order, schedule_order, sequential};
use loom_hyperplane::{Schedule, TimeFn};
use loom_mapping::map_partitioning;
use loom_obs::bench::Bench;
use loom_partition::{partition, ComputationalStructure, PartitionConfig};

fn main() {
    let mut bench = Bench::from_env();
    for m in [16i64, 32, 64] {
        let w = loom_workloads::matvec::workload(m);
        bench.run(&format!("oracle_interpreter/matvec/{m}"), || {
            sequential(&w.nest, &address_hash_init).len()
        });
    }

    let w = loom_workloads::sor::workload(24, 24);
    let cs = ComputationalStructure::new(w.nest.space().clone(), w.verified_deps()).unwrap();
    let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
    let order = schedule_order(&cs, &sched);
    bench.run("ordered_execution/sor24_front_order", || {
        execute_in_order(&w.nest, &cs, &order, &address_hash_init)
            .unwrap()
            .len()
    });

    for m in [16i64, 32] {
        let w = loom_workloads::matvec::workload(m);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 4).collect();
        let cg = generate(&w.nest, &p, &assignment, 4).unwrap();
        bench.run(&format!("spmd_interpreter/matvec_4proc/{m}"), || {
            loom_codegen::run(&w.nest, &cg, &address_hash_init)
                .unwrap()
                .messages
        });
    }

    // Matmul 48 mapped onto a 1-cube, as perfbench's verify_exec runs
    // it: 110 592 iterations, each access an element-id lookup.
    let w = loom_workloads::matmul::workload(48);
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let m = map_partitioning(&p, 1).unwrap();
    let cg = generate(&w.nest, &p, m.assignment(), 2).unwrap();
    bench.run("spmd_interpreter/matmul48_2proc", || {
        loom_codegen::run(&w.nest, &cg, &address_hash_init)
            .unwrap()
            .gathered
            .len()
    });
    bench.run("threads/matmul48_2proc", || {
        loom_codegen::run_threaded_gathered(&w.nest, &cg, &address_hash_init)
            .unwrap()
            .len()
    });

    let w = loom_workloads::sor::workload(24, 24);
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 8).collect();
    bench.run("spmd_codegen/sor24_8proc", || {
        generate(&w.nest, &p, &assignment, 8)
            .unwrap()
            .program
            .num_messages()
    });
    print!("{}", bench.report());
}
