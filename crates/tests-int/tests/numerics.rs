//! Numerical end-to-end verification: the partitioned, mapped, and
//! simulated execution order must compute bit-identical results to the
//! sequential source loop — for every workload, machine size, and
//! mapping strategy.

use loom_core::pipeline::MachineOptions;
use loom_core::{Pipeline, PipelineConfig, TraceMode};
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, execute_in_order, schedule_order, sequential, trace_order};
use loom_hyperplane::{Schedule, TimeFn};
use loom_machine::MachineParams;
use loom_partition::ComputationalStructure;

#[test]
fn simulated_trace_order_reproduces_sequential_results_all_workloads() {
    for w in loom_workloads::all_default() {
        let out = Pipeline::new(w.nest.clone())
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 1,
                machine: Some(MachineOptions {
                    params: MachineParams::classic_1991(),
                    trace: TraceMode::Record,
                    ..Default::default()
                }),
                ..Default::default()
            })
            .expect("pipeline runs");
        let trace = out.sim.unwrap().trace.unwrap();
        let order = trace_order(&trace);
        let cs = out.partitioning.structure();
        let parallel = execute_in_order(&w.nest, cs, &order, &address_hash_init)
            .unwrap_or_else(|e| panic!("{}: bad order {e:?}", w.nest.name()));
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(
            equivalent(&parallel, &serial),
            Ok(()),
            "{} diverged",
            w.nest.name()
        );
    }
}

#[test]
fn hyperplane_schedule_order_reproduces_sequential_results() {
    for w in loom_workloads::all_default() {
        let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
        let cs = ComputationalStructure::new(w.nest.space().clone(), w.verified_deps()).unwrap();
        let order = schedule_order(&cs, &sched);
        let parallel = execute_in_order(&w.nest, &cs, &order, &address_hash_init)
            .unwrap_or_else(|e| panic!("{}: bad order {e:?}", w.nest.name()));
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(equivalent(&parallel, &serial), Ok(()), "{}", w.nest.name());
    }
}

#[test]
fn matvec_values_are_the_real_product() {
    // Beyond self-consistency: the simulated matvec computes the actual
    // matrix-vector product of the init data.
    let m = 8i64;
    let w = loom_workloads::matvec::workload(m);
    let init = |a: &str, e: &[i64]| match a {
        "y" => 0.0,
        _ => address_hash_init(a, e),
    };
    let out = Pipeline::new(w.nest.clone())
        .run(&PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim: 2,
            machine: Some(MachineOptions {
                trace: TraceMode::Record,
                ..Default::default()
            }),
            ..Default::default()
        })
        .unwrap();
    let trace = out.sim.unwrap().trace.unwrap();
    let cs = out.partitioning.structure();
    let mem = execute_in_order(&w.nest, cs, &trace_order(&trace), &init).unwrap();
    for i in 0..m {
        let expected: f64 = (0..m)
            .map(|j| address_hash_init("A", &[i, j]) * address_hash_init("x", &[j]))
            .sum();
        assert_eq!(mem.get("y", &[i]), Some(expected), "y[{i}]");
    }
}

#[test]
fn every_mapping_strategy_is_numerically_safe() {
    // Even a terrible mapping only changes *when* tasks run, never what
    // they compute — as long as the simulator honors dependences.
    use loom_machine::{simulate, Program, SimConfig};
    use loom_mapping::baseline;

    let w = loom_workloads::sor::workload(8, 8);
    let out = Pipeline::new(w.nest.clone())
        .run(&PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim: 2,
            machine: None,
            ..Default::default()
        })
        .unwrap();
    let p = &out.partitioning;
    let serial = sequential(&w.nest, &address_hash_init);
    for seed in 0..4u64 {
        let assignment = baseline::random(p.num_blocks(), 4, seed);
        let prog = Program::from_partitioning(p, &assignment, 4, 4);
        let mut cfg = SimConfig::paper_hypercube(2, MachineParams::classic_1991());
        cfg.record_trace = true;
        let sim = simulate(&prog, &cfg).unwrap();
        let order = trace_order(&sim.trace.unwrap());
        let mem = execute_in_order(&w.nest, p.structure(), &order, &address_hash_init).unwrap();
        assert_eq!(equivalent(&mem, &serial), Ok(()), "seed {seed}");
    }
}
