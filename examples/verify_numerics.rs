//! Numerical verification: prove the partitioned + mapped + simulated
//! execution computes exactly what the sequential loop computes.
//!
//! ```text
//! cargo run --example verify_numerics
//! ```

use loom_core::pipeline::MachineOptions;
use loom_core::report::Table;
use loom_core::{Pipeline, PipelineConfig, TraceMode};
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, execute_in_order, sequential, trace_order};

fn main() {
    println!("For each workload: run the full pipeline with an execution trace,");
    println!("replay the trace order numerically, and compare against the");
    println!("sequential oracle element by element (exact f64 equality).\n");

    let mut t = Table::new(["workload", "points", "procs", "elements written", "verdict"]);
    for w in loom_workloads::all_default() {
        let out = Pipeline::new(w.nest.clone())
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 1,
                machine: Some(MachineOptions {
                    trace: TraceMode::Record,
                    ..Default::default()
                }),
                ..Default::default()
            })
            .expect("pipeline runs");
        let trace = out.sim.unwrap().trace.unwrap();
        let points = out.partitioning.structure().points();
        let parallel = execute_in_order(
            &w.nest,
            out.partitioning.structure(),
            &trace_order(&trace),
            &address_hash_init,
        )
        .expect("trace order respects dependences");
        let serial = sequential(&w.nest, &address_hash_init);
        let verdict = match equivalent(&parallel, &serial) {
            Ok(()) => "bit-identical".to_string(),
            Err(d) => format!("DIVERGED: {d:?}"),
        };
        t.row([
            w.nest.name().to_string(),
            format!("{}", points.len()),
            "2".to_string(),
            format!("{}", serial.len()),
            verdict,
        ]);
    }
    println!("{t}");
}
