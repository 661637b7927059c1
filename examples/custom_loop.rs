//! Bring your own loop: parse a nest from source text, let the library
//! find Π, partition, map, simulate, and numerically verify — the full
//! journey a user's code takes through the `loom` front-end.
//!
//! ```text
//! cargo run --example custom_loop [path/to/nest.loom]
//! ```

use loom_core::pipeline::MachineOptions;
use loom_core::{Pipeline, PipelineConfig, TraceMode};
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, execute_in_order, sequential, trace_order};
use loom_loopir::parse::parse_nest;

const DEFAULT_SRC: &str = "
# A skewed two-statement recurrence the library has never seen:
for i = 0 to 11
for j = 0 to 11
  A[i+1, j+2] = A[i, j] + 2 * B[i, j];
  B[i+1, j]   = A[i, j+1] - 1;
";

fn main() {
    let src = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).expect("readable source file"),
        None => DEFAULT_SRC.to_string(),
    };
    let nest = match parse_nest("custom", &src) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!("{nest}");

    let out = Pipeline::new(nest.clone())
        .run(&PipelineConfig {
            cube_dim: 2,
            machine: Some(MachineOptions {
                trace: TraceMode::Record,
                ..Default::default()
            }),
            ..Default::default() // time_fn: None → search for optimal Π
        })
        .expect("pipeline handles uniform nests");

    println!("extracted D = {:?}", out.deps);
    println!(
        "optimal {} found by search ({} steps); statement offsets {:?}",
        out.pi,
        out.pi.steps(nest.space()),
        out.stmt_offsets
    );
    println!(
        "{} blocks on {} processors; {} of {} arcs interblock",
        out.partitioning.num_blocks(),
        out.placement.num_procs(),
        out.comm.interblock_arcs,
        out.comm.total_arcs
    );
    let sim = out.sim.as_ref().unwrap();
    println!(
        "simulated: makespan {} ticks, {} messages",
        sim.makespan, sim.messages
    );

    // Replay the trace numerically and compare against sequential.
    let order = trace_order(sim.trace.as_ref().unwrap());
    let parallel = execute_in_order(
        &nest,
        out.partitioning.structure(),
        &order,
        &address_hash_init,
    )
    .expect("trace respects dependences");
    match equivalent(&parallel, &sequential(&nest, &address_hash_init)) {
        Ok(()) => println!("verified: parallel execution bit-identical to sequential"),
        Err(d) => println!("DIVERGED: {d:?}"),
    }
}
