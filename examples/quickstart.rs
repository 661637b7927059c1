//! Quickstart: run the paper's loop (L1) through the whole pipeline.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use loom_core::{Pipeline, PipelineConfig};

fn main() {
    // The paper's running example:
    //   for i = 0 to 3
    //     for j = 0 to 3
    //       S1: A[i+1,j+1] := A[i+1,j] + B[i,j];
    //       S2: B[i+1,j]   := A[i,j] * 2 + C;
    let w = loom_workloads::l1::workload(4);
    println!("{}", w.nest);

    let out = Pipeline::new(w.nest.clone())
        .run(&PipelineConfig {
            cube_dim: 1, // map onto a 2-processor hypercube
            ..Default::default()
        })
        .expect("L1 is uniform and the pipeline handles it");

    println!("dependence vectors D = {:?}", out.deps);
    println!(
        "time transformation {} ({} steps)",
        out.pi,
        out.pi.steps(w.nest.space())
    );
    println!();

    let p = &out.partitioning;
    println!(
        "Algorithm 1: {} projected points -> {} groups of up to r = {} lines",
        p.projected().len(),
        p.num_blocks(),
        p.vectors().r
    );
    for (b, block) in p.blocks().iter().enumerate() {
        let pts: Vec<String> = block
            .iter()
            .map(|&id| format!("{:?}", p.structure().point(id)))
            .collect();
        println!("  block B{b}: {}", pts.join(" "));
    }
    println!(
        "dependence arcs: {} total, {} interblock ({}%)",
        out.comm.total_arcs,
        out.comm.interblock_arcs,
        (100.0 * out.comm.interblock_fraction()).round()
    );
    println!();

    let mapping = out
        .placement
        .as_hypercube()
        .expect("hypercube target (the default)");
    println!(
        "Algorithm 2: block -> processor map on a {}-cube:",
        mapping.cube().dim()
    );
    for (b, &proc) in out.placement.assignment().iter().enumerate() {
        println!(
            "  B{b} -> P{proc:0width$b}",
            width = mapping.cube().dim().max(1)
        );
    }
    println!();

    let sim = out.sim.expect("simulation requested");
    println!("simulated execution (classic 1991 machine):");
    println!("  makespan        = {} ticks", sim.makespan);
    println!("  compute/proc    = {:?}", sim.compute);
    println!("  comm/proc       = {:?}", sim.comm);
    println!("  messages, words = {}, {}", sim.messages, sim.words);
}
