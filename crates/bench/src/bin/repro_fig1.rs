//! E1 — Fig. 1: the computational structure and hyperplanes of loop (L1).
//!
//! Prints the 4×4 iteration grid with each point's hyperplane number
//! `i + j` and the wavefront contents step by step.

use loom_core::report::Table;
use loom_hyperplane::{Schedule, TimeFn};

fn main() {
    let w = loom_workloads::l1::workload(4);
    let deps = w.verified_deps();
    println!("Fig. 1 — computational structure of L1, Π = (1,1)\n");
    println!("dependence vectors: {deps:?}\n");

    // The grid, annotated with hyperplane numbers.
    println!("hyperplane number (i+j) per index point:");
    for i in 0..4 {
        let row: Vec<String> = (0..4).map(|j| format!("{}", i + j)).collect();
        println!("  i={i}:  {}", row.join(" "));
    }
    println!();

    let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
    sched.validate(&deps).expect("Π = (1,1) is legal for L1");
    let mut t = Table::new([
        "step",
        "width",
        "wavefront (points executed simultaneously)",
    ]);
    for s in 0..sched.num_steps() {
        let pts: Vec<String> = sched.front(s).iter().map(|p| format!("{p:?}")).collect();
        t.row([
            format!("{s}"),
            format!("{}", sched.front(s).len()),
            pts.join(" "),
        ]);
    }
    println!("{t}");
    println!(
        "paper: 7 hyperplanes sweep the 16 points; max parallelism {} on the main diagonal",
        sched.max_parallelism()
    );
    assert_eq!(sched.num_steps(), 7);
    assert_eq!(sched.max_parallelism(), 4);
}
