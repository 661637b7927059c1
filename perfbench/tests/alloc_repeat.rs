//! Allocation counts of a single-threaded job repeat exactly, so a
//! change in `<crate>.allocs` is the code's doing, not noise.
//!
//! The counters are process-wide, so this file holds one test: no
//! other test thread allocates while it counts.

use loom_perfbench::{alloc, jobs, trace::Tracer};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Per-crate allocation counts and bytes of one staged matvec compile.
fn staged_compile_allocations() -> Vec<(String, f64)> {
    let tr = Tracer::on();
    alloc::set_enabled(true);
    jobs::ladder_step(64, &tr).expect("matvec 64 compiles");
    alloc::set_enabled(false);
    tr.totals()
        .into_iter()
        .filter(|(k, _)| k.ends_with(".allocs") || k.ends_with(".alloc_bytes"))
        .collect()
}

#[test]
fn single_threaded_allocation_counts_repeat_exactly() {
    let first = staged_compile_allocations();
    for layer in ["partition", "mapping", "machine"] {
        let allocs = first.iter().find(|(k, _)| *k == format!("{layer}.allocs"));
        assert!(
            matches!(allocs, Some((_, n)) if *n > 0.0),
            "{layer}: {first:?}"
        );
    }
    for _ in 0..3 {
        assert_eq!(staged_compile_allocations(), first);
    }
}
