//! Differential tests of the element-table store against the
//! `BTreeMap` reference model in `support/memory.rs`.
//!
//! Every executor — `sequential`, `execute_in_order`, the SPMD
//! interpreter and the threaded run — must leave a store equal to the
//! reference's element for element, with an equal `digest()`, on every
//! builtin, every `samples/*.loom` nest and seeded random nests. A
//! seeded one-element perturbation must produce the reference's first
//! `Divergence`, over one shared element table and across two.

#[path = "support/memory.rs"]
mod reference;

use loom_codegen::{generate, run, run_threaded_gathered};
use loom_core::{Pipeline, PipelineConfig};
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, execute_in_order, schedule_order, sequential, ElementTable, Memory};
use loom_hyperplane::Schedule;
use loom_loopir::sem::Expr;
use loom_loopir::{parse_nest, Access, Aff, IterSpace, LoopNest, Stmt};
use loom_obs::SplitMix64;
use reference::{ref_equivalent, ref_sequential, RefMemory};
use std::sync::Arc;

/// A table holding at least `elements` (and other elements of their
/// arrays): one write-only statement per array and rank, walked at each
/// element's subscripts padded with zeros.
fn holding(elements: &[(&str, &[i64])]) -> ElementTable {
    let dims = elements
        .iter()
        .map(|(_, e)| e.len())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut shapes: Vec<(&str, usize)> = elements.iter().map(|&(a, e)| (a, e.len())).collect();
    shapes.sort_unstable();
    shapes.dedup();
    let stmts = shapes
        .iter()
        .map(|&(a, rank)| {
            let subscripts: Vec<(usize, i64)> = (0..rank).map(|k| (k, 0)).collect();
            Stmt::assign(Access::simple(a, dims, &subscripts), Vec::new())
        })
        .collect();
    let nest = LoopNest::new("holding", IterSpace::rect(&vec![1; dims]).unwrap(), stmts).unwrap();
    let points = elements.iter().map(|(_, e)| {
        let mut p = e.to_vec();
        p.resize(dims, 0);
        p
    });
    ElementTable::for_points(&nest, points)
}

/// Write an element by address.
fn set(m: &mut Memory, array: &str, element: &[i64], value: f64) {
    let id = m.table().id_of(array, element).expect("in the table");
    m.write(id, value);
}

fn samples() -> Vec<LoopNest> {
    let dir = format!("{}/../../samples", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "loom"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().to_string();
            let src = std::fs::read_to_string(p).unwrap();
            parse_nest(&name, &src).unwrap_or_else(|e| panic!("{name}: {e}"))
        })
        .collect()
}

/// `A[i+1, j+b] = A[i, j+c] ⊕ B[j] ⊗ s` over a random rectangle: a
/// uniform nest whose distance `(1, b−c)` varies with the seed.
fn random_stencil(rng: &mut SplitMix64) -> LoopNest {
    let (rows, cols) = (rng.range_i64(3, 7), rng.range_i64(3, 9));
    let (b, c) = (rng.range_i64(-1, 2), rng.range_i64(-1, 2));
    let s = rng.range_i64(2, 5) as f64 / 4.0;
    let expr = match rng.below(3) {
        0 => Expr::add(Expr::Read(0), Expr::mul(Expr::Read(1), Expr::Const(s))),
        1 => Expr::max(Expr::Read(0), Expr::Read(1)),
        _ => Expr::sub(Expr::Read(1), Expr::Read(0)),
    };
    LoopNest::new(
        format!("stencil_b{b}_c{c}"),
        IterSpace::rect(&[rows, cols]).unwrap(),
        vec![Stmt::assign(
            Access::simple("A", 2, &[(0, 1), (1, b)]),
            vec![
                Access::simple("A", 2, &[(0, 0), (1, c)]),
                Access::simple("B", 2, &[(1, 0)]),
            ],
        )
        .with_expr(expr)],
    )
    .unwrap()
}

/// `A[k*i + c] = A[i] + 1`: a variable-distance nest admitted through
/// uniformization.
fn random_scale(rng: &mut SplitMix64) -> LoopNest {
    let (k, c, extent) = (
        rng.range_i64(2, 5),
        rng.range_i64(0, 3),
        rng.range_i64(6, 17),
    );
    LoopNest::new(
        format!("scale_k{k}_c{c}"),
        IterSpace::rect(&[extent]).unwrap(),
        vec![Stmt::assign(
            Access::new("A", vec![Aff::new(vec![k], c)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        )],
    )
    .unwrap()
}

fn nests() -> Vec<LoopNest> {
    let mut nests: Vec<LoopNest> = loom_workloads::all_default()
        .into_iter()
        .map(|w| w.nest)
        .collect();
    nests.extend(samples());
    let mut rng = SplitMix64::new(0x5704_e016);
    for case in 0..12 {
        nests.push(if case % 3 == 2 {
            random_scale(&mut rng)
        } else {
            random_stencil(&mut rng)
        });
    }
    nests
}

fn assert_same(what: &str, got: &Memory, want: &RefMemory) {
    assert_eq!(RefMemory::of(got).bits(), want.bits(), "{what}: elements");
    assert_eq!(got.len(), want.cells.len(), "{what}: len");
    assert_eq!(got.digest(), want.digest(), "{what}: digest");
}

#[test]
fn every_executor_matches_the_reference_store() {
    let mut spmd = 0;
    for nest in nests() {
        let name = nest.name().to_string();
        let want = ref_sequential(&nest, &address_hash_init);
        assert_same(
            &format!("{name} sequential"),
            &sequential(&nest, &address_hash_init),
            &want,
        );

        // Two processors where the nest has two blocks to map, else one.
        let pipeline = Pipeline::new(nest.clone());
        let config = |cube_dim| PipelineConfig {
            cube_dim,
            machine: None,
            ..Default::default()
        };
        let out = pipeline
            .run(&config(1))
            .or_else(|_| pipeline.run(&config(0)))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let p = &out.partitioning;
        let cs = p.structure();
        let order = schedule_order(cs, &Schedule::build(p.time_fn().clone(), nest.space()));
        let ordered = execute_in_order(&nest, cs, &order, &address_hash_init)
            .unwrap_or_else(|d| panic!("{name}: {d:?}"));
        assert_same(&format!("{name} execute_in_order"), &ordered, &want);

        let (assignment, procs) = (out.placement.assignment(), out.placement.num_procs());
        let Ok(cg) = generate(&nest, p, assignment, procs) else {
            continue; // not value-routable (conv2d)
        };
        let interp = run(&nest, &cg, &address_hash_init).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same(&format!("{name} interpreter"), &interp.gathered, &want);
        let threads = run_threaded_gathered(&nest, &cg, &address_hash_init)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same(&format!("{name} threads"), &threads, &want);
        spmd += 1;
    }
    assert!(
        spmd >= 20,
        "too few nests reached the SPMD executors ({spmd})"
    );
}

#[test]
fn perturbations_diverge_where_the_reference_does() {
    let mut rng = SplitMix64::new(0xd1f_0016);
    for nest in nests() {
        let name = nest.name().to_string();
        let base = sequential(&nest, &address_hash_init);
        let want = ref_sequential(&nest, &address_hash_init);
        let keys: Vec<(String, Vec<i64>)> = want.cells.keys().cloned().collect();
        for _ in 0..3 {
            let (array, element) = &keys[rng.below(keys.len() as u64) as usize];
            let v = want.cells[&(array.clone(), element.clone())];
            let bumped = if rng.below(2) == 0 { v + 1.0 } else { -v };
            let mut got = base.clone();
            set(&mut got, array, element, bumped);
            let mut reference = want.clone();
            reference
                .cells
                .insert((array.clone(), element.clone()), bumped);
            assert_eq!(
                equivalent(&got, &base),
                ref_equivalent(&reference, &want),
                "{name}"
            );
            assert_eq!(
                equivalent(&base, &got),
                ref_equivalent(&want, &reference),
                "{name}"
            );
        }

        // Elements only one side holds, over one table.
        let empty = Memory::new(Arc::clone(base.table()));
        let none = RefMemory::default();
        assert_eq!(
            equivalent(&empty, &base),
            ref_equivalent(&none, &want),
            "{name}"
        );
        assert_eq!(
            equivalent(&base, &empty),
            ref_equivalent(&want, &none),
            "{name}"
        );

        // Across two tables: a copy over the written elements plus one
        // unwritten extra compares by address.
        let extra = vec![i64::MAX; keys[0].1.len()];
        let elements: Vec<(&str, &[i64])> = keys
            .iter()
            .map(|(a, e)| (a.as_str(), e.as_slice()))
            .chain([("~extra", extra.as_slice())])
            .collect();
        let mut copy = Memory::new(Arc::new(holding(&elements)));
        for (a, e, v) in base.iter() {
            set(&mut copy, a, e, v);
        }
        assert_eq!(equivalent(&copy, &base), Ok(()), "{name}");
        let (array, element) = &keys[rng.below(keys.len() as u64) as usize];
        set(&mut copy, array, element, f64::NAN);
        let mut reference = want.clone();
        reference
            .cells
            .insert((array.clone(), element.clone()), f64::NAN);
        assert_eq!(
            format!("{:?}", equivalent(&copy, &base)),
            format!("{:?}", ref_equivalent(&reference, &want)),
            "{name}"
        );
    }
}

/// `Memory::digest` of a small multi-array store, pinned to the value
/// the `BTreeMap` store computed; `-0.0` and `0.0` digest apart.
#[test]
fn digest_is_pinned() {
    let cells: [(&str, &[i64]); 5] = [
        ("y", &[3]),
        ("A", &[1, 2]),
        ("A", &[0, -7]),
        ("B", &[4_000_000_000_000, -3_000_000_000_000]),
        ("A", &[1]),
    ];
    let values = [0.0, 1.5, -0.0, 2.25, 1e300];
    let mut m = Memory::new(Arc::new(holding(&cells)));
    assert_eq!(m.digest(), 0xcbf29ce484222325);
    for ((a, e), v) in cells.iter().zip(values) {
        set(&mut m, a, e, v);
    }
    assert_eq!(m.digest(), 0x1a674c18896a7ebe);
    set(&mut m, "y", &[3], -0.0);
    assert_eq!(m.digest(), 0x1a67cc18896b583e);
}
