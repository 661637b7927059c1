//! The reference store: array elements in a `BTreeMap` keyed by
//! `(array, subscripts)`, with the sequential executor, digest and
//! comparison defined directly on it. The element-table store in
//! `loom_exec` must agree with it element for element, digest for
//! digest and divergence for divergence.

use loom_exec::{Divergence, Memory};
use loom_loopir::LoopNest;
use std::collections::BTreeMap;

/// A sparse store of written elements, in `(array, subscripts)` order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefMemory {
    pub cells: BTreeMap<(String, Vec<i64>), f64>,
}

impl RefMemory {
    /// The contents of a production store, element by element.
    pub fn of(mem: &Memory) -> RefMemory {
        RefMemory {
            cells: mem
                .iter()
                .map(|(a, e, v)| ((a.to_string(), e.to_vec()), v))
                .collect(),
        }
    }

    fn read(&self, array: &str, element: &[i64], init: &dyn Fn(&str, &[i64]) -> f64) -> f64 {
        match self.cells.get(&(array.to_string(), element.to_vec())) {
            Some(&v) => v,
            None => init(array, element),
        }
    }

    /// FNV-1a over addresses and value bits in key order.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for ((array, element), &v) in &self.cells {
            eat(array.as_bytes());
            eat(&[0xff]);
            for &x in element {
                eat(&x.to_le_bytes());
            }
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }

    /// `(array, subscripts, value bits)` per element, in key order.
    pub fn bits(&self) -> Vec<(String, Vec<i64>, u64)> {
        self.cells
            .iter()
            .map(|((a, e), v)| (a.clone(), e.clone(), v.to_bits()))
            .collect()
    }
}

/// The nest in lexicographic order over the reference store, each
/// access evaluated with `Access::element_at`.
pub fn ref_sequential(nest: &LoopNest, init: &dyn Fn(&str, &[i64]) -> f64) -> RefMemory {
    let mut mem = RefMemory::default();
    for p in nest.space().points() {
        for stmt in nest.stmts() {
            let reads: Vec<f64> = stmt
                .reads()
                .iter()
                .map(|r| mem.read(r.array(), &r.element_at(&p), init))
                .collect();
            let value = stmt.semantics().eval(&reads);
            let w = stmt.write();
            mem.cells
                .insert((w.array().to_string(), w.element_at(&p)), value);
        }
    }
    mem
}

/// The first divergence: the first element of `left` that `right`
/// lacks or holds differently, else the first element only `right`
/// holds.
pub fn ref_equivalent(left: &RefMemory, right: &RefMemory) -> Result<(), Divergence> {
    for ((array, element), &v) in &left.cells {
        match right.cells.get(&(array.clone(), element.clone())) {
            Some(&w) if w == v => {}
            other => {
                return Err(Divergence::ValueMismatch {
                    array: array.clone(),
                    element: element.clone(),
                    left: Some(v),
                    right: other.copied(),
                })
            }
        }
    }
    for ((array, element), &w) in &right.cells {
        if !left.cells.contains_key(&(array.clone(), element.clone())) {
            return Err(Divergence::ValueMismatch {
                array: array.clone(),
                element: element.clone(),
                left: None,
                right: Some(w),
            });
        }
    }
    Ok(())
}
