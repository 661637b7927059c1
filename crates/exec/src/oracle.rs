//! The sequential oracle: execute a nest in source (lexicographic)
//! order — by definition, the correct result.

use crate::elements::ElementTable;
use crate::memory::Memory;
use loom_loopir::LoopNest;
use std::sync::Arc;

/// Run the nest sequentially, returning the final store. Builds the
/// nest's [`ElementTable`], which holds a row of element ids per point.
pub fn sequential(nest: &LoopNest, init: &dyn Fn(&str, &[i64]) -> f64) -> Memory {
    sequential_on(&Arc::new(ElementTable::for_nest(nest)), init)
}

/// [`sequential`] over a table already built for the nest's points in
/// lexicographic order, such as a generated program's.
pub fn sequential_on(elements: &Arc<ElementTable>, init: &dyn Fn(&str, &[i64]) -> f64) -> Memory {
    let mut mem = Memory::new(Arc::clone(elements));
    for point in 0..elements.num_points() {
        mem.execute(point, init);
    }
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::address_hash_init;
    use loom_loopir::sem::Expr;
    use loom_loopir::{Access, IterSpace, LoopNest, Stmt};

    #[test]
    fn matvec_computes_real_products() {
        // y[i] = Σ_j A[i,j]·x[j] with A and x from the init function.
        let nest = LoopNest::new(
            "matvec",
            IterSpace::rect(&[3, 3]).unwrap(),
            vec![Stmt::assign(
                Access::simple("y", 2, &[(0, 0)]),
                vec![
                    Access::simple("y", 2, &[(0, 0)]),
                    Access::simple("A", 2, &[(0, 0), (1, 0)]),
                    Access::simple("x", 2, &[(1, 0)]),
                ],
            )
            .with_expr(Expr::add(
                Expr::Read(0),
                Expr::mul(Expr::Read(1), Expr::Read(2)),
            ))],
        )
        .unwrap();
        let init = |a: &str, e: &[i64]| match a {
            "y" => 0.0,
            _ => address_hash_init(a, e),
        };
        let mem = sequential(&nest, &init);
        // Check y[1] against a direct computation.
        let expected: f64 = (0..3)
            .map(|j| address_hash_init("A", &[1, j]) * address_hash_init("x", &[j]))
            .sum();
        assert_eq!(mem.get("y", &[1]), Some(expected));
    }

    #[test]
    fn recurrence_order_matters_and_is_sequential() {
        // A[i+1] = A[i] + 1 starting from A[0] = 0 → A[n] = n.
        let nest = LoopNest::new(
            "count",
            IterSpace::rect(&[5]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 1, &[(0, 1)]),
                vec![Access::simple("A", 1, &[(0, 0)])],
            )
            .with_expr(Expr::add(Expr::Read(0), Expr::Const(1.0)))],
        )
        .unwrap();
        let mem = sequential(&nest, &|_, _| 0.0);
        for i in 1..=5 {
            assert_eq!(mem.get("A", &[i]), Some(i as f64));
        }
    }

    #[test]
    fn default_semantics_sum_of_reads() {
        let nest = LoopNest::new(
            "sum",
            IterSpace::rect(&[2]).unwrap(),
            vec![Stmt::assign(
                Access::simple("B", 1, &[(0, 0)]),
                vec![
                    Access::simple("x", 1, &[(0, 0)]),
                    Access::simple("y", 1, &[(0, 0)]),
                ],
            )],
        )
        .unwrap();
        let mem = sequential(&nest, &|a, _| if a == "x" { 2.0 } else { 3.0 });
        assert_eq!(mem.get("B", &[0]), Some(5.0));
    }
}
