//! Execution in an arbitrary total order, with dependence validation,
//! plus exact comparison of executions.

use crate::elements::ElementTable;
use crate::memory::Memory;
use loom_hyperplane::Schedule;
use loom_loopir::{LoopNest, Point};
use loom_machine::trace::TaskRecord;
use loom_partition::ComputationalStructure;
use std::sync::Arc;

/// A divergence between two executions, or an invalid order.
#[derive(Clone, Debug, PartialEq)]
pub enum Divergence {
    /// The two stores disagree on an element's value.
    ValueMismatch {
        /// The array.
        array: String,
        /// The element.
        element: Vec<i64>,
        /// Value in the first store (`None` = unwritten).
        left: Option<f64>,
        /// Value in the second store.
        right: Option<f64>,
    },
    /// The order executed a point before one of its dependence
    /// predecessors.
    OrderViolation {
        /// The too-early point.
        point: Point,
        /// The not-yet-executed predecessor.
        predecessor: Point,
    },
    /// The order is not a permutation of the iteration space.
    NotAPermutation,
}

/// Execute the nest visiting the points of `cs` with ids `order[0]`,
/// `order[1]`, … in sequence. Validates that the order is a permutation
/// and respects the dependence set of `cs` (every predecessor must
/// already have executed).
pub fn execute_in_order(
    nest: &LoopNest,
    cs: &ComputationalStructure,
    order: &[usize],
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<Memory, Divergence> {
    if order.len() != cs.len() {
        return Err(Divergence::NotAPermutation);
    }
    let mut done = vec![false; cs.len()];
    let table = ElementTable::for_points(nest, cs.points().iter());
    let mut mem = Memory::new(Arc::new(table));
    for &id in order {
        if id >= cs.len() || done[id] {
            return Err(Divergence::NotAPermutation);
        }
        if let Some((pid, _)) = cs.predecessors(id).find(|&(pid, _)| !done[pid]) {
            return Err(Divergence::OrderViolation {
                point: cs.point(id).to_vec(),
                predecessor: cs.point(pid).to_vec(),
            });
        }
        mem.execute(id, init);
        done[id] = true;
    }
    Ok(mem)
}

/// The iteration order induced by a hyperplane schedule: front by front,
/// points within a front in the order the schedule stores them (any
/// within-front order is valid — fronts are independent sets), as ids
/// of `cs`.
pub fn schedule_order(cs: &ComputationalStructure, schedule: &Schedule) -> Vec<usize> {
    let mut order = Vec::with_capacity(cs.len());
    for t in 0..schedule.num_steps() {
        for p in schedule.front(t) {
            if let Some(id) = cs.id_of(p) {
                order.push(id);
            }
        }
    }
    order
}

/// The iteration order of a simulator trace: by start time, then task id
/// (concurrent tasks on distinct processors are independent, so the tie
/// break cannot change results).
pub fn trace_order(trace: &[TaskRecord]) -> Vec<usize> {
    let mut records: Vec<&TaskRecord> = trace.iter().collect();
    records.sort_by_key(|r| (r.start, r.task));
    records.iter().map(|r| r.task as usize).collect()
}

/// Compare two stores exactly; `Ok(())` iff identical. Floating-point
/// equality is intentional: a dependence-respecting reorder must be
/// *bit-identical*, because each element's write sequence is fixed.
///
/// The reported divergence is the first element, in `(array,
/// subscripts)` order, that `left` holds and `right` lacks or holds
/// differently; failing that, the first element only `right` holds.
pub fn equivalent(left: &Memory, right: &Memory) -> Result<(), Divergence> {
    // Both stores iterate in (array, subscripts) order whatever their
    // tables, so one merge walk pairs up their elements.
    let mismatch = |array: &str, element: &[i64], l: Option<f64>, r: Option<f64>| {
        Err(Divergence::ValueMismatch {
            array: array.to_string(),
            element: element.to_vec(),
            left: l,
            right: r,
        })
    };
    let mut rights = right.iter().peekable();
    let mut right_only = None;
    for (array, element, v) in left.iter() {
        let mut w = None;
        while let Some((a, e, x)) = rights.next_if(|&(a, e, _)| (a, e) <= (array, element)) {
            if (a, e) == (array, element) {
                w = Some(x);
            } else {
                right_only.get_or_insert((a, e, x));
            }
        }
        if Some(v) != w {
            return mismatch(array, element, Some(v), w);
        }
    }
    match right_only.or_else(|| rights.next()) {
        Some((array, element, x)) => mismatch(array, element, None, Some(x)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::address_hash_init;
    use crate::oracle::sequential;
    use loom_hyperplane::TimeFn;

    fn l1() -> loom_workloads::Workload {
        loom_workloads::l1::workload(4)
    }

    fn structure(w: &loom_workloads::Workload) -> ComputationalStructure {
        ComputationalStructure::new(w.nest.space().clone(), w.verified_deps()).unwrap()
    }

    #[test]
    fn schedule_order_matches_sequential() {
        let w = l1();
        let cs = structure(&w);
        let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
        let order = schedule_order(&cs, &sched);
        let par = execute_in_order(&w.nest, &cs, &order, &address_hash_init).unwrap();
        let seq = sequential(&w.nest, &address_hash_init);
        assert_eq!(equivalent(&par, &seq), Ok(()));
    }

    #[test]
    fn reversed_fronts_still_match() {
        // Any order *within* a front is legal; reverse each front.
        let w = l1();
        let cs = structure(&w);
        let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
        let mut order = Vec::new();
        for t in 0..sched.num_steps() {
            for p in sched.front(t).iter().rev() {
                order.push(cs.id_of(p).unwrap());
            }
        }
        let par = execute_in_order(&w.nest, &cs, &order, &address_hash_init).unwrap();
        assert_eq!(
            equivalent(&par, &sequential(&w.nest, &address_hash_init)),
            Ok(())
        );
    }

    #[test]
    fn bad_order_detected() {
        let w = l1();
        let cs = structure(&w);
        // Reverse lexicographic order executes sinks first.
        let order: Vec<usize> = (0..cs.len()).rev().collect();
        let err = execute_in_order(&w.nest, &cs, &order, &|_, _| 0.0).unwrap_err();
        assert!(matches!(err, Divergence::OrderViolation { .. }));
    }

    #[test]
    fn non_permutation_detected() {
        let w = l1();
        let cs = structure(&w);
        let short = vec![0usize, 1];
        assert_eq!(
            execute_in_order(&w.nest, &cs, &short, &|_, _| 0.0).unwrap_err(),
            Divergence::NotAPermutation
        );
        let dup = vec![0usize; cs.len()];
        assert_eq!(
            execute_in_order(&w.nest, &cs, &dup, &|_, _| 0.0).unwrap_err(),
            Divergence::NotAPermutation
        );
    }

    #[test]
    fn equivalent_detects_mismatch() {
        let table = Arc::new(crate::elements::holding(&[("A", &[0])]));
        let mut a = Memory::new(Arc::clone(&table));
        let mut b = Memory::new(Arc::clone(&table));
        a.write(0, 1.0);
        b.write(0, 2.0);
        assert!(matches!(
            equivalent(&a, &b),
            Err(Divergence::ValueMismatch { .. })
        ));
        let empty = Memory::new(table);
        assert!(matches!(
            equivalent(&a, &empty),
            Err(Divergence::ValueMismatch { right: None, .. })
        ));
        assert!(matches!(
            equivalent(&empty, &a),
            Err(Divergence::ValueMismatch { left: None, .. })
        ));
    }
}
