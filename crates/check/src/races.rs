//! Rules `LC005` and `LC007` — static data-race detection over the
//! generated SPMD program.
//!
//! Nothing is executed. The analysis builds the happens-before order
//! the program's synchronization induces — per-processor program order
//! plus one edge per matched `Send`/`Recv` pair — with vector clocks,
//! then evaluates every statement's affine access functions at every
//! `Compute` op and flags any two accesses to the same array element
//! that (a) run on different processors, (b) are unordered by
//! happens-before, and (c) include at least one write. Because the
//! programs `loom-codegen` emits synchronize *every* dependence (anti
//! and output dependences carry no payload but still send their tag),
//! a correctly generated program is race-free; a reported race means
//! the program, partition, or schedule is wrong.
//!
//! The message-matching fixpoint also proves deadlock-freedom along the
//! way: a `Recv` whose message never materializes blocks its processor
//! forever and is reported as `LC007` at error severity, while a
//! message that is sent but never received is `LC007` at warning
//! severity (wasteful, and usually a symptom of a mismatched program).

use crate::diag::{Diagnostic, RuleId, Span};
use loom_codegen::{Op, SpmdProgram, Tag};
use loom_exec::ElementTable;
use loom_loopir::LoopNest;
use std::collections::BTreeMap;

/// Every executed `Compute`, with the vector clock at its occurrence.
struct ComputeEvents {
    n_procs: usize,
    /// `(processor, point id)` per event, in execution order.
    events: Vec<(usize, u32)>,
    /// Event `e`'s clock is `clocks[e * n_procs..(e + 1) * n_procs]`.
    clocks: Vec<u64>,
}

impl ComputeEvents {
    fn proc(&self, e: usize) -> usize {
        self.events[e].0
    }

    /// `true` iff event `a` happens before event `b`, or both run on
    /// one processor (program order).
    fn ordered(&self, a: usize, b: usize) -> bool {
        let pa = self.proc(a);
        pa == self.proc(b)
            || self.clocks[a * self.n_procs + pa] <= self.clocks[b * self.n_procs + pa]
    }

    /// `true` iff two of `accs` — one element's `(event, is-write)`
    /// accesses in execution order, which linearizes happens-before —
    /// race: on different processors, at least one a write, unordered.
    /// Linear in `accs` (FastTrack): it suffices that every access is
    /// ordered after the last write, and every write after each
    /// processor's last read since the previous write.
    fn racy(&self, accs: &[(usize, bool)], last_read: &mut [Option<usize>]) -> bool {
        last_read.fill(None);
        let mut last_write = None;
        for &(e, write) in accs {
            if last_write.is_some_and(|w| !self.ordered(w, e)) {
                return true;
            }
            if write {
                for r in last_read.iter_mut().filter_map(Option::take) {
                    if !self.ordered(r, e) {
                        return true;
                    }
                }
                last_write = Some(e);
            } else {
                last_read[self.proc(e)] = Some(e);
            }
        }
        false
    }

    /// The first racing pair of `accs` in list order, as positions.
    fn first_race(&self, accs: &[(usize, bool)]) -> Option<(usize, usize)> {
        for (i, &(a, wa)) in accs.iter().enumerate() {
            for (j, &(b, wb)) in accs.iter().enumerate().skip(i + 1) {
                if (wa || wb) && !self.ordered(a, b) && !self.ordered(b, a) {
                    return Some((i, j));
                }
            }
        }
        None
    }

    /// Every access of every event grouped by element id: element
    /// `id`'s accesses are `accesses[first[id]..first[id + 1]]`, as
    /// `(event, is-write)` in (event, statement, write then reads)
    /// order.
    fn access_lists(&self, elements: &ElementTable) -> (Vec<usize>, Vec<(usize, bool)>) {
        let each_access = |visit: &mut dyn FnMut(u32, usize, bool)| {
            for (e, &(_, point)) in self.events.iter().enumerate() {
                let point = point as usize;
                for stmt in 0..elements.num_stmts() {
                    visit(elements.write(point, stmt), e, true);
                    for &id in elements.reads(point, stmt) {
                        visit(id, e, false);
                    }
                }
            }
        };
        let mut first = vec![0usize; elements.len() + 1];
        each_access(&mut |id, _, _| first[id as usize + 1] += 1);
        for id in 0..elements.len() {
            first[id + 1] += first[id];
        }
        let mut fill = first.clone();
        let mut accesses = vec![(0usize, false); first[elements.len()]];
        each_access(&mut |id, e, write| {
            accesses[fill[id as usize]] = (e, write);
            fill[id as usize] += 1;
        });
        (first, accesses)
    }
}

/// Messages in flight, keyed by (from, to, tag), with the sender's
/// clock snapshot; a BTreeMap keeps the scan deterministic.
type Mailbox = BTreeMap<(u32, u32, Tag), Vec<u64>>;

/// Propagate vector clocks to a fixpoint. Each processor advances
/// through its op list until it blocks on an unsatisfied Recv; Sends
/// deposit a clock snapshot and Recvs join it. Returns the compute
/// events, each processor's stopping op index, and the messages never
/// received.
fn run_clocks(program: &SpmdProgram) -> (ComputeEvents, Vec<usize>, Mailbox) {
    let n = program.num_procs();
    let mut ip = vec![0usize; n];
    let mut clock: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut mailbox = Mailbox::new();
    let mut computes = ComputeEvents {
        n_procs: n,
        events: Vec::new(),
        clocks: Vec::new(),
    };
    loop {
        let mut progressed = false;
        for p in 0..n {
            while ip[p] < program.per_proc[p].len() {
                match program.per_proc[p][ip[p]] {
                    Op::Recv { from, tag } => match mailbox.remove(&(from, p as u32, tag)) {
                        Some(snapshot) => {
                            for (c, s) in clock[p].iter_mut().zip(&snapshot) {
                                *c = (*c).max(*s);
                            }
                        }
                        None => break,
                    },
                    Op::Compute { point } => {
                        clock[p][p] += 1;
                        computes.events.push((p, point));
                        computes.clocks.extend_from_slice(&clock[p]);
                    }
                    Op::Send { to, tag } => {
                        clock[p][p] += 1;
                        mailbox.insert((p as u32, to, tag), clock[p].clone());
                    }
                }
                ip[p] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    (computes, ip, mailbox)
}

fn fmt_point(p: &[i64]) -> String {
    let parts: Vec<String> = p.iter().map(|x| x.to_string()).collect();
    format!("({})", parts.join(","))
}

/// Run the happens-before analysis and the per-element race scan.
pub fn check_races(nest: &LoopNest, program: &SpmdProgram) -> Vec<Diagnostic> {
    check_races_in(program, &ElementTable::for_points(nest, &program.points))
}

/// [`check_races`] over an element table already built for the
/// program's points, such as [`Codegen::elements`].
///
/// [`Codegen::elements`]: loom_codegen::gen::Codegen::elements
pub fn check_races_in(program: &SpmdProgram, elements: &ElementTable) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Phase 1: vector clocks.
    let (computes, ip, mailbox) = run_clocks(program);

    // Phase 2: LC007. Anything still blocked is a Recv whose message
    // can never arrive — the program deadlocks there. Messages left in
    // the mailbox were sent but never consumed.
    let mut deadlocked = false;
    for (p, &stuck_at) in ip.iter().enumerate() {
        if stuck_at < program.per_proc[p].len() {
            if let Op::Recv { from, tag } = program.per_proc[p][stuck_at] {
                deadlocked = true;
                out.push(Diagnostic::error(
                    RuleId::UnmatchedMessage,
                    Span::ProgramOp {
                        proc: p as u32,
                        op: stuck_at,
                    },
                    format!(
                        "receive of message (source point {}, dep {}) from P{from} \
                         can never be satisfied; the program deadlocks here",
                        tag.src_point, tag.dep
                    ),
                ));
            }
        }
    }
    for (from, to, tag) in mailbox.into_keys() {
        out.push(Diagnostic::warning(
            RuleId::UnmatchedMessage,
            Span::Nest,
            format!(
                "message (source point {}, dep {}) from P{from} to P{to} \
                 is sent but never received",
                tag.src_point, tag.dep
            ),
        ));
    }
    if deadlocked {
        // Computes past the deadlock never happen; a race verdict over
        // the partial order would be misleading.
        return out;
    }

    // Phase 3: LC005. Index every access by element id — ids follow
    // (array, subscripts) order — and test cross-processor pairs with
    // at least one write for happens-before.
    let points = &program.points;
    let (first, accesses) = computes.access_lists(elements);
    let mut last_read = vec![None; program.num_procs()];
    for (id, w) in (0u32..).zip(first.windows(2)) {
        let accs = &accesses[w[0]..w[1]];
        // Only a racy element pays for the quadratic scan. One
        // diagnostic per racing element keeps reports readable; the
        // first unordered pair is representative.
        if !computes.racy(accs, &mut last_read) {
            continue;
        }
        let Some((i, j)) = computes.first_race(accs) else {
            continue;
        };
        let ((a, wa), (b, wb)) = (accs[i], accs[j]);
        let (pa, pb) = (computes.events[a], computes.events[b]);
        out.push(Diagnostic::error(
            RuleId::DataRace,
            Span::Element {
                array: elements.array(id).to_string(),
                element: elements.element(id).to_vec(),
            },
            format!(
                "{} at iteration {} on P{} and {} at iteration {} on P{} \
                 are concurrent: no synchronization orders them",
                if wa { "write" } else { "read" },
                fmt_point(&points[pa.1 as usize]),
                pa.0,
                if wb { "write" } else { "read" },
                fmt_point(&points[pb.1 as usize]),
                pb.0,
            ),
        ));
    }
    dedupe(out)
}

/// Drop repeated diagnostics, keeping first-occurrence order.
///
/// The scan phases can surface the same fact more than once — e.g. a
/// racing pair found through two statements that access the same
/// element — and rendering the identical (rule, severity, span,
/// message) tuple twice only pads the report.
fn dedupe(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut seen = std::collections::BTreeSet::new();
    diags
        .into_iter()
        .filter(|d| seen.insert((d.rule, d.severity, d.span.to_string(), d.message.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_codegen::generate;
    use loom_hyperplane::TimeFn;
    use loom_mapping::map_partitioning;
    use loom_partition::{partition, PartitionConfig};

    fn l1_program() -> (LoopNest, SpmdProgram) {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let m = map_partitioning(&p, 1).unwrap();
        let cg = generate(&w.nest, &p, m.assignment(), 2).unwrap();
        (w.nest, cg.program)
    }

    #[test]
    fn generated_program_is_race_free() {
        let (nest, program) = l1_program();
        assert_eq!(check_races(&nest, &program), vec![]);
    }

    #[test]
    fn removed_send_deadlocks() {
        let (nest, mut program) = l1_program();
        let (p, i) = program
            .per_proc
            .iter()
            .enumerate()
            .find_map(|(p, ops)| {
                ops.iter()
                    .position(|op| matches!(op, Op::Send { .. }))
                    .map(|i| (p, i))
            })
            .expect("a cross-processor program has sends");
        program.per_proc[p].remove(i);
        let ds = check_races(&nest, &program);
        assert!(
            ds.iter().any(|d| d.rule == RuleId::UnmatchedMessage
                && d.severity == crate::Severity::Error),
            "{ds:?}"
        );
    }

    #[test]
    fn injected_duplicate_compute_races() {
        // Recompute some point on the *other* processor with no
        // synchronization: its writes collide with the original's.
        let (nest, mut program) = l1_program();
        let point = program.per_proc[0]
            .iter()
            .find_map(|op| match op {
                Op::Compute { point } => Some(*point),
                _ => None,
            })
            .unwrap();
        program.per_proc[1].insert(0, Op::Compute { point });
        let ds = check_races(&nest, &program);
        assert!(
            ds.iter()
                .any(|d| d.rule == RuleId::DataRace && d.severity == crate::Severity::Error),
            "{ds:?}"
        );
    }

    #[test]
    fn linear_race_check_agrees_with_the_pair_scan() {
        let w = loom_workloads::sor::workload(6, 6);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let m = map_partitioning(&p, 2).unwrap();
        let program = generate(&w.nest, &p, m.assignment(), 4).unwrap().program;
        let elements = ElementTable::for_points(&w.nest, &program.points);
        let mut rng = loom_obs::SplitMix64::new(0x1c005);
        let (mut racy_lists, mut clean_lists) = (0, 0);
        for _ in 0..64 {
            // Recompute random points on random processors, unsynchronized.
            let mut prog = program.clone();
            for _ in 0..1 + rng.below(3) {
                let q = rng.below(prog.num_procs() as u64) as usize;
                let at = rng.below(prog.per_proc[q].len() as u64 + 1) as usize;
                let point = rng.below(prog.points.len() as u64) as u32;
                prog.per_proc[q].insert(at, Op::Compute { point });
            }
            let (computes, _, _) = run_clocks(&prog);
            let (first, accesses) = computes.access_lists(&elements);
            let mut last_read = vec![None; prog.num_procs()];
            for w in first.windows(2) {
                let accs = &accesses[w[0]..w[1]];
                let racy = computes.racy(accs, &mut last_read);
                assert_eq!(racy, computes.first_race(accs).is_some(), "{accs:?}");
                if racy {
                    racy_lists += 1;
                } else {
                    clean_lists += 1;
                }
            }
        }
        assert!(racy_lists > 0 && clean_lists > 0);
    }

    #[test]
    fn identical_diagnostics_are_deduplicated() {
        let d = |msg: &str| {
            Diagnostic::error(
                RuleId::DataRace,
                Span::Element {
                    array: "A".to_string(),
                    element: vec![1, 2],
                },
                msg.to_string(),
            )
        };
        let deduped = dedupe(vec![d("same"), d("same"), d("other"), d("same")]);
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0].message, "same");
        assert_eq!(deduped[1].message, "other");
        // Same message under a different span survives.
        let mut w = d("same");
        w.span = Span::Nest;
        assert_eq!(dedupe(vec![d("same"), w]).len(), 2);
    }

    #[test]
    fn orphan_send_warns() {
        let (nest, mut program) = l1_program();
        program.per_proc[0].push(Op::Send {
            to: 1,
            tag: Tag {
                src_point: 0,
                dep: 999,
            },
        });
        let ds = check_races(&nest, &program);
        assert!(ds.iter().all(|d| d.severity != crate::Severity::Error));
        assert!(
            ds.iter()
                .any(|d| d.rule == RuleId::UnmatchedMessage
                    && d.severity == crate::Severity::Warning),
            "{ds:?}"
        );
    }
}
