//! A blocking message-passing interpreter for generated SPMD programs.
//!
//! Each processor owns a private [`Memory`]; messages are matched by
//! tag; receives block. The scheduler is deterministic round-robin with
//! run-to-block semantics, so a run either completes identically every
//! time or reports the same deadlock.

use crate::gen::{Codegen, PayloadSpec};
use crate::ops::{Op, Tag};
use loom_exec::{ElementTable, Memory};
use loom_loopir::LoopNest;
use std::collections::HashMap;
use std::sync::Arc;

/// Interpreter failure.
#[derive(Clone, Debug, PartialEq)]
pub enum InterpError {
    /// No processor can make progress; lists each blocked processor and
    /// the tag it waits for.
    Deadlock {
        /// `(processor, tag waited on)` for every blocked processor.
        blocked: Vec<(u32, Tag)>,
    },
    /// A `Compute` op referenced an out-of-range point id.
    BadPoint {
        /// The offending id.
        id: u32,
    },
    /// A replayed schedule ([`run_schedule`]) named a processor that
    /// does not exist or has no ops left at that step.
    BadSchedule {
        /// Index into the schedule where replay failed.
        at: usize,
    },
    /// A replayed schedule ended before every processor finished.
    IncompleteSchedule {
        /// The first unfinished processor.
        proc: u32,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Deadlock { blocked } => {
                write!(f, "SPMD deadlock; blocked: {blocked:?}")
            }
            InterpError::BadPoint { id } => write!(f, "compute of unknown point {id}"),
            InterpError::BadSchedule { at } => {
                write!(f, "schedule step {at} names a processor with no op to run")
            }
            InterpError::IncompleteSchedule { proc } => {
                write!(f, "schedule ended before P{proc} finished")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Each processor's private memory after completion.
    pub memories: Vec<Memory>,
    /// The global result: every element taken from the processor that
    /// performed the globally last write to it.
    pub gathered: Memory,
    /// Messages delivered.
    pub messages: u64,
    /// Element values transferred.
    pub words: u64,
}

/// A transferred element: its id in the program's element table, its
/// value, and — for values the source itself wrote — the id of the
/// writing iteration. The writer id makes installation
/// order-independent: a processor keeps, per element, the version from
/// the *sequentially latest* writer, so when several accumulation
/// dependences deliver the same element (e.g. conv2d's `y` along both
/// `(0,0,1,0)` and `(0,0,0,1)`), a staler copy arriving later can never
/// clobber a newer one. Forwarded *reads* (reuse chains of
/// in-nest-read-only arrays) carry no writer and are installed only
/// into absent slots.
pub type PayloadItem = (u32, f64, Option<u32>);

/// One processor's private state: its memory and, per element id, one
/// more than the point id of the sequentially latest write it holds (0
/// if none). Zero-filled vectors stay unmapped until touched, so a
/// processor's footprint follows the elements it uses.
pub(crate) struct Proc {
    pub(crate) mem: Memory,
    versions: Vec<u32>,
}

impl Proc {
    pub(crate) fn new(elements: &Arc<ElementTable>) -> Proc {
        Proc {
            mem: Memory::new(Arc::clone(elements)),
            versions: vec![0; elements.len()],
        }
    }

    /// Execute iteration `point` and record its writes for versioning.
    pub(crate) fn compute(&mut self, point: u32, init: &dyn Fn(&str, &[i64]) -> f64) {
        self.mem.execute(point as usize, init);
        let table = self.mem.table();
        for stmt in 0..table.num_stmts() {
            self.versions[table.write(point as usize, stmt) as usize] = point + 1;
        }
    }

    /// The payload of a message for dependence specs `specs`, produced
    /// at iteration `src`.
    pub(crate) fn payload(
        &self,
        nest: &LoopNest,
        specs: &[PayloadSpec],
        src: u32,
        init: &dyn Fn(&str, &[i64]) -> f64,
    ) -> Vec<PayloadItem> {
        let table = self.mem.table();
        let point = src as usize;
        let mut out = Vec::new();
        for spec in specs {
            match spec {
                PayloadSpec::Write { stmt } => {
                    let id = table.write(point, *stmt);
                    out.push((id, self.mem.read(id, init), Some(src)));
                }
                PayloadSpec::Reads { stmt, array } => {
                    let reads = nest.stmts()[*stmt].reads();
                    for (r, &id) in reads.iter().zip(table.reads(point, *stmt)) {
                        if r.array() == array {
                            out.push((id, self.mem.read(id, init), None));
                        }
                    }
                }
            }
        }
        out
    }

    /// Install received items under the version rule (see
    /// [`PayloadItem`]).
    pub(crate) fn install(&mut self, items: Vec<PayloadItem>) {
        for (id, v, writer) in items {
            match writer {
                Some(w) => {
                    let cur = &mut self.versions[id as usize];
                    if *cur <= w {
                        self.mem.write(id, v);
                        *cur = w + 1;
                    }
                }
                None => {
                    if self.mem.value(id).is_none() {
                        self.mem.write(id, v);
                    }
                }
            }
        }
    }
}

/// The mutable machine state one run threads through [`exec_op`].
struct RunState {
    procs: Vec<Proc>,
    pcs: Vec<usize>,
    /// Mailbox keyed by (destination proc, tag).
    mailbox: HashMap<(u32, Tag), Vec<PayloadItem>>,
    messages: u64,
    words: u64,
}

impl RunState {
    fn new(cg: &Codegen) -> RunState {
        let n_procs = cg.program.num_procs();
        RunState {
            procs: (0..n_procs).map(|_| Proc::new(&cg.elements)).collect(),
            pcs: vec![0; n_procs],
            mailbox: HashMap::new(),
            messages: 0,
            words: 0,
        }
    }

    fn finish(self, cg: &Codegen) -> RunResult {
        let memories: Vec<Memory> = self.procs.into_iter().map(|p| p.mem).collect();
        RunResult {
            gathered: gather(cg, &memories),
            memories,
            messages: self.messages,
            words: self.words,
        }
    }
}

/// Execute processor `p`'s next op. `Ok(true)` means progress was
/// made; `Ok(false)` means `p` is blocked on an unsatisfied `Recv`.
fn exec_op(
    nest: &LoopNest,
    cg: &Codegen,
    st: &mut RunState,
    p: usize,
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<bool, InterpError> {
    let prog = &cg.program;
    let n_points = cg.elements.num_points();
    match &prog.per_proc[p][st.pcs[p]] {
        Op::Recv { from: _, tag } => {
            let Some(items) = st.mailbox.remove(&(p as u32, *tag)) else {
                return Ok(false); // blocked
            };
            st.procs[p].install(items);
        }
        Op::Compute { point } => {
            if *point as usize >= n_points {
                return Err(InterpError::BadPoint { id: *point });
            }
            st.procs[p].compute(*point, init);
        }
        Op::Send { to, tag } => {
            if tag.src_point as usize >= n_points {
                return Err(InterpError::BadPoint { id: tag.src_point });
            }
            let specs = cg
                .payload_specs
                .get(tag.dep as usize)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let items = st.procs[p].payload(nest, specs, tag.src_point, init);
            st.messages += 1;
            st.words += items.len() as u64;
            st.mailbox.insert((*to, *tag), items);
        }
    }
    st.pcs[p] += 1;
    Ok(true)
}

/// Gather the global result: every element taken from the processor
/// that performed the globally last (sequential-order) write to it.
pub(crate) fn gather(cg: &Codegen, memories: &[Memory]) -> Memory {
    let table = &cg.elements;
    let mut proc_of_point = vec![0u32; table.num_points()];
    for (p, ops) in cg.program.per_proc.iter().enumerate() {
        for op in ops {
            if let Op::Compute { point } = op {
                if let Some(slot) = proc_of_point.get_mut(*point as usize) {
                    *slot = p as u32;
                }
            }
        }
    }
    // One more than the owning processor per element, 0 if unwritten.
    let mut last_writer = vec![0u32; table.len()];
    for (point, &proc) in proc_of_point.iter().enumerate() {
        for stmt in 0..table.num_stmts() {
            last_writer[table.write(point, stmt) as usize] = proc + 1;
        }
    }
    let mut gathered = Memory::new(Arc::clone(table));
    for (id, &owner) in (0u32..).zip(&last_writer) {
        if let Some(v) = owner
            .checked_sub(1)
            .and_then(|p| memories[p as usize].value(id))
        {
            gathered.write(id, v);
        }
    }
    gathered
}

/// Run a generated SPMD program to completion.
pub fn run(
    nest: &LoopNest,
    cg: &Codegen,
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<RunResult, InterpError> {
    let prog = &cg.program;
    let n_procs = prog.num_procs();
    let mut st = RunState::new(cg);

    loop {
        let mut progress = false;
        let mut all_done = true;
        for p in 0..n_procs {
            let ops = &prog.per_proc[p];
            while st.pcs[p] < ops.len() {
                if !exec_op(nest, cg, &mut st, p, init)? {
                    break; // blocked
                }
                progress = true;
            }
            if st.pcs[p] < ops.len() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        if !progress {
            let blocked = (0..n_procs)
                .filter(|&p| st.pcs[p] < prog.per_proc[p].len())
                .map(|p| match prog.per_proc[p][st.pcs[p]] {
                    Op::Recv { tag, .. } => (p as u32, tag),
                    _ => unreachable!("only receives block"),
                })
                .collect();
            return Err(InterpError::Deadlock { blocked });
        }
    }

    Ok(st.finish(cg))
}

/// Run a generated SPMD program under an explicit global op order:
/// `schedule[k]` names the processor whose next op executes at step
/// `k`. Mailbox matching, payload versioning, and the final gather are
/// identical to [`run`] — only the interleaving differs. This is the
/// replay hook the interleaving engine (`loom-check` rule `LC014`)
/// uses to compare the final memory state across explored schedules
/// and against the sequential oracle.
///
/// Errors: [`InterpError::Deadlock`] if a scheduled `Recv` has no
/// message, [`InterpError::BadSchedule`] if a step names a processor
/// with nothing left to run, and [`InterpError::IncompleteSchedule`]
/// if the schedule ends early.
pub fn run_schedule(
    nest: &LoopNest,
    cg: &Codegen,
    schedule: &[u32],
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<RunResult, InterpError> {
    let prog = &cg.program;
    let n_procs = prog.num_procs();
    let mut st = RunState::new(cg);
    for (at, &proc) in schedule.iter().enumerate() {
        let p = proc as usize;
        if p >= n_procs || st.pcs[p] >= prog.per_proc[p].len() {
            return Err(InterpError::BadSchedule { at });
        }
        if !exec_op(nest, cg, &mut st, p, init)? {
            let tag = match prog.per_proc[p][st.pcs[p]] {
                Op::Recv { tag, .. } => tag,
                _ => unreachable!("only receives block"),
            };
            return Err(InterpError::Deadlock {
                blocked: vec![(proc, tag)],
            });
        }
    }
    if let Some(p) = (0..n_procs).find(|&p| st.pcs[p] < prog.per_proc[p].len()) {
        return Err(InterpError::IncompleteSchedule { proc: p as u32 });
    }
    Ok(st.finish(cg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use loom_exec::memory::address_hash_init;
    use loom_exec::{equivalent, sequential};
    use loom_hyperplane::TimeFn;
    use loom_partition::{partition, PartitionConfig};

    fn check_workload(w: &loom_workloads::Workload, assignment: &[usize], procs: usize) {
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(assignment.len(), p.num_blocks(), "{}", w.nest.name());
        let cg = generate(&w.nest, &p, assignment, procs).expect("codegen-able");
        let result = run(&w.nest, &cg, &address_hash_init)
            .unwrap_or_else(|e| panic!("{}: {e}", w.nest.name()));
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(
            equivalent(&result.gathered, &serial),
            Ok(()),
            "{} diverged",
            w.nest.name()
        );
    }

    #[test]
    fn l1_spmd_matches_oracle() {
        let w = loom_workloads::l1::workload(4);
        check_workload(&w, &[0, 1, 1, 0], 2);
    }

    #[test]
    fn matvec_spmd_matches_oracle() {
        let w = loom_workloads::matvec::workload(8);
        // 8 blocks onto 4 procs round-robin (worst-case scatter).
        let assignment: Vec<usize> = (0..8).map(|b| b % 4).collect();
        check_workload(&w, &assignment, 4);
    }

    #[test]
    fn matmul_spmd_matches_oracle() {
        let w = loom_workloads::matmul::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 4).collect();
        let cg = generate(&w.nest, &p, &assignment, 4).unwrap();
        let result = run(&w.nest, &cg, &address_hash_init).unwrap();
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(equivalent(&result.gathered, &serial), Ok(()));
        assert!(result.messages > 0);
        assert!(result.words >= result.messages);
    }

    #[test]
    fn deadlock_detected_on_corrupted_program() {
        // Remove one Send from a valid program: its Recv must block and
        // be reported.
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let mut cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        for ops in &mut cg.program.per_proc {
            if let Some(pos) = ops.iter().position(|o| matches!(o, Op::Send { .. })) {
                ops.remove(pos);
                break;
            }
        }
        let err = run(&w.nest, &cg, &|_, _| 0.0).unwrap_err();
        assert!(matches!(err, InterpError::Deadlock { .. }));
    }

    #[test]
    fn replayed_schedule_matches_free_run() {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        // The round-robin run-to-block order, replayed explicitly, must
        // reproduce the free run bit for bit.
        let mut schedule = Vec::new();
        {
            let prog = &cg.program;
            let mut pcs = vec![0usize; prog.num_procs()];
            let mut mailbox = std::collections::HashSet::new();
            loop {
                let mut progress = false;
                #[allow(clippy::needless_range_loop)] // pcs and per_proc walk in lockstep
                for p in 0..prog.num_procs() {
                    while pcs[p] < prog.per_proc[p].len() {
                        match prog.per_proc[p][pcs[p]] {
                            Op::Recv { tag, .. } => {
                                if !mailbox.remove(&(p as u32, tag)) {
                                    break;
                                }
                            }
                            Op::Send { to, tag } => {
                                mailbox.insert((to, tag));
                            }
                            Op::Compute { .. } => {}
                        }
                        schedule.push(p as u32);
                        pcs[p] += 1;
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
        }
        let free = run(&w.nest, &cg, &address_hash_init).unwrap();
        let replayed = run_schedule(&w.nest, &cg, &schedule, &address_hash_init).unwrap();
        assert_eq!(equivalent(&replayed.gathered, &free.gathered), Ok(()));
        assert_eq!(replayed.messages, free.messages);
    }

    #[test]
    fn bad_schedules_are_rejected() {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        // Too short: every processor still has ops. Schedule one
        // non-blocking op so the failure is the early end, not a
        // blocked recv.
        let p0 = (0..cg.program.num_procs())
            .find(|&p| !matches!(cg.program.per_proc[p].first(), Some(Op::Recv { .. })))
            .expect("some processor starts unblocked") as u32;
        assert!(matches!(
            run_schedule(&w.nest, &cg, &[p0], &address_hash_init),
            Err(InterpError::IncompleteSchedule { .. })
        ));
        // Nonexistent processor.
        assert!(matches!(
            run_schedule(&w.nest, &cg, &[9], &address_hash_init),
            Err(InterpError::BadSchedule { at: 0 })
        ));
    }

    #[test]
    fn single_proc_trivially_correct() {
        let w = loom_workloads::sor::workload(5, 5);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &vec![0; p.num_blocks()], 1).unwrap();
        let result = run(&w.nest, &cg, &address_hash_init).unwrap();
        assert_eq!(result.messages, 0);
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(equivalent(&result.gathered, &serial), Ok(()));
    }
}
