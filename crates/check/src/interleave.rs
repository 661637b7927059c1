//! Rules `LC013`/`LC014` — the interleaving engine: a stateless model
//! checker over the generated SPMD program's message semantics.
//!
//! The enumerative scan (`LC005`/`LC007`) and the symbolic engine
//! (`LC011`/`LC012`) both reason about *one* canonical execution. This
//! module asks the stronger question: does the program behave the same
//! under **every** interleaving the blocking-receive semantics allows?
//! Two properties are checked:
//!
//! * **`LC013` deadlock-freedom** — no reachable state leaves every
//!   unfinished processor blocked on a receive. A violation comes back
//!   with a minimal (shortest-found) counterexample trace rendered
//!   through [`Span::Trace`].
//! * **`LC014` determinacy** — the gathered final memory is the same
//!   for every explored interleaving, and equals the sequential
//!   oracle's. Explored schedules are replayed through
//!   [`loom_codegen::run_schedule`] and compared by
//!   [`Memory::digest`](loom_exec::Memory::digest), falling back to
//!   [`loom_exec::equivalent`] to render the first divergent element.
//!
//! # Dynamic partial-order reduction
//!
//! Naive enumeration branches over every enabled processor at every
//! step — factorial in the number of messages. The explorer instead
//! runs Flanagan–Godefroid dynamic partial-order reduction (DPOR):
//! a depth-first walk that executes *one* interleaving at a time,
//! detects races with vector clocks against the earlier trace events
//! that share a mailbox key (found through a per-key index of the
//! trace, not a scan of it), and plants backtrack points only where
//! reordering two **dependent** transitions could reach a new
//! equivalence class. Sleep sets prune re-exploration of independent
//! siblings.
//!
//! The dependency relation is exact for the interpreter's semantics:
//! two transitions conflict iff their [`Op::mailbox_key`] sets
//! intersect — the mailbox is a map over `(destination, tag)`, so a
//! send/send pair on the same key races (overwrite), send/recv on the
//! same key races (enabling), and everything else commutes.
//!
//! # Protocol-line macro-transitions
//!
//! When [`SpmdProgram::unique_tags`] holds — true for every program
//! `loom-codegen` emits, and exactly the property the `LC011` protocol
//! summaries are built on — no two sends and no two receives share a
//! mailbox key, so co-enabled transitions always commute and the whole
//! program is a Kahn network: one interleaving per equivalence class.
//! The explorer exploits this by batching each transition into a
//! *macro-step* (run a processor through computes, sends, and already-
//! satisfiable receives until it blocks), which makes the DPOR state
//! count track protocol lines instead of individual messages. For
//! mutated or hand-built programs with duplicate keys it falls back to
//! granular transitions (one communication op each) with full race
//! detection.

use crate::diag::{Diagnostic, RuleId, Span};
use loom_codegen::gen::Codegen;
use loom_codegen::ops::{Op, SpmdProgram, Tag};
use loom_codegen::run_schedule;
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, sequential_on, Divergence};
use loom_loopir::LoopNest;
use loom_obs::SplitMix64;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A mailbox slot: `(destination processor, tag)`.
type Key = (u32, Tag);

/// A per-processor vector clock.
type Clock = Vec<u64>;

/// Exploration budgets. The defaults comfortably cover the builtin
/// workloads at interleaving-check sizes; a truncated exploration is
/// reported as an `LC013` warning, never silently.
#[derive(Clone, Debug)]
pub struct InterleaveOptions {
    /// Stop after this many complete interleavings (equivalence-class
    /// representatives or deadlocks).
    pub max_interleavings: u64,
    /// Stop after this many executed macro-transitions.
    pub max_transitions: u64,
    /// Budget for the naive cross-check enumeration (0 disables it).
    pub naive_budget: u64,
    /// How many explored schedules to replay for determinacy.
    pub max_replays: usize,
}

impl Default for InterleaveOptions {
    fn default() -> InterleaveOptions {
        InterleaveOptions {
            max_interleavings: 4096,
            max_transitions: 1_000_000,
            naive_budget: 2048,
            max_replays: 8,
        }
    }
}

/// Counters the exploration emits (surfaced as `check.interleave.*`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InterleaveStats {
    /// Complete interleavings DPOR executed (classes + deadlocks).
    pub explored: u64,
    /// Interleavings the naive enumeration counted (0 if disabled).
    pub naive: u64,
    /// Macro-transitions executed.
    pub transitions: u64,
    /// Branches pruned by sleep sets.
    pub sleep_skips: u64,
    /// Deadlocked terminal states found.
    pub deadlocks: u64,
    /// Schedules replayed for determinacy.
    pub replays: u64,
    /// `true` iff DPOR hit a budget before exhausting the space.
    pub truncated: bool,
    /// `true` iff the naive enumeration hit its budget.
    pub naive_truncated: bool,
}

/// A reachable deadlock: the macro-step trace that leads there and the
/// receives left blocked.
#[derive(Clone, Debug)]
pub struct DeadlockWitness {
    /// `(proc, first op index, one past last op index)` per macro-step.
    pub steps: Vec<(u32, usize, usize)>,
    /// `(proc, op index, tag)` for each blocked receive.
    pub blocked: Vec<(u32, usize, Tag)>,
}

impl DeadlockWitness {
    fn ops(&self) -> usize {
        self.steps.iter().map(|&(_, lo, hi)| hi - lo).sum()
    }
}

/// What an exploration found.
#[derive(Clone, Debug, Default)]
pub struct Exploration {
    /// Completed (non-deadlocked) interleavings.
    pub completed: u64,
    /// The shortest deadlock witness found, if any.
    pub deadlock: Option<DeadlockWitness>,
    /// Op-level schedules of the first few completed interleavings
    /// (capped at [`InterleaveOptions::max_replays`]).
    pub schedules: Vec<Vec<u32>>,
}

/// A message in flight: the sender's vector-clock snapshot (joined by
/// the receive, maintaining happens-before) and the trace index of the
/// sending event (so race detection can tell the *enabling* send of a
/// receive apart from unrelated same-key sends).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Msg {
    clock: Clock,
    sender: usize,
}

/// The model-checker state: program counters plus the mailbox,
/// structurally identical to the interpreter's payload mailbox
/// (keyed map, insert overwrites, remove on receive).
#[derive(Clone, Debug, PartialEq, Eq)]
struct MState {
    pcs: Vec<usize>,
    mailbox: BTreeMap<Key, Msg>,
}

impl MState {
    fn initial(n: usize) -> MState {
        MState {
            pcs: vec![0; n],
            mailbox: BTreeMap::new(),
        }
    }

    fn finished(&self, prog: &SpmdProgram) -> bool {
        self.pcs
            .iter()
            .enumerate()
            .all(|(p, &pc)| pc >= prog.per_proc[p].len())
    }
}

/// Can processor `p` make progress from `st`? Computes and sends are
/// always enabled; a receive needs its message in the mailbox.
fn proc_enabled(prog: &SpmdProgram, st: &MState, p: usize) -> bool {
    match prog.per_proc[p].get(st.pcs[p]) {
        None => false,
        Some(Op::Recv { from: _, tag }) => st.mailbox.contains_key(&(p as u32, *tag)),
        Some(_) => true,
    }
}

/// The mailbox key of `p`'s next communication op, if any — what `p`'s
/// next transition would touch, used for sleep-set filtering.
fn next_comm_key(prog: &SpmdProgram, st: &MState, p: usize) -> Option<Key> {
    prog.per_proc[p][st.pcs[p]..]
        .iter()
        .find_map(|op| op.mailbox_key(p as u32))
}

/// What one macro-transition executed.
struct StepOut {
    /// Mailbox keys touched (sends and receives).
    keys: Vec<Key>,
    /// Trace indices of the send events whose messages this step's
    /// receives consumed.
    consumed: Vec<usize>,
    lo: usize,
    hi: usize,
}

/// Execute one macro-transition of processor `p`. In `batched` mode the
/// processor runs until it blocks or finishes (sound only under unique
/// tags); otherwise it performs at most one communication op plus any
/// leading/trailing computes. When `clocks` is `Some`, vector clocks
/// are maintained (tick on start, join sender snapshots on receive);
/// the naive enumerator passes `None`. `depth` is this event's trace
/// index, stamped on the messages it sends.
fn macro_step(
    prog: &SpmdProgram,
    st: &mut MState,
    mut clocks: Option<&mut Vec<Clock>>,
    p: usize,
    batched: bool,
    depth: usize,
) -> StepOut {
    let ops = &prog.per_proc[p];
    let lo = st.pcs[p];
    if let Some(c) = clocks.as_deref_mut() {
        c[p][p] += 1;
    }
    let mut keys = Vec::new();
    let mut consumed = Vec::new();
    let mut comm_done = false;
    while st.pcs[p] < ops.len() {
        match &ops[st.pcs[p]] {
            Op::Compute { .. } => st.pcs[p] += 1,
            Op::Send { to, tag } => {
                if comm_done && !batched {
                    break;
                }
                let clock = clocks.as_deref().map(|c| c[p].clone()).unwrap_or_default();
                st.mailbox.insert(
                    (*to, *tag),
                    Msg {
                        clock,
                        sender: depth,
                    },
                );
                keys.push((*to, *tag));
                st.pcs[p] += 1;
                comm_done = true;
            }
            Op::Recv { from: _, tag } => {
                if comm_done && !batched {
                    break;
                }
                let key = (p as u32, *tag);
                match st.mailbox.remove(&key) {
                    Some(msg) => {
                        if let Some(c) = clocks.as_deref_mut() {
                            for (mine, theirs) in c[p].iter_mut().zip(&msg.clock) {
                                *mine = (*mine).max(*theirs);
                            }
                        }
                        keys.push(key);
                        consumed.push(msg.sender);
                        st.pcs[p] += 1;
                        comm_done = true;
                    }
                    None => break,
                }
            }
        }
    }
    StepOut {
        keys,
        consumed,
        lo,
        hi: st.pcs[p],
    }
}

/// One executed macro-transition in the current DPOR trace.
#[derive(Clone, Debug)]
struct Executed {
    proc: usize,
    keys: Vec<Key>,
    /// The executing processor's clock *after* the step — the event's
    /// vector timestamp.
    clock: Clock,
    lo: usize,
    hi: usize,
}

/// A DFS frame: the state *before* any transition at this depth, plus
/// the persistent-set bookkeeping.
struct Frame {
    state: MState,
    clocks: Vec<Clock>,
    enabled: Vec<usize>,
    backtrack: BTreeSet<usize>,
    done: BTreeSet<usize>,
    sleep: BTreeSet<usize>,
}

fn componentwise_leq(a: &Clock, b: &Clock) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

fn expand_schedule(trace: &[Executed], last: &Executed) -> Vec<u32> {
    trace
        .iter()
        .chain(std::iter::once(last))
        .flat_map(|e| std::iter::repeat_n(e.proc as u32, e.hi - e.lo))
        .collect()
}

fn compress_steps(trace: &[Executed], last: &Executed) -> Vec<(u32, usize, usize)> {
    trace
        .iter()
        .chain(std::iter::once(last))
        .map(|e| (e.proc as u32, e.lo, e.hi))
        .collect()
}

fn make_frame(
    prog: &SpmdProgram,
    state: MState,
    clocks: Vec<Clock>,
    sleep: BTreeSet<usize>,
) -> Frame {
    let n = prog.num_procs();
    let enabled: Vec<usize> = (0..n).filter(|&q| proc_enabled(prog, &state, q)).collect();
    let mut backtrack = BTreeSet::new();
    // Seed the persistent set with one enabled, non-sleeping processor;
    // races discovered deeper in the tree grow it.
    if let Some(&q) = enabled
        .iter()
        .find(|q| !sleep.contains(q))
        .or_else(|| enabled.first())
    {
        backtrack.insert(q);
    }
    Frame {
        state,
        clocks,
        enabled,
        backtrack,
        done: BTreeSet::new(),
        sleep,
    }
}

/// Record a terminal state (all processors blocked or finished).
fn record_terminal(
    prog: &SpmdProgram,
    state: &MState,
    trace: &[Executed],
    last: &Executed,
    opts: &InterleaveOptions,
    stats: &mut InterleaveStats,
    out: &mut Exploration,
) {
    stats.explored += 1;
    if state.finished(prog) {
        out.completed += 1;
        if out.schedules.len() < opts.max_replays {
            out.schedules.push(expand_schedule(trace, last));
        }
        return;
    }
    stats.deadlocks += 1;
    let witness = DeadlockWitness {
        steps: compress_steps(trace, last),
        blocked: state
            .pcs
            .iter()
            .enumerate()
            .filter(|&(p, &pc)| pc < prog.per_proc[p].len())
            .map(|(p, &pc)| match prog.per_proc[p][pc] {
                // Only a receive can be stuck: everything else is
                // always enabled.
                Op::Recv { from: _, tag } => (p as u32, pc, tag),
                _ => unreachable!("non-receive op cannot block"),
            })
            .collect(),
    };
    let better = out
        .deadlock
        .as_ref()
        .is_none_or(|best| witness.ops() < best.ops());
    if better {
        out.deadlock = Some(witness);
    }
}

/// Explore the program's interleavings with DPOR. Sound and complete up
/// to the budgets: every Mazurkiewicz equivalence class gets at least
/// one representative, so a clean exploration proves deadlock-freedom
/// for every interleaving, not just the explored ones.
pub fn explore_dpor(
    prog: &SpmdProgram,
    opts: &InterleaveOptions,
    stats: &mut InterleaveStats,
) -> Exploration {
    let n = prog.num_procs();
    let batched = prog.unique_tags();
    let mut out = Exploration::default();
    let root = make_frame(
        prog,
        MState::initial(n),
        vec![vec![0; n]; n],
        BTreeSet::new(),
    );
    if root.enabled.is_empty() {
        // Degenerate: empty program (completed) or instant deadlock.
        let nothing = Executed {
            proc: 0,
            keys: Vec::new(),
            clock: vec![0; n],
            lo: 0,
            hi: 0,
        };
        record_terminal(prog, &root.state, &[], &nothing, opts, stats, &mut out);
        return out;
    }
    let mut frames: Vec<Frame> = vec![root];
    let mut trace: Vec<Executed> = Vec::new();
    // Trace indices of the events touching each key, ascending: only
    // events sharing a key with a transition can race with it.
    let mut by_key: HashMap<Key, Vec<usize>> = HashMap::new();

    while let Some(top) = frames.last_mut() {
        let candidate = top
            .backtrack
            .iter()
            .copied()
            .find(|q| !top.done.contains(q));
        let Some(p) = candidate else {
            frames.pop();
            if let Some(event) = trace.pop() {
                for key in &event.keys {
                    let events = by_key.get_mut(key).expect("indexed on push");
                    if events.last() == Some(&trace.len()) {
                        events.pop();
                    }
                }
            }
            continue;
        };
        top.done.insert(p);
        if top.sleep.contains(&p) {
            stats.sleep_skips += 1;
            continue;
        }
        if stats.explored >= opts.max_interleavings || stats.transitions >= opts.max_transitions {
            stats.truncated = true;
            break;
        }

        // Execute p's macro-transition from a copy of this frame.
        let (mut state, mut clocks, pre_clock, parent_sleep) = {
            let f = frames.last().expect("frame present");
            let sleeping: Vec<(usize, Option<Key>)> = f
                .sleep
                .iter()
                .chain(f.done.iter())
                .filter(|&&q| q != p)
                .map(|&q| (q, next_comm_key(prog, &f.state, q)))
                .collect();
            (
                f.state.clone(),
                f.clocks.clone(),
                f.clocks[p].clone(),
                sleeping,
            )
        };
        let step = macro_step(prog, &mut state, Some(&mut clocks), p, batched, trace.len());
        stats.transitions += 1;
        let exec = Executed {
            proc: p,
            keys: step.keys,
            clock: clocks[p].clone(),
            lo: step.lo,
            hi: step.hi,
        };

        // Race detection (classical DPOR shape): an earlier event with
        // an intersecting key set that is not already in p's causal
        // past — judged against p's *pre-step* clock, so the direct
        // enabling join of this very step does not mask the race —
        // could have run on the other side of this transition; plant a
        // backtrack point at its pre-state frame. Enabling pairs (the
        // send whose message a receive consumed, `step.consumed`) are
        // special: swapping them is only meaningful when an *older*
        // message for the same key existed before the send (the
        // overwrite case — the receive could have consumed that one
        // instead). Under unique tags no key is ever resent, so no
        // backtrack point is ever planted in batched mode and the
        // explorer visits exactly one interleaving per Kahn network.
        let mut sharing: Vec<usize> = exec
            .keys
            .iter()
            .filter_map(|k| by_key.get(k))
            .flatten()
            .copied()
            .collect();
        sharing.sort_unstable();
        sharing.dedup();
        for i in sharing {
            let earlier = &trace[i];
            if earlier.proc == p || componentwise_leq(&earlier.clock, &pre_clock) {
                continue;
            }
            let overwrite_alternative = earlier
                .keys
                .iter()
                .any(|k| exec.keys.contains(k) && frames[i].state.mailbox.contains_key(k));
            if step.consumed.contains(&i) && !overwrite_alternative {
                continue;
            }
            let racing_frame = &mut frames[i];
            if racing_frame.enabled.contains(&p) {
                racing_frame.backtrack.insert(p);
            } else {
                // p was not runnable before the racing event: schedule
                // every then-enabled alternative (conservative
                // persistent-set fallback).
                let everyone: Vec<usize> = racing_frame.enabled.clone();
                racing_frame.backtrack.extend(everyone);
            }
        }

        // Sleep set for the child: siblings already covered stay
        // asleep while they remain independent of what just ran.
        let child_sleep: BTreeSet<usize> = parent_sleep
            .iter()
            .filter(|(_, key)| match key {
                None => true,
                Some(k) => !exec.keys.contains(k),
            })
            .map(|&(q, _)| q)
            .collect();

        let child = make_frame(prog, state, clocks, child_sleep);
        if child.enabled.is_empty() {
            record_terminal(prog, &child.state, &trace, &exec, opts, stats, &mut out);
            continue;
        }
        if child.enabled.iter().all(|q| child.sleep.contains(q)) {
            // Sleep-blocked: every continuation is a reordering of
            // already-explored independent transitions.
            stats.sleep_skips += 1;
            continue;
        }
        for key in &exec.keys {
            let events = by_key.entry(*key).or_default();
            if events.last() != Some(&trace.len()) {
                events.push(trace.len());
            }
        }
        frames.push(child);
        trace.push(exec);
    }
    out
}

/// What the naive (no-reduction) enumeration found.
#[derive(Clone, Debug, Default)]
pub struct NaiveResult {
    /// Terminal states reached (all interleavings, no dedup).
    pub interleavings: u64,
    /// `true` iff some interleaving deadlocks.
    pub deadlock: bool,
    /// `true` iff the budget cut the enumeration short.
    pub truncated: bool,
    /// Op-level schedules of the first few completed interleavings.
    pub schedules: Vec<Vec<u32>>,
}

/// Enumerate **all** interleavings at the same macro-transition
/// granularity as the DPOR explorer, without any reduction. This is
/// the ground truth the property tests compare against, and the
/// baseline for the `check.interleave.naive` counter: on any program
/// with concurrency, `explored < naive` is the measurable win of the
/// partial-order reduction.
pub fn enumerate_naive(prog: &SpmdProgram, budget: u64, keep: usize) -> NaiveResult {
    struct NFrame {
        state: MState,
        enabled: Vec<usize>,
        next: usize,
    }
    let n = prog.num_procs();
    let batched = prog.unique_tags();
    let mut res = NaiveResult::default();
    let enabled0: Vec<usize> = (0..n)
        .filter(|&q| proc_enabled(prog, &MState::initial(n), q))
        .collect();
    if enabled0.is_empty() {
        res.interleavings = 1;
        res.deadlock = !MState::initial(n).finished(prog);
        if !res.deadlock && keep > 0 {
            res.schedules.push(Vec::new());
        }
        return res;
    }
    let mut frames = vec![NFrame {
        state: MState::initial(n),
        enabled: enabled0,
        next: 0,
    }];
    let mut sched: Vec<(u32, usize, usize)> = Vec::new();
    while let Some(top) = frames.last_mut() {
        if top.next >= top.enabled.len() {
            frames.pop();
            sched.pop();
            continue;
        }
        let p = top.enabled[top.next];
        top.next += 1;
        let mut state = top.state.clone();
        let StepOut { lo, hi, .. } = macro_step(prog, &mut state, None, p, batched, 0);
        let enabled: Vec<usize> = (0..n).filter(|&q| proc_enabled(prog, &state, q)).collect();
        if enabled.is_empty() {
            res.interleavings += 1;
            if state.finished(prog) {
                if res.schedules.len() < keep {
                    let mut s: Vec<u32> = Vec::new();
                    for &(q, l, h) in sched.iter().chain(std::iter::once(&(p as u32, lo, hi))) {
                        s.extend(std::iter::repeat_n(q, h - l));
                    }
                    res.schedules.push(s);
                }
            } else {
                res.deadlock = true;
            }
            if res.interleavings >= budget {
                res.truncated = true;
                break;
            }
            continue;
        }
        frames.push(NFrame {
            state,
            enabled,
            next: 0,
        });
        sched.push((p as u32, lo, hi));
    }
    res
}

/// Program mutations for counterexample and cross-validation testing.
/// Each one perturbs the communication structure in a way with a known
/// expected verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Delete one `Send` — its receive can never be satisfied, so some
    /// (indeed every) interleaving deadlocks (`LC013`).
    DropSend,
    /// Duplicate one `Send` in place — the key is no longer unique, so
    /// the explorer must fall back to granular transitions and explore
    /// more than one class; determinacy still holds (the duplicate
    /// carries the same payload).
    DupSend,
    /// Delete one `Recv` — the consumer proceeds with stale local
    /// data, so replays diverge from the sequential oracle (`LC014`),
    /// and the orphaned message is flagged by the scan.
    DropRecv,
    /// Swap a `Send` with the op before it when that op is the
    /// `Compute` producing its payload — the message now carries the
    /// pre-compute value, a determinacy/oracle divergence (`LC014`).
    SwapSendEarlier,
}

impl Mutation {
    /// All mutation kinds, for sweep tests.
    pub fn all() -> [Mutation; 4] {
        [
            Mutation::DropSend,
            Mutation::DupSend,
            Mutation::DropRecv,
            Mutation::SwapSendEarlier,
        ]
    }
}

/// Apply `mutation` to a random eligible site chosen by `seed`.
/// Returns `None` if the program has no eligible site (e.g. no
/// messages at all).
pub fn mutate_program(prog: &SpmdProgram, mutation: Mutation, seed: u64) -> Option<SpmdProgram> {
    let mut rng = SplitMix64::new(seed);
    let mut sites: Vec<(usize, usize)> = Vec::new();
    for (p, ops) in prog.per_proc.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            let eligible = match mutation {
                Mutation::DropSend | Mutation::DupSend => matches!(op, Op::Send { .. }),
                Mutation::DropRecv => matches!(op, Op::Recv { .. }),
                Mutation::SwapSendEarlier => {
                    i > 0
                        && matches!(op, Op::Send { .. })
                        && matches!(ops[i - 1], Op::Compute { .. })
                }
            };
            if eligible {
                sites.push((p, i));
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (p, i) = sites[rng.below(sites.len() as u64) as usize];
    let mut out = prog.clone();
    match mutation {
        Mutation::DropSend | Mutation::DropRecv => {
            out.per_proc[p].remove(i);
        }
        Mutation::DupSend => {
            let dup = out.per_proc[p][i].clone();
            out.per_proc[p].insert(i, dup);
        }
        Mutation::SwapSendEarlier => {
            out.per_proc[p].swap(i - 1, i);
        }
    }
    Some(out)
}

fn tag_desc(tag: Tag) -> String {
    format!("(source point {}, dep {})", tag.src_point, tag.dep)
}

/// Run the `LC013`/`LC014` interleaving checks over a generated
/// program. `stats` receives the exploration counters whether or not
/// diagnostics fire.
pub fn check_interleavings(
    nest: &LoopNest,
    cg: &Codegen,
    opts: &InterleaveOptions,
    stats: &mut InterleaveStats,
) -> Vec<Diagnostic> {
    let prog = &cg.program;
    let mut out = Vec::new();
    let expl = explore_dpor(prog, opts, stats);

    if opts.naive_budget > 0 {
        let naive = enumerate_naive(prog, opts.naive_budget, 0);
        stats.naive = naive.interleavings;
        stats.naive_truncated = naive.truncated;
        if !stats.truncated && !naive.truncated && naive.deadlock != expl.deadlock.is_some() {
            // The reduction and the ground truth must agree; a
            // disagreement is a checker bug, surfaced loudly.
            out.push(Diagnostic::error(
                RuleId::InterleavingDeadlock,
                Span::Nest,
                "internal: DPOR and naive enumeration disagree on deadlock reachability",
            ));
        }
    }

    // LC013 — deadlock-freedom under every interleaving.
    if let Some(w) = &expl.deadlock {
        let whom = w
            .blocked
            .iter()
            .map(|&(p, _, tag)| format!("P{p} waits for {}", tag_desc(tag)))
            .collect::<Vec<_>>()
            .join("; ");
        out.push(Diagnostic::error(
            RuleId::InterleavingDeadlock,
            Span::Trace {
                steps: w.steps.clone(),
            },
            format!(
                "deadlock reachable after {} ops ({} macro-steps): {whom}; \
                 no enabled processor remains",
                w.ops(),
                w.steps.len(),
            ),
        ));
        for &(p, op, tag) in w.blocked.iter().take(4) {
            out.push(Diagnostic::info(
                RuleId::InterleavingDeadlock,
                Span::ProgramOp { proc: p, op },
                format!(
                    "P{p} blocks here: receive of {} is never satisfied in this interleaving",
                    tag_desc(tag)
                ),
            ));
        }
    } else if stats.truncated {
        out.push(Diagnostic::warning(
            RuleId::InterleavingDeadlock,
            Span::Nest,
            format!(
                "exploration truncated after {} interleavings / {} transitions; \
                 deadlock-freedom holds on the explored prefix only",
                stats.explored, stats.transitions
            ),
        ));
    }

    // LC014 — determinacy: replay the explored schedules and compare
    // final memories with each other and with the sequential oracle.
    if expl.deadlock.is_none() {
        let mut first: Option<(Vec<u32>, loom_codegen::interp::RunResult)> = None;
        for sched in &expl.schedules {
            match run_schedule(nest, cg, sched, &address_hash_init) {
                Ok(run) => {
                    stats.replays += 1;
                    match &first {
                        None => first = Some((sched.clone(), run)),
                        Some((_, base)) => {
                            if base.gathered.digest() != run.gathered.digest() {
                                let detail = match equivalent(&base.gathered, &run.gathered) {
                                    Err(Divergence::ValueMismatch {
                                        array,
                                        element,
                                        left,
                                        right,
                                    }) => {
                                        let msg = format!(
                                            "two interleavings disagree: {left:?} vs {right:?}"
                                        );
                                        (Span::Element { array, element }, msg)
                                    }
                                    _ => (
                                        Span::Nest,
                                        "two interleavings produce different final memories"
                                            .to_string(),
                                    ),
                                };
                                out.push(Diagnostic::error(
                                    RuleId::InterleavingDeterminacy,
                                    detail.0,
                                    format!(
                                        "{}; the program's result depends on message timing",
                                        detail.1
                                    ),
                                ));
                                break;
                            }
                        }
                    }
                }
                Err(e) => {
                    out.push(Diagnostic::info(
                        RuleId::InterleavingDeterminacy,
                        Span::Nest,
                        format!("replay skipped: {e}"),
                    ));
                    break;
                }
            }
        }
        if let Some((_, base)) = &first {
            let serial = sequential_on(&cg.elements, &address_hash_init);
            if let Err(Divergence::ValueMismatch {
                array,
                element,
                left,
                right,
            }) = equivalent(&base.gathered, &serial)
            {
                out.push(Diagnostic::error(
                    RuleId::InterleavingDeterminacy,
                    Span::Element { array, element },
                    format!(
                        "replayed interleaving computes {left:?} but the sequential oracle \
                         computes {right:?}; the parallel program is not equivalent to the nest"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(src: u32, dep: u16) -> Tag {
        Tag {
            src_point: src,
            dep,
        }
    }

    /// Two independent producer→consumer pairs: 4 procs, 2 messages,
    /// unique tags.
    fn two_pairs() -> SpmdProgram {
        SpmdProgram {
            points: vec![vec![0], vec![1], vec![2], vec![3]],
            per_proc: vec![
                vec![
                    Op::Compute { point: 0 },
                    Op::Send {
                        to: 1,
                        tag: tag(0, 0),
                    },
                ],
                vec![
                    Op::Recv {
                        from: 0,
                        tag: tag(0, 0),
                    },
                    Op::Compute { point: 1 },
                ],
                vec![
                    Op::Compute { point: 2 },
                    Op::Send {
                        to: 3,
                        tag: tag(2, 0),
                    },
                ],
                vec![
                    Op::Recv {
                        from: 2,
                        tag: tag(2, 0),
                    },
                    Op::Compute { point: 3 },
                ],
            ],
        }
    }

    #[test]
    fn batched_dpor_explores_one_class_naive_explodes() {
        let prog = two_pairs();
        assert!(prog.unique_tags());
        let opts = InterleaveOptions::default();
        let mut stats = InterleaveStats::default();
        let expl = explore_dpor(&prog, &opts, &mut stats);
        assert_eq!(stats.explored, 1, "Kahn network: one class");
        assert!(expl.deadlock.is_none());
        assert_eq!(expl.completed, 1);
        let naive = enumerate_naive(&prog, 10_000, 0);
        assert!(!naive.deadlock);
        assert!(
            naive.interleavings > stats.explored,
            "reduction must beat naive: {} vs {}",
            naive.interleavings,
            stats.explored
        );
    }

    #[test]
    fn dropped_send_deadlocks_with_witness() {
        let mut prog = two_pairs();
        // Drop P0's send: P1 blocks forever.
        prog.per_proc[0].pop();
        let opts = InterleaveOptions::default();
        let mut stats = InterleaveStats::default();
        let expl = explore_dpor(&prog, &opts, &mut stats);
        let w = expl.deadlock.expect("deadlock found");
        assert!(stats.deadlocks >= 1);
        assert_eq!(w.blocked, vec![(1, 0, tag(0, 0))]);
        let naive = enumerate_naive(&prog, 10_000, 0);
        assert!(naive.deadlock, "ground truth agrees");
    }

    #[test]
    fn duplicate_key_forces_granular_exploration() {
        // One consumer, two sends with the SAME key: the second send
        // overwrites the slot unless the receive slips in between. The
        // final state is the same either way here, but the explorer
        // must notice the race and explore > 1 class.
        let t = tag(0, 0);
        let prog = SpmdProgram {
            points: vec![vec![0], vec![1]],
            per_proc: vec![
                vec![
                    Op::Compute { point: 0 },
                    Op::Send { to: 1, tag: t },
                    Op::Send { to: 1, tag: t },
                ],
                vec![Op::Recv { from: 0, tag: t }, Op::Compute { point: 1 }],
            ],
        };
        assert!(!prog.unique_tags());
        let opts = InterleaveOptions::default();
        let mut stats = InterleaveStats::default();
        let expl = explore_dpor(&prog, &opts, &mut stats);
        assert!(stats.explored > 1, "race must branch: {stats:?}");
        // One order leaves the second send undelivered (consumer done,
        // message still in the mailbox) — not a deadlock.
        assert!(expl.deadlock.is_none());
        let naive = enumerate_naive(&prog, 10_000, 0);
        assert!(!naive.deadlock);
        assert!(stats.explored <= naive.interleavings);
    }

    #[test]
    fn order_dependent_deadlock_is_found() {
        // P0: send a; send b. P1: recv with key K matching BOTH sends
        // is impossible under tags — instead build the classic shape:
        // two sends with the same key, two receives of that key. If
        // both sends land before the first receive, the second receive
        // starves (the slot was overwritten).
        let t = tag(0, 0);
        let prog = SpmdProgram {
            points: vec![vec![0], vec![1]],
            per_proc: vec![
                vec![Op::Send { to: 1, tag: t }, Op::Send { to: 1, tag: t }],
                vec![Op::Recv { from: 0, tag: t }, Op::Recv { from: 0, tag: t }],
            ],
        };
        let opts = InterleaveOptions::default();
        let mut stats = InterleaveStats::default();
        let expl = explore_dpor(&prog, &opts, &mut stats);
        let naive = enumerate_naive(&prog, 10_000, 0);
        assert!(
            naive.deadlock,
            "send;send;recv;recv starves the second recv"
        );
        assert!(
            expl.deadlock.is_some(),
            "DPOR must find the order-dependent deadlock: {stats:?}"
        );
    }

    #[test]
    fn mutations_have_eligible_sites_and_apply() {
        let prog = two_pairs();
        for m in Mutation::all() {
            let mutated = mutate_program(&prog, m, 7).expect("site exists");
            let before: usize = prog.per_proc.iter().map(Vec::len).sum();
            let after: usize = mutated.per_proc.iter().map(Vec::len).sum();
            match m {
                Mutation::DropSend | Mutation::DropRecv => assert_eq!(after, before - 1),
                Mutation::DupSend => assert_eq!(after, before + 1),
                Mutation::SwapSendEarlier => assert_eq!(after, before),
            }
        }
    }
}
