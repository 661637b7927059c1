//! The DPOR explorer with the full-trace race scan: every earlier trace
//! event is tested against every transition, as the explorer did
//! before it indexed events by mailbox key. It is the oracle
//! `loom_check::explore_dpor` must agree with — same
//! `InterleaveStats`, deadlock witness and schedules — because the
//! keyed index only skips events that share no key with the transition,
//! and those can never race.

use loom_check::{DeadlockWitness, Exploration, InterleaveOptions, InterleaveStats};
use loom_codegen::ops::{Op, SpmdProgram, Tag};
use std::collections::{BTreeMap, BTreeSet};

/// A mailbox slot: `(destination processor, tag)`.
type Key = (u32, Tag);

/// A per-processor vector clock.
type Clock = Vec<u64>;

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

fn keys_intersect(a: &[Key], b: &[Key]) -> bool {
    a.iter().any(|k| b.contains(k))
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

/// Ops a deadlock witness executes.
fn ops(w: &DeadlockWitness) -> usize {
    w.steps.iter().map(|&(_, lo, hi)| hi - lo).sum()
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
        .is_none_or(|best| ops(&witness) < ops(best));
    if better {
        out.deadlock = Some(witness);
    }
}

/// Explore the program's interleavings with DPOR. Sound and complete up
/// to the budgets: every Mazurkiewicz equivalence class gets at least
/// one representative, so a clean exploration proves deadlock-freedom
/// for every interleaving, not just the explored ones.
pub fn explore_dpor_full_scan(
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

    while let Some(top) = frames.last_mut() {
        let candidate = top
            .backtrack
            .iter()
            .copied()
            .find(|q| !top.done.contains(q));
        let Some(p) = candidate else {
            frames.pop();
            trace.pop();
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
        for (i, earlier) in trace.iter().enumerate() {
            if earlier.proc == p
                || !keys_intersect(&earlier.keys, &exec.keys)
                || componentwise_leq(&earlier.clock, &pre_clock)
            {
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
        frames.push(child);
        trace.push(exec);
    }
    out
}
