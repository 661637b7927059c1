//! Critical-path profiling: *why* is the makespan what it is?
//!
//! The paper decomposes `T_exec` into block computation and
//! `t_start + t_comm` communication terms; the aggregates the simulator
//! reports (occupancy, utilization, comm/compute ratio) cannot say
//! *which* tasks and messages actually bound the makespan. This module
//! reconstructs the happens-before chain of a simulated execution from
//! its recorded telemetry and walks the **actual critical path**
//! backwards from the last-finishing task, attributing every tick of
//! the makespan to one of seven buckets:
//!
//! * **compute** — task execution at nominal speed,
//! * **startup** — `t_start` message-startup shares,
//! * **transit** — `words · t_comm` wire-time shares,
//! * **contention** — ticks spent queued behind busy links,
//! * **recv** — software receive processing (`t_recv`),
//! * **fault_recovery** — slowdown excess, injected message delay, and
//!   gaps on fault-injected runs,
//! * **residual** — gaps the reconstruction cannot explain (zero on
//!   every fault-free run; the integration suite asserts this for all
//!   builtin workloads).
//!
//! The walk is exact by construction: the attributed components of the
//! top path always sum to the makespan, because the path covers
//! `[0, makespan]` without gaps or overlaps. On matvec this reproduces
//! the paper's Table I shape — the path's cost is
//! `a·t_calc + b·(t_comm + t_start)` with the same coefficients the
//! analytic model predicts (see `profile.rs` in `loom-tests-int`).
//!
//! Requires a run with both `record_trace` and `collect_metrics` on
//! (both strictly observational, so profiling never perturbs timing).

use crate::metrics::{MsgRecord, RecvRecord};
use crate::program::Program;
use crate::sim::{SimConfig, SimReport};
use crate::trace::TaskRecord;
use loom_obs::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Why a report cannot be profiled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileError {
    /// The report has no task trace (`record_trace` was off).
    MissingTrace,
    /// The report has no telemetry (`collect_metrics` was off).
    MissingMetrics,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::MissingTrace => {
                write!(f, "profiling needs a task trace (enable record_trace)")
            }
            ProfileError::MissingMetrics => {
                write!(f, "profiling needs telemetry (enable collect_metrics)")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// Makespan ticks attributed per cost component.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Nominal task execution.
    pub compute: u64,
    /// `t_start` shares of sends and multi-hop forwarding.
    pub startup: u64,
    /// `words · t_comm` wire time.
    pub transit: u64,
    /// Queuing behind busy links (`link_contention` runs only).
    pub contention: u64,
    /// Software receive processing (`t_recv`).
    pub recv: u64,
    /// Fault slowdown excess, injected delays, and unexplained gaps on
    /// fault-injected runs.
    pub fault_recovery: u64,
    /// Unexplained gaps on fault-free runs (always 0 in practice; kept
    /// separate from `fault_recovery` so any attribution bug is loud).
    pub residual: u64,
}

impl Attribution {
    /// Total attributed ticks.
    pub fn sum(&self) -> u64 {
        self.compute
            + self.startup
            + self.transit
            + self.contention
            + self.recv
            + self.fault_recovery
            + self.residual
    }

    fn merge(&mut self, other: &Attribution) {
        self.compute += other.compute;
        self.startup += other.startup;
        self.transit += other.transit;
        self.contention += other.contention;
        self.recv += other.recv;
        self.fault_recovery += other.fault_recovery;
        self.residual += other.residual;
    }

    /// The attribution as a JSON object (component name → ticks).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("compute", Json::from(self.compute)),
            ("startup", Json::from(self.startup)),
            ("transit", Json::from(self.transit)),
            ("contention", Json::from(self.contention)),
            ("recv", Json::from(self.recv)),
            ("fault_recovery", Json::from(self.fault_recovery)),
            ("residual", Json::from(self.residual)),
        ])
    }
}

/// What one critical-path segment was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// A task executing.
    Compute,
    /// A sender occupied issuing a message.
    Send,
    /// Receive processing.
    Recv,
    /// A message in flight (sender-start to arrival, across links).
    Message,
    /// An unexplained wait.
    Wait,
}

impl SegmentKind {
    /// Short lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Send => "send",
            SegmentKind::Recv => "recv",
            SegmentKind::Message => "message",
            SegmentKind::Wait => "wait",
        }
    }
}

/// One interval of the critical path. Segments are reported in
/// chronological order and tile `[0, finish]` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// What the interval was.
    pub kind: SegmentKind,
    /// The processor it charges (for `Message`: the *sending*
    /// processor; link shares live in the per-link table).
    pub proc: u32,
    /// Start tick.
    pub start: u64,
    /// End tick.
    pub end: u64,
    /// Human label (`task 17`, `msg P0->P3`, …).
    pub label: String,
}

/// One reconstructed path, walked back from `end_task`.
#[derive(Clone, Debug)]
pub struct PathReport {
    /// The task the walk started from.
    pub end_task: u32,
    /// That task's finish tick.
    pub finish: u64,
    /// `makespan - finish` (0 for the true critical path).
    pub slack: u64,
    /// Component attribution over this path (sums to `finish`).
    pub components: Attribution,
    /// The path's segments, chronological.
    pub segments: Vec<Segment>,
}

/// The profiler's output: the critical path, near-critical paths, and
/// per-processor / per-link attribution tables.
#[derive(Clone, Debug)]
pub struct CriticalPathReport {
    /// The simulated makespan.
    pub makespan: u64,
    /// Component attribution of the critical path. **Always** sums to
    /// `makespan`.
    pub components: Attribution,
    /// Critical-path ticks charged to each processor (tasks, sends,
    /// receives, and waits that happened there), indexed by processor.
    pub per_proc: Vec<Attribution>,
    /// Critical-path in-flight ticks charged to each directed link a
    /// path message crossed.
    pub per_link: BTreeMap<(usize, usize), u64>,
    /// In-flight ticks of path messages whose recorded hop count does
    /// not match the topology's static route (fault reroutes); their
    /// link shares cannot be reconstructed, so they are tallied here
    /// instead of in `per_link`. Zero on fault-free runs.
    pub rerouted_ticks: u64,
    /// The critical path first, then up to `k - 1` near-critical paths
    /// in decreasing finish-time order.
    pub paths: Vec<PathReport>,
}

impl CriticalPathReport {
    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        let per_proc = Json::Arr(
            self.per_proc
                .iter()
                .enumerate()
                .map(|(p, a)| {
                    let mut pairs = vec![("proc".to_string(), Json::from(p))];
                    if let Json::Obj(fields) = a.to_json() {
                        pairs.extend(fields);
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        );
        let per_link = Json::Arr(
            self.per_link
                .iter()
                .map(|(&(from, to), &ticks)| {
                    Json::obj(vec![
                        ("from", Json::from(from)),
                        ("to", Json::from(to)),
                        ("ticks", Json::from(ticks)),
                    ])
                })
                .collect(),
        );
        let paths = Json::Arr(
            self.paths
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("end_task", Json::from(u64::from(p.end_task))),
                        ("finish", Json::from(p.finish)),
                        ("slack", Json::from(p.slack)),
                        ("components", p.components.to_json()),
                        (
                            "segments",
                            Json::Arr(
                                p.segments
                                    .iter()
                                    .map(|s| {
                                        Json::obj(vec![
                                            ("kind", Json::from(s.kind.label())),
                                            ("proc", Json::from(u64::from(s.proc))),
                                            ("start", Json::from(s.start)),
                                            ("end", Json::from(s.end)),
                                            ("label", Json::from(s.label.as_str())),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("makespan", Json::from(self.makespan)),
            ("components", self.components.to_json()),
            ("per_proc", per_proc),
            ("per_link", per_link),
            ("rerouted_ticks", Json::from(self.rerouted_ticks)),
            ("paths", paths),
        ])
    }

    /// A human-readable summary table.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let c = &self.components;
        out.push_str(&format!("makespan          {:>12}\n", self.makespan));
        let pct = |v: u64| {
            if self.makespan == 0 {
                0.0
            } else {
                100.0 * v as f64 / self.makespan as f64
            }
        };
        for (name, v) in [
            ("compute", c.compute),
            ("startup", c.startup),
            ("transit", c.transit),
            ("contention", c.contention),
            ("recv", c.recv),
            ("fault_recovery", c.fault_recovery),
            ("residual", c.residual),
        ] {
            if v > 0 || name == "compute" {
                out.push_str(&format!("  {name:<15} {v:>12}  {:5.1}%\n", pct(v)));
            }
        }
        let busiest: Vec<(usize, u64)> = {
            let mut v: Vec<(usize, u64)> = self
                .per_proc
                .iter()
                .enumerate()
                .map(|(p, a)| (p, a.sum()))
                .filter(|&(_, s)| s > 0)
                .collect();
            v.sort_by_key(|&(p, s)| (std::cmp::Reverse(s), p));
            v.truncate(5);
            v
        };
        if !busiest.is_empty() {
            out.push_str("critical-path ticks by processor:\n");
            for (p, s) in busiest {
                out.push_str(&format!("  P{p:<4} {s:>12}  {:5.1}%\n", pct(s)));
            }
        }
        if !self.per_link.is_empty() {
            let mut links: Vec<_> = self.per_link.iter().collect();
            links.sort_by_key(|&(&l, &t)| (std::cmp::Reverse(t), l));
            out.push_str("critical-path in-flight ticks by link:\n");
            for (&(from, to), &t) in links.into_iter().take(5) {
                out.push_str(&format!("  P{from}->P{to}  {t:>10}  {:5.1}%\n", pct(t)));
            }
        }
        for p in &self.paths {
            out.push_str(&format!(
                "path to task {:<6} finish {:>10}  slack {:>8}  ({} segments)\n",
                p.end_task,
                p.finish,
                p.slack,
                p.segments.len()
            ));
        }
        out
    }
}

/// Extract the critical path and up to two near-critical runner-up
/// paths (see [`critical_path_top_k`]).
pub fn critical_path(
    program: &Program,
    config: &SimConfig,
    report: &SimReport,
) -> Result<CriticalPathReport, ProfileError> {
    critical_path_top_k(program, config, report, 3)
}

/// Busy interval on a processor: what ends where.
#[derive(Clone, Copy, Debug)]
enum Activity {
    Task(usize),
    Send(usize),
    Recv(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Visit {
    Task(usize),
    Send(usize),
    Recv(usize),
    Msg(usize),
}

struct Walker<'a> {
    program: &'a Program,
    config: &'a SimConfig,
    trace: &'a [TaskRecord],
    messages: &'a [MsgRecord],
    recvs: &'a [RecvRecord],
    /// Activities per processor, each list sorted by end tick.
    by_proc: Vec<Vec<(u64, u64, Activity)>>,
    /// Message indices per destination processor, sorted by arrival.
    arrivals: Vec<Vec<usize>>,
    faulty: bool,
}

impl<'a> Walker<'a> {
    fn new(
        program: &'a Program,
        config: &'a SimConfig,
        report: &'a SimReport,
    ) -> Result<Walker<'a>, ProfileError> {
        let trace = report.trace.as_deref().ok_or(ProfileError::MissingTrace)?;
        let metrics = report
            .metrics
            .as_ref()
            .ok_or(ProfileError::MissingMetrics)?;
        let n = program.num_procs;
        let mut by_proc: Vec<Vec<(u64, u64, Activity)>> = vec![Vec::new(); n];
        for (i, t) in trace.iter().enumerate() {
            by_proc[t.proc as usize].push((t.start, t.end, Activity::Task(i)));
        }
        for (i, m) in metrics.messages.iter().enumerate() {
            by_proc[m.src_proc as usize].push((m.send_start, m.send_end, Activity::Send(i)));
        }
        for (i, r) in metrics.recvs.iter().enumerate() {
            by_proc[r.proc as usize].push((r.start, r.end, Activity::Recv(i)));
        }
        for list in &mut by_proc {
            list.sort_by_key(|&(start, end, _)| (end, start));
        }
        let mut arrivals: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, m) in metrics.messages.iter().enumerate() {
            arrivals[m.dst_proc as usize].push(i);
        }
        for list in &mut arrivals {
            list.sort_by_key(|&i| metrics.messages[i].arrival);
        }
        Ok(Walker {
            program,
            config,
            trace,
            messages: &metrics.messages,
            recvs: &metrics.recvs,
            by_proc,
            arrivals,
            faulty: report.degradation.is_some(),
        })
    }

    /// Walk backwards from `end_task`'s completion to tick 0, producing
    /// the path segments in reverse-chronological order.
    fn walk(&self, end_idx: usize) -> PathReport {
        let end_rec = self.trace[end_idx];
        let mut segments: Vec<Segment> = Vec::new();
        let mut components = Attribution::default();
        let mut visited: BTreeSet<Visit> = BTreeSet::new();
        let mut proc = end_rec.proc as usize;
        let mut t = end_rec.end;
        // The tasks whose readiness the walk is currently chasing —
        // used to pick the *causal* arrival among same-tick arrivals.
        let mut chasing: Vec<u32> = Vec::new();
        while t > 0 {
            if let Some((start, end, act)) = self.activity_ending_at(proc, t, &visited) {
                match act {
                    Activity::Task(i) => {
                        visited.insert(Visit::Task(i));
                        let rec = self.trace[i];
                        let dur = end - start;
                        let nominal = self.program.flops * self.config.params.t_calc;
                        let slow = dur.saturating_sub(nominal);
                        components.compute += dur - slow;
                        components.fault_recovery += slow;
                        segments.push(Segment {
                            kind: SegmentKind::Compute,
                            proc: rec.proc,
                            start,
                            end,
                            label: format!("task {}", rec.task),
                        });
                        chasing = vec![rec.task];
                    }
                    Activity::Send(i) => {
                        visited.insert(Visit::Send(i));
                        let m = &self.messages[i];
                        // Sender occupancy = one hop's startup + wire
                        // time, plus any wait for the outgoing link.
                        let occ = self.config.params.send_occupancy(m.words);
                        let dur = end - start;
                        components.startup += self.config.params.t_start;
                        components.transit += m.words * self.config.params.t_comm;
                        components.contention += dur.saturating_sub(occ);
                        segments.push(Segment {
                            kind: SegmentKind::Send,
                            proc: m.src_proc,
                            start,
                            end,
                            label: format!("send P{}->P{}", m.src_proc, m.dst_proc),
                        });
                        chasing = vec![m.src_task];
                    }
                    Activity::Recv(i) => {
                        visited.insert(Visit::Recv(i));
                        let r = &self.recvs[i];
                        components.recv += end - start;
                        segments.push(Segment {
                            kind: SegmentKind::Recv,
                            proc: r.proc,
                            start,
                            end,
                            label: format!("recv on P{}", r.proc),
                        });
                        chasing = r.tasks.clone();
                    }
                }
                t = start;
                continue;
            }
            if let Some(i) = self.arrival_at(proc, t, &chasing, &visited) {
                let m = &self.messages[i];
                let span = m.arrival - m.send_start;
                let nominal = self.config.params.message_cost(m.words, m.hops as usize);
                components.fault_recovery += m.fault_delay;
                let wire = span - m.fault_delay;
                components.startup += (m.hops as u64) * self.config.params.t_start;
                components.transit += (m.hops as u64) * m.words * self.config.params.t_comm;
                components.contention += wire.saturating_sub(nominal);
                segments.push(Segment {
                    kind: SegmentKind::Message,
                    proc: m.src_proc,
                    start: m.send_start,
                    end: m.arrival,
                    label: format!("msg P{}->P{}", m.src_proc, m.dst_proc),
                });
                proc = m.src_proc as usize;
                t = m.send_start;
                chasing = vec![m.src_task];
                continue;
            }
            // Nothing on this processor ends here and no message
            // arrives: an unexplained gap back to the previous
            // activity (fault recovery on fault-injected runs).
            let prev = self.by_proc[proc]
                .iter()
                .rev()
                .map(|&(_, end, _)| end)
                .find(|&end| end < t)
                .unwrap_or(0);
            if self.faulty {
                components.fault_recovery += t - prev;
            } else {
                components.residual += t - prev;
            }
            segments.push(Segment {
                kind: SegmentKind::Wait,
                proc: proc as u32,
                start: prev,
                end: t,
                label: "wait".to_string(),
            });
            t = prev;
        }
        segments.reverse();
        PathReport {
            end_task: end_rec.task,
            finish: end_rec.end,
            slack: 0, // filled by the caller
            components,
            segments,
        }
    }

    /// The unvisited busy interval on `proc` ending exactly at `t`,
    /// preferring the longest (a zero-length interval cannot explain
    /// elapsed time).
    fn activity_ending_at(
        &self,
        proc: usize,
        t: u64,
        visited: &BTreeSet<Visit>,
    ) -> Option<(u64, u64, Activity)> {
        self.by_proc[proc]
            .iter()
            .rev()
            .skip_while(|&&(_, end, _)| end > t)
            .take_while(|&&(_, end, _)| end == t)
            .filter(|&&(_, _, act)| !visited.contains(&visit_of(act)))
            .min_by_key(|&&(start, _, _)| start)
            .copied()
    }

    /// The unvisited message arriving at `proc` exactly at `t`,
    /// preferring one that unblocks a task the walk is chasing, then
    /// the latest-issued.
    fn arrival_at(
        &self,
        proc: usize,
        t: u64,
        chasing: &[u32],
        visited: &BTreeSet<Visit>,
    ) -> Option<usize> {
        let candidates = self.arrivals[proc]
            .iter()
            .copied()
            .filter(|&i| self.messages[i].arrival == t && !visited.contains(&Visit::Msg(i)));
        candidates.max_by_key(|&i| {
            let m = &self.messages[i];
            let causal = m.dst_tasks.iter().any(|dt| chasing.contains(dt));
            (causal, m.send_start, std::cmp::Reverse(i))
        })
    }
}

fn visit_of(act: Activity) -> Visit {
    match act {
        Activity::Task(i) => Visit::Task(i),
        Activity::Send(i) => Visit::Send(i),
        Activity::Recv(i) => Visit::Recv(i),
    }
}

/// Extract the critical path plus up to `k - 1` runner-up paths (walked
/// from the next-latest-finishing tasks). Requires a report produced
/// with both `record_trace` and `collect_metrics`.
pub fn critical_path_top_k(
    program: &Program,
    config: &SimConfig,
    report: &SimReport,
    k: usize,
) -> Result<CriticalPathReport, ProfileError> {
    let walker = Walker::new(program, config, report)?;
    if walker.trace.is_empty() {
        return Ok(CriticalPathReport {
            makespan: report.makespan,
            components: Attribution::default(),
            per_proc: vec![Attribution::default(); program.num_procs],
            per_link: BTreeMap::new(),
            rerouted_ticks: 0,
            paths: Vec::new(),
        });
    }
    // End candidates: latest finish first, smallest task id on ties.
    let mut ends: Vec<usize> = (0..walker.trace.len()).collect();
    ends.sort_by_key(|&i| (std::cmp::Reverse(walker.trace[i].end), walker.trace[i].task));
    let mut paths: Vec<PathReport> = Vec::new();
    for &i in ends.iter().take(k.max(1)) {
        let mut path = walker.walk(i);
        path.slack = report.makespan - path.finish;
        paths.push(path);
    }
    // Per-processor and per-link tables come from the true critical
    // path (the first one — its finish IS the makespan).
    let mut per_proc = vec![Attribution::default(); program.num_procs];
    let mut per_link: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut rerouted_ticks = 0u64;
    let critical = &paths[0];
    for seg in &critical.segments {
        let mut one = Attribution::default();
        let dur = seg.end - seg.start;
        match seg.kind {
            SegmentKind::Compute => one.compute = dur,
            SegmentKind::Send => one.startup = dur,
            SegmentKind::Recv => one.recv = dur,
            SegmentKind::Wait => {
                if report.degradation.is_some() {
                    one.fault_recovery = dur;
                } else {
                    one.residual = dur;
                }
            }
            SegmentKind::Message => {
                // In-flight time belongs to links, not processors.
                let msg = walker.messages.iter().find(|m| {
                    m.src_proc == seg.proc && m.send_start == seg.start && m.arrival == seg.end
                });
                let route = msg.map(|m| {
                    config
                        .topology
                        .route_links(m.src_proc as usize, m.dst_proc as usize)
                });
                match (msg, route) {
                    // A recorded hop count differing from the static
                    // route means the message was rerouted around a
                    // fault; its link shares cannot be reconstructed.
                    (Some(m), Some(route))
                        if !route.is_empty() && route.len() as u64 == m.hops as u64 =>
                    {
                        let m_hops = route.len() as u64;
                        let share = dur / m_hops;
                        let extra = dur - share * m_hops;
                        for (j, link) in route.into_iter().enumerate() {
                            let s = share + if j == 0 { extra } else { 0 };
                            *per_link.entry(link).or_insert(0) += s;
                        }
                    }
                    _ => rerouted_ticks += dur,
                }
                continue;
            }
        }
        per_proc[seg.proc as usize].merge(&one);
    }
    Ok(CriticalPathReport {
        makespan: report.makespan,
        components: critical.components,
        per_proc,
        per_link,
        rerouted_ticks,
        paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MachineParams;
    use crate::sim::simulate;
    use crate::topology::Topology;

    fn profiled_config() -> SimConfig {
        SimConfig {
            params: MachineParams {
                t_calc: 1,
                t_start: 10,
                t_comm: 2,
                t_recv: 0,
            },
            topology: Topology::Hypercube(2),
            words_per_arc: 1,
            batch_messages: false,
            link_contention: false,
            record_trace: true,
            collect_metrics: true,
        }
    }

    fn profile(prog: &Program, cfg: &SimConfig) -> CriticalPathReport {
        let report = simulate(prog, cfg).unwrap();
        critical_path(prog, cfg, &report).unwrap()
    }

    #[test]
    fn requires_trace_and_metrics() {
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let mut cfg = profiled_config();
        cfg.record_trace = false;
        let r = simulate(&prog, &cfg).unwrap();
        assert!(matches!(
            critical_path(&prog, &cfg, &r),
            Err(ProfileError::MissingTrace)
        ));
        cfg.record_trace = true;
        cfg.collect_metrics = false;
        let r = simulate(&prog, &cfg).unwrap();
        assert!(matches!(
            critical_path(&prog, &cfg, &r),
            Err(ProfileError::MissingMetrics)
        ));
    }

    #[test]
    fn two_task_chain_attributes_exactly() {
        // task0 (P0, 1 tick) → message (10 + 2 ticks) → task1 (P1, 1
        // tick): makespan 14 = 2 compute + 10 startup + 2 transit.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let cfg = profiled_config();
        let r = profile(&prog, &cfg);
        assert_eq!(r.makespan, 14);
        assert_eq!(r.components.compute, 2);
        assert_eq!(r.components.startup, 10);
        assert_eq!(r.components.transit, 2);
        assert_eq!(r.components.contention, 0);
        assert_eq!(r.components.residual, 0);
        assert_eq!(r.components.sum(), r.makespan);
        // Segments tile [0, makespan] chronologically.
        let segs = &r.paths[0].segments;
        assert_eq!(segs.first().unwrap().start, 0);
        assert_eq!(segs.last().unwrap().end, 14);
        for w in segs.windows(2) {
            assert_eq!(w[1].start, w[0].end, "exact tiling: {segs:#?}");
        }
        // Link attribution covers the whole in-flight span.
        assert_eq!(r.per_link.values().sum::<u64>(), 12);
        assert_eq!(r.rerouted_ticks, 0);
        // Per-proc + per-link tables also cover the makespan.
        let proc_sum: u64 = r.per_proc.iter().map(Attribution::sum).sum();
        assert_eq!(proc_sum + r.per_link.values().sum::<u64>(), r.makespan);
    }

    #[test]
    fn recv_overhead_lands_in_recv_bucket() {
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let mut cfg = profiled_config();
        cfg.params = cfg.params.with_recv(3);
        let r = profile(&prog, &cfg);
        assert_eq!(r.makespan, 17);
        assert_eq!(r.components.recv, 3);
        assert_eq!(r.components.residual, 0);
        assert_eq!(r.components.sum(), r.makespan);
    }

    #[test]
    fn contention_wait_lands_in_contention_bucket() {
        // Two same-route senders on one shared link force queuing.
        let prog = Program::from_parts(
            vec![0, 0, 1, 1],
            vec![(0, 2), (1, 3)],
            vec![0, 1, 3, 3],
            1,
            4,
        );
        let mut cfg = profiled_config();
        cfg.link_contention = true;
        let r = profile(&prog, &cfg);
        assert!(r.components.contention > 0, "{:?}", r.components);
        assert_eq!(r.components.residual, 0);
        assert_eq!(r.components.sum(), r.makespan);
    }

    #[test]
    fn top_k_paths_have_nonincreasing_finish() {
        let prog = Program::from_parts(
            vec![0, 1, 1, 2],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![0, 1, 2, 3],
            2,
            4,
        );
        let cfg = profiled_config();
        let report = simulate(&prog, &cfg).unwrap();
        let r = critical_path_top_k(&prog, &cfg, &report, 3).unwrap();
        assert_eq!(r.paths.len(), 3);
        assert_eq!(r.paths[0].slack, 0);
        for w in r.paths.windows(2) {
            assert!(w[0].finish >= w[1].finish);
            assert!(w[0].slack <= w[1].slack);
        }
        // Every path's attribution covers exactly its own finish time.
        for p in &r.paths {
            assert_eq!(p.components.sum(), p.finish, "task {}", p.end_task);
        }
    }

    #[test]
    fn json_and_human_renderings_work() {
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let cfg = profiled_config();
        let r = profile(&prog, &cfg);
        let j = r.to_json();
        assert_eq!(j.get("makespan").unwrap().as_u64(), Some(14));
        assert_eq!(
            j.get("components")
                .unwrap()
                .get("startup")
                .unwrap()
                .as_u64(),
            Some(10)
        );
        assert!(Json::parse(&j.render()).is_ok());
        let human = r.render_human();
        assert!(human.contains("makespan"));
        assert!(human.contains("compute"));
    }
}
