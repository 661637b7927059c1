//! Spans and counters recorded from the benchmark's own code, around
//! its calls into each crate.
//!
//! A span is named `<layer>.<metric>`: the layer is the crate called
//! (`partition`, `machine`, …) or `job` for a whole job. Layer spans
//! never nest inside one another, so a layer span's duration is its
//! self time; job spans enclose them. Spans are kept in memory and
//! rendered once, at the end, as a Chrome/Perfetto trace.

use crate::alloc;
use loom_obs::chrome::TraceBuilder;
use loom_obs::Recorder;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
struct SpanRec {
    /// `<layer>.<metric>`.
    name: String,
    /// Start, ns since the tracer's epoch.
    start_ns: u64,
    /// Duration in ns.
    dur_ns: u64,
    /// Allocations made (by any thread) while the span was open.
    allocs: u64,
    /// Bytes those allocations requested.
    alloc_bytes: u64,
}

/// A busy interval of an explore pool worker, from the [`Recorder`]
/// handed to `explore_with`.
#[derive(Clone, Debug)]
struct WorkerSpan {
    worker: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Records spans and counters when on; when off, [`span`](Tracer::span)
/// only calls its closure and every other method does nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    workers: RefCell<Vec<WorkerSpan>>,
    counters: RefCell<BTreeMap<String, f64>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer; its epoch is now.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::default(),
            workers: RefCell::default(),
            counters: RefCell::default(),
        }
    }

    /// `true` iff recording.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (a0, b0) = alloc::snapshot();
        let start_ns = self.now_ns();
        let out = f();
        let dur_ns = self.now_ns() - start_ns;
        let (a1, b1) = alloc::snapshot();
        self.spans.borrow_mut().push(SpanRec {
            name: name.to_string(),
            start_ns,
            dur_ns,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        });
        out
    }

    /// Add `n` to counter `name`.
    pub fn count(&self, name: &str, n: f64) {
        if self.on {
            *self
                .counters
                .borrow_mut()
                .entry(name.to_string())
                .or_default() += n;
        }
    }

    /// A recorder to hand to a library call: enabled when tracing.
    pub fn recorder(&self) -> Recorder {
        if self.on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Run an `explore_with` call `f` under span `name` with a fresh
    /// recorder, then keep its pool worker busy intervals, add the
    /// pool's capacity (workers × wall) to `obs.pool.capacity_ns`, and
    /// return the recorder's counters.
    pub fn explore<T>(
        &self,
        name: &str,
        f: impl FnOnce(&Recorder) -> T,
    ) -> (T, BTreeMap<String, u64>) {
        let rec = self.recorder();
        let offset_ns = self.now_ns();
        let start = Instant::now();
        let out = self.span(name, || f(&rec));
        let wall_ns = start.elapsed().as_nanos() as f64;
        let counters = rec.counters();
        if self.on {
            let mut workers = self.workers.borrow_mut();
            for s in rec.spans() {
                if let Some(k) = s.name.strip_prefix("pool.worker.") {
                    let worker = k.parse().unwrap_or(0);
                    workers.push(WorkerSpan {
                        worker,
                        start_ns: offset_ns + s.start_us * 1000,
                        dur_ns: s.dur_us * 1000,
                    });
                    self.count("obs.pool.busy_ns", (s.dur_us * 1000) as f64);
                }
            }
            let n = counters.get("pool.workers").copied().unwrap_or(0);
            self.count("obs.pool.capacity_ns", n as f64 * wall_ns);
        }
        (out, counters)
    }

    /// Every counter recorded so far.
    pub fn counters(&self) -> BTreeMap<String, f64> {
        self.counters.borrow().clone()
    }

    /// Per-name totals: seconds for each span name, plus
    /// `<layer>.allocs` / `<layer>.alloc_bytes` summed over the layer's
    /// spans (job spans excluded, as they enclose layer spans).
    pub fn totals(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            *out.entry(s.name.clone()).or_default() += s.dur_ns as f64 * 1e-9;
            let layer = s.name.split('.').next().unwrap_or("");
            if layer != "job" {
                *out.entry(format!("{layer}.allocs")).or_default() += s.allocs as f64;
                *out.entry(format!("{layer}.alloc_bytes")).or_default() += s.alloc_bytes as f64;
            }
        }
        out
    }

    /// Σ layer span time (job spans excluded), in seconds.
    pub fn layer_seconds(&self) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| !s.name.starts_with("job."))
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// The recorded spans as a Chrome trace-event document: the
    /// benchmark's spans on thread 0, each explore pool worker on its
    /// own thread.
    pub fn chrome(&self, title: &str) -> String {
        let mut tb = TraceBuilder::new();
        tb.process_name(0, title);
        tb.thread_name(0, 0, "bench");
        let mut spans = self.spans.borrow().clone();
        // Enclosing spans first at equal starts, so viewers nest them.
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for s in &spans {
            tb.complete(0, 0, s.start_ns / 1000, (s.dur_ns / 1000).max(1), &s.name);
        }
        let workers = self.workers.borrow();
        let mut named = std::collections::BTreeSet::new();
        for w in workers.iter() {
            if named.insert(w.worker) {
                tb.thread_name(0, w.worker + 1, &format!("pool.worker.{}", w.worker));
            }
            tb.complete(
                0,
                w.worker + 1,
                w.start_ns / 1000,
                (w.dur_ns / 1000).max(1),
                "busy",
            );
        }
        tb.render()
    }
}
