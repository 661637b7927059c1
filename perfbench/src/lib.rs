//! The loom benchmark: one process per workload drives the library's
//! public entry points, checks every job's output, and reports
//! end-to-end metrics (untraced) or a per-crate breakdown (traced).
//! See `README.md` in this directory.

pub mod alloc;
pub mod jobs;
pub mod procfs;
pub mod trace;

use jobs::{Inputs, Job};
use loom_obs::Json;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;

/// Failed jobs against attempted jobs.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs run.
    pub attempted: u64,
    /// Jobs that errored, panicked, disagreed with an oracle, or
    /// differed from their expected output.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Tally {
    /// Record one job's verdict, keeping its output on success.
    pub fn record(&mut self, verdict: Result<Json, String>) -> Option<Json> {
        self.attempted += 1;
        match verdict {
            Ok(out) => Some(out),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }
}

/// Run `f`, turning a panic into an error.
fn guarded(f: impl FnOnce() -> Result<Json, String>) -> Result<Json, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Run `job` once under its `job.<name>_s` span.
pub fn attempt(job: &Job, tr: &Tracer, init_seed: u64) -> Result<Json, String> {
    let span = format!("job.{}_s", job.name);
    guarded(|| tr.span(&span, || job.run(tr, init_seed))).map_err(|e| format!("{}: {e}", job.name))
}

/// `out` if it equals the expected output of job `name`.
fn verdict(name: &str, out: Result<Json, String>, expected: &Json) -> Result<Json, String> {
    let out = out?;
    match expected.get(name) {
        Some(want) if *want == out => Ok(out),
        Some(want) => Err(format!(
            "{name}: output differs from expected\n  got:  {}\n  want: {}",
            out.render(),
            want.render()
        )),
        None => Err(format!("{name}: no expected output committed")),
    }
}

/// Run the job list once; `None` marks a failed job.
fn run_list(inputs: &Inputs, tr: &Tracer, tally: &mut Tally) -> Vec<Option<Json>> {
    inputs
        .jobs
        .iter()
        .map(|job| {
            let out = attempt(job, tr, inputs.init_seed);
            tally.record(verdict(&job.name, out, &inputs.expected))
        })
        .collect()
}

/// The median of `xs` (the mean of the middle pair for even lengths).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A metric value with its unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Set-ups timed after each job; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// The end-to-end metrics, tracing off: run the job list back to back
/// until another list would overrun `seconds` (at least once) and
/// report the median wall and CPU time of one list.
///
/// After each job, `setup` runs [`SETUP_REPS`] times. A set-up takes
/// well under a millisecond, so its time depends on the host's state at
/// the moment it runs; sampling it between jobs all through the run,
/// instead of in one burst at process start, keeps `setup_s` steady.
/// Those set-ups are left out of the list's wall time, and their wall
/// time is taken off the list's CPU time (set-up is single-threaded).
pub fn measure(
    inputs: &Inputs,
    setup: impl Fn() -> Result<Inputs, String>,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let tr = Tracer::off();
    let start = Instant::now();
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let cpu0 = procfs::cpu_seconds()?;
        let (mut wall, mut setup_wall) = (0.0, 0.0);
        for job in &inputs.jobs {
            let t0 = Instant::now();
            let out = attempt(job, &tr, inputs.init_seed);
            wall += t0.elapsed().as_secs_f64();
            tally.record(verdict(&job.name, out, &inputs.expected));
            for _ in 0..SETUP_REPS {
                let t0 = Instant::now();
                std::hint::black_box(setup()?);
                let dt = t0.elapsed().as_secs_f64();
                setups.push(dt);
                setup_wall += dt;
            }
        }
        let cpu = procfs::cpu_seconds()? - cpu0 - setup_wall;
        eprintln!("list {}: wall {wall:.3} s, cpu {cpu:.2} s", walls.len() + 1);
        walls.push(wall);
        cpus.push(cpu);
        if start.elapsed().as_secs_f64() + median(&walls) > seconds as f64 {
            break;
        }
    }
    let ok = 1.0 - tally.failed as f64 / tally.attempted as f64;
    Ok(vec![
        ("wall_s".into(), median(&walls), "s"),
        ("cpu_s".into(), median(&cpus), "s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mb".into(), procfs::peak_rss_mib()?, "MiB"),
        ("success_ratio".into(), ok, "ratio"),
    ])
}

/// The per-layer metrics every traced run reports, with units. Spans
/// give the `_s` rows, counters the counts; the rest are derived in
/// [`traced`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loopir.parse_s", "s"),
    ("loopir.deps_s", "s"),
    ("loopir.diags", "count"),
    ("hyperplane.search_s", "s"),
    ("hyperplane.offsets_s", "s"),
    ("partition.partition_s", "s"),
    ("partition.comm_stats_s", "s"),
    ("partition.tig_s", "s"),
    ("partition.ns_per_point", "ns/point"),
    ("partition.scaling_exp", "1"),
    ("partition.allocs", "count"),
    ("partition.alloc_bytes", "B"),
    ("partition.points", "count"),
    ("partition.blocks", "count"),
    ("partition.interblock_arcs", "count"),
    ("mapping.map_s", "s"),
    ("mapping.allocs", "count"),
    ("machine.program_s", "s"),
    ("machine.simulate_s", "s"),
    ("machine.scaling_exp", "1"),
    ("machine.messages", "count"),
    ("machine.allocs", "count"),
    ("machine.alloc_bytes", "B"),
    ("check.enumerative_s", "s"),
    ("check.symbolic_s", "s"),
    ("check.interleave_s", "s"),
    ("check.uniformize_s", "s"),
    ("check.interleave.explored", "count"),
    ("check.symbolic.fallback", "count"),
    ("check.allocs", "count"),
    ("codegen.generate_s", "s"),
    ("codegen.interp_s", "s"),
    ("codegen.threads_s", "s"),
    ("codegen.messages", "count"),
    ("exec.sequential_s", "s"),
    ("exec.equivalent_s", "s"),
    ("core.explore_s", "s"),
    ("core.explore_symbolic_s", "s"),
    ("core.explore.candidates", "count"),
    ("core.explore.simulated", "count"),
    ("core.explore.prune_ratio", "ratio"),
    ("core.symbolic.exact_ratio", "ratio"),
    ("core.symbolic.probe_points", "count"),
    ("obs.pool.busy_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Matvec sizes of the scaling ladder (6.5·10^4 → 10^6 points).
const LADDER: [i64; 3] = [256, 512, 1024];

/// Least-squares slope of `ln y` against `ln x`.
fn scaling_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: the job list once untraced (the overhead base),
/// once traced (spans, counters, allocations), each traced output
/// compared with its untraced one, then the matvec scaling ladder.
/// Returns the per-layer metrics (one `job.<name>_s` row per name in
/// `all_jobs`) and the Chrome trace.
pub fn traced(
    inputs: &Inputs,
    all_jobs: &[String],
    tally: &mut Tally,
) -> Result<(Metrics, String), String> {
    let t0 = Instant::now();
    let untraced = run_list(inputs, &Tracer::off(), tally);
    let wall_untraced = t0.elapsed().as_secs_f64();

    let tr = Tracer::on();
    alloc::set_enabled(true);
    let t0 = Instant::now();
    let outs = run_list(inputs, &tr, tally);
    let wall_traced = t0.elapsed().as_secs_f64();
    alloc::set_enabled(false);
    for ((job, a), b) in inputs.jobs.iter().zip(&untraced).zip(&outs) {
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                tally.failed += 1;
                tally
                    .errors
                    .push(format!("{}: traced output differs from untraced", job.name));
            }
        }
    }

    let (mut part_pts, mut mach_pts) = (Vec::new(), Vec::new());
    for size in LADDER {
        let ladder = Tracer::on();
        let points = jobs::ladder_step(size, &ladder)?;
        let t = ladder.totals();
        let get = |k: &str| t.get(k).copied().unwrap_or(0.0);
        part_pts.push((points, get("partition.partition_s")));
        mach_pts.push((points, get("machine.program_s") + get("machine.simulate_s")));
    }

    let mut v: BTreeMap<String, f64> = tr.totals();
    v.extend(tr.counters());
    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let derived = [
        (
            "partition.ns_per_point",
            1e9 * ratio(get("partition.partition_s"), get("partition.points")),
        ),
        ("partition.scaling_exp", scaling_exponent(&part_pts)),
        ("machine.scaling_exp", scaling_exponent(&mach_pts)),
        (
            "core.explore.prune_ratio",
            ratio(get("core.explore.pruned"), get("core.explore.candidates")),
        ),
        (
            "core.symbolic.exact_ratio",
            ratio(
                get("core.symbolic.exact"),
                get("core.symbolic.exact") + get("core.symbolic.fallback"),
            ),
        ),
        (
            "obs.pool.busy_ratio",
            ratio(get("obs.pool.busy_ns"), get("obs.pool.capacity_ns")),
        ),
        ("trace.coverage", ratio(tr.layer_seconds(), wall_traced)),
        ("trace.overhead", ratio(wall_traced, wall_untraced) - 1.0),
    ];
    v.extend(derived.map(|(k, x)| (k.to_string(), x)));
    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let mut metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), get(name), unit))
        .collect();
    for name in all_jobs {
        let key = format!("job.{name}_s");
        metrics.push((key.clone(), get(&key), "s"));
    }
    Ok((metrics, tr.chrome("loom perfbench")))
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = Json::obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::from(*unit)),
            ]);
            (name.clone(), m)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::from(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_expected_value_counts_as_failure() {
        let out = Json::obj(vec![("makespan", Json::from(351817u64))]);
        let good = Json::obj(vec![("j", out.clone())]);
        let corrupt = Json::obj(vec![(
            "j",
            Json::obj(vec![("makespan", Json::from(351818u64))]),
        )]);
        let mut tally = Tally::default();
        assert!(tally.record(verdict("j", Ok(out.clone()), &good)).is_some());
        assert!(tally
            .record(verdict("j", Ok(out.clone()), &corrupt))
            .is_none());
        assert!(tally
            .record(verdict("j", Ok(out), &Json::Obj(Vec::new())))
            .is_none());
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn injected_error_and_panic_count_as_failures() {
        let expected = Json::obj(vec![("j", Json::Null)]);
        let mut tally = Tally::default();
        tally.record(verdict("j", guarded(|| Err("injected".into())), &expected));
        tally.record(verdict(
            "j",
            guarded(|| panic!("injected panic")),
            &expected,
        ));
        tally.record(verdict("j", guarded(|| Ok(Json::Null)), &expected));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.errors[1].contains("injected panic"));
    }

    #[test]
    fn library_error_in_a_real_job_counts_as_failure() {
        // A 2^20-processor machine for matvec 16's 16 blocks: mapping fails.
        let job = jobs::failing_job();
        let mut tally = Tally::default();
        let out = attempt(&job, &Tracer::off(), 0);
        assert!(tally
            .record(verdict(&job.name, out, &Json::Obj(Vec::new())))
            .is_none());
        assert_eq!(tally.failed, 1);
        assert!(tally.errors[0].contains("mapping"), "{:?}", tally.errors);
    }

    #[test]
    fn scaling_exponent_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = [1e3, 1e4, 1e5]
            .iter()
            .map(|&p: &f64| (p, 3.0 * p.powf(1.25)))
            .collect();
        assert!((scaling_exponent(&pts) - 1.25).abs() < 1e-9);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
