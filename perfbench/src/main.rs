//! `loom-perfbench --workload W --seed N --seconds S --trace 0|1 [--bless]`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (which also writes a Perfetto trace to `--trace-out`,
//! default `perfbench/out/<workload>.trace.json`). `--bless` runs the
//! job list once and rewrites the workload's expected outputs instead.

use loom_obs::Json;
use loom_perfbench::jobs::{self, Workload};
use loom_perfbench::{alloc, Tally};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: loom-perfbench --workload compile_large|explore_sweep|verify_exec \
                     --seed N --seconds S --trace 0|1 [--bless] [--trace-out PATH]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected `{arg}`"))?;
        if key == "bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} expects a whole number"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, not `{other}`")),
        },
        bless,
        trace_out: flags.get("trace-out").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let samples = here.join("../samples");
    let expected_path = here.join("expected.json");
    let setup = || jobs::setup(args.workload, args.seed, &samples, &expected_path);
    let inputs = setup()?;
    let mut tally = Tally::default();
    if args.bless {
        return bless(&inputs, &expected_path);
    }
    let metrics = if args.trace {
        let names = jobs::all_job_names(&samples)?;
        let (metrics, chrome) = loom_perfbench::traced(&inputs, &names, &mut tally)?;
        let path = args.trace_out.clone().unwrap_or_else(|| {
            here.join("out")
                .join(format!("{}.trace.json", args.workload.name()))
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
        metrics
    } else {
        loom_perfbench::measure(&inputs, setup, args.seconds, &mut tally)?
    };
    for e in &tally.errors {
        eprintln!("FAILED {e}");
    }
    println!("{}", loom_perfbench::result_line(&tally, &metrics));
    Ok(())
}

/// Run each job once and store its output as the expected one. Oracle
/// failures still fail: a wrong output is never blessed.
fn bless(inputs: &jobs::Inputs, path: &Path) -> Result<(), String> {
    let mut entries = match &inputs.expected {
        Json::Obj(pairs) => pairs.clone(),
        _ => Vec::new(),
    };
    let tr = loom_perfbench::trace::Tracer::off();
    for job in &inputs.jobs {
        let out = loom_perfbench::attempt(job, &tr, inputs.init_seed)?;
        match entries.iter_mut().find(|(k, _)| *k == job.name) {
            Some(slot) => slot.1 = out,
            None => entries.push((job.name.clone(), out)),
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let text = Json::Obj(entries).render_pretty() + "\n";
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "blessed {} job(s) into {}",
        inputs.jobs.len(),
        path.display()
    );
    Ok(())
}
