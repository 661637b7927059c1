//! End-to-end tests of the `loom` binary itself.

use std::process::Command;

fn loom(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn usage_on_no_args() {
    let (_, err, ok) = loom(&[]);
    assert!(!ok);
    assert!(err.contains("usage: loom"));
}

#[test]
fn workloads_lists_all() {
    let (out, _, ok) = loom(&["workloads"]);
    assert!(ok);
    for name in [
        "l1",
        "matmul",
        "matvec",
        "conv1d",
        "sor",
        "transitive",
        "dft",
        "conv2d",
        "triangular",
    ] {
        assert!(out.contains(name), "missing {name}:\n{out}");
    }
}

#[test]
fn partition_prints_paper_numbers() {
    let (out, _, ok) = loom(&["partition", "--workload", "l1", "--size", "4"]);
    assert!(ok);
    assert!(out.contains("33 total, 12 interblock"));
    assert!(out.contains("laws: all hold"));
}

#[test]
fn simulate_reports_makespan() {
    let (out, _, ok) = loom(&[
        "simulate",
        "--workload",
        "matvec",
        "--size",
        "16",
        "--cube",
        "2",
    ]);
    assert!(ok);
    assert!(out.contains("makespan"));
    assert!(out.contains("P3"));
}

#[test]
fn codegen_run_verifies() {
    let (out, _, ok) = loom(&[
        "codegen",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cube",
        "1",
        "--run",
    ]);
    assert!(ok);
    assert!(out.contains("bit-identical"));
}

#[test]
fn table1_matches_paper() {
    let (out, _, ok) = loom(&["table1"]);
    assert!(ok);
    assert!(out.contains("786944·t_calc + 2046·(t_comm+t_start)"));
}

#[test]
fn viz_prints_grids() {
    let (out, _, ok) = loom(&["viz", "--workload", "sor", "--size", "6"]);
    assert!(ok);
    assert!(out.contains("blocks (one letter per block):"));
    assert!(out.contains("hyperplane steps (mod 10):"));
}

#[test]
fn viz_dot_emits_graphviz() {
    let (out, _, ok) = loom(&[
        "viz",
        "--workload",
        "matmul",
        "--size",
        "4",
        "--dot",
        "--cube",
        "2",
    ]);
    assert!(ok);
    assert!(out.contains("digraph groups {"));
    assert!(out.contains("graph tig {"));
    assert!(out.contains("subgraph cluster_p0"));
}

#[test]
fn file_frontend_works() {
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.loom");
    std::fs::write(&path, "for i = 0 to 7\n A[i+1] = A[i] + 1;\n").unwrap();
    let (out, _, ok) = loom(&["partition", "--file", path.to_str().unwrap()]);
    assert!(ok, "partition on file failed:\n{out}");
    assert!(out.contains("D = [[1]]"));
    // A fully serial chain: one block, zero interblock arcs.
    assert!(out.contains("1 blocks"));
}

#[test]
fn bad_workload_fails_cleanly() {
    let (_, err, ok) = loom(&["partition", "--workload", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown workload"));
}

#[test]
fn bad_file_fails_cleanly() {
    let (_, err, ok) = loom(&["partition", "--file", "/definitely/missing.loom"]);
    assert!(!ok);
    assert!(err.contains("cannot read"));
}

#[test]
fn check_clean_pipeline_exits_zero() {
    let (out, _, ok) = loom(&["check", "--workload", "sor", "--size", "8", "--cube", "2"]);
    assert!(ok, "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn check_illegal_pi_reports_lc001_and_fails() {
    let (out, _, ok) = loom(&["check", "--workload", "l1", "--size", "4", "--pi", "1,-1"]);
    assert!(!ok);
    assert!(out.contains("error[LC001]"), "{out}");
    assert!(out.contains("Π·d"), "{out}");
}

#[test]
fn check_json_is_machine_readable() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "4",
        "--pi",
        "1,-1",
        "--json",
    ]);
    assert!(!ok);
    assert!(out.contains("\"rule\": \"LC001\""), "{out}");
    assert!(out.contains("\"severity\": \"error\""), "{out}");
    assert!(out.contains("\"counts\""), "{out}");
}

#[test]
fn check_allow_downgrades_to_warning() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "4",
        "--pi",
        "1,-1",
        "--allow",
        "LC001",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("warning[LC001]"), "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn check_file_frontend_works() {
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("check.loom");
    std::fs::write(&path, "for i = 0 to 7\n A[i+1] = A[i] + 1;\n").unwrap();
    let (out, _, ok) = loom(&["check", "--file", path.to_str().unwrap(), "--cube", "0"]);
    assert!(ok, "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn sim_fault_plan_honors_allow_lc008() {
    // A plan with an inverted window is an LC008 error, but the window
    // simply never applies at runtime — the canonical case for
    // `--allow LC008`. The suppression path must be uniform with every
    // other rule (the plan gate routes through the same Report).
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inverted.json");
    std::fs::write(
        &path,
        r#"{"events": [{"kind": "proc_slow", "proc": 0, "factor": 2, "at": 10, "until": 5}]}"#,
    )
    .unwrap();
    let base = [
        "sim",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cube",
        "1",
        "--fault-plan",
        path.to_str().unwrap(),
    ];
    let (_, err, ok) = loom(&base);
    assert!(!ok, "unallowed LC008 error must refuse the run");
    assert!(err.contains("error[LC008]"), "{err}");
    let mut allowed = base.to_vec();
    allowed.extend(["--allow", "LC008"]);
    let (out, err, ok) = loom(&allowed);
    assert!(ok, "--allow LC008 must admit the run:\n{err}");
    assert!(err.contains("warning[LC008]"), "{err}");
    assert!(out.contains("makespan"), "{out}");
}

#[test]
fn check_explain_prints_catalog_entry() {
    let (out, _, ok) = loom(&["check", "--explain", "LC013"]);
    assert!(ok);
    assert!(out.contains("interleaving-deadlock"), "{out}");
    assert!(out.contains("DPOR"), "{out}");
    assert!(out.contains("docs/CHECKS.md"), "{out}");
    let (_, err, ok) = loom(&["check", "--explain", "LC099"]);
    assert!(!ok);
    assert!(err.contains("LC001 through LC018"), "{err}");
}

#[test]
fn check_interleave_clean_exits_zero() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "6",
        "--cube",
        "2",
        "--interleave",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn check_corrupt_drop_send_reports_lc013_trace() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "6",
        "--cube",
        "2",
        "--corrupt",
        "drop-send",
    ]);
    assert!(!ok);
    assert!(out.contains("error[LC013]"), "{out}");
    assert!(out.contains("trace"), "{out}");
    assert!(out.contains("deadlock"), "{out}");
}

#[test]
fn check_symbolic_and_interleave_conflict() {
    let (_, err, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cube",
        "1",
        "--symbolic",
        "--interleave",
    ]);
    assert!(!ok);
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn explore_ranks() {
    let (out, _, ok) = loom(&[
        "explore",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cubes",
        "1",
        "--top",
        "3",
    ]);
    assert!(ok);
    assert!(out.contains("rank"));
    assert!(out.contains("makespan"));
}

#[test]
fn ring_target_needs_only_its_own_processor_count() {
    // A 2-block nest on a 2-processor ring: the hypercube `--cube`
    // size is not the target, so it must not be mapped.
    let (out, err, ok) = loom(&[
        "simulate",
        "--workload",
        "l1",
        "--size",
        "2",
        "--ring",
        "2",
        "--cube",
        "2",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("Ring(2) (2 procs)"), "{out}");
}

#[test]
fn map_prints_the_target_placement() {
    let (out, err, ok) = loom(&["map", "--workload", "l1", "--size", "4", "--ring", "4"]);
    assert!(ok, "{err}");
    for proc in ["P0", "P1", "P2", "P3"] {
        assert!(out.contains(proc), "missing {proc}:\n{out}");
    }
    assert!(out.contains("quality: "), "{out}");
    // The default hypercube table keeps its binary processor labels.
    let (out, _, ok) = loom(&["map", "--workload", "l1", "--size", "4", "--cube", "1"]);
    assert!(ok);
    assert!(
        out.contains("P0") && out.contains("P1") && !out.contains("P2"),
        "{out}"
    );
}

#[test]
fn codegen_emits_one_program_per_target_processor() {
    let (out, err, ok) = loom(&[
        "codegen",
        "--workload",
        "l1",
        "--size",
        "4",
        "--mesh",
        "2x2",
    ]);
    assert!(ok, "{err}");
    for p in 0..4 {
        assert!(
            out.contains(&format!("processor {p}:")),
            "missing {p}:\n{out}"
        );
    }
    assert!(!out.contains("processor 4:"), "{out}");
}

#[test]
fn closed_stdout_stops_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // The program listing is far larger than a pipe buffer, so the
    // writer is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args([
            "codegen",
            "--workload",
            "matvec",
            "--size",
            "96",
            "--cube",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert_eq!(line, "processor 0:\n");
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(matches!(out.status.code(), Some(0..=2)), "{:?}", out.status);
}

#[test]
fn oversized_space_fails_with_exit_one() {
    // 5·10^9 × 5·10^9 points overflow the point count: the run must stop
    // with a typed error before any allocation, not abort on one.
    let out = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args([
            "simulate",
            "--workload",
            "matvec",
            "--size",
            "5000000000",
            "--cube",
            "4",
        ])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(1), "{:?}: {err}", out.status);
    assert!(err.contains("too large to enumerate"), "{err}");
    assert!(err.contains("explore --symbolic"), "{err}");
}

#[test]
fn projection_overflow_fails_with_exit_one() {
    // |Π|²·x leaves i64 for x ≥ 2: the projection must stop with a typed
    // error naming Π, not panic in rational normalisation.
    for cmd in ["partition", "simulate", "check"] {
        let out = Command::new(env!("CARGO_BIN_EXE_loom"))
            .args([
                cmd,
                "--workload",
                "matvec",
                "--size",
                "8",
                "--pi",
                "3000000000,5",
            ])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{cmd}: {err}");
        assert_eq!(out.status.code(), Some(1), "{cmd} {:?}: {err}", out.status);
        assert!(err.contains("\u{3a0} = (3000000000,5)"), "{cmd}: {err}");
        assert!(err.contains("overflows"), "{cmd}: {err}");
    }
}

#[test]
fn infeasible_statement_offsets_are_reported_as_such() {
    // D = {(1)}, so Π = (1) is legal, but the S0 → S1 intra-iteration
    // edge and the S1 → S0 carried edge close a cycle Π = (1) cannot
    // break at statement granularity; Π = (2) can.
    let path = format!("{}/stmt_cycle.loom", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &path,
        "for i = 1 to 7\n  A[i] = B[i-1] + 1;\n  B[i] = A[i] * 2;\n",
    )
    .expect("temp file writable");
    let out = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(["partition", "--file", &path])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{:?}: {err}", out.status);
    assert!(err.contains("statement offsets"), "{err}");
    assert!(err.contains("cycle through S"), "{err}");
    assert!(!err.contains("no legal time function"), "{err}");
    let (_, err, ok) = loom(&["partition", "--file", &path, "--pi", "2"]);
    assert!(ok, "{err}");
}

#[test]
fn huge_subscript_strides_execute_exactly() {
    // The elements' bounding box spans about 10^27 cells; executors
    // index the 168 elements the nest touches, not the box.
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge_strides.loom");
    std::fs::write(
        &path,
        "for i = 1 to 12\n  for j = 1 to 12\n    \
         A[4000000000000*i, 3000000000000*j] = \
         A[4000000000000*i - 4000000000000, 3000000000000*j] + \
         A[4000000000000*i, 3000000000000*j - 3000000000000];\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let (out, err, ok) = loom(&["codegen", "--file", file, "--cube", "1", "--run"]);
    assert!(ok, "{out}{err}");
    assert!(out.contains("verified: bit-identical"), "{out}");
    let (out, err, ok) = loom(&["check", "--file", file, "--cube", "1", "--interleave"]);
    assert!(ok, "{out}{err}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}
