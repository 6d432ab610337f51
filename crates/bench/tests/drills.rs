//! The `repro` degradation drills, end to end: an injected fault on
//! Figure 12 — which replays warm-up sets before its measured one — must
//! degrade the run exactly as it does on the single-replay sweeps, and the
//! command line must reject options, names and labels that select nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove(dss_faultkit::crash::ENV_SITE)
        .output()
        .expect("spawning repro")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dss-repro-drill-{tag}-{}.json", std::process::id()))
}

/// The `sim_compute_ns` of the experiment named `name` in a bench report.
fn sim_compute_ns(json: &str, name: &str) -> u64 {
    let entry = json
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
        .unwrap_or_else(|| panic!("no {name} entry in {json}"));
    let rest = entry
        .split("\"sim_compute_ns\": ")
        .nth(1)
        .expect("sim_compute_ns field");
    rest[..rest.find(',').expect("field ends")]
        .parse()
        .expect("a number")
}

#[test]
fn injected_fig12_arm_exits_partial() {
    let json = temp_path("fig12");
    let out = repro(&[
        "fig12",
        "--sf",
        "0.003",
        "--jobs",
        "2",
        "--inject",
        "fig12/Q3v12/cold",
        "--bench-json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "partial results");
    let report = std::fs::read_to_string(&json).expect("bench report written");
    assert!(
        report.contains("\"site\": \"fig12/Q3v12/cold\""),
        "{report}"
    );
    assert!(
        report.contains("\"failed_experiments\": [\"fig12\"]"),
        "{report}"
    );
    assert!(sim_compute_ns(&report, "fig12") > 0, "compute clock fed");
    let _ = std::fs::remove_file(&json);
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "{stderr}");
    assert!(
        stderr.contains("fig12") && stderr.contains("ext-procs"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn unknown_option_is_a_usage_error_not_an_experiment_name() {
    for (args, flag) in [
        (&["fig8", "--bogus", "2"][..], "--bogus"),
        (&["fig8", "--gen-jobs", "2"][..], "--gen-jobs"),
        (&["fig8", "--gen-jobs=2"][..], "--gen-jobs"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: unknown option {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("unknown experiment"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing ran");
    }
}

#[test]
fn inject_label_that_matches_nothing_is_a_usage_error() {
    let out = repro(&["table1", "--sf", "0.003", "--inject", "fig12/Q6v12/cold"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --inject label fig12/Q6v12/cold matched no sweep point"),
        "{stderr}"
    );
}
