//! A harness binary given an argument it does not understand exits with
//! status 2 and a usage line before running anything, so a mistyped flag
//! never runs the full sweep or overwrites `BENCH_serving.json`.

use std::process::Command;

#[test]
fn a_mistyped_flag_exits_2_before_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_smoke"))
        .args(["--scenaro", "trace"])
        .output()
        .expect("perf_smoke starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no scenario ran");
    assert_eq!(
        stderr.lines().collect::<Vec<_>>(),
        [
            "error: unknown argument \"--scenaro\"",
            bench::HarnessOptions::USAGE
        ]
    );
}
