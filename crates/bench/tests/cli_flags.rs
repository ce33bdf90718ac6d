//! `serveload` and `schedload` reject out-of-range flag values at parse
//! time: exit 2 with the usage line, never a library assert's panic (or,
//! for `--rps inf` and zero closed-loop requests, a run that never ends).

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` under a 4 GB address-space limit, killing it
/// after 30 s, so a regression that loops while allocating fails the
/// test instead of exhausting the host.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\"", bin])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill");
            panic!("{bin} {args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with("usage:"), "{bin} {args:?}: {stderr}");
}

#[test]
fn serveload_rejects_out_of_range_flags() {
    let bin = env!("CARGO_BIN_EXE_serveload");
    for args in [
        &["--max-batch", "0"][..],
        &["--queue-cap", "0"],
        &["--inflight", "0"],
        &["--rps", "0"],
        &["--rps", "NaN"],
        &["--rps", "inf"],
        &["--ramp", "0"],
        &["--burst", "0"],
        &["--closed", "0"],
        &["--closed", "1", "--requests", "0"],
        &["--horizon-ms", "0"],
    ] {
        assert_rejected(bin, args);
    }
}

#[test]
fn schedload_rejects_out_of_range_flags() {
    assert_rejected(env!("CARGO_BIN_EXE_schedload"), &["--horizon-ms", "0"]);
}

#[test]
fn in_range_flags_still_run() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_serveload"), &["--horizon-ms", "10"][..]),
        (env!("CARGO_BIN_EXE_serveload"), &["--closed", "1", "--requests", "1"]),
        (env!("CARGO_BIN_EXE_schedload"), &["--horizon-ms", "10"]),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{bin} {args:?}: {stderr}");
    }
}
