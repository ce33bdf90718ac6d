//! A figure that cannot be written is an error that names the path,
//! from the library call and from `expfig`, which exits non-zero.

use sb_bench::figures::{table1, OutputPaths};
use std::path::PathBuf;
use std::process::Command;

/// A figures directory that cannot exist: its parent is a regular file.
fn blocked(tag: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("sb-figure-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp dir");
    let file = root.join("not-a-dir");
    std::fs::write(&file, b"x").expect("regular file");
    (root, file.join("figs"))
}

#[test]
fn figure_write_errors_name_the_path() {
    let (root, figures) = blocked("lib");
    let paths = OutputPaths {
        results: root.join("results"),
        figures: figures.clone(),
    };
    let err = table1(&paths).expect_err("the figures directory cannot be created");
    assert!(
        err.to_string().contains(&figures.display().to_string()),
        "error does not name {}: {err}",
        figures.display()
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn expfig_exits_non_zero_when_a_figure_cannot_be_written() {
    let (root, figures) = blocked("cli");
    let out = Command::new(env!("CARGO_BIN_EXE_expfig"))
        .args(["table1", "--figures"])
        .arg(&figures)
        .arg("--results")
        .arg(root.join("results"))
        .output()
        .expect("expfig runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&figures.display().to_string()),
        "stderr does not name {}: {stderr}",
        figures.display()
    );
    let _ = std::fs::remove_dir_all(root);
}
