//! Fault injection for the grid cache. A fully cached grid resumes from
//! its cell files without pretraining; truncated, empty, foreign and
//! garbage cache files are recomputed to the same bytes; a stale temp
//! file left by a crashed write is ignored; and a cache that cannot be
//! written is counted while the run still returns its records.
//!
//! The tests switch the global trace gate and drain its report, so they
//! have a test binary of their own and each holds [`TRACE`] throughout.

use sb_trace::TraceReport;
use shrinkbench::experiment::{
    DatasetKind, ExperimentConfig, ExperimentRunner, GridRunSummary, ModelKind, PretrainConfig,
    RunRecord,
};
use shrinkbench::{FinetuneConfig, StrategyKind};
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static TRACE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TRACE.lock().unwrap_or_else(|e| e.into_inner())
}

/// 2 strategies × 3 ratios × 1 seed = [`CELLS`] cells.
fn tiny_config(id: &str) -> ExperimentConfig {
    ExperimentConfig {
        id: id.to_string(),
        dataset: DatasetKind::MnistLike,
        data_scale: 16,
        data_seed: 3,
        model: ModelKind::Lenet300_100,
        strategies: vec![StrategyKind::GlobalMagnitude, StrategyKind::Random],
        compressions: vec![2.0, 4.0, 8.0],
        seeds: vec![1],
        pretrain: PretrainConfig {
            epochs: 2,
            patience: None,
            ..PretrainConfig::default()
        },
        finetune: FinetuneConfig {
            epochs: 1,
            patience: None,
            ..FinetuneConfig::default()
        },
    }
}

const CELLS: usize = 6;

/// An empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shrinkbench-cache-faults-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs the grid untraced, so no span of it can reach a later report.
fn cold(runner: &ExperimentRunner, cfg: &ExperimentConfig) -> GridRunSummary {
    sb_trace::set_override(Some(false));
    let summary = runner.run_with_summary(cfg);
    sb_trace::set_override(None);
    summary
}

/// Runs the grid traced and returns the trace it alone left.
fn traced(runner: &ExperimentRunner, cfg: &ExperimentConfig) -> (GridRunSummary, TraceReport) {
    sb_trace::set_override(Some(true));
    let _ = sb_trace::take_report();
    let summary = runner.run_with_summary(cfg);
    let report = sb_trace::take_report();
    sb_trace::set_override(None);
    (summary, report)
}

fn bytes(records: &[RunRecord]) -> String {
    sb_json::to_string(records).expect("records serialize")
}

fn has_pretrain_span(report: &TraceReport, id: &str) -> bool {
    let grid = format!("grid:{id}");
    report
        .roots
        .iter()
        .filter(|root| root.name == grid)
        .any(|root| root.children.iter().any(|c| c.name == "pretrain"))
}

#[test]
fn fully_cached_grid_resumes_without_pretraining() {
    let _lock = lock();
    let dir = scratch("resume");
    let runner = ExperimentRunner::with_cache(&dir);
    let cfg = tiny_config("faults-resume");
    let first = cold(&runner, &cfg);
    assert_eq!((first.computed, first.resumed), (CELLS, 0));

    fs::remove_file(dir.join("faults-resume.json")).expect("the grid file was written");
    let (again, trace) = traced(&runner, &cfg);
    assert_eq!((again.resumed, again.computed), (CELLS, 0));
    assert_eq!(trace.counter("cache_hits"), CELLS as u64);
    assert_eq!(trace.counter("cells_resumed"), CELLS as u64);
    assert_eq!(trace.counter("cells_computed"), 0);
    assert_eq!(
        trace.counter("epochs_trained"),
        0,
        "a fully cached grid trained"
    );
    assert!(
        !has_pretrain_span(&trace, "faults-resume"),
        "a fully cached grid pretrained:\n{}",
        trace.flamegraph()
    );
    assert_eq!(bytes(&again.records), bytes(&first.records));
    assert!(
        dir.join("faults-resume.json").exists(),
        "the grid file is rewritten"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_cache_files_are_recomputed_to_the_same_bytes() {
    let _lock = lock();
    let dir = scratch("damage");
    let runner = ExperimentRunner::with_cache(&dir);
    let cfg = tiny_config("faults-damage");
    let first = cold(&runner, &cfg);
    let cells = dir.join("faults-damage.cells");

    // Killed halfway through writing: half the bytes.
    let truncated = cells.join("cell-s0-c0-r0.json");
    let full = fs::read(&truncated).expect("cell file");
    fs::write(&truncated, &full[..full.len() / 2]).unwrap();
    // Killed right after the file was opened: no bytes at all.
    fs::write(cells.join("cell-s0-c2-r0.json"), b"").unwrap();
    // A valid cell of the same coordinates under another fine-tuning
    // budget, as left behind by an earlier definition of the grid.
    let other_dir = scratch("damage-other");
    let mut other = cfg.clone();
    other.strategies = vec![cfg.strategies[1]];
    other.compressions = vec![cfg.compressions[1]];
    other.finetune.epochs = 2;
    cold(&ExperimentRunner::with_cache(&other_dir), &other);
    fs::copy(
        other_dir
            .join("faults-damage.cells")
            .join("cell-s0-c0-r0.json"),
        cells.join("cell-s1-c1-r0.json"),
    )
    .expect("foreign cell file");
    // And a grid file that is not JSON.
    fs::write(dir.join("faults-damage.json"), "{\"config\": garbage").unwrap();

    let (again, trace) = traced(&runner, &cfg);
    assert_eq!((again.computed, again.resumed), (3, CELLS - 3));
    assert_eq!(trace.counter("cells_computed"), 3);
    assert_eq!(trace.counter("cache_hits"), (CELLS - 3) as u64);
    assert_eq!(bytes(&again.records), bytes(&first.records));

    // The recomputed cells were written back whole.
    fs::remove_file(dir.join("faults-damage.json")).unwrap();
    let third = cold(&runner, &cfg);
    assert_eq!((third.resumed, third.computed), (CELLS, 0));
    assert_eq!(bytes(&third.records), bytes(&first.records));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&other_dir);
}

#[test]
fn stale_temp_files_are_ignored_and_replaced() {
    let _lock = lock();
    let dir = scratch("temp");
    let runner = ExperimentRunner::with_cache(&dir);
    let cfg = tiny_config("faults-temp");
    let first = cold(&runner, &cfg);
    let cells = dir.join("faults-temp.cells");
    fs::remove_file(dir.join("faults-temp.json")).unwrap();

    // A crash between writing a temp file and renaming it leaves the temp
    // beside the cell it would have replaced.
    let beside_valid = cells.join("cell-s0-c0-r0.json.tmp");
    fs::write(&beside_valid, "{\"fingerprint\": \"").unwrap();
    // A crash mid-write of a cell that never landed.
    let missing = cells.join("cell-s1-c2-r0.json");
    let full = fs::read(&missing).expect("cell file");
    fs::remove_file(&missing).unwrap();
    let orphan = cells.join("cell-s1-c2-r0.json.tmp");
    fs::write(&orphan, &full[..full.len() / 3]).unwrap();

    let again = cold(&runner, &cfg);
    assert_eq!((again.resumed, again.computed), (CELLS - 1, 1));
    assert_eq!(bytes(&again.records), bytes(&first.records));
    assert_eq!(fs::read(&missing).expect("cell rewritten"), full);
    assert!(
        !orphan.exists(),
        "the next write of the cell replaces its temp file"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn failed_cache_writes_are_counted_and_the_records_still_returned() {
    let _lock = lock();
    let dir = scratch("unwritable");
    fs::create_dir_all(&dir).unwrap();
    // A regular file where the cache directory should be: every write
    // fails, first at creating its directory.
    let blocked = dir.join("cache");
    fs::write(&blocked, b"").unwrap();
    let mut cfg = tiny_config("faults-unwritable");
    cfg.strategies.truncate(1);
    let cells = cfg.compressions.len();

    let uncached = cold(&ExperimentRunner::default(), &cfg);
    let (summary, trace) = traced(&ExperimentRunner::with_cache(&blocked), &cfg);
    assert_eq!(bytes(&summary.records), bytes(&uncached.records));
    // Each cell file, the grid file, and the trace and flamegraph files.
    assert_eq!(trace.counter("cache_write_failures"), cells as u64 + 3);
    let _ = fs::remove_dir_all(&dir);
}
