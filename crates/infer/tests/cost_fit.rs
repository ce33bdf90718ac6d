//! The cost model's constants are the fit of its committed inputs.
//!
//! `figures/cost-fit.csv` (written by `expfig cost-fit` at
//! `SB_RUNTIME_THREADS=1`) holds, per (layer, format), what the cost
//! model counts and the measured median self time per sample. This suite
//! fits each group's constants to that table again, by non-negative
//! least squares on relative error, and checks that the constants in
//! `crates/infer/src/cost.rs` equal the fit to two significant digits,
//! and that the compiler's margin covers the fit's median error in every
//! format. It runs no timing.

use sb_infer::cost::{fit, two_significant, LayerStats, Sample, MARGIN};
use sb_infer::ExecFormat;

/// The committed table's samples: the counts columns of [`LayerStats`],
/// `format` and `ns_per_sample` of every row (header first, no quoting).
fn samples() -> Vec<Sample> {
    let csv = include_str!("../../../figures/cost-fit.csv");
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines.next().expect("header row").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| h.trim() == name)
            .unwrap_or_else(|| panic!("cost-fit table has no `{name}` column"))
    };
    let idx: Vec<usize> = [
        "kind",
        "rows",
        "cols",
        "nnz",
        "blocks",
        "words",
        "spatial",
        "stride",
        "tiles",
        "padded",
        "format",
        "ns_per_sample",
    ]
    .iter()
    .map(|n| col(n))
    .collect();
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').map(str::trim).collect();
            let n = |i: usize| -> usize { cells[idx[i]].parse().expect("count") };
            let format = ExecFormat::ALL
                .into_iter()
                .find(|f| f.label() == cells[idx[10]])
                .unwrap_or_else(|| panic!("unknown format in `{line}`"));
            Sample {
                stats: LayerStats {
                    conv: cells[idx[0]] == "conv",
                    rows: n(1),
                    cols: n(2),
                    nnz: n(3),
                    blocks: n(4),
                    words: n(5),
                    spatial: n(6),
                    stride: n(7),
                    tiles: n(8),
                    padded: n(9),
                },
                format,
                ns: cells[idx[11]].parse().expect("time"),
            }
        })
        .collect()
}

#[test]
fn committed_constants_are_the_fit_of_the_committed_table() {
    let samples = samples();
    let mut wrong = Vec::new();
    for f in fit(&samples) {
        assert!(
            f.samples >= 10,
            "{}: only {} samples",
            f.term.label(),
            f.samples
        );
        for ((unit, &fitted), &committed) in f
            .term
            .units()
            .iter()
            .zip(&f.constants)
            .zip(f.term.constants())
        {
            if (two_significant(committed) - fitted).abs() > 1e-9 * fitted.abs() {
                wrong.push(format!(
                    "{} per {unit}: fit {fitted}, committed {committed}",
                    f.term.label()
                ));
            }
        }
        assert_eq!(f.constants.len(), f.term.constants().len());
    }
    assert!(
        wrong.is_empty(),
        "constants differ from the fit:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn margin_covers_the_median_error_of_every_format() {
    let samples = samples();
    let fitted = fit(&samples);
    for format in ExecFormat::ALL {
        let of_format: Vec<Sample> = samples
            .iter()
            .copied()
            .filter(|s| s.format == format)
            .collect();
        let mut errors: Vec<f64> = fitted.iter().flat_map(|f| f.errors(&of_format)).collect();
        assert!(!errors.is_empty(), "no {} samples", format.label());
        errors.sort_by(f64::total_cmp);
        let median = errors[errors.len() / 2];
        assert!(
            median <= MARGIN,
            "{}: median relative error {median:.3} exceeds the margin {MARGIN}",
            format.label()
        );
    }
}
