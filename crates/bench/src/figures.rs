//! Rendering of every table and figure: text charts to stdout, CSV data
//! next to them.
//!
//! Every artifact function writes its `.txt` (and `.csv`) under
//! [`OutputPaths::figures`] and returns the rendered text, or the first
//! write error, which names the path it failed on.

use crate::configs::{experiment_config, Scale};
use sb_corpus::data::build_corpus;
use sb_corpus::{fragmentation, graph, tradeoff};
use sb_report::{AsciiChart, ChartSeries, Table};
use shrinkbench::experiment::{summarize, ExperimentRunner, RunRecord};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Where experiment results are cached and figure CSVs written.
#[derive(Debug, Clone)]
pub struct OutputPaths {
    /// JSON result cache directory.
    pub results: PathBuf,
    /// Rendered figure directory.
    pub figures: PathBuf,
}

impl Default for OutputPaths {
    fn default() -> Self {
        OutputPaths {
            results: PathBuf::from("results"),
            figures: PathBuf::from("figures"),
        }
    }
}

/// Writes `{name}.txt` and, with a table, `{name}.csv` under
/// `paths.figures`. An error names the path it failed on.
fn save(paths: &OutputPaths, name: &str, text: &str, csv: Option<&Table>) -> io::Result<()> {
    let named =
        |path: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    std::fs::create_dir_all(&paths.figures).map_err(|e| named(&paths.figures, e))?;
    let txt = paths.figures.join(format!("{name}.txt"));
    std::fs::write(&txt, text).map_err(|e| named(&txt, e))?;
    if let Some(table) = csv {
        let path = paths.figures.join(format!("{name}.csv"));
        sb_report::write_csv(table, &path).map_err(|e| named(&path, e))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Meta-analysis artifacts (Table 1, Figures 1–5)
// ---------------------------------------------------------------------

/// Table 1: all (dataset, architecture) pairs used by ≥ 4 papers.
pub fn table1(paths: &OutputPaths) -> io::Result<String> {
    let corpus = build_corpus();
    let rows = fragmentation::pair_counts(&corpus, 4);
    let mut table = Table::new(vec!["Dataset", "Architecture", "Number of Papers Using Pair"]);
    for r in &rows {
        table.row(vec![r.dataset.clone(), r.arch.clone(), r.papers.to_string()]);
    }
    let mut out = String::from(
        "Table 1: All combinations of dataset and architecture used in at least 4 out of 81 papers.\n\n",
    );
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\ncorpus totals: {} papers, {} datasets, {} architectures, {} combinations",
        corpus.papers.len(),
        corpus.datasets().len(),
        corpus.architectures().len(),
        corpus.combinations().len()
    );
    save(paths, "table1", &out, Some(&table))?;
    Ok(out)
}

/// Figure 1: size and speed vs accuracy for dense families and pruned
/// models.
pub fn fig1(paths: &OutputPaths) -> io::Result<String> {
    let corpus = build_corpus();
    let panels = tradeoff::figure1(&corpus);
    let mut out = String::from(
        "Figure 1: Size and speed vs accuracy tradeoffs for original and pruned models (ImageNet).\n\n",
    );
    let mut table = Table::new(vec!["panel_x", "panel_y", "series", "x", "y"]);
    for panel in &panels {
        let mut chart = AsciiChart::new(
            format!("{} vs {}", panel.x_axis, panel.y_axis),
            64,
            16,
        )
        .log_x(true)
        .axis_labels(panel.x_axis, panel.y_axis);
        for s in &panel.series {
            chart = chart.series(ChartSeries::new(s.label.clone(), s.points.clone()));
            for &(x, y) in &s.points {
                table.row(vec![
                    panel.x_axis.to_string(),
                    panel.y_axis.to_string(),
                    s.label.clone(),
                    format!("{x:.4e}"),
                    format!("{y:.2}"),
                ]);
            }
        }
        out.push_str(&chart.render());
        out.push('\n');
    }
    out.push_str(
        "Reading: pruned models sometimes beat their original architecture, but rarely beat a better architecture (EfficientNet dominates).\n",
    );
    save(paths, "fig1", &out, Some(&table))?;
    Ok(out)
}

/// Figure 2: histograms of comparisons between papers.
pub fn fig2(paths: &OutputPaths) -> io::Result<String> {
    let corpus = build_corpus();
    let h = graph::comparison_histograms(&corpus);
    let mut out = String::from("Figure 2: Reported comparisons between papers.\n\n");
    let mut table = Table::new(vec!["histogram", "degree", "peer_reviewed", "other"]);
    let render = |title: &str,
                  bars: &[graph::DegreeBar],
                  table: &mut Table,
                  key: &str|
     -> String {
        let mut s = format!("{title}\n");
        for bar in bars {
            if bar.total() == 0 {
                continue;
            }
            let _ = writeln!(
                s,
                "{:>3} | {}{} ({} peer-reviewed, {} other)",
                bar.degree,
                "█".repeat(bar.peer_reviewed),
                "░".repeat(bar.other),
                bar.peer_reviewed,
                bar.other
            );
            table.row(vec![
                key.to_string(),
                bar.degree.to_string(),
                bar.peer_reviewed.to_string(),
                bar.other.to_string(),
            ]);
        }
        s
    };
    out.push_str(&render(
        "Number of papers comparing to a given paper (in-degree):",
        &h.compared_to_by,
        &mut table,
        "compared_to_by",
    ));
    out.push('\n');
    out.push_str(&render(
        "Number of papers a given paper compares to (out-degree):",
        &h.compares_to,
        &mut table,
        "compares_to",
    ));
    let orphans = graph::never_compared_to(&corpus);
    let _ = writeln!(out, "\npapers never compared to by any later study: {}", orphans.len());
    save(paths, "fig2", &out, Some(&table))?;
    Ok(out)
}

/// Figure 3: fragmentation of self-reported results on the four most
/// common configurations.
pub fn fig3(paths: &OutputPaths) -> io::Result<String> {
    let corpus = build_corpus();
    let grid = fragmentation::figure3_grid(&corpus);
    let mut out = String::from(
        "Figure 3: Fragmentation of results. Self-reported results on the most common (dataset, architecture) combinations.\n\n",
    );
    let mut table = Table::new(vec![
        "dataset", "arch", "x_metric", "y_metric", "method", "x", "y",
    ]);
    for cell in &grid {
        let mut chart = AsciiChart::new(
            format!(
                "{} on {} — {:?} vs {:?} ({} methods)",
                cell.arch,
                cell.dataset,
                cell.x_metric,
                cell.y_metric,
                cell.curves.len()
            ),
            64,
            12,
        )
        .log_x(true);
        for (method, pts) in &cell.curves {
            chart = chart.series(ChartSeries::new(method.clone(), pts.clone()));
            for &(x, y) in pts {
                table.row(vec![
                    cell.dataset.clone(),
                    cell.arch.clone(),
                    format!("{:?}", cell.x_metric),
                    format!("{:?}", cell.y_metric),
                    method.clone(),
                    format!("{x:.3}"),
                    format!("{y:.3}"),
                ]);
            }
        }
        out.push_str(&chart.render());
        out.push('\n');
    }
    let papers: std::collections::BTreeSet<&str> =
        corpus.results.iter().map(|r| r.paper.as_str()).collect();
    let _ = writeln!(
        out,
        "{} of the 81 papers report any results using these configurations.",
        papers.len()
    );
    save(paths, "fig3", &out, Some(&table))?;
    Ok(out)
}

/// Figure 4: number of (dataset, architecture) pairs per paper and points
/// per tradeoff curve.
pub fn fig4(paths: &OutputPaths) -> io::Result<String> {
    let corpus = build_corpus();
    let mut out = String::from("Figure 4: Number of results reported by each paper, excluding MNIST.\n\n");
    let mut table = Table::new(vec!["histogram", "count", "peer_reviewed", "other"]);
    for (title, hist, key) in [
        (
            "Number of (dataset, architecture) pairs used per paper:",
            fragmentation::pairs_per_paper(&corpus),
            "pairs_per_paper",
        ),
        (
            "Number of points used to characterize each tradeoff curve:",
            fragmentation::points_per_curve(&corpus),
            "points_per_curve",
        ),
    ] {
        let _ = writeln!(out, "{title}");
        for &(count, pr, other) in &hist.bars {
            if pr + other == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{count:>3} | {}{} ({pr} peer-reviewed, {other} other)",
                "█".repeat(pr),
                "░".repeat(other)
            );
            table.row(vec![
                key.to_string(),
                count.to_string(),
                pr.to_string(),
                other.to_string(),
            ]);
        }
        out.push('\n');
    }
    save(paths, "fig4", &out, Some(&table))?;
    Ok(out)
}

/// Figure 5: magnitude-variant vs all-other-method variation on
/// ResNet-50 / ImageNet.
pub fn fig5(paths: &OutputPaths) -> io::Result<String> {
    let corpus = build_corpus();
    let f5 = tradeoff::figure5(&corpus);
    let mut out = String::from(
        "Figure 5: Pruning ResNet-50 on ImageNet. Top: unstructured magnitude-based variants; bottom: all other methods.\n\n",
    );
    let mut table = Table::new(vec!["panel", "method", "params", "top1"]);
    for (title, series, key) in [
        ("Unstructured magnitude-based pruning:", &f5.magnitude_methods, "magnitude"),
        ("All other methods:", &f5.other_methods, "other"),
    ] {
        let mut chart = AsciiChart::new(title, 64, 14).log_x(true).axis_labels("parameters", "Top-1 (%)");
        for s in series {
            chart = chart.series(ChartSeries::new(s.label.clone(), s.points.clone()));
            for &(x, y) in &s.points {
                table.row(vec![
                    key.to_string(),
                    s.label.clone(),
                    format!("{x:.3e}"),
                    format!("{y:.2}"),
                ]);
            }
        }
        out.push_str(&chart.render());
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "vertical spread — magnitude variants: {:.2} pts, other methods: {:.2} pts",
        tradeoff::vertical_spread(&f5.magnitude_methods),
        tradeoff::vertical_spread(&f5.other_methods)
    );
    save(paths, "fig5", &out, Some(&table))?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Experimental artifacts (Figures 6–18 and ablations)
// ---------------------------------------------------------------------

/// Runs (or loads) the experiment grid backing `experiment_id`.
pub fn run_experiment(experiment_id: &str, scale: Scale, paths: &OutputPaths) -> Vec<RunRecord> {
    let cfg = experiment_config(experiment_id, scale)
        .unwrap_or_else(|| panic!("unknown experiment {experiment_id:?}"));
    let mut runner = ExperimentRunner::with_cache(&paths.results);
    runner.verbose = true;
    runner.run(&cfg)
}

/// Renders one accuracy-vs-efficiency panel from run records, charting
/// the mean across seeds per strategy and tabulating mean ± std.
pub fn render_panel(
    title: &str,
    records: &[RunRecord],
    x_axis: &str, // "compression" or "speedup"
) -> (String, Table) {
    let cells = summarize(records);
    let mut strategies: Vec<&str> = cells.iter().map(|c| c.strategy.as_str()).collect();
    strategies.dedup();
    let mut chart = AsciiChart::new(title, 64, 16)
        .log_x(true)
        .axis_labels(x_axis, "top-1 accuracy");
    let mut table = Table::new(vec![
        "strategy",
        "target_compression",
        "compression",
        "speedup",
        "top1_mean",
        "top1_std",
        "top5_mean",
        "n_seeds",
    ]);
    for strategy in &strategies {
        let pts: Vec<(f64, f64)> = cells
            .iter()
            .filter(|c| c.strategy == *strategy)
            .map(|c| {
                let x = if x_axis == "speedup" {
                    c.speedup.mean
                } else {
                    c.compression.mean
                };
                (x, c.top1.mean)
            })
            .collect();
        chart = chart.series(ChartSeries::new(strategy.to_string(), pts));
    }
    for c in &cells {
        table.row(vec![
            c.strategy.clone(),
            format!("{}", c.target_compression),
            format!("{:.2}", c.compression.mean),
            format!("{:.2}", c.speedup.mean),
            format!("{:.4}", c.top1.mean),
            format!("{:.4}", c.top1.std),
            format!("{:.4}", c.top5.mean),
            c.top1.n.to_string(),
        ]);
    }
    let mut out = chart.render();
    out.push('\n');
    out.push_str(&table.to_markdown());
    if let Some(first) = records.first() {
        let _ = writeln!(
            out,
            "\ndense control: top1 {:.4}, top5 {:.4}",
            first.pretrain_top1, first.pretrain_top5
        );
    }
    (out, table)
}

/// Renders a figure consisting of one or more (experiment, axis) panels.
pub fn experiment_figure(
    name: &str,
    caption: &str,
    panels: &[(&str, &str, &str)], // (experiment id, axis, panel title)
    scale: Scale,
    paths: &OutputPaths,
) -> io::Result<String> {
    let mut out = format!("{caption}\n\n");
    let mut combined: Option<Table> = None;
    for (experiment_id, axis, title) in panels {
        let records = run_experiment(experiment_id, scale, paths);
        let (text, table) = render_panel(title, &records, axis);
        out.push_str(&text);
        out.push('\n');
        combined.get_or_insert(table);
    }
    save(paths, name, &out, combined.as_ref())?;
    Ok(out)
}

/// Figure 8 needs both pretrained models on shared axes, in absolute and
/// Δ-accuracy form.
pub fn fig8(scale: Scale, paths: &OutputPaths) -> io::Result<String> {
    let a = run_experiment("weights-a", scale, paths);
    let b = run_experiment("weights-b", scale, paths);
    let mut out = String::from(
        "Figure 8: Global and Layerwise Magnitude Pruning on two different ResNet-56 models (Weights A: Adam lr 1e-3, Weights B: Adam lr 1e-4).\n\n",
    );
    let mut table = Table::new(vec![
        "weights", "strategy", "compression", "top1", "delta_top1", "pretrain_top1",
    ]);
    let mut absolute = AsciiChart::new("Absolute accuracy", 64, 16)
        .log_x(true)
        .axis_labels("compression", "top-1");
    let mut relative = AsciiChart::new("Change in accuracy (Δ top-1)", 64, 16)
        .log_x(true)
        .axis_labels("compression", "Δ top-1");
    for (tag, records) in [("A", &a), ("B", &b)] {
        let cells = summarize(records);
        let mut strategies: Vec<&str> = cells.iter().map(|c| c.strategy.as_str()).collect();
        strategies.dedup();
        let base = records
            .first()
            .map(|r| r.pretrain_top1 as f64)
            .unwrap_or(0.0);
        for strategy in strategies {
            let short = if strategy.contains("Global") { "Global" } else { "Layer" };
            let abs_pts: Vec<(f64, f64)> = cells
                .iter()
                .filter(|c| c.strategy == strategy)
                .map(|c| (c.compression.mean, c.top1.mean))
                .collect();
            let rel_pts: Vec<(f64, f64)> =
                abs_pts.iter().map(|&(x, y)| (x, y - base)).collect();
            absolute = absolute.series(ChartSeries::new(format!("{short} {tag}"), abs_pts.clone()));
            relative = relative.series(ChartSeries::new(format!("{short} {tag}"), rel_pts));
            for c in cells.iter().filter(|c| c.strategy == strategy) {
                table.row(vec![
                    tag.to_string(),
                    strategy.to_string(),
                    format!("{:.2}", c.compression.mean),
                    format!("{:.4}", c.top1.mean),
                    format!("{:.4}", c.top1.mean - base),
                    format!("{base:.4}"),
                ]);
            }
        }
    }
    out.push_str(&absolute.render());
    out.push('\n');
    out.push_str(&relative.render());
    out.push_str(
        "\nReading: with all else held constant, the two initial models yield different tradeoff curves, and Δ-accuracy does not remove the confounder.\n",
    );
    save(paths, "fig8", &out, Some(&table))?;
    Ok(out)
}

/// The ablation comparing accuracy before vs after fine-tuning, computed
/// from the Figure 7 records at no extra cost.
pub fn ablation_finetune(scale: Scale, paths: &OutputPaths) -> io::Result<String> {
    let records = run_experiment("resnet56", scale, paths);
    let mut out = String::from(
        "Ablation: validation top-1 immediately after pruning vs after fine-tuning (ResNet-56, CIFAR-like).\n\n",
    );
    let mut table = Table::new(vec![
        "strategy",
        "target_compression",
        "top1_before_finetune",
        "top1_after_finetune",
        "recovery",
    ]);
    let mut keys: Vec<(String, f64)> = records
        .iter()
        .map(|r| (r.strategy.clone(), r.target_compression))
        .collect();
    keys.dedup();
    for (strategy, compression) in keys {
        let cell: Vec<&RunRecord> = records
            .iter()
            .filter(|r| r.strategy == strategy && r.target_compression == compression)
            .collect();
        let before: f64 = cell.iter().map(|r| r.top1_before_finetune as f64).sum::<f64>()
            / cell.len() as f64;
        let after: f64 =
            cell.iter().map(|r| r.top1 as f64).sum::<f64>() / cell.len() as f64;
        table.row(vec![
            strategy.clone(),
            format!("{compression}"),
            format!("{before:.4}"),
            format!("{after:.4}"),
            format!("{:+.4}", after - before),
        ]);
    }
    out.push_str(&table.to_markdown());
    save(paths, "ablation-finetune", &out, Some(&table))?;
    Ok(out)
}

/// Side-by-side ablation over two experiment variants.
pub fn ablation_pair(
    name: &str,
    caption: &str,
    id_a: &str,
    id_b: &str,
    scale: Scale,
    paths: &OutputPaths,
) -> io::Result<String> {
    ablation_multi(name, caption, &[id_a, id_b], scale, paths)
}

/// Side-by-side ablation over any number of experiment variants.
pub fn ablation_multi(
    name: &str,
    caption: &str,
    ids: &[&str],
    scale: Scale,
    paths: &OutputPaths,
) -> io::Result<String> {
    let mut out = format!("{caption}\n\n");
    let mut combined = Table::new(vec![
        "variant",
        "strategy",
        "target_compression",
        "compression",
        "speedup",
        "top1_mean",
        "top1_std",
    ]);
    for id in ids {
        let records = run_experiment(id, scale, paths);
        for c in summarize(&records) {
            combined.row(vec![
                id.to_string(),
                c.strategy,
                format!("{}", c.target_compression),
                format!("{:.2}", c.compression.mean),
                format!("{:.2}", c.speedup.mean),
                format!("{:.4}", c.top1.mean),
                format!("{:.4}", c.top1.std),
            ]);
        }
    }
    out.push_str(&combined.to_markdown());
    save(paths, name, &out, Some(&combined))?;
    Ok(out)
}

/// Section 5.2 as an artifact: the same pruned model reported under every
/// metric convention found in the literature.
pub fn metrics_ambiguity(paths: &OutputPaths) -> io::Result<String> {
    use sb_metrics::{ambiguity_report, ModelProfile};
    use sb_nn::NetworkExt;
    use shrinkbench::{GlobalMagnitude, Pruner};

    // A LeNet-5 pruned to 4×: FC-heavy, so conventions disagree sharply.
    let mut rng = sb_tensor::Rng::seed_from(0);
    let mut net = sb_nn::models::lenet5(1, 16, 10, &mut rng);
    Pruner::default()
        .prune(&mut net, &GlobalMagnitude, 4.0, &mut rng)
        .expect("pruning a fresh LeNet-5 cannot fail");
    let _ = net.num_params();
    let profile = ModelProfile::measure(&net);
    let report = ambiguity_report(&profile);

    let mut out = String::from(
        "Metrics ambiguity (Section 5.2): one pruned LeNet-5 (4x global magnitude), reported under every convention in the literature.\n\n",
    );
    let mut table = Table::new(vec!["kind", "convention", "reported value"]);
    out.push_str("\"Compression\" / \"Pruned%\" conventions:\n");
    for (name, value) in &report.size_rows {
        let _ = writeln!(out, "  {name:<34} → {value:.4}");
        table.row(vec!["size".into(), name.clone(), format!("{value:.6}")]);
    }
    out.push_str("\n\"FLOPs\" / \"speedup\" conventions:\n");
    for (name, dense, speedup) in &report.flop_rows {
        let _ = writeln!(out, "  {name:<34} → dense {dense:>10.0} FLOPs, speedup {speedup:.2}x");
        table.row(vec!["flops".into(), name.clone(), format!("{dense:.0}")]);
    }
    let _ = writeln!(
        out,
        "\nspread between largest and smallest dense-FLOP count: {:.2}x\n(the paper found up to 4x for AlexNet across Yang 2017 / Choi 2019 / Han 2015)",
        report.flop_spread
    );
    save(paths, "metrics-ambiguity", &out, Some(&table))?;
    Ok(out)
}

/// Appendix B as an artifact: score this repository's own standard
/// experiment suite against the paper's reviewer checklist.
pub fn checklist_artifact(scale: Scale, paths: &OutputPaths) -> io::Result<String> {
    use shrinkbench::checklist::{evaluate_experiment, evaluate_suite};

    let suite_ids = ["cifar-vgg", "resnet20", "resnet56", "imagenet-resnet18"];
    let configs: Vec<_> = suite_ids
        .iter()
        .map(|id| experiment_config(id, scale).expect("known id"))
        .collect();
    let mut out = String::from(
        "Appendix B checklist, applied to this repository's own standard experiment suite.\n\n",
    );
    let refs: Vec<&shrinkbench::experiment::ExperimentConfig> = configs.iter().collect();
    let suite = evaluate_suite(&refs);
    let _ = writeln!(out, "suite-level items:\n{suite}");
    for (id, cfg) in suite_ids.iter().zip(&configs) {
        let records = run_experiment(id, scale, paths);
        let report = evaluate_experiment(cfg, &records);
        let _ = writeln!(out, "{id}:\n{report}");
    }
    save(paths, "checklist", &out, None)?;
    Ok(out)
}

/// Reporting-hygiene artifact: which of the 37 reporting papers follow
/// which of the Section 6 recommendations.
pub fn hygiene(paths: &OutputPaths) -> io::Result<String> {
    use sb_corpus::hygiene::{hygiene_summary, paper_hygiene};
    let corpus = build_corpus();
    let rows = paper_hygiene(&corpus);
    let summary = hygiene_summary(&corpus);
    let mut out = String::from(
        "Reporting hygiene of the papers with results on the common configurations (Sections 4.3-6).\n\n",
    );
    let mut table = Table::new(vec![
        "paper", "size metric", "compute metric", "top-1", "top-5", "std / error bars", "points",
    ]);
    let tick = |b: bool| if b { "yes" } else { "-" }.to_string();
    for r in &rows {
        table.row(vec![
            r.paper.clone(),
            tick(r.reports_size),
            tick(r.reports_compute),
            tick(r.reports_top1),
            tick(r.reports_top5),
            tick(r.reports_std),
            r.operating_points.to_string(),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\nof {} reporting papers: {} report both efficiency metrics, {} report both accuracy metrics, {} report any measure of central tendency.",
        summary.reporting_papers,
        summary.both_efficiency_metrics,
        summary.both_accuracy_metrics,
        summary.with_central_tendency
    );
    save(paths, "hygiene", &out, Some(&table))?;
    Ok(out)
}

/// Theoretical vs realized speedup for whole compiled models (the
/// Figure 6 metric, made honest): runs the `realized-inference` grid
/// with wall-clock measurement enabled, then charts the paper's
/// multiply-add-ratio speedup against the speedup the compiled
/// inference engine actually delivers over its dense-compiled baseline.
pub fn inference_speedup(scale: Scale, paths: &OutputPaths) -> io::Result<String> {
    let cfg = experiment_config("realized-inference", scale).expect("known id");
    let mut runner = ExperimentRunner::with_cache(&paths.results);
    runner.verbose = true;
    runner.measure_latency = true;
    let records = runner.run(&cfg);
    let cells = summarize(&records);

    let mut out = String::from(
        "Theoretical vs realized speedup (Section 2.1 / Figure 6): LeNet-5 pruned unstructured (Global Weight) and structured (Filter L1), compiled by sb-infer, wall-clock vs the dense-compiled baseline.\n\n",
    );
    let mut strategies: Vec<&str> = cells.iter().map(|c| c.strategy.as_str()).collect();
    strategies.dedup();
    let mut chart = AsciiChart::new("Speedup vs compression", 64, 16)
        .log_x(true)
        .axis_labels("compression", "speedup (x)");
    for strategy in &strategies {
        let of = |f: &dyn Fn(&shrinkbench::experiment::CellSummary) -> Option<f64>| -> Vec<(f64, f64)> {
            cells
                .iter()
                .filter(|c| c.strategy == *strategy)
                .filter_map(|c| f(c).map(|y| (c.compression.mean, y)))
                .collect()
        };
        let theory = of(&|c| Some(c.speedup.mean));
        let real = of(&|c| c.realized_speedup.as_ref().map(|m| m.mean));
        chart = chart.series(ChartSeries::new(format!("theory {strategy}"), theory));
        if !real.is_empty() {
            chart = chart.series(ChartSeries::new(format!("real {strategy}"), real));
        }
    }
    out.push_str(&chart.render());
    out.push('\n');

    let mut table = Table::new(vec![
        "strategy",
        "target_compression",
        "compression",
        "theoretical_speedup",
        "realized_speedup",
        "latency_us",
        "realized_over_theoretical",
    ]);
    for c in &cells {
        let realized = c.realized_speedup.as_ref().map(|m| m.mean);
        table.row(vec![
            c.strategy.clone(),
            format!("{}", c.target_compression),
            format!("{:.2}", c.compression.mean),
            format!("{:.2}", c.speedup.mean),
            realized.map_or("-".into(), |r| format!("{r:.2}")),
            c.latency_us
                .as_ref()
                .map_or("-".into(), |m| format!("{:.0}", m.mean)),
            realized.map_or("-".into(), |r| format!("{:.2}", r / c.speedup.mean.max(1e-9))),
        ]);
    }
    out.push_str(&table.to_markdown());
    out.push_str(
        "\nReading: realized speedup trails the multiply-add ratio at every compression. A stored CSR weight costs more than a dense tile's multiply-add: the packed sparse convolution steps each weight over every 8-pixel tile of its output rows, after copying each sample into a zero-padded buffer. Structured (filter) pruning compiles its thinned layers to CSR or shrunk dense, each priced alone. This is the gap Section 2.1 warns about when papers report FLOP ratios as \"speedup\".\n",
    );
    save(paths, "inference-speedup", &out, Some(&table))?;
    Ok(out)
}

/// Where realized inference latency actually goes: runs a pruned,
/// compiled model under `sb-trace` and attributes wall-clock to each
/// layer × kernel-format span, next to the FLOPs and parameter bytes the
/// kernels report. The dense-compiled baseline is attributed the same
/// way, so the table shows which layers the chosen formats actually
/// accelerated — the per-layer story behind the `inference-speedup`
/// aggregate. Timings are indicative and machine-dependent.
pub fn latency_attribution(paths: &OutputPaths) -> io::Result<String> {
    use sb_tensor::{Rng, Tensor};
    use shrinkbench::{GlobalMagnitude, Pruner};

    // LeNet-5 at 8x global magnitude: sparse enough that the cost model
    // mixes formats (untrained weights; format choice is structural).
    let mut rng = Rng::seed_from(0);
    let mut net = sb_nn::models::lenet5(1, 16, 10, &mut rng);
    let mut prune_rng = Rng::seed_from(1);
    Pruner::default()
        .prune(&mut net, &GlobalMagnitude, 8.0, &mut prune_rng)
        .expect("pruning a fresh LeNet-5 cannot fail");
    let x = Tensor::rand_normal(&[64, 1, 16, 16], 0.0, 1.0, &mut rng);
    let reps = 50;

    let mut out = String::from(
        "Latency attribution: per-layer x kernel-format breakdown of realized inference wall-clock (LeNet-5, 8x global magnitude, batch 64), with the cost model's prediction beside each measured layer.\n\n",
    );
    let mut table = Table::new(vec![
        "variant", "layer", "format", "calls", "self_ms", "pred_ms", "share", "flops", "param_bytes",
    ]);
    let mut errors = Vec::new();
    sb_trace::set_override(Some(true));
    let mut pruned_flame = String::new();
    for (variant, opts) in [
        ("pruned", sb_infer::CompileOptions::default()),
        (
            "dense-baseline",
            sb_infer::CompileOptions {
                force_format: Some(sb_infer::ExecFormat::Dense),
                ..sb_infer::CompileOptions::default()
            },
        ),
    ] {
        let compiled = sb_infer::CompiledModel::compile(&net, &opts);
        std::hint::black_box(compiled.forward(&x)); // warm
        let root = format!("latency-attribution:{variant}");
        {
            let _span = sb_trace::span(&root);
            for _ in 0..reps {
                std::hint::black_box(compiled.forward(&x));
            }
        }
        let trace = sb_trace::report().subtree(&root);
        if variant == "pruned" {
            pruned_flame = trace.flamegraph();
        }
        let Some(infer) = trace
            .roots
            .first()
            .and_then(|r| r.children.iter().find(|c| c.name == "infer"))
        else {
            continue;
        };
        let (mut measured, mut predicted) = (0.0, 0.0);
        for layer in &infer.children {
            let Some(label) = layer.name.strip_prefix("layer:") else {
                continue;
            };
            let (name, format) = label.rsplit_once(':').unwrap_or((label, "?"));
            // The prediction is per sample; the span holds every sample
            // of every rep.
            let pred_ms = compiled
                .plans()
                .iter()
                .find(|p| p.name == name)
                .map_or(0.0, |p| p.predicted_ns * (x.dim(0) * reps) as f64 / 1e6);
            let self_ms = layer.self_ticks as f64 / 1e6;
            measured += self_ms;
            predicted += pred_ms;
            table.row(vec![
                variant.to_string(),
                name.to_string(),
                format.to_string(),
                layer.count.to_string(),
                format!("{self_ms:.3}"),
                format!("{pred_ms:.3}"),
                format!(
                    "{:.1}%",
                    100.0 * layer.total_ticks as f64 / infer.total_ticks.max(1) as f64
                ),
                layer.counter("flops").to_string(),
                layer.counter("bytes_moved").to_string(),
            ]);
        }
        errors.push((variant, measured, predicted));
    }
    sb_trace::set_override(None);
    out.push_str(&table.to_markdown());
    out.push_str("\nWhole-model prediction error (sum of predicted against sum of measured layer self-time):\n\n");
    for (variant, measured, predicted) in errors {
        let _ = writeln!(
            out,
            "- {variant}: measured {measured:.3} ms, predicted {predicted:.3} ms, error {:+.1}%",
            100.0 * (predicted - measured) / measured.max(1e-9)
        );
    }
    out.push_str("\nCollapsed flamegraph of the pruned variant:\n");
    out.push_str(&pruned_flame);
    out.push_str(
        "\nReading: the share column localizes the realized-speedup gap — a CSR layer whose FLOP count fell 8x but whose share barely moved is paying per-row overhead, while shrunk-dense layers convert their smaller FLOP count into a proportional share. pred_ms is the cost model's prediction (crates/infer/src/cost.rs, fitted at one runtime thread) for the same samples, so a layer whose measured time drifts from it shows where the fit no longer describes the kernel.\n",
    );
    save(paths, "latency-attribution", &out, Some(&table))?;
    Ok(out)
}

/// Realized wall-clock of every compiled execution format across
/// sparsity ratios — the crossover picture behind the cost model. For
/// each global-magnitude ratio the same LeNet-5 is compiled five ways
/// (forced dense/CSR/BSR/bitmap plus the auto cost-model pick) and the
/// whole-model forward is timed as a [`sb_metrics::RealizedSweep`]
/// against one shared dense-compiled baseline, then a traced pass
/// attributes self-time to the conv2 layer so the per-layer crossover
/// (where BSR's 4-wide lanes or the bitmap's branch-free loop beat CSR's
/// index chasing) is visible next to the aggregate. Timings are
/// indicative and machine-dependent; the benchmark's `infer` workload
/// times its models over many runs, and `crates/infer/tests/speed.rs`
/// asserts the floors.
pub fn format_crossover(paths: &OutputPaths) -> io::Result<String> {
    use sb_metrics::RealizedSweep;
    use sb_tensor::{Rng, Tensor};
    use shrinkbench::{GlobalMagnitude, Pruner};

    let ratios = [1.0f64, 2.0, 4.0, 16.0];
    let k = 7; // timed runs per median
    let reps = 20; // traced forwards per variant for conv2 attribution
    let mut out = String::from(
        "Format crossover: realized whole-model wall-clock of each compiled kernel format against one shared dense-compiled baseline (LeNet-5, global magnitude, batch 64), with conv2 self-time attributed from the trace.\n\n",
    );
    let mut table = Table::new(vec![
        "ratio", "format", "latency_us", "realized_speedup", "storage_bytes", "conv2_ms_per_call",
    ]);
    let mut series: Vec<(&str, Vec<(f64, f64)>)> =
        vec![("csr", Vec::new()), ("bsr", Vec::new()), ("bitmap", Vec::new()), ("auto", Vec::new())];
    let mut crossover_ratios: Vec<f64> = Vec::new();

    for &ratio in &ratios {
        let mut rng = Rng::seed_from(0);
        let mut net = sb_nn::models::lenet5(1, 16, 10, &mut rng);
        if ratio > 1.0 {
            let mut prune_rng = Rng::seed_from(1);
            Pruner::default()
                .prune(&mut net, &GlobalMagnitude, ratio, &mut prune_rng)
                .expect("pruning a fresh LeNet-5 cannot fail");
        }
        let x = Tensor::rand_normal(&[64, 1, 16, 16], 0.0, 1.0, &mut rng);
        let xr = &x;

        let forced = |f: sb_infer::ExecFormat| sb_infer::CompileOptions {
            force_format: Some(f),
            ..sb_infer::CompileOptions::default()
        };
        let variants: Vec<(&str, sb_infer::CompiledModel)> = [
            ("dense", forced(sb_infer::ExecFormat::Dense)),
            ("csr", forced(sb_infer::ExecFormat::Csr)),
            ("bsr", forced(sb_infer::ExecFormat::Bsr)),
            ("bitmap", forced(sb_infer::ExecFormat::Bitmap)),
            ("auto", sb_infer::CompileOptions::default()),
        ]
        .into_iter()
        .map(|(label, opts)| (label, sb_infer::CompiledModel::compile(&net, &opts)))
        .collect();
        let baseline = &variants[0].1;

        // Whole-model sweep: one shared dense baseline, so every
        // realized-speedup ratio has the same denominator. The "dense"
        // candidate row doubles as a noise gauge (it should sit near 1).
        let sweep = RealizedSweep::measure(
            k,
            || {
                std::hint::black_box(baseline.forward(xr));
            },
            variants
                .iter()
                .map(|(label, compiled)| {
                    (
                        label.to_string(),
                        compiled.plans().iter().map(|p| p.storage_bytes).sum(),
                        Box::new(move || {
                            std::hint::black_box(compiled.forward(xr));
                        }) as Box<dyn FnMut() + '_>,
                    )
                })
                .collect(),
        );

        // Traced pass: pull conv2 self-time per call out of the
        // `infer;layer:conv2:{format}` span for each variant.
        sb_trace::set_override(Some(true));
        let mut conv2_ms: Vec<(&str, f64)> = Vec::new();
        for (label, compiled) in &variants {
            std::hint::black_box(compiled.forward(xr)); // warm
            let root = format!("format-crossover:{ratio}x:{label}");
            {
                let _span = sb_trace::span(&root);
                for _ in 0..reps {
                    std::hint::black_box(compiled.forward(xr));
                }
            }
            let trace = sb_trace::report().subtree(&root);
            let ms = trace
                .roots
                .first()
                .and_then(|r| r.children.iter().find(|c| c.name == "infer"))
                .and_then(|infer| {
                    infer.children.iter().find(|c| c.name.starts_with("layer:conv2:"))
                })
                .map_or(f64::NAN, |l| l.self_ticks as f64 / 1e6 / reps as f64);
            conv2_ms.push((label, ms));
        }
        sb_trace::set_override(None);
        let conv2 = |l: &str| conv2_ms.iter().find(|(n, _)| *n == l).map(|&(_, m)| m);

        for point in &sweep.points {
            table.row(vec![
                format!("{ratio}x"),
                point.label.clone(),
                format!("{:.0}", point.profile.latency_us),
                format!("{:.2}", point.profile.realized_speedup),
                point.profile.storage_bytes.to_string(),
                conv2(&point.label).map_or("-".into(), |m| format!("{m:.3}")),
            ]);
            if let Some((_, s)) = series.iter_mut().find(|(l, _)| *l == point.label) {
                s.push((ratio, point.profile.realized_speedup));
            }
        }
        if let (Some(csr), Some(bsr), Some(bm)) = (conv2("csr"), conv2("bsr"), conv2("bitmap")) {
            if bsr < csr || bm < csr {
                crossover_ratios.push(ratio);
            }
        }
    }

    let mut chart = AsciiChart::new("Realized speedup by format", 64, 16)
        .log_x(true)
        .axis_labels("compression", "realized speedup (x)");
    for (label, points) in &series {
        chart = chart.series(ChartSeries::new(label.to_string(), points.clone()));
    }
    out.push_str(&chart.render());
    out.push('\n');
    out.push_str(&table.to_markdown());
    let crossover_note = if crossover_ratios.is_empty() {
        "on this run CSR ran conv2 faster than BSR and bitmap at every ratio".to_string()
    } else {
        format!(
            "on this run BSR or bitmap beat CSR on conv2 self-time at ratio(s) {}",
            crossover_ratios
                .iter()
                .map(|r| format!("{r}x"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    out.push_str(&format!(
        "\nReading: each point is a median-of-{k} whole-model forward against one shared dense-compiled baseline, timed in interleaved rounds (the dense row gauges measurement noise). The baseline runs the register-tiled dense kernel, so a sparse format has to beat a vectorized dense loop. CSR runs the packed sparse convolution on conv layers (no unfold) and an eight-lane panel kernel on the linear ones, so its time falls with its stored weights and it wins the whole model at high ratios; BSR and bitmap still pay the unfold and their own per-row and per-block costs; {crossover_note}. The auto row is the fitted cost model's pick per layer.\n",
    ));
    save(paths, "format-crossover", &out, Some(&table))?;
    Ok(out)
}

/// The pruned models the cost model is fitted on: the end-to-end
/// benchmark's four `infer` models, built with that benchmark's seeds,
/// and the seven architectures of sb-infer's test zoo pruned by global
/// magnitude at 2/4/8/16×.
pub fn cost_fit_models() -> Vec<(String, sb_nn::models::Model)> {
    use sb_nn::models;
    use sb_tensor::Rng;
    use shrinkbench::structured::FilterNorm;
    use shrinkbench::{GlobalMagnitude, Pruner, Strategy};

    let mut rng = Rng::seed_from(0xBE7C);
    let pruned = |mut net: models::Model, strategy: &dyn Strategy, ratio: f64, rng: &mut Rng| {
        Pruner::default()
            .prune(&mut net, strategy, ratio, rng)
            .expect("pruning a fresh network succeeds");
        net
    };
    let mut out = vec![
        (
            "lenet300_16x".to_string(),
            pruned(models::lenet_300_100(256, 10, &mut Rng::seed_from(1)), &GlobalMagnitude, 16.0, &mut rng),
        ),
        (
            "lenet5_4x".to_string(),
            pruned(models::lenet5(1, 16, 10, &mut Rng::seed_from(2)), &GlobalMagnitude, 4.0, &mut rng),
        ),
        (
            "lenet5_filter4x".to_string(),
            pruned(models::lenet5(1, 16, 10, &mut Rng::seed_from(3)), &FilterNorm, 4.0, &mut rng),
        ),
        (
            "resnet20_8x".to_string(),
            pruned(
                models::resnet_cifar(20, 3, 16, 10, 4, &mut Rng::seed_from(4)),
                &GlobalMagnitude,
                8.0,
                &mut rng,
            ),
        ),
    ];
    for ratio in [2.0, 4.0, 8.0, 16.0] {
        // sb-infer's test zoo: the same constructors, in order, from one
        // seed.
        let mut zrng = Rng::seed_from(0xBEEF);
        let zoo = vec![
            ("lenet_300_100", models::lenet_300_100(256, 10, &mut zrng)),
            ("lenet5", models::lenet5(1, 16, 10, &mut zrng)),
            ("cifar_vgg", models::cifar_vgg(3, 16, 10, 4, &mut zrng)),
            ("cifar_vgg_variant", models::cifar_vgg_variant(3, 16, 10, 4, &mut zrng)),
            ("resnet8", models::resnet_cifar(8, 3, 16, 10, 4, &mut zrng)),
            ("resnet18", models::resnet18(3, 16, 10, 4, &mut zrng)),
            ("mlp", models::mlp(64, &[48, 24], 10, &mut zrng)),
        ];
        let mut prng = Rng::seed_from(ratio as u64);
        for (name, net) in zoo {
            out.push((format!("{name}@{ratio}x"), pruned(net, &GlobalMagnitude, ratio, &mut prng)));
        }
    }
    out
}

/// The cost model's fit inputs and the fit: compiles every model of
/// [`cost_fit_models`] forced into each format, traces `ROUNDS` rounds
/// that each run one warm batch-64 forward of every case, and records per
/// (layer, format) what
/// the cost model counts beside the median self time per sample. The
/// table is `figures/cost-fit.csv`, which `crates/infer/tests/cost_fit.rs`
/// fits again; the text gives the fitted constants, each format's median
/// relative error, and the formats the auto-compiler picks. Run it at
/// `SB_RUNTIME_THREADS=1`, so that every block runs on one thread.
pub fn cost_fit(paths: &OutputPaths) -> io::Result<String> {
    use sb_infer::cost::{fit, Sample, MARGIN};
    use sb_infer::{CompileOptions, CompiledModel, ExecFormat, FeatureShape};
    use sb_tensor::{Rng, Tensor};

    const ROUNDS: usize = 9;
    const BATCH: usize = 64;
    let models = cost_fit_models();
    let mut rng = Rng::seed_from(0xC057);
    // (model, forced format, compiled, input)
    let mut cases = Vec::new();
    for (name, net) in &models {
        for format in ExecFormat::ALL {
            let opts = CompileOptions {
                force_format: Some(format),
                ..CompileOptions::default()
            };
            let compiled = CompiledModel::compile(net, &opts);
            let dims = match compiled.input_shape() {
                FeatureShape::Flat { d } => vec![BATCH, d],
                FeatureShape::Image { c, h, w } => vec![BATCH, c, h, w],
            };
            let x = Tensor::rand_normal(&dims, 0.0, 1.0, &mut rng);
            cases.push((name.as_str(), format, compiled, x));
        }
    }
    // Per case, per layer: the self ns per sample of each round.
    let mut times: Vec<Vec<Vec<f64>>> =
        cases.iter().map(|c| vec![Vec::new(); c.2.plans().len()]).collect();
    // Rounds sweep every case, so a burst of load on the host lands in
    // one sample of each case rather than in all samples of a few; each
    // measured forward follows an unmeasured one of the same case, so its
    // weights and scratch are cached, as when the model serves.
    sb_trace::set_override(Some(true));
    for round in 0..=ROUNDS {
        for (case, per_layer) in cases.iter().zip(&mut times) {
            std::hint::black_box(case.2.forward(&case.3));
            let _ = sb_trace::take_report();
            {
                let _span = sb_trace::span("cost-fit");
                std::hint::black_box(case.2.forward(&case.3));
            }
            let trace = sb_trace::take_report();
            if round == 0 {
                continue; // warm-up
            }
            let Some(infer) = trace
                .roots
                .iter()
                .find(|r| r.name == "cost-fit")
                .and_then(|r| r.children.iter().find(|c| c.name == "infer"))
            else {
                continue;
            };
            for (plan, t) in case.2.plans().iter().zip(per_layer.iter_mut()) {
                let label = format!("layer:{}:{}", plan.name, plan.format.label());
                let ns: u64 = infer.children.iter().filter(|c| c.name == label).map(|c| c.self_ticks).sum();
                t.push(ns as f64 / BATCH as f64);
            }
        }
    }
    sb_trace::set_override(None);

    let mut table = Table::new(vec![
        "model", "layer", "forced", "format", "kind", "rows", "cols", "nnz", "blocks", "words",
        "spatial", "stride", "tiles", "padded", "ns_per_sample",
    ]);
    let mut samples = Vec::new();
    for (case, per_layer) in cases.iter().zip(&mut times) {
        for (plan, t) in case.2.plans().iter().zip(per_layer.iter_mut()) {
            t.sort_by(f64::total_cmp);
            let ns = t[t.len() / 2];
            let st = plan.stats;
            samples.push(Sample {
                stats: st,
                format: plan.format,
                ns,
            });
            table.row(vec![
                case.0.to_string(),
                plan.name.clone(),
                case.1.label().to_string(),
                plan.format.label().to_string(),
                if st.conv { "conv" } else { "linear" }.to_string(),
                st.rows.to_string(),
                st.cols.to_string(),
                st.nnz.to_string(),
                st.blocks.to_string(),
                st.words.to_string(),
                st.spatial.to_string(),
                st.stride.to_string(),
                st.tiles.to_string(),
                st.padded.to_string(),
                format!("{ns:.1}"),
            ]);
        }
    }

    let fitted = fit(&samples);
    let mut out = format!(
        "Cost-model fit: per-layer self time per sample of {} pruned models, each compiled forced into every format, median of {ROUNDS} rounds that each trace one warm batch-64 forward of every case (after an unmeasured one), at {} runtime thread(s).\n\nConstants, ns per unit (non-negative least squares on relative error, two significant digits; crates/infer/src/cost.rs holds them and crates/infer/tests/cost_fit.rs checks them against this table):\n\n",
        models.len(),
        sb_runtime::effective_parallelism(),
    );
    let mut consts = Table::new(vec!["term", "unit", "ns", "layers", "median_rel_err"]);
    for f in &fitted {
        let mut e = f.errors(&samples);
        e.sort_by(f64::total_cmp);
        let median = e.get(e.len() / 2).map_or("-".to_string(), |m| format!("{m:.3}"));
        for (unit, c) in f.term.units().iter().zip(&f.constants) {
            consts.row(vec![
                f.term.label().to_string(),
                unit.to_string(),
                format!("{c}"),
                f.samples.to_string(),
                median.clone(),
            ]);
        }
    }
    out.push_str(&consts.to_markdown());
    out.push_str("\nMedian relative error of the fit, per format:\n\n");
    let mut errs = Table::new(vec!["format", "layers", "median_rel_err"]);
    let mut worst: f64 = 0.0;
    for format in ExecFormat::ALL {
        let of_format: Vec<Sample> = samples.iter().copied().filter(|s| s.format == format).collect();
        let mut e: Vec<f64> = fitted.iter().flat_map(|f| f.errors(&of_format)).collect();
        if e.is_empty() {
            continue;
        }
        e.sort_by(f64::total_cmp);
        let median = e[e.len() / 2];
        worst = worst.max(median);
        errs.row(vec![format.label().to_string(), e.len().to_string(), format!("{median:.3}")]);
    }
    out.push_str(&errs.to_markdown());
    let _ = writeln!(
        out,
        "\nMargin: a sparse format is picked only when predicted at least {:.0}% faster than the dense lane; the largest median error above is {:.1}%.",
        MARGIN * 100.0,
        worst * 100.0
    );
    save(paths, "cost-fit", &out, Some(&table))?;
    Ok(out)
}

/// Per-layer sparsity profile: where Global vs Layerwise magnitude
/// pruning actually removes weights at the same overall ratio — the
/// mechanism behind Figure 6's compression/speedup crossover (global
/// ranking empties the cheap, over-parameterized layers first; layerwise
/// thins every layer, including the spatially expensive early convs).
pub fn sparsity_profile(paths: &OutputPaths) -> io::Result<String> {
    use sb_metrics::ModelProfile;
    use sb_tensor::Rng;
    use shrinkbench::{GlobalMagnitude, LayerMagnitude, Pruner, Strategy};

    let mut out = String::from(
        "Per-layer sparsity at 8x overall compression: Global vs Layerwise magnitude pruning on CIFAR-VGG (untrained weights; the layout effect is structural).\n\n",
    );
    let mut table = Table::new(vec![
        "layer", "params", "kept (Global)", "kept (Layerwise)",
    ]);
    let profiles: Vec<ModelProfile> = [
        Box::new(GlobalMagnitude) as Box<dyn Strategy>,
        Box::new(LayerMagnitude),
    ]
    .iter()
    .map(|strategy| {
        let mut rng = Rng::seed_from(0);
        let mut net = sb_nn::models::cifar_vgg(3, 16, 10, 8, &mut rng);
        let mut prune_rng = Rng::seed_from(1);
        Pruner::default()
            .prune(&mut net, strategy.as_ref(), 8.0, &mut prune_rng)
            .expect("pruning a fresh net succeeds");
        ModelProfile::measure(&net)
    })
    .collect();
    let (global, layer) = (&profiles[0], &profiles[1]);
    for (g, l) in global.params.iter().zip(&layer.params) {
        if !g.prunable {
            continue;
        }
        table.row(vec![
            g.name.clone(),
            g.numel.to_string(),
            format!("{:.1}%", 100.0 * g.effective as f64 / g.numel as f64),
            format!("{:.1}%", 100.0 * l.effective as f64 / l.numel as f64),
        ]);
    }
    out.push_str(&table.to_markdown());
    let _ = writeln!(
        out,
        "\nachieved: Global {:.2}x compression / {:.2}x speedup; Layerwise {:.2}x compression / {:.2}x speedup",
        global.compression_ratio(),
        global.theoretical_speedup(),
        layer.compression_ratio(),
        layer.theoretical_speedup()
    );
    out.push_str("Reading: at equal compression, Layerwise prunes the FLOP-heavy early convolutions as hard as everything else, which is why it buys more theoretical speedup (fig6), while Global protects whichever tensors hold large weights.\n");
    save(paths, "sparsity-profile", &out, Some(&table))?;
    Ok(out)
}

/// Serving under load: pruned vs dense LeNet-300-100 behind the
/// `sb-serve` micro-batcher, swept across offered loads on a virtual
/// clock. Each ratio's model is auto-compiled (the cost model picks each
/// layer's format) and priced by its **effective MACs** through
/// [`crate::mac_price`], so the whole sweep — batch timeouts, queueing,
/// deadline shedding, the reported percentiles — is deterministic and
/// thread-count-independent; the real forward still runs for every
/// batch, it just doesn't set the virtual clock. The benchmark's `serve`
/// and `sched` workloads measure serving in wall-clock time.
pub fn serving_latency(paths: &OutputPaths) -> io::Result<String> {
    use sb_serve::{
        profile, run_open_loop_sim, ArrivalProcess, InferEngine, LoadSpec, ServeConfig, Server,
        SimClock,
    };
    use sb_tensor::{Rng, Tensor};
    use shrinkbench::{GlobalMagnitude, Pruner};
    use std::sync::Arc;

    let ratios = [1.0f64, 4.0, 16.0];
    let loads_rps = [2_000.0f64, 8_000.0, 14_000.0, 20_000.0];
    let horizon_us = 500_000u64; // half a virtual second per point
    let deadline_us = 10_000u64;
    let cfg = ServeConfig {
        max_batch: 16,
        max_wait_us: 1_000,
        queue_cap: 64,
        max_inflight: 1,
    };

    let mut out = String::from(
        "Serving latency under load: LeNet-300-100 (fc 256) pruned at 1x/4x/16x, auto-compiled and served by the sb-serve micro-batcher (batch<=16, 1ms window, queue 64, 10ms deadline), open-loop jittered-uniform arrivals on a virtual clock priced by effective MACs.\n\n",
    );
    let mut table = Table::new(vec![
        "ratio",
        "offered_rps",
        "completed",
        "rejected",
        "throughput_rps",
        "p50_us",
        "p99_us",
        "mean_batch",
    ]);
    let mut p99_series: Vec<ChartSeries> = Vec::new();
    // Per model: its shed count and p99 at the top offered load.
    let mut reading = Vec::new();

    for &ratio in &ratios {
        let mut rng = Rng::seed_from(0);
        let mut net = sb_nn::models::lenet_300_100(256, 10, &mut rng);
        if ratio > 1.0 {
            let mut prune_rng = Rng::seed_from(1);
            Pruner::default()
                .prune(&mut net, &GlobalMagnitude, ratio, &mut prune_rng)
                .expect("pruning a fresh network succeeds");
        }
        let service = crate::mac_price(&sb_infer::CompiledModel::compile(
            &net,
            &sb_infer::CompileOptions::default(),
        ));
        // One pool of request samples, recycled across the sweep.
        let mut input_rng = Rng::seed_from(2);
        let samples: Vec<Vec<f32>> = (0..64)
            .map(|_| {
                Tensor::rand_normal(&[256], 0.0, 1.0, &mut input_rng)
                    .data()
                    .to_vec()
            })
            .collect();

        let mut points = Vec::new();
        let mut top_shed = 0;
        for &rps in &loads_rps {
            let clock = Arc::new(SimClock::new());
            let mut server = Server::new(
                InferEngine::new(
                    sb_infer::CompiledModel::compile(&net, &sb_infer::CompileOptions::default()),
                    service,
                ),
                cfg.clone(),
                clock.clone(),
            );
            let spec = LoadSpec {
                arrivals: ArrivalProcess::Uniform { rate_rps: rps },
                horizon_us,
                seed: 0x5E4E,
                deadline_us: Some(deadline_us),
            };
            let done = run_open_loop_sim(&mut server, &clock, &spec, |i| {
                samples[i % samples.len()].clone()
            });
            let p = profile(&done, horizon_us);
            table.row(vec![
                format!("{ratio}x"),
                format!("{rps:.0}"),
                p.completed.to_string(),
                p.rejected.total().to_string(),
                format!("{:.0}", p.throughput_rps),
                p.p50_us.to_string(),
                p.p99_us.to_string(),
                format!("{:.2}", p.mean_batch),
            ]);
            top_shed = p.rejected.total();
            points.push((rps, p.p99_us as f64));
        }
        let (low_p99, top_p99) = (points[0].1, points[points.len() - 1].1);
        reading.push(format!(
            "{ratio}x sheds {top_shed} at p99 {top_p99:.0} us ({low_p99:.0} us at the lowest load)"
        ));
        p99_series.push(ChartSeries::new(
            format!("{ratio}x ({}us/sample)", service.per_sample_us),
            points,
        ));
    }

    let mut chart = AsciiChart::new(
        "p99 serving latency vs offered load (10ms deadline)",
        72,
        20,
    )
    .axis_labels("offered load (req/s)", "p99 latency (us)");
    for s in p99_series {
        chart = chart.series(s);
    }
    out.push_str(&table.to_markdown());
    out.push('\n');
    out.push_str(&chart.render());
    out.push_str(&format!(
        "\nReading: at the top offered load ({:.0} req/s), {}. A model that sheds there has saturated inside the sweep: its batches are full and the bounded admission queue turns the excess away.\n",
        loads_rps[loads_rps.len() - 1],
        reading.join("; ")
    ));
    save(paths, "serving-latency", &out, Some(&table))?;
    Ok(out)
}

/// Extension (sb-serve + sb-fault): the fault-recovery arc under a
/// seeded outage. A dense LeNet-300-100 primary serves an open-loop
/// load on the virtual clock while a scripted panic burst (a window of
/// primary batch indices, pure function of the fault seed) takes it
/// down; the circuit breaker trips, the 16x-pruned counterpart takes
/// over as the degraded-mode fallback, half-open probes find the
/// primary healthy after the burst, and the breaker re-closes. The
/// artifact buckets completions over virtual time — who served them,
/// what failed, tail latency — and prints the breaker transition
/// timeline. Deterministic and thread-count-independent.
pub fn fault_recovery(paths: &OutputPaths) -> io::Result<String> {
    use sb_serve::{
        run_open_loop_sim, ArrivalProcess, BackoffPolicy, BatchEngine, BreakerConfig, FaultPlan,
        FaultSpec, InferEngine, LoadSpec, Outcome, RejectReason, RetryPolicy, ServeConfig, Server,
        ServedBy, SimClock,
    };
    use sb_tensor::{Rng, Tensor};
    use shrinkbench::{GlobalMagnitude, Pruner};
    use std::sync::Arc;

    const FEATURES: usize = 256;
    const HORIZON_US: u64 = 600_000;
    const BUCKET_US: u64 = 50_000;
    const DEADLINE_US: u64 = 10_000;

    let lenet = |ratio: f64, force: Option<sb_infer::ExecFormat>| {
        let mut rng = Rng::seed_from(0xBE7C);
        let mut net = sb_nn::models::lenet_300_100(FEATURES, 10, &mut rng);
        if ratio > 1.0 {
            let mut prune_rng = Rng::seed_from(1);
            Pruner::default()
                .prune(&mut net, &GlobalMagnitude, ratio, &mut prune_rng)
                .expect("pruning a fresh network succeeds");
        }
        let compiled = sb_infer::CompiledModel::compile(
            &net,
            &sb_infer::CompileOptions {
                force_format: force,
                ..sb_infer::CompileOptions::default()
            },
        );
        let service = crate::mac_price(&compiled);
        InferEngine::new(compiled, service)
    };
    let primary = lenet(1.0, Some(sb_infer::ExecFormat::Dense));
    let fallback = lenet(16.0, None);
    let primary_us = primary.service_us(16);
    let fallback_us = fallback.service_us(16);

    let clock = Arc::new(SimClock::new());
    let mut server = Server::new(
        primary,
        ServeConfig {
            max_batch: 16,
            max_wait_us: 500,
            queue_cap: 64,
            max_inflight: 1,
        },
        clock.clone(),
    )
    .with_faults(FaultPlan::new(FaultSpec {
        panic_per_mille: 900,
        transient_per_mille: 100,
        window_from: Some(100),
        window_until: Some(140),
        ..FaultSpec::none(0xFA17)
    }))
    .with_retry(RetryPolicy {
        max_attempts: 3,
        backoff: BackoffPolicy {
            base_us: 100,
            multiplier: 2,
            max_delay_us: 2_000,
        },
    })
    .with_breaker(BreakerConfig {
        window: 8,
        min_samples: 4,
        error_threshold_per_mille: 500,
        open_us: 5_000,
        probe_batches: 2,
    })
    .with_fallback(fallback);

    let mut input_rng = Rng::seed_from(2);
    let samples: Vec<Vec<f32>> = (0..64)
        .map(|_| {
            Tensor::rand_normal(&[FEATURES], 0.0, 1.0, &mut input_rng)
                .data()
                .to_vec()
        })
        .collect();
    let spec = LoadSpec {
        arrivals: ArrivalProcess::Uniform { rate_rps: 8_000.0 },
        horizon_us: HORIZON_US,
        seed: 0x5E4E,
        deadline_us: Some(DEADLINE_US),
    };
    let done = run_open_loop_sim(&mut server, &clock, &spec, |i| {
        samples[i % samples.len()].clone()
    });
    let events = server.take_breaker_events();

    let mut out = format!(
        "Fault recovery: a dense LeNet-300-100 primary ({primary_us}us per 16-batch) serves 8k req/s on the virtual clock with a 16x-pruned fallback ({fallback_us}us per 16-batch) behind a circuit breaker (trip at 50% errors over 8 batches, 5ms open, 2 probes to re-close). A seeded fault plan panics 90% of primary batches 100..140 — the outage window — and every batch outcome below is a pure function of that seed.\n\n",
    );
    let mut table = Table::new(vec![
        "t_ms",
        "completed",
        "via_primary",
        "via_fallback",
        "engine_failure",
        "other_shed",
        "p50_us",
        "p99_us",
    ]);
    let buckets = (HORIZON_US / BUCKET_US) as usize + 1;
    let mut fallback_share = Vec::new();
    let mut p99_points = Vec::new();
    for b in 0..buckets {
        let (from, until) = (b as u64 * BUCKET_US, (b as u64 + 1) * BUCKET_US);
        let in_bucket: Vec<_> = done
            .iter()
            .filter(|c| c.done_us >= from && c.done_us < until)
            .collect();
        if in_bucket.is_empty() {
            continue;
        }
        let served = |by: ServedBy| {
            in_bucket
                .iter()
                .filter(|c| matches!(c.outcome, Outcome::Completed { served_by, .. } if served_by == by))
                .count()
        };
        let shed = |r: RejectReason| {
            in_bucket
                .iter()
                .filter(|c| c.outcome == Outcome::Rejected { reason: r })
                .count()
        };
        let (via_primary, via_fallback) = (served(ServedBy::Primary), served(ServedBy::Fallback));
        let failures = shed(RejectReason::EngineFailure);
        let other = in_bucket.len() - via_primary - via_fallback - failures;
        let mut lat: Vec<u64> = in_bucket
            .iter()
            .filter(|c| c.is_completed())
            .map(|c| c.done_us - c.submitted_us)
            .collect();
        lat.sort_unstable();
        let p50 = sb_metrics::percentile_us(&lat, 0.50);
        let p99 = sb_metrics::percentile_us(&lat, 0.99);
        table.row(vec![
            format!("{}-{}", from / 1_000, until / 1_000),
            (via_primary + via_fallback).to_string(),
            via_primary.to_string(),
            via_fallback.to_string(),
            failures.to_string(),
            other.to_string(),
            p50.to_string(),
            p99.to_string(),
        ]);
        let t_mid = (from + BUCKET_US / 2) as f64 / 1_000.0;
        if via_primary + via_fallback > 0 {
            fallback_share.push((
                t_mid,
                via_fallback as f64 / (via_primary + via_fallback) as f64,
            ));
            p99_points.push((t_mid, p99 as f64));
        }
    }

    let chart = AsciiChart::new("p99 latency per 50ms bucket across the outage", 72, 18)
        .axis_labels("virtual time (ms)", "p99 latency (us)")
        .series(ChartSeries::new("p99_us", p99_points));
    let share_chart = AsciiChart::new("fallback share of completions per 50ms bucket", 72, 12)
        .axis_labels("virtual time (ms)", "fallback share")
        .series(ChartSeries::new("fallback/completed", fallback_share));

    out.push_str(&table.to_markdown());
    out.push('\n');
    out.push_str(&chart.render());
    out.push('\n');
    out.push_str(&share_chart.render());
    out.push_str("\nBreaker transitions (virtual ms):\n");
    let line = |e: &sb_serve::BreakerTransition| {
        format!("  {:>7.1}  {:?} -> {:?}\n", e.at_us as f64 / 1_000.0, e.from, e.to)
    };
    if events.len() <= 12 {
        for e in &events {
            out.push_str(&line(e));
        }
    } else {
        // The middle is one failed probe cycle after another
        // (Open -> HalfOpen -> Open while the burst lasts); elide it.
        for e in &events[..6] {
            out.push_str(&line(e));
        }
        let _ = writeln!(out, "  ... {} transitions elided (probe cycles during the burst) ...", events.len() - 10);
        for e in &events[events.len() - 4..] {
            out.push_str(&line(e));
        }
    }
    out.push_str(
        "\nReading: before the fault window every completion is served by the dense primary. When the scripted burst begins, the first few batches fail their whole membership (EngineFailure — the panic is contained to the batch, never the server), the breaker trips within one sliding window, and service shifts to the pruned fallback: completions keep flowing and p99 stays inside the deadline because the fallback is an order of magnitude cheaper. While the burst lasts, each half-open probe meets another scripted panic and re-opens the breaker; once the window passes, two clean probes re-close it and the primary takes back the traffic. The pruned model is what makes degraded mode cheap enough to ride out the outage without shedding.\n",
    );
    save(paths, "fault-recovery", &out, Some(&table))?;
    Ok(out)
}

/// Extension (sb-sched): multi-model fairness under one shared pool.
/// Three tenants of the weighted-fair-queueing scheduler — two identical
/// 16x-pruned interactive tenants at WFQ weights 3:1 and a dense
/// batch-class tenant — swept across offered-load multiples of the
/// pool's virtual capacity. Everything runs on the virtual clock priced
/// by effective MACs, so the artifact is deterministic and
/// thread-count-independent. Shows the scheduler's share mechanisms:
/// within a class, served cost tracks weights (3:1) once the tenants
/// are backlogged; across classes, strict priority protects interactive
/// tail latency; the bounded queues shed the excess at admission. The
/// interactive loads are deliberately deadline-free — a deadline-carrying
/// queue head is served EDF-first *ahead of* WFQ order within its class,
/// which would override the 3:1 share this figure demonstrates (the
/// deadline/EDF/quota story is `crates/bench/tests/sched_demos.rs`).
pub fn multi_model_fairness(paths: &OutputPaths) -> io::Result<String> {
    use sb_sched::{
        profile, run_multi_open_loop_sim, MultiServer, Priority, SchedConfig, TenantLoad,
        TenantPolicy, TenantSpec,
    };
    use sb_serve::{ArrivalProcess, InferEngine, SimClock};
    use sb_tensor::Rng;
    use shrinkbench::{GlobalMagnitude, Pruner};
    use std::sync::Arc;

    const FEATURES: usize = 256;
    const MAX_BATCH: usize = 16;
    const MAX_INFLIGHT: usize = 2;
    const HORIZON_US: u64 = 300_000;

    // One compiled model per tenant (engines are stateful); identical
    // networks, so any difference in service is the scheduler's doing.
    let lenet = |ratio: f64, force: Option<sb_infer::ExecFormat>| {
        let mut rng = Rng::seed_from(0xBE7C);
        let mut net = sb_nn::models::lenet_300_100(FEATURES, 10, &mut rng);
        if ratio > 1.0 {
            let mut prune_rng = Rng::seed_from(1);
            Pruner::default()
                .prune(&mut net, &GlobalMagnitude, ratio, &mut prune_rng)
                .expect("pruning a fresh network succeeds");
        }
        let compiled = sb_infer::CompiledModel::compile(
            &net,
            &sb_infer::CompileOptions {
                force_format: force,
                ..sb_infer::CompileOptions::default()
            },
        );
        let service = crate::mac_price(&compiled);
        InferEngine::new(compiled, service)
    };
    let policy = TenantPolicy {
        max_batch: MAX_BATCH,
        max_wait_us: 500,
        queue_cap: 128,
        quota: None,
    };
    let tenants = || {
        vec![
            TenantSpec::new(
                "pruned-w3",
                3,
                Priority::Interactive,
                policy,
                Arc::new(lenet(16.0, None)),
            ),
            TenantSpec::new(
                "pruned-w1",
                1,
                Priority::Interactive,
                policy,
                Arc::new(lenet(16.0, None)),
            ),
            TenantSpec::new(
                "dense",
                1,
                Priority::Batch,
                policy,
                Arc::new(lenet(1.0, Some(sb_infer::ExecFormat::Dense))),
            ),
        ]
    };
    // Virtual capacity: MAX_INFLIGHT batch streams, each delivering one
    // virtual microsecond of service per microsecond. A full interactive
    // batch costs service_us(MAX_BATCH), so the interactive saturation
    // point (both pruned tenants combined) is:
    let probe = tenants();
    let batch_cost = probe[0].engine.service_us(MAX_BATCH);
    let sat_rps = (MAX_INFLIGHT as f64) * 1.0e6 * (MAX_BATCH as f64) / (batch_cost as f64);
    let dense_rps = 2_000.0;

    let mut out = String::from(
        "Multi-model fairness: two identical 16x-pruned LeNet-300-100 interactive tenants (WFQ weights 3:1, deadline-free so WFQ — not EDF — arbitrates) and a dense batch-class tenant (2k req/s throughout) share one pool (batch<=16, 2 in flight) behind the sb-sched weighted-fair scheduler; the pruned tenants' combined offered load sweeps multiples of the pool's virtual capacity.\n\n",
    );
    let mut table = Table::new(vec![
        "load_x",
        "tenant",
        "class",
        "weight",
        "offered_rps",
        "completed",
        "shed",
        "p99_us",
        "cost_share",
    ]);
    let mut series: Vec<(String, Vec<(f64, f64)>)> = vec![
        ("pruned-w3".to_string(), Vec::new()),
        ("pruned-w1".to_string(), Vec::new()),
        ("dense (batch)".to_string(), Vec::new()),
    ];
    let mut sample_rng = Rng::seed_from(2);
    let samples: Vec<Vec<f32>> = (0..64)
        .map(|_| {
            sb_tensor::Tensor::rand_normal(&[FEATURES], 0.0, 1.0, &mut sample_rng)
                .data()
                .to_vec()
        })
        .collect();

    for &mult in &[0.3f64, 1.0, 3.0] {
        let each_rps = sat_rps * mult / 2.0;
        let loads = vec![
            TenantLoad {
                arrivals: ArrivalProcess::Uniform { rate_rps: each_rps },
                seed: 0xFA1,
                deadline_us: None,
            },
            TenantLoad {
                arrivals: ArrivalProcess::Uniform { rate_rps: each_rps },
                seed: 0xFA2,
                deadline_us: None,
            },
            TenantLoad {
                arrivals: ArrivalProcess::Uniform { rate_rps: dense_rps },
                seed: 0xFA3,
                deadline_us: None,
            },
        ];
        let clock = Arc::new(SimClock::new());
        let mut ms = MultiServer::new(
            tenants(),
            SchedConfig {
                max_inflight: MAX_INFLIGHT,
            },
            clock.clone(),
        );
        let done = run_multi_open_loop_sim(&mut ms, &clock, &loads, HORIZON_US, |_t, i| {
            samples[i % samples.len()].clone()
        });
        let picks = ms.take_picks();
        let p = profile(&ms, &done, &picks, HORIZON_US);
        for (i, t) in p.tenants.iter().enumerate() {
            let offered = if i == 2 { dense_rps } else { each_rps };
            table.row(vec![
                format!("{mult}x"),
                t.name.clone(),
                t.priority.clone(),
                t.weight.to_string(),
                format!("{offered:.0}"),
                t.serve.completed.to_string(),
                t.serve.rejected.total().to_string(),
                t.serve.p99_us.to_string(),
                format!("{:.3}", t.cost_share),
            ]);
            series[i].1.push((mult, t.cost_share));
        }
    }

    let mut chart = AsciiChart::new(
        "served cost share vs offered interactive load (multiples of capacity)",
        72,
        20,
    )
    .axis_labels("interactive load (x capacity)", "cost share");
    for (name, points) in series {
        chart = chart.series(ChartSeries::new(name, points));
    }
    out.push_str(&table.to_markdown());
    out.push('\n');
    out.push_str(&chart.render());
    out.push_str(
        "\nReading: at light load shares simply track demand and everyone's p99 is flat. As the interactive tenants saturate the pool, their served-cost shares converge to the 3:1 WFQ weights — same model, same arrivals, 3x the service — while the excess on the lighter-weighted tenant is shed at admission once its bounded queue fills, rather than queued stale. The dense batch-class tenant keeps its slack-time share at light load and is starved by strict priority at overload: proportional sharing belongs to weights within a class (deadline-carrying heads would instead be served EDF-first), and the pick log (sched:pick spans) records every decision that produced these shares.\n",
    );
    save(paths, "multi-model-fairness", &out, Some(&table))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(strategy: &str, c: f64, seed: u64, top1: f32) -> RunRecord {
        RunRecord {
            experiment: "x".into(),
            strategy: strategy.into(),
            target_compression: c,
            seed,
            compression: c * 0.98,
            speedup: c * 1.4,
            top1,
            top5: (top1 + 0.2).min(1.0),
            top1_before_finetune: top1 * 0.5,
            pretrain_top1: 0.9,
            pretrain_top5: 0.99,
            realized_speedup: None,
            latency_us: None,
        }
    }

    fn records() -> Vec<RunRecord> {
        let mut v = Vec::new();
        for (s, base) in [("Global Weight", 0.9), ("Random", 0.6)] {
            for (i, c) in [1.0, 2.0, 4.0, 8.0].into_iter().enumerate() {
                for seed in [1u64, 2] {
                    v.push(record(s, c, seed, (base - 0.08 * i as f32) + seed as f32 * 0.01));
                }
            }
        }
        v
    }

    #[test]
    fn render_panel_charts_all_strategies() {
        let (text, table) = render_panel("test panel", &records(), "compression");
        assert!(text.contains("Global Weight"));
        assert!(text.contains("Random"));
        assert!(text.contains("dense control: top1 0.9000"));
        // 2 strategies × 4 ratios = 8 summary rows.
        assert_eq!(table.len(), 8);
    }

    #[test]
    fn render_panel_speedup_axis_uses_speedup_means() {
        let (text, _) = render_panel("speedup panel", &records(), "speedup");
        // Max x label reflects speedup (8 × 1.4 = 11.2), not compression.
        assert!(text.contains("11.2"), "{text}");
    }

    #[test]
    fn render_panel_reports_std_across_seeds() {
        let (_, table) = render_panel("std panel", &records(), "compression");
        let csv = table.to_csv();
        // Two seeds 0.01 apart → std ≈ 0.00707.
        assert!(csv.contains("0.0071"), "{csv}");
    }

    #[test]
    fn output_paths_default_locations() {
        let p = OutputPaths::default();
        assert!(p.results.ends_with("results"));
        assert!(p.figures.ends_with("figures"));
    }
}
