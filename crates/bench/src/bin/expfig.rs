//! `expfig` — regenerate any table or figure of the paper.
//!
//! ```text
//! expfig list                     # show every artifact id
//! expfig table1                   # Table 1 from the embedded corpus
//! expfig fig7 --scale quick       # run the backing experiments, small
//! expfig all --scale standard     # everything (the committed results)
//! ```

use sb_bench::configs::Scale;
use sb_bench::figures::{
    ablation_finetune, ablation_multi, ablation_pair, checklist_artifact, experiment_figure, fig1,
    fig2, fig3, fig4, fig5, fig8, hygiene, metrics_ambiguity, multi_model_fairness,
    serving_latency, table1,
    OutputPaths,
};

const ARTIFACTS: &[(&str, &str)] = &[
    ("table1", "Table 1: (dataset, architecture) pairs used by ≥4 papers"),
    ("fig1", "Figure 1: pruned models vs architecture families"),
    ("fig2", "Figure 2: comparison-graph histograms"),
    ("fig3", "Figure 3: fragmentation of self-reported results"),
    ("fig4", "Figure 4: pairs-per-paper and points-per-curve histograms"),
    ("fig5", "Figure 5: fine-tuning variation vs method variation"),
    ("fig6", "Figure 6: ResNet-18 ImageNet-like, accuracy vs compression AND speedup"),
    ("fig7", "Figure 7: CIFAR-VGG and ResNet-56, five strategies, 3 seeds"),
    ("fig8", "Figure 8: Weights A vs Weights B pitfall"),
    ("fig9", "Figure 9: CIFAR-VGG accuracy vs compression (appendix)"),
    ("fig10", "Figure 10: CIFAR-VGG accuracy vs speedup (appendix)"),
    ("fig11", "Figure 11: ResNet-20 accuracy vs compression (appendix)"),
    ("fig12", "Figure 12: ResNet-20 accuracy vs speedup (appendix)"),
    ("fig13", "Figure 13: ResNet-56 accuracy vs compression (appendix)"),
    ("fig14", "Figure 14: ResNet-56 accuracy vs speedup (appendix)"),
    ("fig15", "Figure 15: ResNet-110 accuracy vs compression (appendix)"),
    ("fig16", "Figure 16: ResNet-110 accuracy vs speedup (appendix)"),
    ("fig17", "Figure 17: ResNet-18 ImageNet-like accuracy vs compression (appendix)"),
    ("fig18", "Figure 18: ResNet-18 ImageNet-like accuracy vs speedup (appendix)"),
    ("ablation-finetune", "Ablation: accuracy before vs after fine-tuning"),
    ("ablation-schedule", "Ablation: one-shot vs iterative pruning schedule"),
    ("ablation-classifier", "Ablation: pruning vs protecting the classifier layer"),
    ("ablation-structured", "Ablation: structured (filter) vs unstructured pruning"),
    ("ablation-random-layerwise", "Ablation: global vs layerwise-proportional random pruning"),
    ("ablation-weight-policy", "Ablation: fine-tune vs lottery-ticket rewind vs reinitialize"),
    ("ablation-architecture", "Ablation: two models both called \"CIFAR-VGG\" give different curves (Section 5.1)"),
    ("prune-at-init", "Extension: pruning at initialization (SNIP-style, Section 2.2)"),
    ("metrics-ambiguity", "Section 5.2: one model under every metric convention"),
    ("hygiene", "Sections 4.3-6: reporting hygiene of the 37 reporting papers"),
    ("inference-speedup", "Section 2.1/Fig 6: theoretical vs realized speedup of compiled models"),
    ("latency-attribution", "Trace: realized inference latency by layer x kernel format"),
    ("format-crossover", "Tentpole: realized wall-clock of dense/CSR/BSR/bitmap kernels across sparsity ratios"),
    ("cost-fit", "Cost model: per-layer self time in every format, the fitted constants and their error"),
    ("sparsity-profile", "Mechanism: per-layer sparsity under Global vs Layerwise ranking"),
    ("serving-latency", "Serving: pruned vs dense tail latency across offered loads (sb-serve, virtual clock)"),
    ("fault-recovery", "Robustness: seeded outage, breaker trip, pruned-model fallback, probe re-close (sb-serve + sb-fault)"),
    ("multi-model-fairness", "Scheduling: WFQ shares, priority classes, and deadlines across tenants (sb-sched, virtual clock)"),
    ("checklist", "Appendix B checklist applied to this suite"),
    ("mnist-saturation", "Motivation: MNIST-like results saturate (Section 4.2)"),
];

fn usage() -> ! {
    eprintln!("usage: expfig <artifact|all|list> [--scale quick|standard] [--results DIR] [--figures DIR]");
    eprintln!("run `expfig list` to see all artifact ids");
    std::process::exit(2);
}

fn main() {
    // fault-recovery injects engine panics on purpose; keep its stderr
    // clean without hiding any real panic.
    sb_bench::silence_injected_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut target: Option<String> = None;
    let mut scale = Scale::Standard;
    let mut paths = OutputPaths::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage());
            }
            "--results" => {
                i += 1;
                paths.results = args.get(i).map(Into::into).unwrap_or_else(|| usage());
            }
            "--figures" => {
                i += 1;
                paths.figures = args.get(i).map(Into::into).unwrap_or_else(|| usage());
            }
            flag if flag.starts_with("--") => usage(),
            id => {
                if target.is_some() {
                    usage();
                }
                target = Some(id.to_string());
            }
        }
        i += 1;
    }
    let target = target.unwrap_or_else(|| usage());

    match target.as_str() {
        "list" => {
            for (id, desc) in ARTIFACTS {
                println!("{id:<26} {desc}");
            }
        }
        "all" => {
            for (id, _) in ARTIFACTS {
                eprintln!("==> {id}");
                println!("{}", render_or_exit(id, scale, &paths));
            }
        }
        id if ARTIFACTS.iter().any(|(a, _)| a == &id) => {
            print!("{}", render_or_exit(id, scale, &paths));
        }
        _ => {
            eprintln!("unknown artifact {target:?}");
            usage();
        }
    }
}

/// Renders one artifact; a failed figure write exits 1 with the error,
/// which names the path.
fn render_or_exit(id: &str, scale: Scale, paths: &OutputPaths) -> String {
    render(id, scale, paths).unwrap_or_else(|e| {
        eprintln!("expfig {id}: cannot write figure: {e}");
        std::process::exit(1);
    })
}

fn render(id: &str, scale: Scale, paths: &OutputPaths) -> std::io::Result<String> {
    match id {
        "table1" => table1(paths),
        "fig1" => fig1(paths),
        "fig2" => fig2(paths),
        "fig3" => fig3(paths),
        "fig4" => fig4(paths),
        "fig5" => fig5(paths),
        "fig6" => experiment_figure(
            "fig6",
            "Figure 6: Top-1 accuracy for ResNet-18 on ImageNet-like data, for several compression ratios and their corresponding theoretical speedups.",
            &[
                ("imagenet-resnet18", "compression", "ResNet-18 — accuracy vs compression"),
                ("imagenet-resnet18", "speedup", "ResNet-18 — accuracy vs theoretical speedup"),
            ],
            scale,
            paths,
        ),
        "fig7" => experiment_figure(
            "fig7",
            "Figure 7: Top-1 accuracy on CIFAR-like data for several compression ratios (5 strategies, mean ± std over seeds).",
            &[
                ("cifar-vgg", "compression", "CIFAR-VGG"),
                ("resnet56", "compression", "ResNet-56"),
            ],
            scale,
            paths,
        ),
        "fig8" => fig8(scale, paths),
        "fig9" => experiment_figure(
            "fig9",
            "Figure 9: Accuracy for several levels of compression for CIFAR-VGG on CIFAR-like data.",
            &[("cifar-vgg", "compression", "CIFAR-VGG — accuracy vs compression")],
            scale,
            paths,
        ),
        "fig10" => experiment_figure(
            "fig10",
            "Figure 10: Accuracy vs theoretical speedup for CIFAR-VGG on CIFAR-like data.",
            &[("cifar-vgg", "speedup", "CIFAR-VGG — accuracy vs speedup")],
            scale,
            paths,
        ),
        "fig11" => experiment_figure(
            "fig11",
            "Figure 11: Accuracy for several levels of compression for ResNet-20 on CIFAR-like data.",
            &[("resnet20", "compression", "ResNet-20 — accuracy vs compression")],
            scale,
            paths,
        ),
        "fig12" => experiment_figure(
            "fig12",
            "Figure 12: Accuracy vs theoretical speedup for ResNet-20 on CIFAR-like data.",
            &[("resnet20", "speedup", "ResNet-20 — accuracy vs speedup")],
            scale,
            paths,
        ),
        "fig13" => experiment_figure(
            "fig13",
            "Figure 13: Accuracy for several levels of compression for ResNet-56 on CIFAR-like data.",
            &[("resnet56", "compression", "ResNet-56 — accuracy vs compression")],
            scale,
            paths,
        ),
        "fig14" => experiment_figure(
            "fig14",
            "Figure 14: Accuracy vs theoretical speedup for ResNet-56 on CIFAR-like data.",
            &[("resnet56", "speedup", "ResNet-56 — accuracy vs speedup")],
            scale,
            paths,
        ),
        "fig15" => experiment_figure(
            "fig15",
            "Figure 15: Accuracy for several levels of compression for ResNet-110 on CIFAR-like data.",
            &[("resnet110", "compression", "ResNet-110 — accuracy vs compression")],
            scale,
            paths,
        ),
        "fig16" => experiment_figure(
            "fig16",
            "Figure 16: Accuracy vs theoretical speedup for ResNet-110 on CIFAR-like data.",
            &[("resnet110", "speedup", "ResNet-110 — accuracy vs speedup")],
            scale,
            paths,
        ),
        "fig17" => experiment_figure(
            "fig17",
            "Figure 17: Accuracy for several levels of compression for ResNet-18 on ImageNet-like data.",
            &[("imagenet-resnet18", "compression", "ResNet-18 — accuracy vs compression")],
            scale,
            paths,
        ),
        "fig18" => experiment_figure(
            "fig18",
            "Figure 18: Accuracy vs theoretical speedup for ResNet-18 on ImageNet-like data.",
            &[("imagenet-resnet18", "speedup", "ResNet-18 — accuracy vs speedup")],
            scale,
            paths,
        ),
        "ablation-finetune" => ablation_finetune(scale, paths),
        "ablation-schedule" => ablation_pair(
            "ablation-schedule",
            "Ablation: one-shot vs iterative (3-step geometric) pruning schedule, Global Magnitude on ResNet-20.",
            "ablation-schedule-oneshot",
            "ablation-schedule-iterative",
            scale,
            paths,
        ),
        "ablation-classifier" => ablation_pair(
            "ablation-classifier",
            "Ablation: excluding vs including the classifier layer in pruning (paper Appendix C.1), Global Magnitude on CIFAR-VGG.",
            "ablation-classifier-excluded",
            "ablation-classifier-included",
            scale,
            paths,
        ),
        "ablation-structured" => experiment_figure(
            "ablation-structured",
            "Ablation: structured filter pruning vs unstructured magnitude pruning (LeNet-5): structured converts compression into speedup more directly but costs accuracy.",
            &[
                ("ablation-structured", "compression", "LeNet-5 — accuracy vs compression"),
                ("ablation-structured", "speedup", "LeNet-5 — accuracy vs speedup"),
            ],
            scale,
            paths,
        ),
        "ablation-weight-policy" => ablation_multi(
            "ablation-weight-policy",
            "Ablation (Section 2.3 fine-tuning axis / Section 3.2): continuing from trained weights vs rewinding survivors to initialization (lottery ticket) vs reinitializing, with the pruning mask and training budget held constant. Global Magnitude on CIFAR-VGG.",
            &["ablation-policy-finetune", "ablation-policy-rewind", "ablation-policy-reinit"],
            scale,
            paths,
        ),
        "ablation-random-layerwise" => experiment_figure(
            "ablation-random-layerwise",
            "Ablation: global random pruning vs layerwise-proportional random pruning (Appendix B checklist baselines).",
            &[("ablation-random-layerwise", "compression", "ResNet-20 — random baselines")],
            scale,
            paths,
        ),
        "ablation-architecture" => ablation_pair(
            "ablation-architecture",
            "Ablation (Section 5.1, architecture ambiguity): the same pruning methods on two models both reported as \"CIFAR-VGG\" — the base model and a dropout/smaller-head variant — yield different curves.",
            "ablation-arch-base",
            "ablation-arch-variant",
            scale,
            paths,
        ),
        "prune-at-init" => experiment_figure(
            "prune-at-init",
            "Extension (Section 2.2): pruning at initialization. The network is pruned before any training (SNIP-style gradient scores vs magnitude vs random on a random init), then trained with the mask fixed.",
            &[("prune-at-init", "compression", "CIFAR-VGG pruned at initialization")],
            scale,
            paths,
        ),
        "metrics-ambiguity" => metrics_ambiguity(paths),
        "hygiene" => hygiene(paths),
        "inference-speedup" => sb_bench::figures::inference_speedup(scale, paths),
        "latency-attribution" => sb_bench::figures::latency_attribution(paths),
        "format-crossover" => sb_bench::figures::format_crossover(paths),
        "cost-fit" => sb_bench::figures::cost_fit(paths),
        "sparsity-profile" => sb_bench::figures::sparsity_profile(paths),
        "serving-latency" => serving_latency(paths),
        "fault-recovery" => sb_bench::figures::fault_recovery(paths),
        "multi-model-fairness" => multi_model_fairness(paths),
        "checklist" => checklist_artifact(scale, paths),
        "mnist-saturation" => experiment_figure(
            "mnist-saturation",
            "Motivation (Section 4.2): on MNIST-like data LeNet-300-100 stays near ceiling across compression ratios, so methods are indistinguishable.",
            &[("mnist-saturation", "compression", "LeNet-300-100 on MNIST-like")],
            scale,
            paths,
        ),
        _ => unreachable!("validated in main"),
    }
}
