//! What pruning buys you *at deployment time*: parameter compression vs
//! theoretical speedup vs realized sparse-kernel speedup vs storage
//! bytes — the full gap analysis behind the paper's Section 2.1 and 5.2
//! caveats about metrics.
//!
//! ```text
//! cargo run --release --example deployment_analysis
//! ```

use sb_data::{DatasetSpec, SyntheticVision};
use sb_metrics::{storage_report, ModelProfile};
use sb_nn::{models, Adam, Network, ParamKind, TrainConfig, Trainer};
use sb_tensor::{Rng, SparseMatrix, Tensor};
use shrinkbench::{prune_and_finetune, FinetuneConfig, GlobalMagnitude};
use std::time::Instant;

fn main() {
    // Train + prune a LeNet-300-100 at 8× with the framework.
    let data = SyntheticVision::new(DatasetSpec::mnist_like(4).scaled_down(4));
    let mut rng = Rng::seed_from(0);
    let spec = data.spec();
    let mut net = models::lenet_300_100(
        spec.channels * spec.side * spec.side,
        spec.classes,
        &mut rng,
    );
    // Train to convergence first (Algorithm 1 starts from a trained net).
    {
        use sb_data::{batches_of, Split};
        let mut opt = Adam::new(1e-3);
        let trainer = Trainer::new(TrainConfig { epochs: 6, ..TrainConfig::default() });
        let mut erng = Rng::seed_from(1);
        trainer
            .fit(
                &mut net,
                &mut opt,
                |_| {
                    let mut fork = erng.fork(0);
                    batches_of(&data, Split::Train, 64, Some(&mut fork), true)
                },
                &[],
            )
            .expect("training converges");
    }
    let result = prune_and_finetune(
        &mut net,
        &GlobalMagnitude,
        8.0,
        &data,
        &FinetuneConfig {
            epochs: 4,
            flatten_input: true,
            ..FinetuneConfig::default()
        },
        &mut rng,
    )
    .expect("pruning succeeds");
    println!(
        "pruned LeNet-300-100: top1 {:.3}, parameter compression {:.2}×, theoretical speedup {:.2}×\n",
        result.after_finetune.top1, result.compression, result.speedup
    );

    // 1. Storage: bytes under each on-disk encoding.
    let profile = ModelProfile::measure(&net);
    let storage = storage_report(&profile);
    println!("storage footprint ({}× parameter compression):", storage.parameter_compression.round());
    for (format, bytes, ratio) in &storage.rows {
        println!("  {format:<14} {:>9.1} KiB  ({ratio:.2}× byte compression)", bytes / 1024.0);
    }
    println!("  → index overhead makes byte compression lag parameter compression (Deep-Compression-style delta coding recovers most of it)\n");

    // 2. Compute: realized speedup of the actual CSR kernel over the dense
    //    register tile on the largest pruned layer, vs the theoretical
    //    multiply-add ratio.
    let mut weight: Option<Tensor> = None;
    net.visit_params(&mut |p| {
        if p.kind() == ParamKind::LinearWeight && p.name() == "fc1.weight" {
            weight = Some(p.value().clone());
        }
    });
    let weight = weight.expect("fc1.weight exists");
    let sparse = SparseMatrix::from_dense(&weight);
    let x = Tensor::rand_normal(&[32, weight.dim(1)], 0.0, 1.0, &mut rng);
    let time = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..7 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let dense_t = time(&mut || {
        std::hint::black_box(x.matmul_transposed(&weight));
    });
    let sparse_t = time(&mut || {
        std::hint::black_box(sparse.dense_matmul_transposed(&x));
    });
    println!(
        "fc1 ({}×{}, density {:.3}): theoretical speedup {:.2}×, realized CSR speedup {:.2}×",
        weight.dim(0),
        weight.dim(1),
        sparse.density(),
        1.0 / sparse.density(),
        dense_t / sparse_t
    );
    println!("  → unstructured sparsity rarely delivers its full theoretical speedup (paper §2.1);");
    println!("    compare `cargo run --release -p sb-bench --bin expfig -- ablation-structured`.");
}
