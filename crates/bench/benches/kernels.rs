//! Microbenchmarks for the numerical substrate: the kernels whose cost
//! dominates every experiment in the reproduction.

use sb_bench::timer::{BatchSize, Timer};
use sb_nn::{models, Layer, Mode, Network};
use sb_tensor::{im2col, Conv2dGeometry, PackedRhs, Rng, Tensor};

fn bench_matmul(c: &mut Timer) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let mut rng = Rng::seed_from(0);
        let a = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
        group.bench_function(format!("{n}x{n}"), |bench| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)))
        });
        group.bench_function(format!("{n}x{n}-transposed"), |bench| {
            bench.iter(|| std::hint::black_box(a.matmul_transposed(&b)))
        });
    }
    group.finish();
}

/// The distinct forward products `[m, k] · [n, k]ᵀ` of the end-to-end
/// benchmark's `grid` workload at batch 64: LeNet-300-100 on 16×16 inputs
/// and ResNet-8 (width 4) on 3×16×16 inputs, where a conv's `m` is
/// `batch · out_h · out_w` im2col rows and its `n` the filter count.
/// ResNet-8's two stage-1 convs share one shape.
const GRID_FORWARD: &[(&str, usize, usize, usize)] = &[
    ("lenet300.fc1", 64, 256, 300),
    ("lenet300.fc2", 64, 300, 100),
    ("lenet300.fc3", 64, 100, 10),
    ("resnet8.stem", 16384, 27, 4),
    ("resnet8.stage1.conv", 16384, 36, 4),
    ("resnet8.stage2.conv1", 4096, 36, 8),
    ("resnet8.stage2.conv2", 4096, 72, 8),
    ("resnet8.stage2.shortcut", 4096, 4, 8),
    ("resnet8.stage3.conv1", 1024, 72, 16),
    ("resnet8.stage3.conv2", 1024, 144, 16),
    ("resnet8.stage3.shortcut", 1024, 8, 16),
    ("resnet8.classifier", 64, 16, 10),
];

/// `matmul_transposed` on the grid's real layer shapes, then a table of
/// ns per multiply-add, since the shapes' costs differ by 100×.
fn bench_layer_shapes(c: &mut Timer) {
    const GROUP: &str = "matmul-transposed-grid";
    let mut group = c.benchmark_group(GROUP);
    for &(name, m, k, n) in GRID_FORWARD {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[n, k], 0.0, 1.0, &mut rng);
        group.bench_function(format!("{name}-{m}x{k}x{n}"), |bench| {
            bench.iter(|| std::hint::black_box(a.matmul_transposed(&b)))
        });
    }
    group.finish();
    let timed = &c.results()[c.results().len() - GRID_FORWARD.len()..];
    eprintln!("\n{GROUP}: ns per multiply-add");
    for (&(name, m, k, n), t) in GRID_FORWARD.iter().zip(timed) {
        let shape = format!("[{m},{k}]·[{n},{k}]ᵀ");
        let ns_per_mac = t.ns_per_iter / (m * k * n) as f64;
        eprintln!("  {name:<24} {shape:<22} {ns_per_mac:>6.3}");
    }
    let total_ms = timed.iter().map(|t| t.ns_per_iter).sum::<f64>() / 1e6;
    eprintln!("  sum of one pass over every shape: {total_ms:.2} ms");
}

/// sb-infer's dense products for one 8-sample batch block (the default
/// `batch_block`), as `[m, k] · [n, k]ᵀ`: LeNet-300-100's fc1 and fc2 on
/// 16×16 inputs, and the im2col rows of LeNet-5's convs (1×16×16 input)
/// and of ResNet-20's (width 4, 3×16×16 input) stage-1 and stage-3 convs.
const INFER_DENSE_BLOCK: &[(&str, usize, usize, usize)] = &[
    ("lenet300.fc1", 8, 256, 300),
    ("lenet300.fc2", 8, 300, 100),
    ("lenet5.conv1", 2048, 25, 6),
    ("lenet5.conv2", 512, 150, 16),
    ("resnet20.stage1.conv", 2048, 36, 4),
    ("resnet20.stage3.conv", 128, 144, 16),
];

/// The register tile on sb-infer's dense shapes, two ways: over weights
/// packed once (what a compiled model does) and through
/// `matmul_transposed`, which packs `b` and allocates its output on every
/// call. Prints a table of ns per multiply-add; run it at
/// `SB_RUNTIME_THREADS=1`, since `matmul_transposed` fans the larger
/// shapes out over row blocks and a compiled model never does.
fn bench_infer_dense_block(c: &mut Timer) {
    const GROUP: &str = "infer-dense-block";
    let mut group = c.benchmark_group(GROUP);
    for &(name, m, k, n) in INFER_DENSE_BLOCK {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[n, k], 0.0, 1.0, &mut rng);
        let packed = PackedRhs::pack(&b);
        let mut out = vec![0.0f32; m * n];
        group.bench_function(format!("{name}-packed-once"), |bench| {
            bench.iter(|| {
                packed.matmul_rows(a.data(), &mut out);
                std::hint::black_box(&out);
            })
        });
        group.bench_function(format!("{name}-matmul-transposed"), |bench| {
            bench.iter(|| std::hint::black_box(a.matmul_transposed(&b)))
        });
    }
    group.finish();
    let timed = &c.results()[c.results().len() - 2 * INFER_DENSE_BLOCK.len()..];
    eprintln!("\n{GROUP}: ns per multiply-add");
    let header = ("layer", "[m,k]·[n,k]ᵀ", "packed once", "matmul_transposed");
    eprintln!(
        "  {:<22} {:<22} {:>11} {:>17}",
        header.0, header.1, header.2, header.3
    );
    for (&(name, m, k, n), t) in INFER_DENSE_BLOCK.iter().zip(timed.chunks_exact(2)) {
        let shape = format!("[{m},{k}]·[{n},{k}]ᵀ");
        let macs = (m * k * n) as f64;
        let (once, per_call) = (t[0].ns_per_iter / macs, t[1].ns_per_iter / macs);
        eprintln!("  {name:<22} {shape:<22} {once:>11.3} {per_call:>17.3}");
    }
}

fn bench_im2col(c: &mut Timer) {
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 16,
        in_w: 16,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding_h: 1,
        padding_w: 1,
    };
    let mut rng = Rng::seed_from(1);
    let x = Tensor::rand_normal(&[8, 8, 16, 16], 0.0, 1.0, &mut rng);
    c.bench_function("im2col-8x8x16x16-k3", |bench| {
        bench.iter(|| std::hint::black_box(im2col(&x, &geom)))
    });
}

fn bench_conv_forward_backward(c: &mut Timer) {
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 16,
        in_w: 16,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding_h: 1,
        padding_w: 1,
    };
    let mut rng = Rng::seed_from(2);
    let x = Tensor::rand_normal(&[8, 8, 16, 16], 0.0, 1.0, &mut rng);
    c.bench_function("conv2d-forward", |bench| {
        let mut conv = sb_nn::Conv2d::new("c", 16, geom, &mut rng);
        bench.iter(|| std::hint::black_box(conv.forward(&x, Mode::Eval)))
    });
    c.bench_function("conv2d-forward-backward", |bench| {
        let mut conv = sb_nn::Conv2d::new("c", 16, geom, &mut rng);
        bench.iter_batched(
            || x.clone(),
            |x| {
                let y = conv.forward(&x, Mode::Train);
                std::hint::black_box(conv.backward(&Tensor::ones(y.dims())))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_model_forward(c: &mut Timer) {
    let mut rng = Rng::seed_from(3);
    let x = Tensor::rand_normal(&[16, 3, 16, 16], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("model-forward");
    group.sample_size(20);
    let mut vgg = models::cifar_vgg(3, 16, 10, 8, &mut rng);
    group.bench_function("cifar-vgg-w8-b16", |bench| {
        bench.iter(|| std::hint::black_box(vgg.forward(&x, Mode::Eval)))
    });
    let mut resnet = models::resnet_cifar(20, 3, 16, 10, 4, &mut rng);
    group.bench_function("resnet20-w4-b16", |bench| {
        bench.iter(|| std::hint::black_box(resnet.forward(&x, Mode::Eval)))
    });
    group.finish();
}

fn main() {
    let mut timer = Timer::new();
    bench_matmul(&mut timer);
    bench_layer_shapes(&mut timer);
    bench_infer_dense_block(&mut timer);
    bench_im2col(&mut timer);
    bench_conv_forward_backward(&mut timer);
    bench_model_forward(&mut timer);
    timer.finish();
}
