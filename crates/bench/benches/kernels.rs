//! Microbenchmarks for the numerical substrate: the kernels whose cost
//! dominates every experiment in the reproduction.

use sb_bench::timer::{BatchSize, Measurement, Timer};
use sb_nn::{models, Layer, Mode, Network};
use sb_tensor::{col2im, im2col, im2col_into, Conv2dGeometry, PackedRhs, Rng, Tensor};

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
    eprintln!("\n{GROUP}: ns per multiply-add, min and median");
    for (&(name, m, k, n), t) in GRID_FORWARD.iter().zip(timed) {
        let shape = format!("[{m},{k}]·[{n},{k}]ᵀ");
        eprintln!("  {name:<24} {shape:<22} {}", per_unit(t, (m * k * n) as f64));
    }
    let total_ms = |ns: fn(&Measurement) -> f64| timed.iter().map(ns).sum::<f64>() / 1e6;
    eprintln!(
        "  sum of one pass over every shape: {:.2} ms (min), {:.2} ms (median)",
        total_ms(Measurement::min_ns),
        total_ms(Measurement::median_ns)
    );
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
    eprintln!("\n{GROUP}: ns per multiply-add, min and median");
    let header = ("layer", "[m,k]·[n,k]ᵀ", "packed once", "matmul_transposed");
    eprintln!(
        "  {:<22} {:<22} {:>13} {:>17}",
        header.0, header.1, header.2, header.3
    );
    for (&(name, m, k, n), t) in INFER_DENSE_BLOCK.iter().zip(timed.chunks_exact(2)) {
        let shape = format!("[{m},{k}]·[{n},{k}]ᵀ");
        let macs = (m * k * n) as f64;
        let (once, per_call) = (per_unit(&t[0], macs), per_unit(&t[1], macs));
        eprintln!("  {name:<22} {shape:<22} {once:>13} {per_call:>17}");
    }
}

/// `(name, channels, side, kernel, stride, padding)` of a square conv.
type ConvShape = (&'static str, usize, usize, usize, usize, usize);

/// The distinct conv geometries of the end-to-end benchmark. LeNet-5 (1×16×16
/// input) and ResNet-20 (width 4, 3×16×16 input) are the `infer`
/// workload's conv models; ResNet-8, the `grid` workload's, has the
/// ResNet geometries too, with one block per stage.
const CONV_GEOMETRIES: &[ConvShape] = &[
    ("lenet5.conv1", 1, 16, 5, 1, 2),
    ("lenet5.conv2", 6, 8, 5, 1, 2),
    ("resnet.stem", 3, 16, 3, 1, 1),
    ("resnet.stage1", 4, 16, 3, 1, 1),
    ("resnet.stage2.down", 4, 16, 3, 2, 1),
    ("resnet.stage2.shortcut", 4, 16, 1, 2, 0),
    ("resnet.stage2", 8, 8, 3, 1, 1),
    ("resnet.stage3.down", 8, 8, 3, 2, 1),
    ("resnet.stage3.shortcut", 8, 8, 1, 2, 0),
    ("resnet.stage3", 16, 4, 3, 1, 1),
];

/// The convolution lowering on those geometries: `im2col_into` on
/// sb-infer's 8-sample batch blocks, then `im2col` and `col2im` on the
/// ResNet geometries at the grid's batch of 64, and on an 8-channel
/// 16×16 batch of 8. Prints ns per patch element (`n·out_h·out_w·C·kh·kw`
/// values written or added); run it at `SB_RUNTIME_THREADS=1`, since
/// `im2col` and `col2im` fan out over sample blocks and `im2col_into`
/// never does.
fn bench_conv_lowering(c: &mut Timer) {
    const GROUP: &str = "conv-lowering";
    let geom = |&(_, ch, side, k, s, p): &ConvShape| {
        Conv2dGeometry::square(ch, side, side, k, s, p)
    };
    let block: Vec<_> = CONV_GEOMETRIES.iter().map(|g| (g.0, 8, geom(g))).collect();
    let resnet = CONV_GEOMETRIES.iter().filter(|g| g.0.starts_with("resnet"));
    let mut grid: Vec<_> = resnet.map(|g| (g.0, 64, geom(g))).collect();
    grid.push(("conv.8x16x16", 8, Conv2dGeometry::square(8, 16, 16, 3, 1, 1)));
    let mut group = c.benchmark_group(GROUP);
    for &(name, n, geom) in &block {
        let x = input(n, &geom);
        let mut out = vec![0.0f32; patch_elements(n, &geom)];
        group.bench_function(format!("{name}-b{n}-im2col-into"), |bench| {
            bench.iter(|| {
                im2col_into(x.data(), &geom, &mut out);
                std::hint::black_box(&out);
            })
        });
    }
    for &(name, n, geom) in &grid {
        let x = input(n, &geom);
        let cols = im2col(&x, &geom);
        group.bench_function(format!("{name}-b{n}-im2col"), |bench| {
            bench.iter(|| std::hint::black_box(im2col(&x, &geom)))
        });
        group.bench_function(format!("{name}-b{n}-col2im"), |bench| {
            bench.iter(|| std::hint::black_box(col2im(&cols, n, &geom)))
        });
    }
    group.finish();
    let timed = &c.results()[c.results().len() - block.len() - 2 * grid.len()..];
    let (unfolds, folds) = timed.split_at(block.len());
    eprintln!("\n{GROUP}: ns per patch element, min and median");
    for (&(name, n, geom), t) in block.iter().zip(unfolds) {
        let ns = per_unit(t, patch_elements(n, &geom) as f64);
        eprintln!("  {name:<24} b{n:<3} im2col_into {ns}");
    }
    for (&(name, n, geom), t) in grid.iter().zip(folds.chunks_exact(2)) {
        let elements = patch_elements(n, &geom) as f64;
        let (unfold, fold) = (per_unit(&t[0], elements), per_unit(&t[1], elements));
        eprintln!("  {name:<24} b{n:<3} im2col {unfold}  col2im {fold}");
    }
}

/// `t`'s minimum and median per `units` (multiply-adds, elements).
fn per_unit(t: &Measurement, units: f64) -> String {
    format!("{:>6.3} {:>6.3}", t.min_ns() / units, t.median_ns() / units)
}

/// The values in the patch matrix of `n` samples of `geom`.
fn patch_elements(n: usize, geom: &Conv2dGeometry) -> usize {
    n * geom.out_h() * geom.out_w() * geom.patch_len()
}

/// A seeded `[n, C, H, W]` input for `geom`.
fn input(n: usize, geom: &Conv2dGeometry) -> Tensor {
    let dims = [n, geom.in_channels, geom.in_h, geom.in_w];
    Tensor::rand_normal(&dims, 0.0, 1.0, &mut Rng::seed_from(1))
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
    bench_conv_lowering(&mut timer);
    bench_conv_forward_backward(&mut timer);
    bench_model_forward(&mut timer);
    timer.finish();
}
