//! Lowering from [`LayerSpec`] chains to executable step plans.
//!
//! The compiler walks the model's eval-mode spec once, carrying a
//! [`Carry`] that records structured shrink decisions: when a layer's
//! weight rows are entirely zero (the footprint left by filter pruning)
//! *and* the downstream consumer can absorb the missing channels, the
//! rows are dropped and the consumer's columns are restricted to match.
//!
//! Dropped channels are not silently discarded — structured pruning masks
//! only the convolution weight rows, so a dropped filter still emits its
//! (constant) bias, which batch norm, ReLU, and pooling transform
//! per-channel downstream. The carry therefore tracks one constant per
//! dropped channel and either folds it into the consumer's bias (exact
//! for linear consumers and unpadded convolutions) or requires it to be
//! exactly zero (padded convolutions, where padding pixels and dropped
//! channels would need different constants).

use crate::cost::{LayerStats, MARGIN};
use crate::plan::{ExecFormat, FeatureShape, Kernel, LayerPlan, Planned, Step};
use sb_nn::{models::Model, LayerSpec, Network};
use sb_tensor::{Conv2dGeometry, PackedConv, PackedRhs, SparseMatrix, Tensor};

/// Knobs for [`CompiledModel::compile`](crate::CompiledModel::compile).
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Bypass the cost model and force every weight-bearing layer into one
    /// format. `ShrunkDense` still falls back to `Dense` where shrinking
    /// is ineligible (no zero rows, or the consumer cannot absorb them).
    pub force_format: Option<ExecFormat>,
    /// Samples per parallel batch block. Each block runs on one worker
    /// with its own scratch buffers; results are bit-identical for any
    /// block size and worker count because per-sample arithmetic never
    /// crosses block boundaries.
    pub batch_block: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            force_format: None,
            batch_block: 8,
        }
    }
}

/// A forward-only, format-specialized execution plan for one model.
///
/// Built by [`CompiledModel::compile`]; run with
/// [`CompiledModel::forward`](crate::CompiledModel::forward).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    pub(crate) steps: Vec<Planned>,
    pub(crate) input_shape: FeatureShape,
    pub(crate) classes: usize,
    pub(crate) batch_block: usize,
    /// Largest per-sample activation any step reads or writes.
    pub(crate) max_act: usize,
    /// Largest patch buffer any step of a batch block needs: a lowered
    /// conv's im2col patch matrix for the whole block, a CSR conv's padded
    /// sample ([`PackedConv::padded_len`]) or a CSR linear layer's panel
    /// ([`SparseMatrix::panel_len`]).
    pub(crate) max_patch: usize,
    /// Largest per-sample `[oh·ow, out_c]` row matrix any lowered conv
    /// needs.
    pub(crate) max_rows: usize,
    plans: Vec<LayerPlan>,
}

impl CompiledModel {
    /// Compiles a model's eval-mode spec into an execution plan.
    ///
    /// # Panics
    ///
    /// Panics if the spec contains a layer the planner does not know, or
    /// if the first weight-bearing layer cannot anchor the input shape.
    pub fn compile(model: &Model, opts: &CompileOptions) -> CompiledModel {
        CompiledModel::compile_specs(&model.spec(), model.num_classes(), opts)
    }

    /// Compiles a raw spec chain (the [`Model`]-independent entry point).
    pub fn compile_specs(
        specs: &[LayerSpec],
        classes: usize,
        opts: &CompileOptions,
    ) -> CompiledModel {
        assert!(opts.batch_block > 0, "batch_block must be positive");
        let flat = flatten(specs);
        let input_shape = infer_input_shape(&flat);
        let mut compiler = Compiler {
            opts,
            plans: Vec::new(),
            max_act: input_shape.numel(),
            max_patch: 0,
            max_rows: 0,
            pending_label: None,
        };
        let (steps, out_shape, carry) = compiler.chain(&flat, input_shape);
        assert!(
            carry.is_none(),
            "structured shrink carried past the final layer"
        );
        assert_eq!(
            out_shape,
            FeatureShape::Flat { d: classes },
            "compiled model must end in [classes] logits"
        );
        CompiledModel {
            steps,
            input_shape,
            classes,
            batch_block: opts.batch_block,
            max_act: compiler.max_act,
            max_patch: compiler.max_patch,
            max_rows: compiler.max_rows,
            plans: compiler.plans,
        }
    }

    /// Per-layer format decisions and cost accounting, in layer order.
    pub fn plans(&self) -> &[LayerPlan] {
        &self.plans
    }

    /// Logit count the plan produces per sample.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Per-sample input shape the plan expects.
    pub fn input_shape(&self) -> FeatureShape {
        self.input_shape
    }

    /// Total bytes of compiled parameters (weights, biases, norm vectors).
    pub fn storage_bytes(&self) -> usize {
        fn steps_bytes(steps: &[Planned]) -> usize {
            steps
                .iter()
                .map(|p| match &p.step {
                    Step::Matmul { kernel, bias } | Step::Conv { kernel, bias, .. } => {
                        kernel.param_bytes() + bias.len() * 4
                    }
                    Step::BatchNorm { gamma, .. } => gamma.len() * 4 * 4,
                    Step::Residual { main, shortcut } => {
                        steps_bytes(main) + steps_bytes(shortcut)
                    }
                    _ => 0,
                })
                .sum()
        }
        steps_bytes(&self.steps)
    }

    /// Dense MACs per sample of the original model — the theoretical-
    /// speedup denominator shared with `sb-metrics` flop accounting.
    pub fn dense_macs(&self) -> u64 {
        self.plans.iter().map(|p| p.dense_macs).sum()
    }

    /// MACs per sample the compiled plan actually performs.
    pub fn effective_macs(&self) -> u64 {
        self.plans.iter().map(|p| p.effective_macs).sum()
    }
}

/// Inlines nested `Sequential`s into one flat chain.
fn flatten(specs: &[LayerSpec]) -> Vec<LayerSpec> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        match spec {
            LayerSpec::Sequential(inner) => out.extend(flatten(inner)),
            other => out.push(other.clone()),
        }
    }
    out
}

/// Derives the per-sample input shape from the first anchoring layer.
fn infer_input_shape(specs: &[LayerSpec]) -> FeatureShape {
    for spec in specs {
        match spec {
            LayerSpec::Conv2d { geom, .. } => {
                return FeatureShape::Image {
                    c: geom.in_channels,
                    h: geom.in_h,
                    w: geom.in_w,
                }
            }
            LayerSpec::Linear { weight, .. } => {
                return FeatureShape::Flat { d: weight.dim(1) }
            }
            LayerSpec::BatchNorm2d { .. } | LayerSpec::Residual { .. } => break,
            _ => continue,
        }
    }
    panic!("cannot infer input shape: no leading Linear or Conv2d layer")
}

/// Structured-shrink state flowing between a producer and its consumer.
///
/// `kept`/`dropped` index *original* output channels (or flat features
/// once past a `Flatten`), so downstream per-channel parameters are
/// looked up by original index while physical buffers hold only `kept`.
#[derive(Debug, Clone)]
struct Carry {
    /// Surviving original indices, ascending.
    kept: Vec<usize>,
    /// Original (unshrunk) width, for consumer-side shape checks.
    full: usize,
    /// `(original index, constant activation value)` of dropped channels,
    /// ascending by index. Updated in place as transparent ops transform it.
    dropped: Vec<(usize, f32)>,
}

struct Compiler<'a> {
    opts: &'a CompileOptions,
    plans: Vec<LayerPlan>,
    max_act: usize,
    max_patch: usize,
    max_rows: usize,
    /// Trace label staged by `lower_linear`/`lower_conv` for the step the
    /// next `push` records.
    pending_label: Option<String>,
}

impl Compiler<'_> {
    /// Lowers one flat spec chain, threading shape and shrink state.
    fn chain(
        &mut self,
        specs: &[LayerSpec],
        in_shape: FeatureShape,
    ) -> (Vec<Planned>, FeatureShape, Option<Carry>) {
        let mut steps = Vec::new();
        let mut shape = in_shape;
        let mut carry: Option<Carry> = None;
        for (idx, spec) in specs.iter().enumerate() {
            let rest = &specs[idx + 1..];
            match spec {
                LayerSpec::Identity => {}
                LayerSpec::Flatten => {
                    if let FeatureShape::Image { c, h, w } = shape {
                        shape = FeatureShape::Flat { d: c * h * w };
                        if let Some(carry) = &mut carry {
                            flatten_carry(carry, h * w);
                        }
                    }
                }
                LayerSpec::ReLU => {
                    if let Some(carry) = &mut carry {
                        for (_, c) in &mut carry.dropped {
                            *c = c.max(0.0);
                        }
                    }
                    self.push(&mut steps, Step::Relu, shape, shape);
                }
                LayerSpec::BatchNorm2d {
                    gamma,
                    beta,
                    running_mean,
                    running_var,
                    eps,
                } => {
                    let step = self.lower_batchnorm(
                        gamma,
                        beta,
                        running_mean,
                        running_var,
                        *eps,
                        &mut carry,
                    );
                    self.push(&mut steps, step, shape, shape);
                }
                LayerSpec::MaxPool2d { kernel, stride } => {
                    let out = pooled_shape(shape, *kernel, *stride);
                    // A dropped channel is spatially constant, so pooling
                    // any window of it returns the same constant: the
                    // carry passes through untouched.
                    self.push(
                        &mut steps,
                        Step::MaxPool {
                            kernel: *kernel,
                            stride: *stride,
                        },
                        shape,
                        out,
                    );
                    shape = out;
                }
                LayerSpec::AvgPool2d { kernel, stride } => {
                    let out = pooled_shape(shape, *kernel, *stride);
                    self.push(
                        &mut steps,
                        Step::AvgPool {
                            kernel: *kernel,
                            stride: *stride,
                        },
                        shape,
                        out,
                    );
                    shape = out;
                }
                LayerSpec::Linear { name, weight, bias } => {
                    let (step, out) =
                        self.lower_linear(name, weight, bias, shape, &mut carry, rest);
                    self.push(&mut steps, step, shape, out);
                    shape = out;
                }
                LayerSpec::Conv2d {
                    name,
                    weight,
                    bias,
                    out_channels,
                    geom,
                } => {
                    let (step, out) = self.lower_conv(
                        name,
                        weight,
                        bias,
                        *out_channels,
                        geom,
                        shape,
                        &mut carry,
                        rest,
                    );
                    self.push(&mut steps, step, shape, out);
                    shape = out;
                }
                LayerSpec::Residual { main, shortcut } => {
                    assert!(
                        carry.is_none(),
                        "shrink eligibility must stop at residual blocks"
                    );
                    let (main_steps, main_out, main_carry) = self.chain(main, shape);
                    assert!(main_carry.is_none(), "residual main chain ended shrunk");
                    let (short_steps, short_out, short_carry) = if shortcut.is_empty() {
                        (Vec::new(), shape, None)
                    } else {
                        self.chain(shortcut, shape)
                    };
                    assert!(short_carry.is_none(), "residual shortcut ended shrunk");
                    assert_eq!(
                        main_out, short_out,
                        "residual main and shortcut shapes diverge"
                    );
                    self.push(
                        &mut steps,
                        Step::Residual {
                            main: main_steps,
                            shortcut: short_steps,
                        },
                        shape,
                        main_out,
                    );
                    shape = main_out;
                }
                LayerSpec::Sequential(_) => unreachable!("flattened before compile"),
            }
        }
        (steps, shape, carry)
    }

    fn push(
        &mut self,
        steps: &mut Vec<Planned>,
        step: Step,
        in_shape: FeatureShape,
        out_shape: FeatureShape,
    ) {
        self.max_act = self.max_act.max(in_shape.numel()).max(out_shape.numel());
        steps.push(Planned {
            step,
            in_shape,
            out_shape,
            label: self.pending_label.take().unwrap_or_default(),
        });
    }

    /// Batch norm: select surviving channels' parameters, and push the
    /// dropped channels' constants through the eval-mode transform using
    /// their *original* per-channel statistics.
    fn lower_batchnorm(
        &mut self,
        gamma: &Tensor,
        beta: &Tensor,
        mean: &Tensor,
        var: &Tensor,
        eps: f32,
        carry: &mut Option<Carry>,
    ) -> Step {
        let select = |t: &Tensor| -> Vec<f32> {
            match &*carry {
                Some(c) => c.kept.iter().map(|&i| t.data()[i]).collect(),
                None => t.data().to_vec(),
            }
        };
        let step = Step::BatchNorm {
            gamma: select(gamma),
            beta: select(beta),
            mean: select(mean),
            var: select(var),
            eps,
        };
        if let Some(carry) = carry {
            for (idx, c) in &mut carry.dropped {
                let istd = 1.0 / (var.data()[*idx] + eps).sqrt();
                *c = gamma.data()[*idx] * (*c - mean.data()[*idx]) * istd + beta.data()[*idx];
            }
        }
        step
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_linear(
        &mut self,
        name: &str,
        weight: &Tensor,
        bias: &Tensor,
        shape: FeatureShape,
        carry: &mut Option<Carry>,
        rest: &[LayerSpec],
    ) -> (Step, FeatureShape) {
        let (out_f, full_in) = (weight.dim(0), weight.dim(1));
        let (w, b, in_cols) = restrict_linear(weight, bias, carry.take());
        assert_eq!(
            shape.numel(),
            in_cols,
            "linear '{name}' input shape mismatch"
        );
        let dense_macs = (out_f * full_in) as u64;
        let choice = self.choose(&w, &b, rest, None);
        let (format, stats) = (choice.format, choice.stats);
        let (kernel, bias_vec, new_carry, effective) = build_kernel(choice, w, b, out_f);
        *carry = new_carry;
        let plan_out = kernel.out_features();
        if let Kernel::Csr(sparse) = &kernel {
            self.max_patch = self.max_patch.max(sparse.panel_len());
        }
        self.record_plan(name, format, stats, &kernel, &bias_vec, dense_macs, effective);
        self.pending_label = Some(format!("{name}:{}", format.label()));
        (
            Step::Matmul {
                kernel,
                bias: bias_vec,
            },
            FeatureShape::Flat { d: plan_out },
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_conv(
        &mut self,
        name: &str,
        weight: &Tensor,
        bias: &Tensor,
        out_channels: usize,
        geom: &Conv2dGeometry,
        shape: FeatureShape,
        carry: &mut Option<Carry>,
        rest: &[LayerSpec],
    ) -> (Step, FeatureShape) {
        let full_patch = geom.patch_len();
        assert_eq!(weight.dim(0), out_channels, "conv weight rows");
        assert_eq!(weight.dim(1), full_patch, "conv weight cols");
        let (w, b, geom) = restrict_conv(weight, bias, geom, carry.take());
        assert_eq!(
            shape,
            FeatureShape::Image {
                c: geom.in_channels,
                h: geom.in_h,
                w: geom.in_w
            },
            "conv '{name}' input shape mismatch"
        );
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let spatial = oh * ow;
        let dense_macs = (out_channels * full_patch * spatial) as u64;
        let choice = self.choose(&w, &b, rest, Some(&geom));
        let (format, stats) = (choice.format, choice.stats);
        let (mut kernel, bias_vec, new_carry, effective) = build_kernel(choice, w, b, out_channels);
        *carry = new_carry;
        let out_c = kernel.out_features();
        self.record_plan(name, format, stats, &kernel, &bias_vec, dense_macs, effective * spatial as u64);
        self.pending_label = Some(format!("{name}:{}", format.label()));
        // The sparse convolution writes NCHW output from a padded copy of
        // each sample: no patch matrix, no product rows.
        if let Kernel::Csr(sparse) = &kernel {
            self.max_patch = self.max_patch.max(PackedConv::padded_len(&geom));
            kernel = Kernel::CsrConv(PackedConv::pack(sparse, &geom));
        } else {
            let block_patch = self.opts.batch_block * spatial * geom.patch_len();
            self.max_patch = self.max_patch.max(block_patch);
            self.max_rows = self.max_rows.max(spatial * out_c);
        }
        let out = FeatureShape::Image {
            c: out_c,
            h: oh,
            w: ow,
        };
        (
            Step::Conv {
                kernel,
                bias: bias_vec,
                geom,
                out_c,
            },
            out,
        )
    }

    /// Cost-model format choice over the (column-restricted) weight data
    /// of a linear layer, or of a conv with `geom`.
    ///
    /// Each format's time per sample is predicted in nanoseconds
    /// ([`LayerStats::predict_ns`]). The dense lane (dense, or shrunk when
    /// the layer has zero rows its consumer can absorb) takes the cheaper
    /// of its two; a sparse format replaces it only when predicted at
    /// least [`MARGIN`] faster. An unpruned layer always stays dense: there
    /// is nothing to skip, and dense is the bit-exact reference path. The
    /// regimes this gives are pinned by `crates/infer/tests/formats.rs`.
    fn choose(
        &self,
        w: &Tensor,
        bias: &[f32],
        rest: &[LayerSpec],
        geom: Option<&Conv2dGeometry>,
    ) -> Choice {
        let (out_f, in_cols) = (w.dim(0), w.dim(1));
        let stats = LayerStats::of(w, geom);
        let nnz = stats.nnz;
        let (mut zero_rows, mut kept) = (Vec::new(), Vec::new());
        for (r, row) in w.data().chunks_exact(in_cols.max(1)).take(out_f).enumerate() {
            if row.iter().all(|&v| v == 0.0) {
                zero_rows.push(r);
            } else {
                kept.push(r);
            }
        }
        let dropped: Vec<(usize, f32)> = zero_rows.iter().map(|&r| (r, bias[r])).collect();
        let eligible =
            !zero_rows.is_empty() && !kept.is_empty() && shrink_eligible(rest, &dropped);
        let shrunk = LayerStats {
            rows: kept.len(),
            ..stats
        };
        // A forced sparse format with nothing stored falls back to Dense
        // rather than emit an empty blocked or bitmap kernel (the
        // degenerate-case contract in tests/formats.rs).
        let format = match self.opts.force_format {
            Some(ExecFormat::ShrunkDense) if !eligible => ExecFormat::Dense,
            Some(ExecFormat::Bsr | ExecFormat::Bitmap) if nnz == 0 => ExecFormat::Dense,
            Some(forced) => forced,
            None if nnz == out_f * in_cols => ExecFormat::Dense,
            None => {
                let mut lane = (stats.predict_ns(ExecFormat::Dense), ExecFormat::Dense);
                if eligible && shrunk.predict_ns(ExecFormat::ShrunkDense) < lane.0 {
                    lane = (shrunk.predict_ns(ExecFormat::ShrunkDense), ExecFormat::ShrunkDense);
                }
                // Fixed order; strict `<` resolves ties to the earlier
                // format.
                let mut best = (lane.0 * (1.0 - MARGIN), lane.1);
                for f in [ExecFormat::Csr, ExecFormat::Bsr, ExecFormat::Bitmap] {
                    let cost = stats.predict_ns(f);
                    if (f == ExecFormat::Csr || nnz > 0) && cost < best.0 {
                        best = (cost, f);
                    }
                }
                best.1
            }
        };
        Choice {
            format,
            stats: if format == ExecFormat::ShrunkDense { shrunk } else { stats },
            kept,
            dropped,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record_plan(
        &mut self,
        name: &str,
        format: ExecFormat,
        stats: LayerStats,
        kernel: &Kernel,
        bias: &[f32],
        dense_macs: u64,
        effective_macs: u64,
    ) {
        self.plans.push(LayerPlan {
            name: name.to_string(),
            format,
            dense_macs,
            effective_macs,
            storage_bytes: kernel.param_bytes() + bias.len() * 4,
            stats,
            predicted_ns: stats.predict_ns(format),
        });
    }
}

/// Materializes the chosen kernel and the carry it hands downstream.
///
/// Returns `(kernel, bias, carry, effective MACs per output pixel)`.
fn build_kernel(
    choice: Choice,
    w: Tensor,
    bias: Vec<f32>,
    out_f: usize,
) -> (Kernel, Vec<f32>, Option<Carry>, u64) {
    let in_cols = w.dim(1);
    match choice.format {
        ExecFormat::Dense => {
            let effective = (out_f * in_cols) as u64;
            (Kernel::Dense(PackedRhs::pack(&w)), bias, None, effective)
        }
        ExecFormat::Csr => {
            let sparse = SparseMatrix::from_dense(&w);
            let effective = sparse.nnz() as u64;
            (Kernel::Csr(sparse), bias, None, effective)
        }
        ExecFormat::Bsr => {
            let blocked = crate::formats::BsrMatrix::from_dense(&w, crate::formats::BSR_BLOCK_W);
            // BSR executes every stored lane, zeros inside live blocks
            // included — that is its honest effective-MAC count.
            let effective = blocked.stored_lanes() as u64;
            (Kernel::Bsr(blocked), bias, None, effective)
        }
        ExecFormat::Bitmap => {
            let bitmap = crate::formats::BitmapMatrix::from_dense(&w);
            let effective = bitmap.nnz() as u64;
            (Kernel::Bitmap(bitmap), bias, None, effective)
        }
        ExecFormat::ShrunkDense => {
            let kept = choice.kept;
            let data = w.data();
            let mut small = Vec::with_capacity(kept.len() * in_cols);
            for &r in &kept {
                small.extend_from_slice(&data[r * in_cols..(r + 1) * in_cols]);
            }
            let small =
                Tensor::from_vec(small, &[kept.len(), in_cols]).expect("shrunk kernel shape");
            let small_bias: Vec<f32> = kept.iter().map(|&r| bias[r]).collect();
            let effective = (kept.len() * in_cols) as u64;
            // A dropped row's weight is all zero, so its output is exactly
            // `bias_r` for every sample — the constant the carry tracks.
            let carry = Carry {
                kept,
                full: out_f,
                dropped: choice.dropped,
            };
            (
                Kernel::Dense(PackedRhs::pack(&small)),
                small_bias,
                Some(carry),
                effective,
            )
        }
    }
}

struct Choice {
    format: ExecFormat,
    /// The counts the cost model priced the chosen format on.
    stats: LayerStats,
    kept: Vec<usize>,
    /// `(row, bias)` of all-zero rows — the constants a shrink would carry.
    dropped: Vec<(usize, f32)>,
}

/// Whether a producer's zero output rows can be dropped.
///
/// A dropped channel still emits its bias — a per-channel constant that
/// downstream transparent ops transform. This walks the remaining chain
/// simulating those constants (`(original index, value)` pairs) until it
/// reaches a consumer that can absorb them:
///
/// * `Linear` — always absorbs (the constant folds into its bias exactly);
/// * unpadded `Conv2d` — absorbs the same way;
/// * padded `Conv2d` — absorbs only if every constant is exactly `0.0`,
///   because padding pixels read zero while a folded constant would have
///   to apply at every patch position;
/// * `Residual` (or chain end) — barrier: the producer stays unshrunk.
fn shrink_eligible(rest: &[LayerSpec], dropped: &[(usize, f32)]) -> bool {
    let mut consts: Vec<(usize, f32)> = dropped.to_vec();
    for spec in rest {
        match spec {
            LayerSpec::Identity
            | LayerSpec::Flatten
            | LayerSpec::MaxPool2d { .. }
            | LayerSpec::AvgPool2d { .. } => {}
            LayerSpec::ReLU => {
                for (_, c) in &mut consts {
                    *c = c.max(0.0);
                }
            }
            LayerSpec::BatchNorm2d {
                gamma,
                beta,
                running_mean,
                running_var,
                eps,
            } => {
                for (idx, c) in &mut consts {
                    let istd = 1.0 / (running_var.data()[*idx] + eps).sqrt();
                    *c = gamma.data()[*idx] * (*c - running_mean.data()[*idx]) * istd
                        + beta.data()[*idx];
                }
            }
            LayerSpec::Linear { .. } => return true,
            LayerSpec::Conv2d { geom, .. } => {
                return (geom.padding_h == 0 && geom.padding_w == 0)
                    || consts.iter().all(|&(_, c)| c == 0.0)
            }
            LayerSpec::Residual { .. } | LayerSpec::Sequential(_) => return false,
        }
    }
    false
}

/// Restricts a linear layer to the carried kept columns and folds the
/// dropped channels' constants into the bias (exactly: each dropped input
/// feature is the same constant for every sample).
fn restrict_linear(weight: &Tensor, bias: &Tensor, carry: Option<Carry>) -> (Tensor, Vec<f32>, usize) {
    let (out_f, full_in) = (weight.dim(0), weight.dim(1));
    let mut b = bias.data().to_vec();
    let Some(carry) = carry else {
        return (weight.clone(), b, full_in);
    };
    assert_eq!(carry.full, full_in, "linear carry width mismatch");
    let data = weight.data();
    for &(d, c) in &carry.dropped {
        if c != 0.0 {
            for (i, bi) in b.iter_mut().enumerate() {
                *bi += data[i * full_in + d] * c;
            }
        }
    }
    let in_cols = carry.kept.len();
    let mut w = Vec::with_capacity(out_f * in_cols);
    for i in 0..out_f {
        let row = &data[i * full_in..(i + 1) * full_in];
        w.extend(carry.kept.iter().map(|&k| row[k]));
    }
    let w = Tensor::from_vec(w, &[out_f, in_cols]).expect("restricted linear shape");
    (w, b, in_cols)
}

/// Restricts a conv layer to the carried kept input channels.
///
/// For padded convolutions the dropped constants must be exactly zero
/// (padding pixels read zero while a folded constant would have to apply
/// everywhere); unpadded convolutions fold `constant · Σ kernel-taps`
/// into the bias exactly.
fn restrict_conv(
    weight: &Tensor,
    bias: &Tensor,
    geom: &Conv2dGeometry,
    carry: Option<Carry>,
) -> (Tensor, Vec<f32>, Conv2dGeometry) {
    let out_c = weight.dim(0);
    let mut b = bias.data().to_vec();
    let Some(carry) = carry else {
        return (weight.clone(), b, *geom);
    };
    assert_eq!(carry.full, geom.in_channels, "conv carry width mismatch");
    let khkw = geom.kernel_h * geom.kernel_w;
    let full_patch = geom.patch_len();
    let data = weight.data();
    let padded = geom.padding_h > 0 || geom.padding_w > 0;
    for &(d, c) in &carry.dropped {
        if c == 0.0 {
            continue;
        }
        assert!(
            !padded,
            "cannot fold nonzero dropped-channel constant into a padded conv \
             (eligibility should have rejected this shrink)"
        );
        for (i, bi) in b.iter_mut().enumerate() {
            let block = &data[i * full_patch + d * khkw..i * full_patch + (d + 1) * khkw];
            let mut acc = 0.0f32;
            for &v in block {
                acc += v;
            }
            *bi += c * acc;
        }
    }
    let in_cols = carry.kept.len() * khkw;
    let mut w = Vec::with_capacity(out_c * in_cols);
    for i in 0..out_c {
        let row = &data[i * full_patch..(i + 1) * full_patch];
        for &k in &carry.kept {
            w.extend_from_slice(&row[k * khkw..(k + 1) * khkw]);
        }
    }
    let w = Tensor::from_vec(w, &[out_c, in_cols]).expect("restricted conv shape");
    let mut g = *geom;
    g.in_channels = carry.kept.len();
    (w, b, g)
}

/// Expands a channel carry across spatial positions after `Flatten`.
fn flatten_carry(carry: &mut Carry, hw: usize) {
    let kept = std::mem::take(&mut carry.kept);
    let dropped = std::mem::take(&mut carry.dropped);
    carry.kept = kept
        .iter()
        .flat_map(|&c| (0..hw).map(move |s| c * hw + s))
        .collect();
    carry.dropped = dropped
        .iter()
        .flat_map(|&(c, v)| (0..hw).map(move |s| (c * hw + s, v)))
        .collect();
    carry.full *= hw;
}

fn pooled_shape(shape: FeatureShape, kernel: usize, stride: usize) -> FeatureShape {
    let FeatureShape::Image { c, h, w } = shape else {
        panic!("pooling requires image features");
    };
    let ext = |e: usize| {
        assert!(e >= kernel, "pool window does not fit input of size {e}");
        (e - kernel) / stride + 1
    };
    FeatureShape::Image {
        c,
        h: ext(h),
        w: ext(w),
    }
}
