//! The cost model: each layer's predicted time per sample, in
//! nanoseconds, in each execution format.
//!
//! A prediction is a sum of fitted constants times counts of the work a
//! kernel does, per sample (`S` is a conv's output pixels, 1 for a
//! linear layer):
//!
//! | format | terms |
//! |--------|-------|
//! | dense, shrunk | `panel_rows·cols·S` multiply-adds in the tile (rows rounded up to whole panels, [`PackedRhs::padded_rows`]); for a conv also `cols·S` unfolded elements and `rows·S` reordered outputs |
//! | csr, linear | `nnz` stored entries and `rows` output rows of the lane-panel kernel |
//! | csr, conv | per stride class (1, or more): `nnz·out_h·⌈out_w / 8⌉` weight steps of the register tile ([`PackedConv::row_tiles`]) and the padded copy's elements ([`PackedConv::padded_len`]) |
//! | bsr | `cols·S` unfolded elements (conv only), `rows·S` output rows, `blocks·S` live blocks |
//! | bitmap | `cols·S` unfolded elements (conv only), `rows·S` output rows, `nnz·S` set bits, `words·S` mask words |
//!
//! Each group's constants are fitted on their own, so BSR and bitmap price
//! the unfold they share with dense with constants of their own. The
//! constants are fitted by [`fit`] to the per-layer self times in
//! `figures/cost-fit.csv` (written by `expfig cost-fit`), and
//! `crates/infer/tests/cost_fit.rs` checks that the constants below equal
//! that fit to two significant digits. The compiler picks a sparse format
//! only when its prediction beats the best dense-lane one by [`MARGIN`].

use crate::formats::BSR_BLOCK_W;
use crate::plan::ExecFormat;
use sb_tensor::{Conv2dGeometry, PackedConv, PackedRhs, Tensor};

/// A sparse format must be predicted this fraction faster than the best
/// dense-lane format (dense or shrunk) to be picked. It is no smaller than
/// the fit's largest median relative error over the formats
/// (`figures/cost-fit.txt`).
pub const MARGIN: f64 = 0.2;

/// What the cost model counts in one weight-bearing layer, as compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerStats {
    /// A convolution (else a linear layer).
    pub conv: bool,
    /// Output features: the kernel's rows (the kept rows when shrunk).
    pub rows: usize,
    /// Input columns: a conv's patch length, a linear layer's inputs.
    pub cols: usize,
    /// Stored nonzero weights.
    pub nnz: usize,
    /// Live `BSR_BLOCK_W`-wide blocks.
    pub blocks: usize,
    /// Bitmap mask words: `rows · ⌈cols / 64⌉`.
    pub words: usize,
    /// Output pixels per sample (1 for a linear layer).
    pub spatial: usize,
    /// Conv stride (1 for a linear layer).
    pub stride: usize,
    /// Weight steps of the sparse convolution's register tiles: each
    /// stored weight steps every tile of its filter's plane,
    /// `nnz · out_h · ⌈out_w / 8⌉` ([`PackedConv::row_tiles`]); 0 for a
    /// linear layer.
    pub tiles: usize,
    /// Elements of the sparse convolution's zero-padded copy of a sample
    /// ([`PackedConv::padded_len`]); 0 for a linear layer.
    pub padded: usize,
}

/// A group of constants that are fitted together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// The register tile, with a conv's unfold and reorder: dense and
    /// shrunk layers.
    Dense,
    /// The CSR lane-panel kernel of a linear layer.
    CsrLinear,
    /// The sparse convolution at stride 1.
    CsrConv,
    /// The sparse convolution at stride 2 or more.
    CsrConvStrided,
    /// The BSR kernel over unfolded rows.
    Bsr,
    /// The bitmap kernel over unfolded rows.
    Bitmap,
}

impl Term {
    /// Every group, in report order.
    pub const ALL: [Term; 6] = [
        Term::Dense,
        Term::CsrLinear,
        Term::CsrConv,
        Term::CsrConvStrided,
        Term::Bsr,
        Term::Bitmap,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Term::Dense => "dense",
            Term::CsrLinear => "csr-linear",
            Term::CsrConv => "csr-conv-s1",
            Term::CsrConvStrided => "csr-conv-s2",
            Term::Bsr => "bsr",
            Term::Bitmap => "bitmap",
        }
    }

    /// What each constant is charged per.
    pub fn units(&self) -> &'static [&'static str] {
        match self {
            Term::Dense => &["tile mac", "unfolded element", "reordered output"],
            Term::CsrLinear => &["stored entry", "output row"],
            Term::CsrConv | Term::CsrConvStrided => &["tile step", "padded element"],
            Term::Bsr => &["unfolded element", "output row", "live block"],
            Term::Bitmap => &["unfolded element", "output row", "set bit", "mask word"],
        }
    }

    /// The fitted constants, ns per unit of [`Term::units`].
    pub fn constants(&self) -> &'static [f64] {
        match self {
            Term::Dense => &[0.2, 1.0, 3.8],
            Term::CsrLinear => &[0.61, 3.1],
            Term::CsrConv => &[2.5, 1.7],
            Term::CsrConvStrided => &[4.9, 1.0],
            Term::Bsr => &[1.0, 13.0, 1.9],
            Term::Bitmap => &[0.95, 6.4, 1.7, 2.7],
        }
    }
}

impl LayerStats {
    /// Counts a `[rows, cols]` weight, run as a linear layer or, with
    /// `geom`, as a convolution.
    pub fn of(w: &Tensor, geom: Option<&Conv2dGeometry>) -> LayerStats {
        let (rows, cols) = (w.dim(0), w.dim(1));
        let data = w.data();
        let mut stats = LayerStats {
            conv: geom.is_some(),
            rows,
            cols,
            words: rows * cols.div_ceil(64),
            spatial: 1,
            stride: 1,
            ..LayerStats::default()
        };
        // Every stored weight steps the same tiles: a filter's plane.
        let mut row_tiles = 0;
        if let Some(g) = geom {
            stats.spatial = g.out_h() * g.out_w();
            stats.stride = g.stride;
            stats.padded = PackedConv::padded_len(g);
            row_tiles = PackedConv::row_tiles(g);
        }
        for row in data.chunks_exact(cols.max(1)).take(rows) {
            stats.nnz += row.iter().filter(|&&v| v != 0.0).count();
            stats.blocks += row
                .chunks(BSR_BLOCK_W)
                .filter(|b| b.iter().any(|&v| v != 0.0))
                .count();
        }
        stats.tiles = stats.nnz * row_tiles;
        stats
    }

    /// The group whose constants price this layer in `format`, and its
    /// counts per sample in [`Term::units`] order.
    pub fn counts(&self, format: ExecFormat) -> (Term, Vec<f64>) {
        let s = self.spatial as f64;
        let (rows, cols) = (self.rows as f64, self.cols as f64);
        let unfold = if self.conv { cols * s } else { 0.0 };
        match format {
            ExecFormat::Dense | ExecFormat::ShrunkDense => (
                Term::Dense,
                vec![
                    PackedRhs::padded_rows(self.rows) as f64 * cols * s,
                    unfold,
                    if self.conv { rows * s } else { 0.0 },
                ],
            ),
            ExecFormat::Csr if !self.conv => (Term::CsrLinear, vec![self.nnz as f64, rows]),
            ExecFormat::Csr => (
                if self.stride == 1 {
                    Term::CsrConv
                } else {
                    Term::CsrConvStrided
                },
                vec![self.tiles as f64, self.padded as f64],
            ),
            ExecFormat::Bsr => (Term::Bsr, vec![unfold, rows * s, self.blocks as f64 * s]),
            ExecFormat::Bitmap => (
                Term::Bitmap,
                vec![unfold, rows * s, self.nnz as f64 * s, self.words as f64 * s],
            ),
        }
    }

    /// Predicted ns per sample in `format`. A shrunk layer is priced as
    /// dense over its kept rows, which the caller puts in `rows`.
    pub fn predict_ns(&self, format: ExecFormat) -> f64 {
        let (term, counts) = self.counts(format);
        dot(term.constants(), &counts)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One measured layer: what it counts, the format it ran in, and its
/// median self time per sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The compiled layer's counts.
    pub stats: LayerStats,
    /// The format it ran in.
    pub format: ExecFormat,
    /// Median self time per sample, ns.
    pub ns: f64,
}

/// One group's fitted constants, to two significant digits.
#[derive(Debug, Clone, PartialEq)]
pub struct Fitted {
    /// The group.
    pub term: Term,
    /// Its constants, in [`Term::units`] order.
    pub constants: Vec<f64>,
    /// The samples it was fitted to.
    pub samples: usize,
}

/// Fits every group's constants to `samples` by non-negative least
/// squares on relative error: for each group, the constants `c ≥ 0` that
/// minimize `Σ ((c·counts − ns) / ns)²` over its samples, rounded to two
/// significant digits. A group with no samples gets zeros.
pub fn fit(samples: &[Sample]) -> Vec<Fitted> {
    Term::ALL
        .iter()
        .map(|&term| {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for s in samples.iter().filter(|s| s.ns > 0.0) {
                let (t, counts) = s.stats.counts(s.format);
                if t == term {
                    a.push(counts.iter().map(|c| c / s.ns).collect::<Vec<_>>());
                    b.push(1.0);
                }
            }
            Fitted {
                term,
                constants: nnls(&a, &b, term.units().len())
                    .into_iter()
                    .map(two_significant)
                    .collect(),
                samples: a.len(),
            }
        })
        .collect()
}

impl Fitted {
    /// The relative error `|c·counts − ns| / ns` of these constants on
    /// each of `samples` in this group.
    pub fn errors(&self, samples: &[Sample]) -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.ns > 0.0)
            .filter_map(|s| {
                let (t, counts) = s.stats.counts(s.format);
                (t == self.term).then(|| (dot(&self.constants, &counts) - s.ns).abs() / s.ns)
            })
            .collect()
    }
}

/// `x` rounded to two significant digits.
pub fn two_significant(x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let scale = 10f64.powi(1 - x.abs().log10().floor() as i32);
    (x * scale).round() / scale
}

/// Non-negative least squares for `k` unknowns: the best of the
/// unconstrained least-squares solutions over every support set whose
/// solution is non-negative. Exact for the two or three unknowns a group
/// has. Returns zeros when there are no rows.
fn nnls(a: &[Vec<f64>], b: &[f64], k: usize) -> Vec<f64> {
    let mut best = (b.iter().map(|v| v * v).sum::<f64>(), vec![0.0; k]);
    for mask in 1u32..(1 << k) {
        let cols: Vec<usize> = (0..k).filter(|&j| mask & (1 << j) != 0).collect();
        let Some(sol) = least_squares(a, b, &cols) else {
            continue;
        };
        if sol.iter().any(|&v| v < 0.0) {
            continue;
        }
        let mut x = vec![0.0; k];
        for (&j, &v) in cols.iter().zip(&sol) {
            x[j] = v;
        }
        let err: f64 = a
            .iter()
            .zip(b)
            .map(|(row, &bi)| (dot(row, &x) - bi).powi(2))
            .sum();
        if err < best.0 {
            best = (err, x);
        }
    }
    best.1
}

/// Least squares over the columns `cols` of `a`, by the normal equations
/// on norm-scaled columns; `None` when they are singular.
fn least_squares(a: &[Vec<f64>], b: &[f64], cols: &[usize]) -> Option<Vec<f64>> {
    let k = cols.len();
    let norm: Vec<f64> = cols
        .iter()
        .map(|&j| a.iter().map(|r| r[j] * r[j]).sum::<f64>().sqrt())
        .collect();
    if norm.contains(&0.0) {
        return None;
    }
    // Augmented normal equations [AᵀA | Aᵀb] over the scaled columns.
    let mut m = vec![vec![0.0; k + 1]; k];
    for (row, &bi) in a.iter().zip(b) {
        for p in 0..k {
            let ap = row[cols[p]] / norm[p];
            for q in 0..k {
                m[p][q] += ap * row[cols[q]] / norm[q];
            }
            m[p][k] += ap * bi;
        }
    }
    for p in 0..k {
        let pivot = (p..k).max_by(|&i, &j| m[i][p].abs().total_cmp(&m[j][p].abs()))?;
        if m[pivot][p].abs() < 1e-12 {
            return None;
        }
        m.swap(p, pivot);
        let pivot_row = m[p].clone();
        for (i, row) in m.iter_mut().enumerate() {
            if i != p {
                let f = row[p] / pivot_row[p];
                for (v, &pv) in row.iter_mut().zip(&pivot_row).skip(p) {
                    *v -= f * pv;
                }
            }
        }
    }
    Some((0..k).map(|p| m[p][k] / m[p][p] / norm[p]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnls_recovers_exact_nonnegative_constants() {
        let a: Vec<Vec<f64>> = (1..8)
            .map(|i| vec![i as f64, (i * i) as f64, 1.0])
            .collect();
        let b: Vec<f64> = a
            .iter()
            .map(|r| 0.5 * r[0] + 0.25 * r[1] + 2.0 * r[2])
            .collect();
        let x = nnls(&a, &b, 3);
        for (got, want) in x.iter().zip([0.5, 0.25, 2.0]) {
            assert!((got - want).abs() < 1e-9, "{x:?}");
        }
    }

    #[test]
    fn nnls_clamps_a_negative_constant_to_zero() {
        // The unconstrained fit wants a negative second constant.
        let a: Vec<Vec<f64>> = (1..6).map(|i| vec![1.0, i as f64]).collect();
        let b: Vec<f64> = (1..6).map(|i| 10.0 - i as f64).collect();
        let x = nnls(&a, &b, 2);
        assert_eq!(x[1], 0.0);
        assert!((x[0] - 7.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn two_significant_digits() {
        assert_eq!(two_significant(0.2749), 0.27);
        assert_eq!(two_significant(1.75), 1.8);
        assert_eq!(two_significant(123.0), 120.0);
        assert_eq!(two_significant(0.0), 0.0);
    }

    #[test]
    fn sparse_conv_counts_tiles_and_padded_elements() {
        // A 3x3 kernel, padding 1 on a 12x12 input: 12 output rows of two
        // 8-wide tiles (the second a tail), so each stored weight steps 24
        // tiles; the padded copy is 14x14 plus the 8 zeros past it.
        let g = Conv2dGeometry::square(1, 12, 12, 3, 1, 1);
        let mut w = vec![0.0f32; 9];
        w[4] = 1.0;
        w[0] = 1.0;
        let stats = LayerStats::of(&Tensor::from_vec(w, &[1, 9]).unwrap(), Some(&g));
        assert_eq!((stats.nnz, stats.tiles, stats.padded), (2, 48, 14 * 14 + 8));
        assert_eq!((stats.spatial, stats.blocks, stats.words), (144, 2, 1));
    }
}
