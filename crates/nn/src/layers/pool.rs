//! Spatial pooling layers.

use crate::layers::Layer;
use crate::network::Mode;
use crate::spec::LayerSpec;
use sb_tensor::Tensor;

/// Max pooling with a square window and equal stride (the classic
/// `kernel=2, stride=2` downsampler unless configured otherwise).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }

    /// Output spatial extent for an input extent.
    fn out_extent(&self, e: usize) -> usize {
        assert!(e >= self.kernel, "pool window does not fit input of size {e}");
        (e - self.kernel) / self.stride + 1
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().ndim(), 4, "MaxPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let (oh, ow) = (self.out_extent(h), self.out_extent(w));
        let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        let data = input.data();
        for nc in 0..n * c {
            let in_base = nc * h * w;
            let out_base = nc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    // A window with no value above −∞ (all −∞ or NaN)
                    // routes its gradient to its own first element.
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = in_base + oy * self.stride * w + ox * self.stride;
                    for ky in 0..self.kernel {
                        let iy = oy * self.stride + ky;
                        for kx in 0..self.kernel {
                            let ix = ox * self.stride + kx;
                            let idx = in_base + iy * w + ix;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[out_base + oy * ow + ox] = best;
                    argmax[out_base + oy * ow + ox] = best_idx;
                }
            }
        }
        if mode == Mode::Train {
            self.cache = Some(PoolCache {
                argmax,
                in_dims: input.dims().to_vec(),
            });
        }
        Tensor::from_vec(out, &[n, c, oh, ow]).expect("shape computed above")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("MaxPool2d::backward called without a training-mode forward");
        let mut dx = Tensor::zeros(&cache.in_dims);
        for (&src, &dy) in cache.argmax.iter().zip(grad_output.data()) {
            dx.data_mut()[src] += dy;
        }
        dx
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::MaxPool2d {
            kernel: self.kernel,
            stride: self.stride,
        })
    }
}

/// Average pooling; with `kernel == input extent` it acts as global
/// average pooling (the ResNet head).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cached_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        AvgPool2d {
            kernel,
            stride,
            cached_dims: None,
        }
    }

    /// Global average pooling over the full spatial extent `side × side`.
    pub fn global(side: usize) -> Self {
        AvgPool2d::new(side, side)
    }

    fn out_extent(&self, e: usize) -> usize {
        assert!(e >= self.kernel, "pool window does not fit input of size {e}");
        (e - self.kernel) / self.stride + 1
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().ndim(), 4, "AvgPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let (oh, ow) = (self.out_extent(h), self.out_extent(w));
        let norm = 1.0 / (self.kernel * self.kernel) as f32;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let data = input.data();
        for nc in 0..n * c {
            let in_base = nc * h * w;
            let out_base = nc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..self.kernel {
                        let iy = oy * self.stride + ky;
                        for kx in 0..self.kernel {
                            acc += data[in_base + iy * w + ox * self.stride + kx];
                        }
                    }
                    out[out_base + oy * ow + ox] = acc * norm;
                }
            }
        }
        if mode == Mode::Train {
            self.cached_dims = Some(input.dims().to_vec());
        }
        Tensor::from_vec(out, &[n, c, oh, ow]).expect("shape computed above")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let in_dims = self
            .cached_dims
            .take()
            .expect("AvgPool2d::backward called without a training-mode forward");
        let (h, w) = (in_dims[2], in_dims[3]);
        let (n, c, oh, ow) = (
            grad_output.dim(0),
            grad_output.dim(1),
            grad_output.dim(2),
            grad_output.dim(3),
        );
        let norm = 1.0 / (self.kernel * self.kernel) as f32;
        let mut dx = Tensor::zeros(&in_dims);
        for nc in 0..n * c {
            let in_base = nc * h * w;
            let out_base = nc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let dy = grad_output.data()[out_base + oy * ow + ox] * norm;
                    for ky in 0..self.kernel {
                        let iy = oy * self.stride + ky;
                        for kx in 0..self.kernel {
                            let ix = ox * self.stride + kx;
                            dx.data_mut()[in_base + iy * w + ix] += dy;
                        }
                    }
                }
            }
        }
        dx
    }

    fn spec(&self) -> Option<LayerSpec> {
        Some(LayerSpec::AvgPool2d {
            kernel: self.kernel,
            stride: self.stride,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_max() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_routes_an_all_neg_infinity_window_to_its_own_element() {
        // Channel 1 is all −∞, so no element beats the initial best; its
        // gradient belongs to its own first element (index 4), not to
        // element 0 of the batch.
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, ninf, ninf, ninf, ninf], &[1, 2, 2, 2])
            .unwrap();
        let mut pool = MaxPool2d::new(2, 2);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[4.0, ninf]);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0, 7.0], &[1, 2, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_averages() {
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn global_avgpool_reduces_to_1x1() {
        let mut pool = AvgPool2d::global(3);
        let x = Tensor::from_fn(&[2, 2, 3, 3], |i| i as f32);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 2, 1, 1]);
        assert_eq!(y.data()[0], 4.0); // mean of 0..9
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let mut pool = AvgPool2d::new(2, 2);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_window_panics() {
        MaxPool2d::new(4, 4).forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval);
    }
}
