//! Neural-network layers with hand-written backpropagation.
//!
//! Activations flow through the network as `batch × features` matrices.
//! Convolutional layers interpret each row as a channel-major 1-D signal
//! (`[ch0 t0..tL, ch1 t0..tL, …]`); the synthetic tasks' feature vectors
//! play the role of the image pixels in the paper's CNNs.
//!
//! Each layer caches what it needs during `forward` and accumulates
//! parameter gradients during `backward`; `step` applies one SGD update
//! and clears the gradients.

use cne_util::SeedSequence;

use crate::matrix::Matrix;

/// A network layer.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected affine layer.
    Dense(Dense),
    /// Element-wise rectified linear unit.
    Relu(Relu),
    /// 1-D valid convolution, stride 1.
    Conv1d(Conv1d),
    /// 1-D max pooling with stride equal to window width.
    MaxPool1d(MaxPool1d),
}

impl Layer {
    /// Forward pass; caches whatever the backward pass needs.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        match self {
            Layer::Dense(l) => l.forward(x),
            Layer::Relu(l) => l.forward(x),
            Layer::Conv1d(l) => l.forward(x),
            Layer::MaxPool1d(l) => l.forward(x),
        }
    }

    /// Backward pass: consumes `∂L/∂output`, accumulates parameter
    /// gradients, returns `∂L/∂input`.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self {
            Layer::Dense(l) => l.backward(grad_out),
            Layer::Relu(l) => l.backward(grad_out),
            Layer::Conv1d(l) => l.backward(grad_out),
            Layer::MaxPool1d(l) => l.backward(grad_out),
        }
    }

    /// Applies one SGD step with the given learning rate and clears the
    /// accumulated gradients.
    pub fn step(&mut self, lr: f64) {
        match self {
            Layer::Dense(l) => l.step(lr),
            Layer::Conv1d(l) => l.step(lr),
            Layer::Relu(_) | Layer::MaxPool1d(_) => {}
        }
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.param_count(),
            Layer::Conv1d(l) => l.param_count(),
            Layer::Relu(_) | Layer::MaxPool1d(_) => 0,
        }
    }

    /// The layer's parameter tensors as flat slices — weights, then
    /// bias — or `None` for a parameter-free layer. Zoo snapshots
    /// export weights through this.
    #[must_use]
    pub fn params(&self) -> Option<[&[f64]; 2]> {
        match self {
            Layer::Dense(l) => Some([l.weight.as_slice(), &l.bias]),
            Layer::Conv1d(l) => Some([l.weight.as_slice(), &l.bias]),
            Layer::Relu(_) | Layer::MaxPool1d(_) => None,
        }
    }

    /// Mutable [`Layer::params`]: zoo snapshots import weights and
    /// post-training quantization rewrites them through this.
    pub fn params_mut(&mut self) -> Option<[&mut [f64]; 2]> {
        match self {
            Layer::Dense(l) => Some([l.weight.as_mut_slice(), &mut l.bias]),
            Layer::Conv1d(l) => Some([l.weight.as_mut_slice(), &mut l.bias]),
            Layer::Relu(_) | Layer::MaxPool1d(_) => None,
        }
    }

    /// Output feature width given the input width this layer was built
    /// for.
    #[must_use]
    pub fn output_width(&self) -> usize {
        match self {
            Layer::Dense(l) => l.out_features,
            Layer::Relu(l) => l.width,
            Layer::Conv1d(l) => l.out_channels * l.out_len(),
            Layer::MaxPool1d(l) => l.channels * l.out_len(),
        }
    }

    /// Approximate multiply–accumulate operations per sample, used to
    /// derive the per-model latency and energy profiles of the zoo.
    #[must_use]
    pub fn flops_per_sample(&self) -> usize {
        match self {
            Layer::Dense(l) => l.in_features * l.out_features,
            Layer::Relu(l) => l.width,
            Layer::Conv1d(l) => l.out_channels * l.in_channels * l.kernel * l.out_len(),
            Layer::MaxPool1d(l) => l.channels * l.len,
        }
    }
}

/// Fully connected layer `y = xW + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Matrix,
    bias: Vec<f64>,
    grad_weight: Matrix,
    grad_bias: Vec<f64>,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with He-style uniform initialization.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, seed: SeedSequence) -> Self {
        let scale = (6.0 / in_features as f64).sqrt();
        Self {
            in_features,
            out_features,
            weight: Matrix::random_uniform(in_features, out_features, scale, seed),
            bias: vec![0.0; out_features],
            grad_weight: Matrix::zeros(in_features, out_features),
            grad_bias: vec![0.0; out_features],
            cached_input: None,
        }
    }

    /// Weight matrix (for inspection/tests).
    #[must_use]
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_features, "dense input width mismatch");
        let mut y = x.matmul(&self.weight);
        y.add_row_broadcast(&self.bias);
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        self.grad_weight.axpy(1.0, &x.transpose_matmul(grad_out));
        for (g, s) in self.grad_bias.iter_mut().zip(grad_out.column_sums()) {
            *g += s;
        }
        grad_out.matmul_transpose(&self.weight)
    }

    fn step(&mut self, lr: f64) {
        self.weight.axpy(-lr, &self.grad_weight);
        for (b, g) in self.bias.iter_mut().zip(&self.grad_bias) {
            *b -= lr * g;
        }
        self.grad_weight.fill_zero();
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    fn param_count(&self) -> usize {
        self.in_features * self.out_features + self.out_features
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone)]
pub struct Relu {
    width: usize,
    cached_input: Option<Matrix>,
}

impl Relu {
    /// Creates a ReLU for inputs of the given feature width.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            cached_input: None,
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.width, "relu input width mismatch");
        let mut y = x.clone();
        y.map_inplace(|v| v.max(0.0));
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let mut g = grad_out.clone();
        for (gv, &xv) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
            if xv <= 0.0 {
                *gv = 0.0;
            }
        }
        g
    }
}

/// 1-D valid convolution with stride 1 over channel-major signals.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Input signal length per channel.
    len: usize,
    /// Weights laid out as `out_ch × (in_ch · kernel)`.
    weight: Matrix,
    bias: Vec<f64>,
    grad_weight: Matrix,
    grad_bias: Vec<f64>,
    cached_input: Option<Matrix>,
}

impl Conv1d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    /// Panics if `kernel` exceeds `len` or any dimension is zero.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        len: usize,
        seed: SeedSequence,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && len > 0);
        assert!(kernel <= len, "kernel longer than signal");
        let fan_in = in_channels * kernel;
        let scale = (6.0 / fan_in as f64).sqrt();
        Self {
            in_channels,
            out_channels,
            kernel,
            len,
            weight: Matrix::random_uniform(out_channels, fan_in, scale, seed),
            bias: vec![0.0; out_channels],
            grad_weight: Matrix::zeros(out_channels, fan_in),
            grad_bias: vec![0.0; out_channels],
            cached_input: None,
        }
    }

    /// Output length per channel (`len − kernel + 1`).
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.len - self.kernel + 1
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_channels * self.len,
            "conv input width mismatch"
        );
        let out_len = self.out_len();
        let mut y = Matrix::zeros(x.rows(), self.out_channels * out_len);
        for b in 0..x.rows() {
            let xin = x.row(b);
            let yout = y.row_mut(b);
            for oc in 0..self.out_channels {
                let w_row = self.weight.row(oc);
                for p in 0..out_len {
                    let mut acc = self.bias[oc];
                    for ic in 0..self.in_channels {
                        let sig = &xin[ic * self.len + p..ic * self.len + p + self.kernel];
                        let ker = &w_row[ic * self.kernel..(ic + 1) * self.kernel];
                        for (s, k) in sig.iter().zip(ker) {
                            acc += s * k;
                        }
                    }
                    yout[oc * out_len + p] = acc;
                }
            }
        }
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let out_len = self.out_len();
        assert_eq!(grad_out.cols(), self.out_channels * out_len);
        let mut grad_in = Matrix::zeros(x.rows(), x.cols());
        for b in 0..x.rows() {
            let xin = x.row(b);
            let gout = grad_out.row(b);
            for oc in 0..self.out_channels {
                let w_row = self.weight.row(oc);
                let gw_row_start = oc;
                for p in 0..out_len {
                    let g = gout[oc * out_len + p];
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_bias[oc] += g;
                    for ic in 0..self.in_channels {
                        for k in 0..self.kernel {
                            let xi = ic * self.len + p + k;
                            // dW[oc][ic*kernel + k] += g * x
                            let col = ic * self.kernel + k;
                            let cur = self.grad_weight.get(gw_row_start, col);
                            self.grad_weight.set(gw_row_start, col, cur + g * xin[xi]);
                            grad_in.row_mut(b)[xi] += g * w_row[col];
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn step(&mut self, lr: f64) {
        self.weight.axpy(-lr, &self.grad_weight);
        for (b, g) in self.bias.iter_mut().zip(&self.grad_bias) {
            *b -= lr * g;
        }
        self.grad_weight.fill_zero();
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    fn param_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel + self.out_channels
    }
}

/// 1-D max pooling with non-overlapping windows.
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    channels: usize,
    len: usize,
    width: usize,
    cached_argmax: Option<Vec<usize>>,
    cached_rows: usize,
}

impl MaxPool1d {
    /// Creates a pooling layer over `channels` signals of length `len`
    /// with window/stride `width`.
    ///
    /// # Panics
    /// Panics if `width` is zero or exceeds `len`.
    #[must_use]
    pub fn new(channels: usize, len: usize, width: usize) -> Self {
        assert!(width > 0 && width <= len, "bad pooling width");
        Self {
            channels,
            len,
            width,
            cached_argmax: None,
            cached_rows: 0,
        }
    }

    /// Output length per channel.
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.len / self.width
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.channels * self.len, "pool width mismatch");
        let out_len = self.out_len();
        let mut y = Matrix::zeros(x.rows(), self.channels * out_len);
        let mut argmax = vec![0usize; x.rows() * self.channels * out_len];
        for b in 0..x.rows() {
            let xin = x.row(b);
            for c in 0..self.channels {
                for p in 0..out_len {
                    let start = c * self.len + p * self.width;
                    let mut best = f64::NEG_INFINITY;
                    let mut best_i = start;
                    for (i, &v) in xin.iter().enumerate().take(start + self.width).skip(start) {
                        if v > best {
                            best = v;
                            best_i = i;
                        }
                    }
                    y.set(b, c * out_len + p, best);
                    argmax[(b * self.channels + c) * out_len + p] = best_i;
                }
            }
        }
        self.cached_argmax = Some(argmax);
        self.cached_rows = x.rows();
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let argmax = self
            .cached_argmax
            .as_ref()
            .expect("backward called before forward");
        let out_len = self.out_len();
        let mut grad_in = Matrix::zeros(self.cached_rows, self.channels * self.len);
        for b in 0..self.cached_rows {
            for c in 0..self.channels {
                for p in 0..out_len {
                    let src = grad_out.get(b, c * out_len + p);
                    let idx = argmax[(b * self.channels + c) * out_len + p];
                    grad_in.row_mut(b)[idx] += src;
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check helper: compares analytic input
    /// gradient with numeric differentiation of a scalar loss
    /// `L = Σ y·g` for a fixed cotangent `g`.
    fn check_input_gradient(mut layer: Layer, in_width: usize) {
        let seed = SeedSequence::new(99);
        let x = Matrix::random_uniform(3, in_width, 1.0, seed.derive("x"));
        let y = layer.forward(&x);
        let g = Matrix::random_uniform(y.rows(), y.cols(), 1.0, seed.derive("g"));
        let analytic = layer.backward(&g);
        let eps = 1e-5;
        for r in 0..x.rows() {
            for c in 0..in_width {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let loss = |m: &Matrix, layer: &mut Layer| -> f64 {
                    let y = layer.forward(m);
                    y.as_slice()
                        .iter()
                        .zip(g.as_slice())
                        .map(|(a, b)| a * b)
                        .sum()
                };
                let lp = loss(&xp, &mut layer);
                let lm = loss(&xm, &mut layer);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn dense_forward_known() {
        let mut d = Dense::new(2, 2, SeedSequence::new(1));
        // Overwrite with known weights.
        d.weight = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        d.bias = vec![0.5, -0.5];
        let y = d.forward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn dense_input_gradient() {
        check_input_gradient(Layer::Dense(Dense::new(5, 4, SeedSequence::new(2))), 5);
    }

    #[test]
    fn relu_input_gradient() {
        check_input_gradient(Layer::Relu(Relu::new(6)), 6);
    }

    #[test]
    fn conv_input_gradient() {
        check_input_gradient(
            Layer::Conv1d(Conv1d::new(2, 3, 3, 8, SeedSequence::new(3))),
            16,
        );
    }

    #[test]
    fn conv_output_shape() {
        let mut c = Conv1d::new(1, 4, 3, 16, SeedSequence::new(4));
        let y = c.forward(&Matrix::zeros(2, 16));
        assert_eq!(y.shape(), (2, 4 * 14));
        assert_eq!(c.out_len(), 14);
    }

    #[test]
    fn pool_forward_and_gradient_routing() {
        let mut p = MaxPool1d::new(1, 4, 2);
        let y = p.forward(&Matrix::from_vec(1, 4, vec![1.0, 5.0, 2.0, 0.0]));
        assert_eq!(y.as_slice(), &[5.0, 2.0]);
        let g = p.backward(&Matrix::from_vec(1, 2, vec![10.0, 20.0]));
        assert_eq!(g.as_slice(), &[0.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn dense_weight_gradient_numeric() {
        let seed = SeedSequence::new(7);
        let mut d = Dense::new(3, 2, seed.derive("layer"));
        let x = Matrix::random_uniform(4, 3, 1.0, seed.derive("x"));
        let g = Matrix::random_uniform(4, 2, 1.0, seed.derive("g"));
        let _ = d.forward(&x);
        let _ = d.backward(&g);
        let analytic = d.grad_weight.clone();
        let eps = 1e-5;
        for r in 0..3 {
            for c in 0..2 {
                let orig = d.weight.get(r, c);
                let eval = |d: &mut Dense, v: f64| {
                    d.weight.set(r, c, v);
                    let y = d.forward(&x);
                    let s: f64 = y
                        .as_slice()
                        .iter()
                        .zip(g.as_slice())
                        .map(|(a, b)| a * b)
                        .sum();
                    s
                };
                let lp = eval(&mut d, orig + eps);
                let lm = eval(&mut d, orig - eps);
                d.weight.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!((a - numeric).abs() < 1e-4 * (1.0 + numeric.abs()));
            }
        }
    }

    #[test]
    fn step_moves_weights_and_clears_grads() {
        let mut d = Dense::new(2, 2, SeedSequence::new(8));
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let _ = d.forward(&x);
        let _ = d.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let before = d.weight.clone();
        d.step(0.1);
        assert_ne!(before.as_slice(), d.weight.as_slice());
        assert_eq!(d.grad_weight.frobenius_norm(), 0.0);
        assert!(d.grad_bias.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_counts() {
        assert_eq!(Dense::new(4, 3, SeedSequence::new(9)).param_count(), 15);
        assert_eq!(
            Conv1d::new(2, 3, 3, 8, SeedSequence::new(10)).param_count(),
            2 * 3 * 3 + 3
        );
    }
}
