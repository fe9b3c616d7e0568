//! Sequential networks: composition, inference, and one-step training.

use cne_util::SeedSequence;

use crate::layer::{Conv1d, Dense, Layer, MaxPool1d, Relu};
use crate::loss::{cross_entropy, cross_entropy_grad, softmax};
use crate::matrix::Matrix;

/// A feed-forward network: a sequence of layers ending in logits.
///
/// The softmax is applied by [`Network::predict_proba`] / the training
/// step rather than stored as a layer, which keeps the cross-entropy
/// gradient in its numerically stable fused form.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    input_width: usize,
}

impl Network {
    /// Builds a multi-layer perceptron from a width specification
    /// `[input, hidden…, output]` with ReLU between affine layers.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    ///
    /// # Examples
    /// ```
    /// use cne_nn::network::Network;
    /// let net = Network::mlp(&[16, 32, 10], cne_util::SeedSequence::new(0));
    /// assert_eq!(net.input_width(), 16);
    /// assert_eq!(net.output_width(), 10);
    /// ```
    #[must_use]
    pub fn mlp(widths: &[usize], seed: SeedSequence) -> Self {
        assert!(widths.len() >= 2, "mlp needs at least input and output");
        let mut layers = Vec::new();
        for (idx, pair) in widths.windows(2).enumerate() {
            layers.push(Layer::Dense(Dense::new(
                pair[0],
                pair[1],
                seed.derive("dense").derive_index(idx as u64),
            )));
            if idx + 2 < widths.len() {
                layers.push(Layer::Relu(Relu::new(pair[1])));
            }
        }
        Self {
            layers,
            input_width: widths[0],
        }
    }

    /// Builds a small 1-D convolutional classifier:
    /// `Conv1d(1→channels, kernel) → ReLU → MaxPool(pool) → [Dense(hidden) → ReLU] → Dense(classes)`.
    ///
    /// The input vector is treated as a single-channel signal of length
    /// `input_len`, mirroring how the paper's CNNs treat images.
    ///
    /// # Panics
    /// Panics on degenerate shapes (kernel/pool larger than the signal).
    #[must_use]
    pub fn conv_net(
        input_len: usize,
        channels: usize,
        kernel: usize,
        pool: usize,
        hidden: Option<usize>,
        classes: usize,
        seed: SeedSequence,
    ) -> Self {
        let conv = Conv1d::new(1, channels, kernel, input_len, seed.derive("conv"));
        let conv_out_len = conv.out_len();
        let pool_layer = MaxPool1d::new(channels, conv_out_len, pool);
        let flat = channels * pool_layer.out_len();
        let mut layers = vec![
            Layer::Conv1d(conv),
            Layer::Relu(Relu::new(channels * conv_out_len)),
            Layer::MaxPool1d(pool_layer),
        ];
        match hidden {
            Some(h) => {
                layers.push(Layer::Dense(Dense::new(flat, h, seed.derive("fc1"))));
                layers.push(Layer::Relu(Relu::new(h)));
                layers.push(Layer::Dense(Dense::new(h, classes, seed.derive("fc2"))));
            }
            None => {
                layers.push(Layer::Dense(Dense::new(flat, classes, seed.derive("fc1"))));
            }
        }
        Self {
            layers,
            input_width: input_len,
        }
    }

    /// Feature width the network expects.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Every parameter tensor, layer by layer (weights, then bias), in
    /// a fixed order that depends only on the architecture.
    pub fn params(&self) -> impl Iterator<Item = &[f64]> {
        self.layers.iter().filter_map(Layer::params).flatten()
    }

    /// Mutable [`Network::params`], in the same order.
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.layers
            .iter_mut()
            .filter_map(Layer::params_mut)
            .flatten()
    }

    /// Width of the logits layer.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.layers
            .last()
            .map(Layer::output_width)
            .unwrap_or(self.input_width)
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Approximate multiply–accumulates per inference sample.
    #[must_use]
    pub fn flops_per_sample(&self) -> usize {
        self.layers.iter().map(Layer::flops_per_sample).sum()
    }

    /// Raw logits for a batch.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Class probabilities (softmax of the logits).
    pub fn predict_proba(&mut self, x: &Matrix) -> Matrix {
        softmax(&self.forward(x))
    }

    /// Runs one mini-batch SGD step against integer labels; returns the
    /// batch's mean cross-entropy before the step.
    ///
    /// # Panics
    /// Panics if `x.rows() != labels.len()`.
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize], lr: f64) -> f64 {
        assert_eq!(x.rows(), labels.len(), "batch size mismatch");
        let probs = softmax(&self.forward(x));
        let loss = cross_entropy(&probs, labels);
        let mut grad = cross_entropy_grad(&probs, labels);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        for layer in &mut self.layers {
            layer.step(lr);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_shapes() {
        let mut net = Network::mlp(&[8, 16, 4], SeedSequence::new(1));
        assert_eq!(net.output_width(), 4);
        let y = net.forward(&Matrix::zeros(3, 8));
        assert_eq!(y.shape(), (3, 4));
        assert_eq!(net.param_count(), 8 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn conv_net_shapes() {
        let mut net = Network::conv_net(16, 4, 3, 2, Some(12), 10, SeedSequence::new(2));
        let y = net.forward(&Matrix::zeros(2, 16));
        assert_eq!(y.shape(), (2, 10));
        assert!(net.flops_per_sample() > 0);
    }

    #[test]
    fn training_reduces_loss_on_separable_toy() {
        // Two well-separated Gaussian blobs in 2-D.
        let seed = SeedSequence::new(3);
        let mut rng = seed.derive("data").rng();
        use rand::Rng;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let c = i % 2;
            let center = if c == 0 { -2.0 } else { 2.0 };
            rows.push(vec![
                center + rng.gen_range(-0.5..0.5),
                center + rng.gen_range(-0.5..0.5),
            ]);
            labels.push(c);
        }
        let x = Matrix::from_rows(&rows);
        let mut net = Network::mlp(&[2, 8, 2], seed.derive("net"));
        let first = net.train_batch(&x, &labels, 0.5);
        let mut last = first;
        for _ in 0..50 {
            last = net.train_batch(&x, &labels, 0.5);
        }
        assert!(
            last < first * 0.2,
            "training failed to reduce loss: {first} -> {last}"
        );
        let acc = crate::loss::accuracy(&net.predict_proba(&x), &labels);
        assert!(acc > 0.95, "toy accuracy too low: {acc}");
    }

    #[test]
    fn conv_net_trains_on_pattern_task() {
        // Class 1 has a strong bump in the first half of the signal,
        // class 0 in the second half: detectable by convolution.
        let seed = SeedSequence::new(4);
        let mut rng = seed.derive("data").rng();
        use rand::Rng;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let c = i % 2;
            let mut v: Vec<f64> = (0..16).map(|_| rng.gen_range(-0.2..0.2)).collect();
            let pos = if c == 1 { 3 } else { 11 };
            v[pos] += 2.0;
            v[pos + 1] += 2.0;
            rows.push(v);
            labels.push(c);
        }
        let x = Matrix::from_rows(&rows);
        let mut net = Network::conv_net(16, 4, 3, 2, None, 2, seed.derive("net"));
        for _ in 0..60 {
            net.train_batch(&x, &labels, 0.3);
        }
        let acc = crate::loss::accuracy(&net.predict_proba(&x), &labels);
        assert!(acc > 0.9, "conv net failed the pattern task: {acc}");
    }

    #[test]
    fn deterministic_initialization() {
        let a = Network::mlp(&[4, 4, 2], SeedSequence::new(5));
        let b = Network::mlp(&[4, 4, 2], SeedSequence::new(5));
        let xa = a.clone().forward(&Matrix::zeros(1, 4));
        let xb = b.clone().forward(&Matrix::zeros(1, 4));
        assert_eq!(xa.as_slice(), xb.as_slice());
    }
}
