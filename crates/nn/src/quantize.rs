//! Post-training weight quantization (the paper's second future-work
//! item: supporting larger models at the edge "via quantization-aware
//! carbon or energy control").
//!
//! Symmetric uniform quantization: each parameter tensor is mapped onto
//! a `2^{bits−1} − 1`-level grid scaled by its own max magnitude, then
//! dequantized back to `f64` — i.e. the network keeps its architecture
//! but its weights carry only `bits` bits of information, as a real
//! integer-kernel deployment would. Quantized zoo variants
//! ([`crate::zoo::ModelZoo::with_quantized_variants`]) get
//! proportionally smaller sizes and cheaper energy/latency, letting the
//! controller trade accuracy against carbon exactly as the paper
//! envisions.

use crate::matrix::Matrix;
use crate::network::Network;

/// Fraction of full-precision inference energy/latency retained by an
/// 8-bit integer kernel (a conservative literature-typical value).
pub const INT8_COMPUTE_FACTOR: f64 = 0.65;

/// Quantizes a value onto the symmetric grid `{−L, …, L}·scale`.
#[must_use]
fn quantize_value(v: f64, scale: f64) -> f64 {
    if scale <= 0.0 {
        return 0.0;
    }
    (v / scale).round() * scale
}

/// Quantizes a matrix in place with its own per-tensor scale.
///
/// # Panics
/// Panics if `bits < 2` (a 1-bit symmetric grid has no non-zero level).
pub fn quantize_matrix(m: &mut Matrix, bits: u32) {
    quantize_slice(m.as_mut_slice(), bits);
}

/// Quantizes a parameter tensor in place with its own scale.
fn quantize_slice(xs: &mut [f64], bits: u32) {
    assert!(bits >= 2, "need at least 2 bits for a symmetric grid");
    let levels = ((1u64 << (bits - 1)) - 1) as f64;
    let max = xs.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    if max == 0.0 {
        return;
    }
    let scale = max / levels;
    for v in xs {
        *v = quantize_value(*v, scale);
    }
}

impl Network {
    /// Returns a copy of the network with all parameters quantized to
    /// `bits` bits.
    ///
    /// # Panics
    /// Panics if `bits < 2`.
    ///
    /// # Examples
    /// ```
    /// use cne_nn::network::Network;
    /// let net = Network::mlp(&[4, 8, 2], cne_util::SeedSequence::new(1));
    /// let q = net.quantized(8);
    /// assert_eq!(q.param_count(), net.param_count());
    /// ```
    #[must_use]
    pub fn quantized(&self, bits: u32) -> Network {
        let mut out = self.clone();
        for tensor in out.params_mut() {
            quantize_slice(tensor, bits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_util::SeedSequence;

    #[test]
    fn grid_size_respected() {
        let mut m = Matrix::random_uniform(8, 8, 1.0, SeedSequence::new(1));
        quantize_matrix(&mut m, 4);
        // A 4-bit symmetric grid has at most 2·7 + 1 = 15 distinct
        // values.
        let mut values: Vec<i64> = m
            .as_slice()
            .iter()
            .map(|&v| (v * 1e9).round() as i64)
            .collect();
        values.sort_unstable();
        values.dedup();
        assert!(values.len() <= 15, "too many levels: {}", values.len());
    }

    #[test]
    fn high_bit_quantization_is_nearly_lossless() {
        let orig = Matrix::random_uniform(10, 10, 1.0, SeedSequence::new(2));
        let mut q = orig.clone();
        quantize_matrix(&mut q, 16);
        for (a, b) in orig.as_slice().iter().zip(q.as_slice()) {
            assert!((a - b).abs() < 1e-4, "16-bit error too large");
        }
    }

    #[test]
    fn zero_matrix_unchanged() {
        let mut m = Matrix::zeros(3, 3);
        quantize_matrix(&mut m, 8);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quantized_network_still_classifies_toy_task() {
        // Train a small net, quantize to 8 bits, and check that its
        // predictions barely move.
        use crate::loss::accuracy;
        use rand::Rng;
        let seed = SeedSequence::new(3);
        let mut rng = seed.derive("data").rng();
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
        for _ in 0..60 {
            net.train_batch(&x, &labels, 0.5);
        }
        let full_acc = accuracy(&net.predict_proba(&x), &labels);
        let mut q8 = net.quantized(8);
        let q8_acc = accuracy(&q8.predict_proba(&x), &labels);
        assert!(full_acc > 0.95);
        assert!(
            q8_acc >= full_acc - 0.05,
            "8-bit quantization lost too much: {full_acc} -> {q8_acc}"
        );
        // 2-bit quantization is allowed to be lossy but must not crash.
        let mut q2 = net.quantized(2);
        let _ = q2.predict_proba(&x);
    }

    #[test]
    #[should_panic(expected = "at least 2 bits")]
    fn one_bit_rejected() {
        let mut m = Matrix::zeros(2, 2);
        quantize_matrix(&mut m, 1);
    }
}
