//! The model zoo: six trained classifiers per task, with deployment
//! profiles and precomputed evaluation tables.
//!
//! The paper's zoo holds, per dataset, two CNNs, two LeNet-5 variants,
//! and two MLPs (MobileNet V1 replaces one MLP for CIFAR-10). We mirror
//! the *structure* with six from-scratch architectures of graded
//! capacity — two 1-D conv nets, two two-hidden-layer ("LeNet-ish")
//! MLPs, and two single-hidden-layer MLPs — trained on the synthetic
//! task with our own SGD.
//!
//! Each trained model carries:
//!
//! * a **deployment profile**: model size `W_n` (nominal megabytes of
//!   the real-world family member it stands in for), base inference
//!   latency, and per-sample energy `φ_n` in the paper's
//!   `[6, 10] × 10⁻⁸ kWh` band, both derived from the architecture's
//!   FLOP count;
//! * an **evaluation table**: the Brier loss and correctness of the
//!   model on every sample of the task's test pool. A slot's empirical
//!   loss `L_{i,n}^t` is then the mean of table entries at the stream's
//!   indices — statistically identical to running inference on each
//!   arriving sample, at table-lookup cost.

use cne_simdata::dataset::{Dataset, GaussianMixtureTask, TaskKind};
use cne_util::units::{EnergyPerSample, Megabytes, Millis};
use cne_util::SeedSequence;

use crate::loss::{argmax, brier_loss};
use crate::matrix::Matrix;
use crate::network::Network;
use crate::train::{to_matrix, train, TrainConfig};

/// Architectural family of a zoo model (mirrors the paper's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Convolutional networks (the paper's two CNNs).
    Cnn,
    /// Two-hidden-layer networks (the paper's LeNet-5 variants).
    LeNet,
    /// Single-hidden-layer perceptrons (the paper's MLPs / MobileNet
    /// slot).
    Mlp,
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelFamily::Cnn => f.write_str("cnn"),
            ModelFamily::LeNet => f.write_str("lenet"),
            ModelFamily::Mlp => f.write_str("mlp"),
        }
    }
}

/// Deployment profile of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Human-readable name, e.g. `"cnn-large"`.
    pub name: String,
    /// Architecture family.
    pub family: ModelFamily,
    /// Model size `W_n` used for download energy and delay (nominal
    /// size of the real family member, since toy parameter counts
    /// would understate transfer costs by orders of magnitude).
    pub size: Megabytes,
    /// Base single-sample inference latency at a nominal edge
    /// (`v_{i,n}` = base × edge compute factor).
    pub base_latency: Millis,
    /// Per-sample inference energy `φ_n`.
    pub energy_per_sample: EnergyPerSample,
    /// Trainable parameter count of the from-scratch network.
    pub param_count: usize,
    /// Approximate multiply–accumulates per inference.
    pub flops: usize,
}

/// Precomputed per-pool-sample evaluation of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalTable {
    losses: Vec<f64>,
    correct: Vec<bool>,
    /// The pool mean of `losses`, summed once at construction.
    expected_loss: f64,
}

impl EvalTable {
    /// Builds a table from parallel loss/correctness vectors.
    ///
    /// # Panics
    /// Panics if the vectors' lengths differ or the table is empty.
    #[must_use]
    pub fn new(losses: Vec<f64>, correct: Vec<bool>) -> Self {
        assert_eq!(losses.len(), correct.len(), "table length mismatch");
        assert!(!losses.is_empty(), "empty evaluation table");
        let expected_loss = losses.iter().sum::<f64>() / losses.len() as f64;
        Self {
            losses,
            correct,
            expected_loss,
        }
    }

    /// Number of pool samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.losses.len()
    }

    /// True when the table is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.losses.is_empty()
    }

    /// Brier loss of pool sample `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn loss(&self, idx: usize) -> f64 {
        self.losses[idx]
    }

    /// Mean loss over the whole pool — the model's (empirical)
    /// `E[l_n]`, which "Offline" uses as its oracle (paper §V-A).
    /// Computed once, at construction, so every read is O(1).
    #[must_use]
    pub fn expected_loss(&self) -> f64 {
        self.expected_loss
    }

    /// Every pool sample's loss.
    #[must_use]
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// Every pool sample's correctness.
    #[must_use]
    pub fn correct(&self) -> &[bool] {
        &self.correct
    }

    /// Pool accuracy.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.correct.iter().filter(|&&c| c).count() as f64 / self.correct.len() as f64
    }

    /// Mean loss over a slice of pool indices (the slot loss
    /// `L_{i,n}^t`); returns 0 for an empty slot.
    #[must_use]
    pub fn mean_loss_at(&self, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        indices.iter().map(|&i| self.losses[i]).sum::<f64>() / indices.len() as f64
    }

    /// Fraction of correct predictions over a slice of pool indices;
    /// returns 1.0 for an empty slot (no mistakes made).
    #[must_use]
    pub fn accuracy_at(&self, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 1.0;
        }
        indices.iter().filter(|&&i| self.correct[i]).count() as f64 / indices.len() as f64
    }
}

/// A trained model: network, profile, and evaluation table.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// Deployment profile.
    pub profile: ModelProfile,
    /// Per-pool-sample evaluation.
    pub eval: EvalTable,
    /// The trained network itself (kept for the examples and for users
    /// who want to run real forward passes).
    pub network: Network,
}

/// Zoo construction hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZooConfig {
    /// Training-set size per model.
    pub train_samples: usize,
    /// Test-pool size (the paper samples 8000 points per dataset).
    pub pool_samples: usize,
    /// Training configuration shared by all models.
    pub train: TrainConfig,
}

impl Default for ZooConfig {
    /// Paper-scale configuration: 8000-sample pool.
    fn default() -> Self {
        Self {
            train_samples: 4000,
            pool_samples: 8000,
            train: TrainConfig::default(),
        }
    }
}

impl ZooConfig {
    /// A reduced configuration for fast unit tests.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            train_samples: 600,
            pool_samples: 800,
            train: TrainConfig {
                epochs: 3,
                batch_size: 64,
                learning_rate: 0.2,
            },
        }
    }
}

/// Specification of one zoo member.
pub(crate) struct ModelSpec {
    pub(crate) name: &'static str,
    pub(crate) family: ModelFamily,
    nominal_size_mb: f64,
    pub(crate) build: fn(dim: usize, classes: usize, seed: SeedSequence) -> Network,
}

/// The paper's six-model taxonomy, instantiated per task dimensionality.
pub(crate) fn zoo_specs() -> [ModelSpec; 6] {
    [
        ModelSpec {
            name: "cnn-small",
            family: ModelFamily::Cnn,
            nominal_size_mb: 1.6,
            build: |dim, classes, seed| Network::conv_net(dim, 4, 3, 2, None, classes, seed),
        },
        ModelSpec {
            name: "cnn-large",
            family: ModelFamily::Cnn,
            nominal_size_mb: 3.2,
            build: |dim, classes, seed| Network::conv_net(dim, 8, 3, 2, Some(32), classes, seed),
        },
        ModelSpec {
            name: "lenet-a",
            family: ModelFamily::LeNet,
            nominal_size_mb: 0.25,
            build: |dim, classes, seed| Network::mlp(&[dim, 24, 16, classes], seed),
        },
        ModelSpec {
            name: "lenet-b",
            family: ModelFamily::LeNet,
            nominal_size_mb: 0.5,
            build: |dim, classes, seed| Network::mlp(&[dim, 48, 24, classes], seed),
        },
        ModelSpec {
            name: "mlp-small",
            family: ModelFamily::Mlp,
            nominal_size_mb: 0.1,
            build: |dim, classes, seed| Network::mlp(&[dim, 4, classes], seed),
        },
        ModelSpec {
            name: "mobile-mini",
            family: ModelFamily::Mlp,
            nominal_size_mb: 17.0,
            build: |dim, classes, seed| Network::mlp(&[dim, 128, 64, classes], seed),
        },
    ]
}

/// Bounds of the paper's per-sample inference energy band (kWh).
const ENERGY_BAND: (f64, f64) = (6.0e-8, 10.0e-8);

/// Bounds of the base-latency band; with edge compute factors in
/// `[0.7, 1.3]` the realized `v_{i,n}` stays inside the paper's
/// `[25, 150]` ms.
const LATENCY_BAND: (f64, f64) = (36.0, 115.0);

/// A trained model zoo over one synthetic task.
#[derive(Debug, Clone)]
pub struct ModelZoo {
    kind: TaskKind,
    models: Vec<TrainedModel>,
    pool: Dataset,
}

impl ModelZoo {
    /// Builds and trains the six-model zoo for `kind`.
    ///
    /// This actually runs SGD for each architecture on freshly generated
    /// task data, then evaluates every model on the shared test pool.
    #[must_use]
    pub fn train(kind: TaskKind, config: &ZooConfig, seed: &SeedSequence) -> Self {
        let (task, pool) = task_and_pool(kind, config.pool_samples, seed);
        let train_data = task.generate(config.train_samples, &seed.derive("train-data"));
        let (pool_x, pool_y) = to_matrix(&pool);

        let specs = zoo_specs();
        // FLOP range across the zoo, for latency/energy interpolation.
        let flops: Vec<usize> = specs
            .iter()
            .map(|s| {
                (s.build)(task.spec().dim, task.spec().classes, SeedSequence::new(0))
                    .flops_per_sample()
            })
            .collect();
        let fmin = *flops.iter().min().expect("non-empty zoo") as f64;
        let fmax = *flops.iter().max().expect("non-empty zoo") as f64;
        let lerp = |band: (f64, f64), f: f64| {
            if (fmax - fmin).abs() < f64::EPSILON {
                (band.0 + band.1) / 2.0
            } else {
                band.0 + (band.1 - band.0) * (f - fmin) / (fmax - fmin)
            }
        };

        let models = specs
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let model_seed = seed.derive("model").derive_index(idx as u64);
                let mut network = (spec.build)(
                    task.spec().dim,
                    task.spec().classes,
                    model_seed.derive("init"),
                );
                train(
                    &mut network,
                    &train_data,
                    config.train,
                    model_seed.derive("sgd"),
                );
                let eval = evaluate(&mut network, &pool_x, &pool_y);
                let f = network.flops_per_sample() as f64;
                let profile = ModelProfile {
                    name: spec.name.to_owned(),
                    family: spec.family,
                    size: Megabytes::new(spec.nominal_size_mb),
                    base_latency: Millis::new(lerp(LATENCY_BAND, f)),
                    energy_per_sample: EnergyPerSample::new(lerp(ENERGY_BAND, f)),
                    param_count: network.param_count(),
                    flops: network.flops_per_sample(),
                };
                TrainedModel {
                    profile,
                    eval,
                    network,
                }
            })
            .collect();
        Self { kind, models, pool }
    }

    /// Assembles a zoo from already-trained models (a loaded snapshot).
    pub(crate) fn from_parts(kind: TaskKind, models: Vec<TrainedModel>, pool: Dataset) -> Self {
        Self { kind, models, pool }
    }

    /// The task this zoo was trained for.
    #[must_use]
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Number of models `N`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when the zoo holds no models (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The trained models.
    #[must_use]
    pub fn models(&self) -> &[TrainedModel] {
        &self.models
    }

    /// Model `n`.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn model(&self, n: usize) -> &TrainedModel {
        &self.models[n]
    }

    /// The shared test pool the streams draw from.
    #[must_use]
    pub fn pool(&self) -> &Dataset {
        &self.pool
    }

    /// Returns a zoo extended with `bits`-bit quantized variants of
    /// every model (the paper's future-work extension: larger models at
    /// the edge via quantization-aware carbon/energy control).
    ///
    /// Each variant is the *actually quantized* network re-evaluated on
    /// the shared test pool — its accuracy loss is measured, not
    /// assumed. Deployment profiles shrink accordingly: size scales
    /// with `bits/32` (the full-precision deployment is float32) and
    /// compute energy/latency by a literature-typical integer-kernel
    /// factor.
    ///
    /// # Panics
    /// Panics if `bits < 2`.
    #[must_use]
    pub fn with_quantized_variants(&self, bits: u32) -> ModelZoo {
        let (pool_x, pool_y) = to_matrix(&self.pool);
        let compute_factor = if bits <= 8 {
            crate::quantize::INT8_COMPUTE_FACTOR
        } else if bits <= 16 {
            0.8
        } else {
            1.0
        };
        let size_factor = f64::from(bits) / 32.0;
        let mut models = self.models.clone();
        for base in &self.models {
            let mut network = base.network.quantized(bits);
            let eval = evaluate(&mut network, &pool_x, &pool_y);
            let profile = ModelProfile {
                name: quantized_name(&base.profile.name, bits),
                family: base.profile.family,
                size: base.profile.size * size_factor,
                base_latency: base.profile.base_latency * compute_factor,
                energy_per_sample: cne_util::units::EnergyPerSample::new(
                    base.profile.energy_per_sample.get() * compute_factor,
                ),
                param_count: base.profile.param_count,
                flops: base.profile.flops,
            };
            models.push(TrainedModel {
                profile,
                eval,
                network,
            });
        }
        ModelZoo {
            kind: self.kind,
            models,
            pool: self.pool.clone(),
        }
    }

    /// Index of the model with the lowest pool-expected loss (the
    /// quantity Offline's oracle minimizes; hosting cost is added by
    /// the caller, which knows the edge).
    #[must_use]
    pub fn best_by_expected_loss(&self) -> usize {
        let mut best = 0;
        for (n, m) in self.models.iter().enumerate() {
            if m.eval.expected_loss() < self.models[best].eval.expected_loss() {
                best = n;
            }
        }
        best
    }
}

/// Name of the `bits`-bit quantized variant of model `base`.
pub(crate) fn quantized_name(base: &str, bits: u32) -> String {
    format!("{base}-q{bits}")
}

/// The task and its shared test pool: a pure function of `(kind, pool
/// size, seed)`, so a snapshot regenerates the pool instead of storing
/// it.
pub(crate) fn task_and_pool(
    kind: TaskKind,
    pool_samples: usize,
    seed: &SeedSequence,
) -> (GaussianMixtureTask, Dataset) {
    let task = GaussianMixtureTask::new(kind, seed.derive("task"));
    let pool = task.generate(pool_samples, &seed.derive("test-pool"));
    (task, pool)
}

/// Evaluates a network over the pool in batches, producing the table.
fn evaluate(network: &mut Network, pool_x: &Matrix, pool_y: &[usize]) -> EvalTable {
    let mut losses = Vec::with_capacity(pool_y.len());
    let mut correct = Vec::with_capacity(pool_y.len());
    let batch = 256;
    let n = pool_y.len();
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let xb = pool_x.select_rows(&idx);
        let probs = network.predict_proba(&xb);
        for (r, &label) in pool_y[start..end].iter().enumerate() {
            losses.push(brier_loss(probs.row(r), label));
            correct.push(argmax(probs.row(r)) == label);
        }
        start = end;
    }
    EvalTable::new(losses, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_zoo(kind: TaskKind, seed: u64) -> ModelZoo {
        ModelZoo::train(kind, &ZooConfig::fast(), &SeedSequence::new(seed))
    }

    #[test]
    fn zoo_has_six_trained_models() {
        let zoo = fast_zoo(TaskKind::MnistLike, 1);
        assert_eq!(zoo.len(), 6);
        assert_eq!(zoo.pool().len(), 800);
        for m in zoo.models() {
            assert_eq!(m.eval.len(), 800);
            let el = m.eval.expected_loss();
            assert!((0.0..=2.0).contains(&el), "loss out of range: {el}");
        }
    }

    #[test]
    fn mnist_like_models_mostly_learn() {
        let zoo = fast_zoo(TaskKind::MnistLike, 2);
        // The larger models must reach high accuracy even in the fast
        // configuration.
        let best_acc = zoo
            .models()
            .iter()
            .map(|m| m.eval.accuracy())
            .fold(0.0f64, f64::max);
        assert!(best_acc > 0.85, "best model accuracy too low: {best_acc}");
        // All models should beat chance (0.1) comfortably.
        for m in zoo.models() {
            assert!(
                m.eval.accuracy() > 0.2,
                "{} below chance-ish: {}",
                m.profile.name,
                m.eval.accuracy()
            );
        }
    }

    #[test]
    fn models_have_distinct_quality() {
        let zoo = fast_zoo(TaskKind::CifarLike, 3);
        let mut losses: Vec<f64> = zoo
            .models()
            .iter()
            .map(|m| m.eval.expected_loss())
            .collect();
        losses.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        // A meaningful suboptimality gap must exist between the best and
        // worst models, otherwise the bandit problem is degenerate.
        assert!(
            losses[5] - losses[0] > 0.02,
            "loss gaps too small: {losses:?}"
        );
    }

    #[test]
    fn profiles_in_paper_bands() {
        let zoo = fast_zoo(TaskKind::MnistLike, 4);
        for m in zoo.models() {
            let e = m.profile.energy_per_sample.get();
            assert!((6.0e-8..=10.0e-8).contains(&e), "energy out of band: {e}");
            let l = m.profile.base_latency.get();
            assert!((36.0..=115.0).contains(&l), "latency out of band: {l}");
            assert!(m.profile.size.get() > 0.0);
            assert!(m.profile.param_count > 0);
        }
        // The biggest architecture must cost more energy than the
        // smallest.
        let energies: Vec<f64> = zoo
            .models()
            .iter()
            .map(|m| m.profile.energy_per_sample.get())
            .collect();
        let min = energies.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let max = energies.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(max > min);
    }

    #[test]
    fn slot_loss_is_mean_of_table() {
        let zoo = fast_zoo(TaskKind::MnistLike, 5);
        let table = &zoo.model(0).eval;
        let idx = [0usize, 5, 17];
        let expect = (table.loss(0) + table.loss(5) + table.loss(17)) / 3.0;
        assert!((table.mean_loss_at(&idx) - expect).abs() < 1e-12);
        assert_eq!(table.mean_loss_at(&[]), 0.0);
        assert_eq!(table.accuracy_at(&[]), 1.0);
    }

    #[test]
    fn best_by_expected_loss_is_argmin() {
        let zoo = fast_zoo(TaskKind::CifarLike, 6);
        let best = zoo.best_by_expected_loss();
        let best_loss = zoo.model(best).eval.expected_loss();
        for m in zoo.models() {
            assert!(m.eval.expected_loss() >= best_loss - 1e-12);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fast_zoo(TaskKind::MnistLike, 7);
        let b = fast_zoo(TaskKind::MnistLike, 7);
        for (x, y) in a.models().iter().zip(b.models()) {
            assert_eq!(x.eval, y.eval);
            assert_eq!(x.profile, y.profile);
        }
    }

    #[test]
    fn quantized_variants_double_the_zoo() {
        let zoo = fast_zoo(TaskKind::MnistLike, 8);
        let extended = zoo.with_quantized_variants(8);
        assert_eq!(extended.len(), 12);
        for (base, quant) in zoo.models().iter().zip(&extended.models()[6..]) {
            assert_eq!(quant.profile.name, format!("{}-q8", base.profile.name));
            // Smaller and cheaper to run…
            assert!(quant.profile.size.get() < base.profile.size.get());
            assert!(quant.profile.energy_per_sample.get() < base.profile.energy_per_sample.get());
            // …with only a modest accuracy hit at 8 bits.
            assert!(
                quant.eval.accuracy() >= base.eval.accuracy() - 0.1,
                "{}: {} -> {}",
                base.profile.name,
                base.eval.accuracy(),
                quant.eval.accuracy()
            );
        }
    }

    #[test]
    fn aggressive_quantization_degrades_accuracy() {
        let zoo = fast_zoo(TaskKind::MnistLike, 9);
        let q8 = zoo.with_quantized_variants(8);
        let q2 = zoo.with_quantized_variants(2);
        let mean_acc = |z: &ModelZoo, from: usize| {
            z.models()[from..]
                .iter()
                .map(|m| m.eval.accuracy())
                .sum::<f64>()
                / (z.len() - from) as f64
        };
        assert!(
            mean_acc(&q2, 6) < mean_acc(&q8, 6),
            "2-bit variants should be worse than 8-bit"
        );
    }
}
