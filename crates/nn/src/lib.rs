//! A from-scratch neural-network substrate and trained model zoo.
//!
//! The paper deploys six real deep networks per dataset (two CNNs, two
//! LeNet-5 variants, two MLPs / a MobileNet) and lets the bandit layer
//! choose among them. This crate reproduces the substrate from scratch:
//!
//! * [`matrix`] — dense row-major matrix arithmetic;
//! * [`layer`] — dense, ReLU, 1-D convolution and max-pooling layers
//!   with hand-written backpropagation;
//! * [`network`] — sequential composition with forward/backward/SGD;
//! * [`loss`] — softmax cross-entropy (training) and the squared /
//!   Brier inference loss `l_n(a,b) = ‖h_n(a) − onehot(b)‖²` the paper
//!   optimizes (bounded in `[0, 2]`, which the bandit layer requires);
//! * [`train`] — mini-batch SGD trainer;
//! * [`quantize`] — post-training weight quantization (the paper's
//!   future-work extension for larger edge models);
//! * [`snapshot`] — versioned, CRC-framed zoo snapshots, so a restart
//!   loads the trained zoo instead of retraining it;
//! * [`zoo`] — builds and trains the six-model zoo per task and
//!   precomputes each model's per-sample loss/correctness table over the
//!   test pool, so the simulator can evaluate streams by table lookup
//!   (statistically identical to running inference per arrival).
//!
//! # Examples
//!
//! ```
//! use cne_nn::network::Network;
//! use cne_nn::matrix::Matrix;
//!
//! let mut net = Network::mlp(&[4, 8, 3], cne_util::SeedSequence::new(1));
//! let x = Matrix::zeros(2, 4);
//! let probs = net.predict_proba(&x);
//! assert_eq!(probs.shape(), (2, 3));
//! // Untrained network outputs near-uniform probabilities.
//! assert!((probs.get(0, 0) - 1.0 / 3.0).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layer;
pub mod loss;
pub mod matrix;
pub mod network;
pub mod quantize;
pub mod snapshot;
pub mod train;
pub mod zoo;

pub use matrix::Matrix;
pub use network::Network;
pub use snapshot::{SnapshotError, ZooKey};
pub use zoo::{ModelProfile, ModelZoo, TrainedModel, ZooConfig};
