//! Versioned, CRC-framed binary snapshots of a trained [`ModelZoo`].
//!
//! A zoo is a pure function of its [`ZooKey`] — task, [`ZooConfig`],
//! root seed and quantization bits — but training it takes about a
//! second at paper scale. A snapshot stores what training produced (every
//! network weight and bias, every deployment profile, every evaluation
//! table) so a restarted daemon can load the zoo in milliseconds. The
//! shared test pool is *not* stored: it is regenerated from the key,
//! bit-identically, in a few milliseconds.
//!
//! Layout (little-endian):
//!
//! | section | contents |
//! |---|---|
//! | header | magic `CNE-ZOO\n`, `u32` version, the key in plain form (`u8` task, `u64` train samples, pool samples, epochs, batch size, `f64` learning rate, `u64` seed, `u32` quantization bits with 0 = none), `u32` CRC-32 of the header |
//! | body | `u32` model count, then per model: `f64` size, base latency and energy of its profile, each parameter tensor as `u32` length + `f64`s, the pool's `f64` losses and `u8` correct flags |
//! | trailer | `u32` CRC-32 of the body, then end of file |
//!
//! Names, families, parameter counts and FLOPs follow from the key's
//! architectures and are not stored. The decoder never trusts a length
//! it reads: the header must match the caller's key before any body is
//! read, tensor lengths must match the architecture the key implies,
//! and table lengths come from the key. So every field has a size the
//! key fixes, and arbitrary bytes yield a [`SnapshotError`], never a
//! panic or an unbounded allocation. Both directions stream: nothing
//! holds the whole file in memory.

use std::io::{self, Read, Write};

use cne_simdata::dataset::TaskKind;
use cne_util::crc::Crc32;
use cne_util::units::{EnergyPerSample, Megabytes, Millis};
use cne_util::SeedSequence;

use crate::train::TrainConfig;
use crate::zoo::{
    quantized_name, task_and_pool, zoo_specs, EvalTable, ModelProfile, ModelZoo, TrainedModel,
    ZooConfig,
};

/// The first eight bytes of every zoo snapshot.
pub const MAGIC: [u8; 8] = *b"CNE-ZOO\n";

/// The snapshot format version. Readers accept exactly this version.
pub const VERSION: u32 = 1;

/// Everything a trained zoo is a function of. Two zoos with equal keys
/// are bit-identical, so a snapshot is reusable exactly when its key
/// matches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZooKey {
    /// The task the zoo is trained for.
    pub task: TaskKind,
    /// Training and pool sizes and the SGD configuration.
    pub config: ZooConfig,
    /// The zoo's root seed.
    pub seed: SeedSequence,
    /// Bit width of the quantized variants, when the zoo has them.
    pub quantized_bits: Option<u32>,
}

impl ZooKey {
    /// Trains the zoo this key describes (and adds its quantized
    /// variants, if any).
    #[must_use]
    pub fn train(&self) -> ModelZoo {
        let zoo = ModelZoo::train(self.task, &self.config, &self.seed);
        match self.quantized_bits {
            Some(bits) => zoo.with_quantized_variants(bits),
            None => zoo,
        }
    }

    /// The key's fields as `(name, value)` pairs, in header order.
    fn fields(&self) -> [(&'static str, String); 8] {
        key_fields(
            self.task,
            &self.config,
            self.seed.seed(),
            self.quantized_bits,
        )
    }

    /// Number of models the zoo holds.
    fn models(&self) -> usize {
        let base = zoo_specs().len();
        if self.quantized_bits.is_some() {
            2 * base
        } else {
            base
        }
    }
}

/// A key's fields as `(name, value)` pairs, in header order, for
/// mismatch messages.
fn key_fields(
    task: TaskKind,
    c: &ZooConfig,
    seed: u64,
    quantized_bits: Option<u32>,
) -> [(&'static str, String); 8] {
    [
        ("task", task.name().to_owned()),
        ("train_samples", c.train_samples.to_string()),
        ("pool_samples", c.pool_samples.to_string()),
        ("epochs", c.train.epochs.to_string()),
        ("batch_size", c.train.batch_size.to_string()),
        ("learning_rate", format!("{:?}", c.train.learning_rate)),
        ("seed", format!("{seed:#018x}")),
        (
            "quantized_bits",
            quantized_bits.map_or("none".to_owned(), |b| b.to_string()),
        ),
    ]
}

/// Why a snapshot could not be loaded. Every variant means "retrain".
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be opened or read (including a missing file).
    Io(io::Error),
    /// The file ends before the snapshot does.
    Truncated,
    /// The file does not start with [`MAGIC`].
    NotASnapshot,
    /// The file was written in another format version.
    Version(u32),
    /// A checksum mismatch, an out-of-range field or trailing bytes.
    Corrupt(String),
    /// A well-formed snapshot of a different zoo; names each differing
    /// key field as `field found (expected …)`.
    Mismatch(String),
}

impl SnapshotError {
    /// A short machine-readable tag for structured logs.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::Io(e) if e.kind() == io::ErrorKind::NotFound => "missing",
            SnapshotError::Io(_) => "io",
            SnapshotError::Truncated => "truncated",
            SnapshotError::NotASnapshot => "not_a_snapshot",
            SnapshotError::Version(_) => "version",
            SnapshotError::Corrupt(_) => "corrupt",
            SnapshotError::Mismatch(_) => "mismatch",
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "{e}"),
            SnapshotError::Truncated => f.write_str("snapshot is truncated"),
            SnapshotError::NotASnapshot => f.write_str("not a zoo snapshot (bad magic bytes)"),
            SnapshotError::Version(v) => write!(
                f,
                "snapshot version {v} is not supported (this build reads version {VERSION})"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Mismatch(diff) => write!(f, "snapshot is of another zoo: {diff}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e)
        }
    }
}

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(what.into())
}

fn task_code(task: TaskKind) -> u8 {
    match task {
        TaskKind::MnistLike => 0,
        TaskKind::CifarLike => 1,
    }
}

/// Values per chunk when streaming `f64` arrays.
const CHUNK: usize = 512;

/// A writer that folds every byte into a running CRC-32.
struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> CrcWriter<W> {
    fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)
    }

    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.bytes(&[v])
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    fn f64s(&mut self, values: &[f64]) -> io::Result<()> {
        let mut buf = [0u8; 8 * CHUNK];
        for chunk in values.chunks(CHUNK) {
            for (dst, v) in buf.chunks_exact_mut(8).zip(chunk) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.bytes(&buf[..8 * chunk.len()])?;
        }
        Ok(())
    }

    /// Writes the CRC of everything since the last frame, and starts
    /// the next frame.
    fn end_frame(&mut self) -> io::Result<()> {
        let crc = std::mem::take(&mut self.crc).finish();
        self.inner.write_all(&crc.to_le_bytes())
    }
}

/// A reader that folds every byte into a running CRC-32.
struct CrcReader<R> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> CrcReader<R> {
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), SnapshotError> {
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        Ok(())
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.bytes()?))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.bytes()?))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("count overflows usize"))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.bytes()?))
    }

    /// Fills `out` from the stream.
    fn f64s(&mut self, out: &mut [f64]) -> Result<(), SnapshotError> {
        let mut buf = [0u8; 8 * CHUNK];
        for chunk in out.chunks_mut(CHUNK) {
            let raw = &mut buf[..8 * chunk.len()];
            self.fill(raw)?;
            for (v, src) in chunk.iter_mut().zip(raw.chunks_exact(8)) {
                *v = f64::from_le_bytes(src.try_into().expect("8-byte chunk"));
            }
        }
        Ok(())
    }

    /// Checks the stored CRC of the frame just read, and starts the
    /// next frame.
    fn end_frame(&mut self, frame: &str) -> Result<(), SnapshotError> {
        let computed = std::mem::take(&mut self.crc).finish();
        let mut stored = [0u8; 4];
        self.inner.read_exact(&mut stored)?;
        if u32::from_le_bytes(stored) != computed {
            return Err(corrupt(format!("{frame} checksum mismatch")));
        }
        Ok(())
    }
}

impl ModelZoo {
    /// Streams this zoo's snapshot to `out`. The caller supplies the
    /// key the zoo was built from (see [`ZooKey::train`]); it is
    /// written into the header.
    ///
    /// # Errors
    /// Returns any I/O error of `out`.
    pub fn write_snapshot<W: Write>(&self, key: &ZooKey, out: W) -> io::Result<()> {
        let mut w = CrcWriter {
            inner: out,
            crc: Crc32::new(),
        };
        let c = &key.config;
        w.bytes(&MAGIC)?;
        w.u32(VERSION)?;
        w.u8(task_code(key.task))?;
        w.u64(c.train_samples as u64)?;
        w.u64(c.pool_samples as u64)?;
        w.u64(c.train.epochs as u64)?;
        w.u64(c.train.batch_size as u64)?;
        w.u64(c.train.learning_rate.to_bits())?;
        w.u64(key.seed.seed())?;
        w.u32(key.quantized_bits.unwrap_or(0))?;
        w.end_frame()?;

        w.u32(self.len() as u32)?;
        for model in self.models() {
            let p = &model.profile;
            w.u64(p.size.get().to_bits())?;
            w.u64(p.base_latency.get().to_bits())?;
            w.u64(p.energy_per_sample.get().to_bits())?;
            for tensor in model.network.params() {
                w.u32(tensor.len() as u32)?;
                w.f64s(tensor)?;
            }
            w.f64s(model.eval.losses())?;
            let flags: Vec<u8> = model.eval.correct().iter().map(|&c| u8::from(c)).collect();
            w.bytes(&flags)?;
        }
        w.end_frame()?;
        w.inner.flush()
    }

    /// Reads a snapshot of the zoo `key` describes from `input`.
    ///
    /// The header is checked first — magic, version, its CRC, then
    /// every key field — so a snapshot of another zoo is rejected
    /// before its body is read. The body is streamed into the final
    /// tables and networks and accepted only if its CRC matches and
    /// the file ends exactly there.
    ///
    /// # Errors
    /// Returns a [`SnapshotError`] for any input that is not a complete,
    /// intact snapshot written under `key`.
    pub fn read_snapshot<R: Read>(key: &ZooKey, input: R) -> Result<ModelZoo, SnapshotError> {
        let mut r = CrcReader {
            inner: input,
            crc: Crc32::new(),
        };
        if r.bytes::<8>()? != MAGIC {
            return Err(SnapshotError::NotASnapshot);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::Version(version));
        }
        let task = match r.u8()? {
            0 => TaskKind::MnistLike,
            1 => TaskKind::CifarLike,
            other => return Err(corrupt(format!("unknown task code {other}"))),
        };
        let config = ZooConfig {
            train_samples: r.usize()?,
            pool_samples: r.usize()?,
            train: TrainConfig {
                epochs: r.usize()?,
                batch_size: r.usize()?,
                learning_rate: f64::from_bits(r.u64()?),
            },
        };
        let seed = r.u64()?;
        let bits = r.u32()?;
        r.end_frame("header")?;

        let found = key_fields(task, &config, seed, (bits != 0).then_some(bits));
        let diffs: Vec<String> = found
            .into_iter()
            .zip(key.fields())
            .filter(|((_, f), (_, e))| f != e)
            .map(|((name, f), (_, e))| format!("{name} {f} (expected {e})"))
            .collect();
        if !diffs.is_empty() {
            return Err(SnapshotError::Mismatch(diffs.join(", ")));
        }

        let models = r.u32()? as usize;
        if models != key.models() {
            return Err(corrupt(format!(
                "{models} models (the key implies {})",
                key.models()
            )));
        }
        let (generator, pool) = task_and_pool(key.task, key.config.pool_samples, &key.seed);
        let spec = generator.spec();
        let specs = zoo_specs();
        let pool_len = pool.len();
        let mut out = Vec::with_capacity(models);
        for idx in 0..models {
            let arch = &specs[idx % specs.len()];
            let name = match key.quantized_bits {
                Some(bits) if idx >= specs.len() => quantized_name(arch.name, bits),
                _ => arch.name.to_owned(),
            };
            let size = Megabytes::new(r.f64()?);
            let base_latency = Millis::new(r.f64()?);
            let energy = r.f64()?;
            if !(energy.is_finite() && energy >= 0.0) {
                return Err(corrupt(format!(
                    "model {idx} has energy {energy} kWh/sample"
                )));
            }
            let mut network = (arch.build)(spec.dim, spec.classes, SeedSequence::new(0));
            for tensor in network.params_mut() {
                let len = r.u32()? as usize;
                if len != tensor.len() {
                    return Err(corrupt(format!(
                        "model {idx} has a {len}-value tensor where its architecture has {}",
                        tensor.len()
                    )));
                }
                r.f64s(tensor)?;
            }
            let mut losses = vec![0.0; pool_len];
            r.f64s(&mut losses)?;
            let mut flags = vec![0u8; pool_len];
            r.fill(&mut flags)?;
            let correct = flags
                .into_iter()
                .map(|flag| match flag {
                    0 => Ok(false),
                    1 => Ok(true),
                    other => Err(corrupt(format!("correct flag {other} is not 0 or 1"))),
                })
                .collect::<Result<Vec<bool>, _>>()?;
            let profile = ModelProfile {
                name,
                family: arch.family,
                size,
                base_latency,
                energy_per_sample: EnergyPerSample::new(energy),
                param_count: network.param_count(),
                flops: network.flops_per_sample(),
            };
            out.push(TrainedModel {
                profile,
                eval: EvalTable::new(losses, correct),
                network,
            });
        }
        r.end_frame("body")?;
        if r.inner.read(&mut [0u8; 1])? != 0 {
            return Err(corrupt("trailing bytes after the body checksum"));
        }
        Ok(ModelZoo::from_parts(key.task, out, pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zoo small enough to train many times in a debug build.
    fn tiny_key(task: TaskKind, quantized_bits: Option<u32>) -> ZooKey {
        ZooKey {
            task,
            config: ZooConfig {
                train_samples: 64,
                pool_samples: 24,
                train: TrainConfig {
                    epochs: 1,
                    batch_size: 32,
                    learning_rate: 0.2,
                },
            },
            seed: SeedSequence::new(5),
            quantized_bits,
        }
    }

    fn encode(zoo: &ModelZoo, key: &ZooKey) -> Vec<u8> {
        let mut bytes = Vec::new();
        zoo.write_snapshot(key, &mut bytes).expect("encode");
        bytes
    }

    /// Every float and flag that can differ between two zoos, as bits.
    fn fingerprint(zoo: &ModelZoo) -> Vec<u64> {
        let mut bits = vec![zoo.len() as u64];
        for m in zoo.models() {
            let p = &m.profile;
            bits.extend(p.name.bytes().map(u64::from));
            bits.push(p.family as u64);
            bits.extend(
                [
                    p.size.get(),
                    p.base_latency.get(),
                    p.energy_per_sample.get(),
                ]
                .map(f64::to_bits),
            );
            bits.extend([p.param_count as u64, p.flops as u64]);
            for tensor in m.network.params() {
                bits.push(tensor.len() as u64);
                bits.extend(tensor.iter().map(|v| v.to_bits()));
            }
            bits.extend(m.eval.losses().iter().map(|v| v.to_bits()));
            bits.extend(m.eval.correct().iter().map(|&c| u64::from(c)));
        }
        for s in zoo.pool() {
            bits.push(s.label as u64);
            bits.extend(s.features.iter().map(|v| v.to_bits()));
        }
        bits
    }

    /// The `--quick` zoo of the serve daemon, both tasks, with and
    /// without 8-bit variants: the loaded zoo is bit-identical to the
    /// trained one — weights, biases, profiles, tables and pool.
    #[test]
    fn decoded_zoo_is_bit_identical_to_the_trained_one() {
        for task in [TaskKind::MnistLike, TaskKind::CifarLike] {
            let key = ZooKey {
                task,
                config: ZooConfig::fast(),
                seed: SeedSequence::new(2025),
                quantized_bits: None,
            };
            let zoo = key.train();
            for bits in [None, Some(8)] {
                let key = ZooKey {
                    quantized_bits: bits,
                    ..key
                };
                let zoo = match bits {
                    Some(b) => zoo.with_quantized_variants(b),
                    None => zoo.clone(),
                };
                let loaded = ModelZoo::read_snapshot(&key, &encode(&zoo, &key)[..])
                    .unwrap_or_else(|e| panic!("{task} {bits:?}: {e}"));
                assert_eq!(loaded.kind(), task);
                assert_eq!(
                    fingerprint(&loaded),
                    fingerprint(&zoo),
                    "{task} {bits:?}: loaded zoo differs"
                );
                let mut a = zoo.model(0).network.clone();
                let mut b = loaded.model(0).network.clone();
                let x = crate::train::to_matrix(zoo.pool()).0;
                let (pa, pb) = (a.predict_proba(&x), b.predict_proba(&x));
                assert!(pa
                    .as_slice()
                    .iter()
                    .zip(pb.as_slice())
                    .all(|(u, v)| u.to_bits() == v.to_bits()));
            }
        }
    }

    /// `expected_loss` is summed once, at construction, in the order a
    /// fresh sum over the table takes: the same bits for every model of
    /// the `--quick` zoo, trained and decoded from a snapshot.
    #[test]
    fn expected_loss_is_the_pool_mean_to_the_bit() {
        let key = ZooKey {
            task: TaskKind::MnistLike,
            config: ZooConfig::fast(),
            seed: SeedSequence::new(2025),
            quantized_bits: None,
        };
        let zoo = key.train();
        let loaded = ModelZoo::read_snapshot(&key, &encode(&zoo, &key)[..]).expect("decode");
        for m in zoo.models().iter().chain(loaded.models()) {
            let losses = m.eval.losses();
            let mean = losses.iter().sum::<f64>() / losses.len() as f64;
            assert_eq!(
                m.eval.expected_loss().to_bits(),
                mean.to_bits(),
                "{}",
                m.profile.name
            );
        }
    }

    #[test]
    fn a_quick_snapshot_does_not_load_at_full_scale() {
        let quick = tiny_key(TaskKind::MnistLike, None);
        let bytes = encode(&quick.train(), &quick);
        let full = ZooKey {
            config: ZooConfig::default(),
            ..quick
        };
        let err = ModelZoo::read_snapshot(&full, &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), "mismatch");
        let msg = err.to_string();
        for field in [
            "train_samples 64 (expected 4000)",
            "pool_samples 24 (expected 8000)",
        ] {
            assert!(msg.contains(field), "{msg}");
        }
        assert!(!msg.contains("task"), "{msg}");

        for other in [
            ZooKey {
                task: TaskKind::CifarLike,
                ..quick
            },
            ZooKey {
                seed: SeedSequence::new(6),
                ..quick
            },
            ZooKey {
                quantized_bits: Some(8),
                ..quick
            },
        ] {
            let err = ModelZoo::read_snapshot(&other, &bytes[..]).unwrap_err();
            assert_eq!(err.kind(), "mismatch", "{err}");
        }
    }

    /// Damage the properties in `tests/proptest_snapshot.rs` do not
    /// produce: a foreign file, another version, trailing bytes.
    #[test]
    fn foreign_files_are_typed_errors() {
        let key = tiny_key(TaskKind::CifarLike, Some(8));
        let bytes = encode(&key.train(), &key);
        let read = |b: &[u8]| ModelZoo::read_snapshot(&key, b).unwrap_err().kind();
        assert_eq!(read(b"{\"format\":\"cne-checkpoint\"}"), "not_a_snapshot");
        let mut future = bytes.clone();
        future[8] = 2;
        assert_eq!(read(&future), "version");
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(read(&trailing), "corrupt");
    }
}
