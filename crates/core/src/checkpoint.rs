//! Versioned on-disk checkpoints for the streaming serve daemon.
//!
//! A checkpoint captures everything a `carbon-edge serve` process needs
//! to resume a run bit-identically after a restart: the raw arrival
//! counts ingested so far (replayed on resume to rebuild the workload
//! traces and each edge's stream RNG), the simulator's mutable run state
//! ([`StepperState`]), the controller's learned state (selector fleet
//! and trading policy, via
//! [`ComboController::export_state`](crate::ComboController::export_state)),
//! and the
//! mid-run telemetry trace. Everything derivable from the run's
//! configuration — topology, prices, fault schedule, block schedule,
//! trade backoff — is *not* stored; a resume rebuilds it from the same
//! seed and scenario flags and validates the cheap invariants recorded
//! in the checkpoint header.
//!
//! The format is a single JSON document produced by the repo's
//! canonical [`Json`] encoder, so `encode → parse → encode` is
//! byte-stable and checkpoints can be diffed and committed as test
//! fixtures. See `SERVING.md` for the operator-facing specification.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use cne_edgesim::{EdgeServeState, SlotRecord, StepperState};
use cne_faults::TradeCarryParts;
use cne_market::LedgerParts;
use cne_nn::{ModelZoo, SnapshotError, ZooKey};
use cne_util::json::Json;

use crate::crashpoint;

/// Fsyncs `path`'s parent directory so a completed rename survives
/// power loss (POSIX only persists the directory entry on dir fsync;
/// elsewhere this is a no-op).
fn sync_parent_dir(path: &Path) -> Result<(), String> {
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::File::open(parent)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("cannot fsync {}: {e}", parent.display()))?;
    }
    Ok(())
}

/// `path` with `suffix` appended to its file name (`a.ckpt` →
/// `a.ckpt.zoo`), so derived names never collide with each other.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Replaces `path` with what `write` produces, atomically **and
/// durably**: the bytes go to the sibling `path.tmp`, which is fsynced
/// before it is renamed over `path`, and the parent directory is
/// fsynced after the rename. A crash — including power loss — leaves
/// either the old file or the new one, never a truncated or unlinked
/// in-between.
///
/// `crash` names the chaos-drill crash points of this write:
/// `{crash}-torn-tmp` and `{crash}-pre-rename` (see [`crashpoint`]).
fn replace_durably(
    path: &Path,
    crash: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let tmp = with_suffix(path, ".tmp");
    let file = File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let mut out = BufWriter::new(file);
    let file = write(&mut out)
        .and_then(|()| {
            out.into_inner()
                .map_err(std::io::IntoInnerError::into_error)
        })
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    let torn = format!("{crash}-torn-tmp");
    if crashpoint::hit_auto(&torn) {
        // Chaos drill: die with a half-written tmp file on disk.
        // Recovery must ignore it (the rename never happened).
        let len = file.metadata().map_or(0, |m| m.len());
        let _ = file.set_len(len / 2);
        let _ = file.sync_all();
        crashpoint::crash(&torn);
    }
    // An atomic rename only helps if the *contents* are already on
    // disk: rename durability does not imply data durability.
    file.sync_all()
        .map_err(|e| format!("cannot fsync {}: {e}", tmp.display()))?;
    drop(file);
    let pre_rename = format!("{crash}-pre-rename");
    if crashpoint::hit_auto(&pre_rename) {
        // Chaos drill: full tmp on disk, old file still in place.
        // Recovery must use the old file.
        crashpoint::crash(&pre_rename);
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot move {} into {}: {e}", tmp.display(), path.display()))?;
    sync_parent_dir(path)
}

/// Where the zoo snapshot of checkpoint `path` lives: `path.zoo`.
#[must_use]
pub fn zoo_snapshot_path(checkpoint: &Path) -> PathBuf {
    with_suffix(checkpoint, ".zoo")
}

/// Writes `zoo`'s snapshot (see [`cne_nn::snapshot`]) to `path`
/// atomically and durably, streaming it through a buffered writer.
///
/// # Errors
/// Returns a message naming the path on any I/O failure.
pub fn save_zoo_snapshot(path: &Path, zoo: &ModelZoo, key: &ZooKey) -> Result<(), String> {
    replace_durably(path, "zoo", |out| zoo.write_snapshot(key, out))
}

/// Loads the snapshot at `path` of the zoo `key` describes.
///
/// # Errors
/// Returns the typed reason — missing, truncated, corrupt, another
/// version or another zoo — when the file is not an intact snapshot
/// written under `key`.
pub fn load_zoo_snapshot(path: &Path, key: &ZooKey) -> Result<ModelZoo, SnapshotError> {
    ModelZoo::read_snapshot(key, BufReader::new(File::open(path)?))
}

/// The `format` tag every checkpoint document carries.
pub const FORMAT: &str = "cne-checkpoint";

/// The current checkpoint format version. Readers accept exactly this
/// version: the format has no compatibility shims yet, and a version
/// bump means the run state's shape changed.
pub const VERSION: u64 = 1;

/// A complete serve-daemon checkpoint, taken between slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The run's root seed (the `--seed` of the original invocation).
    pub seed: u64,
    /// Policy display name (e.g. `"Ours"`); a resume must rebuild the
    /// same combo.
    pub policy: String,
    /// Name of the fault scenario in effect, if any.
    pub fault_scenario: Option<String>,
    /// Horizon `T` of the run.
    pub horizon: usize,
    /// Number of edges `I`.
    pub num_edges: usize,
    /// Raw (pre-fault) arrival counts for every ingested slot,
    /// slot-major: `arrivals[t][i]` is edge `i`'s count in slot `t`.
    /// Replayed through `Environment::ingest_slot` on resume.
    pub arrivals: Vec<Vec<u64>>,
    /// The simulator's mutable run state (ledger, per-edge serve
    /// state, trade carry, completed slot records).
    pub stepper: StepperState,
    /// The controller's learned state, as exported by
    /// [`ComboController::export_state`](crate::ComboController::export_state).
    pub policy_state: Json,
    /// The mid-run telemetry trace (recorder JSONL), when the run was
    /// started with telemetry enabled.
    pub telemetry: Option<String>,
}

fn float(x: f64) -> Json {
    Json::Float(x)
}

fn uint(x: u64) -> Json {
    Json::UInt(x)
}

fn opt_uint(x: Option<u64>) -> Json {
    x.map_or(Json::Null, Json::UInt)
}

fn ledger_to_json(parts: &LedgerParts) -> Json {
    Json::Obj(vec![
        ("bought".to_owned(), float(parts.bought)),
        ("sold".to_owned(), float(parts.sold)),
        ("emitted".to_owned(), float(parts.emitted)),
        ("spent".to_owned(), float(parts.spent)),
        ("earned".to_owned(), float(parts.earned)),
    ])
}

fn carry_to_json(parts: &TradeCarryParts) -> Json {
    Json::Obj(vec![
        ("carry_buy".to_owned(), float(parts.carry_buy)),
        ("carry_sell".to_owned(), float(parts.carry_sell)),
        ("attempts".to_owned(), uint(u64::from(parts.attempts))),
        (
            "next_attempt_slot".to_owned(),
            uint(parts.next_attempt_slot),
        ),
        ("requested_buy".to_owned(), float(parts.requested_buy)),
        ("requested_sell".to_owned(), float(parts.requested_sell)),
    ])
}

fn edge_to_json(edge: &EdgeServeState) -> Json {
    Json::Obj(vec![
        (
            "prev_model".to_owned(),
            opt_uint(edge.prev_model.map(|n| n as u64)),
        ),
        (
            "pending_target".to_owned(),
            opt_uint(edge.pending_target.map(|n| n as u64)),
        ),
        (
            "pending_attempts".to_owned(),
            uint(u64::from(edge.pending_attempts)),
        ),
        (
            "pending_next_attempt_slot".to_owned(),
            uint(edge.pending_next_attempt_slot),
        ),
        (
            "pending_delayed_slots".to_owned(),
            uint(u64::from(edge.pending_delayed_slots)),
        ),
        ("switches".to_owned(), uint(edge.switches)),
        (
            "peak_utilization_millionths".to_owned(),
            uint(edge.peak_utilization_millionths),
        ),
        (
            "selection_counts".to_owned(),
            Json::Arr(edge.selection_counts.iter().map(|&c| uint(c)).collect()),
        ),
    ])
}

fn record_to_json(rec: &SlotRecord) -> Json {
    Json::Obj(vec![
        ("t".to_owned(), uint(rec.t as u64)),
        ("arrivals".to_owned(), uint(rec.arrivals)),
        ("loss_cost".to_owned(), float(rec.loss_cost)),
        ("latency_cost".to_owned(), float(rec.latency_cost)),
        ("switch_cost".to_owned(), float(rec.switch_cost)),
        ("trading_cost".to_owned(), float(rec.trading_cost)),
        ("switches".to_owned(), uint(rec.switches as u64)),
        ("emissions".to_owned(), float(rec.emissions)),
        ("bought".to_owned(), float(rec.bought)),
        ("sold".to_owned(), float(rec.sold)),
        ("buy_price".to_owned(), float(rec.buy_price)),
        ("sell_price".to_owned(), float(rec.sell_price)),
        ("trade_cash".to_owned(), float(rec.trade_cash)),
        ("accuracy".to_owned(), float(rec.accuracy)),
        ("empirical_loss".to_owned(), float(rec.empirical_loss)),
        ("utilization".to_owned(), float(rec.utilization)),
        ("queueing_delay_ms".to_owned(), float(rec.queueing_delay_ms)),
    ])
}

fn stepper_to_json(state: &StepperState) -> Json {
    Json::Obj(vec![
        ("next_slot".to_owned(), uint(state.next_slot as u64)),
        ("ledger".to_owned(), ledger_to_json(&state.ledger)),
        (
            "trade_carry".to_owned(),
            state.trade_carry.as_ref().map_or(Json::Null, carry_to_json),
        ),
        (
            "edges".to_owned(),
            Json::Arr(state.edges.iter().map(edge_to_json).collect()),
        ),
        (
            "records".to_owned(),
            Json::Arr(state.records.iter().map(record_to_json).collect()),
        ),
    ])
}

fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("checkpoint is missing '{key}'"))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    get(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("'{key}' must be an unsigned integer"))
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(obj, key)?).map_err(|_| format!("'{key}' overflows usize"))
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("'{key}' must be a number"))
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    Ok(get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("'{key}' must be a string"))?
        .to_owned())
}

fn get_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    get(obj, key)?
        .as_array()
        .ok_or_else(|| format!("'{key}' must be an array"))
}

fn get_opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    let value = get(obj, key)?;
    if value.is_null() {
        return Ok(None);
    }
    value
        .as_u64()
        .map(Some)
        .ok_or_else(|| format!("'{key}' must be null or an unsigned integer"))
}

fn ledger_from_json(value: &Json) -> Result<LedgerParts, String> {
    Ok(LedgerParts {
        bought: get_f64(value, "bought")?,
        sold: get_f64(value, "sold")?,
        emitted: get_f64(value, "emitted")?,
        spent: get_f64(value, "spent")?,
        earned: get_f64(value, "earned")?,
    })
}

fn carry_from_json(value: &Json) -> Result<TradeCarryParts, String> {
    Ok(TradeCarryParts {
        carry_buy: get_f64(value, "carry_buy")?,
        carry_sell: get_f64(value, "carry_sell")?,
        attempts: u32::try_from(get_u64(value, "attempts")?)
            .map_err(|_| "'attempts' overflows u32".to_owned())?,
        next_attempt_slot: get_u64(value, "next_attempt_slot")?,
        requested_buy: get_f64(value, "requested_buy")?,
        requested_sell: get_f64(value, "requested_sell")?,
    })
}

fn edge_from_json(value: &Json) -> Result<EdgeServeState, String> {
    let counts = get_arr(value, "selection_counts")?
        .iter()
        .map(|c| {
            c.as_u64()
                .ok_or_else(|| "selection counts must be unsigned integers".to_owned())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(EdgeServeState {
        prev_model: get_opt_u64(value, "prev_model")?.map(|n| n as usize),
        pending_target: get_opt_u64(value, "pending_target")?.map(|n| n as usize),
        pending_attempts: u32::try_from(get_u64(value, "pending_attempts")?)
            .map_err(|_| "'pending_attempts' overflows u32".to_owned())?,
        pending_next_attempt_slot: get_u64(value, "pending_next_attempt_slot")?,
        pending_delayed_slots: u32::try_from(get_u64(value, "pending_delayed_slots")?)
            .map_err(|_| "'pending_delayed_slots' overflows u32".to_owned())?,
        switches: get_u64(value, "switches")?,
        peak_utilization_millionths: get_u64(value, "peak_utilization_millionths")?,
        selection_counts: counts,
    })
}

fn record_from_json(value: &Json) -> Result<SlotRecord, String> {
    Ok(SlotRecord {
        t: get_usize(value, "t")?,
        arrivals: get_u64(value, "arrivals")?,
        loss_cost: get_f64(value, "loss_cost")?,
        latency_cost: get_f64(value, "latency_cost")?,
        switch_cost: get_f64(value, "switch_cost")?,
        trading_cost: get_f64(value, "trading_cost")?,
        switches: get_usize(value, "switches")?,
        emissions: get_f64(value, "emissions")?,
        bought: get_f64(value, "bought")?,
        sold: get_f64(value, "sold")?,
        buy_price: get_f64(value, "buy_price")?,
        sell_price: get_f64(value, "sell_price")?,
        trade_cash: get_f64(value, "trade_cash")?,
        accuracy: get_f64(value, "accuracy")?,
        empirical_loss: get_f64(value, "empirical_loss")?,
        utilization: get_f64(value, "utilization")?,
        queueing_delay_ms: get_f64(value, "queueing_delay_ms")?,
    })
}

fn stepper_from_json(value: &Json) -> Result<StepperState, String> {
    let carry = get(value, "trade_carry")?;
    Ok(StepperState {
        next_slot: get_usize(value, "next_slot")?,
        ledger: ledger_from_json(get(value, "ledger")?)?,
        trade_carry: if carry.is_null() {
            None
        } else {
            Some(carry_from_json(carry)?)
        },
        edges: get_arr(value, "edges")?
            .iter()
            .map(edge_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        records: get_arr(value, "records")?
            .iter()
            .map(record_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// The checkpoint header's `serve_mode` value. Only one serve path
/// exists; the field stays so that files keep their bytes.
const SERVE_MODE: &str = "batched";

/// Accepts the header's `serve_mode` value: [`SERVE_MODE`] only.
fn check_serve_mode(name: &str) -> Result<(), String> {
    match name {
        SERVE_MODE => Ok(()),
        "per-request" => Err(
            "checkpoint was written in the per-request serve mode, which no longer exists"
                .to_owned(),
        ),
        other => Err(format!("unknown serve mode '{other}'")),
    }
}

impl Checkpoint {
    /// Encodes the checkpoint as its canonical JSON document (with a
    /// trailing newline). Encoding is byte-stable under
    /// `encode → parse → encode`.
    #[must_use]
    pub fn encode(&self) -> String {
        let meta = Json::Obj(vec![
            ("seed".to_owned(), uint(self.seed)),
            ("policy".to_owned(), Json::Str(self.policy.clone())),
            ("serve_mode".to_owned(), Json::Str(SERVE_MODE.to_owned())),
            (
                "fault_scenario".to_owned(),
                self.fault_scenario
                    .as_ref()
                    .map_or(Json::Null, |name| Json::Str(name.clone())),
            ),
            ("horizon".to_owned(), uint(self.horizon as u64)),
            ("num_edges".to_owned(), uint(self.num_edges as u64)),
        ]);
        let arrivals = Json::Arr(
            self.arrivals
                .iter()
                .map(|row| Json::Arr(row.iter().map(|&c| uint(c)).collect()))
                .collect(),
        );
        let doc = Json::Obj(vec![
            ("format".to_owned(), Json::Str(FORMAT.to_owned())),
            ("version".to_owned(), uint(VERSION)),
            ("meta".to_owned(), meta),
            ("slot".to_owned(), uint(self.stepper.next_slot as u64)),
            ("arrivals".to_owned(), arrivals),
            ("stepper".to_owned(), stepper_to_json(&self.stepper)),
            ("policy_state".to_owned(), self.policy_state.clone()),
            (
                "telemetry".to_owned(),
                self.telemetry
                    .as_ref()
                    .map_or(Json::Null, |text| Json::Str(text.clone())),
            ),
        ]);
        let mut text = doc.encode();
        text.push('\n');
        text
    }

    /// Parses a checkpoint document, validating the format tag,
    /// version, and internal consistency (slot counter vs. horizon,
    /// arrivals and completed records; per-slot edge counts).
    ///
    /// # Errors
    /// Returns a human-readable message when the document is not a
    /// well-formed version-[`VERSION`] checkpoint.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = cne_util::json::parse(text)
            .map_err(|e| format!("checkpoint is not valid JSON: {e}"))?;
        let format = get_str(&doc, "format")?;
        if format != FORMAT {
            return Err(format!(
                "not a checkpoint file (format tag '{format}', expected '{FORMAT}')"
            ));
        }
        let version = get_u64(&doc, "version")?;
        if version != VERSION {
            return Err(format!(
                "checkpoint version {version} is not supported (this build reads version {VERSION})"
            ));
        }
        let meta = get(&doc, "meta")?;
        check_serve_mode(&get_str(meta, "serve_mode")?)?;
        let fault_scenario = {
            let value = get(meta, "fault_scenario")?;
            if value.is_null() {
                None
            } else {
                Some(
                    value
                        .as_str()
                        .ok_or("'fault_scenario' must be null or a string")?
                        .to_owned(),
                )
            }
        };
        let num_edges = get_usize(meta, "num_edges")?;
        let horizon = get_usize(meta, "horizon")?;
        let slot = get_usize(&doc, "slot")?;
        if slot > horizon {
            return Err(format!(
                "corrupt checkpoint: slot {slot} is past the run's horizon {horizon}"
            ));
        }
        let stepper = stepper_from_json(get(&doc, "stepper")?)?;
        if stepper.next_slot != slot {
            return Err(format!(
                "corrupt checkpoint: header says slot {slot} but the run state is at slot {}",
                stepper.next_slot
            ));
        }
        let mut arrivals = Vec::new();
        for (t, row) in get_arr(&doc, "arrivals")?.iter().enumerate() {
            let row = row
                .as_array()
                .ok_or("'arrivals' must be an array of per-slot arrays")?;
            if row.len() != num_edges {
                return Err(format!(
                    "arrivals row {t} has {} entries but the run has {num_edges} edges",
                    row.len()
                ));
            }
            arrivals.push(
                row.iter()
                    .map(|c| {
                        c.as_u64()
                            .ok_or_else(|| "arrival counts must be unsigned integers".to_owned())
                    })
                    .collect::<Result<Vec<u64>, String>>()?,
            );
        }
        if arrivals.len() != slot {
            return Err(format!(
                "checkpoint at slot {slot} must carry exactly {slot} ingested arrival rows, \
                 found {}",
                arrivals.len()
            ));
        }
        let telemetry = {
            let value = get(&doc, "telemetry")?;
            if value.is_null() {
                None
            } else {
                Some(
                    value
                        .as_str()
                        .ok_or("'telemetry' must be null or a string")?
                        .to_owned(),
                )
            }
        };
        Ok(Self {
            seed: get_u64(meta, "seed")?,
            policy: get_str(meta, "policy")?,
            fault_scenario,
            horizon,
            num_edges,
            arrivals,
            stepper,
            policy_state: get(&doc, "policy_state")?.clone(),
            telemetry,
        })
    }

    /// Writes the checkpoint to `path` atomically and durably (the
    /// sibling `path.tmp` is fsynced and renamed over `path`).
    ///
    /// # Errors
    /// Returns a message naming the path on any I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        replace_durably(path, "ckpt", |out| out.write_all(self.encode().as_bytes()))
    }

    /// Reads and parses a checkpoint from `path`.
    ///
    /// # Errors
    /// Returns a message naming the path on I/O or parse failure.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            seed: 42,
            policy: "Ours".to_owned(),
            fault_scenario: Some("mixed-20".to_owned()),
            horizon: 8,
            num_edges: 2,
            arrivals: vec![vec![3, 0], vec![7, 5]],
            stepper: StepperState {
                next_slot: 2,
                ledger: LedgerParts {
                    bought: 1.5,
                    sold: 0.0,
                    emitted: 2.25,
                    spent: 12.0,
                    earned: 0.0,
                },
                trade_carry: Some(TradeCarryParts {
                    carry_buy: 0.5,
                    carry_sell: 0.0,
                    attempts: 1,
                    next_attempt_slot: 3,
                    requested_buy: 1.0,
                    requested_sell: 0.0,
                }),
                edges: vec![
                    EdgeServeState {
                        prev_model: Some(1),
                        pending_target: None,
                        pending_attempts: 0,
                        pending_next_attempt_slot: 0,
                        pending_delayed_slots: 0,
                        switches: 1,
                        peak_utilization_millionths: 350_000,
                        selection_counts: vec![0, 2, 0],
                    },
                    EdgeServeState {
                        prev_model: None,
                        pending_target: Some(2),
                        pending_attempts: 2,
                        pending_next_attempt_slot: 4,
                        pending_delayed_slots: 2,
                        switches: 0,
                        peak_utilization_millionths: 0,
                        selection_counts: vec![1, 0, 1],
                    },
                ],
                records: vec![
                    SlotRecord {
                        t: 0,
                        arrivals: 3,
                        loss_cost: 0.25,
                        latency_cost: 0.125,
                        switch_cost: 1.0,
                        trading_cost: -0.5,
                        switches: 1,
                        emissions: 0.75,
                        bought: 1.0,
                        sold: 0.0,
                        buy_price: 8.4,
                        sell_price: 7.2,
                        trade_cash: 8.4,
                        accuracy: 0.9,
                        empirical_loss: 0.1,
                        utilization: 0.35,
                        queueing_delay_ms: 1.5,
                    },
                    SlotRecord {
                        t: 1,
                        arrivals: 12,
                        loss_cost: 0.5,
                        latency_cost: 0.25,
                        switch_cost: 0.0,
                        trading_cost: 0.0,
                        switches: 0,
                        emissions: 1.5,
                        bought: 0.0,
                        sold: 0.0,
                        buy_price: 8.0,
                        sell_price: 7.0,
                        trade_cash: 0.0,
                        accuracy: 0.85,
                        empirical_loss: 0.15,
                        utilization: 0.6,
                        queueing_delay_ms: 2.0,
                    },
                ],
            },
            policy_state: Json::Obj(vec![(
                "kind".to_owned(),
                Json::Str("combo-controller".to_owned()),
            )]),
            telemetry: None,
        }
    }

    #[test]
    fn encode_parse_encode_is_byte_stable() {
        let ckpt = sample();
        let text = ckpt.encode();
        let parsed = Checkpoint::parse(&text).expect("round trip");
        assert_eq!(parsed, ckpt);
        assert_eq!(parsed.encode(), text, "re-encode must be byte-identical");
    }

    #[test]
    fn parse_rejects_foreign_and_corrupt_documents() {
        assert!(Checkpoint::parse("{}").unwrap_err().contains("format"));
        assert!(Checkpoint::parse("not json").unwrap_err().contains("JSON"));
        let wrong_format = r#"{"format": "other", "version": 1}"#;
        assert!(Checkpoint::parse(wrong_format)
            .unwrap_err()
            .contains("not a checkpoint file"));

        let ckpt = sample();
        let future = ckpt.encode().replace("\"version\":1", "\"version\":99");
        assert!(Checkpoint::parse(&future)
            .unwrap_err()
            .contains("version 99 is not supported"));

        // Header slot counter disagreeing with the run state.
        let skewed = ckpt.encode().replacen("\"slot\":2", "\"slot\":3", 1);
        assert!(Checkpoint::parse(&skewed)
            .unwrap_err()
            .contains("corrupt checkpoint"));

        // Fewer arrival rows than ingested slots.
        let mut short = ckpt.clone();
        short.arrivals.pop();
        let text = short.encode();
        assert!(Checkpoint::parse(&text)
            .unwrap_err()
            .contains("arrival rows"));

        // Ragged arrivals.
        let mut ragged = ckpt;
        ragged.arrivals[1].pop();
        let text = ragged.encode();
        assert!(Checkpoint::parse(&text).unwrap_err().contains("entries"));
    }

    #[test]
    fn serve_mode_header_is_batched_and_per_request_is_refused() {
        let text = sample().encode();
        assert!(text.contains("\"serve_mode\":\"batched\""));
        let per_request = text.replace(
            "\"serve_mode\":\"batched\"",
            "\"serve_mode\":\"per-request\"",
        );
        assert!(Checkpoint::parse(&per_request)
            .unwrap_err()
            .contains("per-request serve mode, which no longer exists"));
        let unknown = text.replace("\"serve_mode\":\"batched\"", "\"serve_mode\":\"lazy\"");
        assert!(Checkpoint::parse(&unknown)
            .unwrap_err()
            .contains("unknown serve mode 'lazy'"));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("cne-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        let ckpt = sample();
        ckpt.save(&path).expect("save");
        let loaded = Checkpoint::load(&path).expect("load");
        assert_eq!(loaded, ckpt);
        std::fs::remove_file(&path).ok();
        assert!(Checkpoint::load(&path).unwrap_err().contains("cannot read"));
    }
}
