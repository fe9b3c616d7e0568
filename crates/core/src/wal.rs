//! Durable write-ahead arrival log (WAL) for the streaming serve
//! daemon.
//!
//! Checkpoints bound what a crash can lose to a `--checkpoint-every`
//! window; the WAL closes that window to (at most) the last un-synced
//! frame. The daemon appends every *input* of the deterministic run —
//! arrival sums, slot-close markers, checkpoint-installed markers —
//! before applying it, so the durable state is always
//!
//! ```text
//! recovered run = last checkpoint + WAL tail replayed through the
//!                 ordinary ServeSession machinery
//! ```
//!
//! and recovery is bit-identical to the uninterrupted run because the
//! simulator is a pure function of its inputs: the per-slot, per-edge
//! request counts and nothing finer.
//!
//! # On-disk format
//!
//! A WAL is a directory of fixed-prefix segment files
//! (`wal-00000001.log`, `wal-00000002.log`, …), each a sequence of
//! CRC-framed, length-prefixed records:
//!
//! ```text
//! frame   := len:u32-le  crc:u32-le  payload[len]     (crc over payload)
//! payload := 0x01 slot:u64-le n:u32-le (edge:u64-le count:u64-le)*n   arrivals (read only)
//!          | 0x02 slot:u64-le                                          slot close
//!          | 0x03 slot:u64-le                                          checkpoint installed
//!          | 0x04 slot:u64-le lines:u64-le n:u32-le (edge:u64-le sum:u64-le)*n
//!                                                                      arrival sums
//! ```
//!
//! The daemon group-commits its input: a [`GroupCommit`] buffer sums
//! the request lines of one flush (a transport block, or the part of
//! one before a slot closes) per edge, and each flush appends one
//! `0x04` frame. Its pairs are in strictly ascending edge order, one
//! per edge with a non-zero sum, and `lines` counts every line the
//! frame covers, zero-count ones included. A frame is therefore
//! 29 + 16·(edges touched) bytes, whatever the line count. `0x01`
//! frames, one `(edge, count)` pair per request line, are what earlier
//! daemons wrote; replay still reads them, and a log may mix the two.
//!
//! On open, the **last** segment is scanned and truncated at the first
//! torn or corrupt frame (a crash mid-append legitimately leaves one);
//! a corrupt frame in any *earlier* segment is real corruption and
//! fails loudly. Segments rotate at a size threshold, and a durably
//! installed checkpoint garbage-collects every segment before it (the
//! fresh segment opens with a [`WalRecord::CheckpointInstalled`]
//! marker, so the tail self-describes the checkpoint it follows).
//!
//! # Fsync policy
//!
//! | [`SyncPolicy`] | fsync on | survives |
//! |---|---|---|
//! | `Every` | every appended frame | power loss, to the last frame |
//! | `Slot`  | slot-close and checkpoint frames | power loss, to the last closed slot |
//! | `Off`   | never (kernel writeback only) | process crash (SIGKILL/OOM), not power loss |
//!
//! Frames are always `write(2)`-flushed before the daemon applies the
//! record, so a killed *process* never loses acknowledged input under
//! any policy — the policies only trade how much a *machine* crash can
//! roll back against fsync latency.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use cne_util::crc::crc32;

use crate::crashpoint;

/// Largest payload a frame may carry. The reader treats a longer frame
/// as corrupt rather than allocating it, so [`Wal::append`] refuses to
/// write one. A daemon frame covers at most one 256 KiB transport
/// block of wire lines of at least 11 bytes each, so it touches at
/// most about 24 000 edges and stays under 400 KB.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Default segment-rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

/// When the log is fsynced (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every appended frame.
    Every,
    /// fsync on slot-close and checkpoint-installed frames only.
    #[default]
    Slot,
    /// Never fsync; frames are still flushed to the kernel.
    Off,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "every" => Ok(Self::Every),
            "slot" => Ok(Self::Slot),
            "off" => Ok(Self::Off),
            other => Err(format!(
                "unknown WAL sync policy '{other}' (expected 'every', 'slot', or 'off')"
            )),
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Every => "every",
            Self::Slot => "slot",
            Self::Off => "off",
        })
    }
}

/// Knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Fsync policy for appended frames.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::default(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// Why [`Wal::append`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// The record encodes to more than [`MAX_FRAME_BYTES`]. Recovery
    /// would read the frame as corrupt and truncate the log there, so
    /// it is never written; retrying cannot help.
    FrameTooLarge {
        /// The encoded payload size.
        payload_bytes: usize,
    },
    /// An I/O failure before the frame reached the file in full
    /// (creating a segment, or the write itself). Any part of the frame
    /// that was written has been truncated away again, so the segment
    /// ends at its last whole frame and a retry is safe.
    Io(String),
    /// An fsync failed, or a failed write could not be rolled back.
    /// The segment's durable contents are unknown: the frame may be on
    /// disk, and after a failed fsync the kernel may have dropped the
    /// dirty pages and report the next fsync as a success. Writing the
    /// frame again could log it twice, so the caller must not retry on
    /// this log.
    Sync(String),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FrameTooLarge { payload_bytes } => write!(
                f,
                "WAL record of {payload_bytes} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"
            ),
            Self::Io(e) | Self::Sync(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for AppendError {}

impl From<AppendError> for String {
    fn from(e: AppendError) -> Self {
        e.to_string()
    }
}

/// One durable record: an input of the deterministic run, or a marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Raw arrivals accumulated into the (still open) slot `slot`:
    /// `(edge, count)` pairs, additive within the slot, one per
    /// request line. Earlier daemons wrote these; the daemon now
    /// writes [`WalRecord::ArrivalSums`].
    Arrivals {
        /// The open slot the arrivals belong to.
        slot: u64,
        /// `(edge index, request count)` pairs.
        pairs: Vec<(u64, u64)>,
    },
    /// Slot `slot` closed with whatever arrivals were recorded for it.
    SlotClose {
        /// The slot that closed.
        slot: u64,
    },
    /// A checkpoint capturing every slot `< slot` was durably
    /// installed; the WAL tail from here on assumes it.
    CheckpointInstalled {
        /// The checkpoint's `next_slot`.
        slot: u64,
    },
    /// One group commit into the open slot `slot`: the per-edge sums
    /// of `lines` request lines. Built by [`GroupCommit::take`].
    ArrivalSums {
        /// The open slot the arrivals belong to.
        slot: u64,
        /// Request lines the record covers, zero-count lines included
        /// (the daemon's `--slot-requests` counter).
        lines: u64,
        /// `(edge index, summed count)` pairs in strictly ascending
        /// edge order, without zero sums.
        pairs: Vec<(u64, u64)>,
    },
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(u64, u64)]) {
    out.reserve(4 + 16 * pairs.len());
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (edge, count) in pairs {
        out.extend_from_slice(&edge.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
    }
}

impl WalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Self::Arrivals { slot, pairs } => {
                out.push(0x01);
                out.extend_from_slice(&slot.to_le_bytes());
                put_pairs(&mut out, pairs);
            }
            Self::ArrivalSums { slot, lines, pairs } => {
                out.push(0x04);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&lines.to_le_bytes());
                put_pairs(&mut out, pairs);
            }
            Self::SlotClose { slot } => {
                out.push(0x02);
                out.extend_from_slice(&slot.to_le_bytes());
            }
            Self::CheckpointInstalled { slot } => {
                out.push(0x03);
                out.extend_from_slice(&slot.to_le_bytes());
            }
        }
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, String> {
        let mut cursor = Cursor {
            buf: payload,
            at: 0,
        };
        let tag = cursor.u8()?;
        let record = match tag {
            0x01 => Self::Arrivals {
                slot: cursor.u64()?,
                pairs: cursor.pairs()?,
            },
            0x02 => Self::SlotClose {
                slot: cursor.u64()?,
            },
            0x03 => Self::CheckpointInstalled {
                slot: cursor.u64()?,
            },
            0x04 => {
                let slot = cursor.u64()?;
                let lines = cursor.u64()?;
                let pairs = cursor.pairs()?;
                if lines == 0 || pairs.len() as u64 > lines {
                    return Err(format!("{} edge sums from {lines} lines", pairs.len()));
                }
                if pairs.iter().any(|&(_, sum)| sum == 0)
                    || pairs.windows(2).any(|w| w[0].0 >= w[1].0)
                {
                    return Err("arrival sums not in ascending non-zero edge order".to_owned());
                }
                Self::ArrivalSums { slot, lines, pairs }
            }
            other => return Err(format!("unknown record tag 0x{other:02x}")),
        };
        if cursor.at != payload.len() {
            return Err(format!(
                "{} trailing bytes after the record",
                payload.len() - cursor.at
            ));
        }
        Ok(record)
    }

    /// Whether the frame is a sync point under [`SyncPolicy::Slot`].
    fn is_boundary(&self) -> bool {
        matches!(
            self,
            Self::SlotClose { .. } | Self::CheckpointInstalled { .. }
        )
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| "record truncated".to_owned())?;
        let bytes = &self.buf[self.at..end];
        self.at = end;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// `n:u32` then `n` `(u64, u64)` pairs; `n` is checked against the
    /// bytes left before anything is allocated.
    fn pairs(&mut self) -> Result<Vec<(u64, u64)>, String> {
        let n = self.u32()?;
        if u64::from(n) > ((self.buf.len() - self.at) / 16) as u64 {
            return Err(format!("record claims {n} pairs beyond the frame"));
        }
        let mut pairs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            pairs.push((self.u64()?, self.u64()?));
        }
        Ok(pairs)
    }
}

/// The daemon's group-commit buffer: the per-edge sums of the request
/// lines applied since the last flush, and how many lines that was.
/// [`GroupCommit::take`] turns it into one [`WalRecord::ArrivalSums`]
/// in time proportional to the edges touched, not the fleet size.
#[derive(Debug)]
pub struct GroupCommit {
    /// Per-edge sums; zero for every edge not in `touched`.
    sums: Vec<u64>,
    /// Edges with a non-zero sum, in first-touch order.
    touched: Vec<usize>,
    lines: u64,
}

impl GroupCommit {
    /// An empty buffer for a fleet of `num_edges` edges.
    #[must_use]
    pub fn new(num_edges: usize) -> Self {
        Self {
            sums: vec![0; num_edges],
            touched: Vec::new(),
            lines: 0,
        }
    }

    /// Adds one request line of `count` arrivals at `edge`.
    ///
    /// # Panics
    /// Panics when `edge` is outside the fleet.
    pub fn add(&mut self, edge: usize, count: u64) {
        self.lines += 1;
        let sum = &mut self.sums[edge];
        if *sum == 0 && count > 0 {
            self.touched.push(edge);
        }
        *sum = sum.saturating_add(count);
    }

    /// Empties the buffer into the record for the open slot `slot`, or
    /// `None` when no line arrived since the last take.
    pub fn take(&mut self, slot: u64) -> Option<WalRecord> {
        if self.lines == 0 {
            return None;
        }
        self.touched.sort_unstable();
        let pairs = self
            .touched
            .drain(..)
            .map(|edge| (edge as u64, std::mem::take(&mut self.sums[edge])))
            .collect();
        Some(WalRecord::ArrivalSums {
            slot,
            lines: std::mem::take(&mut self.lines),
            pairs,
        })
    }
}

/// Where and why a scan stopped short of a segment's physical end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The segment holding the bad frame.
    pub segment: PathBuf,
    /// Byte offset of the first torn/corrupt frame.
    pub offset: u64,
    /// Human-readable cause (short read, CRC mismatch, bad tag, …).
    pub reason: String,
}

/// Everything a scan of an existing WAL directory yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Every valid record, in append order across segments.
    pub records: Vec<WalRecord>,
    /// The torn tail, when the last segment ended mid-frame. `open`
    /// truncates it away; [`read_records`] only reports it.
    pub torn: Option<TornTail>,
}

/// The effect of replaying a WAL tail on top of a checkpoint at
/// `start_slot`: fully closed slots to push through the session, plus
/// the partially accumulated open slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTail {
    /// First slot the tail closes (the checkpoint's `next_slot`).
    pub start_slot: u64,
    /// Per-edge arrival totals for each closed slot, in slot order
    /// starting at `start_slot`.
    pub closed: Vec<Vec<u64>>,
    /// Per-edge arrivals recorded for the still-open slot
    /// `start_slot + closed.len()`.
    pub open: Vec<u64>,
    /// Request lines recorded for the open slot (the daemon's
    /// `--slot-requests` counter): an `ArrivalSums` record contributes
    /// its `lines`, an `Arrivals` record one line per pair.
    pub open_lines: u64,
}

impl WalTail {
    /// Whether the tail carries no information beyond the checkpoint.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty() && self.open_lines == 0
    }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> String {
    format!("cannot {what} {}: {e}", path.display())
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}"))
}

fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Sorted `(index, path)` list of the directory's segment files.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read WAL directory", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read WAL directory", dir, &e))?;
        if let Some(index) = entry.file_name().to_str().and_then(segment_index) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

/// Whether `dir` already holds WAL segments (so a fresh daemon can
/// refuse to clobber a previous run's log).
#[must_use]
pub fn dir_has_segments(dir: &Path) -> bool {
    list_segments(dir).is_ok_and(|segments| !segments.is_empty())
}

/// Decodes the frames of one segment's bytes into `records`, stopping
/// at the first torn or corrupt frame: its offset and the reason.
fn scan_frames(bytes: &[u8], records: &mut Vec<WalRecord>) -> Option<(usize, String)> {
    let mut at: usize = 0;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < 8 {
            return Some((at, format!("{} trailing header bytes", rest.len())));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_BYTES {
            return Some((at, format!("implausible frame length {len}")));
        }
        let Some(payload) = rest.get(8..8 + len as usize) else {
            return Some((
                at,
                format!(
                    "frame claims {len} payload bytes, {} remain",
                    rest.len() - 8
                ),
            ));
        };
        if crc32(payload) != crc {
            return Some((at, "CRC mismatch".to_owned()));
        }
        match WalRecord::decode_payload(payload) {
            Ok(record) => records.push(record),
            Err(reason) => return Some((at, reason)),
        }
        at += 8 + payload.len();
    }
    None
}

/// Scans one segment. A bad frame in the last segment is a torn tail
/// (returned); in any earlier segment it is corruption (an error).
fn read_segment(
    path: &Path,
    is_last: bool,
    records: &mut Vec<WalRecord>,
) -> Result<Option<TornTail>, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read WAL segment", path, &e))?;
    let torn = scan_frames(&bytes, records).map(|(offset, reason)| TornTail {
        segment: path.to_path_buf(),
        offset: offset as u64,
        reason,
    });
    match torn {
        Some(tail) if !is_last => Err(format!(
            "WAL segment {} is corrupt at byte {} ({}) and is not the last segment — \
             this is not a torn tail; refusing to guess at the missing records",
            tail.segment.display(),
            tail.offset,
            tail.reason
        )),
        other => Ok(other),
    }
}

/// Read-only scan of a WAL directory: every valid record in append
/// order, plus the torn tail when the last segment ends mid-frame.
/// Used by recovery tooling and the chaos harness; never mutates the
/// log.
///
/// # Errors
/// Returns a message on I/O failure or corruption in a non-last
/// segment.
pub fn read_records(dir: &Path) -> Result<WalRecovery, String> {
    let segments = list_segments(dir)?;
    let mut records = Vec::new();
    let mut torn = None;
    for (i, (_, path)) in segments.iter().enumerate() {
        torn = read_segment(path, i + 1 == segments.len(), &mut records)?;
    }
    Ok(WalRecovery { records, torn })
}

#[cfg(unix)]
fn sync_dir(dir: &Path) -> Result<(), String> {
    File::open(dir)
        .and_then(|f| f.sync_all())
        .map_err(|e| io_err("fsync WAL directory", dir, &e))
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> Result<(), String> {
    // Directory fsync is a POSIX notion; other platforms get the
    // file-level durability only.
    Ok(())
}

/// An append handle on a WAL directory.
///
/// Created by [`Wal::open`], which also performs recovery: scan every
/// segment, truncate the last one at the first torn frame, and position
/// the writer at the end.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: File,
    segment: u64,
    segment_bytes: u64,
    appends: u64,
}

impl Wal {
    /// Opens (creating if needed) the WAL at `dir` and recovers its
    /// contents: all valid records are returned, and a torn tail in
    /// the last segment is truncated away (durably) before the writer
    /// is positioned after the last valid frame.
    ///
    /// # Errors
    /// Returns a message on I/O failure or corruption in a non-last
    /// segment.
    pub fn open(dir: &Path, options: WalOptions) -> Result<(Self, WalRecovery), String> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create WAL directory", dir, &e))?;
        let recovery = read_records(dir)?;
        if let Some(torn) = &recovery.torn {
            let file = OpenOptions::new()
                .write(true)
                .open(&torn.segment)
                .map_err(|e| io_err("open WAL segment", &torn.segment, &e))?;
            file.set_len(torn.offset)
                .map_err(|e| io_err("truncate WAL segment", &torn.segment, &e))?;
            file.sync_all()
                .map_err(|e| io_err("fsync WAL segment", &torn.segment, &e))?;
        }
        let segments = list_segments(dir)?;
        let (segment, path) = match segments.last() {
            Some((index, path)) => (*index, path.clone()),
            None => {
                let path = segment_path(dir, 1);
                (1, path)
            }
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open WAL segment", &path, &e))?;
        sync_dir(dir)?;
        let segment_bytes = file
            .metadata()
            .map_err(|e| io_err("stat WAL segment", &path, &e))?
            .len();
        Ok((
            Self {
                dir: dir.to_path_buf(),
                options,
                file,
                segment,
                segment_bytes,
                appends: 0,
            },
            recovery,
        ))
    }

    /// The directory this WAL lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record, honoring the fsync policy. The frame is
    /// fully flushed to the kernel before this returns, so a killed
    /// process never loses an acknowledged record.
    ///
    /// # Errors
    /// [`AppendError::FrameTooLarge`] when the record would not fit in
    /// one frame (nothing is written); [`AppendError::Io`] when the
    /// frame could not be written (the segment is cut back to its
    /// length before the write, so a retry starts from a clean tail);
    /// [`AppendError::Sync`] when an fsync failed or that cut failed
    /// (not safe to retry). The caller decides whether to retry or
    /// degrade.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), AppendError> {
        let payload = record.encode_payload();
        if payload.len() > MAX_FRAME_BYTES as usize {
            return Err(AppendError::FrameTooLarge {
                payload_bytes: payload.len(),
            });
        }
        if self.segment_bytes >= self.options.segment_bytes {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.appends += 1;
        if crashpoint::hit("wal-torn-append", self.appends) {
            // Chaos drill: simulate a crash mid-append by persisting
            // only a prefix of the frame, then dying without cleanup.
            let _ = self.file.write_all(&frame[..8 + payload.len() / 2]);
            let _ = self.file.sync_all();
            crashpoint::crash("wal-torn-append");
        }
        if let Err(e) = self.file.write_all(&frame) {
            // A short write leaves a frame prefix that recovery reads
            // as a torn tail, and a retry would append behind it. Cut
            // the segment back to its last whole frame first.
            let path = segment_path(&self.dir, self.segment);
            let error = io_err("append to WAL segment", &path, &e);
            return Err(match self.file.set_len(self.segment_bytes) {
                Ok(()) => AppendError::Io(error),
                Err(e) => AppendError::Sync(format!(
                    "{error}; {}",
                    io_err("truncate WAL segment", &path, &e)
                )),
            });
        }
        self.segment_bytes += frame.len() as u64;
        let must_sync = match self.options.sync {
            SyncPolicy::Every => true,
            SyncPolicy::Slot => record.is_boundary(),
            SyncPolicy::Off => false,
        };
        if must_sync {
            self.sync().map_err(AppendError::Sync)?;
        }
        Ok(())
    }

    /// Forces an fsync of the current segment, regardless of policy.
    ///
    /// # Errors
    /// Returns a message on I/O failure.
    pub fn sync(&mut self) -> Result<(), String> {
        self.file.sync_data().map_err(|e| {
            io_err(
                "fsync WAL segment",
                &segment_path(&self.dir, self.segment),
                &e,
            )
        })
    }

    fn rotate(&mut self) -> Result<(), AppendError> {
        // The closing segment must be durable before the log moves on:
        // recovery reads segments in order and only tolerates a torn
        // tail in the last one.
        if self.options.sync != SyncPolicy::Off {
            self.sync().map_err(AppendError::Sync)?;
        }
        self.segment += 1;
        let path = segment_path(&self.dir, self.segment);
        self.file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| AppendError::Io(io_err("create WAL segment", &path, &e)))?;
        self.segment_bytes = 0;
        sync_dir(&self.dir).map_err(AppendError::Sync)
    }

    /// Records that a checkpoint capturing every slot `< slot` was
    /// durably installed: rotates to a fresh segment whose first frame
    /// is the [`WalRecord::CheckpointInstalled`] marker, then
    /// garbage-collects every older segment (their records are all
    /// covered by the checkpoint).
    ///
    /// Call this only **after** the checkpoint file itself is durably
    /// on disk — the GC assumes it.
    ///
    /// # Errors
    /// Returns a message when the marker cannot be appended; GC
    /// deletion failures are ignored (stale segments are harmless —
    /// replay skips records the checkpoint covers).
    pub fn install_checkpoint(&mut self, slot: u64) -> Result<(), String> {
        self.rotate()?;
        self.append(&WalRecord::CheckpointInstalled { slot })?;
        if self.options.sync == SyncPolicy::Off {
            // Even `off` makes the marker durable: it anchors the GC.
            self.sync()?;
        }
        for (index, path) in list_segments(&self.dir)? {
            if index < self.segment {
                let _ = std::fs::remove_file(path);
            }
        }
        sync_dir(&self.dir)
    }
}

/// Replays scanned records on top of a checkpoint at `start_slot`:
/// records for earlier slots are skipped (the checkpoint covers them),
/// later ones must form a contiguous slot sequence.
///
/// # Errors
/// Returns a message when the record sequence is inconsistent — slots
/// out of order, arrivals for an edge outside the fleet, or a
/// checkpoint marker beyond the replayed state (records the marker's
/// checkpoint superseded were garbage-collected, so this WAL cannot be
/// replayed onto an *older* checkpoint).
pub fn replay(records: &[WalRecord], num_edges: usize, start_slot: u64) -> Result<WalTail, String> {
    let mut tail = WalTail {
        start_slot,
        closed: Vec::new(),
        open: vec![0; num_edges],
        open_lines: 0,
    };
    let mut cursor = start_slot;
    for record in records {
        match record {
            WalRecord::Arrivals { slot, pairs } | WalRecord::ArrivalSums { slot, pairs, .. } => {
                if *slot < start_slot {
                    continue;
                }
                if *slot != cursor {
                    return Err(format!(
                        "WAL slot sequence broken: arrivals for slot {slot} while slot \
                         {cursor} is open"
                    ));
                }
                for (edge, count) in pairs {
                    let lane = tail
                        .open
                        .get_mut(usize::try_from(*edge).unwrap_or(usize::MAX))
                        .ok_or_else(|| {
                            format!("WAL arrival for edge {edge}, but the fleet has {num_edges}")
                        })?;
                    *lane = lane.saturating_add(*count);
                }
                let lines = match record {
                    WalRecord::ArrivalSums { lines, .. } => *lines,
                    _ => pairs.len() as u64,
                };
                tail.open_lines = tail.open_lines.saturating_add(lines);
            }
            WalRecord::SlotClose { slot } => {
                if *slot < start_slot {
                    continue;
                }
                if *slot != cursor {
                    return Err(format!(
                        "WAL slot sequence broken: close for slot {slot} while slot \
                         {cursor} is open"
                    ));
                }
                tail.closed
                    .push(std::mem::replace(&mut tail.open, vec![0; num_edges]));
                tail.open_lines = 0;
                cursor += 1;
            }
            WalRecord::CheckpointInstalled { slot } => {
                if *slot > cursor {
                    return Err(format!(
                        "WAL assumes a checkpoint at slot {slot}, but replay only reaches \
                         slot {cursor} — the records before it were garbage-collected; \
                         resume from that checkpoint, not an older one"
                    ));
                }
            }
        }
    }
    Ok(tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cne-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 3), (2, 1)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 7)],
            },
            WalRecord::SlotClose { slot: 0 },
            WalRecord::Arrivals {
                slot: 1,
                pairs: vec![(0, 2)],
            },
            WalRecord::SlotClose { slot: 1 },
        ]
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = temp_dir("roundtrip");
        let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("open");
        assert!(recovery.records.is_empty() && recovery.torn.is_none());
        for record in sample_records() {
            wal.append(&record).expect("append");
        }
        drop(wal);
        let recovery = read_records(&dir).expect("read");
        assert_eq!(recovery.records, sample_records());
        assert!(recovery.torn.is_none());

        // Reopening recovers the same records and keeps appending.
        let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("reopen");
        assert_eq!(recovery.records, sample_records());
        wal.append(&WalRecord::SlotClose { slot: 2 })
            .expect("append");
        drop(wal);
        assert_eq!(read_records(&dir).expect("read").records.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = temp_dir("torn");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        for record in sample_records() {
            wal.append(&record).expect("append");
        }
        drop(wal);
        let seg = segment_path(&dir, 1);
        let full = std::fs::read(&seg).expect("read segment");

        // Every possible mid-frame cut: the scan keeps the valid
        // prefix and reports the torn offset; reopening truncates.
        let frame_len = |payload: usize| 8 + payload;
        let sizes: Vec<usize> = sample_records()
            .iter()
            .map(|r| frame_len(r.encode_payload().len()))
            .collect();
        let offsets: Vec<usize> = sizes
            .iter()
            .scan(0, |acc, s| {
                *acc += s;
                Some(*acc)
            })
            .collect();
        for cut in 1..full.len() {
            std::fs::write(&seg, &full[..cut]).expect("truncate");
            let recovery = read_records(&dir).expect("scan");
            let valid = offsets.iter().filter(|&&end| end <= cut).count();
            assert_eq!(recovery.records.len(), valid, "cut at {cut}");
            if offsets.contains(&cut) {
                assert!(recovery.torn.is_none(), "cut at frame boundary {cut}");
            } else {
                let torn = recovery.torn.expect("mid-frame cut is torn");
                assert_eq!(
                    torn.offset as usize,
                    offsets[..valid].last().copied().unwrap_or(0)
                );
            }
        }

        // A flipped CRC bit invalidates exactly that frame onward.
        let mut flipped = full.clone();
        flipped[offsets[1] + 4] ^= 0x01; // CRC byte of the third frame
        std::fs::write(&seg, &flipped).expect("write");
        let recovery = read_records(&dir).expect("scan");
        assert_eq!(recovery.records.len(), 2);
        assert!(recovery.torn.expect("flip detected").reason.contains("CRC"));

        // A flipped payload bit likewise.
        let mut flipped = full.clone();
        flipped[offsets[0] + 8] ^= 0x80;
        std::fs::write(&seg, &flipped).expect("write");
        let recovery = read_records(&dir).expect("scan");
        assert_eq!(recovery.records.len(), 1);
        assert!(recovery.torn.is_some());

        // Opening truncates the torn tail durably: a second scan is
        // clean and the writer continues after the valid prefix.
        std::fs::write(&seg, &full[..offsets[2] + 3]).expect("tear");
        let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).expect("open");
        assert_eq!(recovery.records.len(), 3);
        assert!(recovery.torn.is_some());
        wal.append(&WalRecord::Arrivals {
            slot: 1,
            pairs: vec![(3, 9)],
        })
        .expect("append after truncation");
        drop(wal);
        let recovery = read_records(&dir).expect("rescan");
        assert!(recovery.torn.is_none());
        assert_eq!(recovery.records.len(), 4);
        assert_eq!(
            recovery.records[3],
            WalRecord::Arrivals {
                slot: 1,
                pairs: vec![(3, 9)],
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_non_last_segment_fails_loudly() {
        let dir = temp_dir("midcorrupt");
        let options = WalOptions {
            segment_bytes: 1, // rotate on every append
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(&dir, options).expect("open");
        for record in sample_records() {
            wal.append(&record).expect("append");
        }
        drop(wal);
        assert!(list_segments(&dir).expect("list").len() >= 2);
        let (_, first) = &list_segments(&dir).expect("list")[0];
        let mut bytes = std::fs::read(first).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(first, &bytes).expect("write");
        let err = read_records(&dir).unwrap_err();
        assert!(err.contains("not the last segment"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_checkpoint_gc() {
        let dir = temp_dir("gc");
        let options = WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(&dir, options).expect("open");
        for t in 0..20u64 {
            wal.append(&WalRecord::Arrivals {
                slot: t,
                pairs: vec![(0, t)],
            })
            .expect("append");
            wal.append(&WalRecord::SlotClose { slot: t })
                .expect("append");
        }
        assert!(
            list_segments(&dir).expect("list").len() > 1,
            "rotation happened"
        );
        wal.install_checkpoint(20).expect("install");
        let segments = list_segments(&dir).expect("list");
        assert_eq!(segments.len(), 1, "GC keeps only the fresh segment");
        drop(wal);
        let recovery = read_records(&dir).expect("read");
        assert_eq!(
            recovery.records,
            vec![WalRecord::CheckpointInstalled { slot: 20 }]
        );
        // Replay on the matching checkpoint: clean empty tail.
        let tail = replay(&recovery.records, 1, 20).expect("replay");
        assert!(tail.is_empty());
        // Replay on an *older* checkpoint: the gap is detected.
        let err = replay(&recovery.records, 1, 10).unwrap_err();
        assert!(err.contains("garbage-collected"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_rebuilds_slots_and_validates() {
        let records = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 5)],
            },
            WalRecord::SlotClose { slot: 0 },
            WalRecord::Arrivals {
                slot: 1,
                pairs: vec![(1, 2), (1, 3)],
            },
            WalRecord::SlotClose { slot: 1 },
            WalRecord::Arrivals {
                slot: 2,
                pairs: vec![(0, 1)],
            },
        ];
        let tail = replay(&records, 2, 0).expect("replay");
        assert_eq!(tail.closed, vec![vec![5, 0], vec![0, 5]]);
        assert_eq!(tail.open, vec![1, 0]);
        assert_eq!(tail.open_lines, 1);

        // A later start slot skips the covered prefix.
        let tail = replay(&records, 2, 1).expect("replay");
        assert_eq!(tail.closed, vec![vec![0, 5]]);
        assert_eq!(tail.open, vec![1, 0]);

        // A start slot past every record yields an empty tail.
        let tail = replay(&records, 2, 5).expect("replay");
        assert!(tail.is_empty());

        // Out-of-order slots and out-of-range edges are rejected.
        let bad = vec![WalRecord::Arrivals {
            slot: 1,
            pairs: vec![(0, 1)],
        }];
        assert!(replay(&bad, 2, 0).unwrap_err().contains("sequence broken"));
        let bad = vec![WalRecord::SlotClose { slot: 3 }];
        assert!(replay(&bad, 2, 0).unwrap_err().contains("sequence broken"));
        let bad = vec![WalRecord::Arrivals {
            slot: 0,
            pairs: vec![(7, 1)],
        }];
        assert!(replay(&bad, 2, 0).unwrap_err().contains("edge 7"));
    }

    /// A group-committed record (one `Arrivals` frame carrying a whole
    /// burst of request lines) replays with per-line accounting: the
    /// open slot's `open_lines` counts pairs, not frames, so a resumed
    /// daemon's `--slot-requests` trigger fires at the same line as
    /// one that never crashed.
    #[test]
    fn group_committed_arrivals_replay_per_line() {
        let records = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 2), (1, 1), (0, 4)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 7)],
            },
        ];
        let tail = replay(&records, 2, 0).expect("replay");
        assert_eq!(tail.open, vec![6, 8]);
        assert_eq!(tail.open_lines, 4, "3 pairs + 1 pair = 4 request lines");

        // Closing the slot folds the batch identically to four
        // single-pair records — group commit changes framing only.
        let singles = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 2)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 1)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 4)],
            },
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(1, 7)],
            },
        ];
        let equivalent = replay(&singles, 2, 0).expect("replay");
        assert_eq!(equivalent.open, tail.open);
        assert_eq!(equivalent.open_lines, tail.open_lines);
    }

    /// The buffer sums lines per edge, drops zero sums, orders edges,
    /// counts every line and empties itself on `take`.
    #[test]
    fn group_commit_sums_lines_per_edge() {
        let mut batch = GroupCommit::new(6);
        assert_eq!(batch.take(0), None, "no line, no record");
        for (edge, count) in [(4, 2), (1, 0), (4, 3), (0, 7), (5, 0), (1, 1)] {
            batch.add(edge, count);
        }
        assert_eq!(
            batch.take(3),
            Some(WalRecord::ArrivalSums {
                slot: 3,
                lines: 6,
                pairs: vec![(0, 7), (1, 1), (4, 5)],
            })
        );
        assert_eq!(batch.take(3), None, "take empties the buffer");
        // Zero-count lines still count toward `--slot-requests`.
        batch.add(2, 0);
        assert_eq!(
            batch.take(4),
            Some(WalRecord::ArrivalSums {
                slot: 4,
                lines: 1,
                pairs: Vec::new(),
            })
        );
    }

    /// An `ArrivalSums` frame is 29 + 16·(edges touched) bytes, however
    /// many lines it covers.
    #[test]
    fn arrival_sums_frame_size_ignores_the_line_count() {
        for lines_per_edge in [1u64, 10, 10_000] {
            let mut batch = GroupCommit::new(50);
            for _ in 0..lines_per_edge {
                for edge in [3, 17, 42] {
                    batch.add(edge, 2);
                }
            }
            let record = batch.take(0).expect("lines were added");
            assert_eq!(8 + record.encode_payload().len(), 29 + 16 * 3);
        }
    }

    /// Pre-sums `Arrivals` frames and `ArrivalSums` frames in one log
    /// replay into the same totals and line counts.
    #[test]
    fn mixed_arrivals_and_sums_frames_replay() {
        let dir = temp_dir("mixed");
        let records = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 3), (2, 1), (0, 1)],
            },
            WalRecord::ArrivalSums {
                slot: 0,
                lines: 4,
                pairs: vec![(1, 5), (2, 2)],
            },
            WalRecord::SlotClose { slot: 0 },
            WalRecord::ArrivalSums {
                slot: 1,
                lines: 2,
                pairs: vec![(0, 9)],
            },
            WalRecord::Arrivals {
                slot: 1,
                pairs: vec![(2, 4)],
            },
        ];
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        for record in &records {
            wal.append(record).expect("append");
        }
        drop(wal);
        let recovery = read_records(&dir).expect("read");
        assert_eq!(recovery.records, records);
        assert!(recovery.torn.is_none());
        let tail = replay(&recovery.records, 3, 0).expect("replay");
        assert_eq!(tail.closed, vec![vec![4, 5, 3]]);
        assert_eq!(tail.open, vec![9, 0, 4]);
        assert_eq!(tail.open_lines, 3, "2 summed lines + 1 pair");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `ArrivalSums` payloads that break the format's ordering rules
    /// are corrupt frames, even under a valid CRC.
    #[test]
    fn malformed_arrival_sums_are_rejected() {
        for (lines, pairs) in [
            (2, vec![(3, 1), (1, 1)]),
            (2, vec![(1, 1), (1, 1)]),
            (2, vec![(1, 0)]),
            (0, vec![]),
            (1, vec![(0, 1), (1, 1)]),
        ] {
            let payload = WalRecord::ArrivalSums {
                slot: 0,
                lines,
                pairs,
            }
            .encode_payload();
            assert!(WalRecord::decode_payload(&payload).is_err());
        }
    }

    /// Every single-byte change to a segment holding all four record
    /// kinds is caught at the frame it hits: the records before it
    /// survive and the scan stops at that frame's offset.
    #[test]
    fn every_single_byte_flip_is_caught() {
        let dir = temp_dir("flip");
        let records = vec![
            WalRecord::Arrivals {
                slot: 0,
                pairs: vec![(0, 3), (2, 1)],
            },
            WalRecord::ArrivalSums {
                slot: 0,
                lines: 3,
                pairs: vec![(1, 4), (3, 2)],
            },
            WalRecord::SlotClose { slot: 0 },
            WalRecord::CheckpointInstalled { slot: 1 },
        ];
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        for record in &records {
            wal.append(record).expect("append");
        }
        drop(wal);
        let full = std::fs::read(segment_path(&dir, 1)).expect("read segment");
        std::fs::remove_dir_all(&dir).ok();
        let mut starts = vec![0];
        for record in &records {
            starts.push(starts.last().expect("non-empty") + 8 + record.encode_payload().len());
        }
        assert_eq!(starts[records.len()], full.len());

        for at in 0..full.len() {
            let frame = starts.iter().rposition(|&s| s <= at).expect("offset 0");
            for mask in 1..=255u8 {
                let mut bytes = full.clone();
                bytes[at] ^= mask;
                let mut scanned = Vec::new();
                let torn = scan_frames(&bytes, &mut scanned);
                assert_eq!(scanned, records[..frame], "byte {at} ^ {mask:#04x}");
                assert_eq!(
                    torn.map(|(offset, _)| offset),
                    Some(starts[frame]),
                    "byte {at} ^ {mask:#04x}"
                );
            }
        }
    }

    /// The writer refuses a frame the reader would throw away, writes
    /// nothing for it, and accepts the largest frame the reader takes.
    #[test]
    fn oversized_frames_are_refused_before_writing() {
        let dir = temp_dir("oversize");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        // An `Arrivals` payload is 13 + 16·n bytes.
        let fits = (MAX_FRAME_BYTES as usize - 13) / 16;
        let arrivals = |n: usize| WalRecord::Arrivals {
            slot: 0,
            pairs: vec![(0, 1); n],
        };
        assert_eq!(
            wal.append(&arrivals(fits + 1)),
            Err(AppendError::FrameTooLarge {
                payload_bytes: 13 + 16 * (fits + 1)
            })
        );
        assert_eq!(
            std::fs::metadata(segment_path(&dir, 1))
                .expect("stat")
                .len(),
            0,
            "nothing written"
        );
        wal.append(&arrivals(fits)).expect("the largest frame fits");
        wal.append(&WalRecord::SlotClose { slot: 0 })
            .expect("append");
        drop(wal);
        let recovery = read_records(&dir).expect("read");
        assert!(recovery.torn.is_none());
        assert_eq!(
            recovery.records,
            vec![arrivals(fits), WalRecord::SlotClose { slot: 0 }]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(
            "every".parse::<SyncPolicy>().expect("ok"),
            SyncPolicy::Every
        );
        assert_eq!("SLOT".parse::<SyncPolicy>().expect("ok"), SyncPolicy::Slot);
        assert_eq!("off".parse::<SyncPolicy>().expect("ok"), SyncPolicy::Off);
        assert!("sometimes".parse::<SyncPolicy>().is_err());
        assert_eq!(SyncPolicy::Slot.to_string(), "slot");
    }

    #[test]
    fn fresh_directory_detection() {
        let dir = temp_dir("fresh");
        assert!(!dir_has_segments(&dir));
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
        wal.append(&WalRecord::SlotClose { slot: 0 })
            .expect("append");
        assert!(dir_has_segments(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
}
