//! [`EventLog`]: the durable, segmented, append-only event log.
//!
//! One directory holds one log:
//!
//! ```text
//! <dir>/manifest.bin        the log's birth certificate (Init record)
//! <dir>/seg-0000000000.seg  sealed segment 0
//! <dir>/seg-0000000001.seg  sealed segment 1
//! ...
//! ```
//!
//! Writes follow the seal boundary of the live graph exactly:
//! [`EventLog::append`] only *buffers* an event record in memory, and
//! [`EventLog::seal`] writes the whole segment — header, every buffered
//! record, the terminating `Seal` — in one shot, then `fsync`s the file
//! *and* the directory before returning. Durability is therefore
//! all-or-nothing per sealed snapshot: a crash can only ever lose the open
//! (never-acknowledged) snapshot, leaving at worst one torn file at the
//! tail, which [`EventLog::open`] truncates away.
//!
//! [`EventLog::open`] is the crash-recovery path: it validates the whole
//! segment chain (contiguous sequence numbers from 0, every record CRC),
//! drops a torn final segment, and **fails loudly** on anything else — a
//! CRC mismatch in sealed history, a sequence gap, a record after a seal.
//! Recovery never hands back a silently corrupt event stream.
//!
//! ## Failpoints
//!
//! Every point where the filesystem can betray this contract is a named
//! [`egraph_fault`] site, so the chaos suite can script ENOSPC, torn
//! writes and fsync failures deterministically (all no-ops in release):
//!
//! | site | failure it injects |
//! |------|--------------------|
//! | `log.manifest.write` | manifest write fails (or tears partway) |
//! | `log.manifest.fsync` | manifest fsync fails after a complete write |
//! | `log.seal.write` | segment write fails or tears (crash residue) |
//! | `log.seal.fsync` | segment fsync fails after a complete write |
//! | `log.dir.fsync` | directory fsync fails (file name not durable) |
//! | `log.segment.read` | re-reading a sealed segment for shipping fails |
//! | `log.compact.delete` | deleting a checkpoint-covered segment fails |
//!
//! (The checkpoint files that make compaction legal have their own sites —
//! see [`crate::checkpoint`].)

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use egraph_io::binary::{decode_record, encode_record, BinaryError, LogRecord};

use crate::segment::{decode_segment, encode_segment, SealedSegment, SegmentError};

/// First bytes of the manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"EGLM";

/// File name of the log manifest inside its directory.
pub const MANIFEST_FILE: &str = "manifest.bin";

/// Why a log could not be created, opened, or written.
#[derive(Debug)]
pub enum LogError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file (or directory) the operation touched.
        path: PathBuf,
        /// The error the OS reported.
        source: io::Error,
    },
    /// On-disk state that fsync-ordered writes can never produce: CRC
    /// mismatches in sealed history, sequence gaps, bad magic. Recovery
    /// refuses it loudly rather than replaying a corrupt stream.
    Corrupt {
        /// The offending file (or directory).
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// The manifest — the log's birth certificate — is torn or corrupt.
    /// Unlike a torn segment tail there is no crash that legitimately
    /// produces this (the manifest is written once, fsynced, before any
    /// seal), and without a readable `Init` record nothing about the log
    /// can be trusted, so it gets its own loud, file-naming error instead
    /// of being folded into generic corruption.
    Manifest {
        /// The manifest file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io { path, source } => write!(f, "log io at {}: {source}", path.display()),
            LogError::Corrupt { path, detail } => {
                write!(f, "log corrupt at {}: {detail}", path.display())
            }
            LogError::Manifest { path, detail } => {
                write!(f, "log manifest unusable at {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io { source, .. } => Some(source),
            LogError::Corrupt { .. } | LogError::Manifest { .. } => None,
        }
    }
}

/// A [`LogError`] result.
pub type Result<T> = std::result::Result<T, LogError>;

pub(crate) fn io_err<T>(path: &Path, source: io::Error) -> Result<T> {
    Err(LogError::Io {
        path: path.to_path_buf(),
        source,
    })
}

pub(crate) fn corrupt<T>(path: &Path, detail: impl Into<String>) -> Result<T> {
    Err(LogError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    })
}

/// What [`EventLog::seal`] durably wrote: the new segment's sequence number
/// and its exact on-disk bytes — ready to ship to followers without
/// re-reading the file.
#[derive(Clone, Debug)]
pub struct Sealed {
    /// The sealed segment's sequence number.
    pub seq: u64,
    /// The segment's complete encoded bytes (what `/log/tail` ships).
    pub bytes: Vec<u8>,
}

/// What [`EventLog::open`] recovered.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The log, positioned to continue appending after the last durable
    /// segment.
    pub log: EventLog,
    /// Every durably sealed segment still on disk, in sequence order — the
    /// replay input. After compaction this starts at `first_seq`, not 0;
    /// whether the missing prefix is legal is the caller's call (it is iff
    /// a valid checkpoint covers it).
    pub segments: Vec<SealedSegment>,
    /// Whether a torn (partially written, never acknowledged) final
    /// segment file was found and truncated away.
    pub dropped_torn_tail: bool,
    /// Sequence number of the oldest segment still on disk (equals the next
    /// sequence number when no segments remain).
    pub first_seq: u64,
}

/// A durable segmented event log rooted at one directory. See the
/// [module docs](self) for the on-disk layout and crash contract.
#[derive(Debug)]
pub struct EventLog {
    dir: PathBuf,
    init: LogRecord,
    first_seq: u64,
    next_seq: u64,
    pending: Vec<LogRecord>,
}

impl EventLog {
    /// Creates a fresh log at `dir` (created if missing) for a graph of
    /// `num_nodes` nodes, writing and fsyncing the manifest.
    ///
    /// # Errors
    /// [`LogError::Io`] with `ErrorKind::AlreadyExists` if `dir` already
    /// holds a manifest.
    pub fn create(dir: impl AsRef<Path>, num_nodes: u64, directed: bool) -> Result<EventLog> {
        let dir = dir.as_ref();
        if let Err(source) = fs::create_dir_all(dir) {
            return io_err(dir, source);
        }
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return io_err(
                &manifest_path,
                io::Error::new(io::ErrorKind::AlreadyExists, "log manifest already exists"),
            );
        }
        let init = LogRecord::Init {
            num_nodes,
            directed,
        };
        let mut bytes = Vec::with_capacity(24);
        bytes.extend_from_slice(&MANIFEST_MAGIC);
        bytes.push(crate::segment::FORMAT_VERSION);
        encode_record(&init, &mut bytes);
        write_durable(
            &manifest_path,
            &[&bytes],
            "log.manifest.write",
            "log.manifest.fsync",
        )?;
        sync_dir(dir)?;
        Ok(EventLog {
            dir: dir.to_path_buf(),
            init,
            first_seq: 0,
            next_seq: 0,
            pending: Vec::new(),
        })
    }

    /// Opens an existing log, validating the whole segment chain and
    /// truncating a torn tail (see the [module docs](self)).
    ///
    /// The chain must be contiguous but — since compaction deletes
    /// checkpoint-covered prefixes — need not start at 0; the first present
    /// sequence is reported as [`RecoveredLog::first_seq`] and the caller
    /// decides whether the missing prefix is covered. A hole *inside* the
    /// chain is still corruption. When every segment was compacted away the
    /// sequence counter resumes from the newest checkpoint file's name, so
    /// fresh seals never reuse a covered sequence number.
    pub fn open(dir: impl AsRef<Path>) -> Result<RecoveredLog> {
        let dir = dir.as_ref();
        let manifest_path = dir.join(MANIFEST_FILE);
        let init = read_manifest(&manifest_path)?;

        // Collect `seg-<seq>.seg` files; anything else in the directory is
        // ignored (the manifest, editor droppings, ...).
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(source) => return io_err(dir, source),
        };
        let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in entries {
            let entry = match entry {
                Ok(entry) => entry,
                Err(source) => return io_err(dir, source),
            };
            let path = entry.path();
            if let Some(seq) = parse_segment_file_name(&path) {
                seqs.push((seq, path));
            }
        }
        seqs.sort_unstable_by_key(|&(seq, _)| seq);

        let mut segments = Vec::with_capacity(seqs.len());
        let mut dropped_torn_tail = false;
        let last_index = seqs.len().wrapping_sub(1);
        let first_seq = seqs.first().map_or(0, |&(seq, _)| seq);
        for (i, (seq, path)) in seqs.iter().enumerate() {
            let expected = first_seq + i as u64;
            if *seq != expected {
                return corrupt(
                    dir,
                    format!("segment sequence gap: expected seq {expected}, found {seq}"),
                );
            }
            let bytes = match fs::read(path) {
                Ok(bytes) => bytes,
                Err(source) => return io_err(path, source),
            };
            match decode_segment(&bytes) {
                Ok(segment) => {
                    if segment.seq != *seq {
                        return corrupt(
                            path,
                            format!("file named seq {seq} but header says {}", segment.seq),
                        );
                    }
                    segments.push(segment);
                }
                // A torn *final* segment is the expected crash residue: the
                // write of an unacknowledged seal never completed. Truncate
                // it away. Torn anywhere else, or corrupt anywhere at all,
                // is state fsync ordering cannot produce — fail loudly.
                Err(SegmentError::Torn { .. }) if i == last_index => {
                    if let Err(source) = fs::remove_file(path) {
                        return io_err(path, source);
                    }
                    sync_dir(dir)?;
                    dropped_torn_tail = true;
                }
                Err(err) => return corrupt(path, err.to_string()),
            }
        }

        // The sequence resumes after the last surviving segment — or, when
        // compaction deleted every segment a checkpoint covers, after the
        // newest checkpoint's coverage (its file name records the last
        // sequence it absorbed). Without this, a fully compacted log would
        // hand out already-covered sequence numbers to fresh seals.
        let mut next_seq = first_seq + segments.len() as u64;
        for seq in crate::checkpoint::list_checkpoints(dir)? {
            next_seq = next_seq.max(seq + 1);
        }
        let first_seq = if segments.is_empty() {
            next_seq
        } else {
            first_seq
        };
        Ok(RecoveredLog {
            log: EventLog {
                dir: dir.to_path_buf(),
                init,
                first_seq,
                next_seq,
                pending: Vec::new(),
            },
            segments,
            dropped_torn_tail,
            first_seq,
        })
    }

    /// Opens the log at `dir` if its manifest exists, otherwise creates a
    /// fresh one. On open, the existing manifest's `Init` wins — the
    /// arguments are only used for creation.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        num_nodes: u64,
        directed: bool,
    ) -> Result<RecoveredLog> {
        let dir = dir.as_ref();
        if dir.join(MANIFEST_FILE).exists() {
            Self::open(dir)
        } else {
            Ok(RecoveredLog {
                log: Self::create(dir, num_nodes, directed)?,
                segments: Vec::new(),
                dropped_torn_tail: false,
                first_seq: 0,
            })
        }
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The `Init` record from the manifest: `(num_nodes, directed)`.
    pub fn init(&self) -> (u64, bool) {
        match self.init {
            LogRecord::Init {
                num_nodes,
                directed,
            } => (num_nodes, directed),
            _ => unreachable!("manifest decoding only accepts Init"),
        }
    }

    /// Number of durably sealed segments (also the next sequence number).
    pub fn segments_sealed(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the oldest segment still on disk. Equals
    /// [`EventLog::segments_sealed`] when compaction has deleted every
    /// segment (nothing is left to replay or ship).
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Deletes every segment with `seq <= through`, oldest first, fsyncing
    /// the directory afterwards. The caller must only compact sequences a
    /// durably installed checkpoint covers — this method just deletes.
    ///
    /// Returns how many segment files were removed. Deletion proceeds in
    /// ascending sequence order so a failure partway (site
    /// `log.compact.delete`) leaves the surviving chain contiguous — a
    /// half-compacted log reopens fine.
    pub fn compact_through(&mut self, through: u64) -> Result<u64> {
        let mut removed = 0u64;
        let stop = self.next_seq.min(through.saturating_add(1));
        let mut seq = self.first_seq;
        while seq < stop {
            let path = segment_path(&self.dir, seq);
            if egraph_fault::fired("log.compact.delete").is_some() {
                if removed > 0 {
                    sync_dir(&self.dir)?;
                }
                return io_err(
                    &path,
                    egraph_fault::injected_io_error("log.compact.delete", "compaction delete"),
                );
            }
            match fs::remove_file(&path) {
                Ok(()) => removed += 1,
                // Already gone (e.g. a crashed earlier compaction got this
                // far): the goal state, not an error.
                Err(source) if source.kind() == io::ErrorKind::NotFound => {}
                Err(source) => {
                    if removed > 0 {
                        sync_dir(&self.dir)?;
                    }
                    return io_err(&path, source);
                }
            }
            seq += 1;
            self.first_seq = seq;
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Total on-disk size of the surviving segment files plus the manifest
    /// — the `/stats` disk-accounting number.
    pub fn segments_bytes(&self) -> u64 {
        let mut total = file_len(&self.dir.join(MANIFEST_FILE));
        for seq in self.first_seq..self.next_seq {
            total += file_len(&segment_path(&self.dir, seq));
        }
        total
    }

    /// Number of event records buffered for the open (unsealed) segment.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Buffers one event record for the open segment. Nothing touches disk
    /// until [`EventLog::seal`].
    ///
    /// # Panics
    /// If handed a `Seal` or `Init` record — those are the log's own
    /// framing, not events.
    pub fn append(&mut self, record: LogRecord) {
        assert!(
            !matches!(record, LogRecord::Seal { .. } | LogRecord::Init { .. }),
            "append takes event records; seal/init are written by the log itself"
        );
        self.pending.push(record);
    }

    /// Durably seals the open segment under `label`: encodes header +
    /// buffered events + `Seal` record, writes the segment file, fsyncs it
    /// and the directory, and only then clears the buffer and advances the
    /// sequence. Returns the sequence number and the exact bytes written —
    /// the unit `/log/tail` ships to followers.
    ///
    /// On error nothing is advanced; the caller may retry, and a partial
    /// file left behind is exactly the torn tail [`EventLog::open`]
    /// truncates.
    pub fn seal(&mut self, label: i64) -> Result<Sealed> {
        let seq = self.next_seq;
        let bytes = encode_segment(seq, &self.pending, label);
        let path = segment_path(&self.dir, seq);
        write_durable(&path, &[&bytes], "log.seal.write", "log.seal.fsync")?;
        sync_dir(&self.dir)?;
        self.pending.clear();
        self.next_seq += 1;
        Ok(Sealed { seq, bytes })
    }

    /// Reads the exact on-disk bytes of sealed segment `seq` (for shipping
    /// to a follower that is catching up).
    pub fn segment_bytes(&self, seq: u64) -> Result<Vec<u8>> {
        let path = segment_path(&self.dir, seq);
        if egraph_fault::fired("log.segment.read").is_some() {
            return io_err(
                &path,
                egraph_fault::injected_io_error("log.segment.read", "segment read error"),
            );
        }
        match fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(source) => io_err(&path, source),
        }
    }
}

/// The file a segment with sequence number `seq` lives in.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:010}.seg"))
}

/// Size of the file at `path`, 0 if it does not exist.
pub(crate) fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Parses `seg-<seq>.seg` file names; anything else returns `None`.
fn parse_segment_file_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Reads and validates the manifest, returning its `Init` record. Any torn
/// or corrupt manifest is [`LogError::Manifest`], naming the file — no
/// crash legitimately produces one, so there is no quiet fallback.
fn read_manifest(path: &Path) -> Result<LogRecord> {
    let manifest = |detail: String| -> Result<LogRecord> {
        Err(LogError::Manifest {
            path: path.to_path_buf(),
            detail,
        })
    };
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(source) => return io_err(path, source),
    };
    if bytes.len() < 5 || bytes[..4] != MANIFEST_MAGIC {
        return manifest("bad manifest magic".into());
    }
    if bytes[4] != crate::segment::FORMAT_VERSION {
        return manifest(format!("unsupported format version {}", bytes[4]));
    }
    let (record, consumed) = match decode_record(&bytes[5..]) {
        Ok(decoded) => decoded,
        Err(BinaryError::Truncated) => return manifest("manifest truncated".into()),
        Err(err) => return manifest(err.to_string()),
    };
    if 5 + consumed != bytes.len() {
        return manifest("trailing bytes after the init record".into());
    }
    match record {
        init @ LogRecord::Init { .. } => Ok(init),
        other => manifest(format!("manifest holds {other:?}, not Init")),
    }
}

/// Writes the concatenation of `parts` to a fresh file at `path` (each
/// part written as it stands, never copied into one buffer) and fsyncs
/// it. `write_site`
/// and `fsync_site` are the failpoint names for the two failure classes:
/// a scripted *partial* at `write_site` leaves exactly the torn file a
/// crash mid-write would (and `File::create` truncates, so a retry
/// overwrites it cleanly); an *error* at `fsync_site` fails after the
/// bytes are fully written — the durability ack is lost but the file on
/// disk is complete and valid.
pub(crate) fn write_durable(
    path: &Path,
    parts: &[&[u8]],
    write_site: &str,
    fsync_site: &str,
) -> Result<()> {
    let result = (|| {
        let mut file = File::create(path)?;
        match egraph_fault::fired(write_site) {
            Some(egraph_fault::Fired::Partial(percent)) => {
                let total: usize = parts.iter().map(|part| part.len()).sum();
                let mut keep = total * usize::from(percent) / 100;
                for part in parts {
                    let n = keep.min(part.len());
                    file.write_all(&part[..n])?;
                    keep -= n;
                }
                let _ = file.sync_all();
                return Err(egraph_fault::injected_io_error(write_site, "torn write"));
            }
            Some(egraph_fault::Fired::Error) => {
                return Err(egraph_fault::injected_io_error(write_site, "write error"));
            }
            None => {}
        }
        for part in parts {
            file.write_all(part)?;
        }
        if egraph_fault::fired(fsync_site).is_some() {
            let _ = file.sync_all();
            return Err(egraph_fault::injected_io_error(fsync_site, "fsync error"));
        }
        file.sync_all()
    })();
    match result {
        Ok(()) => Ok(()),
        Err(source) => io_err(path, source),
    }
}

/// Fsyncs a directory so a freshly created (or removed) file name is
/// durable — on Linux, file creation is only durable once the parent
/// directory has been synced.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    if egraph_fault::fired("log.dir.fsync").is_some() {
        return io_err(
            dir,
            egraph_fault::injected_io_error("log.dir.fsync", "directory fsync error"),
        );
    }
    let result = File::open(dir).and_then(|handle| handle.sync_all());
    match result {
        Ok(()) => Ok(()),
        // Some filesystems refuse directory fsync; the file fsync already
        // happened, which is the best available on such hosts.
        Err(source) if source.kind() == io::ErrorKind::InvalidInput => Ok(()),
        Err(source) => io_err(dir, source),
    }
}

/// Reads and validates the manifest of the log at `dir` without opening
/// the log, returning `(num_nodes, directed)`.
pub fn read_log_init(dir: impl AsRef<Path>) -> Result<(u64, bool)> {
    match read_manifest(&dir.as_ref().join(MANIFEST_FILE))? {
        LogRecord::Init {
            num_nodes,
            directed,
        } => Ok((num_nodes, directed)),
        _ => unreachable!("read_manifest only returns Init"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique, self-cleaning temp directory (no tempfile crate in the
    /// offline build environment).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("egraph-log-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            TempDir(path)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn insert(src: u32, dst: u32) -> LogRecord {
        LogRecord::Insert { src, dst }
    }

    #[test]
    fn create_seal_reopen_replays_everything() {
        let dir = TempDir::new("roundtrip");
        let mut log = EventLog::create(dir.path(), 5, true).unwrap();
        log.append(insert(0, 1));
        log.append(insert(1, 2));
        let sealed = log.seal(10).unwrap();
        assert_eq!(sealed.seq, 0);
        log.append(LogRecord::GrowNodes { num_nodes: 9 });
        log.append(insert(7, 8));
        log.seal(20).unwrap();
        assert_eq!(log.segments_sealed(), 2);
        drop(log);

        let recovered = EventLog::open(dir.path()).unwrap();
        assert!(!recovered.dropped_torn_tail);
        assert_eq!(recovered.log.init(), (5, true));
        assert_eq!(recovered.log.segments_sealed(), 2);
        assert_eq!(recovered.segments.len(), 2);
        assert_eq!(recovered.segments[0].label, 10);
        assert_eq!(
            recovered.segments[0].events,
            vec![insert(0, 1), insert(1, 2)]
        );
        assert_eq!(recovered.segments[1].seq, 1);
        assert_eq!(
            recovered.segments[1].events,
            vec![LogRecord::GrowNodes { num_nodes: 9 }, insert(7, 8)]
        );

        // The reopened log continues the sequence.
        let mut log = recovered.log;
        log.append(insert(2, 3));
        assert_eq!(log.seal(30).unwrap().seq, 2);
    }

    #[test]
    fn pending_events_are_not_durable_until_sealed() {
        let dir = TempDir::new("pending");
        let mut log = EventLog::create(dir.path(), 3, true).unwrap();
        log.append(insert(0, 1));
        log.seal(1).unwrap();
        log.append(insert(1, 2)); // never sealed
        assert_eq!(log.num_pending(), 1);
        drop(log);

        let recovered = EventLog::open(dir.path()).unwrap();
        assert_eq!(recovered.segments.len(), 1);
        assert_eq!(recovered.log.num_pending(), 0);
    }

    #[test]
    fn a_torn_tail_is_truncated_and_the_seq_is_reused() {
        let dir = TempDir::new("torn");
        let mut log = EventLog::create(dir.path(), 4, false).unwrap();
        log.append(insert(0, 1));
        log.seal(1).unwrap();
        log.append(insert(1, 2));
        log.append(insert(2, 3));
        log.seal(2).unwrap();

        // Tear the final segment mid-record.
        let tail = segment_path(dir.path(), 1);
        let full = fs::read(&tail).unwrap();
        fs::write(&tail, &full[..full.len() - 3]).unwrap();

        let recovered = EventLog::open(dir.path()).unwrap();
        assert!(recovered.dropped_torn_tail);
        assert_eq!(recovered.segments.len(), 1);
        assert_eq!(recovered.log.segments_sealed(), 1);
        assert!(!tail.exists(), "the torn file is gone");

        // Sealing again rewrites seq 1 cleanly.
        let mut log = recovered.log;
        log.append(insert(1, 2));
        assert_eq!(log.seal(2).unwrap().seq, 1);
        let reopened = EventLog::open(dir.path()).unwrap();
        assert_eq!(reopened.segments.len(), 2);
    }

    #[test]
    fn corruption_in_sealed_history_fails_loudly() {
        let dir = TempDir::new("corrupt");
        let mut log = EventLog::create(dir.path(), 4, true).unwrap();
        for label in 0..3 {
            log.append(insert(0, 1));
            log.seal(label).unwrap();
        }
        // Flip a byte in the *middle* segment: not a torn tail, must error.
        let mid = segment_path(dir.path(), 1);
        let mut bytes = fs::read(&mid).unwrap();
        let at = bytes.len() - 6;
        bytes[at] ^= 0x10;
        fs::write(&mid, &bytes).unwrap();
        assert!(matches!(
            EventLog::open(dir.path()),
            Err(LogError::Corrupt { .. })
        ));
    }

    #[test]
    fn sequence_gaps_fail_loudly() {
        let dir = TempDir::new("gap");
        let mut log = EventLog::create(dir.path(), 4, true).unwrap();
        for label in 0..3 {
            log.append(insert(0, 1));
            log.seal(label).unwrap();
        }
        fs::remove_file(segment_path(dir.path(), 1)).unwrap();
        assert!(matches!(
            EventLog::open(dir.path()),
            Err(LogError::Corrupt { .. })
        ));
    }

    #[test]
    fn create_refuses_an_existing_log_and_open_or_create_adopts_it() {
        let dir = TempDir::new("exists");
        let mut log = EventLog::create(dir.path(), 7, true).unwrap();
        log.seal(0).unwrap();
        assert!(matches!(
            EventLog::create(dir.path(), 7, true),
            Err(LogError::Io { .. })
        ));
        // open_or_create keeps the existing manifest even when handed
        // different parameters.
        let recovered = EventLog::open_or_create(dir.path(), 999, false).unwrap();
        assert_eq!(recovered.log.init(), (7, true));
        assert_eq!(recovered.segments.len(), 1);
    }

    #[test]
    fn segment_bytes_ships_exactly_what_was_sealed() {
        let dir = TempDir::new("ship");
        let mut log = EventLog::create(dir.path(), 4, true).unwrap();
        log.append(insert(0, 1));
        let sealed = log.seal(5).unwrap();
        assert_eq!(log.segment_bytes(0).unwrap(), sealed.bytes);
        let decoded = decode_segment(&sealed.bytes).unwrap();
        assert_eq!(decoded.label, 5);
        assert_eq!(decoded.events, vec![insert(0, 1)]);
    }

    #[test]
    fn a_torn_or_corrupt_manifest_fails_with_a_dedicated_error_naming_the_file() {
        type Damage<'a> = &'a dyn Fn(&mut Vec<u8>);
        let corruptions: [Damage; 4] = [
            &|bytes| bytes.truncate(3),                  // torn inside the magic
            &|bytes| bytes.truncate(bytes.len() - 2),    // torn inside the record
            &|bytes| bytes[0] = b'X',                    // wrong magic
            &|bytes| *bytes.last_mut().unwrap() ^= 0x08, // CRC flip
        ];
        for (i, damage) in corruptions.iter().enumerate() {
            let dir = TempDir::new("manifest");
            EventLog::create(dir.path(), 4, true).unwrap();
            let manifest = dir.path().join(MANIFEST_FILE);
            let mut bytes = fs::read(&manifest).unwrap();
            damage(&mut bytes);
            fs::write(&manifest, &bytes).unwrap();
            let err = EventLog::open(dir.path()).unwrap_err();
            assert!(
                matches!(err, LogError::Manifest { .. }),
                "damage {i} must be LogError::Manifest, got {err:?}"
            );
            let message = err.to_string();
            assert!(
                message.contains(MANIFEST_FILE),
                "damage {i}: the error must name the manifest file: {message}"
            );
            // read_log_init takes the same loud path.
            assert!(matches!(
                read_log_init(dir.path()),
                Err(LogError::Manifest { .. })
            ));
        }
    }

    #[test]
    fn compaction_deletes_a_covered_prefix_and_reopen_accepts_the_suffix() {
        let dir = TempDir::new("compact");
        let mut log = EventLog::create(dir.path(), 4, true).unwrap();
        for label in 0..4 {
            log.append(insert(0, 1));
            log.seal(label).unwrap();
        }
        assert_eq!(log.first_seq(), 0);
        assert_eq!(log.compact_through(1).unwrap(), 2);
        assert_eq!(log.first_seq(), 2);
        assert!(!segment_path(dir.path(), 0).exists());
        assert!(!segment_path(dir.path(), 1).exists());
        // Compacting the same range again is a no-op, not an error.
        assert_eq!(log.compact_through(1).unwrap(), 0);
        drop(log);

        let recovered = EventLog::open(dir.path()).unwrap();
        assert_eq!(recovered.first_seq, 2);
        assert_eq!(recovered.log.first_seq(), 2);
        assert_eq!(recovered.log.segments_sealed(), 4);
        assert_eq!(recovered.segments.len(), 2);
        assert_eq!(recovered.segments[0].seq, 2);

        // A hole *inside* the surviving chain is still corruption: with
        // segments {2, 3} on disk, removing 3 and adding 4 leaves {2, 4}.
        fs::write(
            segment_path(dir.path(), 4),
            encode_segment(4, &[insert(0, 1)], 99),
        )
        .unwrap();
        fs::remove_file(segment_path(dir.path(), 3)).unwrap();
        assert!(matches!(
            EventLog::open(dir.path()),
            Err(LogError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_fully_compacted_log_resumes_its_sequence_from_the_checkpoint_name() {
        let dir = TempDir::new("resume");
        let mut log = EventLog::create(dir.path(), 4, true).unwrap();
        for label in 0..3 {
            log.append(insert(0, 1));
            log.seal(label).unwrap();
        }
        crate::checkpoint::write_checkpoint(dir.path(), 2, b"covers 0..=2").unwrap();
        assert_eq!(log.compact_through(2).unwrap(), 3);
        drop(log);

        let recovered = EventLog::open(dir.path()).unwrap();
        assert!(recovered.segments.is_empty());
        assert_eq!(recovered.first_seq, 3);
        // The next seal must not reuse a covered sequence number.
        let mut log = recovered.log;
        log.append(insert(1, 2));
        assert_eq!(log.seal(10).unwrap().seq, 3);
    }

    #[test]
    fn segments_bytes_tracks_the_surviving_files() {
        let dir = TempDir::new("bytes");
        let mut log = EventLog::create(dir.path(), 4, true).unwrap();
        let manifest_len = fs::metadata(dir.path().join(MANIFEST_FILE)).unwrap().len();
        assert_eq!(log.segments_bytes(), manifest_len);
        log.append(insert(0, 1));
        let sealed = log.seal(0).unwrap();
        assert_eq!(
            log.segments_bytes(),
            manifest_len + sealed.bytes.len() as u64
        );
        log.compact_through(0).unwrap();
        assert_eq!(log.segments_bytes(), manifest_len);
    }

    #[test]
    fn an_open_log_with_no_segments_is_empty_not_an_error() {
        let dir = TempDir::new("empty");
        EventLog::create(dir.path(), 2, false).unwrap();
        let recovered = EventLog::open(dir.path()).unwrap();
        assert_eq!(recovered.log.segments_sealed(), 0);
        assert!(recovered.segments.is_empty());
        assert_eq!(read_log_init(dir.path()).unwrap(), (2, false));
    }
}
