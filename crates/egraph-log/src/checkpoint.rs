//! Checkpoint files: atomically installed, chained snapshots of sealed
//! graph state.
//!
//! `checkpoint-<seq>.bin` absorbs every segment with sequence number
//! `<= seq`, so recovery can skip replaying them. Checkpoints form
//! **chains**: a **base** holds a payload that stands alone; a **link**
//! names its predecessor and holds only what was sealed since (for graphs:
//! `egraph-io` append records, which concatenate). A checkpoint's state is
//! its chain's payloads, base first — what [`read_checkpoint`] returns.
//!
//! ```text
//! checkpoint := magic "EGCP" ++ format_version u8 ++ last_seq u64 LE
//!               ++ prev_seq u64 LE ++ payload_len u64 LE ++ payload
//!               ++ crc32(every byte before it) u32 LE
//! ```
//!
//! `prev_seq` is `u64::MAX` in a base and strictly smaller than `last_seq`
//! in a link, so every chain walk ends at a base. Files of format 1, which
//! older builds wrote (`magic ++ 1u8 ++ last_seq ++ varint(payload_len) ++
//! payload ++ crc32(payload)`, a whole graph in `egraph-io`'s format-1
//! layout), are read as bases: their payload is upgraded to a base record
//! on read, so data directories from those builds open and chain on.
//!
//! Installation is atomic against crashes at *every* byte offset: the
//! bytes are written and fsynced to `checkpoint-<seq>.tmp`, renamed into
//! place, then the directory is fsynced. A crash before the rename leaves a
//! `.tmp` that readers ignore; after it, a complete checkpoint. The
//! installed name never holds torn bytes, which is what makes it safe for
//! compaction to delete covered segments — strictly *after* the rename.
//!
//! Reading walks from the requested file back to its base and checks every
//! file's magic, version, length, CRC and name-vs-header sequence. A chain
//! with any bad file is reported, never used; the recovery layer falls back
//! to an older checkpoint or to full replay.
//!
//! **Retention**: [`retain_checkpoints`] keeps the newest `n` checkpoints
//! plus every ancestor their chains need. With `n >= 2` it also keeps an
//! *independent* fallback — the newest checkpoint on another base — since
//! checkpoints of one chain share its base and every link between, and a
//! single damaged file there would take all of them down. The oldest kept
//! tip bounds segment compaction, so each keeps the segment suffix it
//! replays from.
//!
//! ## Failpoints
//!
//! | site | failure it injects |
//! |------|--------------------|
//! | `ckpt.write` | temp-file write fails (or tears partway) |
//! | `ckpt.fsync` | temp-file fsync fails after a complete write |
//! | `ckpt.rename` | crash window between fsync and rename |
//! | `ckpt.read` | reading a checkpoint chain back fails |

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File};
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};

use egraph_io::binary::{read_varint, Crc32};

use crate::log::{corrupt, file_len, io_err, sync_dir, write_durable, Result};

/// First bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"EGCP";

/// Layout version of checkpoint files (2: chained, header under the CRC).
pub const CHECKPOINT_FORMAT_VERSION: u8 = 2;

/// Fixed header size: magic + version byte + `u64` last covered sequence +
/// `u64` predecessor sequence + `u64` payload length.
pub const CHECKPOINT_HEADER_BYTES: usize = 4 + 1 + 8 + 8 + 8;

/// The format older builds wrote, still read as a base.
const LEGACY_FORMAT_VERSION: u8 = 1;

/// Format 1's fixed header: magic + version byte + `u64` last covered
/// sequence (a varint payload length follows).
const LEGACY_HEADER_BYTES: usize = 4 + 1 + 8;

/// The `prev_seq` a base carries.
const NO_PREDECESSOR: u64 = u64::MAX;

/// The file a checkpoint covering segments `..= last_seq` lives in.
pub fn checkpoint_path(dir: &Path, last_seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{last_seq:010}.bin"))
}

/// The temp file a checkpoint is staged in before its atomic rename.
fn checkpoint_tmp_path(dir: &Path, last_seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{last_seq:010}.tmp"))
}

/// Parses `checkpoint-<seq>.<ext>` file names.
fn parse_checkpoint_file_name(path: &Path, ext: &str) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("checkpoint-")?.strip_suffix(ext)?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists the last-covered sequence numbers of every *installed* checkpoint
/// in `dir` — bases and links — ascending. Installed means renamed into
/// place — staging `.tmp` files are invisible here. Validity is not
/// checked; that happens per chain at read time.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir).or_else(|source| io_err(dir, source))? {
        let entry = entry.or_else(|source| io_err(dir, source))?;
        seqs.extend(parse_checkpoint_file_name(&entry.path(), ".bin"));
    }
    seqs.sort_unstable();
    Ok(seqs)
}

fn encode_header(last_seq: u64, prev: Option<u64>, payload_len: usize) -> Vec<u8> {
    let prev = prev.unwrap_or(NO_PREDECESSOR).to_le_bytes();
    let len = (payload_len as u64).to_le_bytes();
    [
        &CHECKPOINT_MAGIC[..],
        &[CHECKPOINT_FORMAT_VERSION],
        &last_seq.to_le_bytes(),
        &prev,
        &len,
    ]
    .concat()
}

/// A checkpoint file's `(last_seq, predecessor)`, from its header alone.
fn decode_header(bytes: &[u8]) -> std::result::Result<(u64, Option<u64>), String> {
    let legacy = bytes.get(4) == Some(&LEGACY_FORMAT_VERSION);
    let needed = if legacy {
        LEGACY_HEADER_BYTES
    } else {
        CHECKPOINT_HEADER_BYTES
    };
    if bytes.len() < needed {
        return Err(format!(
            "{} bytes is shorter than the {needed}-byte header",
            bytes.len()
        ));
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err("bad magic".into());
    }
    if !legacy && bytes[4] != CHECKPOINT_FORMAT_VERSION {
        return Err(format!("unsupported format version {}", bytes[4]));
    }
    let last_seq = u64_at(bytes, 5);
    let prev = if legacy {
        NO_PREDECESSOR
    } else {
        u64_at(bytes, 13)
    };
    if prev != NO_PREDECESSOR && prev >= last_seq {
        return Err(format!(
            "link {last_seq} names predecessor {prev}, not an older one"
        ));
    }
    Ok((last_seq, (prev != NO_PREDECESSOR).then_some(prev)))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Encodes a complete base checkpoint file: header, payload, CRC — the
/// self-contained form `GET /checkpoint/latest` serves.
pub fn encode_checkpoint_file(last_seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = encode_header(last_seq, None, payload.len());
    out.extend_from_slice(payload);
    let crc = egraph_io::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// One checkpoint file that passed every check.
struct Frame {
    last_seq: u64,
    prev: Option<u64>,
    /// Where the payload sits in the file's bytes.
    payload: Range<usize>,
    /// Format 1: the payload is in `egraph-io`'s format-1 layout.
    legacy: bool,
}

/// Validates one checkpoint file's bytes — header, length and CRC.
fn check_file(bytes: &[u8]) -> std::result::Result<Frame, String> {
    let (last_seq, prev) = decode_header(bytes)?;
    let legacy = bytes[4] == LEGACY_FORMAT_VERSION;
    // Format 2's CRC covers the header too; format 1's only the payload.
    let (payload_at, payload_len, crc_from) = if legacy {
        let (len, used) = read_varint(&bytes[LEGACY_HEADER_BYTES..])
            .map_err(|err| format!("payload length: {err}"))?;
        let at = LEGACY_HEADER_BYTES + used;
        (at, len, at)
    } else {
        (CHECKPOINT_HEADER_BYTES, u64_at(bytes, 21), 0)
    };
    let framed = payload_len.checked_add(payload_at as u64 + 4);
    if framed != Some(bytes.len() as u64) {
        return Err(format!(
            "{} bytes present, payload length {payload_len}",
            bytes.len()
        ));
    }
    let end = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[end..].try_into().expect("4 crc bytes"));
    let computed = egraph_io::crc32(&bytes[crc_from..end]);
    if stored != computed {
        return Err(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ));
    }
    Ok(Frame {
        last_seq,
        prev,
        payload: payload_at..end,
        legacy,
    })
}

/// Decodes and validates self-contained checkpoint file bytes (a base of
/// the current format), returning the last covered sequence number and
/// the payload. Used by followers on bytes fetched over
/// `GET /checkpoint/latest`.
///
/// # Errors
/// A description of the first failed check, including a link (which is
/// not self-contained). Torn and corrupt files are not distinguished —
/// either way the checkpoint is unusable and the caller falls back.
pub fn decode_checkpoint_file(bytes: &[u8]) -> std::result::Result<(u64, &[u8]), String> {
    let frame = check_file(bytes)?;
    if let Some(prev) = frame.prev {
        return Err(format!("a link onto {prev} is not self-contained"));
    }
    if frame.legacy {
        return Err("a format-1 file is only read from a data directory".into());
    }
    Ok((frame.last_seq, &bytes[frame.payload]))
}

/// Durably installs a base covering segments `..= last_seq`; see
/// [`install_checkpoint`].
pub fn write_checkpoint(dir: &Path, last_seq: u64, payload: &[u8]) -> Result<u64> {
    install_checkpoint(dir, last_seq, None, payload)
}

/// Durably installs a checkpoint covering segments `..= last_seq`: a base,
/// or with `prev` a link whose payload continues that older checkpoint's.
/// Writes + fsyncs the staging `.tmp` (sites `ckpt.write` / `ckpt.fsync`),
/// renames it into place (site `ckpt.rename` models a crash in the window
/// between the two) and fsyncs the directory. Returns the installed
/// file's size in bytes.
///
/// On any failure the installed name is untouched — either the old
/// checkpoint (if one existed) or nothing; the staging file may remain as
/// inert residue that readers ignore and the next install overwrites.
pub fn install_checkpoint(
    dir: &Path,
    last_seq: u64,
    prev: Option<u64>,
    payload: &[u8],
) -> Result<u64> {
    let path = checkpoint_path(dir, last_seq);
    if let Some(prev) = prev.filter(|&prev| prev >= last_seq) {
        return corrupt(
            &path,
            format!("a link must chain onto an older checkpoint, not {prev}"),
        );
    }
    let header = encode_header(last_seq, prev, payload.len());
    let crc = Crc32::default().update(&header).update(payload).finish();
    let tmp = checkpoint_tmp_path(dir, last_seq);
    write_durable(
        &tmp,
        &[&header, payload, &crc.to_le_bytes()],
        "ckpt.write",
        "ckpt.fsync",
    )?;
    if egraph_fault::fired("ckpt.rename").is_some() {
        return io_err(
            &path,
            egraph_fault::injected_io_error("ckpt.rename", "checkpoint rename"),
        );
    }
    if let Err(source) = fs::rename(&tmp, &path) {
        return io_err(&path, source);
    }
    sync_dir(dir)?;
    Ok(payload.len() as u64 + CHECKPOINT_HEADER_BYTES as u64 + 4)
}

/// The shape of a checkpoint's chain: what decides whether the next
/// checkpoint may extend it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainSize {
    /// The base file's size in bytes.
    pub base_bytes: u64,
    /// The link files' sizes in bytes, summed.
    pub links_bytes: u64,
    /// How many links follow the base.
    pub links: u64,
}

/// Reads checkpoint `last_seq` and every ancestor back to its base (site
/// `ckpt.read`), checking each file's CRC over its bytes in place: the
/// chain's payloads concatenated, base first, and the chain's size. The
/// base's buffer becomes the result, so the bulk of the state is never
/// copied (a format-1 base is upgraded instead).
///
/// # Errors
/// [`LogError::Io`](crate::log::LogError::Io) if a file cannot be read,
/// [`LogError::Corrupt`](crate::log::LogError::Corrupt) if any validation
/// fails — the caller treats both as "this candidate is unusable, fall
/// back".
pub fn read_checkpoint_chain(dir: &Path, last_seq: u64) -> Result<(Vec<u8>, ChainSize)> {
    if egraph_fault::fired("ckpt.read").is_some() {
        return io_err(
            &checkpoint_path(dir, last_seq),
            egraph_fault::injected_io_error("ckpt.read", "checkpoint read"),
        );
    }
    let mut newest_first = Vec::new();
    let mut next = Some(last_seq);
    while let Some(seq) = next {
        let path = checkpoint_path(dir, seq);
        let bytes = fs::read(&path).or_else(|source| io_err(&path, source))?;
        let frame = check_file(&bytes).or_else(|detail| corrupt(&path, detail))?;
        if frame.last_seq != seq {
            let detail = format!("file named seq {seq} but header says {}", frame.last_seq);
            return corrupt(&path, detail);
        }
        next = frame.prev;
        newest_first.push((path, bytes, frame));
    }
    let (path, mut payload, base) = newest_first.pop().expect("a walk ends at a base");
    let mut size = ChainSize {
        base_bytes: payload.len() as u64,
        ..ChainSize::default()
    };
    if base.legacy {
        payload = egraph_io::checkpoint::upgrade_legacy_checkpoint(&payload[base.payload])
            .or_else(|err| corrupt(&path, format!("format-1 payload: {err}")))?;
    } else {
        payload.truncate(base.payload.end);
        payload.drain(..base.payload.start);
    }
    for (_, bytes, frame) in newest_first.into_iter().rev() {
        size.links_bytes += bytes.len() as u64;
        size.links += 1;
        payload.extend_from_slice(&bytes[frame.payload]);
    }
    Ok((payload, size))
}

/// The state at checkpoint `last_seq`: its chain's payloads, base first.
/// See [`read_checkpoint_chain`].
pub fn read_checkpoint(dir: &Path, last_seq: u64) -> Result<Vec<u8>> {
    read_checkpoint_chain(dir, last_seq).map(|(payload, _)| payload)
}

/// The `(last_seq, predecessor)` checkpoint `seq`'s header names, if it
/// reads back.
fn read_header(dir: &Path, seq: u64) -> Option<(u64, Option<u64>)> {
    let mut head = Vec::with_capacity(CHECKPOINT_HEADER_BYTES);
    File::open(checkpoint_path(dir, seq))
        .ok()?
        .take(CHECKPOINT_HEADER_BYTES as u64)
        .read_to_end(&mut head)
        .ok()?;
    decode_header(&head).ok()
}

/// Deletes superseded checkpoints, keeping the newest `retain` (at least
/// one) plus every ancestor their chains need, and sweeps any staging
/// `.tmp` residue older than the newest installed checkpoint. With
/// `retain >= 2`, when those all share one base, the newest checkpoint on
/// another base is kept too (with its ancestors), so no single damaged
/// file takes every kept checkpoint down.
///
/// Returns the kept tips (ascending) that segment compaction may run
/// through: compact through the first. Empty when `retain >= 2` but no
/// checkpoint on a second base exists yet — the segments are then the
/// only independent fallback, so nothing may be compacted.
///
/// Reads each checkpoint's header once. Deletion failures are not fatal
/// (an extra old checkpoint costs disk, not correctness); the directory is
/// fsynced when anything was removed.
pub fn retain_checkpoints(dir: &Path, retain: usize) -> Result<Vec<u64>> {
    let seqs = list_checkpoints(dir)?;
    // Each readable header's predecessor; a file whose header does not read
    // back (or names another seq) breaks every chain through it.
    let prev: BTreeMap<u64, Option<u64>> = seqs
        .iter()
        .filter_map(|&seq| {
            let (named, prev) = read_header(dir, seq)?;
            (named == seq).then_some((seq, prev))
        })
        .collect();
    let chain = |seq: u64| std::iter::successors(Some(seq), |at| prev.get(at).copied().flatten());
    let base = |seq: u64| chain(seq).last().filter(|at| prev.get(at) == Some(&None));

    let mut tips = seqs[seqs.len().saturating_sub(retain.max(1))..].to_vec();
    if retain >= 2 {
        let newest_base = tips.last().and_then(|&seq| base(seq));
        let independent = |seq: u64| base(seq).is_some_and(|at| Some(at) != newest_base);
        if !tips.iter().any(|&seq| independent(seq)) {
            match seqs.iter().rev().find(|&&seq| independent(seq)) {
                Some(&fallback) => tips.insert(0, fallback),
                None => tips.clear(),
            }
        }
    }
    let keep: BTreeSet<u64> = if tips.is_empty() {
        seqs.iter().copied().collect()
    } else {
        tips.iter().flat_map(|&seq| chain(seq)).collect()
    };
    let mut removed = false;
    for seq in seqs.iter().filter(|seq| !keep.contains(seq)) {
        removed |= fs::remove_file(checkpoint_path(dir, *seq)).is_ok();
    }
    if let (Some(&newest), Ok(entries)) = (seqs.last(), fs::read_dir(dir)) {
        for entry in entries.flatten() {
            if parse_checkpoint_file_name(&entry.path(), ".tmp").is_some_and(|seq| seq < newest) {
                removed |= fs::remove_file(entry.path()).is_ok();
            }
        }
    }
    if removed {
        sync_dir(dir)?;
    }
    Ok(tips)
}

/// Total on-disk size of every installed checkpoint in `dir` — the
/// `/stats` disk-accounting number. Staging residue is excluded (it is
/// invisible to recovery too).
pub fn checkpoints_bytes(dir: &Path) -> u64 {
    list_checkpoints(dir)
        .map(|seqs| {
            seqs.iter()
                .map(|&seq| file_len(&checkpoint_path(dir, seq)))
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogError;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("egraph-ckpt-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).unwrap();
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

    #[test]
    fn write_read_round_trips_and_lists() {
        let dir = TempDir::new("roundtrip");
        let written = write_checkpoint(dir.path(), 3, b"hello graph").unwrap();
        assert_eq!(written, file_len(&checkpoint_path(dir.path(), 3)));
        write_checkpoint(dir.path(), 7, b"newer graph").unwrap();
        assert_eq!(list_checkpoints(dir.path()).unwrap(), vec![3, 7]);
        assert_eq!(read_checkpoint(dir.path(), 3).unwrap(), b"hello graph");
        assert_eq!(read_checkpoint(dir.path(), 7).unwrap(), b"newer graph");
        assert_eq!(
            checkpoints_bytes(dir.path()),
            file_len(&checkpoint_path(dir.path(), 3)) + file_len(&checkpoint_path(dir.path(), 7))
        );
    }

    #[test]
    fn a_chain_reads_back_base_first_and_names_its_files() {
        let dir = TempDir::new("chain");
        let base = write_checkpoint(dir.path(), 2, b"base|").unwrap();
        let a = install_checkpoint(dir.path(), 5, Some(2), b"link a|").unwrap();
        let b = install_checkpoint(dir.path(), 9, Some(5), b"link b").unwrap();
        let (payload, size) = read_checkpoint_chain(dir.path(), 9).unwrap();
        assert_eq!(payload, b"base|link a|link b");
        let expected = ChainSize {
            base_bytes: base,
            links_bytes: a + b,
            links: 2,
        };
        assert_eq!(size, expected);
        assert_eq!(read_checkpoint(dir.path(), 5).unwrap(), b"base|link a|");
        // A link must chain onto an older checkpoint.
        assert!(install_checkpoint(dir.path(), 4, Some(4), b"x").is_err());
        // A missing or damaged ancestor makes the whole chain unusable.
        fs::remove_file(checkpoint_path(dir.path(), 2)).unwrap();
        assert!(read_checkpoint(dir.path(), 9).is_err());
        assert!(matches!(
            read_checkpoint(dir.path(), 5),
            Err(LogError::Io { .. })
        ));
    }

    #[test]
    fn every_truncation_and_every_bit_flip_is_rejected() {
        let bytes = encode_checkpoint_file(5, b"payload bytes here");
        assert_eq!(decode_checkpoint_file(&bytes).unwrap().0, 5);
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint_file(&bytes[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        // The CRC covers the header too: no single flip survives.
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert!(decode_checkpoint_file(&flipped).is_err(), "flip at {i}");
        }
        let mut extended = bytes.clone();
        extended.push(9);
        assert!(decode_checkpoint_file(&extended).is_err());
    }

    #[test]
    fn on_disk_damage_to_any_chain_file_is_caught() {
        let dir = TempDir::new("damage");
        write_checkpoint(dir.path(), 1, b"base payload").unwrap();
        install_checkpoint(dir.path(), 3, Some(1), b"link payload").unwrap();
        for seq in [1, 3] {
            let path = checkpoint_path(dir.path(), seq);
            let pristine = fs::read(&path).unwrap();
            for i in 0..pristine.len() {
                let mut flipped = pristine.clone();
                flipped[i] ^= 0x10;
                fs::write(&path, &flipped).unwrap();
                assert!(
                    read_checkpoint(dir.path(), 3).is_err(),
                    "file {seq} flip {i}"
                );
                fs::write(&path, &pristine[..i]).unwrap();
                assert!(
                    read_checkpoint(dir.path(), 3).is_err(),
                    "file {seq} cut {i}"
                );
            }
            fs::write(&path, &pristine).unwrap();
        }
        assert_eq!(
            read_checkpoint(dir.path(), 3).unwrap(),
            b"base payloadlink payload"
        );
    }

    #[test]
    fn a_name_header_seq_mismatch_is_corrupt() {
        let dir = TempDir::new("mismatch");
        let bytes = encode_checkpoint_file(9, b"x");
        fs::write(checkpoint_path(dir.path(), 2), bytes).unwrap();
        assert!(matches!(
            read_checkpoint(dir.path(), 2),
            Err(LogError::Corrupt { .. })
        ));
    }

    #[test]
    fn staging_residue_is_invisible_and_swept() {
        let dir = TempDir::new("residue");
        // A crash mid-write leaves a torn .tmp; a crash pre-rename leaves a
        // complete one. Neither is listed.
        fs::write(checkpoint_tmp_path(dir.path(), 1), b"torn").unwrap();
        fs::write(
            checkpoint_tmp_path(dir.path(), 2),
            encode_checkpoint_file(2, b"complete"),
        )
        .unwrap();
        assert!(list_checkpoints(dir.path()).unwrap().is_empty());

        write_checkpoint(dir.path(), 4, b"real").unwrap();
        // One chain and retain 2: kept, but not yet one compaction may use.
        assert!(retain_checkpoints(dir.path(), 2).unwrap().is_empty());
        assert_eq!(list_checkpoints(dir.path()).unwrap(), vec![4]);
        assert!(!checkpoint_tmp_path(dir.path(), 1).exists());
        assert!(!checkpoint_tmp_path(dir.path(), 2).exists());
    }

    #[test]
    fn retain_keeps_the_newest_n() {
        let dir = TempDir::new("retain");
        for seq in [1u64, 4, 9, 12] {
            write_checkpoint(dir.path(), seq, b"p").unwrap();
        }
        assert_eq!(retain_checkpoints(dir.path(), 2).unwrap(), vec![9, 12]);
        assert_eq!(list_checkpoints(dir.path()).unwrap(), vec![9, 12]);
        // retain 0 is clamped to 1: the newest checkpoint always survives.
        assert_eq!(retain_checkpoints(dir.path(), 0).unwrap(), vec![12]);
    }

    #[test]
    fn retain_keeps_every_ancestor_a_kept_link_needs() {
        let dir = TempDir::new("retain-chain");
        // Chain A: 1 <- 3 <- 5. Chain B: base 7 <- 9, plus a link 11 onto 3.
        write_checkpoint(dir.path(), 1, b"a").unwrap();
        install_checkpoint(dir.path(), 3, Some(1), b"b").unwrap();
        install_checkpoint(dir.path(), 5, Some(3), b"c").unwrap();
        write_checkpoint(dir.path(), 7, b"d").unwrap();
        install_checkpoint(dir.path(), 9, Some(7), b"e").unwrap();
        install_checkpoint(dir.path(), 11, Some(3), b"f").unwrap();
        assert_eq!(retain_checkpoints(dir.path(), 2).unwrap(), vec![9, 11]);
        assert_eq!(list_checkpoints(dir.path()).unwrap(), vec![1, 3, 7, 9, 11]);
        assert_eq!(read_checkpoint(dir.path(), 11).unwrap(), b"abf");
        assert_eq!(retain_checkpoints(dir.path(), 1).unwrap(), vec![11]);
        assert_eq!(list_checkpoints(dir.path()).unwrap(), vec![1, 3, 11]);
    }

    #[test]
    fn retain_keeps_a_chain_on_another_base_as_a_fallback() {
        let dir = TempDir::new("retain-fallback");
        // Chain A: 1 <- 3. Chain B: 5 <- 7 <- 9 <- 11.
        write_checkpoint(dir.path(), 1, b"a").unwrap();
        install_checkpoint(dir.path(), 3, Some(1), b"b").unwrap();
        write_checkpoint(dir.path(), 5, b"c").unwrap();
        for (seq, prev) in [(7, 5), (9, 7), (11, 9)] {
            install_checkpoint(dir.path(), seq, Some(prev), b"d").unwrap();
        }
        // The newest two share base 5, so chain A's tip stays as the
        // fallback and bounds compaction; base 1 stays as its ancestor.
        assert_eq!(retain_checkpoints(dir.path(), 2).unwrap(), vec![3, 9, 11]);
        assert_eq!(
            list_checkpoints(dir.path()).unwrap(),
            vec![1, 3, 5, 7, 9, 11]
        );
        // A damaged header breaks chain A: no fallback remains, so nothing
        // may be compacted and nothing is deleted.
        fs::write(checkpoint_path(dir.path(), 1), b"EGCP").unwrap();
        assert!(retain_checkpoints(dir.path(), 2).unwrap().is_empty());
        assert_eq!(
            list_checkpoints(dir.path()).unwrap(),
            vec![1, 3, 5, 7, 9, 11]
        );
        // Retain 1 asks for no fallback.
        assert_eq!(retain_checkpoints(dir.path(), 1).unwrap(), vec![11]);
        assert_eq!(list_checkpoints(dir.path()).unwrap(), vec![5, 7, 9, 11]);
    }
}
