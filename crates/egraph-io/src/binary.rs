//! The compact binary event codec behind the durable segment log.
//!
//! JSON ([`crate::json`]) is the workspace's *conversation* format; this
//! module is its *storage* format: the append-only [`LogRecord`] vocabulary
//! an `egraph-log` segment file is made of, encoded as
//!
//! ```text
//! frame := varint(payload_len) ++ payload ++ crc32(payload) as u32 LE
//! ```
//!
//! * **varint lengths** — unsigned LEB128, so the common two-byte insert
//!   record pays one length byte, not four;
//! * **exact `i64` labels** — seal labels are zigzag-varint encoded, so
//!   every `i64` (negative, `i64::MIN`, `i64::MAX`) round-trips exactly,
//!   with no float detour anywhere;
//! * **per-record CRC32** — each frame carries the IEEE CRC32 of its
//!   payload, so a torn or bit-flipped record is *detected* at read time
//!   instead of silently replaying garbage into a recovered graph.
//!
//! Decoding distinguishes [`BinaryError::Truncated`] (the bytes stop before
//! the frame does — what a crash mid-append leaves behind) from
//! [`BinaryError::Corrupt`] (the bytes are all there but wrong — CRC
//! mismatch, unknown tag, trailing garbage), because the two demand
//! different recovery behavior: a truncated *tail* is expected after a
//! crash and gets truncated away, while corruption in sealed history must
//! fail loudly.

use std::fmt;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), slicing-by-8, tables built at compile time.
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[k][i]` is
/// the CRC of byte `i` followed by `k` zero bytes, so eight table lookups
/// fold eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// An incremental IEEE CRC32: feeding a buffer in pieces yields the same
/// value as [`crc32`] over their concatenation, so a framed file can be
/// checksummed without first copying its parts into one buffer.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(!0)
    }
}

impl Crc32 {
    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let t = &CRC32_TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.0 = crc;
        self
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// The IEEE CRC32 of `bytes` (the polynomial `zlib`, PNG and Ethernet use).
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::default().update(bytes).finish()
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Longest legal LEB128 encoding of a `u64` (10 × 7 bits ≥ 64 bits).
const MAX_VARINT_BYTES: usize = 10;

/// Appends `value` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from the front of `bytes`, returning the
/// value and how many bytes it consumed.
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), BinaryError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in bytes.iter().take(MAX_VARINT_BYTES).enumerate() {
        let low = (byte & 0x7F) as u64;
        value |= low
            .checked_shl(shift)
            .filter(|_| shift < 64 && (shift != 63 || low <= 1))
            .ok_or_else(|| BinaryError::Corrupt("varint overflows u64".into()))?;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    if bytes.len() < MAX_VARINT_BYTES {
        Err(BinaryError::Truncated)
    } else {
        Err(BinaryError::Corrupt("varint runs past 10 bytes".into()))
    }
}

/// Zigzag-maps an `i64` to a `u64` so small-magnitude values (of either
/// sign) stay short under LEB128.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One record of the durable event log — the wire-level twin of
/// `egraph-stream`'s `EdgeEvent` vocabulary, plus the two records that exist
/// only on disk: [`LogRecord::Init`] (the graph's birth certificate, stored
/// in the log manifest) and [`LogRecord::Seal`] (the segment terminator
/// carrying the snapshot's exact `i64` time label).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// The log's opening declaration: initial node-universe size and
    /// directedness. Lives in the manifest, never inside a segment.
    Init {
        /// Node-universe size at creation.
        num_nodes: u64,
        /// Whether edges are directed.
        directed: bool,
    },
    /// Insert the edge `(src, dst)` into the open snapshot.
    Insert {
        /// Source end point.
        src: u32,
        /// Destination end point.
        dst: u32,
    },
    /// Insert `(src, dst)` unless the open snapshot already holds it.
    InsertUnique {
        /// Source end point.
        src: u32,
        /// Destination end point.
        dst: u32,
    },
    /// Grow the node universe to at least `num_nodes`.
    GrowNodes {
        /// Requested minimum universe size.
        num_nodes: u64,
    },
    /// Seal the open snapshot under `label` — the record that terminates a
    /// segment; durability is acknowledged only after it is on disk.
    Seal {
        /// The snapshot's time label, exact.
        label: i64,
    },
}

const TAG_INIT: u8 = 0;
const TAG_INSERT: u8 = 1;
const TAG_INSERT_UNIQUE: u8 = 2;
const TAG_GROW_NODES: u8 = 3;
const TAG_SEAL: u8 = 4;

/// Why a binary decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The input ends before the frame does — the shape a crash mid-append
    /// leaves at the tail of a segment.
    Truncated,
    /// The input is structurally present but wrong: CRC mismatch, unknown
    /// record tag, payload length disagreeing with its contents.
    Corrupt(String),
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::Truncated => write!(f, "binary record truncated"),
            BinaryError::Corrupt(detail) => write!(f, "binary record corrupt: {detail}"),
        }
    }
}

impl std::error::Error for BinaryError {}

/// Appends `record` to `out` as one CRC-framed record.
pub fn encode_record(record: &LogRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(12);
    match *record {
        LogRecord::Init {
            num_nodes,
            directed,
        } => {
            payload.push(TAG_INIT);
            write_varint(&mut payload, num_nodes);
            payload.push(directed as u8);
        }
        LogRecord::Insert { src, dst } => {
            payload.push(TAG_INSERT);
            write_varint(&mut payload, src as u64);
            write_varint(&mut payload, dst as u64);
        }
        LogRecord::InsertUnique { src, dst } => {
            payload.push(TAG_INSERT_UNIQUE);
            write_varint(&mut payload, src as u64);
            write_varint(&mut payload, dst as u64);
        }
        LogRecord::GrowNodes { num_nodes } => {
            payload.push(TAG_GROW_NODES);
            write_varint(&mut payload, num_nodes);
        }
        LogRecord::Seal { label } => {
            payload.push(TAG_SEAL);
            write_varint(&mut payload, zigzag(label));
        }
    }
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
}

/// Decodes one CRC-framed record from the front of `bytes`, returning the
/// record and the total frame length consumed.
///
/// # Errors
/// [`BinaryError::Truncated`] if `bytes` ends inside the frame;
/// [`BinaryError::Corrupt`] on CRC mismatch, unknown tag, or a payload that
/// does not parse exactly to its declared length.
pub fn decode_record(bytes: &[u8]) -> Result<(LogRecord, usize), BinaryError> {
    if bytes.is_empty() {
        return Err(BinaryError::Truncated);
    }
    let (len, len_bytes) = read_varint(bytes)?;
    let len = usize::try_from(len).map_err(|_| BinaryError::Corrupt("payload length".into()))?;
    let frame_len = len_bytes
        .checked_add(len)
        .and_then(|n| n.checked_add(4))
        .ok_or_else(|| BinaryError::Corrupt("payload length overflows".into()))?;
    if bytes.len() < frame_len {
        return Err(BinaryError::Truncated);
    }
    let payload = &bytes[len_bytes..len_bytes + len];
    let stored_crc = u32::from_le_bytes(
        bytes[len_bytes + len..frame_len]
            .try_into()
            .expect("slice is exactly 4 bytes"),
    );
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(BinaryError::Corrupt(format!(
            "crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    let record = decode_payload(payload)?;
    Ok((record, frame_len))
}

/// Decodes a record payload (tag + fields), requiring it to be consumed
/// exactly.
fn decode_payload(payload: &[u8]) -> Result<LogRecord, BinaryError> {
    // A short payload inside a CRC-validated frame is corruption, not
    // truncation: the frame's declared length was all there.
    let as_corrupt = |err| match err {
        BinaryError::Truncated => BinaryError::Corrupt("payload shorter than its fields".into()),
        corrupt => corrupt,
    };
    let (&tag, mut rest) = payload
        .split_first()
        .ok_or_else(|| BinaryError::Corrupt("empty payload".into()))?;
    let read_u64 = |rest: &mut &[u8]| -> Result<u64, BinaryError> {
        let (value, n) = read_varint(rest).map_err(as_corrupt)?;
        *rest = &rest[n..];
        Ok(value)
    };
    let record = match tag {
        TAG_INIT => {
            let num_nodes = read_u64(&mut rest)?;
            let directed = match rest.split_first() {
                Some((&0, tail)) => {
                    rest = tail;
                    false
                }
                Some((&1, tail)) => {
                    rest = tail;
                    true
                }
                Some((&other, _)) => {
                    return Err(BinaryError::Corrupt(format!("bad directed flag {other}")))
                }
                None => return Err(BinaryError::Corrupt("init missing directed flag".into())),
            };
            LogRecord::Init {
                num_nodes,
                directed,
            }
        }
        TAG_INSERT | TAG_INSERT_UNIQUE => {
            let src = read_u64(&mut rest)?;
            let dst = read_u64(&mut rest)?;
            let narrow = |v: u64| {
                u32::try_from(v).map_err(|_| BinaryError::Corrupt(format!("node id {v} > u32")))
            };
            let (src, dst) = (narrow(src)?, narrow(dst)?);
            if tag == TAG_INSERT {
                LogRecord::Insert { src, dst }
            } else {
                LogRecord::InsertUnique { src, dst }
            }
        }
        TAG_GROW_NODES => LogRecord::GrowNodes {
            num_nodes: read_u64(&mut rest)?,
        },
        TAG_SEAL => LogRecord::Seal {
            label: unzigzag(read_u64(&mut rest)?),
        },
        other => return Err(BinaryError::Corrupt(format!("unknown record tag {other}"))),
    };
    if !rest.is_empty() {
        return Err(BinaryError::Corrupt(format!(
            "{} trailing payload bytes",
            rest.len()
        )));
    }
    Ok(record)
}

/// Encodes `record` into a fresh buffer (convenience over
/// [`encode_record`]).
pub fn record_to_bytes(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_record(record, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant, with the extremes the format promises to carry
    /// exactly: `i64::MIN`/`MAX` and negative labels, `u32::MAX` node ids,
    /// varint length boundaries (0, 127, 128, u64::MAX).
    fn sweep() -> Vec<LogRecord> {
        let mut records = vec![
            LogRecord::Init {
                num_nodes: 0,
                directed: false,
            },
            LogRecord::Init {
                num_nodes: u64::MAX,
                directed: true,
            },
            LogRecord::Insert { src: 0, dst: 1 },
            LogRecord::Insert {
                src: u32::MAX,
                dst: u32::MAX - 1,
            },
            LogRecord::InsertUnique { src: 127, dst: 128 },
            LogRecord::InsertUnique {
                src: 16_383,
                dst: 16_384,
            },
            LogRecord::GrowNodes { num_nodes: 0 },
            LogRecord::GrowNodes { num_nodes: 1 << 35 },
        ];
        for label in [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            -65,
            i64::from(i32::MAX),
            i64::from(i32::MIN),
            i64::MAX,
            i64::MIN,
        ] {
            records.push(LogRecord::Seal { label });
        }
        records
    }

    #[test]
    fn every_variant_round_trips() {
        for record in sweep() {
            let bytes = record_to_bytes(&record);
            let (decoded, consumed) = decode_record(&bytes).unwrap();
            assert_eq!(decoded, record);
            assert_eq!(consumed, bytes.len(), "{record:?}: exact consumption");
        }
    }

    #[test]
    fn a_stream_of_records_decodes_in_order() {
        let records = sweep();
        let mut wire = Vec::new();
        for record in &records {
            encode_record(record, &mut wire);
        }
        let mut offset = 0;
        for expected in &records {
            let (decoded, n) = decode_record(&wire[offset..]).unwrap();
            assert_eq!(decoded, *expected);
            offset += n;
        }
        assert_eq!(offset, wire.len());
    }

    #[test]
    fn zigzag_is_exact_on_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, -2, 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small on the wire.
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn every_truncation_is_truncated_never_corrupt_or_wrong() {
        // Cutting a valid frame at *any* interior byte must report
        // Truncated — the signal recovery uses to stop at a torn tail.
        for record in sweep() {
            let bytes = record_to_bytes(&record);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_record(&bytes[..cut]),
                    Err(BinaryError::Truncated),
                    "{record:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_crc() {
        let record = LogRecord::Seal { label: -42 };
        let clean = record_to_bytes(&record);
        for i in 0..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[i] ^= 1 << bit;
                // Flips in the length byte may declare a longer frame
                // (reads as truncated) — anything that decodes must not
                // silently produce a *different valid* record without
                // tripping the CRC. A flip that produces the original
                // frame is impossible (we flipped exactly one bit).
                if let Ok((decoded, _)) = decode_record(&dirty) {
                    panic!("flip {i}.{bit} decoded to {decoded:?} undetected")
                }
            }
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflowing_encodings() {
        // 11 continuation bytes: runs past the 10-byte bound.
        let overlong = [0x80u8; 11];
        assert!(matches!(
            read_varint(&overlong),
            Err(BinaryError::Corrupt(_))
        ));
        // 10 bytes whose top byte overflows 64 bits.
        let mut overflow = [0xFFu8; 10];
        overflow[9] = 0x7F;
        assert!(matches!(
            read_varint(&overflow),
            Err(BinaryError::Corrupt(_))
        ));
        // A continuation byte then EOF: truncated, not corrupt.
        assert_eq!(read_varint(&[0x80]), Err(BinaryError::Truncated));
        // u64::MAX itself round-trips.
        let mut wire = Vec::new();
        write_varint(&mut wire, u64::MAX);
        assert_eq!(read_varint(&wire).unwrap(), (u64::MAX, 10));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_corrupt() {
        // Hand-build a frame with an unknown tag but a valid CRC.
        let payload = [9u8, 0, 0];
        let mut wire = Vec::new();
        write_varint(&mut wire, payload.len() as u64);
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(decode_record(&wire), Err(BinaryError::Corrupt(_))));

        // A valid record payload with one stray trailing byte, re-framed.
        let mut payload = vec![TAG_GROW_NODES];
        write_varint(&mut payload, 5);
        payload.push(0xAB);
        let mut wire = Vec::new();
        write_varint(&mut wire, payload.len() as u64);
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(decode_record(&wire), Err(BinaryError::Corrupt(_))));
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table fold — the oracle slicing-by-8 must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &byte| {
            (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
        })
    }

    #[test]
    fn slicing_by_8_agrees_with_the_bytewise_fold() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..(1 << 20) + 13)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        // Every short length at every alignment, then one large buffer.
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(crc32(&buffer[3..]), crc32_bytewise(&buffer[3..]));
        // Incremental updates split anywhere equal the one-shot value.
        for split in [0, 1, 7, 8, 9, 1000, buffer.len()] {
            let (head, tail) = buffer.split_at(split);
            assert_eq!(
                Crc32::default().update(head).update(tail).finish(),
                crc32(&buffer),
                "split {split}"
            );
        }
    }

    #[test]
    fn insert_frames_stay_compact() {
        // The common case — small node ids — must stay small on disk:
        // 1 length byte + tag + two 1-byte varints + 4 CRC bytes.
        let bytes = record_to_bytes(&LogRecord::Insert { src: 3, dst: 9 });
        assert_eq!(bytes.len(), 8);
    }
}
