//! The checkpoint payload codec: a sealed `CsrAdjacency`'s columns
//! ([`CsrParts`] — seal labels, offset rows, neighbor pools, activeness
//! lists) plus the version stamp cached descriptors re-validate against,
//! as compact varint bytes. Framing (magic, CRC, atomic install, chaining
//! files) is `egraph-log`'s job, as segment files wrap [`crate::binary`].
//!
//! ## A payload is a sequence of append records
//!
//! A sealed snapshot never changes, so every column is append-only: the
//! state at `T` snapshots is the state at `t0` plus each column's suffix.
//! One **append record** holds those suffixes, encoded straight from
//! borrowed [`CsrColumns`]:
//!
//! ```text
//! record := varint(version) ++ varint(t0) ++ varint(num_nodes) ++ directed u8
//!           ++ varint(num_static_edges) ++ varint(T - t0) ++ zigzag(labels[t0..T])
//!           ++ out rows[t0..T] ++ pool(out_pool[out_offsets[t0][0]..])
//!           ++ [directed: in rows[t0..T] ++ pool(in_pool[in_offsets[t0][0]..])]
//!           ++ per node: varint(count) ++ its active times >= t0
//! row    := varint(len) ++ len × varint(entry − previous entry, wrapping u32)
//! pool   := varint(len) ++ len × varint(node id)
//! ```
//!
//! A record from `t0 = 0` is a whole graph ([`encode_checkpoint`]); a
//! chain's payload is its base's record followed by each link's, which
//! [`decode_checkpoint`] folds in order. A record whose `t0` is not the
//! snapshot count so far is corrupt. The version is the last record's, so
//! a payload cut at a record boundary decodes to an *earlier* state —
//! callers check the version they expect.
//!
//! Payloads written before chaining (format 1: no start field, absolute
//! offset rows, one whole graph) still load through
//! [`upgrade_legacy_checkpoint`], which re-encodes one as a base record.
//!
//! Decoding is allocation-safe against arbitrary bytes: every claimed
//! length is checked against the remaining input before reserving space, so
//! a corrupt length field yields [`BinaryError::Truncated`], not an OOM.
//! Structural validity is `CsrAdjacency::from_parts`'s to check.

use egraph_core::csr::{CsrColumns, CsrParts};
use egraph_core::ids::{NodeId, TimeIndex};

use crate::binary::{read_varint, unzigzag, write_varint, zigzag, BinaryError};

/// Encodes a whole graph and its version stamp as checkpoint payload bytes:
/// one append record from snapshot 0.
pub fn encode_checkpoint(parts: &CsrParts, version: u64) -> Vec<u8> {
    encode_append_record(parts.columns(), 0, version)
}

/// Encodes the append record that takes a graph from its first `from`
/// snapshots to all of `columns`, stamped with `version`.
///
/// # Panics
/// If `from` exceeds the number of snapshots in `columns`.
pub fn encode_append_record(columns: CsrColumns<'_>, from: usize, version: u64) -> Vec<u8> {
    let c = columns;
    let mut out = Vec::new();
    write_varint(&mut out, version);
    write_varint(&mut out, from as u64);
    write_varint(&mut out, c.num_nodes as u64);
    out.push(c.directed as u8);
    write_varint(&mut out, c.num_static_edges as u64);
    write_varint(&mut out, (c.timestamps.len() - from) as u64);
    for &label in &c.timestamps[from..] {
        write_varint(&mut out, zigzag(label));
    }
    write_side(&mut out, &c.out_offsets[from..], c.out_pool, from);
    if c.directed {
        write_side(&mut out, &c.in_offsets[from..], c.in_pool, from);
    }
    for times in c.active {
        let tail = &times[times.partition_point(|t| t.index() < from)..];
        write_varint(&mut out, tail.len() as u64);
        for &t in tail {
            write_varint(&mut out, t.0 as u64);
        }
    }
    out
}

/// Decodes checkpoint payload bytes — one or more append records — back
/// into graph columns and the last record's version stamp. The inverse of
/// [`encode_checkpoint`] and of concatenated [`encode_append_record`]s.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(CsrParts, u64), BinaryError> {
    decode(bytes, false)
}

/// Re-encodes a format-1 payload (one whole graph, no start field, absolute
/// offset rows) as the equivalent base record.
pub fn upgrade_legacy_checkpoint(bytes: &[u8]) -> Result<Vec<u8>, BinaryError> {
    let (parts, version) = decode(bytes, true)?;
    Ok(encode_checkpoint(&parts, version))
}

/// Folds a payload's records; a format-1 payload holds exactly one.
fn decode(bytes: &[u8], legacy: bool) -> Result<(CsrParts, u64), BinaryError> {
    let mut r = Reader {
        bytes,
        pos: 0,
        legacy,
    };
    let mut parts = CsrParts::default();
    let mut version = r.record(&mut parts, true)?;
    while r.remaining() > 0 {
        if legacy {
            let trailing = format!("checkpoint payload has {} trailing bytes", r.remaining());
            return Err(BinaryError::Corrupt(trailing));
        }
        version = r.record(&mut parts, false)?;
    }
    Ok((parts, version))
}

/// One side's offset rows (delta-coded) and the pool suffix they address —
/// all of the pool for a record from snapshot 0.
fn write_side(out: &mut Vec<u8>, rows: &[Vec<u32>], pool: &[NodeId], from: usize) {
    for row in rows {
        write_varint(out, row.len() as u64);
        let mut previous = 0u32;
        for &offset in row {
            write_varint(out, offset.wrapping_sub(previous) as u64);
            previous = offset;
        }
    }
    let start = if from == 0 {
        0
    } else {
        rows.first().map_or(pool.len(), |row| row[0] as usize)
    };
    write_varint(out, (pool.len() - start) as u64);
    for &node in &pool[start..] {
        write_varint(out, node.0 as u64);
    }
}

/// A cursor over the payload bytes with length-sanity helpers.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Format 1: no start field, absolute offsets.
    legacy: bool,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn varint(&mut self) -> Result<u64, BinaryError> {
        let (value, used) = read_varint(&self.bytes[self.pos..])?;
        self.pos += used;
        Ok(value)
    }

    fn byte(&mut self) -> Result<u8, BinaryError> {
        let b = *self.bytes.get(self.pos).ok_or(BinaryError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self, what: &str) -> Result<u32, BinaryError> {
        let value = self.varint()?;
        u32::try_from(value)
            .map_err(|_| BinaryError::Corrupt(format!("checkpoint {what} {value} exceeds u32")))
    }

    /// A length field that must fit in `usize`.
    fn length(&mut self, what: &str) -> Result<usize, BinaryError> {
        let value = self.varint()?;
        usize::try_from(value)
            .map_err(|_| BinaryError::Corrupt(format!("checkpoint {what} {value} exceeds usize")))
    }

    /// A length field counting items that each occupy at least one byte of
    /// the remaining input — a claim larger than that is a truncation (or a
    /// corrupt length), caught *before* any allocation.
    fn bounded_length(&mut self, what: &str) -> Result<usize, BinaryError> {
        let len = self.length(what)?;
        if len > self.remaining() {
            return Err(BinaryError::Truncated);
        }
        Ok(len)
    }

    /// Appends one record's suffixes onto `parts`, returning its version.
    fn record(&mut self, parts: &mut CsrParts, first: bool) -> Result<u64, BinaryError> {
        let corrupt = |detail: String| Err(BinaryError::Corrupt(format!("checkpoint {detail}")));
        let version = self.varint()?;
        let start = if self.legacy {
            0
        } else {
            self.length("start snapshot")?
        };
        if start != parts.timestamps.len() {
            return corrupt(format!(
                "record starts at snapshot {start} but the records before it end at {}",
                parts.timestamps.len()
            ));
        }
        // Every node costs at least its active-count byte further on.
        let num_nodes = self.bounded_length("num_nodes")?;
        let directed = match self.byte()? {
            0 => false,
            1 => true,
            other => return corrupt(format!("directed flag is {other}, not 0 or 1")),
        };
        if !first && (directed != parts.directed || num_nodes < parts.num_nodes) {
            return corrupt(format!(
                "record (directed {directed}, {num_nodes} nodes) contradicts the records \
                 before it (directed {}, {} nodes)",
                parts.directed, parts.num_nodes
            ));
        }
        parts.num_nodes = num_nodes;
        parts.directed = directed;
        parts.num_static_edges = self.length("num_static_edges")?;
        let snapshots = self.bounded_length("snapshot count")?;
        parts.timestamps.reserve(snapshots);
        for _ in 0..snapshots {
            parts.timestamps.push(unzigzag(self.varint()?));
        }
        self.side(&mut parts.out_offsets, &mut parts.out_pool, snapshots)?;
        if directed {
            self.side(&mut parts.in_offsets, &mut parts.in_pool, snapshots)?;
        }
        parts.active.resize(num_nodes, Vec::new());
        for times in &mut parts.active {
            let len = self.bounded_length("active list length")?;
            times.reserve(len);
            for _ in 0..len {
                times.push(TimeIndex(self.u32("active time index")?));
            }
        }
        Ok(version)
    }

    fn side(
        &mut self,
        rows: &mut Vec<Vec<u32>>,
        pool: &mut Vec<NodeId>,
        snapshots: usize,
    ) -> Result<(), BinaryError> {
        rows.reserve(snapshots);
        for _ in 0..snapshots {
            let len = self.bounded_length("offset row length")?;
            let mut row = Vec::with_capacity(len);
            let mut offset = 0u32;
            for _ in 0..len {
                let previous = if self.legacy { 0 } else { offset };
                offset = previous.wrapping_add(self.u32("offset")?);
                row.push(offset);
            }
            rows.push(row);
        }
        let len = self.bounded_length("pool length")?;
        pool.reserve(len);
        for _ in 0..len {
            pool.push(NodeId(self.u32("pool entry")?));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::csr::CsrAdjacency;
    use egraph_core::graph::EvolvingGraph;
    use egraph_core::ids::NodeId;

    fn fixture(directed: bool) -> CsrAdjacency {
        let mut csr = CsrAdjacency::new(4, directed);
        csr.append_snapshot(-3, &[(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))])
            .unwrap();
        csr.grow_nodes(6);
        csr.append_snapshot(9, &[(NodeId(4), NodeId(5)), (NodeId(0), NodeId(1))])
            .unwrap();
        csr
    }

    #[test]
    fn round_trips_directed_and_undirected_graphs() {
        for directed in [true, false] {
            let csr = fixture(directed);
            let parts = csr.to_parts();
            let bytes = encode_checkpoint(&parts, 2);
            let (decoded, version) = decode_checkpoint(&bytes).unwrap();
            assert_eq!(version, 2);
            assert_eq!(decoded, parts, "directed={directed}");
            // The decoded columns pass full structural re-validation.
            CsrAdjacency::from_parts(decoded).unwrap();
        }
    }

    #[test]
    fn round_trips_an_empty_graph() {
        let csr = CsrAdjacency::new(0, true);
        let bytes = encode_checkpoint(&csr.to_parts(), 0);
        let (decoded, version) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(version, 0);
        assert_eq!(decoded, csr.to_parts());
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_checkpoint(&fixture(true).to_parts(), 2);
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_and_bad_flags_are_rejected() {
        // Bytes after a record start another record: a lone trailing byte
        // is a truncated one, a whole bogus record is corrupt.
        let mut bytes = encode_checkpoint(&fixture(false).to_parts(), 1);
        bytes.push(0);
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(BinaryError::Truncated)
        ));
        bytes.extend([9, 0, 0, 0, 0, 0]);
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(BinaryError::Corrupt(_))
        ));

        // Flip every byte in turn: decode must never panic, and must never
        // hand back the original payload.
        let bytes = encode_checkpoint(&fixture(true).to_parts(), 1);
        let parts = fixture(true).to_parts();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            if let Ok((decoded, version)) = decode_checkpoint(&flipped) {
                assert!(
                    decoded != parts || version != 1,
                    "flipping byte {i} must not decode to the same payload"
                );
            }
        }
    }

    #[test]
    fn absurd_length_claims_fail_without_allocating() {
        // varint 2^60 as a claimed snapshot count over a tiny buffer.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 1); // version
        write_varint(&mut bytes, 0); // start snapshot
        write_varint(&mut bytes, 4); // num_nodes
        bytes.push(1); // directed
        write_varint(&mut bytes, 0); // num_static_edges
        write_varint(&mut bytes, 1u64 << 60); // snapshot count: absurd
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(BinaryError::Truncated)
        ));
    }

    /// A seeded history with a `grow_nodes` midway, and the snapshot
    /// counts at which a checkpoint chain takes its links.
    fn history(directed: bool) -> Vec<CsrAdjacency> {
        let mut csr = CsrAdjacency::new(5, directed);
        let mut states = vec![csr.clone()];
        let mut x = 7u32;
        for label in 0..12i64 {
            if label == 6 {
                csr.grow_nodes(9);
            }
            let n = csr.num_nodes() as u32;
            let edges: Vec<_> = (0..label as u32 % 4 + 1)
                .map(|i| {
                    x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                    let u = (x >> 8) % n;
                    (NodeId(u), NodeId((u + 1 + i % (n - 1)) % n))
                })
                .collect();
            csr.append_snapshot(label * 3 - 5, &edges).unwrap();
            states.push(csr.clone());
        }
        states
    }

    #[test]
    fn a_chain_of_append_records_folds_to_the_live_columns() {
        for directed in [true, false] {
            let states = history(directed);
            // Links at irregular points, including an empty one (no new
            // snapshot) and the grow between snapshots 6 and 7.
            let mut payload = encode_checkpoint(&states[2].to_parts(), 2);
            let mut at = 2;
            for next in [2, 5, 7, 8, 12] {
                payload.extend(encode_append_record(
                    states[next].columns(),
                    at,
                    next as u64,
                ));
                at = next;
                let (decoded, version) = decode_checkpoint(&payload).unwrap();
                assert_eq!(version, next as u64);
                assert_eq!(
                    decoded,
                    states[next].to_parts(),
                    "directed={directed} at {next}"
                );
                CsrAdjacency::from_parts(decoded).unwrap();
            }
        }
    }

    #[test]
    fn a_record_that_does_not_start_where_the_chain_ends_is_corrupt() {
        let states = history(true);
        let base = encode_checkpoint(&states[4].to_parts(), 4);
        for from in [0, 3, 5] {
            let mut payload = base.clone();
            payload.extend(encode_append_record(states[8].columns(), from, 8));
            assert!(
                matches!(decode_checkpoint(&payload), Err(BinaryError::Corrupt(_))),
                "a link from snapshot {from} onto a 4-snapshot base"
            );
        }
        // Directedness may not change along a chain.
        let mut payload = base;
        payload.extend(encode_append_record(history(false)[8].columns(), 4, 8));
        assert!(matches!(
            decode_checkpoint(&payload),
            Err(BinaryError::Corrupt(_))
        ));
    }
}
