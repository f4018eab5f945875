//! # egraph-io
//!
//! Input/output for evolving graphs:
//!
//! * [`edgelist`] — plain-text `src dst time` temporal edge lists (read and
//!   write), the interchange format used by public temporal-graph datasets;
//! * [`json`] — hand-rolled JSON round-tripping of graphs, plus the public
//!   [`json::Value`] model and parser other crates build wire formats on
//!   (search results have one JSON form, `egraph_query::codec`'s);
//! * [`binary`] — the compact CRC-framed binary event codec (varint
//!   lengths, exact `i64` seal labels) that `egraph-log` segment files and
//!   the replication wire are made of;
//! * [`checkpoint`] — the checkpoint payload codec: append records that
//!   each carry a sealed CSR graph's column suffixes plus its version
//!   stamp as varint bytes, the body that `egraph-log`'s CRC-framed,
//!   chained `checkpoint-<seq>.bin` files carry;
//! * [`report`] — the table/CSV formatter and the least-squares helper used
//!   by the benchmark harness to regenerate the paper's Figure 5 series.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod checkpoint;
pub mod edgelist;
pub mod json;
pub mod report;

pub use binary::{crc32, decode_record, encode_record, BinaryError, Crc32, LogRecord};
pub use checkpoint::{
    decode_checkpoint, encode_append_record, encode_checkpoint, upgrade_legacy_checkpoint,
};
pub use edgelist::{
    parse_edge_list, read_edge_list, to_edge_list_string, write_edge_list, EdgeListError,
};
pub use json::{
    graph_from_json, graph_to_json, json_u64_len, parse_value, push_json_u64, write_json_i64,
    write_json_string, write_json_u64, JsonError, U32ArrayWriter, Value,
};
pub use report::{linear_fit, SeriesTable};
