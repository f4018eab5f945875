//! JSON codecs for [`QueryDescriptor`] and [`SearchResult`] — the wire
//! format of the `egraph-serve` HTTP layer.
//!
//! A client ships a query as a descriptor document; the server decodes it,
//! rebuilds an executable [`Search`](crate::Search) with
//! [`QueryDescriptor::to_search`], runs it through whatever execution layer
//! it fronts, and ships the [`SearchResult`] back as a kind-tagged result
//! document. Both directions round-trip exactly:
//! `descriptor_from_json(&descriptor_to_json(d)) == d`, and a decoded result
//! answers every accessor identically to the original.
//!
//! ## Descriptor document
//!
//! ```json
//! {
//!   "sources": [[0, 0], [3, 1]],
//!   "strategy": "serial",
//!   "reverse": false,
//!   "window": {"start": 1, "end": 4},
//!   "with_parents": false
//! }
//! ```
//!
//! `strategy` is one of `"serial"`, `"parallel"`, `"algebraic"`,
//! `"foremost"`, `"shared_frontier"` (default `"serial"`); `reverse` and
//! `with_parents` default to `false`; `window` omitted (or `null`) means the
//! full graph, `{"start": s}` an open end, `{"empty": true}` the statically
//! empty window. Non-canonical windows — a `start` of `0` (which the builder
//! canonicalises away) or an inconsistent `empty` bit — are rejected rather
//! than decoded into a descriptor that would never equal a builder-produced
//! one, silently missing every cache entry.
//!
//! ## Result document
//!
//! Kind-tagged on the payload: `"hops"` carries per-source distance maps
//! (with optional BFS-tree parents), `"arrivals"` per-source foremost
//! tables, `"shared"` the single nearest-source map. All coordinates are in
//! the queried graph's snapshot indices, exactly as [`SearchResult`] stores
//! them.
//!
//! The wire contract is the exact bytes, not just the document's meaning:
//! compact (no whitespace anywhere), fields in the fixed order below,
//! entries in flat-index (time-major) order, and `"parents"` present only
//! when the map recorded at least one parent link. Any two encoders of the
//! same result produce identical bytes, so bodies can be compared and
//! cached byte for byte.
//!
//! ```text
//! {"kind":"hops","reversed":false,"num_nodes":N,"num_timestamps":T,
//!  "maps":[{"root":[n,t],"reached":[[n,t,d],...],"parents":[[n,t,pn,pt],...]},...]}
//! {"kind":"arrivals","reversed":false,"tables":[{"root":[n,t],"arrivals":[t|null,...]},...]}
//! {"kind":"shared","reversed":false,"num_nodes":N,"num_timestamps":T,
//!  "sources":[[n,t],...],"reached":[[n,t,d,source_index],...]}
//! ```
//!
//! (Shown wrapped; each document is one line.) [`search_result_to_json`]
//! streams this straight from each payload's dense storage into one
//! buffer, reserved once from [`search_result_json_capacity`], an upper
//! bound taken from the result's dimensions; [`search_result_to_value`]
//! builds the same document as a [`Value`] and is the reference it is
//! tested against.

use egraph_core::distance::{DistanceMap, MultiSourceMap};
use egraph_core::foremost::ForemostResult;
use egraph_core::ids::{TemporalNode, TimeIndex};
use egraph_io::json::{JsonError, Object, Value};
use egraph_io::{push_json_u64, U32ArrayWriter};

use crate::builder::{Strategy, WindowSpec};
use crate::descriptor::QueryDescriptor;
use crate::result::SearchResult;

/// Result alias matching `egraph-io`'s JSON error type.
pub type Result<T> = std::result::Result<T, JsonError>;

fn shape(msg: impl Into<String>) -> JsonError {
    JsonError::Shape(msg.into())
}

// ---------------------------------------------------------------------------
// Descriptor ⇄ JSON
// ---------------------------------------------------------------------------

/// The wire name of a strategy (see the module docs).
fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Serial => "serial",
        Strategy::Parallel => "parallel",
        Strategy::Algebraic => "algebraic",
        Strategy::Foremost => "foremost",
        Strategy::SharedFrontier => "shared_frontier",
    }
}

fn strategy_from_name(name: &str) -> Result<Strategy> {
    Ok(match name {
        "serial" => Strategy::Serial,
        "parallel" => Strategy::Parallel,
        "algebraic" => Strategy::Algebraic,
        "foremost" => Strategy::Foremost,
        "shared_frontier" => Strategy::SharedFrontier,
        other => {
            return Err(shape(format!(
                "unknown strategy \"{other}\" (expected serial | parallel | algebraic | \
                 foremost | shared_frontier)"
            )))
        }
    })
}

fn temporal_node_to_value(tn: TemporalNode) -> Value {
    Value::Array(vec![
        Value::Int(tn.node.0 as i64),
        Value::Int(tn.time.0 as i64),
    ])
}

fn temporal_node_from_value(value: &Value, what: &str) -> Result<TemporalNode> {
    let pair = value.as_array(what)?;
    if pair.len() != 2 {
        return Err(shape(format!("{what} must be a [node, time] pair")));
    }
    Ok(TemporalNode::from_raw(
        pair[0].as_u32(what)?,
        pair[1].as_u32(what)?,
    ))
}

/// Encodes a descriptor as a [`Value`] (for embedding in larger documents —
/// subscription frames, request envelopes).
pub fn descriptor_to_value(descriptor: &QueryDescriptor) -> Value {
    let mut entries: Vec<(String, Value)> = Vec::new();
    entries.push((
        "sources".into(),
        Value::Array(
            descriptor
                .sources()
                .iter()
                .map(|&tn| temporal_node_to_value(tn))
                .collect(),
        ),
    ));
    entries.push((
        "strategy".into(),
        Value::String(strategy_name(descriptor.strategy()).into()),
    ));
    if descriptor.effective_reverse() {
        entries.push(("reverse".into(), Value::Bool(true)));
    }
    let window = descriptor.window();
    if window != WindowSpec::full() {
        let mut w: Vec<(String, Value)> = Vec::new();
        if let Some(s) = window.start_bound() {
            w.push(("start".into(), Value::Int(s as i64)));
        }
        if let Some(e) = window.end_bound() {
            w.push(("end".into(), Value::Int(e as i64)));
        }
        if window.is_empty_spec() {
            w.push(("empty".into(), Value::Bool(true)));
        }
        entries.push(("window".into(), Value::Object(w)));
    }
    if descriptor.with_parents() {
        entries.push(("with_parents".into(), Value::Bool(true)));
    }
    Value::Object(entries)
}

/// Encodes a descriptor as a JSON string — the `/query` request body.
pub fn descriptor_to_json(descriptor: &QueryDescriptor) -> String {
    descriptor_to_value(descriptor).to_json()
}

/// Decodes a descriptor from a [`Value`]. See the module docs for the
/// accepted document shape and defaults.
pub fn descriptor_from_value(value: &Value) -> Result<QueryDescriptor> {
    let obj = value.as_object("query descriptor")?;
    let sources = obj
        .get("sources")?
        .as_array("sources")?
        .iter()
        .map(|v| temporal_node_from_value(v, "source"))
        .collect::<Result<Vec<_>>>()?;
    if sources.is_empty() {
        return Err(shape("sources must be non-empty"));
    }
    let strategy = match obj.get_opt("strategy") {
        Some(v) => strategy_from_name(v.as_str("strategy")?)?,
        None => Strategy::Serial,
    };
    let reverse = match obj.get_opt("reverse") {
        Some(v) => v.as_bool("reverse")?,
        None => false,
    };
    let with_parents = match obj.get_opt("with_parents") {
        Some(v) => v.as_bool("with_parents")?,
        None => false,
    };
    let window = match obj.get_opt("window") {
        None => WindowSpec::full(),
        Some(v) => {
            let w = v.as_object("window")?;
            let start = w
                .get_opt("start")
                .map(|v| v.as_u32("window start"))
                .transpose()?;
            let end = w
                .get_opt("end")
                .map(|v| v.as_u32("window end"))
                .transpose()?;
            let empty = match w.get_opt("empty") {
                Some(v) => v.as_bool("window empty")?,
                None => false,
            };
            WindowSpec::from_parts(start, end, empty).ok_or_else(|| {
                shape(
                    "non-canonical window: a start of 0 must be omitted, and \"empty\" \
                     must match the bounds",
                )
            })?
        }
    };
    if with_parents && strategy != Strategy::Serial {
        return Err(shape(
            "with_parents requires the serial strategy (parents force it anyway; \
             send \"serial\" or omit the strategy)",
        ));
    }
    // Rebuild through the builder so every canonicalisation rule (and any
    // future one) applies — the decoded descriptor must be bit-identical to
    // what a local builder would produce for the same query.
    let mut search = crate::Search::from_sources(sources)
        .strategy(strategy)
        .window(window);
    if reverse {
        search = search.reverse();
    }
    if with_parents {
        search = search.with_parents();
    }
    Ok(search.descriptor())
}

/// Decodes a descriptor from a JSON string.
pub fn descriptor_from_json(json: &str) -> Result<QueryDescriptor> {
    descriptor_from_value(&egraph_io::json::parse_value(json)?)
}

// ---------------------------------------------------------------------------
// SearchResult ⇄ JSON
// ---------------------------------------------------------------------------

fn optional_time_to_value(t: Option<TimeIndex>) -> Value {
    match t {
        Some(t) => Value::Int(t.0 as i64),
        None => Value::Null,
    }
}

fn distance_map_to_value(map: &DistanceMap) -> Value {
    let mut entries: Vec<(String, Value)> = vec![
        ("root".into(), temporal_node_to_value(map.root())),
        (
            "reached".into(),
            Value::Array(
                map.reached()
                    .into_iter()
                    .map(|(tn, d)| {
                        Value::Array(vec![
                            Value::Int(tn.node.0 as i64),
                            Value::Int(tn.time.0 as i64),
                            Value::Int(d as i64),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    // Parents are not flagged on the map itself; probe for them. A map
    // built with parents gives every reached non-root node a parent, one
    // built without gives none, so any Some() means "recorded".
    let parents: Vec<Value> = map
        .reached()
        .into_iter()
        .filter_map(|(tn, _)| map.parent(tn).map(|p| (tn, p)))
        .map(|(tn, p)| {
            Value::Array(vec![
                Value::Int(tn.node.0 as i64),
                Value::Int(tn.time.0 as i64),
                Value::Int(p.node.0 as i64),
                Value::Int(p.time.0 as i64),
            ])
        })
        .collect();
    if !parents.is_empty() {
        entries.push(("parents".into(), Value::Array(parents)));
    }
    Value::Object(entries)
}

fn distance_map_from_value(
    value: &Value,
    num_nodes: usize,
    num_timestamps: usize,
) -> Result<DistanceMap> {
    let obj = value.as_object("distance map")?;
    let root = temporal_node_from_value(obj.get("root")?, "map root")?;
    check_coords(root, num_nodes, num_timestamps)?;
    let reached = obj
        .get("reached")?
        .as_array("reached")?
        .iter()
        .map(|v| {
            let triple = v.as_array("reached entry")?;
            if triple.len() != 3 {
                return Err(shape("reached entries must be [node, time, distance]"));
            }
            Ok((
                TemporalNode::from_raw(
                    triple[0].as_u32("reached node")?,
                    triple[1].as_u32("reached time")?,
                ),
                triple[2].as_u32("reached distance")?,
            ))
        })
        .collect::<Result<Vec<_>>>()?;
    for &(tn, _) in &reached {
        check_coords(tn, num_nodes, num_timestamps)?;
    }
    match obj.get_opt("parents") {
        None => Ok(DistanceMap::from_reached(
            num_nodes,
            num_timestamps,
            root,
            &reached,
        )),
        Some(parents) => {
            let mut parent_of: Vec<(TemporalNode, TemporalNode)> = parents
                .as_array("parents")?
                .iter()
                .map(|v| {
                    let quad = v.as_array("parent entry")?;
                    if quad.len() != 4 {
                        return Err(shape(
                            "parent entries must be [node, time, parent_node, parent_time]",
                        ));
                    }
                    Ok((
                        TemporalNode::from_raw(
                            quad[0].as_u32("child node")?,
                            quad[1].as_u32("child time")?,
                        ),
                        TemporalNode::from_raw(
                            quad[2].as_u32("parent node")?,
                            quad[3].as_u32("parent time")?,
                        ),
                    ))
                })
                .collect::<Result<_>>()?;
            for &(tn, p) in &parent_of {
                check_coords(tn, num_nodes, num_timestamps)?;
                check_coords(p, num_nodes, num_timestamps)?;
            }
            parent_of.sort_unstable_by_key(|(tn, _)| (tn.node.0, tn.time.0));
            let entries: Vec<(TemporalNode, u32, Option<TemporalNode>)> = reached
                .iter()
                .map(|&(tn, d)| {
                    let parent = parent_of
                        .binary_search_by_key(&(tn.node.0, tn.time.0), |(c, _)| {
                            (c.node.0, c.time.0)
                        })
                        .ok()
                        .map(|i| parent_of[i].1);
                    (tn, d, parent)
                })
                .collect();
            Ok(DistanceMap::from_reached_with_parents(
                num_nodes,
                num_timestamps,
                root,
                &entries,
            ))
        }
    }
}

/// Reads a payload's declared `num_nodes × num_timestamps`, refusing
/// dimensions whose product overflows: constructors allocate that many flat
/// slots, so a wrapped product from a hostile document must fail here, not
/// allocate (or index) a wrong-sized table there.
fn dimensions(obj: &Object<'_>) -> Result<(usize, usize)> {
    let num_nodes = obj.get("num_nodes")?.as_usize("num_nodes")?;
    let num_timestamps = obj.get("num_timestamps")?.as_usize("num_timestamps")?;
    if num_nodes.checked_mul(num_timestamps).is_none() {
        return Err(shape(format!(
            "declared dimensions {num_nodes} x {num_timestamps} overflow"
        )));
    }
    Ok((num_nodes, num_timestamps))
}

/// Rejects coordinates outside the declared dimensions — constructors index
/// flat `num_nodes × num_timestamps` storage with them, so an oversized
/// coordinate from a hostile document must fail here, not panic there.
fn check_coords(tn: TemporalNode, num_nodes: usize, num_timestamps: usize) -> Result<()> {
    if tn.node.index() >= num_nodes || tn.time.index() >= num_timestamps {
        return Err(shape(format!(
            "coordinate ({}, {}) outside the declared {num_nodes} x {num_timestamps} \
             dimensions",
            tn.node.0, tn.time.0
        )));
    }
    Ok(())
}

/// Encodes a result as a [`Value`] DOM. The wire paths do not use it — they
/// stream through [`write_search_result_json`] — but its
/// [`to_json`](Value::to_json) is the reference encoding: the streaming
/// writer's output is pinned byte for byte against it.
pub fn search_result_to_value(result: &SearchResult) -> Value {
    let reversed = result.is_time_reversed();
    if let Some(maps) = result.try_distance_maps() {
        Value::Object(vec![
            ("kind".into(), Value::String("hops".into())),
            ("reversed".into(), Value::Bool(reversed)),
            ("num_nodes".into(), Value::Int(maps[0].num_nodes() as i64)),
            (
                "num_timestamps".into(),
                Value::Int(maps[0].num_timestamps() as i64),
            ),
            (
                "maps".into(),
                Value::Array(maps.iter().map(distance_map_to_value).collect()),
            ),
        ])
    } else if let Some(tables) = result.try_foremost_results() {
        Value::Object(vec![
            ("kind".into(), Value::String("arrivals".into())),
            ("reversed".into(), Value::Bool(reversed)),
            (
                "tables".into(),
                Value::Array(
                    tables
                        .iter()
                        .map(|t| {
                            Value::Object(vec![
                                ("root".into(), temporal_node_to_value(t.root())),
                                (
                                    "arrivals".into(),
                                    Value::Array(
                                        t.arrivals()
                                            .iter()
                                            .map(|&a| optional_time_to_value(a))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    } else {
        let shared = result
            .try_shared_map()
            .expect("every payload is hops, arrivals or shared");
        Value::Object(vec![
            ("kind".into(), Value::String("shared".into())),
            ("reversed".into(), Value::Bool(reversed)),
            ("num_nodes".into(), Value::Int(shared.num_nodes() as i64)),
            (
                "num_timestamps".into(),
                Value::Int(shared.num_timestamps() as i64),
            ),
            (
                "sources".into(),
                Value::Array(
                    shared
                        .sources()
                        .iter()
                        .map(|&tn| temporal_node_to_value(tn))
                        .collect(),
                ),
            ),
            (
                "reached".into(),
                Value::Array(
                    shared
                        .reached_with_sources()
                        .into_iter()
                        .map(|(tn, d, s)| {
                            Value::Array(vec![
                                Value::Int(tn.node.0 as i64),
                                Value::Int(tn.time.0 as i64),
                                Value::Int(d as i64),
                                Value::Int(s as i64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Encodes a result as a JSON string — the `/query` response body — in one
/// pass into a buffer reserved once from [`search_result_json_capacity`].
pub fn search_result_to_json(result: &SearchResult) -> String {
    let mut out = String::new();
    write_search_result_json(&mut out, result);
    out
}

/// Appends the result document to `out` in one pass over each payload's
/// dense storage, building no intermediate values. The bytes are exactly
/// `search_result_to_value(result).to_json()`. Room for
/// [`search_result_json_capacity`] bytes is reserved first, so the write
/// never regrows `out`.
pub fn write_search_result_json(out: &mut String, result: &SearchResult) {
    // Integers are written as raw bytes and the buffer is checked as UTF-8
    // once, which is cheaper than checking every integer as it is pushed.
    let capacity = search_result_json_capacity(result);
    let mut bytes = std::mem::take(out).into_bytes();
    let start = bytes.len();
    bytes.reserve(capacity);
    write_result(&mut bytes, result);
    debug_assert!(bytes.len() - start <= capacity, "capacity bound too small");
    *out = String::from_utf8(bytes).expect("the result writer emits ASCII only");
}

/// An upper bound on the bytes [`write_search_result_json`] appends, taken
/// from the result's dimensions without walking its entries. Each reached
/// entry is charged the digits of the largest node id, time, distance and
/// source index its map can hold, and each parent link four such integers.
/// An arrival table is charged `null` or its latest arrival's digits per
/// node, which takes one scan of the table.
pub fn search_result_json_capacity(result: &SearchResult) -> usize {
    // Fixed text: a document's keys with both dimensions at 20 digits, one
    // map's or table's keys with its root, and one `,[node,time]` source.
    const DOC: usize = 160;
    const MAP: usize = 64;
    const PAIR: usize = 24;
    let digits = |x: usize| egraph_io::json_u64_len(x as u64);
    let bounds = |n: usize, t: usize| (digits(n.saturating_sub(1)), digits(t.saturating_sub(1)));
    // `,[`, `]` and the commas between `k` integers.
    let tuple = |k: usize| 2 + k;
    if let Some(maps) = result.try_distance_maps() {
        let map = |m: &DistanceMap| {
            let (n, t) = bounds(m.num_nodes(), m.num_timestamps());
            let entry = tuple(3) + n + t + digits(m.max_distance() as usize);
            let link = if m.has_parents() {
                tuple(4) + 2 * (n + t)
            } else {
                0
            };
            MAP + m.num_reached() * (entry + link)
        };
        DOC + maps.iter().map(map).sum::<usize>()
    } else if let Some(tables) = result.try_foremost_results() {
        let table = |table: &ForemostResult| {
            let latest = table.arrivals().iter().flatten().map(|a| a.index()).max();
            let arrival = 1 + latest.map_or(0, digits).max("null".len());
            MAP + table.arrivals().len() * arrival
        };
        DOC + tables.iter().map(table).sum::<usize>()
    } else {
        let shared = result
            .try_shared_map()
            .expect("every payload is hops, arrivals or shared");
        let (n, t) = bounds(shared.num_nodes(), shared.num_timestamps());
        let d = digits(shared.max_distance() as usize);
        let entry = tuple(4) + n + t + d + digits(shared.num_sources().saturating_sub(1));
        DOC + shared.num_sources() * PAIR + shared.num_reached() * entry
    }
}

/// Closes a list whose items since `start` were each written with a
/// leading comma: the first comma becomes the opening bracket.
fn close_list(out: &mut Vec<u8>, start: usize) {
    match out.get_mut(start) {
        Some(comma) => *comma = b'[',
        None => out.push(b'['),
    }
    out.push(b']');
}

/// Writes `,"num_nodes":N,"num_timestamps":T`.
fn write_dimensions(out: &mut Vec<u8>, num_nodes: usize, num_timestamps: usize) {
    out.extend_from_slice(b",\"num_nodes\":");
    push_json_u64(out, num_nodes as u64);
    out.extend_from_slice(b",\"num_timestamps\":");
    push_json_u64(out, num_timestamps as u64);
}

/// Writes `,{"root":[n,t]`, the opening of a map or table list item.
fn write_root(out: &mut Vec<u8>, root: TemporalNode) {
    out.extend_from_slice(b",{\"root\":[");
    push_json_u64(out, root.node.0.into());
    out.push(b',');
    push_json_u64(out, root.time.0.into());
    out.push(b']');
}

fn write_result(out: &mut Vec<u8>, result: &SearchResult) {
    let mut ints = U32ArrayWriter::new();
    let reversed: &[u8] = if result.is_time_reversed() {
        b"true"
    } else {
        b"false"
    };
    if let Some(maps) = result.try_distance_maps() {
        out.extend_from_slice(b"{\"kind\":\"hops\",\"reversed\":");
        out.extend_from_slice(reversed);
        write_dimensions(out, maps[0].num_nodes(), maps[0].num_timestamps());
        out.extend_from_slice(b",\"maps\":");
        let start = out.len();
        for map in maps {
            write_distance_map(out, &mut ints, map);
        }
        close_list(out, start);
    } else if let Some(tables) = result.try_foremost_results() {
        out.extend_from_slice(b"{\"kind\":\"arrivals\",\"reversed\":");
        out.extend_from_slice(reversed);
        out.extend_from_slice(b",\"tables\":");
        let tables_start = out.len();
        for table in tables {
            write_root(out, table.root());
            out.extend_from_slice(b",\"arrivals\":");
            let start = out.len();
            for arrival in table.arrivals() {
                out.push(b',');
                match arrival {
                    Some(t) => push_json_u64(out, t.0.into()),
                    None => out.extend_from_slice(b"null"),
                }
            }
            close_list(out, start);
            out.push(b'}');
        }
        close_list(out, tables_start);
    } else {
        let shared = result
            .try_shared_map()
            .expect("every payload is hops, arrivals or shared");
        out.extend_from_slice(b"{\"kind\":\"shared\",\"reversed\":");
        out.extend_from_slice(reversed);
        write_dimensions(out, shared.num_nodes(), shared.num_timestamps());
        out.extend_from_slice(b",\"sources\":");
        let start = out.len();
        for tn in shared.sources() {
            ints.push(out, &[tn.node.0, tn.time.0]);
        }
        close_list(out, start);
        out.extend_from_slice(b",\"reached\":");
        let start = out.len();
        shared.for_each_reached(|tn, d, s| ints.push(out, &[tn.node.0, tn.time.0, d, s as u32]));
        close_list(out, start);
    }
    out.push(b'}');
}

/// Writes one `{"root":..,"reached":[..]}` map as a list item. A map that
/// records parents is walked a second time for them, and `"parents"`
/// follows only if that walk found a link.
fn write_distance_map(out: &mut Vec<u8>, ints: &mut U32ArrayWriter, map: &DistanceMap) {
    write_root(out, map.root());
    out.extend_from_slice(b",\"reached\":");
    let start = out.len();
    map.for_each_reached(|tn, d, _| ints.push(out, &[tn.node.0, tn.time.0, d]));
    close_list(out, start);
    if map.has_parents() {
        let key = out.len();
        out.extend_from_slice(b",\"parents\":");
        let start = out.len();
        map.for_each_reached(|tn, _, parent| {
            if let Some(p) = parent {
                ints.push(out, &[tn.node.0, tn.time.0, p.node.0, p.time.0]);
            }
        });
        if out.len() == start {
            out.truncate(key);
        } else {
            close_list(out, start);
        }
    }
    out.push(b'}');
}

/// Decodes a result from a [`Value`]. See the module docs for the three
/// kind-tagged document shapes.
pub fn search_result_from_value(value: &Value) -> Result<SearchResult> {
    let obj = value.as_object("search result")?;
    let reversed = obj.get("reversed")?.as_bool("reversed")?;
    match obj.get("kind")?.as_str("kind")? {
        "hops" => {
            let (num_nodes, num_timestamps) = dimensions(&obj)?;
            let maps = obj
                .get("maps")?
                .as_array("maps")?
                .iter()
                .map(|v| distance_map_from_value(v, num_nodes, num_timestamps))
                .collect::<Result<Vec<_>>>()?;
            if maps.is_empty() {
                return Err(shape("maps must be non-empty"));
            }
            Ok(SearchResult::from_maps(maps, reversed))
        }
        "arrivals" => {
            let tables = obj
                .get("tables")?
                .as_array("tables")?
                .iter()
                .map(|v| {
                    let t = v.as_object("arrival table")?;
                    let root = temporal_node_from_value(t.get("root")?, "table root")?;
                    let arrivals = t
                        .get("arrivals")?
                        .as_array("arrivals")?
                        .iter()
                        .map(|a| {
                            if a.is_null() {
                                Ok(None)
                            } else {
                                Ok(Some(TimeIndex(a.as_u32("arrival")?)))
                            }
                        })
                        .collect::<Result<Vec<_>>>()?;
                    Ok(ForemostResult::from_arrivals(root, arrivals))
                })
                .collect::<Result<Vec<_>>>()?;
            if tables.is_empty() {
                return Err(shape("tables must be non-empty"));
            }
            Ok(SearchResult::from_arrivals(tables, reversed))
        }
        "shared" => {
            let (num_nodes, num_timestamps) = dimensions(&obj)?;
            let sources = obj
                .get("sources")?
                .as_array("sources")?
                .iter()
                .map(|v| temporal_node_from_value(v, "shared source"))
                .collect::<Result<Vec<_>>>()?;
            if sources.is_empty() {
                return Err(shape("sources must be non-empty"));
            }
            let entries = obj
                .get("reached")?
                .as_array("reached")?
                .iter()
                .map(|v| {
                    let quad = v.as_array("reached entry")?;
                    if quad.len() != 4 {
                        return Err(shape(
                            "shared reached entries must be [node, time, distance, source]",
                        ));
                    }
                    let tn = TemporalNode::from_raw(
                        quad[0].as_u32("reached node")?,
                        quad[1].as_u32("reached time")?,
                    );
                    check_coords(tn, num_nodes, num_timestamps)?;
                    let source = quad[3].as_usize("reached source")?;
                    if source >= sources.len() {
                        return Err(shape("reached source index out of range"));
                    }
                    Ok((tn, quad[2].as_u32("reached distance")?, source))
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(SearchResult::from_shared(
                MultiSourceMap::from_entries(num_nodes, num_timestamps, sources, &entries),
                reversed,
            ))
        }
        other => Err(shape(format!(
            "unknown result kind \"{other}\" (expected hops | arrivals | shared)"
        ))),
    }
}

/// Decodes a result from a JSON string.
pub fn search_result_from_json(json: &str) -> Result<SearchResult> {
    search_result_from_value(&egraph_io::json::parse_value(json)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Search;
    use egraph_core::examples::paper_figure1;
    use egraph_core::graph::EvolvingGraph;
    use egraph_core::ids::NodeId;

    fn roots() -> (TemporalNode, TemporalNode) {
        (TemporalNode::from_raw(0, 0), TemporalNode::from_raw(1, 0))
    }

    #[test]
    // Empty windows are a legal descriptor shape and must round-trip too.
    #[allow(clippy::reversed_empty_ranges)]
    fn descriptors_round_trip_across_every_axis() {
        let (a, b) = roots();
        let searches = vec![
            Search::from(a),
            Search::from(a).strategy(Strategy::Parallel),
            Search::from(a).strategy(Strategy::Algebraic).window(1u32..),
            Search::from(a).strategy(Strategy::Foremost).reverse(),
            Search::from_sources([a, b]).strategy(Strategy::SharedFrontier),
            Search::from(a).backward().window(1u32..=2),
            Search::from(a).with_parents(),
            Search::from(a).window(3u32..3),
            Search::from(a).window(2u32..=1),
        ];
        for search in searches {
            let descriptor = search.descriptor();
            let json = descriptor_to_json(&descriptor);
            let decoded = descriptor_from_json(&json).unwrap();
            assert_eq!(decoded, descriptor, "via {json}");
            // And the rebuilt Search produces the same identity again.
            assert_eq!(decoded.to_search().descriptor(), descriptor);
        }
    }

    #[test]
    fn descriptor_defaults_decode_minimal_documents() {
        let descriptor = descriptor_from_json(r#"{"sources": [[0, 0]]}"#).unwrap();
        assert_eq!(descriptor, Search::from(roots().0).descriptor());
    }

    #[test]
    fn non_canonical_descriptors_are_rejected() {
        // A window start of 0 canonicalises away in the builder; accepting
        // it on the wire would produce a cache key nothing else ever hits.
        assert!(
            descriptor_from_json(r#"{"sources":[[0,0]],"window":{"start":0,"end":2}}"#).is_err()
        );
        assert!(
            descriptor_from_json(r#"{"sources":[[0,0]],"window":{"empty":true,"start":1}}"#)
                .is_err()
        );
        assert!(descriptor_from_json(r#"{"sources":[]}"#).is_err());
        assert!(descriptor_from_json(r#"{"sources":[[0,0]],"strategy":"bogus"}"#).is_err());
        assert!(descriptor_from_json(
            r#"{"sources":[[0,0]],"strategy":"parallel","with_parents":true}"#
        )
        .is_err());
        assert!(descriptor_from_json("[1,2]").is_err());
    }

    /// Decoded results must answer identically to the originals on the
    /// accessors the equivalence suites compare.
    fn assert_result_equivalent(original: &SearchResult, decoded: &SearchResult, g_nodes: usize) {
        assert_eq!(decoded.sources(), original.sources());
        assert_eq!(decoded.is_time_reversed(), original.is_time_reversed());
        assert_eq!(decoded.reached_node_ids(), original.reached_node_ids());
        for v in 0..g_nodes as u32 {
            assert_eq!(decoded.arrival(NodeId(v)), original.arrival(NodeId(v)));
        }
    }

    #[test]
    fn hop_results_round_trip() {
        let g = paper_figure1();
        let (a, b) = roots();
        let result = Search::from_sources([a, b]).run(&g).unwrap();
        let json = search_result_to_json(&result);
        let decoded = search_result_from_json(&json).unwrap();
        assert_result_equivalent(&result, &decoded, g.num_nodes());
        for (orig, dec) in result.distance_maps().iter().zip(decoded.distance_maps()) {
            assert_eq!(orig.as_flat_slice(), dec.as_flat_slice());
        }
    }

    #[test]
    fn parent_recording_results_round_trip_with_paths() {
        let g = paper_figure1();
        let result = Search::from(roots().0).with_parents().run(&g).unwrap();
        let decoded = search_result_from_json(&search_result_to_json(&result)).unwrap();
        let target = TemporalNode::from_raw(2, 2);
        assert_eq!(decoded.path_to(target), result.path_to(target));
        assert!(decoded.path_to(target).is_some());
    }

    #[test]
    fn foremost_results_round_trip() {
        let g = paper_figure1();
        let result = Search::from(roots().0)
            .strategy(Strategy::Foremost)
            .run(&g)
            .unwrap();
        let decoded = search_result_from_json(&search_result_to_json(&result)).unwrap();
        assert_result_equivalent(&result, &decoded, g.num_nodes());
        assert_eq!(
            decoded.foremost_results()[0].arrivals(),
            result.foremost_results()[0].arrivals()
        );
    }

    #[test]
    fn shared_results_round_trip_with_tie_breaks() {
        let g = paper_figure1();
        let (a, b) = roots();
        let result = Search::from_sources([a, b])
            .strategy(Strategy::SharedFrontier)
            .run(&g)
            .unwrap();
        let decoded = search_result_from_json(&search_result_to_json(&result)).unwrap();
        assert_result_equivalent(&result, &decoded, g.num_nodes());
        for tn in g.active_nodes() {
            assert_eq!(
                decoded.nearest_source_index(tn),
                result.nearest_source_index(tn),
                "at {tn:?}"
            );
            assert_eq!(decoded.distance(tn), result.distance(tn));
        }
    }

    #[test]
    fn hostile_result_documents_fail_cleanly() {
        // Out-of-range coordinates must not index out of the flat storage.
        assert!(search_result_from_json(
            r#"{"kind":"hops","reversed":false,"num_nodes":2,"num_timestamps":2,
                "maps":[{"root":[0,0],"reached":[[5,9,1]]}]}"#
        )
        .is_err());
        assert!(search_result_from_json(
            r#"{"kind":"shared","reversed":false,"num_nodes":2,"num_timestamps":2,
                "sources":[[0,0]],"reached":[[0,0,0,7]]}"#
        )
        .is_err());
        // A root outside the declared dimensions is a shape error, not an
        // index panic in the map constructor.
        assert!(matches!(
            search_result_from_json(
                r#"{"kind":"hops","reversed":false,"num_nodes":2,"num_timestamps":1,
                    "maps":[{"root":[5,0],"reached":[]}]}"#
            ),
            Err(JsonError::Shape(_))
        ));
        // Dimensions whose product wraps (2^32 x (2^32 + 1)) are refused
        // before anything is allocated, for both dimensioned kinds.
        assert!(matches!(
            search_result_from_json(
                r#"{"kind":"hops","reversed":false,"num_nodes":4294967296,
                    "num_timestamps":4294967297,"maps":[{"root":[0,0],"reached":[]}]}"#
            ),
            Err(JsonError::Shape(_))
        ));
        assert!(matches!(
            search_result_from_json(
                r#"{"kind":"shared","reversed":false,"num_nodes":4294967296,
                    "num_timestamps":4294967297,"sources":[[0,0]],"reached":[]}"#
            ),
            Err(JsonError::Shape(_))
        ));
        assert!(search_result_from_json(r#"{"kind":"nope","reversed":false}"#).is_err());
        assert!(search_result_from_json("[]").is_err());
    }
}
