//! Plain-text temporal edge lists.
//!
//! The de-facto interchange format for temporal graph datasets is a text
//! file with one `src dst time` triple per line (SNAP, KONECT and the
//! citation datasets the paper alludes to all ship variants of it). This
//! module reads and writes that format:
//!
//! * whitespace- or comma-separated columns,
//! * `#` or `%` comment lines and blank lines ignored,
//! * node identifiers are arbitrary `u32`s, time stamps arbitrary `i64`s.

use std::io::{BufRead, BufReader, Read, Write};

use egraph_core::adjacency::AdjacencyListGraph;
use egraph_core::error::Result as GraphResult;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::Timestamp;

/// Errors arising while parsing a temporal edge list.
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed as `src dst time`.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
    },
    /// The parsed edges could not be assembled into a graph.
    Graph(egraph_core::error::GraphError),
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "I/O error: {e}"),
            EdgeListError::Parse { line, content } => {
                write!(f, "cannot parse line {line}: {content:?}")
            }
            EdgeListError::Graph(e) => write!(f, "invalid edge list: {e}"),
        }
    }
}

impl std::error::Error for EdgeListError {}

impl From<std::io::Error> for EdgeListError {
    fn from(e: std::io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

impl From<egraph_core::error::GraphError> for EdgeListError {
    fn from(e: egraph_core::error::GraphError) -> Self {
        EdgeListError::Graph(e)
    }
}

/// Parses `(src, dst, time)` triples from a reader.
pub fn parse_edge_list<R: Read>(reader: R) -> Result<Vec<(u32, u32, Timestamp)>, EdgeListError> {
    let reader = BufReader::new(reader);
    let mut edges = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = trimmed
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty())
            .collect();
        let parsed = (|| {
            if fields.len() < 3 {
                return None;
            }
            Some((
                fields[0].parse::<u32>().ok()?,
                fields[1].parse::<u32>().ok()?,
                fields[2].parse::<Timestamp>().ok()?,
            ))
        })();
        match parsed {
            Some(triple) => edges.push(triple),
            None => {
                return Err(EdgeListError::Parse {
                    line: i + 1,
                    content: trimmed.to_string(),
                })
            }
        }
    }
    Ok(edges)
}

/// Reads a directed evolving graph from a temporal edge list.
pub fn read_edge_list<R: Read>(reader: R) -> Result<AdjacencyListGraph, EdgeListError> {
    let edges = parse_edge_list(reader)?;
    Ok(AdjacencyListGraph::from_labeled_edges(&edges)?)
}

/// Writes an evolving graph as a temporal edge list (one `src dst time` line
/// per static edge), preceded by a comment header describing the graph.
pub fn write_edge_list<G: EvolvingGraph, W: Write>(
    graph: &G,
    mut writer: W,
) -> std::io::Result<()> {
    writeln!(
        writer,
        "# evolving graph: {} nodes, {} snapshots, {} static edges, {}",
        graph.num_nodes(),
        graph.num_timestamps(),
        graph.num_static_edges(),
        if graph.is_directed() {
            "directed"
        } else {
            "undirected"
        }
    )?;
    for edge in graph.static_edges() {
        writeln!(
            writer,
            "{} {} {}",
            edge.src,
            edge.dst,
            graph.timestamp(edge.time)
        )?;
    }
    Ok(())
}

/// Serialises a graph to an edge-list string.
pub fn to_edge_list_string<G: EvolvingGraph>(graph: &G) -> String {
    let mut buf = Vec::new();
    write_edge_list(graph, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("edge lists are ASCII")
}

/// Round-trip helper used by tests: write then re-read a graph.
pub fn round_trip<G: EvolvingGraph>(graph: &G) -> GraphResult<AdjacencyListGraph> {
    let text = to_edge_list_string(graph);
    read_edge_list(text.as_bytes()).map_err(|e| match e {
        EdgeListError::Graph(g) => g,
        other => panic!("round trip produced a non-graph error: {other}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::examples::paper_figure1;
    use egraph_core::ids::{NodeId, TimeIndex};

    #[test]
    fn parses_whitespace_and_comma_separated_lines() {
        let text = "# comment\n0 1 2010\n1,2,2011\n\n% another comment\n2 0 2012\n";
        let edges = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(edges, vec![(0, 1, 2010), (1, 2, 2011), (2, 0, 2012)]);
    }

    #[test]
    fn reports_the_offending_line_on_parse_errors() {
        let text = "0 1 5\nnot an edge\n";
        let err = parse_edge_list(text.as_bytes()).unwrap_err();
        match err {
            EdgeListError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert!(content.contains("not an edge"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn writes_a_header_and_one_line_per_edge() {
        let g = paper_figure1();
        let text = to_edge_list_string(&g);
        assert!(text.starts_with("# evolving graph: 3 nodes, 3 snapshots"));
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("0 1 1"));
        assert!(text.contains("1 2 3"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = paper_figure1();
        let back = round_trip(&g).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_timestamps(), g.num_timestamps());
        assert_eq!(back.num_static_edges(), g.num_static_edges());
        assert!(back.has_static_edge(NodeId(0), NodeId(1), TimeIndex(0)));
        assert!(back.has_static_edge(NodeId(1), NodeId(2), TimeIndex(2)));
        // BFS results agree as well.
        let root = egraph_core::ids::TemporalNode::from_raw(0, 0);
        let a = egraph_core::kernel::distances(&g, root, false, usize::MAX).unwrap();
        let b = egraph_core::kernel::distances(&back, root, false, usize::MAX).unwrap();
        assert_eq!(a.as_flat_slice(), b.as_flat_slice());
    }

    #[test]
    fn read_rejects_self_loops_via_graph_error() {
        let text = "0 0 1\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(matches!(err, EdgeListError::Graph(_)));
    }
}
