//! Plain-text edge-list serialization.
//!
//! Format: one arc per line, `source<TAB>target[<TAB>probability]`,
//! `#`-prefixed comment lines allowed, node count inferred as `max id + 1`
//! (or given explicitly in a `# nodes: N` header to preserve trailing
//! isolated nodes). This is the interchange format the experiment binaries
//! use to dump the synthetic datasets for external inspection.

use crate::{DiGraph, GraphBuilder, GraphError, ProbGraph};
use std::io::{BufRead, Write};

/// Writes a probabilistic graph as a TSV edge list with probabilities.
pub fn write_prob_graph<W: Write>(pg: &ProbGraph, mut out: W) -> std::io::Result<()> {
    writeln!(out, "# nodes: {}", pg.num_nodes())?;
    for u in pg.graph().nodes() {
        for (v, p) in pg.out_arcs(u) {
            writeln!(out, "{u}\t{v}\t{p}")?;
        }
    }
    Ok(())
}

/// Writes a plain graph as a TSV edge list.
pub fn write_graph<W: Write>(g: &DiGraph, mut out: W) -> std::io::Result<()> {
    writeln!(out, "# nodes: {}", g.num_nodes())?;
    for (u, v) in g.edges() {
        writeln!(out, "{u}\t{v}")?;
    }
    Ok(())
}

/// Parses an edge list. Lines may carry 2 or 3 whitespace-separated fields;
/// a third field is an edge probability. Mixing arities within one file is
/// an error. Returns a [`ProbGraph`] when probabilities are present (as
/// `Ok(Err(graph))` style is unergonomic we return an enum).
#[derive(Debug)]
pub enum ParsedGraph {
    /// Input had 2-field lines only.
    Plain(DiGraph),
    /// Input had 3-field lines only.
    Probabilistic(ProbGraph),
}

/// Reads an edge list produced by [`write_graph`] / [`write_prob_graph`]
/// (or hand-written in the same format). Malformed input — truncated
/// lines, duplicate `# nodes:` headers, non-finite or out-of-range
/// probabilities, node ids beyond a declared count, a node count or id
/// outside the `u32` id space — yields a line-numbered
/// [`GraphError::Parse`]; this function never panics on untrusted input.
pub fn read_graph<R: BufRead>(input: R) -> Result<ParsedGraph, GraphError> {
    soi_util::failpoint!("graph.io.read");
    let mut declared_nodes: Option<usize> = None;
    let mut edges: Vec<(u32, u32, Option<f64>)> = Vec::new();
    let mut max_node: u32 = 0;
    let mut any = false;

    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("nodes:") {
                if declared_nodes.is_some() {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: "duplicate `# nodes:` header".into(),
                    });
                }
                let n: usize = n.trim().parse().map_err(|e| GraphError::Parse {
                    line: lineno,
                    message: format!("bad node count: {e}"),
                })?;
                // Ids are u32, so at most 2^32 - 1 nodes have one.
                if n > u32::MAX as usize {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: format!("node count {n} exceeds {}", u32::MAX),
                    });
                }
                if any && max_node as usize >= n {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: format!(
                            "`# nodes: {n}` header contradicts earlier node id {max_node}"
                        ),
                    });
                }
                declared_nodes = Some(n);
            }
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 2 && fields.len() != 3 {
            return Err(GraphError::Parse {
                line: lineno,
                message: format!("expected 2 or 3 fields, got {}", fields.len()),
            });
        }
        let parse_node = |s: &str| -> Result<u32, GraphError> {
            let id: u32 = s.parse().map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad node id {s:?}: {e}"),
            })?;
            // Id u32::MAX would need 2^32 nodes, one past the id space.
            if id == u32::MAX {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("node id {id} exceeds {}", u32::MAX - 1),
                });
            }
            if let Some(n) = declared_nodes {
                if id as usize >= n {
                    return Err(GraphError::Parse {
                        line: lineno,
                        message: format!("node id {id} >= declared node count {n}"),
                    });
                }
            }
            Ok(id)
        };
        let u = parse_node(fields[0])?;
        let v = parse_node(fields[1])?;
        let p = if fields.len() == 3 {
            let p = fields[2].parse::<f64>().map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad probability {:?}: {e}", fields[2]),
            })?;
            // `parse::<f64>` happily accepts "NaN" and "inf"; reject them
            // (and anything outside (0, 1]) here so the report carries the
            // line number instead of a later edge index.
            if !(p > 0.0 && p <= 1.0) {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("probability {p} not in (0, 1]"),
                });
            }
            Some(p)
        } else {
            None
        };
        if any && (p.is_some() != edges[0].2.is_some()) {
            return Err(GraphError::Parse {
                line: lineno,
                message: "mixed 2-field and 3-field lines".into(),
            });
        }
        any = true;
        max_node = max_node.max(u).max(v);
        edges.push((u, v, p));
    }

    let num_nodes = declared_nodes.unwrap_or(if any { max_node as usize + 1 } else { 0 });
    let weighted = edges.first().is_some_and(|e| e.2.is_some());
    let mut b = GraphBuilder::new(num_nodes);
    for (u, v, p) in &edges {
        match p {
            Some(p) => b.add_weighted_edge(*u, *v, *p),
            None => b.add_edge(*u, *v),
        }
    }
    if weighted {
        Ok(ParsedGraph::Probabilistic(b.build_prob()?))
    } else {
        Ok(ParsedGraph::Plain(b.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Parses under the failpoint guard: `graph.io.read` is armed process-wide below.
    fn read_graph(input: &[u8]) -> Result<ParsedGraph, GraphError> {
        let _g = soi_util::failpoint::test_guard();
        super::read_graph(input)
    }

    #[test]
    fn roundtrip_plain() {
        let g = gen::path(5);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        match read_graph(&buf[..]).unwrap() {
            ParsedGraph::Plain(back) => assert_eq!(back, g),
            _ => panic!("expected plain"),
        }
    }

    #[test]
    fn roundtrip_probabilistic() {
        let pg = ProbGraph::weighted_cascade(gen::star(4));
        let mut buf = Vec::new();
        write_prob_graph(&pg, &mut buf).unwrap();
        match read_graph(&buf[..]).unwrap() {
            ParsedGraph::Probabilistic(back) => assert_eq!(back, pg),
            _ => panic!("expected probabilistic"),
        }
    }

    #[test]
    fn declared_nodes_preserves_isolated_tail() {
        let input = b"# nodes: 10\n0\t1\n" as &[u8];
        match read_graph(input).unwrap() {
            ParsedGraph::Plain(g) => {
                assert_eq!(g.num_nodes(), 10);
                assert_eq!(g.num_edges(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn inferred_nodes_without_header() {
        let input = b"0 5\n2 3\n" as &[u8];
        match read_graph(input).unwrap() {
            ParsedGraph::Plain(g) => assert_eq!(g.num_nodes(), 6),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad_arity = b"0 1 0.5 9\n" as &[u8];
        match read_graph(bad_arity) {
            Err(GraphError::Parse { line: 1, .. }) => {}
            other => panic!("{other:?}"),
        }
        let mixed = b"0 1\n1 2 0.5\n" as &[u8];
        match read_graph(mixed) {
            Err(GraphError::Parse { line: 2, message }) => {
                assert!(message.contains("mixed"))
            }
            other => panic!("{other:?}"),
        }
        let bad_prob = b"0 1 nope\n" as &[u8];
        assert!(matches!(
            read_graph(bad_prob),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn adversarial_probabilities_fail_with_line_numbers() {
        // parse::<f64>() accepts all of these spellings; the reader must
        // still reject them with the offending line, never panic.
        for (bad, line) in [
            ("0\t1\tNaN\n", 1),
            ("0\t1\t0.5\n1\t0\tinf\n", 2),
            ("0\t1\t-inf\n", 1),
            ("0\t1\t1.5\n", 1),
            ("0\t1\t0\n", 1),
            ("0\t1\t-0.25\n", 1),
        ] {
            match read_graph(bad.as_bytes()) {
                Err(GraphError::Parse { line: l, message }) => {
                    assert_eq!(l, line, "{bad:?}");
                    assert!(message.contains("probability"), "{bad:?}: {message}");
                }
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_nodes_header_is_rejected() {
        let input = b"# nodes: 5\n0\t1\n# nodes: 9\n" as &[u8];
        match read_graph(input) {
            Err(GraphError::Parse { line: 3, message }) => {
                assert!(message.contains("duplicate"), "{message}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_ids_beyond_declared_count_are_rejected() {
        // Header first: the edge line is flagged.
        let input = b"# nodes: 3\n0\t7\n" as &[u8];
        match read_graph(input) {
            Err(GraphError::Parse { line: 2, message }) => {
                assert!(message.contains("declared node count"), "{message}")
            }
            other => panic!("{other:?}"),
        }
        // Header after the edges: the header line is flagged.
        let input = b"0\t7\n# nodes: 3\n" as &[u8];
        match read_graph(input) {
            Err(GraphError::Parse { line: 2, message }) => {
                assert!(message.contains("contradicts"), "{message}")
            }
            other => panic!("{other:?}"),
        }
    }

    /// Ids are u32: a node count or id that leaves that space is refused
    /// before anything is allocated for it.
    #[test]
    fn counts_and_ids_outside_the_u32_space_are_rejected() {
        for (bad, line) in [
            ("# nodes: 4294967296\n", 1),
            ("# nodes: 99999999999999\n", 1),
            ("0\t1\t0.5\n4294967295\t0\t0.5\n", 2),
        ] {
            match read_graph(bad.as_bytes()) {
                Err(GraphError::Parse { line: l, message }) => {
                    assert_eq!(l, line, "{bad:?}");
                    assert!(message.contains("exceeds"), "{bad:?}: {message}");
                }
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_lines_are_rejected() {
        for (bad, line) in [("0\n", 1), ("0\t1\t0.5\n1\n", 2), ("0 1 0.5 7 9\n", 1)] {
            match read_graph(bad.as_bytes()) {
                Err(GraphError::Parse { line: l, message }) => {
                    assert_eq!(l, line, "{bad:?}");
                    assert!(message.contains("fields"), "{bad:?}: {message}");
                }
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    #[test]
    fn injected_read_fault_surfaces_as_io_error() {
        let _g = soi_util::failpoint::test_guard();
        soi_util::failpoint::install("graph.io.read=error").unwrap();
        let err = super::read_graph(b"0\t1\n" as &[u8]).unwrap_err();
        assert!(err.to_string().contains("graph.io.read"), "{err}");
        soi_util::failpoint::clear();
        assert!(super::read_graph(b"0\t1\n" as &[u8]).is_ok());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        match read_graph(b"" as &[u8]).unwrap() {
            ParsedGraph::Plain(g) => assert_eq!(g.num_nodes(), 0),
            _ => panic!(),
        }
    }

    mod roundtrip_properties {
        use super::{super::*, read_graph};
        use soi_util::rng::{Rng, Xoshiro256pp};

        /// Any valid probabilistic graph survives a text roundtrip
        /// bit-for-bit (probabilities included). 32 seeded random cases.
        #[test]
        fn prob_graph_roundtrips() {
            for case in 0..32u64 {
                let mut rng = Xoshiro256pp::from_stream(0x10_0001, case);
                let n = rng.random_range(1usize..30);
                let arcs = rng.random_range(0usize..80);
                let mut b = crate::GraphBuilder::new(n);
                for _ in 0..arcs {
                    let u = rng.random_range(0u32..30) % n as u32;
                    let v = rng.random_range(0u32..30) % n as u32;
                    let p = 0.01 + 0.99 * rng.random::<f64>();
                    b.add_weighted_edge(u, v, p);
                }
                let pg = b.build_prob().unwrap();
                let mut buf = Vec::new();
                write_prob_graph(&pg, &mut buf).unwrap();
                match read_graph(&buf[..]).unwrap() {
                    ParsedGraph::Probabilistic(back) => assert_eq!(back, pg, "case {case}"),
                    ParsedGraph::Plain(_) => {
                        // A graph with zero arcs parses as plain; that is
                        // the only case where the variant flips.
                        assert_eq!(pg.num_edges(), 0, "case {case}");
                    }
                }
            }
        }

        /// Plain graphs roundtrip too, preserving node count via the
        /// header even with trailing isolated nodes.
        #[test]
        fn plain_graph_roundtrips() {
            for case in 0..32u64 {
                let mut rng = Xoshiro256pp::from_stream(0x10_0002, case);
                let n = rng.random_range(1usize..30);
                let arcs = rng.random_range(0usize..80);
                let mut b = crate::GraphBuilder::new(n);
                for _ in 0..arcs {
                    let u = rng.random_range(0u32..30) % n as u32;
                    let v = rng.random_range(0u32..30) % n as u32;
                    b.add_edge(u, v);
                }
                let g = b.build().unwrap();
                let mut buf = Vec::new();
                write_graph(&g, &mut buf).unwrap();
                match read_graph(&buf[..]).unwrap() {
                    ParsedGraph::Plain(back) => assert_eq!(back, g, "case {case}"),
                    ParsedGraph::Probabilistic(_) => panic!("variant flip (case {case})"),
                }
            }
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let input = b"# hello\n\n0 1\n# trailing\n" as &[u8];
        match read_graph(input).unwrap() {
            ParsedGraph::Plain(g) => assert_eq!(g.num_edges(), 1),
            _ => panic!(),
        }
    }
}
