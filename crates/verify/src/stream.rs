//! Seeded fuzz-stream generation and the replay-file format.
//!
//! A [`FuzzStream`] is everything one differential run needs: a random
//! probabilistic graph (always registered under the name `net`), the
//! engine tuning both sides must share, and a sequence of raw request
//! *lines* — roughly 60% valid compute traffic, 15% boundary cases
//! (out-of-range ids, tiny deadlines, unknown graphs), 10% control
//! verbs, and 15% malformed bytes (broken JSON, duplicate and unknown
//! fields, non-finite numbers, invalid UTF-8, oversized lines). The
//! final line is always a `shutdown` request, so a stdio daemon, a TCP
//! daemon, and the reference all stop at the same point.
//!
//! Generation is a pure function of the seed: the same seed produces
//! byte-identical lines on every run, which is what makes a printed
//! `soi fuzz --seed N` invocation a complete repro. For divergences the
//! stream also round-trips through a plain-text replay file
//! ([`FuzzStream::serialize`] / [`FuzzStream::parse`]): edges carry
//! their exact probabilities (f64 `Display` is shortest-roundtrip) and
//! request lines are byte-escaped, so a parsed replay is byte-identical
//! to the stream that produced it.

use soi_graph::{gen, DiGraph, NodeId, ProbGraph};
use soi_util::rng::{Rng, Xoshiro256pp};
use soi_util::SoiError;

/// Tuning for stream generation. The engine fields are baked into the
/// stream (and its replay file) because they define the *answers*, not
/// just the questions.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Worlds ℓ for both engines' index and sketch builds.
    pub worlds: usize,
    /// Master sampling seed for both engines.
    pub engine_seed: u64,
    /// Default sketch size `k` for both engines.
    pub sketch_k: usize,
    /// Line-length cap for both engines (small, so the oversized arm
    /// does not need megabyte lines).
    pub max_line: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            worlds: 8,
            engine_seed: 42,
            sketch_k: 8,
            max_line: 384,
        }
    }
}

/// One generated (or replayed) fuzz stream.
#[derive(Clone, Debug)]
pub struct FuzzStream {
    /// The seed this stream was generated from (0 for hand-built
    /// replays; informational only).
    pub seed: u64,
    /// Engine tuning shared by every arm.
    pub config: StreamConfig,
    /// The graph, registered under the name `net` on every arm.
    pub pg: ProbGraph,
    /// Raw request lines, without terminators. The last line is always
    /// a parsed `shutdown`.
    pub lines: Vec<Vec<u8>>,
}

/// The graph name every stream registers and queries.
pub const GRAPH_NAME: &str = "net";

impl FuzzStream {
    /// Generates the stream for `seed` — a pure function of its
    /// arguments.
    pub fn generate(seed: u64, config: StreamConfig) -> Result<Self, SoiError> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let n = rng.random_range(4usize..17);
        let m = rng.random_range(n..3 * n + 1).min(n * (n - 1));
        let g = gen::gnm(n, m, &mut rng);
        let pg = match rng.random_range(0u32..3) {
            0 => ProbGraph::fixed(g, 0.25),
            1 => ProbGraph::fixed(g, 0.5),
            _ => Ok(ProbGraph::weighted_cascade(g)),
        }
        .map_err(|e| SoiError::invalid(format!("generated graph rejected: {e}")))?;
        let mut lines = Vec::new();
        let requests = rng.random_range(8usize..25);
        let mut reqs = RequestGen {
            rng,
            n: n as NodeId,
            next_id: 1,
            max_line: config.max_line,
        };
        for _ in 0..requests {
            let roll = reqs.rng.random_range(0u32..100);
            let line = if roll < 60 {
                reqs.valid_compute()
            } else if roll < 75 {
                reqs.boundary()
            } else if roll < 85 {
                reqs.control()
            } else {
                reqs.malformed()
            };
            lines.push(line);
        }
        lines.push(reqs.request("shutdown", String::new()).into_bytes());
        Ok(FuzzStream {
            seed,
            config,
            pg,
            lines,
        })
    }

    /// Serializes the stream to the plain-text replay format.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("max_line {}\n", self.config.max_line));
        out.push_str(&format!("worlds {}\n", self.config.worlds));
        out.push_str(&format!("engine_seed {}\n", self.config.engine_seed));
        out.push_str(&format!("sketch_k {}\n", self.config.sketch_k));
        out.push_str(&format!("nodes {}\n", self.pg.num_nodes()));
        out.push_str(&format!("edges {}\n", self.pg.num_edges()));
        for u in self.pg.graph().nodes() {
            for (v, p) in self.pg.out_arcs(u) {
                out.push_str(&format!("e {u} {v} {p}\n"));
            }
        }
        for line in &self.lines {
            out.push_str(&format!("l {}\n", escape_bytes(line)));
        }
        out
    }

    /// Parses a replay file produced by [`Self::serialize`] (or written
    /// by hand). The edge list is in CSR order, so the rebuilt graph
    /// assigns every edge the same index — and therefore the same
    /// sampled worlds — as the original.
    pub fn parse(text: &str) -> Result<Self, SoiError> {
        soi_util::failpoint!("verify.replay.read");
        let mut scalars = ReplayScalars::default();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut probs: Vec<f64> = Vec::new();
        let mut lines: Vec<Vec<u8>> = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let raw = raw.trim_end();
            if raw.is_empty() || raw.starts_with('#') {
                continue;
            }
            let bad =
                |what: &str| SoiError::invalid(format!("replay line {}: {what}: {raw:?}", no + 1));
            let (key, rest) = raw.split_once(' ').ok_or_else(|| bad("missing value"))?;
            match key {
                "seed" => scalars.seed = Some(parse_u64(rest).ok_or_else(|| bad("bad seed"))?),
                "max_line" => {
                    scalars.max_line =
                        Some(parse_u64(rest).ok_or_else(|| bad("bad max_line"))? as usize)
                }
                "worlds" => {
                    scalars.worlds =
                        Some(parse_u64(rest).ok_or_else(|| bad("bad worlds"))? as usize)
                }
                "engine_seed" => {
                    scalars.engine_seed =
                        Some(parse_u64(rest).ok_or_else(|| bad("bad engine_seed"))?)
                }
                "sketch_k" => {
                    scalars.sketch_k =
                        Some(parse_u64(rest).ok_or_else(|| bad("bad sketch_k"))? as usize)
                }
                "nodes" => {
                    scalars.nodes = Some(parse_u64(rest).ok_or_else(|| bad("bad nodes"))? as usize)
                }
                "edges" => {
                    scalars.edges = Some(parse_u64(rest).ok_or_else(|| bad("bad edges"))? as usize)
                }
                "e" => {
                    let mut parts = rest.split(' ');
                    let u = parts
                        .next()
                        .and_then(parse_u64)
                        .ok_or_else(|| bad("bad edge source"))?;
                    let v = parts
                        .next()
                        .and_then(parse_u64)
                        .ok_or_else(|| bad("bad edge target"))?;
                    let p: f64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("bad edge probability"))?;
                    edges.push((u as NodeId, v as NodeId));
                    probs.push(p);
                }
                "l" => lines.push(unescape_bytes(rest).ok_or_else(|| bad("bad escape"))?),
                _ => return Err(bad("unknown key")),
            }
        }
        let nodes = scalars
            .nodes
            .ok_or_else(|| SoiError::invalid("replay file missing nodes"))?;
        if scalars.edges != Some(edges.len()) {
            return Err(SoiError::invalid(format!(
                "replay file declares {:?} edges but lists {}",
                scalars.edges,
                edges.len()
            )));
        }
        let g = DiGraph::from_edges(nodes, &edges)
            .map_err(|e| SoiError::invalid(format!("replay graph: {e}")))?;
        let pg = ProbGraph::new(g, probs)
            .map_err(|e| SoiError::invalid(format!("replay probabilities: {e}")))?;
        let defaults = StreamConfig::default();
        Ok(FuzzStream {
            seed: scalars.seed.unwrap_or(0),
            config: StreamConfig {
                worlds: scalars.worlds.unwrap_or(defaults.worlds),
                engine_seed: scalars.engine_seed.unwrap_or(defaults.engine_seed),
                sketch_k: scalars.sketch_k.unwrap_or(defaults.sketch_k),
                max_line: scalars.max_line.unwrap_or(defaults.max_line),
            },
            pg,
            lines,
        })
    }

    /// The stream as one byte payload: every line newline-terminated,
    /// ready for a stdio daemon's stdin or one TCP write.
    pub fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for line in &self.lines {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
        out
    }
}

#[derive(Default)]
struct ReplayScalars {
    seed: Option<u64>,
    max_line: Option<usize>,
    worlds: Option<usize>,
    engine_seed: Option<u64>,
    sketch_k: Option<usize>,
    nodes: Option<usize>,
    edges: Option<usize>,
}

fn parse_u64(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// Escapes raw line bytes for the replay file: printable ASCII except
/// backslash is literal, everything else is `\xNN`.
fn escape_bytes(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len());
    for &b in bytes {
        if b == b'\\' {
            out.push_str("\\\\");
        } else if (0x20..0x7f).contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("\\x{b:02x}"));
        }
    }
    out
}

/// Inverse of [`escape_bytes`]; `None` on a malformed escape.
fn unescape_bytes(text: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\\' {
            match bytes.get(i + 1)? {
                b'\\' => {
                    out.push(b'\\');
                    i += 2;
                }
                b'x' => {
                    let hex = text.get(i + 2..i + 4)?;
                    out.push(u8::from_str_radix(hex, 16).ok()?);
                    i += 4;
                }
                _ => return None,
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Some(out)
}

/// Per-stream request-line generator.
struct RequestGen {
    rng: Xoshiro256pp,
    n: NodeId,
    next_id: u64,
    max_line: usize,
}

impl RequestGen {
    /// A well-formed request envelope with the next sequential id.
    fn request(&mut self, type_name: &str, fields: String) -> String {
        let id = self.next_id;
        self.next_id += 1;
        if fields.is_empty() {
            format!("{{\"v\":1,\"id\":{id},\"type\":\"{type_name}\"}}")
        } else {
            format!("{{\"v\":1,\"id\":{id},\"type\":\"{type_name}\",{fields}}}")
        }
    }

    fn node(&mut self) -> NodeId {
        self.rng.random_range(0..self.n)
    }

    fn seeds_field(&mut self) -> String {
        let count = self.rng.random_range(1usize..5);
        let seeds: Vec<String> = (0..count).map(|_| self.node().to_string()).collect();
        format!("[{}]", seeds.join(","))
    }

    /// `deadline_ticks`/`degrade`/`trace` suffix fields, each sometimes
    /// present.
    fn deadline_suffix(&mut self) -> String {
        let mut out = String::new();
        if self.rng.random_bool(0.4) {
            out.push_str(&format!(
                ",\"deadline_ticks\":{}",
                self.rng.random_range(1u64..33)
            ));
        }
        if self.rng.random_bool(0.3) {
            out.push_str(",\"degrade\":true");
        }
        if self.rng.random_bool(0.15) {
            out.push_str(",\"trace\":true");
        }
        out
    }

    /// Sketch-backend suffix, sometimes with an explicit `sketch_k`.
    fn backend_suffix(&mut self) -> String {
        if !self.rng.random_bool(0.35) {
            return String::new();
        }
        match self.rng.random_range(0u32..3) {
            0 => ",\"backend\":\"sketch\"".to_string(),
            1 => ",\"backend\":\"sketch\",\"sketch_k\":4".to_string(),
            _ => ",\"backend\":\"cascade\"".to_string(),
        }
    }

    fn valid_compute(&mut self) -> Vec<u8> {
        let line = match self.rng.random_range(0u32..10) {
            0..=2 => {
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"source\":{}{}",
                    self.node(),
                    self.deadline_suffix()
                );
                self.request("typical-cascade", fields)
            }
            3..=6 => {
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"seeds\":{},\"samples\":{},\"seed\":{}{}{}",
                    self.seeds_field(),
                    self.rng.random_range(1usize..65),
                    self.rng.random_range(0u64..1000),
                    self.deadline_suffix(),
                    self.backend_suffix()
                );
                self.request("spread-estimate", fields)
            }
            _ => {
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"k\":{}{}{}",
                    self.rng.random_range(1usize..5),
                    self.deadline_suffix(),
                    self.backend_suffix()
                );
                self.request("infmax-tc", fields)
            }
        };
        line.into_bytes()
    }

    fn boundary(&mut self) -> Vec<u8> {
        let n = self.n;
        let line = match self.rng.random_range(0u32..7) {
            0 => {
                let fields = format!("\"graph\":\"ghost\",\"source\":{}", self.node());
                self.request("typical-cascade", fields)
            }
            1 => {
                // Source exactly one past the last node.
                let fields = format!("\"graph\":\"{GRAPH_NAME}\",\"source\":{n}");
                self.request("typical-cascade", fields)
            }
            2 => {
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"seeds\":[{}],\"samples\":4",
                    n + self.rng.random_range(0..5)
                );
                self.request("spread-estimate", fields)
            }
            3 => {
                // An explicit zero deadline means unlimited.
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"seeds\":{},\"samples\":64,\"seed\":7,\"deadline_ticks\":0",
                    self.seeds_field()
                );
                self.request("spread-estimate", fields)
            }
            4 => {
                // A one-tick budget: the smallest possible partial.
                let degrade = if self.rng.random_bool(0.5) {
                    ",\"degrade\":true"
                } else {
                    ""
                };
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"seeds\":{},\"samples\":64,\"seed\":7,\"deadline_ticks\":1{degrade}",
                    self.seeds_field()
                );
                self.request("spread-estimate", fields)
            }
            5 => {
                let fields = format!("\"graph\":\"{GRAPH_NAME}\",\"k\":0");
                self.request("infmax-tc", fields)
            }
            _ => {
                // k past the node count: greedy saturates early.
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"k\":{}{}",
                    n + 5,
                    self.backend_suffix()
                );
                self.request("infmax-tc", fields)
            }
        };
        line.into_bytes()
    }

    fn control(&mut self) -> Vec<u8> {
        let line = match self.rng.random_range(0u32..3) {
            0 => self.request("health", String::new()),
            1 => self.request("stats", String::new()),
            _ => {
                let fields = format!(
                    "\"graph\":\"{GRAPH_NAME}\",\"shard\":{}",
                    self.rng.random_range(0u64..4)
                );
                self.request("rebalance", fields)
            }
        };
        line.into_bytes()
    }

    fn malformed(&mut self) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        match self.rng.random_range(0u32..12) {
            0 => b"this is not json".to_vec(),
            1 => b"[1,2,3]".to_vec(),
            2 => format!("{{\"id\":{id},\"type\":\"health\"}}").into_bytes(),
            3 => format!("{{\"v\":9,\"id\":{id},\"type\":\"health\"}}").into_bytes(),
            4 => b"{\"v\":1,\"type\":\"health\"}".to_vec(),
            5 => format!("{{\"v\":1,\"id\":{id},\"type\":\"frobnicate\"}}").into_bytes(),
            6 => {
                // Duplicate key: rejected by the strict JSON layer.
                format!("{{\"v\":1,\"v\":1,\"id\":{id},\"type\":\"health\"}}").into_bytes()
            }
            7 => {
                // Unknown field: rejected by the per-type whitelist.
                format!("{{\"v\":1,\"id\":{id},\"type\":\"health\",\"bogus\":1}}").into_bytes()
            }
            8 => {
                // Non-finite number (1e999 overflows to infinity).
                format!(
                    "{{\"v\":1,\"id\":{id},\"type\":\"spread-estimate\",\"graph\":\"{GRAPH_NAME}\",\"seeds\":[0],\"samples\":1e999}}"
                )
                .into_bytes()
            }
            9 => {
                // Invalid UTF-8 in the middle of the line.
                let mut line = format!("{{\"v\":1,\"id\":{id},\"type\":\"").into_bytes();
                line.extend_from_slice(&[0xff, 0xfe]);
                line.extend_from_slice(b"\"}");
                line
            }
            10 => {
                // Oversized: one byte past the cap.
                vec![b'x'; self.max_line + 1]
            }
            _ => {
                // Wrong field types.
                format!(
                    "{{\"v\":1,\"id\":{id},\"type\":\"typical-cascade\",\"graph\":7,\"source\":\"zero\"}}"
                )
                .into_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    #[test]
    fn replay_read_failpoint_is_a_typed_error() {
        let _guard = soi_util::failpoint::test_guard();
        let text = FuzzStream::generate(3, StreamConfig::default())
            .expect("gen")
            .serialize();
        soi_util::failpoint::install("verify.replay.read=error").expect("install");
        let err = FuzzStream::parse(&text).expect_err("armed parse must fault");
        assert!(
            err.to_string().contains("verify.replay.read"),
            "fault does not name its site: {err}"
        );
        soi_util::failpoint::clear();
        FuzzStream::parse(&text).expect("disarmed parse succeeds");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FuzzStream::generate(7, StreamConfig::default()).expect("gen");
        let b = FuzzStream::generate(7, StreamConfig::default()).expect("gen");
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.serialize(), b.serialize());
        let c = FuzzStream::generate(8, StreamConfig::default()).expect("gen");
        assert_ne!(a.serialize(), c.serialize());
    }

    #[test]
    fn streams_end_in_shutdown_and_stay_bounded() {
        for seed in 0..24u64 {
            let s = FuzzStream::generate(seed, StreamConfig::default()).expect("gen");
            let last = s.lines.last().expect("non-empty");
            let text = std::str::from_utf8(last).expect("shutdown is ascii");
            assert!(text.contains("\"type\":\"shutdown\""), "{text}");
            assert!(
                !s.lines[..s.lines.len() - 1].iter().any(|l| {
                    std::str::from_utf8(l)
                        .map(|t| t.contains("\"type\":\"shutdown\""))
                        .unwrap_or(false)
                }),
                "shutdown only as the final line"
            );
            assert!(s.lines.len() >= 9 && s.lines.len() <= 25);
            assert!(s.pg.num_nodes() >= 4 && s.pg.num_nodes() <= 16);
        }
    }

    #[test]
    fn replay_round_trips_byte_identically() {
        for seed in [3u64, 11, 19] {
            let s = FuzzStream::generate(seed, StreamConfig::default()).expect("gen");
            let text = s.serialize();
            let back = FuzzStream::parse(&text).expect("parse");
            assert_eq!(back.seed, s.seed);
            assert_eq!(back.lines, s.lines);
            assert_eq!(back.pg.fingerprint(), s.pg.fingerprint());
            assert_eq!(back.serialize(), text);
        }
    }

    #[test]
    fn escaping_round_trips_arbitrary_bytes() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        let escaped = escape_bytes(&bytes);
        assert_eq!(unescape_bytes(&escaped).expect("unescape"), bytes);
        assert!(!escaped.contains('\n'));
    }

    #[test]
    fn replay_parse_rejects_garbage() {
        assert!(FuzzStream::parse("nodes four\n").is_err());
        assert!(FuzzStream::parse("nodes 4\nedges 1\n").is_err());
        assert!(FuzzStream::parse("wat 1\n").is_err());
    }
}
