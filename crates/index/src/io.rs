//! Cascade-index persistence.
//!
//! §8 of the paper: "having the spheres of influence precomputed and
//! stored in an index might provide a direct solution to several variants
//! of influence maximization" — campaigns are re-run against a stored
//! index without resampling. This module serializes a [`CascadeIndex`] to
//! a compact little-endian binary format with a magic header and version
//! byte; loads verify structural invariants before returning.
//!
//! Format (v1), all integers little-endian:
//!
//! ```text
//! magic "SOIIDX\0" (7 bytes) | version u8
//! num_nodes u64 | num_worlds u64 | seed u64 | reduced u8
//! per world:
//!   num_comps u64 | dag_edges u64
//!   dag offsets  (num_comps + 1) x u64
//!   dag targets  dag_edges x u32
//!   member_offsets (num_comps + 1) x u64
//!   members      num_nodes x u32
//! comp_matrix    (num_nodes * num_worlds) x u32
//! ```

use crate::{CascadeIndex, IndexConfig, WorldIndex};
use soi_graph::DiGraph;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 7] = b"SOIIDX\0";
const VERSION: u8 = 1;

/// Errors loading a stored index.
#[derive(Debug)]
pub enum LoadError {
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Structural inconsistency (corrupt or truncated payload).
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a cascade-index stream (bad magic)"),
            LoadError::BadVersion(v) => write!(f, "unsupported index version {v}"),
            LoadError::Corrupt(m) => write!(f, "corrupt index: {m}"),
            LoadError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<LoadError> for soi_util::SoiError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::Io(io) => soi_util::SoiError::io("cascade index", io),
            other => soi_util::SoiError::Invalid(other.to_string()),
        }
    }
}

fn w_u64<W: Write>(w: &mut W, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn w_u32<W: Write>(w: &mut W, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes `index` to `out` in the v1 binary format.
pub fn save_index<W: Write>(index: &CascadeIndex, mut out: W) -> io::Result<()> {
    out.write_all(MAGIC)?;
    out.write_all(&[VERSION])?;
    w_u64(&mut out, index.num_nodes() as u64)?;
    w_u64(&mut out, index.num_worlds() as u64)?;
    w_u64(&mut out, index.config().seed)?;
    out.write_all(&[index.config().transitive_reduction as u8])?;
    for i in 0..index.num_worlds() {
        let w = index.world(i);
        let nc = w.num_comps();
        w_u64(&mut out, nc as u64)?;
        w_u64(&mut out, w.dag.num_edges() as u64)?;
        // CSR arrays of the DAG.
        let mut offset = 0usize;
        w_u64(&mut out, 0)?;
        for c in 0..nc as u32 {
            offset += w.dag.out_degree(c);
            w_u64(&mut out, offset as u64)?;
        }
        for c in 0..nc as u32 {
            for &t in w.dag.out_neighbors(c) {
                w_u32(&mut out, t)?;
            }
        }
        // Member lists.
        for c in 0..=nc {
            w_u64(&mut out, w.member_offset(c) as u64)?;
        }
        for c in 0..nc as u32 {
            for &m in w.members_of(c) {
                w_u32(&mut out, m)?;
            }
        }
    }
    for v in 0..index.num_nodes() {
        for i in 0..index.num_worlds() {
            w_u32(&mut out, index.comp_of(v as u32, i))?;
        }
    }
    Ok(())
}

/// Reads an index previously written with [`save_index`].
pub fn load_index<R: Read>(mut input: R) -> Result<CascadeIndex, LoadError> {
    let mut magic = [0u8; 7];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let mut version = [0u8; 1];
    input.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(LoadError::BadVersion(version[0]));
    }
    let num_nodes = r_u64(&mut input)? as usize;
    let num_worlds = r_u64(&mut input)? as usize;
    let seed = r_u64(&mut input)?;
    let mut reduced = [0u8; 1];
    input.read_exact(&mut reduced)?;
    if num_worlds == 0 {
        return Err(LoadError::Corrupt("zero worlds".into()));
    }
    // Guard against absurd sizes before allocating.
    const MAX_REASONABLE: u64 = 1 << 40;
    if (num_nodes as u64) * (num_worlds as u64) > MAX_REASONABLE {
        return Err(LoadError::Corrupt("implausible dimensions".into()));
    }

    let mut worlds = Vec::with_capacity(num_worlds);
    let mut max_comps = 0usize;
    for wi in 0..num_worlds {
        let nc = r_u64(&mut input)? as usize;
        let ne = r_u64(&mut input)? as usize;
        if nc > num_nodes {
            return Err(LoadError::Corrupt(format!(
                "world {wi}: {nc} components > {num_nodes} nodes"
            )));
        }
        let mut offsets = Vec::with_capacity(nc + 1);
        for _ in 0..=nc {
            offsets.push(r_u64(&mut input)? as usize);
        }
        if offsets.first() != Some(&0) || offsets.last() != Some(&ne) {
            return Err(LoadError::Corrupt(format!("world {wi}: bad dag offsets")));
        }
        if offsets.windows(2).any(|p| p[0] > p[1]) {
            return Err(LoadError::Corrupt(format!(
                "world {wi}: non-monotone dag offsets"
            )));
        }
        let mut targets = Vec::with_capacity(ne);
        for _ in 0..ne {
            let t = r_u32(&mut input)?;
            if t as usize >= nc {
                return Err(LoadError::Corrupt(format!(
                    "world {wi}: dag target {t} out of range"
                )));
            }
            targets.push(t);
        }
        // Per-node slices must be sorted for DiGraph::from_csr_parts.
        for c in 0..nc {
            let s = &targets[offsets[c]..offsets[c + 1]];
            if s.windows(2).any(|p| p[0] > p[1]) {
                return Err(LoadError::Corrupt(format!(
                    "world {wi}: unsorted dag adjacency"
                )));
            }
        }
        let dag = DiGraph::from_csr_parts(offsets, targets);

        let mut member_offsets = Vec::with_capacity(nc + 1);
        for _ in 0..=nc {
            member_offsets.push(r_u64(&mut input)? as usize);
        }
        if member_offsets.first() != Some(&0)
            || member_offsets.last() != Some(&num_nodes)
            || member_offsets.windows(2).any(|p| p[0] > p[1])
        {
            return Err(LoadError::Corrupt(format!(
                "world {wi}: bad member offsets"
            )));
        }
        let mut members = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let m = r_u32(&mut input)?;
            if m as usize >= num_nodes {
                return Err(LoadError::Corrupt(format!(
                    "world {wi}: member {m} out of range"
                )));
            }
            members.push(m);
        }
        max_comps = max_comps.max(nc);
        worlds.push(WorldIndex::from_parts(dag, member_offsets, members));
    }

    let mut comp_matrix = vec![0u32; num_nodes * num_worlds];
    for slot in comp_matrix.iter_mut() {
        *slot = r_u32(&mut input)?;
    }
    // Validate matrix entries against each world's component count.
    for v in 0..num_nodes {
        for (i, world) in worlds.iter().enumerate() {
            let c = comp_matrix[v * num_worlds + i];
            if c as usize >= world.num_comps() {
                return Err(LoadError::Corrupt(format!(
                    "node {v}, world {i}: component {c} out of range"
                )));
            }
        }
    }

    Ok(CascadeIndex::from_parts(
        num_nodes,
        worlds,
        comp_matrix,
        max_comps,
        IndexConfig {
            num_worlds,
            seed,
            transitive_reduction: reduced[0] != 0,
            threads: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soi_graph::{gen, ProbGraph};

    fn sample_index() -> CascadeIndex {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(3);
        let pg = ProbGraph::fixed(gen::gnm(40, 160, &mut rng), 0.3).unwrap();
        CascadeIndex::build(
            &pg,
            IndexConfig {
                num_worlds: 8,
                seed: 5,
                ..IndexConfig::default()
            },
        )
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let index = sample_index();
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let loaded = load_index(&buf[..]).unwrap();
        assert_eq!(loaded.num_nodes(), index.num_nodes());
        assert_eq!(loaded.num_worlds(), index.num_worlds());
        assert_eq!(loaded.config().seed, index.config().seed);
        for v in 0..index.num_nodes() as u32 {
            assert_eq!(loaded.cascades_of(v), index.cascades_of(v), "node {v}");
        }
        // The hub closure is not stored: the load derives it again, and
        // saving the loaded index writes the same bytes.
        for i in 0..index.num_worlds() {
            let hub = |x: &CascadeIndex| x.world(i).chunk(crate::HUB_CLOSURE).to_vec();
            assert_eq!(hub(&loaded), hub(&index), "world {i}");
        }
        let mut again = Vec::new();
        save_index(&loaded, &mut again).unwrap();
        assert!(again == buf, "save(load(bytes)) != bytes");
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let index = sample_index();
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(load_index(&bad[..]), Err(LoadError::BadMagic)));
        let mut bad = buf.clone();
        bad[7] = 99;
        assert!(matches!(
            load_index(&bad[..]),
            Err(LoadError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let index = sample_index();
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        for cut in [10, buf.len() / 2, buf.len() - 1] {
            assert!(
                matches!(load_index(&buf[..cut]), Err(LoadError::Io(_))),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_corrupted_component_ids() {
        let index = sample_index();
        let mut buf = Vec::new();
        save_index(&index, &mut buf).unwrap();
        // The comp matrix is the last num_nodes*num_worlds u32s; blast one
        // to a huge value.
        let pos = buf.len() - 4;
        buf[pos..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(load_index(&buf[..]), Err(LoadError::Corrupt(_))));
    }

    #[test]
    fn empty_stream_fails_cleanly() {
        assert!(matches!(load_index(&b""[..]), Err(LoadError::Io(_))));
    }

    /// The transitive reduction of a DAG is unique, so however the kernel
    /// finds it the stored index is the same bytes: length, content hash
    /// and [`CascadeIndex::fingerprint`] below were recorded at commit
    /// e817c42 (bitset-closure reduction) — checkpoints and caches keyed
    /// on them stay valid across kernels.
    #[test]
    fn serialised_bytes_and_fingerprint_are_pinned() {
        let mut rng = soi_util::rng::Xoshiro256pp::seed_from_u64(11);
        let wc = ProbGraph::weighted_cascade(gen::barabasi_albert(600, 5, true, &mut rng));
        let supercritical = ProbGraph::fixed(gen::gnm(600, 3000, &mut rng), 0.3).unwrap();
        let got = [&wc, &supercritical].map(|pg| {
            let config = IndexConfig {
                num_worlds: 16,
                seed: 29,
                threads: 2,
                ..IndexConfig::default()
            };
            let index = CascadeIndex::build(pg, config);
            let mut buf = Vec::new();
            save_index(&index, &mut buf).unwrap();
            let bytes = soi_util::hash::hash_bytes(&buf);
            (buf.len(), bytes, index.fingerprint())
        });
        let pinned = [
            (0x3f239, 0x3e26_7a25_5d5f_5e47, 0xa731_8c4c_7e3d_6853),
            (0x32519, 0xf489_248b_edb6_bc00, 0x4745_6411_1710_acbb),
        ];
        assert_eq!(got, pinned, "got {got:#x?}");
    }
}
