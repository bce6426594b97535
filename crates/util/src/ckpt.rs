//! Versioned, checksummed checkpoint files.
//!
//! Long pipelines persist progress every N units of work so a crashed run
//! can resume from the last checkpoint instead of starting over. The
//! container is deliberately boring and fully self-describing:
//!
//! ```text
//! offset  size  field
//! 0       7     magic  "SOICKPT"
//! 7       1     format version (currently 1)
//! 8       1     kind (1 = typical cascades, 2 = greedy seed selection,
//!                     3 = sketch build, 4 = router overrides,
//!                     5 = sphere bounds)
//! 9       8     graph fingerprint   (LE u64)
//! 17      8     config fingerprint  (LE u64)
//! 25      8     total units of work (LE u64)
//! 33      8     units completed     (LE u64)
//! 41      8     payload length      (LE u64)
//! 49      n     payload (pipeline-specific codec)
//! 49+n    8     checksum (LE u64, Mix64 digest of all preceding bytes)
//! ```
//!
//! Writes are atomic (tmp file + rename) so a crash mid-write leaves
//! either the previous checkpoint or none — never a torn file that could
//! poison a resume. Reads validate structure, version, kind, and checksum
//! and surface each corruption mode as a distinct [`SoiError`] variant;
//! [`Checkpoint::validate`] additionally pins the checkpoint to the
//! resuming run's graph/config fingerprints.

use std::path::Path;

use crate::error::SoiError;
use crate::hash::Mix64Hasher;

/// File magic; anything else is [`SoiError::CkptBadMagic`].
pub const MAGIC: &[u8; 7] = b"SOICKPT";
/// The checkpoint format version this build writes and reads.
pub const VERSION: u8 = 1;
/// Kind byte for `all_typical_cascades` checkpoints.
pub const KIND_TYPICAL_CASCADES: u8 = 1;
/// Kind byte for greedy/CELF seed-selection checkpoints.
pub const KIND_GREEDY: u8 = 2;
/// Kind byte for bottom-k reachability sketch build checkpoints.
pub const KIND_SKETCH_BUILD: u8 = 3;
/// Kind byte for the router's persisted rebalance-override table.
pub const KIND_ROUTER_OVERRIDES: u8 = 4;
/// Kind byte for the sphere store's bounds pass (`infmax --method tc`).
pub const KIND_SPHERE_BOUNDS: u8 = 5;

const HEADER_LEN: usize = 7 + 1 + 1 + 8 * 5;

/// An in-memory checkpoint: header fields plus an opaque payload owned by
/// the pipeline's own codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Pipeline kind ([`KIND_TYPICAL_CASCADES`], [`KIND_GREEDY`],
    /// [`KIND_SKETCH_BUILD`], [`KIND_ROUTER_OVERRIDES`] or
    /// [`KIND_SPHERE_BOUNDS`]).
    pub kind: u8,
    /// Fingerprint of the graph the run operates on.
    pub graph_fingerprint: u64,
    /// Fingerprint of run configuration that must match to resume
    /// (seed, k, thresholds — whatever the pipeline folds in).
    pub config_fingerprint: u64,
    /// Total units of work in the full computation.
    pub total_units: u64,
    /// Units completed at the time of the checkpoint.
    pub done_units: u64,
    /// Pipeline-specific serialized progress.
    pub payload: Vec<u8>,
}

impl Checkpoint {
    /// Serializes to the on-disk layout (including trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + 8);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.kind);
        out.extend_from_slice(&self.graph_fingerprint.to_le_bytes());
        out.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        out.extend_from_slice(&self.total_units.to_le_bytes());
        out.extend_from_slice(&self.done_units.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let mut h = Mix64Hasher::new();
        h.update(&out);
        out.extend_from_slice(&h.finish().to_le_bytes());
        out
    }

    /// Parses and verifies the on-disk layout. Checks structure first
    /// (magic, version, lengths), then the checksum over everything the
    /// declared structure covers, so each corruption mode maps to one
    /// specific error variant.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, SoiError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(7, "magic")?;
        if magic != MAGIC {
            return Err(SoiError::CkptBadMagic);
        }
        let version = r.u8("version")?;
        if version != VERSION {
            return Err(SoiError::CkptBadVersion {
                found: version,
                expected: VERSION,
            });
        }
        let kind = r.u8("kind")?;
        let graph_fingerprint = r.u64("graph fingerprint")?;
        let config_fingerprint = r.u64("config fingerprint")?;
        let total_units = r.u64("total units")?;
        let done_units = r.u64("done units")?;
        let payload_len = r.u64("payload length")?;
        let payload_len = usize::try_from(payload_len).map_err(|_| SoiError::CkptTruncated {
            context: "payload length exceeds address space".to_string(),
        })?;
        let payload = r.take(payload_len, "payload")?.to_vec();
        let checked_len = bytes.len() - r.remaining().len();
        let stored = r.u64("checksum")?;
        let mut h = Mix64Hasher::new();
        h.update(&bytes[..checked_len]);
        let computed = h.finish();
        if stored != computed {
            return Err(SoiError::CkptChecksum { stored, computed });
        }
        Ok(Checkpoint {
            kind,
            graph_fingerprint,
            config_fingerprint,
            total_units,
            done_units,
            payload,
        })
    }

    /// Verifies this checkpoint belongs to the resuming run: right
    /// pipeline kind, same graph, same configuration.
    pub fn validate(
        &self,
        expected_kind: u8,
        graph_fingerprint: u64,
        config_fingerprint: u64,
    ) -> Result<(), SoiError> {
        if self.kind != expected_kind {
            return Err(SoiError::CkptBadKind {
                found: self.kind,
                expected: expected_kind,
            });
        }
        if self.graph_fingerprint != graph_fingerprint {
            return Err(SoiError::CkptMismatch {
                field: "graph_fingerprint",
                stored: self.graph_fingerprint,
                expected: graph_fingerprint,
            });
        }
        if self.config_fingerprint != config_fingerprint {
            return Err(SoiError::CkptMismatch {
                field: "config_fingerprint",
                stored: self.config_fingerprint,
                expected: config_fingerprint,
            });
        }
        Ok(())
    }
}

/// Writes a checkpoint atomically: encode, write to `<path>.tmp`, fsync,
/// rename over `path`. A crash at any point leaves the previous
/// checkpoint (or no file) intact.
pub fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> Result<(), SoiError> {
    let bytes = ckpt.encode();
    let tmp = path.with_extension("tmp");
    crate::failpoint!("ckpt.write.tmp");
    {
        use std::io::Write as _;
        let mut f =
            std::fs::File::create(&tmp).map_err(|e| SoiError::io(tmp.display().to_string(), e))?;
        f.write_all(&bytes)
            .map_err(|e| SoiError::io(tmp.display().to_string(), e))?;
        f.sync_all()
            .map_err(|e| SoiError::io(tmp.display().to_string(), e))?;
    }
    crate::failpoint!("ckpt.write.rename");
    std::fs::rename(&tmp, path).map_err(|e| SoiError::io(path.display().to_string(), e))?;
    Ok(())
}

/// Reads and fully verifies a checkpoint file, requiring `expected_kind`.
/// Fingerprint validation is left to the caller (via
/// [`Checkpoint::validate`]) because it needs the run's own fingerprints.
pub fn read_checkpoint(path: &Path, expected_kind: u8) -> Result<Checkpoint, SoiError> {
    let bytes = std::fs::read(path).map_err(|e| SoiError::io(path.display().to_string(), e))?;
    let ckpt = Checkpoint::decode(&bytes)?;
    if ckpt.kind != expected_kind {
        return Err(SoiError::CkptBadKind {
            found: ckpt.kind,
            expected: expected_kind,
        });
    }
    Ok(ckpt)
}

/// A bounds-checked little-endian cursor for decoding checkpoint payloads
/// without panicking on truncated input.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for sequential reads.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes }
    }

    /// Takes the next `n` bytes, or a truncation error naming `what`.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SoiError> {
        if self.bytes.len() < n {
            return Err(SoiError::CkptTruncated {
                context: format!("reading {what}: need {n} bytes, have {}", self.bytes.len()),
            });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, SoiError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, SoiError> {
        let b = self.take(8, what)?;
        #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes")]
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte read")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, SoiError> {
        let b = self.take(4, what)?;
        #[expect(clippy::expect_used, reason = "take(4) returned exactly 4 bytes")]
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte read")))
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64, SoiError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> &'a [u8] {
        self.bytes
    }

    /// Errors unless every byte was consumed (guards against payloads
    /// from a different codec version that happen to parse).
    pub fn expect_end(&self, what: &str) -> Result<(), SoiError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(SoiError::Invalid(format!(
                "{what}: {} trailing bytes after payload",
                self.bytes.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            kind: KIND_TYPICAL_CASCADES,
            graph_fingerprint: 0x1111_2222_3333_4444,
            config_fingerprint: 0x5555_6666_7777_8888,
            total_units: 100,
            done_units: 40,
            payload: (0u8..64).collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample();
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn empty_payload_round_trips() {
        let c = Checkpoint {
            payload: Vec::new(),
            ..sample()
        };
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(SoiError::CkptBadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_detected() {
        let mut bytes = sample().encode();
        bytes[7] = VERSION + 1;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(SoiError::CkptBadVersion { found, expected })
                if found == VERSION + 1 && expected == VERSION
        ));
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, SoiError::CkptTruncated { .. } | SoiError::CkptBadMagic),
                "len {len}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().encode();
        // Flip one bit per byte across the whole file; any flip must be
        // rejected (as a checksum error or a structural one).
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1;
            assert!(
                Checkpoint::decode(&corrupt).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_error() {
        let mut bytes = sample().encode();
        let payload_start = bytes.len() - 8 - 64;
        bytes[payload_start + 5] ^= 0x10;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(SoiError::CkptChecksum { .. })
        ));
    }

    #[test]
    fn validate_pins_kind_and_fingerprints() {
        let c = sample();
        c.validate(
            KIND_TYPICAL_CASCADES,
            c.graph_fingerprint,
            c.config_fingerprint,
        )
        .unwrap();
        assert!(matches!(
            c.validate(KIND_GREEDY, c.graph_fingerprint, c.config_fingerprint),
            Err(SoiError::CkptBadKind { .. })
        ));
        assert!(matches!(
            c.validate(KIND_TYPICAL_CASCADES, 0, c.config_fingerprint),
            Err(SoiError::CkptMismatch {
                field: "graph_fingerprint",
                ..
            })
        ));
        assert!(matches!(
            c.validate(KIND_TYPICAL_CASCADES, c.graph_fingerprint, 0),
            Err(SoiError::CkptMismatch {
                field: "config_fingerprint",
                ..
            })
        ));
    }

    #[test]
    fn write_read_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("soi-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let c = sample();
        write_checkpoint(&path, &c).unwrap();
        assert_eq!(read_checkpoint(&path, KIND_TYPICAL_CASCADES).unwrap(), c);
        assert!(matches!(
            read_checkpoint(&path, KIND_GREEDY),
            Err(SoiError::CkptBadKind { .. })
        ));
        // No stray tmp file left behind.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(debug_assertions)] // arms a failpoint; the sites compile out in release
    #[test]
    fn write_is_atomic_under_injected_faults() {
        use crate::failpoint;
        let dir = std::env::temp_dir().join(format!("soi-ckpt-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let first = sample();
        write_checkpoint(&path, &first).unwrap();
        let second = Checkpoint {
            done_units: 80,
            ..sample()
        };
        let _g = failpoint::test_guard();
        for site in ["ckpt.write.tmp", "ckpt.write.rename"] {
            failpoint::install(&format!("{site}=error")).unwrap();
            let err = write_checkpoint(&path, &second).unwrap_err();
            assert!(matches!(err, SoiError::Fault { .. }), "{site}: {err:?}");
            failpoint::clear();
            // The previous checkpoint must still read back intact.
            assert_eq!(
                read_checkpoint(&path, KIND_TYPICAL_CASCADES).unwrap(),
                first,
                "fault at {site} damaged the existing checkpoint"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_reader_reads_and_bounds_checks() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        buf.push(9);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u64("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 3);
        assert_eq!(r.f64("c").unwrap(), 1.5);
        assert!(r.expect_end("payload").is_err());
        assert_eq!(r.u8("d").unwrap(), 9);
        r.expect_end("payload").unwrap();
        assert!(matches!(
            r.u8("past end"),
            Err(SoiError::CkptTruncated { .. })
        ));
    }
}
