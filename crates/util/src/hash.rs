//! Streaming 64-bit hashing built on the workspace mixer.
//!
//! [`Mix64Hasher`] chains [`crate::rng::mix64`] (the SplitMix64 finalizer
//! that already backs seed derivation) over
//! 8-byte little-endian chunks. It is **not** cryptographic; it exists to
//! fingerprint inputs (graphs, configs) and to detect corruption in
//! checkpoint files, where an adversary is not part of the threat model
//! but bit flips and truncation are.
//!
//! The digest is a pure function of the byte stream (chunk boundaries do
//! not matter) and of its length, so `"ab" + "c"` and `"a" + "bc"` agree
//! while `"abc"` and `"abc\0"` do not.

use crate::rng::mix64;

/// Incremental hasher over a byte stream; see the module docs.
#[derive(Clone, Debug)]
pub struct Mix64Hasher {
    state: u64,
    /// Partial chunk buffer (< 8 bytes) awaiting completion.
    pending: [u8; 8],
    pending_len: usize,
    total_len: u64,
}

impl Mix64Hasher {
    /// Creates a hasher with a fixed, documented initial state.
    pub fn new() -> Self {
        Mix64Hasher {
            // An arbitrary non-zero constant (digits of φ) so that the
            // empty stream does not hash to mix64(0).
            state: 0x9E37_79B9_7F4A_7C15,
            pending: [0; 8],
            pending_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        let mut rest = bytes;
        // Top up a partial chunk first.
        if self.pending_len > 0 {
            let need = 8 - self.pending_len;
            let take = need.min(rest.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&rest[..take]);
            self.pending_len += take;
            rest = &rest[take..];
            if self.pending_len < 8 {
                return; // chunk still incomplete; keep accumulating
            }
            self.absorb(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut chunks = rest.chunks_exact(8);
        for c in &mut chunks {
            #[expect(clippy::expect_used, reason = "chunks_exact(8) yields exactly 8 bytes")]
            self.absorb(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// Convenience: absorbs a `u64` as its little-endian bytes.
    pub fn update_u64(&mut self, x: u64) {
        self.update(&x.to_le_bytes());
    }

    #[inline]
    fn absorb(&mut self, chunk: u64) {
        self.state = mix64(self.state ^ chunk).wrapping_add(chunk.rotate_left(32));
    }

    /// Finishes the digest (zero-padding any partial chunk and folding in
    /// the stream length). The hasher may keep absorbing afterwards; the
    /// digest is a snapshot.
    pub fn finish(&self) -> u64 {
        let mut state = self.state;
        if self.pending_len > 0 {
            let mut last = [0u8; 8];
            last[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            let chunk = u64::from_le_bytes(last);
            state = mix64(state ^ chunk).wrapping_add(chunk.rotate_left(32));
        }
        mix64(state ^ self.total_len)
    }
}

impl Default for Mix64Hasher {
    fn default() -> Self {
        Mix64Hasher::new()
    }
}

/// One-shot digest of a byte slice.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Mix64Hasher::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_chunkings() {
        let data: Vec<u8> = (0u8..=255).collect();
        let whole = hash_bytes(&data);
        for split in [1usize, 3, 7, 8, 13, 64, 255] {
            let mut h = Mix64Hasher::new();
            for c in data.chunks(split) {
                h.update(c);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn length_is_part_of_the_digest() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abc\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"\0\0\0\0\0\0\0\0"), hash_bytes(b"\0\0\0\0"));
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let mut data = vec![0u8; 64];
        let base = hash_bytes(&data);
        for byte in [0usize, 7, 8, 31, 63] {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(hash_bytes(&data), base, "byte {byte} bit {bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn update_u64_matches_le_bytes() {
        let mut a = Mix64Hasher::new();
        a.update_u64(0xDEAD_BEEF_0BAD_F00D);
        let mut b = Mix64Hasher::new();
        b.update(&0xDEAD_BEEF_0BAD_F00Du64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn finish_is_a_snapshot() {
        let mut h = Mix64Hasher::new();
        h.update(b"abc");
        let first = h.finish();
        assert_eq!(h.finish(), first);
        h.update(b"d");
        assert_ne!(h.finish(), first);
    }
}
