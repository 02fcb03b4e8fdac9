//! From-scratch implementations of the hash functions used by the paper's
//! evaluation (Section VI, Table IV): **FNV**, **MurmurHash3** and
//! **DJBHash**, plus the **SplitMix64** finalizer used internally for
//! fingerprint mixing and seeding.
//!
//! The Vertical Cuckoo filter paper benchmarks every filter under each of
//! these functions, so they are first-class substrates here rather than
//! external dependencies. All implementations are pure safe Rust, verified
//! against published test vectors where such vectors exist.
//!
//! # Examples
//!
//! ```
//! use vcf_hash::HashKind;
//!
//! let h = HashKind::Fnv1a.hash64(b"hello world");
//! assert_ne!(h, HashKind::Djb2.hash64(b"hello world"));
//! ```

#![forbid(unsafe_code)]

pub mod djb2;
pub mod fnv;
pub mod murmur3;
pub mod splitmix;

pub use djb2::djb2_64;
pub use fnv::{fnv1_32, fnv1_64, fnv1a_32, fnv1a_64};
pub use murmur3::{murmur3_x64_128, murmur3_x64_64, murmur3_x86_32};
pub use splitmix::{mix64, SplitMix64};

/// Selects which byte-string hash function a filter uses.
///
/// Matches the three functions compared in the paper's Table IV. The
/// default is [`HashKind::Fnv1a`], mirroring the paper's main experimental
/// setup ("The hash function used in our experiments is FNV hash").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HashKind {
    /// FNV-1a, 64-bit variant — the paper's default.
    #[default]
    Fnv1a,
    /// MurmurHash3, x64 128-bit variant truncated to 64 bits.
    Murmur3,
    /// Bernstein's DJB2 accumulated into 64 bits.
    Djb2,
}

impl HashKind {
    /// All supported hash kinds, in Table IV order.
    pub const ALL: [HashKind; 3] = [HashKind::Fnv1a, HashKind::Murmur3, HashKind::Djb2];

    /// Hashes `data` to a 64-bit value with this function.
    ///
    /// # Examples
    ///
    /// ```
    /// use vcf_hash::HashKind;
    /// assert_eq!(HashKind::Fnv1a.hash64(b""), 0xcbf2_9ce4_8422_2325);
    /// ```
    #[inline]
    pub fn hash64(self, data: &[u8]) -> u64 {
        match self {
            HashKind::Fnv1a => fnv1a_64(data),
            HashKind::Murmur3 => murmur3_x64_64(data, 0),
            HashKind::Djb2 => djb2_64(data),
        }
    }

    /// Hashes a fingerprint value (as stored in a cuckoo slot) to 64 bits.
    ///
    /// This is the `hash(η_x)` of the paper's Equ. 1/3: the value whose
    /// masked fragments index the alternate candidate buckets. The
    /// fingerprint is hashed as its 4-byte little-endian encoding, so the
    /// result depends only on the stored fingerprint — never on the
    /// original key — which is exactly the property partial-key cuckoo
    /// hashing and vertical hashing rely on.
    #[inline]
    pub fn hash_fingerprint(self, fingerprint: u32) -> u64 {
        self.hash64(&fingerprint.to_le_bytes())
    }

    /// Stable numeric code for serialization (see `from_code`).
    pub fn code(self) -> u8 {
        match self {
            HashKind::Fnv1a => 0,
            HashKind::Murmur3 => 1,
            HashKind::Djb2 => 2,
        }
    }

    /// Inverse of [`HashKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<HashKind> {
        match code {
            0 => Some(HashKind::Fnv1a),
            1 => Some(HashKind::Murmur3),
            2 => Some(HashKind::Djb2),
            _ => None,
        }
    }

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            HashKind::Fnv1a => "FNV",
            HashKind::Murmur3 => "Murmur3",
            HashKind::Djb2 => "DJB2",
        }
    }
}

impl core::fmt::Display for HashKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_disagree_on_typical_input() {
        let data = b"vertical cuckoo filter";
        let h: Vec<u64> = HashKind::ALL.iter().map(|k| k.hash64(data)).collect();
        assert_ne!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
        assert_ne!(h[1], h[2]);
    }

    #[test]
    fn hash_fingerprint_depends_only_on_fingerprint() {
        for kind in HashKind::ALL {
            assert_eq!(kind.hash_fingerprint(42), kind.hash_fingerprint(42));
            assert_ne!(kind.hash_fingerprint(42), kind.hash_fingerprint(43));
        }
    }

    #[test]
    fn default_is_fnv() {
        assert_eq!(HashKind::default(), HashKind::Fnv1a);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(HashKind::Fnv1a.to_string(), "FNV");
        assert_eq!(HashKind::Murmur3.to_string(), "Murmur3");
        assert_eq!(HashKind::Djb2.to_string(), "DJB2");
    }

    #[test]
    fn code_roundtrip() {
        for kind in HashKind::ALL {
            assert_eq!(HashKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(HashKind::from_code(200), None);
    }

    #[test]
    fn hash64_is_deterministic() {
        for kind in HashKind::ALL {
            assert_eq!(kind.hash64(b"abc"), kind.hash64(b"abc"));
        }
    }
}
