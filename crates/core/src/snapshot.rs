//! Binary snapshot persistence for the Vertical Cuckoo Filter.
//!
//! Online services restart; a filter tracking millions of live items must
//! survive the restart without replaying its entire history. `snapshot`
//! serializes a [`VerticalCuckooFilter`] to a small, versioned, fully
//! self-describing byte format and restores it bit-exactly (table
//! contents, geometry, masks, seed). Operation counters are *not*
//! persisted — a restored filter starts with fresh statistics — and the
//! victim-selection RNG restarts from the configured seed, which affects
//! only future eviction choices, never correctness.
//!
//! Format (all little-endian):
//!
//! ```text
//! magic   u32   0x56434631  ("VCF1")
//! buckets u64
//! slots_per_bucket u8
//! fingerprint_bits u8
//! hash_kind        u8   (0 = FNV, 1 = Murmur3, 2 = DJB2)
//! mask_ones        u8   (one-bits in bm1)
//! max_kicks        u32
//! seed             u64
//! occupied         u64  (redundant; integrity check)
//! slot data        buckets × slots_per_bucket × u32
//! ```

use crate::bitmask::MaskPair;
use crate::config::CuckooConfig;
use crate::kvcf::KVcf;
use crate::vcf::VerticalCuckooFilter;
use vcf_hash::HashKind;
use vcf_traits::{BuildError, Filter};

/// Magic header: `"VCF1"`.
pub const MAGIC: u32 = 0x5643_4631;

/// Magic header for k-VCF snapshots: `"VCK1"`.
pub const MAGIC_KVCF: u32 = 0x5643_4B31;

/// Magic header for frozen binary-fuse generation records: `"FUZ1"`.
pub const MAGIC_FUSE: u32 = 0x4655_5A31;

/// Errors surfaced when restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The buffer is shorter than its header claims.
    Truncated,
    /// The magic number does not match (not a VCF snapshot, or a future
    /// incompatible version).
    BadMagic {
        /// The magic value found.
        found: u32,
    },
    /// A header field encodes an invalid configuration.
    BadConfig(BuildError),
    /// Slot data disagrees with the recorded occupancy count.
    OccupancyMismatch {
        /// Occupancy recorded in the header.
        recorded: u64,
        /// Occupancy counted from the slot data.
        counted: u64,
    },
    /// Payload bytes do not hash to the recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        recorded: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot buffer is truncated"),
            SnapshotError::BadMagic { found } => {
                write!(
                    f,
                    "bad snapshot magic {found:#010x} (expected {MAGIC:#010x})"
                )
            }
            SnapshotError::BadConfig(e) => write!(f, "snapshot encodes invalid config: {e}"),
            SnapshotError::OccupancyMismatch { recorded, counted } => {
                write!(
                    f,
                    "snapshot occupancy mismatch: header says {recorded}, data has {counted}"
                )
            }
            SnapshotError::ChecksumMismatch { recorded, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header says {recorded:#018x}, payload hashes to {computed:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<BuildError> for SnapshotError {
    fn from(e: BuildError) -> Self {
        SnapshotError::BadConfig(e)
    }
}

fn invalid(reason: String) -> SnapshotError {
    SnapshotError::BadConfig(BuildError::InvalidConfig { reason })
}

fn hash_kind_from(code: u8) -> Result<HashKind, SnapshotError> {
    HashKind::from_code(code).ok_or_else(|| invalid(format!("unknown hash kind code {code}")))
}

struct Reader<'a> {
    buffer: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let end = self.at.checked_add(N).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .buffer
            .get(self.at..end)
            .ok_or(SnapshotError::Truncated)?;
        self.at = end;
        // `get(at..end)` returned exactly N bytes, so the conversion
        // cannot fail; mapping keeps the decode path panic-free.
        slice.try_into().map_err(|_| SnapshotError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    /// Fails with [`SnapshotError::Truncated`] unless at least `len`
    /// bytes remain, so a header's claimed geometry is checked against
    /// the buffer before anything is allocated from it.
    fn require(&self, len: Option<usize>) -> Result<(), SnapshotError> {
        match len {
            Some(len) if self.buffer.len().saturating_sub(self.at) >= len => Ok(()),
            _ => Err(SnapshotError::Truncated),
        }
    }
}

impl VerticalCuckooFilter {
    /// Serializes the filter to a self-describing byte vector.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let buckets = self.buckets();
        let slots = self.slots_per_bucket();
        let mut out = Vec::with_capacity(40 + buckets * slots * 4);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(buckets as u64).to_le_bytes());
        out.push(slots as u8);
        out.push(self.fingerprint_bits() as u8);
        out.push(self.hash_kind().code());
        out.push(self.masks().ones() as u8);
        out.extend_from_slice(&self.max_kicks().to_le_bytes());
        out.extend_from_slice(&self.seed().to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for bucket in 0..buckets {
            for slot in 0..slots {
                let lane = self.table().get(bucket, slot);
                out.extend_from_slice(&self.table().fingerprint(lane).to_le_bytes());
            }
        }
        out
    }

    // lint: hot-path
    // lint: wire-format(decode)
    /// Restores a filter from [`VerticalCuckooFilter::to_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] for truncated buffers, foreign magic
    /// numbers, invalid geometry, or corrupted slot data.
    pub fn from_snapshot(buffer: &[u8]) -> Result<Self, SnapshotError> {
        let mut reader = Reader { buffer, at: 0 };
        let magic = reader.u32()?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let buckets = reader.u64()? as usize;
        let slots_per_bucket = usize::from(reader.u8()?);
        let fingerprint_bits = u32::from(reader.u8()?);
        let hash = hash_kind_from(reader.u8()?)?;
        let mask_ones = u32::from(reader.u8()?);
        let max_kicks = reader.u32()?;
        let seed = reader.u64()?;
        let recorded = reader.u64()?;

        let config = CuckooConfig {
            buckets,
            slots_per_bucket,
            fingerprint_bits,
            max_kicks,
            hash,
            seed,
        };
        config.validate()?;
        // The slot data is exactly `buckets × slots × 4` bytes; check it is
        // all there before the table is built.
        reader.require(
            buckets
                .checked_mul(slots_per_bucket)
                .and_then(|words| words.checked_mul(4)),
        )?;
        let masks = MaskPair::with_ones(mask_ones, fingerprint_bits)?;
        let label = if mask_ones == fingerprint_bits / 2 {
            "VCF".to_owned()
        } else {
            format!("IVCF{mask_ones}")
        };
        let mut filter = VerticalCuckooFilter::with_masks(config, masks, label)?;

        let mut counted = 0u64;
        for bucket in 0..buckets {
            for slot in 0..slots_per_bucket {
                let value = reader.u32()?;
                if u64::from(value) >> fingerprint_bits != 0 {
                    return Err(invalid(format!(
                        "bucket {bucket} slot {slot} is wider than {fingerprint_bits} bits"
                    )));
                }
                if value != 0 {
                    counted += 1;
                }
                filter.table_mut().set(bucket, slot, u64::from(value));
            }
        }
        if counted != recorded {
            return Err(SnapshotError::OccupancyMismatch { recorded, counted });
        }
        Ok(filter)
    }
}

impl KVcf {
    /// Serializes the k-VCF to a self-describing byte vector.
    ///
    /// Slot order within a bucket is not preserved (it carries no
    /// meaning); the multiset of `(fingerprint, mark)` entries per bucket
    /// is. The intermediate bitmasks are not stored — they regenerate
    /// deterministically from the recorded seed and `k`.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let table = self.table();
        let buckets = table.buckets();
        let slots = table.slots_per_bucket();
        let mut out = Vec::with_capacity(40 + self.len() * 5);
        out.extend_from_slice(&MAGIC_KVCF.to_le_bytes());
        out.extend_from_slice(&(buckets as u64).to_le_bytes());
        out.push(slots as u8);
        out.push(table.fingerprint_bits() as u8);
        out.push(self.hash_kind().code());
        out.push(self.k() as u8);
        out.extend_from_slice(&self.max_kicks().to_le_bytes());
        out.extend_from_slice(&self.seed().to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        let policy = self.policy();
        for bucket in 0..buckets {
            let lanes: Vec<u64> = (0..slots)
                .map(|slot| table.get(bucket, slot))
                .filter(|&lane| table.fingerprint(lane) != 0)
                .collect();
            out.push(lanes.len() as u8);
            for lane in lanes {
                out.extend_from_slice(&table.fingerprint(lane).to_le_bytes());
                // `k <= 255`: a mark fits its byte.
                out.push(policy.mark(lane) as u8);
            }
        }
        out
    }

    // lint: hot-path
    // lint: wire-format(decode)
    /// Restores a k-VCF from [`KVcf::to_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] for truncated buffers, foreign magic
    /// numbers, invalid geometry, or corrupted bucket data.
    pub fn from_snapshot(buffer: &[u8]) -> Result<Self, SnapshotError> {
        let mut reader = Reader { buffer, at: 0 };
        let magic = reader.u32()?;
        if magic != MAGIC_KVCF {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let buckets = reader.u64()? as usize;
        let slots_per_bucket = usize::from(reader.u8()?);
        let fingerprint_bits = u32::from(reader.u8()?);
        let hash = hash_kind_from(reader.u8()?)?;
        let k = usize::from(reader.u8()?);
        let max_kicks = reader.u32()?;
        let seed = reader.u64()?;
        let recorded = reader.u64()?;

        let config = CuckooConfig {
            buckets,
            slots_per_bucket,
            fingerprint_bits,
            max_kicks,
            hash,
            seed,
        };
        config.validate()?;
        // One count byte per bucket, even when the bucket is empty.
        reader.require(Some(buckets))?;
        let mut filter = KVcf::new(config, k)?;

        let mut counted = 0u64;
        for bucket in 0..buckets {
            let count = usize::from(reader.u8()?);
            if count > slots_per_bucket {
                return Err(invalid(format!("bucket {bucket} claims {count} entries")));
            }
            for _ in 0..count {
                let fingerprint = reader.u32()?;
                let mark = reader.u8()?;
                if fingerprint == 0
                    || u64::from(fingerprint) >> fingerprint_bits != 0
                    || u32::from(mark) >= k as u32
                {
                    return Err(invalid(format!("bucket {bucket} holds an invalid entry")));
                }
                // `count <= slots_per_bucket` leaves room for every entry.
                let lane = filter.policy().lane(fingerprint, usize::from(mark));
                filter
                    .table_mut()
                    .try_insert(bucket, lane)
                    .ok_or_else(|| invalid(format!("bucket {bucket} overflows")))?;
                counted += 1;
            }
        }
        if counted != recorded {
            return Err(SnapshotError::OccupancyMismatch { recorded, counted });
        }
        Ok(filter)
    }
}

/// A versioned, self-describing record of one frozen binary-fuse
/// generation — the `FUZ1` format.
///
/// The lane array is written **verbatim** (little-endian lane words), so
/// a restored generation is bit-exact: every query, including every
/// false positive, answers identically. The record carries everything
/// needed to re-derive the probe geometry (seed, segment layout) plus an
/// FNV-1a checksum over the lane bytes for corruption detection —
/// groundwork for the durability tier's snapshot files without pulling
/// in WAL scope.
///
/// Layout (all little-endian):
///
/// ```text
/// magic                u32  0x46555A31 ("FUZ1")
/// lane_bits            u8   (8 or 16)
/// seed                 u64
/// segment_length       u32  (power of two)
/// segment_count_length u32
/// array_length         u32  (total lanes)
/// keys                 u64  (distinct canonical keys frozen)
/// checksum             u64  (FNV-1a over the lane bytes)
/// lanes                array_length × lane_bits/8 bytes, verbatim
/// ```
///
/// The concrete fuse type lives in `vcf-sketches` (which depends on this
/// crate); the record is defined here so every on-disk format — `VCF1`,
/// `VCK1`, `FUZ1` — shares one home, one error type and one reader
/// discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuseRecord {
    /// Lane width in bits (8 or 16).
    pub lane_bits: u32,
    /// Hash seed the generation was built with.
    pub seed: u64,
    /// Segment length (power of two).
    pub segment_length: u32,
    /// `segment_count × segment_length` — the window-start range.
    pub segment_count_length: u32,
    /// Total number of lanes.
    pub array_length: u32,
    /// Distinct canonical keys frozen into the generation.
    pub keys: u64,
    /// Lane words, packed little-endian (`array_length × lane_bits/8`
    /// bytes).
    pub lanes: Vec<u8>,
}

impl FuseRecord {
    /// Checksum of the lane payload: FNV-1a, matching the workspace's
    /// from-scratch hash crate.
    fn checksum_of(lanes: &[u8]) -> u64 {
        HashKind::Fnv1a.hash64(lanes)
    }

    /// Serializes the record to `FUZ1` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(41 + self.lanes.len());
        out.extend_from_slice(&MAGIC_FUSE.to_le_bytes());
        out.push(self.lane_bits as u8);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.segment_length.to_le_bytes());
        out.extend_from_slice(&self.segment_count_length.to_le_bytes());
        out.extend_from_slice(&self.array_length.to_le_bytes());
        out.extend_from_slice(&self.keys.to_le_bytes());
        out.extend_from_slice(&Self::checksum_of(&self.lanes).to_le_bytes());
        out.extend_from_slice(&self.lanes);
        out
    }

    // lint: hot-path
    // lint: wire-format(decode)
    /// Restores a record from [`FuseRecord::encode`] bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] for truncated buffers, foreign magic
    /// numbers, inconsistent geometry, or a checksum mismatch.
    pub fn decode(buffer: &[u8]) -> Result<Self, SnapshotError> {
        let mut reader = Reader { buffer, at: 0 };
        let magic = reader.u32()?;
        if magic != MAGIC_FUSE {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let lane_bits = u32::from(reader.u8()?);
        let seed = reader.u64()?;
        let segment_length = reader.u32()?;
        let segment_count_length = reader.u32()?;
        let array_length = reader.u32()?;
        let keys = reader.u64()?;
        let recorded = reader.u64()?;

        if lane_bits != 8 && lane_bits != 16 {
            return Err(invalid(format!(
                "unsupported fuse lane width {lane_bits} bits"
            )));
        }
        if array_length > 0 && (!segment_length.is_power_of_two() || segment_count_length == 0) {
            return Err(invalid(format!(
                "inconsistent fuse geometry: segment_length {segment_length}, \
                 segment_count_length {segment_count_length}"
            )));
        }
        let lane_bytes = array_length as usize * (lane_bits as usize / 8);
        let end = reader
            .at
            .checked_add(lane_bytes)
            .ok_or(SnapshotError::Truncated)?;
        let lanes = reader
            .buffer
            .get(reader.at..end)
            .ok_or(SnapshotError::Truncated)?
            .to_vec();
        let computed = Self::checksum_of(&lanes);
        if computed != recorded {
            return Err(SnapshotError::ChecksumMismatch { recorded, computed });
        }
        Ok(Self {
            lane_bits,
            seed,
            segment_length,
            segment_count_length,
            array_length,
            keys,
            lanes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_traits::Filter;

    fn key(i: u64) -> Vec<u8> {
        format!("snap-{i}").into_bytes()
    }

    fn loaded_filter() -> VerticalCuckooFilter {
        let mut f = VerticalCuckooFilter::new(
            CuckooConfig::new(1 << 8)
                .with_seed(33)
                .with_hash(HashKind::Murmur3),
        )
        .unwrap();
        for i in 0..900 {
            let _ = f.insert(&key(i));
        }
        f
    }

    #[test]
    fn roundtrip_preserves_membership_exactly() {
        let original = loaded_filter();
        let bytes = original.to_snapshot();
        let restored = VerticalCuckooFilter::from_snapshot(&bytes).unwrap();
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.buckets(), original.buckets());
        assert_eq!(restored.fingerprint_bits(), original.fingerprint_bits());
        // Bit-exact table: every key answers identically, including the
        // false positives.
        for i in 0..5000u64 {
            assert_eq!(
                restored.contains(&key(i)),
                original.contains(&key(i)),
                "membership diverged for {i}"
            );
        }
    }

    #[test]
    fn restored_filter_keeps_working() {
        let original = loaded_filter();
        let mut restored = VerticalCuckooFilter::from_snapshot(&original.to_snapshot()).unwrap();
        // Delete and insert after restore.
        assert!(restored.delete(&key(0)));
        restored.insert(b"fresh-after-restore").unwrap();
        assert!(restored.contains(b"fresh-after-restore"));
    }

    #[test]
    fn ivcf_label_roundtrip() {
        let mut f = VerticalCuckooFilter::with_mask_ones(CuckooConfig::new(1 << 6), 3).unwrap();
        f.insert(b"x").unwrap();
        let restored = VerticalCuckooFilter::from_snapshot(&f.to_snapshot()).unwrap();
        assert_eq!(restored.name(), "IVCF3");
        assert!(restored.contains(b"x"));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = loaded_filter().to_snapshot();
        bytes[0] ^= 0xff;
        assert!(matches!(
            VerticalCuckooFilter::from_snapshot(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = loaded_filter().to_snapshot();
        for cut in [0, 3, 4, 20, 34, bytes.len() - 1] {
            assert!(
                VerticalCuckooFilter::from_snapshot(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn detects_corrupted_slot_data() {
        let filter = loaded_filter();
        let mut bytes = filter.to_snapshot();
        // Zero a non-empty slot in the payload: occupancy check trips.
        let payload_start = 36;
        let position = (payload_start..bytes.len() - 4)
            .step_by(4)
            .find(|&p| bytes[p..p + 4] != [0, 0, 0, 0])
            .expect("some occupied slot");
        bytes[position..position + 4].copy_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            VerticalCuckooFilter::from_snapshot(&bytes),
            Err(SnapshotError::OccupancyMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_size_is_predictable() {
        let filter = VerticalCuckooFilter::new(CuckooConfig::new(1 << 6)).unwrap();
        let bytes = filter.to_snapshot();
        assert_eq!(bytes.len(), 36 + (1 << 6) * 4 * 4);
    }

    /// Overwrites the header's `buckets` field (bytes 4..12, shared by
    /// `VCF1` and `VCK1`) and cuts the buffer to `len` bytes.
    fn claim_buckets(mut bytes: Vec<u8>, buckets: u64, len: usize) -> Vec<u8> {
        bytes[4..12].copy_from_slice(&buckets.to_le_bytes());
        bytes.truncate(len);
        bytes
    }

    #[test]
    fn rejects_bucket_counts_the_payload_cannot_hold() {
        let bytes = VerticalCuckooFilter::new(CuckooConfig::new(1 << 6))
            .unwrap()
            .to_snapshot();
        // 2^40 buckets would allocate 8 TiB; 2^62 overflows the byte count.
        for buckets in [1u64 << 40, 1 << 62] {
            assert_eq!(
                VerticalCuckooFilter::from_snapshot(&claim_buckets(bytes.clone(), buckets, 40))
                    .unwrap_err(),
                SnapshotError::Truncated,
                "{buckets} buckets"
            );
        }
        // One bucket short of the payload is truncated too.
        assert_eq!(
            VerticalCuckooFilter::from_snapshot(&bytes[..bytes.len() - 16]).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn rejects_slot_words_wider_than_the_fingerprint() {
        let mut bytes = VerticalCuckooFilter::new(CuckooConfig::new(1 << 6))
            .unwrap()
            .to_snapshot();
        // Record one stored fingerprint whose word has bit 14 set.
        bytes[28..36].copy_from_slice(&1u64.to_le_bytes());
        bytes[36..40].copy_from_slice(&(1u32 << 14).to_le_bytes());
        assert!(matches!(
            VerticalCuckooFilter::from_snapshot(&bytes),
            Err(SnapshotError::BadConfig(_))
        ));
    }

    fn loaded_kvcf() -> KVcf {
        let config = CuckooConfig::new(1 << 7)
            .with_fingerprint_bits(16)
            .with_seed(77);
        let mut f = KVcf::new(config, 6).unwrap();
        for i in 0..450u64 {
            let _ = f.insert(format!("ksnap-{i}").as_bytes());
        }
        f
    }

    #[test]
    fn kvcf_roundtrip_preserves_membership() {
        let original = loaded_kvcf();
        let restored = KVcf::from_snapshot(&original.to_snapshot()).unwrap();
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.k(), 6);
        for i in 0..2000u64 {
            let key = format!("ksnap-{i}").into_bytes();
            assert_eq!(
                restored.contains(&key),
                original.contains(&key),
                "membership diverged for {i}"
            );
        }
    }

    #[test]
    fn kvcf_restored_keeps_working() {
        let original = loaded_kvcf();
        let mut restored = KVcf::from_snapshot(&original.to_snapshot()).unwrap();
        assert!(restored.delete(b"ksnap-0"));
        restored.insert(b"fresh-kvcf").unwrap();
        assert!(restored.contains(b"fresh-kvcf"));
    }

    #[test]
    fn kvcf_magic_is_checked_both_ways() {
        let vcf_bytes = loaded_filter().to_snapshot();
        assert!(matches!(
            KVcf::from_snapshot(&vcf_bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
        let kvcf_bytes = loaded_kvcf().to_snapshot();
        assert!(matches!(
            VerticalCuckooFilter::from_snapshot(&kvcf_bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn kvcf_rejects_bucket_counts_the_payload_cannot_hold() {
        let bytes = loaded_kvcf().to_snapshot();
        assert_eq!(
            KVcf::from_snapshot(&claim_buckets(bytes, 1 << 40, 40)).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn kvcf_rejects_fingerprints_wider_than_the_table() {
        let empty = KVcf::new(CuckooConfig::new(1 << 6).with_fingerprint_bits(16), 6)
            .unwrap()
            .to_snapshot();
        // Bucket 0 claims one entry whose fingerprint has bit 16 set.
        let mut bytes = empty[..36].to_vec();
        bytes[28..36].copy_from_slice(&1u64.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&(1u32 << 16).to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&empty[37..]);
        assert!(matches!(
            KVcf::from_snapshot(&bytes),
            Err(SnapshotError::BadConfig(_))
        ));
    }

    #[test]
    fn kvcf_rejects_corrupted_entries() {
        let mut bytes = loaded_kvcf().to_snapshot();
        // Find the first non-empty bucket's count byte and inflate it.
        let mut at = 36;
        while bytes[at] == 0 {
            at += 1;
        }
        bytes[at] = 9; // count > slots_per_bucket
        assert!(KVcf::from_snapshot(&bytes).is_err());
    }

    fn sample_fuse_record() -> FuseRecord {
        FuseRecord {
            lane_bits: 8,
            seed: 0xfeed_beef_dead_cafe,
            segment_length: 64,
            segment_count_length: 256,
            array_length: 384,
            keys: 300,
            lanes: (0..384u32)
                .map(|i| (i.wrapping_mul(37) >> 2) as u8)
                .collect(),
        }
    }

    #[test]
    fn fuse_record_round_trips_bit_exactly() {
        let record = sample_fuse_record();
        let bytes = record.encode();
        let back = FuseRecord::decode(&bytes).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn fuse_record_sixteen_bit_lanes_round_trip() {
        let mut record = sample_fuse_record();
        record.lane_bits = 16;
        record.lanes = (0..768u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        let back = FuseRecord::decode(&record.encode()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn fuse_record_rejects_foreign_magic() {
        let bytes = loaded_filter().to_snapshot();
        assert!(matches!(
            FuseRecord::decode(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
        let fuse_bytes = sample_fuse_record().encode();
        assert!(matches!(
            VerticalCuckooFilter::from_snapshot(&fuse_bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn fuse_record_rejects_flipped_lane_bit() {
        let record = sample_fuse_record();
        let mut bytes = record.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10; // corrupt one lane word
        assert!(matches!(
            FuseRecord::decode(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn fuse_record_rejects_truncation_and_bad_geometry() {
        let record = sample_fuse_record();
        let bytes = record.encode();
        assert!(matches!(
            FuseRecord::decode(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated)
        ));

        let mut odd = record.clone();
        odd.lane_bits = 12;
        assert!(matches!(
            FuseRecord::decode(&odd.encode()),
            Err(SnapshotError::BadConfig(_))
        ));

        let mut skew = record;
        skew.segment_length = 48; // not a power of two
        assert!(matches!(
            FuseRecord::decode(&skew.encode()),
            Err(SnapshotError::BadConfig(_))
        ));
    }

    #[test]
    fn fuse_record_checksum_error_is_descriptive() {
        let recorded = 0x1111;
        let computed = 0x2222;
        let text = SnapshotError::ChecksumMismatch { recorded, computed }.to_string();
        assert!(text.contains("checksum"), "got: {text}");
    }
}
