//! The Differentiated Vertical Cuckoo Filter (Section IV-B).

use crate::bitmask::MaskPair;
use crate::config::CuckooConfig;
use crate::key;
use crate::vertical::VerticalParams;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vcf_hash::HashKind;
use vcf_table::FingerprintTable;
use vcf_traits::{BuildError, Counters, Filter, InsertError, Stats};

/// The Differentiated VCF: a *continuous* trade-off between CF and VCF.
///
/// DVCF splits the fingerprint value range `[0, T)` (`T = 2^f`) at a
/// threshold `Δt`: fingerprints inside `In₁ = [T/2 − Δt, T/2 + Δt]`
/// receive **four** candidate buckets by vertical hashing (Equ. 3), all
/// others receive **two** candidates by plain partial-key hashing
/// (Equ. 1). The fraction of four-candidate items is
///
/// ```text
/// p = 2Δt / T           (Equ. 9)
/// ```
///
/// so `Δt` tunes `r = p` continuously where IVCF can only hit the discrete
/// ladder of Equ. 8 — at the cost of one extra interval judgment on every
/// operation (Algorithms 4–6).
///
/// # Examples
///
/// ```
/// use vcf_core::{CuckooConfig, Dvcf};
/// use vcf_traits::Filter;
///
/// // r = 0.5: half the items get four candidate buckets.
/// let mut dvcf = Dvcf::with_r(CuckooConfig::new(1 << 10), 0.5)?;
/// dvcf.insert(b"stream-event-1")?;
/// assert!(dvcf.contains(b"stream-event-1"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dvcf {
    table: FingerprintTable,
    params: VerticalParams,
    hash: HashKind,
    max_kicks: u32,
    /// Interval bounds `[lo, hi]` (inclusive) for the four-candidate rule.
    interval_lo: u32,
    interval_hi: u32,
    rng: SmallRng,
    /// Undo log for the current eviction walk, replayed in reverse when
    /// the kick limit is reached so failed insertions leave no trace.
    undo: Vec<(usize, usize, u32)>,
    counters: Counters,
}

impl Dvcf {
    /// Builds a DVCF with an explicit threshold `Δt` (in fingerprint-value
    /// units, `0 ..= 2^(f−1)`).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or `Δt > T/2`.
    pub fn new(config: CuckooConfig, delta_t: u32) -> Result<Self, BuildError> {
        config.validate()?;
        let t = 1u64 << config.fingerprint_bits;
        if u64::from(delta_t) > t / 2 {
            return Err(BuildError::InvalidConfig {
                reason: format!("Δt = {delta_t} exceeds T/2 = {}", t / 2),
            });
        }
        let masks = MaskPair::balanced(config.fingerprint_bits)?;
        let table = FingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let params = VerticalParams::new(masks, config.buckets);
        let half = (t / 2) as u32;
        Ok(Self {
            table,
            params,
            hash: config.hash,
            max_kicks: config.max_kicks,
            interval_lo: half - delta_t,
            interval_hi: half.saturating_add(delta_t).min((t - 1) as u32),
            rng: SmallRng::seed_from_u64(config.seed),
            undo: Vec::new(),
            counters: Counters::new(),
        })
    }

    /// Builds a DVCF whose four-candidate fraction is (approximately) `r`
    /// by choosing `Δt = r · T / 2` (Equ. 9).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or `r` outside
    /// `[0, 1]`.
    pub fn with_r(config: CuckooConfig, r: f64) -> Result<Self, BuildError> {
        if !(0.0..=1.0).contains(&r) {
            return Err(BuildError::InvalidConfig {
                reason: format!("r must lie in [0, 1], got {r}"),
            });
        }
        let t = 1u64 << config.fingerprint_bits;
        let delta_t = ((r * t as f64) / 2.0).round() as u32;
        Self::new(config, delta_t)
    }

    /// The configured four-candidate fraction `p = 2Δt / T` (Equ. 9).
    pub fn expected_r(&self) -> f64 {
        let t = (1u64 << self.table.fingerprint_bits()) as f64;
        f64::from(self.interval_hi - self.interval_lo) / t
    }

    /// Whether `fingerprint` falls in the four-candidate interval `In₁`.
    #[inline]
    pub fn uses_four_candidates(&self, fingerprint: u32) -> bool {
        (self.interval_lo..=self.interval_hi).contains(&fingerprint)
    }

    /// Number of buckets `m`.
    pub fn buckets(&self) -> usize {
        self.table.buckets()
    }

    /// Occupancy of the slot table only — `α` as the paper measures it.
    pub fn table_load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    #[inline]
    fn key_of(&self, item: &[u8]) -> (u32, usize) {
        key::hash_item(
            self.hash,
            item,
            self.table.fingerprint_bits(),
            self.params.index_mask(),
        )
    }

    /// Candidate buckets for `fingerprint` anchored at `b1`: four entries
    /// in `In₁`, two otherwise. Returns `(buckets, len)`.
    #[inline]
    fn candidate_list(&self, fingerprint: u32, b1: usize, hfp: u64) -> ([usize; 4], usize) {
        if self.uses_four_candidates(fingerprint) {
            let c = self.params.candidates(b1, hfp);
            (c.buckets, 4)
        } else {
            let alt = self.params.cf_alternate(b1, hfp);
            ([b1, alt, 0, 0], 2)
        }
    }

    /// Places an already-hashed item: Algorithm 4's random walk, with
    /// rollback-on-failure and bucket accesses counted as they happen.
    fn insert_prehashed(
        &mut self,
        fingerprint: u32,
        cands: [usize; 4],
        len: usize,
    ) -> Result<(), InsertError> {
        let slots = self.table.slots_per_bucket();
        let mut probes = 0u64;
        let mut bucket_accesses = 0u64;
        for &bucket in &cands[..len] {
            probes += slots as u64;
            bucket_accesses += 1;
            if self.table.try_insert(bucket, fingerprint).is_some() {
                self.counters.record_insert(probes, bucket_accesses);
                return Ok(());
            }
        }

        self.undo.clear();
        let mut current_fp = fingerprint;
        let mut current_bucket = cands[self.rng.gen_range(0..len)];
        let mut kicks = 0u64;
        for _ in 0..self.max_kicks {
            let slot = self.rng.gen_range(0..slots);
            let victim = self.table.swap(current_bucket, slot, current_fp);
            bucket_accesses += 1;
            self.undo.push((current_bucket, slot, victim));
            current_fp = victim;
            kicks += 1;

            // "During each relocation, the judgment about the victim's
            // location is necessary before reinserting this victim."
            let victim_hash = self.hash.hash_fingerprint(current_fp);
            self.counters.add_hashes(1);
            if self.uses_four_candidates(current_fp) {
                let alts = self.params.alternates(current_bucket, victim_hash);
                let mut placed = false;
                for &alt in &alts {
                    probes += slots as u64;
                    bucket_accesses += 1;
                    if self.table.try_insert(alt, current_fp).is_some() {
                        placed = true;
                        break;
                    }
                }
                if placed {
                    self.counters.add_kicks(kicks);
                    self.counters.record_insert(probes, bucket_accesses);
                    return Ok(());
                }
                current_bucket = alts[self.rng.gen_range(0..3)];
            } else {
                let alt = self.params.cf_alternate(current_bucket, victim_hash);
                probes += slots as u64;
                bucket_accesses += 1;
                if self.table.try_insert(alt, current_fp).is_some() {
                    self.counters.add_kicks(kicks);
                    self.counters.record_insert(probes, bucket_accesses);
                    return Ok(());
                }
                current_bucket = alt;
            }
        }

        for &(bucket, slot, previous) in self.undo.iter().rev() {
            self.table.set(bucket, slot, previous);
        }
        self.undo.clear();
        self.counters.add_kicks(kicks);
        self.counters.record_insert(probes, bucket_accesses);
        self.counters.add_failed_insert();
        Err(InsertError::Full { kicks })
    }
}

impl Filter for Dvcf {
    /// Algorithm 4.
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        let (fingerprint, b1) = self.key_of(item);
        let hfp = self.hash.hash_fingerprint(fingerprint);
        self.counters.add_hashes(2);
        let (cands, len) = self.candidate_list(fingerprint, b1, hfp);
        self.insert_prehashed(fingerprint, cands, len)
    }

    /// Pipelined Algorithm 4: interval judgments, candidate derivation
    /// and bucket prefetches for a window of items first, then in-order
    /// placement through the same path as serial [`insert`](Self::insert)
    /// (identical PRNG consumption, so batch ≡ serial exactly).
    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        const WINDOW: usize = 16;
        let mut out = Vec::with_capacity(items.len());
        let mut window = Vec::with_capacity(WINDOW);
        for chunk in items.chunks(WINDOW) {
            window.clear();
            for item in chunk {
                let (fingerprint, b1) = self.key_of(item);
                let hfp = self.hash.hash_fingerprint(fingerprint);
                self.counters.add_hashes(2);
                let (cands, len) = self.candidate_list(fingerprint, b1, hfp);
                for &bucket in &cands[..len] {
                    self.table.prefetch_bucket(bucket);
                }
                window.push((fingerprint, cands, len));
            }
            for &(fingerprint, cands, len) in &window {
                out.push(self.insert_prehashed(fingerprint, cands, len));
            }
        }
        out
    }

    /// Algorithm 5.
    fn contains(&self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let hfp = self.hash.hash_fingerprint(fingerprint);
        let (cands, len) = self.candidate_list(fingerprint, b1, hfp);
        let mut probes = 0u64;
        let mut found = false;
        for &bucket in &cands[..len] {
            probes += self.table.slots_per_bucket() as u64;
            if self.table.contains(bucket, fingerprint) {
                found = true;
                break;
            }
        }
        self.counters.record_lookup(probes, len as u64);
        found
    }

    /// Batched Algorithm 5: interval judgments and candidate derivation
    /// for the whole batch first (touching each primary bucket early),
    /// then a probe pass over the precomputed candidate lists.
    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            let (fingerprint, b1) = self.key_of(item);
            let hfp = self.hash.hash_fingerprint(fingerprint);
            let (cands, len) = self.candidate_list(fingerprint, b1, hfp);
            for &bucket in &cands[..len] {
                self.table.touch_bucket(bucket);
            }
            keys.push((fingerprint, cands, len));
        }
        let slots = self.table.slots_per_bucket() as u64;
        let mut out = Vec::with_capacity(items.len());
        for &(fingerprint, cands, len) in &keys {
            // One early-exit probe over the candidate list; the counters
            // charge every candidate whatever the probe finds.
            let found = self.table.contains_any(&cands[..len], fingerprint);
            self.counters.record_lookup(len as u64 * slots, len as u64);
            out.push(found);
        }
        out
    }

    /// Algorithm 6.
    fn delete(&mut self, item: &[u8]) -> bool {
        let (fingerprint, b1) = self.key_of(item);
        let hfp = self.hash.hash_fingerprint(fingerprint);
        let (cands, len) = self.candidate_list(fingerprint, b1, hfp);
        let mut probes = 0u64;
        let mut removed = false;
        let mut tried = [usize::MAX; 4];
        let mut tried_len = 0;
        debug_assert!(len <= tried.len(), "at most 4 candidate buckets");
        for &bucket in &cands[..len] {
            if tried[..tried_len].contains(&bucket) {
                continue;
            }
            tried[tried_len] = bucket;
            tried_len += 1;
            probes += self.table.slots_per_bucket() as u64;
            if self.table.remove_one(bucket, fingerprint) {
                removed = true;
                break;
            }
        }
        self.counters.record_delete(probes, tried_len as u64);
        removed
    }

    fn len(&self) -> usize {
        self.table.occupied()
    }

    fn capacity(&self) -> usize {
        self.table.capacity()
    }

    fn stats(&self) -> Stats {
        self.counters.snapshot()
    }

    fn reset_stats(&mut self) {
        self.counters.reset();
    }

    fn name(&self) -> String {
        format!("DVCF(r={:.3})", self.expected_r())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Vec<u8> {
        format!("dvcf-{i}").into_bytes()
    }

    #[test]
    fn r_zero_behaves_like_cf_interval() {
        let f = Dvcf::with_r(CuckooConfig::new(1 << 8), 0.0).unwrap();
        assert!(f.expected_r() < 1e-3);
        // Almost no fingerprint is in In1 (only exactly T/2).
        let hits = (1u32..1 << 14)
            .filter(|&fp| f.uses_four_candidates(fp))
            .count();
        assert!(hits <= 1);
    }

    #[test]
    fn r_one_gives_everyone_four_candidates() {
        let f = Dvcf::with_r(CuckooConfig::new(1 << 8), 1.0).unwrap();
        assert!((f.expected_r() - 1.0).abs() < 1e-3);
        for fp in [1u32, 100, 8000, (1 << 14) - 1] {
            assert!(f.uses_four_candidates(fp), "fp={fp}");
        }
    }

    #[test]
    fn interval_fraction_matches_r() {
        for r in [0.125, 0.25, 0.5, 0.75] {
            let f = Dvcf::with_r(CuckooConfig::new(1 << 8), r).unwrap();
            let total = 1u32 << 14;
            let hits = (0..total).filter(|&fp| f.uses_four_candidates(fp)).count();
            let measured = hits as f64 / f64::from(total);
            assert!((measured - r).abs() < 0.01, "r={r} measured={measured}");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Dvcf::with_r(CuckooConfig::new(1 << 8), -0.1).is_err());
        assert!(Dvcf::with_r(CuckooConfig::new(1 << 8), 1.1).is_err());
        assert!(Dvcf::new(CuckooConfig::new(1 << 8), 1 << 13).is_ok());
        assert!(Dvcf::new(CuckooConfig::new(1 << 8), (1 << 13) + 1).is_err());
        assert!(Dvcf::new(CuckooConfig::new(12), 0).is_err());
    }

    #[test]
    fn roundtrip_and_no_false_negatives() {
        let mut f = Dvcf::with_r(CuckooConfig::new(1 << 8).with_seed(4), 0.5).unwrap();
        for i in 0..700 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..700 {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
        for i in 0..350 {
            assert!(f.delete(&key(i)), "item {i} not deletable");
        }
        for i in 350..700 {
            assert!(f.contains(&key(i)), "item {i} vanished after deletes");
        }
    }

    #[test]
    fn no_false_negatives_after_overflow() {
        let mut f = Dvcf::with_r(CuckooConfig::new(1 << 6).with_seed(11), 0.75).unwrap();
        let mut acknowledged = Vec::new();
        for i in 0..(f.capacity() as u64 + 60) {
            if f.insert(&key(i)).is_ok() {
                acknowledged.push(i);
            }
        }
        for i in acknowledged {
            assert!(f.contains(&key(i)), "acknowledged {i} lost");
        }
    }

    #[test]
    fn higher_r_fills_further() {
        let fill = |r: f64| {
            let mut f = Dvcf::with_r(CuckooConfig::new(1 << 10).with_seed(13), r).unwrap();
            let mut stored = 0u32;
            for i in 0..f.capacity() as u64 {
                if f.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            f64::from(stored) / f.capacity() as f64
        };
        let low = fill(0.125);
        let high = fill(1.0);
        assert!(
            high > low,
            "four-candidate items must raise the load factor: low={low} high={high}"
        );
        assert!(high > 0.98, "DVCF(r=1) should approach VCF load: {high}");
    }

    #[test]
    fn name_reports_r() {
        let f = Dvcf::with_r(CuckooConfig::new(1 << 8), 0.25).unwrap();
        assert!(f.name().starts_with("DVCF"));
        assert!(f.name().contains("0.250"));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut f = Dvcf::with_r(CuckooConfig::new(1 << 8).with_seed(21), 0.5).unwrap();
            let mut stored = 0u32;
            for i in 0..1100 {
                if f.insert(&key(i)).is_ok() {
                    stored += 1;
                }
            }
            (stored, f.stats().kicks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn insert_batch_matches_serial_exactly() {
        let keys: Vec<Vec<u8>> = (0..1100).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let config = CuckooConfig::new(1 << 8).with_seed(33);

        let mut serial = Dvcf::with_r(config, 0.5).unwrap();
        let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
        let mut batched = Dvcf::with_r(config, 0.5).unwrap();
        let batch_results = batched.insert_batch(&refs);

        assert_eq!(serial_results, batch_results);
        assert_eq!(serial.len(), batched.len());
        assert_eq!(serial.stats().kicks, batched.stats().kicks);
        for k in &refs {
            assert_eq!(serial.contains(k), batched.contains(k));
        }
    }
}
