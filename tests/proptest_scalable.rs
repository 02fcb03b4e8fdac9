//! Property tests for the elastic `ScalableVcf`.
//!
//! Two families, matching the migration-correctness obligations:
//!
//! 1. **Interleaving invariance.** `migrate_step` interleaved at
//!    arbitrary points never changes *any* lookup answer — not just the
//!    no-false-negative half: false positives are invariant too, because
//!    a colliding query shares the resident's fingerprint, hence its
//!    partition selector and coset, in every segment geometry.
//! 2. **Fingerprint equivalence.** A chain that has been fully migrated
//!    back to a single segment stores exactly the same canonical
//!    fingerprint multiset as a fresh `insert_batch` of the surviving
//!    keys: each stored `(bucket, η)` reduces to the geometry-independent
//!    key `(min coset bucket, η)`, and the sorted multisets must match.

use proptest::prelude::*;
use vertical_cuckoo_filters::traits::Filter;
use vertical_cuckoo_filters::vcf::{CuckooConfig, ScalableVcf};

/// Drives the backlog to zero through bounded steps, growing to unblock
/// a stalled drain (the documented recovery), and fails the property if
/// migration never converges.
fn drain_fully(f: &mut ScalableVcf, step: usize) -> Result<(), TestCaseError> {
    let mut guard = 0;
    while f.migration_backlog() > 0 {
        if f.migrate_step(step) == 0 && f.migration_backlog() > 0 {
            prop_assert!(f.grow().is_ok(), "grow failed while unblocking a stall");
        }
        guard += 1;
        prop_assert!(guard < 100_000, "migration never converged");
    }
    prop_assert_eq!(f.segments(), 1, "flat chain expected after full drain");
    Ok(())
}

/// Geometry-independent canonical form of every stored fingerprint: the
/// smallest bucket of its base-space coset, paired with the fingerprint.
/// Identical multisets ⇔ the filters answer identically forever.
fn canonical_fingerprints(f: &ScalableVcf) -> Vec<(usize, u32)> {
    let params = f.params();
    let hash = f.hash_kind();
    let mut canon: Vec<(usize, u32)> = f
        .stored()
        .map(|(_segment, bucket, fp)| {
            let lows = params.candidates(bucket, hash.hash_fingerprint(fp));
            let min_low = *lows.buckets.iter().min().expect("4 candidates");
            (min_low, fp)
        })
        .collect();
    canon.sort_unstable();
    canon
}

proptest! {
    /// (a) Interleaved `migrate_step` calls never change any lookup
    /// answer: the full answer vector over present *and* absent queries
    /// is identical after every step, at every step size.
    #[test]
    fn migrate_step_never_changes_lookup_answers(
        n in 50usize..400,
        step in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let config = CuckooConfig::new(1 << 6)
            .with_fingerprint_bits(16)
            .with_seed(seed);
        let mut f = ScalableVcf::new(config).unwrap();
        f.set_migrate_budget(0); // migration happens only where interleaved
        let keys: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("present-{seed}-{i}").into_bytes())
            .collect();
        for k in &keys {
            prop_assert!(f.insert(k).is_ok());
        }
        let queries: Vec<Vec<u8>> = keys
            .iter()
            .cloned()
            .chain((0..n).map(|i| format!("absent-{seed}-{i}").into_bytes()))
            .collect();
        let baseline: Vec<bool> = queries.iter().map(|q| f.contains(q)).collect();
        prop_assert!(baseline[..n].iter().all(|&b| b), "false negative pre-migration");

        let mut guard = 0;
        while f.migration_backlog() > 0 {
            if f.migrate_step(step) == 0 && f.migration_backlog() > 0 {
                prop_assert!(f.grow().is_ok());
            }
            let now: Vec<bool> = queries.iter().map(|q| f.contains(q)).collect();
            prop_assert_eq!(&baseline, &now, "a migration step changed a lookup answer");
            guard += 1;
            prop_assert!(guard < 100_000, "migration never converged");
        }
        prop_assert_eq!(f.segments(), 1);
    }

    /// (b) A fully-migrated chain is fingerprint-equivalent to a fresh
    /// `insert_batch` of the surviving keys.
    #[test]
    fn fully_migrated_chain_matches_fresh_build(
        n in 50usize..300,
        delete_every in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let config = CuckooConfig::new(1 << 6)
            .with_fingerprint_bits(32)
            .with_seed(seed);
        let keys: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("equiv-{seed}-{i}").into_bytes())
            .collect();

        // Chain A: insert everything, delete a subset, migrate fully.
        let mut chain = ScalableVcf::new(config).unwrap();
        chain.set_migrate_budget(0);
        for k in &keys {
            prop_assert!(chain.insert(k).is_ok());
        }
        let mut survivors: Vec<&[u8]> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            if i % delete_every == 0 {
                prop_assert!(chain.delete(k), "delete of a live key failed");
            } else {
                survivors.push(k);
            }
        }
        drain_fully(&mut chain, 8)?;

        // Filter B: fresh batched insert of the survivors only.
        let mut fresh = ScalableVcf::new(config).unwrap();
        let results = fresh.insert_batch(&survivors);
        prop_assert!(results.iter().all(Result::is_ok), "fresh build overflowed");

        prop_assert_eq!(chain.len(), survivors.len());
        prop_assert_eq!(fresh.len(), survivors.len());
        prop_assert_eq!(
            canonical_fingerprints(&chain),
            canonical_fingerprints(&fresh),
            "fully-migrated chain must store the survivors' fingerprint multiset"
        );
    }
}
