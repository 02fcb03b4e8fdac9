//! Differential properties for the insert-side pipeline.
//!
//! **Batch ≡ serial**, across the whole filter family:
//! [`Filter::insert_batch`] prefetches and pipelines, but it must be
//! *observably identical* to calling [`Filter::insert`] in a loop: same
//! per-item results, same final occupancy, same kick totals, and
//! identical membership. The batched overrides consume the eviction RNG
//! in item order, so this holds bit-for-bit, not just statistically.
//! The lookup side gets the same check: [`Filter::contains_batch`] must
//! answer every key exactly as [`Filter::contains`] does.
//!
//! **Bulk fill ≡ serial on membership**: filling a filter in one call
//! through [`FilterExt::insert_best_effort`] (the load-factor fill the
//! experiments use) keeps exactly the items a serial fill acknowledges.

use proptest::prelude::*;
use vertical_cuckoo_filters::baselines::CuckooFilter;
use vertical_cuckoo_filters::traits::{Filter, FilterExt};
use vertical_cuckoo_filters::vcf::{ConcurrentVcf, CuckooConfig, Dvcf, KVcf, VerticalCuckooFilter};

fn config() -> CuckooConfig {
    CuckooConfig::new(1 << 6).with_seed(0xbead)
}

fn key_bytes(k: u32) -> [u8; 4] {
    k.to_le_bytes()
}

/// Inserts `keys` serially into one instance and batched into another,
/// then checks the two filters are observationally identical.
fn check_batch_matches_serial(
    mut serial: Box<dyn Filter>,
    mut batched: Box<dyn Filter>,
    keys: &[u32],
) -> Result<(), TestCaseError> {
    let name = serial.name();
    let bytes: Vec<[u8; 4]> = keys.iter().copied().map(key_bytes).collect();
    let refs: Vec<&[u8]> = bytes.iter().map(<[u8; 4]>::as_slice).collect();

    let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
    let batch_results = batched.insert_batch(&refs);

    prop_assert_eq!(
        &serial_results,
        &batch_results,
        "{}: per-item results diverge",
        name
    );
    prop_assert_eq!(serial.len(), batched.len(), "{}: occupancy diverges", name);
    prop_assert_eq!(
        serial.stats().kicks,
        batched.stats().kicks,
        "{}: kick totals diverge",
        name
    );
    for (key, result) in keys.iter().zip(&serial_results) {
        if result.is_ok() {
            prop_assert!(
                serial.contains(&key_bytes(*key)),
                "{}: serial lost {}",
                name,
                key
            );
            prop_assert!(
                batched.contains(&key_bytes(*key)),
                "{}: batched lost {}",
                name,
                key
            );
        }
    }
    let answers = batched.contains_batch(&refs);
    for (k, &answer) in refs.iter().zip(&answers) {
        prop_assert_eq!(
            answer,
            batched.contains(k),
            "{}: contains_batch diverges from contains",
            name
        );
    }
    Ok(())
}

/// Fills one instance serially and one in bulk with
/// [`FilterExt::insert_best_effort`]; the bulk filter must store as many
/// items as the serial one acknowledged, keep every one of them, report
/// them all through [`FilterExt::count_present`], and answer batched
/// lookups the same way as per-item lookups.
fn check_bulk_build_membership(
    mut serial: Box<dyn Filter>,
    mut bulk: Box<dyn Filter>,
    keys: &[u32],
) -> Result<(), TestCaseError> {
    let name = serial.name();
    let bytes: Vec<[u8; 4]> = keys.iter().copied().map(key_bytes).collect();
    let refs: Vec<&[u8]> = bytes.iter().map(<[u8; 4]>::as_slice).collect();

    let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
    let serial_ok = serial_results.iter().filter(|r| r.is_ok()).count();
    let bulk_ok = bulk.insert_best_effort(refs.iter().copied());

    prop_assert_eq!(bulk_ok, serial_ok, "{}: bulk Ok count diverges", name);
    prop_assert_eq!(
        bulk.len(),
        bulk_ok,
        "{}: bulk occupancy must equal its Ok count",
        name
    );
    let acknowledged: Vec<&[u8]> = refs
        .iter()
        .zip(&serial_results)
        .filter(|(_, r)| r.is_ok())
        .map(|(k, _)| *k)
        .collect();
    for key in &acknowledged {
        prop_assert!(
            bulk.contains(key),
            "{}: bulk fill lost acknowledged key {:?}",
            name,
            key
        );
    }
    prop_assert_eq!(
        bulk.count_present(acknowledged.iter().copied()),
        acknowledged.len(),
        "{}: count_present disagrees with contains",
        name
    );
    let answers = bulk.contains_batch(&refs);
    for (k, &answer) in refs.iter().zip(&answers) {
        prop_assert_eq!(
            answer,
            bulk.contains(k),
            "{}: contains_batch diverges from contains",
            name
        );
    }
    Ok(())
}

type MakeFilter = fn(CuckooConfig) -> Box<dyn Filter>;

fn family() -> Vec<(&'static str, MakeFilter)> {
    vec![
        ("CF", |c| Box::new(CuckooFilter::new(c).unwrap())),
        ("VCF", |c| Box::new(VerticalCuckooFilter::new(c).unwrap())),
        ("DVCF", |c| Box::new(Dvcf::with_r(c, 0.5).unwrap())),
        ("KVCF", |c| {
            Box::new(KVcf::new(c.with_fingerprint_bits(16), 6).unwrap())
        }),
        ("ConcurrentVCF", |c| {
            Box::new(ConcurrentVcf::new(c).unwrap())
        }),
        // Eight 12-bit lanes per bucket span two words; half the buckets
        // keep the table at 256 slots, so the longer streams still kick.
        ("ConcurrentVCF b=8 f=12", |c| {
            let c = CuckooConfig {
                buckets: c.buckets / 2,
                ..c
            };
            Box::new(
                ConcurrentVcf::new(c.with_slots_per_bucket(8).with_fingerprint_bits(12)).unwrap(),
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch ≡ serial for every filter in the family, on duplicate-heavy
    /// key streams long enough to trigger evictions (table holds 256),
    /// with batched lookups checked against per-item ones afterwards.
    #[test]
    fn insert_batch_is_serial_insert(keys in prop::collection::vec(0u32..500, 1..320)) {
        for (_, make) in family() {
            check_batch_matches_serial(make(config()), make(config()), &keys)?;
        }
    }

    /// A one-call bulk fill is membership-equivalent to serial insertion
    /// for every filter in the family.
    #[test]
    fn bulk_build_membership_matches_serial(keys in prop::collection::vec(0u32..500, 1..320)) {
        for (_, make) in family() {
            check_bulk_build_membership(make(config()), make(config()), &keys)?;
        }
    }
}
