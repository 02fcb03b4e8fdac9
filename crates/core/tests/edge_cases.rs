//! Edge-case integration tests for the VCF family: extreme geometries,
//! boundary parameters, and cross-variant consistency.

use vcf_core::{CuckooConfig, Dvcf, KVcf, MaskPair, VerticalCuckooFilter};
use vcf_hash::HashKind;
use vcf_traits::{Filter, FilterExt};

fn key(i: u64) -> Vec<u8> {
    format!("edge-{i}").into_bytes()
}

#[test]
fn minimal_table_four_buckets() {
    // The smallest legal geometry: 4 buckets × 4 slots.
    let mut f = VerticalCuckooFilter::new(CuckooConfig::new(4).with_seed(1)).unwrap();
    let mut stored = 0;
    for i in 0..16u64 {
        if f.insert(&key(i)).is_ok() {
            stored += 1;
        }
    }
    assert!(
        stored >= 12,
        "tiny table should still fill most slots: {stored}"
    );
    for i in 0..16u64 {
        // No false negatives for whatever was acknowledged.
        if f.contains(&key(i)) {
            continue;
        }
    }
}

#[test]
fn single_slot_buckets() {
    // b = 1: pure cuckoo hashing, hardest case for load factor.
    let config = CuckooConfig::new(1 << 10)
        .with_slots_per_bucket(1)
        .with_seed(2);
    let mut f = VerticalCuckooFilter::new(config).unwrap();
    let n = 1 << 10;
    let keys: Vec<Vec<u8>> = (0..n).map(key).collect();
    let stored = f.insert_best_effort(keys.iter().map(Vec::as_slice));
    // Four candidates with b=1 behave like 4-ary cuckoo hashing: ~95%+.
    assert!(
        stored as f64 / n as f64 > 0.85,
        "b=1 load factor too low: {}",
        stored as f64 / n as f64
    );
    // Every acknowledged item must be present; rejected ones may or may
    // not false-positive, so present >= stored.
    assert!(f.count_present(keys.iter().map(Vec::as_slice)) >= stored);
}

#[test]
fn eight_slot_buckets() {
    let config = CuckooConfig::new(1 << 7)
        .with_slots_per_bucket(8)
        .with_seed(3);
    let mut f = VerticalCuckooFilter::new(config).unwrap();
    assert_eq!(f.capacity(), (1 << 7) * 8);
    for i in 0..900u64 {
        f.insert(&key(i)).unwrap();
    }
    for i in 0..900u64 {
        assert!(f.contains(&key(i)));
    }
}

#[test]
fn minimal_fingerprint_two_bits() {
    // f = 2: only 3 distinct non-zero fingerprints. Massive collisions,
    // but the structure must stay correct (no false negatives).
    let config = CuckooConfig::new(1 << 8)
        .with_fingerprint_bits(2)
        .with_seed(4);
    let mut f = VerticalCuckooFilter::new(config).unwrap();
    let mut acknowledged = Vec::new();
    for i in 0..600u64 {
        if f.insert(&key(i)).is_ok() {
            acknowledged.push(i);
        }
    }
    for i in acknowledged {
        assert!(f.contains(&key(i)), "f=2: lost {i}");
    }
}

#[test]
fn maximal_fingerprint_thirty_two_bits() {
    let config = CuckooConfig::new(1 << 8)
        .with_fingerprint_bits(32)
        .with_seed(5);
    let mut f = VerticalCuckooFilter::new(config).unwrap();
    for i in 0..900u64 {
        f.insert(&key(i)).unwrap();
    }
    for i in 0..900u64 {
        assert!(f.contains(&key(i)));
    }
    // With 32-bit fingerprints, aliens virtually never false-positive.
    let fp = (10_000..40_000u64).filter(|i| f.contains(&key(*i))).count();
    assert!(fp <= 1, "f=32 should have ~zero false positives, got {fp}");
}

#[test]
fn dvcf_delta_t_boundaries() {
    // Δt = 0 (pure CF behaviour) and Δt = T/2 (pure VCF behaviour) are
    // both legal and functional.
    for delta_t in [0u32, 1 << 13] {
        let mut f = Dvcf::new(CuckooConfig::new(1 << 8).with_seed(6), delta_t).unwrap();
        for i in 0..700u64 {
            f.insert(&key(i)).unwrap();
        }
        for i in 0..700u64 {
            assert!(f.contains(&key(i)), "Δt={delta_t}: lost {i}");
        }
    }
}

#[test]
fn kvcf_k2_and_k3_degenerate_paths() {
    for k in [2usize, 3] {
        let config = CuckooConfig::new(1 << 7)
            .with_fingerprint_bits(16)
            .with_seed(7);
        let mut f = KVcf::new(config, k).unwrap();
        for i in 0..400u64 {
            let _ = f.insert(&key(i));
        }
        let present = (0..400u64).filter(|i| f.contains(&key(*i))).count();
        let stored = f.len();
        assert!(
            present >= stored,
            "k={k}: acknowledged items must be present"
        );
    }
}

#[test]
fn empty_key_and_huge_key() {
    let mut f = VerticalCuckooFilter::new(CuckooConfig::new(1 << 6).with_seed(8)).unwrap();
    let huge = vec![0xabu8; 1 << 16];
    f.insert(b"").unwrap();
    f.insert(&huge).unwrap();
    assert!(f.contains(b""));
    assert!(f.contains(&huge));
    assert!(f.delete(b""));
    assert!(!f.contains(b""));
    assert!(
        f.contains(&huge),
        "deleting the empty key must not affect others"
    );
}

#[test]
fn all_hash_kinds_cross_variant() {
    for kind in HashKind::ALL {
        let config = CuckooConfig::new(1 << 7).with_hash(kind).with_seed(9);
        let mut vcf = VerticalCuckooFilter::new(config).unwrap();
        let mut dvcf = Dvcf::with_r(config, 0.5).unwrap();
        let kvcf_config = config.with_fingerprint_bits(16);
        let mut kvcf = KVcf::new(kvcf_config, 5).unwrap();
        for i in 0..300u64 {
            vcf.insert(&key(i)).unwrap();
            dvcf.insert(&key(i)).unwrap();
            kvcf.insert(&key(i)).unwrap();
        }
        for i in 0..300u64 {
            assert!(vcf.contains(&key(i)), "{kind}: VCF lost {i}");
            assert!(dvcf.contains(&key(i)), "{kind}: DVCF lost {i}");
            assert!(kvcf.contains(&key(i)), "{kind}: k-VCF lost {i}");
        }
    }
}

#[test]
fn explicit_mask_pairs_work_end_to_end() {
    // A hand-picked non-contiguous bm1.
    let masks = MaskPair::from_bm1(0b10_1001_0110_0011, 14).unwrap();
    let config = CuckooConfig::new(1 << 10).with_seed(10);
    let mut f = VerticalCuckooFilter::with_masks(config, masks, "custom".into()).unwrap();
    let n = f.capacity() as u64;
    let mut stored = 0u64;
    for i in 0..n {
        if f.insert(&key(i)).is_ok() {
            stored += 1;
        }
    }
    assert!(
        stored as f64 / n as f64 > 0.99,
        "custom masks should behave like VCF"
    );
    assert_eq!(f.name(), "custom");
}

#[test]
fn clone_is_independent() {
    let mut a = VerticalCuckooFilter::new(CuckooConfig::new(1 << 6).with_seed(11)).unwrap();
    a.insert(b"shared").unwrap();
    let mut b = a.clone();
    b.insert(b"only-in-b").unwrap();
    a.delete(b"shared");
    assert!(!a.contains(b"shared"));
    assert!(b.contains(b"shared"), "clone must not share storage");
    assert!(b.contains(b"only-in-b"));
    assert!(!a.contains(b"only-in-b"));
}

#[test]
fn zero_kicks_vcf_still_functions() {
    // MAX = 0 on the 4-candidate VCF: insertion succeeds only when a
    // candidate has a free slot, no relocation ever.
    let config = CuckooConfig::new(1 << 8).with_max_kicks(0).with_seed(13);
    let mut f = VerticalCuckooFilter::new(config).unwrap();
    let mut stored = 0u64;
    for i in 0..(f.capacity() as u64) {
        if f.insert(&key(i)).is_ok() {
            stored += 1;
        }
    }
    assert_eq!(f.stats().kicks, 0);
    let alpha = stored as f64 / f.capacity() as f64;
    // Four candidates, b = 4, no kicks: comfortably over 90 %.
    assert!(alpha > 0.90, "MAX=0 VCF load factor {alpha}");
}
