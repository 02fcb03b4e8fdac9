//! Large router batches ≡ a per-shard serial reference.
//!
//! [`ShardRouter`]'s batch ops spread the shard groups of a large batch
//! over several threads. Each shard still receives its whole group as
//! one batch call, in input order, on exactly one thread, so the result
//! must be bit-identical to visiting the shards one after another. This
//! suite checks that on all three router types with batches well above
//! the router's parallel threshold: a reference router built from the
//! same config runs each shard's group through that shard's own
//! `insert_batch` / `contains_batch` / `delete_batch`, serially, and the
//! two routers must agree on every per-item result (refusals and their
//! kick counts included), on `len()`, on every `Stats` field, shard by
//! shard, and on the answers to a probe set 4× the fill, false
//! positives included.

use vertical_cuckoo_filters::traits::{ConcurrentFilter, InsertError};
use vertical_cuckoo_filters::vcf::{
    CuckooConfig, ShardRouter, ShardedConcurrentVcf, ShardedScalableVcf, ShardedVcf,
};

/// Slots across all shards. Every batch of [`check_router`] holds more
/// than 16,384 keys, the size from which the router spreads a batch over
/// threads.
const SLOTS: usize = 1 << 14;

/// The router's parallel threshold (`MIN_PARALLEL_BATCH`).
const PARALLEL: usize = 1 << 14;

fn config() -> CuckooConfig {
    // A short kick limit keeps the overfilled batch's refusals cheap.
    CuckooConfig::with_total_slots(SLOTS)
        .with_seed(0x5eed)
        .with_max_kicks(64)
}

fn keys(tag: &str, range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
    range.map(|i| format!("{tag}-{i}").into_bytes()).collect()
}

/// Runs each shard's group of `items`, in input order, through `op` on
/// that shard alone, one shard after another, and returns the results in
/// input order.
fn per_shard<F: ConcurrentFilter, T: Clone>(
    router: &ShardRouter<F>,
    items: &[&[u8]],
    fill: T,
    op: impl Fn(&F, &[&[u8]]) -> Vec<T>,
) -> Vec<T> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); router.shard_count()];
    for (pos, item) in items.iter().enumerate() {
        groups[router.shard_of(item)].push(pos);
    }
    let mut out = vec![fill; items.len()];
    for (shard, group) in router.shards().iter().zip(&groups) {
        if group.is_empty() {
            continue;
        }
        let shard_items: Vec<&[u8]> = group.iter().map(|&pos| items[pos]).collect();
        for (&pos, result) in group.iter().zip(op(shard, &shard_items)) {
            out[pos] = result;
        }
    }
    out
}

/// Asserts the two routers hold the same observable state.
fn assert_same_state<F: ConcurrentFilter>(
    router: &ShardRouter<F>,
    reference: &ShardRouter<F>,
    step: &str,
) {
    let name = router.name();
    assert_eq!(router.len(), reference.len(), "{name} {step}: len");
    assert_eq!(router.stats(), reference.stats(), "{name} {step}: stats");
    for (s, (a, b)) in router.shards().iter().zip(reference.shards()).enumerate() {
        assert_eq!(a.stats(), b.stats(), "{name} {step}: shard {s} stats");
        assert_eq!(a.len(), b.len(), "{name} {step}: shard {s} len");
    }
}

/// Probes 4× `fill` keys — the stored ones and three times as many
/// absent ones — on both routers and returns the false-positive count.
fn assert_same_answers<F: ConcurrentFilter>(
    router: &ShardRouter<F>,
    reference: &ShardRouter<F>,
    fill: usize,
    step: &str,
) -> usize {
    let mut probes = keys("key", 0..fill);
    probes.extend(keys("absent", 0..3 * fill));
    let refs: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();
    let answers = router.contains_batch(&refs);
    let expected = per_shard(reference, &refs, false, ConcurrentFilter::contains_batch);
    assert_eq!(
        answers,
        expected,
        "{} {step}: lookup answers",
        router.name()
    );
    assert_same_state(router, reference, step);
    answers[fill..].iter().filter(|&&hit| hit).count()
}

/// Inserts an overfilled batch (with duplicates), probes, deletes a
/// batch (with duplicates and absent keys), probes again; each step on
/// both routers. Returns both routers and the number of refused
/// inserts.
fn check_router<F: ConcurrentFilter>(
    make: impl Fn() -> ShardRouter<F>,
) -> (ShardRouter<F>, ShardRouter<F>, usize) {
    let router = make();
    let reference = make();
    let name = router.name();

    // 1.25× the capacity in one batch, every tenth key a repeat.
    let fill = SLOTS + SLOTS / 4;
    let mut batch = keys("key", 0..fill);
    for i in (0..fill).step_by(10) {
        batch[i] = format!("key-{}", i / 2).into_bytes();
    }
    let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
    let results = router.insert_batch(&refs);
    let expected = per_shard(&reference, &refs, Ok(()), ConcurrentFilter::insert_batch);
    assert_eq!(results, expected, "{name}: insert results");
    assert_same_state(&router, &reference, "insert");
    let refused = results.iter().filter(|r| r.is_err()).count();
    assert!(
        results
            .iter()
            .all(|r| !matches!(r, Err(InsertError::Full { kicks: 0 }))),
        "{name}: a refusal must report its kick walk"
    );
    let false_positives = assert_same_answers(&router, &reference, fill, "after insert");
    assert!(
        false_positives > 0,
        "{name}: the probe set must hit false positives"
    );

    // Delete three quarters, each tenth of those twice, plus absent keys.
    let mut doomed = keys("key", 0..fill * 3 / 4);
    doomed.extend(keys("key", 0..fill * 3 / 4).into_iter().step_by(10));
    doomed.extend(keys("absent", 0..fill / 10));
    let refs: Vec<&[u8]> = doomed.iter().map(Vec::as_slice).collect();
    let deleted = router.delete_batch(&refs);
    let expected = per_shard(&reference, &refs, false, ConcurrentFilter::delete_batch);
    assert_eq!(deleted, expected, "{name}: delete results");
    assert!(deleted.contains(&true) && deleted.contains(&false));
    assert_same_state(&router, &reference, "delete");
    assert_same_answers(&router, &reference, fill, "after delete");
    (router, reference, refused)
}

#[test]
fn concurrent_router_matches_per_shard_reference() {
    let (_, _, refused) = check_router(|| ShardedConcurrentVcf::new(config(), 4).unwrap());
    assert!(refused > 0, "an overfilled batch must refuse inserts");
}

#[test]
fn locked_router_matches_per_shard_reference() {
    let (_, _, refused) = check_router(|| ShardedVcf::new(config(), 4).unwrap());
    assert!(refused > 0, "an overfilled batch must refuse inserts");
}

#[test]
fn scalable_router_matches_per_shard_reference() {
    // Elastic shards grow instead of refusing; growth happens inside
    // each shard's own batch, on whichever thread runs that shard.
    let (router, reference, refused) =
        check_router(|| ShardedScalableVcf::new(config(), 4).unwrap());
    assert_eq!(refused, 0, "elastic shards grow rather than refuse");
    assert_eq!(router.shard_segments(), reference.shard_segments());
    assert_eq!(router.migration_backlog(), reference.migration_backlog());
    assert_eq!(router.capacity(), reference.capacity());
    assert!(
        router.capacity() > SLOTS,
        "the overfilled batch must grow shards"
    );
}

#[test]
fn single_shard_router_runs_inline_and_matches() {
    let (_, _, refused) = check_router(|| ShardedConcurrentVcf::new(config(), 0).unwrap());
    assert!(refused > 0, "an overfilled batch must refuse inserts");
}

/// Runs `batch` through insert, lookup and delete on a fresh router and
/// on the per-shard reference, asserting equal results and state after
/// each step.
fn check_batch<F: ConcurrentFilter>(make: impl Fn() -> ShardRouter<F>, batch: &[&[u8]]) {
    let router = make();
    let reference = make();
    let name = router.name();
    let expected = per_shard(&reference, batch, Ok(()), ConcurrentFilter::insert_batch);
    assert_eq!(router.insert_batch(batch), expected, "{name}: insert");
    assert_same_state(&router, &reference, "insert");
    let expected = per_shard(&reference, batch, false, ConcurrentFilter::contains_batch);
    assert_eq!(router.contains_batch(batch), expected, "{name}: lookup");
    let expected = per_shard(&reference, batch, false, ConcurrentFilter::delete_batch);
    assert_eq!(router.delete_batch(batch), expected, "{name}: delete");
    assert_same_state(&router, &reference, "delete");
}

/// [`check_batch`] on all three router types with `2^shard_bits` shards.
fn check_every_router(batch: &[Vec<u8>], shard_bits: u32) {
    let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
    check_batch(
        || ShardedConcurrentVcf::new(config(), shard_bits).unwrap(),
        &refs,
    );
    check_batch(|| ShardedVcf::new(config(), shard_bits).unwrap(), &refs);
    check_batch(
        || ShardedScalableVcf::new(config(), shard_bits).unwrap(),
        &refs,
    );
}

/// The first `count` keys that a 4-shard router sends to one of `shards`.
fn keys_on_shards(shards: &[usize], count: usize) -> Vec<Vec<u8>> {
    let probe = ShardedVcf::new(config(), 2).unwrap();
    (0..)
        .map(|i| format!("routed-{i}").into_bytes())
        .filter(|key| shards.contains(&probe.shard_of(key)))
        .take(count)
        .collect()
}

#[test]
fn batches_on_each_side_of_the_threshold_match() {
    for len in [PARALLEL - 1, PARALLEL] {
        check_every_router(&keys("edge", 0..len), 4);
    }
}

#[test]
fn batch_on_a_single_shard_matches() {
    // Every key routes to shard 2: more threads than non-empty shards.
    check_every_router(&keys_on_shards(&[2], PARALLEL), 2);
}

#[test]
fn batch_that_leaves_two_shards_empty_matches() {
    check_every_router(&keys_on_shards(&[1, 2], 2 * PARALLEL), 2);
}

#[test]
fn copies_routed_by_different_threads_keep_input_order() {
    // Room for every key, so both copies are stored.
    let config = CuckooConfig::with_total_slots(4 * PARALLEL).with_seed(0x5eed);
    let key = b"twice".to_vec();
    let mut batch = keys("filler", 0..PARALLEL);
    batch[0].clone_from(&key);
    batch[PARALLEL - 1].clone_from(&key);
    let inserts: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
    let mut doomed = keys("absent", 0..PARALLEL);
    for pos in [0, PARALLEL / 2, PARALLEL - 1] {
        doomed[pos].clone_from(&key);
    }
    let deletes: Vec<&[u8]> = doomed.iter().map(Vec::as_slice).collect();
    fn check<F: ConcurrentFilter>(
        make: impl Fn() -> ShardRouter<F>,
        inserts: &[&[u8]],
        deletes: &[&[u8]],
    ) {
        let router = make();
        let reference = make();
        let name = router.name();
        let stored = router.insert_batch(inserts);
        assert!(stored.iter().all(Result::is_ok), "{name}: insert");
        let expected = per_shard(&reference, inserts, Ok(()), ConcurrentFilter::insert_batch);
        assert_eq!(stored, expected, "{name}: insert");
        let deleted = router.delete_batch(deletes);
        let expected = per_shard(&reference, deletes, false, ConcurrentFilter::delete_batch);
        assert_eq!(deleted, expected, "{name}: delete");
        let copies = [0, PARALLEL / 2, PARALLEL - 1].map(|pos| deleted[pos]);
        assert_eq!(copies, [true, true, false], "{name}: two copies stored");
        assert_same_state(&router, &reference, "delete");
        assert!(!router.contains(b"twice"), "{name}");
    }
    check(
        || ShardedConcurrentVcf::new(config, 4).unwrap(),
        &inserts,
        &deletes,
    );
    check(|| ShardedVcf::new(config, 4).unwrap(), &inserts, &deletes);
    check(
        || ShardedScalableVcf::new(config, 4).unwrap(),
        &inserts,
        &deletes,
    );
}

#[test]
fn wide_router_matches_per_shard_reference() {
    // 2^10 shards of 4 buckets: each of the 2^8 buckets the batch is
    // grouped by holds 4 shards, split in place, and the overfilled
    // batch's refusals depend on each shard seeing its keys in order.
    let (_, _, refused) = check_router(|| ShardedConcurrentVcf::new(config(), 10).unwrap());
    assert!(refused > 0, "an overfilled batch must refuse inserts");
}
