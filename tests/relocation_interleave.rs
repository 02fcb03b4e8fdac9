//! Loom-style interleaving test for the two-bucket relocation critical
//! section.
//!
//! The workspace is offline, so instead of the `loom` crate this uses a
//! shim: the relocation protocol (`ConcurrentVcf::move_one`), the
//! candidate-locked delete and the optimistic lookup are re-expressed as
//! explicit step state machines over a real [`AtomicFingerprintTable`]
//! and a real striped seqlock word array. A driver then enumerates thousands of schedules —
//! a bit string chooses which actor advances at each step, falling back
//! to round-robin once the string is exhausted — and asserts protocol
//! invariants after *every* step of *every* schedule:
//!
//! * a fingerprint being relocated is never lost: it is visible in the
//!   source or destination bucket at each instant (copy-then-clear),
//! * it is never duplicated *beyond* the intentional transient second
//!   copy, which only exists while both bucket locks are held,
//! * the occupancy counter always equals the number of non-empty lanes,
//! * the "undo claim" fallback in `move_one` is unreachable when the
//!   locking discipline is followed (the state machine panics if it is
//!   ever entered — the two-bucket lock must make `replace_expect`
//!   infallible after validation),
//! * no schedule deadlocks,
//! * a lookup never reports a validated miss for a fingerprint that is
//!   present throughout.
//!
//! Every scenario runs under three stripings of the four buckets: one
//! stripe per bucket, two buckets per stripe, and one stripe for all.
//! The shared stripes are where a lock taken twice, or taken out of
//! ascending stripe order, would hang.
//!
//! This checks the protocol's *logic* under every modelled interleaving;
//! it does not model weak memory (the schedules execute sequentially).
//! The memory-ordering argument is in DESIGN.md §7, and the
//! timing-driven stress tests live in `concurrent_oracle.rs`.

use std::sync::atomic::{AtomicU32, Ordering};
use vertical_cuckoo_filters::table::AtomicFingerprintTable;

const BUCKETS: usize = 4;
const SLOTS: usize = 4;
const FP_BITS: u32 = 8;

/// Stripe counts every scenario runs under: per bucket, pairs, one.
const STRIPINGS: [usize; 3] = [BUCKETS, BUCKETS / 2, 1];

/// Striped seqlock words, mirroring `ConcurrentVcf::stripes`: bucket `b`
/// is guarded by stripe `b & (stripes − 1)`.
struct Locks(Vec<AtomicU32>);

impl Locks {
    fn new(stripes: usize) -> Self {
        assert!(stripes.is_power_of_two());
        Self((0..stripes).map(|_| AtomicU32::new(0)).collect())
    }

    fn stripe_of(&self, bucket: usize) -> usize {
        bucket & (self.0.len() - 1)
    }

    /// The distinct stripes of `buckets`, ascending: the lock order.
    fn stripes_of(&self, buckets: &[usize]) -> Vec<usize> {
        let mut stripes: Vec<usize> = buckets.iter().map(|&b| self.stripe_of(b)).collect();
        stripes.sort_unstable();
        stripes.dedup();
        stripes
    }

    /// The version word of `bucket`'s stripe.
    fn version(&self, bucket: usize) -> &AtomicU32 {
        &self.0[self.stripe_of(bucket)]
    }

    /// One lock-acquisition attempt (a single schedule step). Returns
    /// `true` on success.
    fn try_lock(&self, stripe: usize) -> bool {
        let v = &self.0[stripe];
        let cur = v.load(Ordering::Relaxed);
        cur & 1 == 0
            && v.compare_exchange(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    fn unlock(&self, stripe: usize) {
        self.0[stripe].fetch_add(1, Ordering::Release);
    }

    fn any_locked(&self) -> bool {
        self.0.iter().any(|v| v.load(Ordering::Relaxed) & 1 == 1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Pending,
    Won,
    Lost,
}

/// A step-at-a-time actor in the model.
enum Actor {
    /// `move_one` head hop: move `victim` out of `(src, src_slot)` into
    /// `dst`, installing `new_fp` in the vacated lane in the same CAS.
    Relocator {
        src: usize,
        src_slot: usize,
        victim: u32,
        dst: usize,
        new_fp: u32,
        state: u8,
        outcome: Outcome,
    },
    /// Candidate-locked delete of `fp`, probing `candidates` under their
    /// stripes (taken in ascending order, like `ConcurrentVcf::delete`).
    Deleter {
        candidates: Vec<usize>,
        fp: u32,
        state: u8,
        acquired: usize,
        outcome: Outcome,
    },
    /// Optimistic lookup of `fp`, as `ConcurrentVcf::contains`: load the
    /// stripe versions of `candidates` in candidate order (unsorted, a
    /// shared stripe read twice), probe in the same order, and on a miss
    /// re-read every version. A changed or odd version retries; after
    /// `retries` failed validations the lookup decides under the
    /// candidate stripes, taken ascending. `Won` is a hit, `Lost` a miss.
    Reader {
        candidates: Vec<usize>,
        fp: u32,
        retries: usize,
        before: Vec<u32>,
        state: u8,
        /// Position inside the current phase (version, probe, lock).
        at: usize,
        /// Failed validations so far.
        failed: usize,
        outcome: Outcome,
    },
}

impl Actor {
    fn relocator(src: usize, src_slot: usize, victim: u32, dst: usize, new_fp: u32) -> Self {
        Actor::Relocator {
            src,
            src_slot,
            victim,
            dst,
            new_fp,
            state: 0,
            outcome: Outcome::Pending,
        }
    }

    fn deleter(mut candidates: Vec<usize>, fp: u32) -> Self {
        candidates.sort_unstable();
        candidates.dedup();
        Actor::Deleter {
            candidates,
            fp,
            state: 0,
            acquired: 0,
            outcome: Outcome::Pending,
        }
    }

    fn reader(candidates: Vec<usize>, fp: u32, retries: usize) -> Self {
        Actor::Reader {
            before: vec![0; candidates.len()],
            candidates,
            fp,
            retries,
            state: 0,
            at: 0,
            failed: 0,
            outcome: Outcome::Pending,
        }
    }

    fn done(&self) -> bool {
        match self {
            Actor::Relocator { state, .. } => *state == 9,
            Actor::Deleter { state, .. } => *state == 3,
            Actor::Reader { state, .. } => *state == 6,
        }
    }

    fn outcome(&self) -> Outcome {
        match self {
            Actor::Relocator { outcome, .. }
            | Actor::Deleter { outcome, .. }
            | Actor::Reader { outcome, .. } => *outcome,
        }
    }

    /// Advances the actor by one atomic step of the modelled protocol.
    fn step(&mut self, table: &AtomicFingerprintTable, locks: &Locks) {
        match self {
            Actor::Relocator {
                src,
                src_slot,
                victim,
                dst,
                new_fp,
                state,
                outcome,
            } => {
                let pair = locks.stripes_of(&[*src, *dst]);
                let (lo, hi) = (pair[0], pair[pair.len() - 1]);
                match *state {
                    // Lock low then high stripe — the global ascending
                    // order; one lock when src and dst share a stripe.
                    0 => {
                        if locks.try_lock(lo) {
                            *state = if hi == lo { 2 } else { 1 };
                        }
                    }
                    1 => {
                        if locks.try_lock(hi) {
                            *state = 2;
                        }
                    }
                    // Re-validate the source lane under the locks.
                    2 => {
                        if table.get(*src, *src_slot) == *victim {
                            *state = 3;
                        } else {
                            *outcome = Outcome::Lost;
                            *state = 7;
                        }
                    }
                    // Claim a destination lane (transient second copy).
                    3 => match table.try_claim(*dst, *victim) {
                        Some(_) => *state = 4,
                        None => {
                            *outcome = Outcome::Lost;
                            *state = 7;
                        }
                    },
                    // Swap our fingerprint into the vacated source lane.
                    4 => {
                        if table.replace_expect(*src, *src_slot, *victim, *new_fp) {
                            *outcome = Outcome::Won;
                            *state = 7;
                        } else {
                            // move_one's defensive undo. With both bucket
                            // locks held past a successful validation it
                            // must be dead code; reaching it means the
                            // locking discipline failed to protect the
                            // source lane.
                            panic!("undo path reached: source lane changed under two-bucket lock");
                        }
                    }
                    // Release high then low.
                    7 => {
                        if hi != lo {
                            locks.unlock(hi);
                        }
                        *state = 8;
                    }
                    8 => {
                        locks.unlock(lo);
                        *state = 9;
                    }
                    _ => unreachable!("stepping a finished relocator"),
                }
            }
            Actor::Deleter {
                candidates,
                fp,
                state,
                acquired,
                outcome,
            } => match *state {
                // Acquire every candidate stripe, ascending.
                0 => {
                    let stripes = locks.stripes_of(candidates);
                    if locks.try_lock(stripes[*acquired]) {
                        *acquired += 1;
                        if *acquired == stripes.len() {
                            *state = 1;
                        }
                    }
                }
                // With all candidate locks held the probe-and-remove is
                // atomic with respect to every other critical section.
                1 => {
                    *outcome = Outcome::Lost;
                    for &bucket in candidates.iter() {
                        if let Some(slot) = table.find(bucket, *fp) {
                            assert!(
                                table.replace_expect(bucket, slot, *fp, 0),
                                "found lane changed under candidate locks"
                            );
                            *outcome = Outcome::Won;
                            break;
                        }
                    }
                    *state = 2;
                }
                // Release in reverse.
                2 => {
                    *acquired -= 1;
                    locks.unlock(locks.stripes_of(candidates)[*acquired]);
                    if *acquired == 0 {
                        *state = 3;
                    }
                }
                _ => unreachable!("stepping a finished deleter"),
            },
            Actor::Reader {
                candidates,
                fp,
                retries,
                before,
                state,
                at,
                failed,
                outcome,
            } => match *state {
                // Load one stripe version, in candidate order.
                0 => {
                    before[*at] = locks.version(candidates[*at]).load(Ordering::Acquire);
                    *at += 1;
                    if *at == candidates.len() {
                        *at = 0;
                        *state = 1;
                    }
                }
                // Probe one bucket, in candidate order; a hit needs no
                // validation.
                1 => {
                    if table.contains(candidates[*at], *fp) {
                        *outcome = Outcome::Won;
                        *state = 6;
                    } else {
                        *at += 1;
                        if *at == candidates.len() {
                            *at = 0;
                            *state = 2;
                        }
                    }
                }
                // Re-read one version: all unchanged and even makes the
                // miss definitive; anything else retries or falls back.
                2 => {
                    let now = locks.version(candidates[*at]).load(Ordering::Acquire);
                    *at += 1;
                    if now != before[*at - 1] || now & 1 == 1 {
                        *failed += 1;
                        *at = 0;
                        *state = if *failed == *retries { 3 } else { 0 };
                    } else if *at == candidates.len() {
                        *outcome = Outcome::Lost;
                        *state = 6;
                    }
                }
                // Fallback: acquire the candidate stripes, ascending.
                3 => {
                    let stripes = locks.stripes_of(candidates);
                    if locks.try_lock(stripes[*at]) {
                        *at += 1;
                        if *at == stripes.len() {
                            *state = 4;
                        }
                    }
                }
                // Decide under every candidate stripe.
                4 => {
                    let hit = candidates.iter().any(|&b| table.contains(b, *fp));
                    *outcome = if hit { Outcome::Won } else { Outcome::Lost };
                    *state = 5;
                }
                // Release in reverse.
                5 => {
                    *at -= 1;
                    locks.unlock(locks.stripes_of(candidates)[*at]);
                    if *at == 0 {
                        *state = 6;
                    }
                }
                _ => unreachable!("stepping a finished reader"),
            },
        }
    }

    /// Failed validations of a reader so far.
    fn failed_validations(&self) -> usize {
        match self {
            Actor::Reader { failed, .. } => *failed,
            _ => 0,
        }
    }
}

fn count_fp(table: &AtomicFingerprintTable, fp: u32) -> usize {
    let mut n = 0;
    for b in 0..BUCKETS {
        for s in 0..SLOTS {
            if table.get(b, s) == fp {
                n += 1;
            }
        }
    }
    n
}

fn count_nonzero(table: &AtomicFingerprintTable) -> usize {
    let mut n = 0;
    for b in 0..BUCKETS {
        for s in 0..SLOTS {
            if table.get(b, s) != 0 {
                n += 1;
            }
        }
    }
    n
}

/// Builds the shared table for a scenario: `victims` are pre-placed
/// fingerprints; `fill` packs extra distinct fingerprints into a bucket
/// to constrain free slots.
fn build_table(victims: &[(usize, u32)], fill: &[(usize, usize)]) -> AtomicFingerprintTable {
    let table = AtomicFingerprintTable::new(BUCKETS, SLOTS, FP_BITS).unwrap();
    for &(bucket, fp) in victims {
        table
            .try_claim(bucket, fp)
            .expect("victim placement failed");
    }
    let mut next_fp = 0xE0u32;
    for &(bucket, n) in fill {
        for _ in 0..n {
            table
                .try_claim(bucket, next_fp)
                .expect("filler placement failed");
            next_fp += 1;
        }
    }
    table
}

/// Drives two actors through the schedule encoded in `seed`, asserting
/// the step invariants for `tracked` fingerprints throughout, and
/// returns the actors' outcomes.
fn run_schedule(
    actors: [Actor; 2],
    table: &AtomicFingerprintTable,
    locks: &Locks,
    tracked: &[u32],
    seed: u64,
) -> [Outcome; 2] {
    drive(actors, table, locks, tracked, seed).map(|actor| actor.outcome())
}

/// [`run_schedule`], returning the finished actors.
fn drive(
    mut actors: [Actor; 2],
    table: &AtomicFingerprintTable,
    locks: &Locks,
    tracked: &[u32],
    seed: u64,
) -> [Actor; 2] {
    let mut step = 0u32;
    while !(actors[0].done() && actors[1].done()) {
        assert!(step < 1_000, "schedule failed to terminate (deadlock?)");
        // Schedule bits first, then round-robin so blocked actors cannot
        // livelock the driver.
        let bit = if step < 14 {
            ((seed >> step) & 1) as usize
        } else {
            (step & 1) as usize
        };
        let pick = if actors[bit].done() { 1 - bit } else { bit };
        actors[pick].step(table, locks);
        step += 1;

        // Invariants at every step of every interleaving:
        for &fp in tracked {
            let copies = count_fp(table, fp);
            assert!(copies <= 2, "fingerprint {fp:#x} over-duplicated: {copies}");
            if copies == 2 {
                // The transient duplicate may exist only inside a locked
                // relocation hop.
                assert!(
                    locks.any_locked(),
                    "duplicate of {fp:#x} visible with no stripe locked"
                );
            }
        }
        assert_eq!(
            table.occupied(),
            count_nonzero(table),
            "occupancy counter out of sync with physical lanes"
        );
    }
    actors
}

const SCHEDULES: u64 = 1 << 14;

/// Every `(stripe count, schedule seed)` pair a scenario runs.
fn schedules() -> impl Iterator<Item = (usize, u64)> {
    STRIPINGS
        .into_iter()
        .flat_map(|stripes| (0..SCHEDULES).map(move |seed| (stripes, seed)))
}

/// Two relocators race to move the *same* victim out of the same lane
/// toward different destinations. Exactly one may win; the victim ends
/// up in exactly one place; both new fingerprints are accounted
/// according to the winners.
#[test]
fn racing_relocators_same_victim_different_destinations() {
    const VICTIM: u32 = 0x11;
    for (stripes, seed) in schedules() {
        let table = build_table(&[(1, VICTIM)], &[]);
        let locks = Locks::new(stripes);
        let actors = [
            Actor::relocator(1, 0, VICTIM, 0, 0xAA),
            Actor::relocator(1, 0, VICTIM, 2, 0xBB),
        ];
        let outcomes = run_schedule(actors, &table, &locks, &[VICTIM, 0xAA, 0xBB], seed);
        let wins = outcomes.iter().filter(|&&o| o == Outcome::Won).count();
        assert_eq!(
            wins, 1,
            "stripes {stripes}, seed {seed}: exactly one relocator must win"
        );
        assert_eq!(
            count_fp(&table, VICTIM),
            1,
            "stripes {stripes}, seed {seed}: victim lost or duplicated"
        );
        let winner_fp = if outcomes[0] == Outcome::Won {
            0xAA
        } else {
            0xBB
        };
        let loser_fp = if outcomes[0] == Outcome::Won {
            0xBB
        } else {
            0xAA
        };
        assert_eq!(
            count_fp(&table, winner_fp),
            1,
            "stripes {stripes}, seed {seed}: winner's fp missing"
        );
        assert_eq!(
            count_fp(&table, loser_fp),
            0,
            "stripes {stripes}, seed {seed}: loser's fp leaked"
        );
        assert_eq!(
            table.occupied(),
            2,
            "stripes {stripes}, seed {seed}: occupancy wrong"
        );
    }
}

/// Two relocators with *different* victims race for the single free slot
/// of a shared destination bucket. The claim CAS arbitrates: one wins
/// the slot, the other aborts cleanly with its victim untouched.
#[test]
fn racing_relocators_contend_for_last_destination_slot() {
    const V1: u32 = 0x21;
    const V2: u32 = 0x22;
    for (stripes, seed) in schedules() {
        // Bucket 0 keeps exactly one free slot.
        let table = build_table(&[(1, V1), (2, V2)], &[(0, SLOTS - 1)]);
        let locks = Locks::new(stripes);
        let actors = [
            Actor::relocator(1, 0, V1, 0, 0xAA),
            Actor::relocator(2, 0, V2, 0, 0xBB),
        ];
        let outcomes = run_schedule(actors, &table, &locks, &[V1, V2], seed);
        let wins = outcomes.iter().filter(|&&o| o == Outcome::Won).count();
        assert_eq!(
            wins, 1,
            "stripes {stripes}, seed {seed}: the single free slot admits one winner"
        );
        assert_eq!(
            count_fp(&table, V1),
            1,
            "stripes {stripes}, seed {seed}: victim 1 lost/duplicated"
        );
        assert_eq!(
            count_fp(&table, V2),
            1,
            "stripes {stripes}, seed {seed}: victim 2 lost/duplicated"
        );
        // Winner moved its victim and installed its fp; loser's victim
        // must still be in its original lane.
        if outcomes[0] == Outcome::Won {
            assert_eq!(
                table.get(2, 0),
                V2,
                "stripes {stripes}, seed {seed}: loser's victim moved"
            );
        } else {
            assert_eq!(
                table.get(1, 0),
                V1,
                "stripes {stripes}, seed {seed}: loser's victim moved"
            );
        }
    }
}

/// A relocator races a candidate-locked deleter for the same
/// fingerprint. Whatever the interleaving: the delete succeeds exactly
/// once (the fingerprint is continuously visible somewhere in its
/// candidate set), and afterwards exactly zero copies remain.
#[test]
fn relocator_races_candidate_locked_deleter() {
    const VICTIM: u32 = 0x33;
    for (stripes, seed) in schedules() {
        let table = build_table(&[(1, VICTIM)], &[]);
        let locks = Locks::new(stripes);
        let actors = [
            Actor::relocator(1, 0, VICTIM, 0, 0xAA),
            // The deleter holds the victim's whole (modelled) candidate
            // set, which by Theorem 1 closure contains both src and dst.
            Actor::deleter(vec![0, 1, 2, 3], VICTIM),
        ];
        let outcomes = run_schedule(actors, &table, &locks, &[VICTIM, 0xAA], seed);
        assert_eq!(
            outcomes[1],
            Outcome::Won,
            "stripes {stripes}, seed {seed}: delete must find the continuously-visible fingerprint"
        );
        assert_eq!(
            count_fp(&table, VICTIM),
            0,
            "stripes {stripes}, seed {seed}: deleted fp survived"
        );
        // The relocator either completed before the delete (moved the fp,
        // installed 0xAA, then the deleter removed the moved copy) or
        // lost its validation; either way 0xAA's count matches its
        // outcome.
        let expect_aa = usize::from(outcomes[0] == Outcome::Won);
        assert_eq!(
            count_fp(&table, 0xAA),
            expect_aa,
            "stripes {stripes}, seed {seed}: inserted fp wrong"
        );
        assert_eq!(
            table.occupied(),
            count_nonzero(&table),
            "stripes {stripes}, seed {seed}"
        );
    }
}

/// A relocation and a delete with disjoint buckets: relocate `V` from
/// bucket 3 to bucket 2 while deleting `D` from candidates {0, 1}. With a
/// stripe per bucket they never meet; with two or one stripes they lock
/// the same stripes, the relocator as (src, dst) = (1, 0) in stripe
/// terms. Both must still finish and both must win.
#[test]
fn disjoint_relocator_and_deleter_share_stripes() {
    const V: u32 = 0x41;
    const D: u32 = 0x42;
    for (stripes, seed) in schedules() {
        let table = build_table(&[(3, V), (0, D)], &[]);
        let locks = Locks::new(stripes);
        let actors = [
            Actor::relocator(3, 0, V, 2, 0xAA),
            Actor::deleter(vec![1, 0], D),
        ];
        let outcomes = run_schedule(actors, &table, &locks, &[V, D, 0xAA], seed);
        assert_eq!(
            outcomes,
            [Outcome::Won, Outcome::Won],
            "stripes {stripes}, seed {seed}: a disjoint pair must both win"
        );
        assert_eq!(
            table.get(2, 0),
            V,
            "stripes {stripes}, seed {seed}: victim not moved"
        );
        assert_eq!(
            table.get(3, 0),
            0xAA,
            "stripes {stripes}, seed {seed}: new fp missing"
        );
        assert_eq!(
            count_fp(&table, D),
            0,
            "stripes {stripes}, seed {seed}: delete missed"
        );
        assert_eq!(table.occupied(), 2, "stripes {stripes}, seed {seed}");
        assert!(
            !locks.any_locked(),
            "stripes {stripes}, seed {seed}: lock leaked"
        );
    }
}

/// A lookup races a relocator moving its own fingerprint from bucket 1 to
/// bucket 0, both candidates of the lookup. Probing 0 before 1 is the
/// "moved behind the probe" race: the probe can miss both copies. Its
/// validation must catch every such miss, so the lookup always hits.
/// With one allowed failed validation the catch goes to the locked
/// fallback, with two to an optimistic retry first; the races must
/// happen for both. Probing 1 before 0 cannot miss at all.
#[test]
fn optimistic_reader_never_validates_a_miss_under_relocation() {
    const VICTIM: u32 = 0x51;
    for (candidates, races) in [(vec![0, 1, 2, 3], true), (vec![1, 0, 3, 2], false)] {
        for retries in [1, 2] {
            let mut caught = 0;
            for (stripes, seed) in schedules() {
                let table = build_table(&[(1, VICTIM)], &[]);
                let locks = Locks::new(stripes);
                let actors = [
                    Actor::relocator(1, 0, VICTIM, 0, 0xAA),
                    Actor::reader(candidates.clone(), VICTIM, retries),
                ];
                let [relocator, reader] = drive(actors, &table, &locks, &[VICTIM, 0xAA], seed);
                let at = format!(
                    "order {candidates:?}, retries {retries}, stripes {stripes}, seed {seed}"
                );
                assert_eq!(
                    reader.outcome(),
                    Outcome::Won,
                    "{at}: validated a miss of a present fingerprint"
                );
                assert_eq!(relocator.outcome(), Outcome::Won, "{at}: the hop failed");
                assert!(!locks.any_locked(), "{at}: lock leaked");
                caught += usize::from(reader.failed_validations() > 0);
            }
            assert_eq!(
                caught > 0,
                races,
                "order {candidates:?}, retries {retries}: {caught} schedules failed validation"
            );
        }
    }
}
