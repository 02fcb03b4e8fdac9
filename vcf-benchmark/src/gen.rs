//! Counter-based, seeded key and frame generation.
//!
//! No trace is stored: every key id is `tag << 56 | mix64(salt + i) >> 8`
//! for a counter `i`, so a connection only keeps the bounds of its live
//! range, and the same seed always yields the same frames. The top byte
//! says who owns a key:
//!
//! * `0x10 | conn` — keys a connection inserts (its half of the prefill,
//!   then fresh inserts), deleted oldest-first;
//! * `0xE0 | conn` — the trace's op-coverage tail (inserted, then
//!   deleted again);
//! * `0xF0 | conn` — never-inserted probe keys, which no insert uses, so
//!   any lookup that returns 1 on them is a false positive.

use std::ops::Range;

use vcf_hash::{mix64, SplitMix64};
use vcf_server::OpCode;

const DATA_TAG: u8 = 0x10;
const TAIL_TAG: u8 = 0xE0;
const PROBE_TAG: u8 = 0xF0;

/// Connections a run may use: the connection index must fit under the
/// tag nibble.
pub const MAX_CONNECTIONS: usize = 16;

/// What a frame carries, and so how its reply bits are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fresh keys of the connection; each bit = stored.
    Insert,
    /// The connection's oldest acknowledged keys; each bit must be 1.
    Delete,
    /// Alternating keys: even positions live (bit must be 1), odd
    /// positions never inserted (a 1 is a false positive).
    Lookup,
    /// Never-inserted keys only.
    Probe,
    /// Trace tail keys, inserted.
    TailInsert,
    /// Trace tail keys, deleted oldest-first.
    TailDelete,
}

impl Shape {
    /// The wire opcode that carries this frame.
    #[must_use]
    pub fn opcode(self) -> OpCode {
        match self {
            Shape::Insert | Shape::TailInsert => OpCode::Insert,
            Shape::Delete | Shape::TailDelete => OpCode::Delete,
            Shape::Lookup | Shape::Probe => OpCode::Lookup,
        }
    }
}

/// The 8-byte key id `i` of tag `tag` under `salt`.
#[must_use]
fn key_id(tag: u8, salt: u64, i: u64) -> u64 {
    (u64::from(tag) << 56) | (mix64(salt.wrapping_add(i)) >> 8)
}

/// The key ids a connection's generator mints: data keys, tail keys and
/// never-inserted probe keys, all under one run salt.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    salt: u64,
    conn: u8,
}

impl KeySpace {
    /// Connection `conn`'s key space under run seed `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `conn >= MAX_CONNECTIONS`.
    #[must_use]
    pub fn new(seed: u64, conn: usize) -> Self {
        assert!(conn < MAX_CONNECTIONS, "connection index {conn} too large");
        Self {
            salt: mix64(seed),
            conn: conn as u8,
        }
    }

    /// Data key `i` (prefill and fresh inserts).
    #[must_use]
    pub fn data(&self, i: u64) -> u64 {
        key_id(DATA_TAG | self.conn, self.salt, i)
    }

    /// Trace-tail key `i`.
    #[must_use]
    pub fn tail(&self, i: u64) -> u64 {
        key_id(TAIL_TAG | self.conn, self.salt, i)
    }

    /// Never-inserted probe key `i`.
    #[must_use]
    pub fn probe(&self, i: u64) -> u64 {
        key_id(PROBE_TAG | self.conn, self.salt, i)
    }

    /// Whether `key` is one of this connection's never-inserted keys.
    #[must_use]
    pub fn is_probe(&self, key: u64) -> bool {
        key >> 56 == u64::from(PROBE_TAG | self.conn)
    }
}

/// One connection's frame source: a repeating cycle of shapes over the
/// connection's live range `[lo, hi)` of data ids.
#[derive(Debug, Clone)]
pub struct FrameGen {
    space: KeySpace,
    rng: SplitMix64,
    cycle: &'static [Shape],
    keys_per_frame: usize,
    frame: usize,
    live: Range<u64>,
    tail: Range<u64>,
    probes: u64,
}

impl FrameGen {
    /// A generator whose data ids `live` are already stored (the
    /// connection's share of the prefill).
    #[must_use]
    pub fn new(
        seed: u64,
        conn: usize,
        cycle: &'static [Shape],
        keys_per_frame: usize,
        live: Range<u64>,
    ) -> Self {
        Self {
            space: KeySpace::new(seed, conn),
            rng: SplitMix64::new(seed ^ mix64(conn as u64 + 1)),
            cycle,
            keys_per_frame,
            frame: 0,
            tail: 0..0,
            live,
            probes: 0,
        }
    }

    /// The key space this generator draws from.
    #[must_use]
    pub fn space(&self) -> KeySpace {
        self.space
    }

    /// Fills `keys` with the next frame of the cycle and returns its
    /// shape.
    pub fn next_frame(&mut self, keys: &mut Vec<u64>) -> Shape {
        let shape = self.cycle[self.frame % self.cycle.len()];
        self.frame += 1;
        self.fill(shape, self.keys_per_frame, keys);
        shape
    }

    /// Fills `keys` with `n` keys of `shape`, advancing the live, tail
    /// and probe counters.
    pub fn fill(&mut self, shape: Shape, n: usize, keys: &mut Vec<u64>) {
        keys.clear();
        let n = n as u64;
        match shape {
            Shape::Insert => {
                keys.extend((self.live.end..self.live.end + n).map(|i| self.space.data(i)));
                self.live.end += n;
            }
            Shape::Delete => {
                let end = (self.live.start + n).min(self.live.end);
                keys.extend((self.live.start..end).map(|i| self.space.data(i)));
                self.live.start = end;
            }
            Shape::Lookup => {
                for pos in 0..n {
                    if pos % 2 == 0 && !self.live.is_empty() {
                        let span = self.live.end - self.live.start;
                        let pick = self.live.start + self.rng.next_below(span);
                        keys.push(self.space.data(pick));
                    } else {
                        keys.push(self.space.probe(self.probes));
                        self.probes += 1;
                    }
                }
            }
            Shape::Probe => {
                keys.extend((self.probes..self.probes + n).map(|i| self.space.probe(i)));
                self.probes += n;
            }
            Shape::TailInsert => {
                keys.extend((self.tail.end..self.tail.end + n).map(|i| self.space.tail(i)));
                self.tail.end += n;
            }
            Shape::TailDelete => {
                let end = (self.tail.start + n).min(self.tail.end);
                keys.extend((self.tail.start..end).map(|i| self.space.tail(i)));
                self.tail.start = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLE: &[Shape] = &[Shape::Lookup, Shape::Insert, Shape::Lookup, Shape::Delete];

    fn frames(seed: u64, conn: usize, n: usize) -> Vec<(Shape, Vec<u64>)> {
        let mut gen = FrameGen::new(seed, conn, CYCLE, 16, 0..1000);
        let mut out = Vec::new();
        for _ in 0..n {
            let mut keys = Vec::new();
            let shape = gen.next_frame(&mut keys);
            out.push((shape, keys));
        }
        for shape in [Shape::Probe, Shape::TailInsert, Shape::TailDelete] {
            let mut keys = Vec::new();
            gen.fill(shape, 64, &mut keys);
            out.push((shape, keys));
        }
        out
    }

    #[test]
    fn a_fixed_seed_gives_identical_frames() {
        assert_eq!(frames(7, 0, 200), frames(7, 0, 200));
        assert_ne!(frames(7, 0, 200), frames(8, 0, 200));
    }

    #[test]
    fn connections_keys_are_disjoint() {
        let ids = |conn| -> std::collections::HashSet<u64> {
            frames(7, conn, 400)
                .into_iter()
                .flat_map(|(_, keys)| keys)
                .collect()
        };
        let (a, b) = (ids(0), ids(1));
        assert!(!a.is_empty() && !b.is_empty());
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn never_inserted_keys_never_collide_with_inserted_ids() {
        let mut inserted = std::collections::HashSet::new();
        let mut probes = Vec::new();
        for conn in 0..2 {
            let space = KeySpace::new(7, conn);
            inserted.extend((0..1000).map(|i| space.data(i)));
            let mut gen = FrameGen::new(7, conn, CYCLE, 16, 0..1000);
            for (shape, keys) in std::iter::repeat_with(|| {
                let mut keys = Vec::new();
                let shape = gen.next_frame(&mut keys);
                (shape, keys)
            })
            .take(2000)
            {
                for &key in &keys {
                    if matches!(shape, Shape::Insert | Shape::TailInsert) {
                        inserted.insert(key);
                    } else if space.is_probe(key) {
                        probes.push(key);
                    }
                }
            }
        }
        assert!(probes.len() > 1000);
        assert!(probes.iter().all(|key| !inserted.contains(key)));
    }

    #[test]
    fn deletes_take_the_oldest_acknowledged_keys() {
        let mut gen = FrameGen::new(1, 0, &[Shape::Insert, Shape::Delete], 4, 0..2);
        let space = gen.space();
        let mut keys = Vec::new();
        assert_eq!(gen.next_frame(&mut keys), Shape::Insert);
        assert_eq!(keys, (2..6).map(|i| space.data(i)).collect::<Vec<_>>());
        assert_eq!(gen.next_frame(&mut keys), Shape::Delete);
        assert_eq!(keys, (0..4).map(|i| space.data(i)).collect::<Vec<_>>());
    }
}
