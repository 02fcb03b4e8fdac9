//! Base-`d` digit-wise modular arithmetic — the indexing substrate of the
//! D-ary Cuckoo filter.
//!
//! DCF generalizes partial-key cuckoo hashing's XOR to a base-`d`
//! "digit-wise XOR" (Equ. 2): both indices are written in base `d` and
//! added digit by digit modulo `d`. Applying the same offset `d` times
//! cycles back to the start (`X = X ⊕ Y ⊕ Y ⊕ … ⊕ Y`, d times), which is
//! what lets the `d` candidate buckets index each other using only the
//! stored fingerprint — at the cost of explicit base conversions on every
//! operation, the overhead the paper's Table III and Fig. 6/7 measure.
//!
//! The functions here deliberately perform the digit decomposition the way
//! a faithful DCF implementation must (div/mod loops), rather than
//! special-casing power-of-two `d` into bit tricks: DCF's measured
//! slowness relative to VCF *is* this conversion cost.

/// Digit-wise addition modulo `d`: the DCF "XOR" of Equ. 2.
///
/// Both operands are interpreted as `digits`-digit base-`d` numbers; the
/// result is guaranteed to stay below `d^digits`. This is the textbook
/// form [`add_mod_mixed`] is checked against.
///
/// # Panics
///
/// Panics if `d < 2` or an operand does not fit in `digits` base-`d`
/// digits (debug builds).
///
/// # Examples
///
/// ```
/// use vcf_core::base_d::add_mod;
///
/// // 11_4 ⊕ 13_4 = (1+1 mod 4, 1+3 mod 4) = 20_4 = 8 in decimal:
/// // 5 = 11_4, 7 = 13_4.
/// assert_eq!(add_mod(5, 7, 4, 2), 8);
/// ```
pub fn add_mod(x: usize, y: usize, d: usize, digits: u32) -> usize {
    assert!(d >= 2, "base must be at least 2");
    debug_assert!(x < d.pow(digits), "x out of range");
    debug_assert!(y < d.pow(digits), "y out of range");
    let mut x = x;
    let mut y = y;
    let mut result = 0usize;
    let mut place = 1usize;
    for _ in 0..digits {
        let digit = (x % d + y % d) % d;
        result += digit * place;
        place *= d;
        x /= d;
        y /= d;
    }
    result
}

/// Mixed-radix digit-wise addition: like [`add_mod`] but with a
/// little-endian list of per-digit radices. The ⊕_d cycle property
/// (`X ⊕ Y` applied `d` times returns to `X`) holds as long as every
/// radix divides `d` — see [`radices_for`].
pub fn add_mod_mixed(x: usize, y: usize, radices: &[usize]) -> usize {
    add_mul_mixed(x, y, 1, radices)
}

/// Mixed-radix digit-wise `x ⊕ times·y` in one digit pass: adding `y` to
/// `x` `times` times with [`add_mod_mixed`]. DCF jumps straight to
/// candidate `e` this way (`B_{e+1} = B_1 ⊕ e·H`).
///
/// # Examples
///
/// ```
/// use vcf_core::base_d::{add_mod_mixed, add_mul_mixed};
///
/// let radices = [4, 4, 2]; // 32 buckets
/// let twice = add_mod_mixed(add_mod_mixed(5, 27, &radices), 27, &radices);
/// assert_eq!(add_mul_mixed(5, 27, 2, &radices), twice);
/// ```
pub fn add_mul_mixed(x: usize, y: usize, times: usize, radices: &[usize]) -> usize {
    let mut x = x;
    let mut y = y;
    let mut result = 0usize;
    let mut place = 1usize;
    for &radix in radices {
        debug_assert!(radix >= 2);
        let digit = (x % radix + times * (y % radix)) % radix;
        result += digit * place;
        place *= radix;
        x /= radix;
        y /= radix;
    }
    result
}

/// Decomposes a table size `m` into digit radices compatible with `d`-ary
/// cyclic offsets: as many base-`d` digits as fit, plus at most one
/// leading digit whose radix divides `d`. Returns `None` when `m` cannot
/// be expressed that way (e.g. `m = 3 · 4^t` for `d = 4`).
///
/// This is what lets the D-ary filter accept *any* power-of-two bucket
/// count for `d = 4` (`2^odd = 2 · 4^t`), not only exact powers of 4.
///
/// # Examples
///
/// ```
/// use vcf_core::base_d::radices_for;
///
/// assert_eq!(radices_for(1024, 4), Some(vec![4, 4, 4, 4, 4]));
/// assert_eq!(radices_for(2048, 4), Some(vec![4, 4, 4, 4, 4, 2]));
/// assert_eq!(radices_for(96, 4), None);
/// ```
pub fn radices_for(m: usize, d: usize) -> Option<Vec<usize>> {
    if d < 2 || m == 0 {
        return None;
    }
    let mut remaining = m;
    let mut radices = Vec::new();
    while remaining.is_multiple_of(d) {
        radices.push(d);
        remaining /= d;
    }
    match remaining {
        1 => {}
        r if r > 1 && d.is_multiple_of(r) => radices.push(r),
        _ => return None,
    }
    if radices.is_empty() {
        return None; // m == 1
    }
    Some(radices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_closes_after_d_applications() {
        // Equ. 2: X = X ⊕ Y applied d times returns to X.
        for d in 2..=6usize {
            let digits = 3u32;
            let m = d.pow(digits);
            for x in [0usize, 1, 7, m - 1] {
                for y in [1usize, d - 1, m / 2, m - 1] {
                    let mut cur = x;
                    for _ in 0..d {
                        cur = add_mod(cur, y, d, digits);
                    }
                    assert_eq!(cur, x, "cycle broken: d={d} x={x} y={y}");
                }
            }
        }
    }

    #[test]
    fn add_matches_known_base4_example() {
        // 5 = 11_4, 7 = 13_4 → digit-wise (1+1, 1+3) mod 4 = (2, 0) = 20_4 = 8.
        assert_eq!(add_mod(5, 7, 4, 2), 8);
        // XOR equivalence in base 2: digit-wise add mod 2 IS xor.
        for x in 0..16usize {
            for y in 0..16usize {
                assert_eq!(add_mod(x, y, 2, 4), x ^ y);
            }
        }
    }

    #[test]
    fn mul_is_repeated_add() {
        for m in [1usize << 6, 1 << 7] {
            let radices = radices_for(m, 4).unwrap();
            for x in (0..m).step_by(7) {
                for y in (0..m).step_by(5) {
                    let mut acc = x;
                    for times in 0..8 {
                        assert_eq!(
                            add_mul_mixed(x, y, times, &radices),
                            acc,
                            "m={m} x={x} y={y} times={times}"
                        );
                        acc = add_mod_mixed(acc, y, &radices);
                    }
                }
            }
        }
    }

    #[test]
    fn results_stay_in_range() {
        let d = 4usize;
        let digits = 5;
        let m = d.pow(digits);
        for x in (0..m).step_by(97) {
            for y in (0..m).step_by(131) {
                assert!(add_mod(x, y, d, digits) < m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "base must be at least 2")]
    fn base_one_panics() {
        add_mod(0, 0, 1, 3);
    }

    #[test]
    fn radices_decomposition() {
        assert_eq!(radices_for(4, 4), Some(vec![4]));
        assert_eq!(radices_for(8, 4), Some(vec![4, 2]));
        assert_eq!(radices_for(1 << 9, 4), Some(vec![4, 4, 4, 4, 2]));
        assert_eq!(radices_for(27, 3), Some(vec![3, 3, 3]));
        assert_eq!(radices_for(12, 4), None); // 3 does not divide 4
        assert_eq!(radices_for(1, 4), None);
        assert_eq!(radices_for(0, 4), None);
    }

    #[test]
    fn mixed_matches_pure_when_exact_power() {
        let radices = radices_for(256, 4).unwrap();
        for x in (0..256).step_by(13) {
            for y in (0..256).step_by(17) {
                assert_eq!(add_mod_mixed(x, y, &radices), add_mod(x, y, 4, 4));
            }
        }
    }

    #[test]
    fn mixed_cycle_closes_for_all_pow2_sizes() {
        // Every power-of-two table size must close after d = 4 steps.
        for bits in 2..=12u32 {
            let m = 1usize << bits;
            let radices = radices_for(m, 4).expect("pow2 decomposes");
            assert_eq!(radices.iter().product::<usize>(), m);
            for x in [0usize, 1, m / 3, m - 1] {
                for y in [1usize, m / 2, m - 1] {
                    let mut cur = x;
                    for _ in 0..4 {
                        cur = add_mod_mixed(cur, y, &radices);
                    }
                    assert_eq!(cur, x, "cycle broken: m={m} x={x} y={y}");
                }
            }
        }
    }

    #[test]
    fn mixed_results_stay_in_range() {
        let radices = radices_for(1 << 11, 4).unwrap();
        for x in (0..1 << 11).step_by(97) {
            for y in (0..1 << 11).step_by(131) {
                assert!(add_mod_mixed(x, y, &radices) < 1 << 11);
            }
        }
    }
}
