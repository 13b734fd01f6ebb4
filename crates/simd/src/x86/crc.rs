//! CRC-32 (IEEE 802.3, reflected) by carry-less-multiply folding — the
//! wide tier of [`crate::crc`].
//!
//! The message is a polynomial over GF(2); its CRC is that polynomial
//! mod `P(x)`. Because `(A·x^n + B) mod P = ((A mod P)·(x^n mod P) + B)
//! mod P`, a 128-bit accumulator can absorb the *next* 128 bits of input
//! with two 64×64 carry-less multiplies by precomputed `x^n mod P`
//! constants and one XOR, instead of sixteen dependent table loads. Four
//! independent accumulators (one cache line per iteration) hide the
//! multiplier's latency; they are then folded into one, 128 → 64 → 32 bits
//! by two more multiplies and a Barrett reduction. The scheme and the
//! constants are Gopal et al., *Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction* (Intel, 2009), bit-reflected
//! variant; `constants_are_the_documented_powers_of_x` re-derives them.
//!
//! Unlike the vector backends beside it this module is gated on the
//! *running* CPU (`is_x86_feature_detected!`), not on the build's target
//! features: the checksum guards the wire format, so a baseline build must
//! take the same fast path the `target-cpu=native` build does. Under
//! `target-cpu=native` the detection const-folds to `true`.

use core::arch::x86_64::*;

// `rev32(x^n mod P) << 1` for the distance `n` each fold step carries an
// accumulator half across (the reflected domain puts the product one bit
// low, hence the shift).
/// n = 4·128 + 32: low half of a lane, four lanes ahead.
const K1: i64 = 0x1_5444_2bd4;
/// n = 4·128 − 32: high half of a lane, four lanes ahead.
const K2: i64 = 0x1_c6e4_1596;
/// n = 128 + 32: low half, one lane ahead.
const K3: i64 = 0x1_7519_97d0;
/// n = 128 − 32: high half, one lane ahead.
const K4: i64 = 0x0_ccaa_009e;
/// n = 64: the 96 → 64 bit step.
const K5: i64 = 0x1_63cd_6124;
/// `P(x)` itself, reflected, all 33 bits.
const P_X: i64 = 0x1_db71_0641;
/// Barrett constant `⌊x^64 / P(x)⌋`, reflected, 33 bits.
const MU: i64 = 0x1_f701_1641;

/// Absorb every whole 16-byte block of `data` into the running CRC
/// register `state` (the table loop's register: initial value and final
/// XOR are the caller's) and return the new register with the unabsorbed
/// tail (< 16 bytes).
///
/// `None` — nothing absorbed — when `data` is shorter than the four
/// 16-byte lanes the fold starts from (64 B) or the CPU lacks `pclmulqdq`.
#[inline]
pub(crate) fn fold(state: u32, data: &[u8]) -> Option<(u32, &[u8])> {
    let (blocks, tail) = data.as_chunks::<16>();
    let (first, blocks) = blocks.split_first_chunk::<4>()?;
    if !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: `pclmulqdq` was detected on the running CPU just above; sse2
    // is part of the x86-64 baseline.
    Some((unsafe { fold_blocks(state, first, blocks) }, tail))
}

#[inline(always)]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// Carry accumulator `acc` forward by the distance `keys` encodes and XOR
/// in the 16 bytes that now line up with it.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold_lane(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

#[target_feature(enable = "pclmulqdq")]
fn fold_blocks(state: u32, first: &[[u8; 16]; 4], rest: &[[u8; 16]]) -> u32 {
    let [b0, b1, b2, b3] = first;
    let (mut x0, mut x1, mut x2, mut x3) = (load(b0), load(b1), load(b2), load(b3));
    // The register so far is a polynomial that precedes the message: XOR
    // it into the first four bytes.
    x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(state as i32));

    let by4 = _mm_set_epi64x(K2, K1);
    let (lines, singles) = rest.as_chunks::<4>();
    for [b0, b1, b2, b3] in lines {
        x0 = fold_lane(x0, load(b0), by4);
        x1 = fold_lane(x1, load(b1), by4);
        x2 = fold_lane(x2, load(b2), by4);
        x3 = fold_lane(x3, load(b3), by4);
    }

    let by1 = _mm_set_epi64x(K4, K3);
    let mut x = fold_lane(x0, x1, by1);
    x = fold_lane(x, x2, by1);
    x = fold_lane(x, x3, by1);
    for block in singles {
        x = fold_lane(x, load(block), by1);
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by1), _mm_srli_si128::<8>(x));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: T1 = ⌊R / x^32⌋·μ, T2 = ⌊T1 / x^32⌋·P, CRC = (R ⊕ T2) mod
    // x^32 — in the reflected domain "mod x^32" is the upper dword.
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::POLY;

    /// `rev32(x^n mod P) << 1`, by `n` single-bit steps of the reflected
    /// shift register from `x^0`.
    fn rev_x_pow(n: u32) -> i64 {
        let mut r = 0x8000_0000u32;
        for _ in 0..n {
            r = (r >> 1) ^ (POLY & (r & 1).wrapping_neg());
        }
        i64::from(r) << 1
    }

    #[test]
    fn constants_are_the_documented_powers_of_x() {
        assert_eq!(K1, rev_x_pow(4 * 128 + 32));
        assert_eq!(K2, rev_x_pow(4 * 128 - 32));
        assert_eq!(K3, rev_x_pow(128 + 32));
        assert_eq!(K4, rev_x_pow(128 - 32));
        assert_eq!(K5, rev_x_pow(64));
        assert_eq!(P_X, (i64::from(POLY) << 1) | 1);
        // μ = ⌊x^64 / P⌋ by long division over GF(2), then 33-bit reversal.
        let p: u128 = 0x1_04C1_1DB7;
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 == 1 {
                quot |= 1 << (bit - 32);
                rem ^= p << (bit - 32);
            }
        }
        assert_eq!(MU, (quot.reverse_bits() >> 31) as i64);
    }
}
