//! Small fixed-width **row scans**: byte-granular tag matching and
//! empty-slot (occupancy) movemasks over one bucket row.
//!
//! Hash-table buckets in this workspace keep their per-slot metadata packed
//! into one machine word (a *tag row*: 8 little-endian bytes, one per slot)
//! or into a short run of 32-bit lanes (the `CuckooTable` key row, the
//! MemC3 index's `[tag | item]` slot words). Probing
//! such a row is a single SSE compare + movemask; the same scan also answers
//! "where is the first empty slot?" on the insert path, replacing the scalar
//! slot walk every index used to run (ROADMAP item 3's remainder).
//!
//! All functions return a **slot bitmask** (bit `s` = slot `s`) so callers
//! can take `trailing_zeros()` for a first-match walk that is bit-identical
//! to the scalar left-to-right scan they replace. Each has an SSE2 path and
//! a portable fallback with identical semantics; the fallbacks double as the
//! test oracle.

/// Byte-equality movemask over one packed 8-byte row: bit `i` is set iff
/// little-endian byte `i` of `word` equals `needle`.
///
/// SSE2 path: move the word into the low half of an XMM register,
/// `pcmpeqb` against the splatted needle, `pmovmskb` (register byte `i`
/// maps to mask bit `i`). Portable path: a byte loop over the word.
#[inline(always)]
#[must_use]
pub fn eq_mask8(word: u64, needle: u8) -> u32 {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    // SAFETY: sse2 is guaranteed by the cfg gate; register-only ops.
    unsafe {
        use core::arch::x86_64::*;
        let v = _mm_cvtsi64_si128(word as i64);
        let eq = _mm_cmpeq_epi8(v, _mm_set1_epi8(needle as i8));
        (_mm_movemask_epi8(eq) as u32) & 0xFF
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    {
        let mut m = 0u32;
        for (i, &b) in word.to_le_bytes().iter().enumerate() {
            m |= u32::from(b == needle) << i;
        }
        m
    }
}

/// Occupancy scan over a packed 8-byte tag row: bit `i` is set iff byte `i`
/// is `0` (the empty-slot sentinel). `zero_mask8(w).trailing_zeros()` is the
/// first empty slot, exactly as the scalar left-to-right walk finds it.
#[inline(always)]
#[must_use]
pub fn zero_mask8(word: u64) -> u32 {
    eq_mask8(word, 0)
}

/// Lane-equality movemask over up to 32 contiguous `u32` lanes: bit `i` is
/// set iff `lanes[i] == needle`. Whole 4-lane groups go through one SSE2
/// `pcmpeqd` + `movmskps`; the sub-group tail (and the non-x86 build) runs
/// the identical scalar compare.
///
/// # Panics
///
/// Debug-asserts `lanes.len() <= 32` (the mask is a `u32`).
#[inline]
#[must_use]
pub fn eq_lane_mask_u32(lanes: &[u32], needle: u32) -> u32 {
    debug_assert!(lanes.len() <= 32, "mask is 32 bits");
    let mut mask = 0u32;
    let mut i = 0usize;
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    // SAFETY: sse2 is guaranteed by the cfg gate; the unaligned load reads
    // `lanes[i..i + 4]`, in bounds by the loop condition.
    unsafe {
        use core::arch::x86_64::*;
        let splat = _mm_set1_epi32(needle as i32);
        while i + 4 <= lanes.len() {
            let v = _mm_loadu_si128(lanes.as_ptr().add(i).cast());
            let eq = _mm_cmpeq_epi32(v, splat);
            mask |= (_mm_movemask_ps(_mm_castsi128_ps(eq)) as u32) << i;
            i += 4;
        }
    }
    for (j, &l) in lanes[i..].iter().enumerate() {
        mask |= u32::from(l == needle) << (i + j);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_mask8_scalar(word: u64, needle: u8) -> u32 {
        let mut m = 0u32;
        for (i, &b) in word.to_le_bytes().iter().enumerate() {
            m |= u32::from(b == needle) << i;
        }
        m
    }

    #[test]
    fn byte_mask_semantics() {
        let word = u64::from_le_bytes([9, 3, 9, 0, 9, 9, 1, 2]);
        assert_eq!(eq_mask8(word, 9), 0b0011_0101);
        assert_eq!(eq_mask8(word, 7), 0);
        assert_eq!(eq_mask8(word, 2), 0b1000_0000);
        assert_eq!(zero_mask8(word), 0b0000_1000);
        assert_eq!(zero_mask8(0), 0xFF);
        assert_eq!(zero_mask8(u64::MAX), 0);
    }

    #[test]
    fn byte_mask_matches_scalar_oracle() {
        let mut state = 0x5EED_0001u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let needle = (state >> 56) as u8;
            assert_eq!(eq_mask8(state, needle), eq_mask8_scalar(state, needle));
            assert_eq!(eq_mask8(state, 0), eq_mask8_scalar(state, 0));
        }
    }

    #[test]
    fn lane_mask_semantics() {
        assert_eq!(eq_lane_mask_u32(&[], 7), 0);
        assert_eq!(eq_lane_mask_u32(&[7], 7), 1);
        assert_eq!(eq_lane_mask_u32(&[1, 7, 7, 0, 7], 7), 0b10110);
        assert_eq!(eq_lane_mask_u32(&[0; 9], 0), 0x1FF);
        // Every alignment of the SSE2 groups + scalar tail.
        for len in 0..=32usize {
            let lanes: Vec<u32> = (0..len as u32).map(|i| i % 3).collect();
            let expect = lanes
                .iter()
                .enumerate()
                .fold(0u32, |m, (i, &l)| m | (u32::from(l == 0) << i));
            assert_eq!(eq_lane_mask_u32(&lanes, 0), expect, "len {len}");
        }
    }
}
