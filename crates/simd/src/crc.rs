//! **CRC-32** (IEEE 802.3: reflected polynomial `0xEDB88320`, initial value
//! and final XOR `0xFFFF_FFFF` — the zlib/Ethernet/PNG checksum), one-shot.
//!
//! The served store seals every wire frame with this checksum and verifies
//! it before parsing a field, on both ends of the socket, so its per-byte
//! cost is paid four times per round trip. Two tiers share one answer:
//!
//! * **Folding** ([`crate::x86::crc`]): inputs of 64 B and up on a CPU with
//!   `pclmulqdq` go through 4×128-bit carry-less-multiply folding — one
//!   cache line per iteration, ≈ 0.05 ns/B. Selected at run time, so a
//!   baseline (`target-cpu=x86-64`) build takes it too.
//! * **Portable** ([`crc32_portable`]): slicing-by-8 — eight table lookups
//!   per 8 input bytes, the lookups independent of each other — for short
//!   inputs, the < 16 B tail the folding tier leaves, and every other CPU.
//!
//! Same polynomial, same bytes: which tier ran is not observable. The
//! SSE4.2 `crc32` *instruction* is deliberately absent — it computes
//! CRC-32C (Castagnoli), a different polynomial and so a different wire
//! format.

/// The reflected IEEE polynomial.
pub(crate) const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `TABLES[0]` is the classic byte table; `TABLES[k][b]` is
/// the register after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Absorb `bytes` into the running register `state` (no initial value, no
/// final XOR), eight bytes per step.
fn update_portable(mut state: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in tail {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// CRC-32 (IEEE) of `bytes`. `crc32(b"123456789") == 0xCBF4_3926`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let (mut state, mut rest) = (!0u32, bytes);
    #[cfg(target_arch = "x86_64")]
    if let Some(folded) = crate::x86::crc::fold(state, rest) {
        (state, rest) = folded;
    }
    !update_portable(state, rest)
}

/// [`crc32`] through the portable slicing-by-8 tier only, whatever the CPU
/// — the same value, exposed so benchmarks can price the tiers apart.
#[must_use]
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !update_portable(!0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference register update: no table, no slicing.
    fn step_bitwise(mut state: u32, byte: u8) -> u32 {
        state ^= u32::from(byte);
        for _ in 0..8 {
            state = if state & 1 != 0 {
                (state >> 1) ^ POLY
            } else {
                state >> 1
            };
        }
        state
    }

    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |s, &b| step_bitwise(s, b))
    }

    fn seeded(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// Both tiers against the reference on `bytes` (the folding tier via
    /// the dispatching entry point, which takes it whenever it is
    /// detected and `bytes` is long enough).
    fn assert_tiers_agree(bytes: &[u8], expect: u32, what: &str) {
        assert_eq!(crc32_portable(bytes), expect, "portable, {what}");
        assert_eq!(crc32(bytes), expect, "dispatched, {what}");
    }

    #[test]
    fn check_vectors() {
        assert_tiers_agree(b"123456789", 0xCBF4_3926, "check string");
        assert_tiers_agree(b"", 0, "empty");
        // Long enough for the folding tier: the zlib value for 256 B of
        // 0x00..=0xFF.
        let ramp: Vec<u8> = (0..=255).collect();
        assert_tiers_agree(&ramp, 0x2905_8C73, "byte ramp");
    }

    #[test]
    fn every_length_at_every_offset_matches_the_bitwise_reference() {
        let buf = seeded(1100 + 16, 0x5EED_C3C3);
        for offset in 0..16 {
            // One reference pass per offset: the register after `len`
            // bytes is the CRC of that prefix.
            let mut state = !0u32;
            for len in 0..=1100 {
                let bytes = &buf[offset..offset + len];
                assert_tiers_agree(bytes, !state, &format!("offset {offset} len {len}"));
                state = step_bitwise(state, buf[offset + len]);
            }
        }
    }

    /// A server checks the CRC of each frame where it lies in a reused
    /// read buffer, so the folding tier's unaligned 16-byte loads start
    /// anywhere in a cache line: every start offset 0–63 and every length
    /// 0–300 inside one buffer, against the slicing-by-8 tier.
    #[test]
    fn every_offset_in_a_line_and_length_in_a_reused_buffer_matches_slicing() {
        let buf = seeded(64 + 300, 0x0FF5_E7C4);
        for offset in 0..64 {
            for len in 0..=300 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_portable(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn internal_thresholds_are_straddled() {
        // 16: a folding block / two slicing words; 64: the folding tier's
        // entry; 128: the first fold-by-4 iteration.
        let buf = seeded(129, 0x7E57_0001);
        for len in [7, 8, 9, 15, 16, 17, 63, 64, 65, 79, 80, 81, 127, 128, 129] {
            let bytes = &buf[..len];
            assert_tiers_agree(bytes, crc32_bitwise(bytes), &format!("len {len}"));
        }
    }

    #[test]
    fn large_seeded_buffers_match_the_bitwise_reference() {
        for (i, len) in [4096, 4097, 9000, 16 << 10, 40_003, 64 << 10]
            .into_iter()
            .enumerate()
        {
            let buf = seeded(len, 0xB16_0000 + i as u64);
            assert_tiers_agree(&buf, crc32_bitwise(&buf), &format!("len {len}"));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_tier_runs_where_detected() {
        let buf = seeded(200, 1);
        let folded = crate::x86::crc::fold(!0, &buf);
        assert_eq!(
            folded.is_some(),
            std::arch::is_x86_feature_detected!("pclmulqdq")
        );
        if let Some((state, tail)) = folded {
            assert_eq!(tail.len(), 200 % 16);
            assert_eq!(!update_portable(state, tail), crc32_bitwise(&buf));
        }
    }
}
