//! x86-64 intrinsic SIMD backends.
//!
//! Three vector widths are provided, mirroring the paper's "SIMD parallelism"
//! dimension (§III-B.2):
//!
//! * `v128` — 128-bit "SSE-class" vectors (`U16x8`, `U32x4`, `U64x2`).
//!   Compiled with VEX encodings and AVX2 gathers, exactly as the paper's
//!   SSE experiments were on AVX-capable Skylake hardware.
//! * `v256` — 256-bit AVX2 vectors (`U16x16`, `U32x8`, `U64x4`).
//! * `v512` — 512-bit AVX-512 vectors (`U16x32`, `U32x16`, `U64x8`),
//!   requiring `avx512f + avx512bw + avx512dq + avx512vl`.
//!
//! Each module is compiled only when the build enables the corresponding
//! target features (the workspace builds with `-C target-cpu=native`); on
//! other machines the portable [`crate::emu`] backend remains available and
//! the validation engine reports the intrinsic widths as unavailable.
//!
//! Every backend is property-tested lane-for-lane against [`crate::emu::Emu`]
//! in this crate's test suite.
//!
//! `crc` — the carry-less-multiply tier of [`crate::crc::crc32`] — is the
//! exception to the compile-time gating: it is always compiled on x86-64
//! and selected by run-time detection.

#[cfg(target_arch = "x86_64")]
pub(crate) mod crc;
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub mod v128;
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub mod v256;
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512bw",
    target_feature = "avx512dq",
    target_feature = "avx512vl"
))]
pub mod v512;

/// Compress the even-indexed bits of `m` into consecutive low bits.
///
/// `_mm*_movemask_epi8` over a 16-bit-lane compare yields two identical bits
/// per lane; this keeps one bit per lane.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[inline(always)]
pub(crate) fn even_bits_u32(m: u32) -> u64 {
    #[cfg(target_feature = "bmi2")]
    // SAFETY: guarded by the `bmi2` target feature.
    unsafe {
        u64::from(core::arch::x86_64::_pext_u32(m, 0x5555_5555))
    }
    #[cfg(not(target_feature = "bmi2"))]
    {
        let mut out = 0u64;
        let mut i = 0;
        while i < 16 {
            out |= u64::from((m >> (2 * i)) & 1) << i;
            i += 1;
        }
        out
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2", test))]
mod tests {
    use super::even_bits_u32;

    #[test]
    fn even_bits_compresses() {
        // lanes: pairs of bits 11 00 11 00 ... -> 1 0 1 0 ...
        assert_eq!(even_bits_u32(0b11_00_11), 0b101);
        assert_eq!(even_bits_u32(u32::MAX), 0xFFFF);
        assert_eq!(even_bits_u32(0), 0);
        // only odd bits set -> nothing survives
        assert_eq!(even_bits_u32(0xAAAA_AAAA), 0);
    }
}
