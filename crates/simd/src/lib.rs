//! # simdht-simd
//!
//! The SIMD abstraction layer of **SimdHT-Bench**, a reproduction of
//! *"SimdHT-Bench: Characterizing SIMD-Aware Hash Table Designs on Emerging
//! CPU Architectures"* (IISWC 2019).
//!
//! The paper's generic vector-operation templates `vec_<op>_{x,W}` (§IV-C)
//! are realized as the [`Vector`] trait, with one implementation per
//! *(vector width × lane width × backend)*:
//!
//! * [`emu::Emu<L, LANES>`] — a portable scalar-loop backend, always
//!   available, used as ground truth in tests.
//! * [`x86`] (`v128` / `v256` / `v512`) — hand-written SSE-class /
//!   AVX2 / AVX-512 intrinsic backends for `u16`/`u32`/`u64` lanes,
//!   compiled in when the build targets a capable CPU.
//!
//! Lookup kernels in `simdht-core` are written once against [`Vector`] and
//! monomorphized per backend; [`CpuFeatures`] reports which intrinsic widths
//! the running CPU (and the current build) actually supports, which is what
//! the paper's *SIMD algorithm validation engine* consumes.
//!
//! ## Example
//!
//! ```
//! use simdht_simd::{CpuFeatures, Vector, Width, emu::Emu};
//!
//! // Probe 8 candidate slots for key 7 in one "instruction".
//! type V = Emu<u32, 8>;
//! let slots = V::from_slice(&[3, 9, 7, 1, 0, 0, 7, 2]);
//! let hits = slots.cmpeq_bits(V::splat(7));
//! assert_eq!(simdht_simd::first_lane(hits), Some(2));
//!
//! // What can this machine run natively?
//! let caps = CpuFeatures::detect();
//! println!("native widths: {:?}", caps.native_widths());
//! assert!(caps.supports(Width::W128) || !caps.has_avx2);
//! ```

#![warn(missing_docs)]

pub mod crc;
pub mod emu;
mod lane;
pub mod scan;
mod vector;
pub mod x86;

pub use lane::Lane;
pub use vector::{first_lane, prefetch_read, set_lanes, Vector, MAX_LANES};

/// A CPU vector register width — the paper's "SIMD parallelism" axis
/// (SSE = 128, AVX2 = 256, AVX-512 = 512 bits).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 128-bit vectors (SSE class).
    W128,
    /// 256-bit vectors (AVX2).
    W256,
    /// 512-bit vectors (AVX-512).
    W512,
}

impl Width {
    /// All widths, narrowest first.
    pub const ALL: [Width; 3] = [Width::W128, Width::W256, Width::W512];

    /// The width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Width::W128 => 128,
            Width::W256 => 256,
            Width::W512 => 512,
        }
    }

    /// The conventional ISA name for this width.
    pub fn isa_name(self) -> &'static str {
        match self {
            Width::W128 => "SSE",
            Width::W256 => "AVX2",
            Width::W512 => "AVX-512",
        }
    }
}

impl std::fmt::Display for Width {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} bit ({})", self.bits(), self.isa_name())
    }
}

/// Which implementation of the vector templates to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Hand-written x86-64 intrinsics (requires [`CpuFeatures::supports`]).
    #[default]
    Native,
    /// The portable emulated backend — runs anywhere.
    Emulated,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Native => write!(f, "native"),
            Backend::Emulated => write!(f, "emulated"),
        }
    }
}

/// Runtime + compile-time CPU capability report.
///
/// A width is usable natively only if the *running* CPU supports it **and**
/// this binary was compiled with the backend enabled (the workspace builds
/// with `-C target-cpu=native`, so on the build host both always agree).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CpuFeatures {
    /// CPU executes AVX2 (also gates the 128-bit backend, which uses VEX
    /// encodings and AVX2 gathers).
    pub has_avx2: bool,
    /// CPU executes AVX-512 F/BW/DQ/VL.
    pub has_avx512: bool,
    /// This binary contains the 128/256-bit intrinsic backends.
    pub compiled_avx2: bool,
    /// This binary contains the 512-bit intrinsic backend.
    pub compiled_avx512: bool,
}

impl CpuFeatures {
    /// Detect what the running CPU and this build support.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                has_avx2: std::arch::is_x86_feature_detected!("avx2"),
                has_avx512: std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl"),
                compiled_avx2: cfg!(target_feature = "avx2"),
                compiled_avx512: cfg!(all(
                    target_feature = "avx512f",
                    target_feature = "avx512bw",
                    target_feature = "avx512dq",
                    target_feature = "avx512vl"
                )),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures {
                has_avx2: false,
                has_avx512: false,
                compiled_avx2: false,
                compiled_avx512: false,
            }
        }
    }

    /// Can the given width run on the native intrinsic backend?
    pub fn supports(&self, width: Width) -> bool {
        match width {
            Width::W128 | Width::W256 => self.has_avx2 && self.compiled_avx2,
            Width::W512 => self.has_avx512 && self.compiled_avx512,
        }
    }

    /// Widths runnable on the native backend, narrowest first.
    pub fn native_widths(&self) -> Vec<Width> {
        Width::ALL
            .into_iter()
            .filter(|w| self.supports(*w))
            .collect()
    }

    /// A capability set with no native support (emulated backend only) —
    /// useful for forcing portable runs in tests.
    pub fn none() -> Self {
        CpuFeatures {
            has_avx2: false,
            has_avx512: false,
            compiled_avx2: false,
            compiled_avx512: false,
        }
    }
}

impl std::fmt::Display for CpuFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "avx2: {} (compiled: {}), avx512(f+bw+dq+vl): {} (compiled: {})",
            self.has_avx2, self.compiled_avx2, self.has_avx512, self.compiled_avx512
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bits_and_names() {
        assert_eq!(Width::W128.bits(), 128);
        assert_eq!(Width::W256.isa_name(), "AVX2");
        assert_eq!(Width::W512.to_string(), "512 bit (AVX-512)");
    }

    #[test]
    fn widths_ordered() {
        assert!(Width::W128 < Width::W256 && Width::W256 < Width::W512);
    }

    #[test]
    fn detect_is_consistent() {
        let caps = CpuFeatures::detect();
        // If we support 512 natively we must also support 256 on any real
        // x86-64 CPU + build produced by this workspace.
        if caps.supports(Width::W512) {
            assert!(caps.supports(Width::W256));
        }
        let widths = caps.native_widths();
        for w in &widths {
            assert!(caps.supports(*w));
        }
    }

    #[test]
    fn none_supports_nothing() {
        let caps = CpuFeatures::none();
        assert!(Width::ALL.iter().all(|w| !caps.supports(*w)));
        assert!(caps.native_widths().is_empty());
    }
}
