//! Huge-page arenas: the one allocator behind the index slot arrays, the
//! item table's segments and the slab's pages (DESIGN.md §18).
//!
//! A store table is ~100× L2, so with 4 KiB pages every cold line a probe
//! or an item fetch touches is a page walk before it is a cache miss, and a
//! prefetch has to take that walk too. An [`Arena`] is an anonymous private
//! `mmap`, over-mapped and trimmed so that any range of at least
//! [`HUGE_PAGE`] bytes starts on a 2 MiB boundary and ends on one, then
//! advised `MADV_HUGEPAGE` (hosts whose THP mode is `madvise` back only
//! advised ranges with huge pages). Three things follow from the `mmap`:
//!
//! * **Kernel-zeroed, faulted lazily.** [`Arena::zeroed`] never writes, so
//!   only what the store touches becomes resident — with huge pages, in
//!   2 MiB steps. Writing zeros instead would make every page resident.
//! * **Stable addresses.** The mapping never moves or shrinks before drop.
//!   Readers take the shard's shared lock and growth happens under its
//!   write lock, so nothing depends on this today (DESIGN.md §18).
//! * **Page alignment.** Every arena starts on a 4 KiB boundary, so any
//!   element type whose alignment is at most a page is aligned for free.
//!
//! When the kernel refuses the advice (THP compiled out, or `never`), the
//! memory is used anyway on 4 KiB pages, and [`hugepage_refusals`] counts
//! the refusal.

use std::ffi::{c_int, c_void};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// A transparent huge page on x86-64 and aarch64 (4 KiB granule).
pub const HUGE_PAGE: usize = 2 << 20;
/// The base page every mapping is a multiple of.
const PAGE: usize = 4096;

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MADV_HUGEPAGE: c_int = 14;
const MADV_COLLAPSE: c_int = 25;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// `madvise` calls the kernel refused since process start.
static REFUSALS: AtomicU64 = AtomicU64::new(0);

/// How many times the kernel has refused an arena's huge-page advice in
/// this process; each such arena runs on 4 KiB pages.
pub fn hugepage_refusals() -> u64 {
    REFUSALS.load(Ordering::Relaxed)
}

/// Anonymous memory the kernel backs with huge pages in this process, in
/// KiB (`AnonHugePages` of `/proc/self/smaps_rollup`); `None` where that
/// file does not exist.
pub fn anon_huge_pages_kib() -> Option<u64> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    smaps_field_kib(&rollup, "AnonHugePages:")
}

/// The first `field` value (in kB) in smaps-format text.
fn smaps_field_kib(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Advise `len` bytes at `addr`; a refusal is counted, never fatal.
fn advise(addr: *mut u8, len: usize, advice: c_int) -> bool {
    // SAFETY: mapping length — callers pass a range this module mapped;
    // `madvise` only changes the kernel's paging policy for it, and an
    // invalid range or advice comes back as an error, not UB.
    let ok = unsafe { madvise(addr.cast(), len, advice) } == 0;
    if !ok {
        REFUSALS.fetch_add(1, Ordering::Relaxed);
    }
    ok
}

/// The mapping length for `bytes`: whole huge pages from [`HUGE_PAGE`] up
/// (so the tail is a huge page too), whole base pages below.
fn map_len(bytes: usize) -> usize {
    let unit = if bytes >= HUGE_PAGE { HUGE_PAGE } else { PAGE };
    bytes.next_multiple_of(unit)
}

/// Map `len` (a [`map_len`] result, nonzero) zeroed bytes: 2 MiB-aligned
/// when `len` is whole huge pages, and then advised if `advised`.
fn map(len: usize, advised: bool) -> NonNull<u8> {
    let huge = len.is_multiple_of(HUGE_PAGE);
    // Over-map by one huge page less a base page: a 2 MiB boundary then
    // lies within the first `HUGE_PAGE - PAGE` bytes of the (page-aligned)
    // result, and the excess on both sides is handed back.
    let over = if huge { len + HUGE_PAGE - PAGE } else { len };
    // SAFETY: single publication — a fresh anonymous private mapping
    // aliases nothing.
    let raw = unsafe {
        mmap(
            std::ptr::null_mut(),
            over,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS,
            -1,
            0,
        )
    };
    if raw == MAP_FAILED {
        let layout = std::alloc::Layout::from_size_align(len, PAGE).expect("arena layout");
        std::alloc::handle_alloc_error(layout);
    }
    let raw = raw.cast::<u8>();
    if !huge {
        // SAFETY: mapping length — `mmap` mapped `len` bytes at `raw`, so
        // it is not null.
        return unsafe { NonNull::new_unchecked(raw) };
    }
    let lead = raw.align_offset(HUGE_PAGE);
    // SAFETY: mapping length — `lead <= HUGE_PAGE - PAGE`, so `base + len`
    // still ends inside the `over` bytes mapped at `raw`; the two trims
    // unmap the page-aligned excess before and after that range only.
    unsafe {
        let base = raw.add(lead);
        if lead > 0 {
            munmap(raw.cast(), lead);
        }
        let tail = over - lead - len;
        if tail > 0 {
            munmap(base.add(len).cast(), tail);
        }
        if advised {
            advise(base, len, MADV_HUGEPAGE);
        }
        NonNull::new_unchecked(base)
    }
}

/// A fixed-length slice of `T` on arena memory: owned, never moving,
/// unmapped on drop (after its elements drop).
pub struct Arena<T> {
    ptr: NonNull<T>,
    len: usize,
}

impl<T> Arena<T> {
    /// Bytes mapped for `len` elements (0 maps nothing).
    fn bytes(len: usize) -> usize {
        const {
            assert!(
                std::mem::align_of::<T>() <= PAGE,
                "arena elements align to a page at most"
            )
        };
        let bytes = std::mem::size_of::<T>()
            .checked_mul(len)
            .expect("arena length overflows");
        if bytes == 0 {
            0
        } else {
            map_len(bytes)
        }
    }

    /// Map room for `len` elements, still kernel-zeroed.
    fn map_uninit(len: usize, advised: bool) -> NonNull<T> {
        match Self::bytes(len) {
            0 => NonNull::dangling(),
            bytes => map(bytes, advised).cast(),
        }
    }

    /// `len` all-zero elements, without writing a byte: only the pages
    /// later touched become resident.
    ///
    /// # Safety
    ///
    /// The all-zero bit pattern must be a valid `T` (integers, atomics,
    /// and arrays or `repr(C)` structs of them).
    // SAFETY: zero-validity — the one invariant the caller vouches for;
    // mapping length and alignment are this module's.
    pub unsafe fn zeroed(len: usize) -> Self {
        Arena {
            ptr: Self::map_uninit(len, true),
            len,
        }
    }

    /// As [`Arena::zeroed`], but on 4 KiB pages until the owner
    /// [`collapse`](Arena::collapse)s a range it has filled: for memory
    /// filled front to back whose partly filled tail should not become
    /// resident a huge page at a time.
    ///
    /// # Safety
    ///
    /// As for [`Arena::zeroed`].
    // SAFETY: zero-validity, as for `zeroed`.
    pub unsafe fn zeroed_unadvised(len: usize) -> Self {
        Arena {
            ptr: Self::map_uninit(len, false),
            len,
        }
    }

    /// Back every whole 2 MiB huge page inside elements `range` with a
    /// huge page now (`MADV_COLLAPSE`: the kernel copies what is resident
    /// and makes the rest resident too). Contents and addresses do not
    /// change, so concurrent readers are unaffected; a refusal is counted
    /// and leaves the range on 4 KiB pages.
    pub fn collapse(&self, range: std::ops::Range<usize>) {
        let size = std::mem::size_of::<T>();
        let base = self.ptr.as_ptr() as usize;
        let lo = (base + range.start * size).next_multiple_of(HUGE_PAGE);
        let hi = (base + range.end.min(self.len) * size) / HUGE_PAGE * HUGE_PAGE;
        if lo < hi {
            advise(lo as *mut u8, hi - lo, MADV_COLLAPSE);
        }
    }

    /// Bytes mapped for the elements, resident or not.
    pub fn mapped_bytes(&self) -> usize {
        Self::bytes(self.len)
    }

    /// The base pointer, for owners that write the elements through raw
    /// pointers (the slab's pages) rather than through `&T`. No reference
    /// to the elements is formed.
    pub fn as_mut_ptr(&self) -> *mut T {
        self.ptr.as_ptr()
    }

    /// `len` elements, element `i` initialized to `f(i)` — for types whose
    /// empty value is not all-zero bytes. Every element is written, so the
    /// whole arena becomes resident. If `f` panics, the mapping leaks.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let ptr = Self::map_uninit(len, true);
        for i in 0..len {
            // SAFETY: mapping length — `i < len` elements were mapped,
            // page-aligned and so aligned for `T`; each is written once.
            unsafe { ptr.as_ptr().add(i).write(f(i)) };
        }
        Arena { ptr, len }
    }
}

impl<T> Deref for Arena<T> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        // SAFETY: mapping length — `ptr` covers `len` initialized elements
        // (dangling and well-aligned when nothing was mapped) and stays
        // mapped until drop.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<'a, T> IntoIterator for &'a Arena<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        let bytes = Self::bytes(self.len);
        // SAFETY: single publication — the elements were initialized once
        // and nothing else owns them; they drop while still mapped, then
        // the mapping of exactly `bytes` made in `map_uninit` goes.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.ptr.as_ptr(),
                self.len,
            ));
            if bytes > 0 {
                munmap(self.ptr.as_ptr().cast(), bytes);
            }
        }
    }
}

// SAFETY: single publication — an `Arena` owns its elements the way a
// `Box<[T]>` does.
unsafe impl<T: Send> Send for Arena<T> {}
// SAFETY: as for `Send`; `&Arena<T>` only hands out `&T`.
unsafe impl<T: Sync> Sync for Arena<T> {}

impl<T> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("len", &self.len)
            .field("bytes", &Self::bytes(self.len))
            .finish()
    }
}

/// Why this host cannot back memory with transparent huge pages, if it
/// cannot (tests that look for huge pages skip then).
#[cfg(test)]
pub(crate) fn thp_unavailable() -> Option<String> {
    let mode =
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
    (mode.is_empty() || mode.contains("[never]"))
        .then(|| format!("transparent huge pages unavailable ({:?})", mode.trim()))
}

/// `AnonHugePages` (KiB) summed over the mappings of `/proc/self/smaps`
/// that overlap `[addr, addr + len)`.
#[cfg(test)]
pub(crate) fn anon_huge_kib_in(addr: usize, len: usize) -> u64 {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read smaps");
    let mut huge_kib = 0;
    let mut overlaps = false;
    for line in smaps.lines() {
        let range = line
            .split_whitespace()
            .next()
            .and_then(|r| r.split_once('-'))
            .and_then(|(s, e)| {
                Some((
                    usize::from_str_radix(s, 16).ok()?,
                    usize::from_str_radix(e, 16).ok()?,
                ))
            });
        if let Some((start, end)) = range {
            overlaps = start < addr + len && addr < end;
        } else if overlaps {
            huge_kib += smaps_field_kib(line, "AnonHugePages:").unwrap_or(0);
        }
    }
    huge_kib
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, AtomicUsize};

    extern "C" {
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
    }

    /// Resident bytes of `[addr, addr + len)` (page-aligned), per page
    /// from `mincore` — exact for the range, whatever the rest of the test
    /// process allocates meanwhile.
    fn resident_bytes(addr: *const u8, len: usize) -> usize {
        let mut pages = vec![0u8; len.div_ceil(PAGE)];
        // SAFETY: `pages` has one byte per page of the range.
        let rc = unsafe { mincore(addr as *mut c_void, len, pages.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore: {}", std::io::Error::last_os_error());
        pages.iter().filter(|&&p| p & 1 == 1).count() * PAGE
    }

    #[test]
    fn huge_requests_come_back_huge_aligned_and_small_ones_page_aligned() {
        for len in [HUGE_PAGE, HUGE_PAGE + 1, 3 * HUGE_PAGE + 4096, 5 << 20] {
            // SAFETY: zero-validity — all-zero is a valid `u8`.
            let a = unsafe { Arena::<u8>::zeroed(len) };
            assert_eq!(a.as_ptr() as usize % HUGE_PAGE, 0, "{len} B");
            assert_eq!(a.len(), len);
        }
        // SAFETY: zero-validity, as above.
        let small = unsafe { Arena::<u8>::zeroed(100) };
        assert_eq!(small.as_ptr() as usize % PAGE, 0);
    }

    #[test]
    fn zeroed_reads_all_zero() {
        // SAFETY: zero-validity — all-zero is a valid `AtomicU64`.
        let a = unsafe { Arena::<AtomicU64>::zeroed(HUGE_PAGE / 8 + 3) };
        assert!(a.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        a[a.len() - 1].store(7, Ordering::Relaxed);
        assert_eq!(a[a.len() - 1].load(Ordering::Relaxed), 7);
    }

    #[test]
    fn from_fn_initializes_each_element_and_drops_them_while_mapped() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracked(u64, u64);
        impl Drop for Tracked {
            fn drop(&mut self) {
                // Reads the element itself: after `munmap` this faults.
                assert_eq!(self.1, self.0 * 3);
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let n = HUGE_PAGE / 16 + 5;
        let a = Arena::from_fn(n, |i| Tracked(i as u64, 3 * i as u64));
        assert!(a.iter().enumerate().all(|(i, t)| t.0 == i as u64));
        drop(a);
        assert_eq!(DROPS.load(Ordering::Relaxed), n);
    }

    #[test]
    fn empty_and_sub_page_requests_work() {
        let empty = Arena::from_fn(0, |i| i);
        assert!(empty.is_empty());
        // SAFETY: zero-validity — all-zero is a valid `u64`; zero-sized types map nothing.
        let (none, unit) = unsafe { (Arena::<u64>::zeroed(0), Arena::<()>::zeroed(1 << 40)) };
        assert!(none.is_empty());
        assert_eq!(unit.len(), 1 << 40);
        let tiny = Arena::from_fn(3, |i| i as u16 + 1);
        assert_eq!(&tiny[..], &[1, 2, 3]);
    }

    #[test]
    fn a_refused_advice_is_counted_and_the_memory_still_serves() {
        // SAFETY: zero-validity — all-zero is a valid `AtomicU8`.
        let a = unsafe { Arena::<AtomicU8>::zeroed(HUGE_PAGE) };
        let before = hugepage_refusals();
        assert!(
            !advise(a.as_ptr() as *mut u8, a.len(), -1),
            "advice -1 is invalid"
        );
        assert!(hugepage_refusals() > before);
        a[12345].store(9, Ordering::Relaxed);
        assert_eq!(a[12345].load(Ordering::Relaxed), 9);
    }

    #[test]
    fn zeroed_never_writes_so_one_touch_stays_small() {
        // 64 MiB, one element touched: at most one huge page (or one base
        // page) becomes resident. A `zeroed` that wrote zeros would show
        // all 64 MiB here.
        // SAFETY: zero-validity — all-zero is a valid `AtomicU64`.
        let a = unsafe { Arena::<AtomicU64>::zeroed((64 << 20) / 8) };
        let bytes = a.len() * 8;
        assert_eq!(resident_bytes(a.as_ptr().cast(), bytes), 0);
        a[a.len() / 2].store(1, Ordering::Relaxed);
        let resident = resident_bytes(a.as_ptr().cast(), bytes);
        assert!(resident > 0 && resident <= 4 << 20, "{resident} B resident");
    }

    #[test]
    fn a_touched_huge_region_is_backed_by_huge_pages() {
        if let Some(why) = thp_unavailable() {
            eprintln!("skipped: {why}");
            return;
        }
        // SAFETY: zero-validity — all-zero is a valid `AtomicU8`.
        let a = unsafe { Arena::<AtomicU8>::zeroed(8 << 20) };
        for byte in a.iter().step_by(PAGE) {
            byte.store(1, Ordering::Relaxed);
        }
        let huge_kib = anon_huge_kib_in(a.as_ptr() as usize, a.len());
        assert!(huge_kib > 0, "no huge pages behind a touched 8 MiB arena");
    }

    #[test]
    fn smaps_fields_parse() {
        let text = "Rss:                 812 kB\nAnonHugePages:      2048 kB\n";
        assert_eq!(smaps_field_kib(text, "AnonHugePages:"), Some(2048));
        assert_eq!(smaps_field_kib(text, "Swap:"), None);
    }
}
