//! Memcached-style slab allocator for variable-length key-value objects.
//!
//! The paper's KVS (§VI-A) stores the actual variable-length key-value pair
//! data "in the server memory slabs"; the hash table only indexes them. This
//! allocator reproduces that memory organization: size classes growing by a
//! fixed factor, each class carving fixed-size chunks out of 1 MiB pages,
//! with freed chunks recycled through a per-class free list.
//!
//! # Line-aligned pages
//!
//! Every page starts on a 64-byte boundary ([`LINE_BYTES`]): the page is
//! over-allocated by one line through the allocator's ordinary zeroed path
//! (so untouched pages cost no resident memory) and its base rounded up
//! inside that allocation; the class keeps the lead it skipped so drop can
//! hand the allocation back. Two things rely on it. A chunk of a class
//! whose size is a multiple of 64 is exactly its own cache lines, so a
//! 58-byte item in the 64-byte class is one line and
//! [`SlabAllocator::prefetch`] of the leading line covers all of it (a
//! page-aligned `calloc` + 16 would split every such item over two). And
//! since every class size is a multiple of 8, every chunk is 8-aligned,
//! which the word-wise racy copy asserts instead of handling.
//!
//! # Stable pages (seqlock read path)
//!
//! Pages are registered in a fixed per-class
//! page table of `AtomicPtr`s — a page **never moves or frees until the
//! allocator drops**. That stability is load-bearing for the store's
//! optimistic read path (DESIGN.md §11): a lock-free reader resolves an
//! item-table row to a chunk and copies its bytes while a writer may
//! concurrently grow the class; with `Vec`-backed storage the growth
//! `realloc` would leave the reader's pointer dangling, a fault no version
//! re-check can undo. Readers copy chunk bytes out through
//! [`SlabAllocator::chunk_racy_read`], which loads the page pointer
//! atomically and then copies with **volatile** reads — never forming a
//! `&[u8]` over memory a writer may be rewriting — so a racing recycle can
//! tear the copied *contents* (detected by the row re-check) but the copy
//! itself stays on defined, never-moving *addresses*.

use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Size-class growth factor (memcached's default is 1.25).
pub const GROWTH_FACTOR: f64 = 1.25;
/// Smallest chunk size in bytes.
pub const MIN_CHUNK: usize = 64;
/// Slab page size in bytes.
pub const PAGE_BYTES: usize = 1 << 20;
/// Cache-line size every page base is aligned to.
pub const LINE_BYTES: usize = 64;
/// Lines [`SlabAllocator::prefetch_chunk`] asks for at most: past a few the
/// hardware streamer has locked on, and one hint must not flood the line
/// fill buffers.
const PREFETCH_CHUNK_LINES: usize = 8;

/// Copy `dst.len()` bytes from `src` using only volatile loads, so the
/// compiler can neither elide, widen, nor reorder the reads even though
/// another thread may be storing to the same bytes. Reads are `u64`-wide
/// from the first byte — `src` is a chunk start, 8-aligned because pages
/// are line-aligned and class sizes multiples of 8 — with a byte-wise tail
/// for lengths that are not a multiple of 8.
///
/// # Safety
///
/// `src..src + dst.len()` must lie inside a single live allocation and
/// `src` must be 8-aligned.
unsafe fn volatile_copy(src: *const u8, dst: &mut [u8]) {
    debug_assert_eq!(src as usize % 8, 0, "chunk starts are 8-aligned");
    let len = dst.len();
    let mut i = 0;
    while i + 8 <= len {
        let w = std::ptr::read_volatile(src.add(i) as *const u64);
        dst[i..i + 8].copy_from_slice(&w.to_ne_bytes());
        i += 8;
    }
    while i < len {
        dst[i] = std::ptr::read_volatile(src.add(i));
        i += 1;
    }
}

/// A reference to an allocated chunk: `(class, chunk index within class)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SlabRef {
    class: u16,
    chunk: u32,
}

impl SlabRef {
    /// The size class this chunk belongs to.
    pub fn class(&self) -> u16 {
        self.class
    }

    /// The chunk index within its class (item-table row encoding).
    pub(crate) fn chunk_index(&self) -> u32 {
        self.chunk
    }

    /// Rebuild a reference from its packed row-word parts.
    pub(crate) fn from_parts(class: u16, chunk: u32) -> SlabRef {
        SlabRef { class, chunk }
    }
}

/// Error from [`SlabAllocator::alloc`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SlabError {
    /// The object is larger than the largest size class.
    ObjectTooLarge {
        /// Requested size.
        size: usize,
        /// Largest chunk available.
        max: usize,
    },
    /// The allocator's memory budget is exhausted (caller should evict).
    OutOfMemory,
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlabError::ObjectTooLarge { size, max } => {
                write!(f, "object of {size} B exceeds largest chunk {max} B")
            }
            SlabError::OutOfMemory => write!(f, "slab memory budget exhausted"),
        }
    }
}

impl std::error::Error for SlabError {}

struct SizeClass {
    chunk_size: usize,
    /// Whole chunks per 1 MiB page (floor division; the sub-chunk tail of
    /// a page is unused slack, as in memcached).
    chunks_per_page: u32,
    /// Fixed page table: one slot per page the budget could ever admit.
    /// Slots are published exactly once (null → page) and freed at drop.
    pages: Box<[AtomicPtr<u8>]>,
    /// One entry per page allocated so far (writer-only): bytes between
    /// the start of its allocation and the line-aligned base published in
    /// `pages` (what drop subtracts).
    leads: Vec<u8>,
    used_chunks: u32,
    free: Vec<u32>,
}

impl SizeClass {
    fn chunks_allocated(&self) -> usize {
        self.leads.len() * self.chunks_per_page as usize
    }

    /// `(page pointer, byte offset)` for chunk `chunk`, via an atomic page
    /// load; `None` when the page is not (yet visibly) allocated.
    #[inline(always)]
    fn chunk_addr(&self, chunk: u32, order: Ordering) -> Option<(*mut u8, usize)> {
        let page = (chunk / self.chunks_per_page) as usize;
        let off = (chunk % self.chunks_per_page) as usize * self.chunk_size;
        let ptr = self.pages.get(page)?.load(order);
        if ptr.is_null() {
            return None;
        }
        Some((ptr, off))
    }
}

/// What one page takes from the allocator: the page plus the line of slack
/// its base is aligned inside.
const PAGE_ALLOC_BYTES: usize = PAGE_BYTES + LINE_BYTES;

/// A zeroed page as `(line-aligned base, lead)`: `PAGE_BYTES` usable bytes
/// from the base, `lead` bytes into an allocation of [`PAGE_ALLOC_BYTES`].
/// A `vec![0; n]` is `calloc`, so fresh pages stay lazily zeroed; asking the
/// allocator for the alignment instead would `posix_memalign` + `memset`
/// every page resident (EXPERIMENTS.md).
fn alloc_page() -> (*mut u8, u8) {
    let raw = Box::into_raw(vec![0u8; PAGE_ALLOC_BYTES].into_boxed_slice()) as *mut u8;
    let lead = raw.align_offset(LINE_BYTES);
    assert!(lead < LINE_BYTES, "cannot line-align a slab page");
    // SAFETY: `lead + PAGE_BYTES <= PAGE_ALLOC_BYTES`, inside the allocation.
    (unsafe { raw.add(lead) }, lead as u8)
}

impl Drop for SizeClass {
    fn drop(&mut self) {
        for (slot, &lead) in self.pages.iter().zip(&self.leads) {
            let ptr = slot.load(Ordering::Relaxed);
            // SAFETY: `pages[i]` and `leads[i]` are the two halves of one
            // `alloc_page()`, published exactly once, so `ptr - lead` is the
            // start of a boxed `[u8; PAGE_ALLOC_BYTES]` nothing else owns.
            drop(unsafe {
                let raw = ptr.sub(lead as usize);
                Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, PAGE_ALLOC_BYTES))
            });
        }
    }
}

/// A slab allocator with memcached-style size classes.
///
/// # Examples
///
/// ```
/// use simdht_kvs::slab::SlabAllocator;
///
/// let mut slab = SlabAllocator::new(4 << 20); // 4 MiB budget
/// let r = slab.alloc(100)?;
/// slab.chunk_mut(r)[..5].copy_from_slice(b"hello");
/// assert_eq!(&slab.chunk(r)[..5], b"hello");
/// slab.free(r);
/// # Ok::<(), simdht_kvs::slab::SlabError>(())
/// ```
pub struct SlabAllocator {
    classes: Vec<SizeClass>,
    budget_bytes: usize,
    allocated_bytes: usize,
}

impl SlabAllocator {
    /// Create an allocator with the given total memory budget.
    pub fn new(budget_bytes: usize) -> Self {
        let mut sizes = Vec::new();
        let mut size = MIN_CHUNK;
        while size < PAGE_BYTES {
            sizes.push(size);
            size = ((size as f64 * GROWTH_FACTOR) as usize).max(size + 8) & !7;
        }
        // Every class could in principle consume the whole budget.
        let max_pages = budget_bytes / PAGE_BYTES + 1;
        let classes = sizes
            .into_iter()
            .map(|chunk_size| SizeClass {
                chunk_size,
                chunks_per_page: (PAGE_BYTES / chunk_size) as u32,
                pages: (0..max_pages)
                    .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                    .collect(),
                leads: Vec::new(),
                used_chunks: 0,
                free: Vec::new(),
            })
            .collect();
        SlabAllocator {
            classes,
            budget_bytes,
            allocated_bytes: 0,
        }
    }

    /// Chunk size of the class that would serve `size` bytes, if any.
    pub fn class_for(&self, size: usize) -> Option<u16> {
        self.classes
            .iter()
            .position(|c| c.chunk_size >= size)
            .map(|i| i as u16)
    }

    /// Allocate a chunk of at least `size` bytes.
    ///
    /// # Errors
    ///
    /// [`SlabError::ObjectTooLarge`] if no class fits,
    /// [`SlabError::OutOfMemory`] if growing would exceed the budget (the
    /// caller — the CLOCK module — should evict and retry).
    pub fn alloc(&mut self, size: usize) -> Result<SlabRef, SlabError> {
        let class = self.class_for(size).ok_or(SlabError::ObjectTooLarge {
            size,
            max: self.classes.last().map_or(0, |c| c.chunk_size),
        })?;
        let c = &mut self.classes[class as usize];
        if let Some(chunk) = c.free.pop() {
            c.used_chunks += 1;
            return Ok(SlabRef { class, chunk });
        }
        // Grow the class arena by one page if the budget allows.
        if self.allocated_bytes + PAGE_BYTES > self.budget_bytes || c.leads.len() >= c.pages.len() {
            return Err(SlabError::OutOfMemory);
        }
        self.allocated_bytes += PAGE_BYTES;
        let (ptr, lead) = alloc_page();
        assert_eq!(ptr as usize % LINE_BYTES, 0, "slab page off its line");
        let next = c.chunks_allocated() as u32;
        // Release-publish the page so a racy reader that obtains a chunk
        // in it (via a row registered later) sees initialized memory.
        c.pages[c.leads.len()].store(ptr, Ordering::Release);
        c.leads.push(lead);
        // Hand out the first new chunk; queue the rest as free.
        let total = c.chunks_allocated() as u32;
        for i in (next + 1..total).rev() {
            c.free.push(i);
        }
        c.used_chunks += 1;
        Ok(SlabRef { class, chunk: next })
    }

    /// Return a chunk to its class's free list.
    pub fn free(&mut self, r: SlabRef) {
        let c = &mut self.classes[r.class as usize];
        debug_assert!(c.used_chunks > 0);
        c.used_chunks -= 1;
        c.free.push(r.chunk);
    }

    /// Read access to a chunk (owner path: `r` must be a live allocation).
    pub fn chunk(&self, r: SlabRef) -> &[u8] {
        let c = &self.classes[r.class as usize];
        let (ptr, off) = c
            .chunk_addr(r.chunk, Ordering::Relaxed)
            .expect("chunk ref outside allocated pages");
        // SAFETY: the page is live until drop and `off + chunk_size <=
        // PAGE_BYTES` by the chunks_per_page floor geometry.
        unsafe { std::slice::from_raw_parts(ptr.add(off), c.chunk_size) }
    }

    /// Racy copy-out for the optimistic path: resolves the chunk through
    /// an atomic page-table load and copies its first `len` bytes into
    /// `buf` with volatile reads. Returns `false` if the page is not
    /// visibly allocated (a reader racing the very first write into a
    /// fresh page) or `len` exceeds the chunk size (a torn item header
    /// claimed an impossible length).
    ///
    /// The source bytes may be concurrently rewritten if the chunk is
    /// freed and recycled mid-copy — the caller detects that by
    /// re-checking the item-table row word after the copy (DESIGN.md §11).
    /// Crucially, no `&[u8]` is ever formed over the racing memory: each
    /// byte travels through a volatile load (word-at-a-time from the
    /// 8-aligned chunk start), the crossbeam-seqlock discipline for reading
    /// data a validation step will later prove untorn.
    pub fn chunk_racy_read(&self, r: SlabRef, len: usize, buf: &mut Vec<u8>) -> bool {
        let Some(c) = self.classes.get(r.class as usize) else {
            return false;
        };
        if len > c.chunk_size {
            return false;
        }
        let Some((ptr, off)) = c.chunk_addr(r.chunk, Ordering::Acquire) else {
            return false;
        };
        buf.clear();
        buf.resize(len, 0);
        // SAFETY: in-bounds of a live page (pages never free before drop;
        // `off + chunk_size <= PAGE_BYTES` by the floor geometry), and
        // every read is volatile so a racing writer can tear contents but
        // not invoke data-race UB through a reference.
        unsafe { volatile_copy(ptr.add(off), buf) };
        true
    }

    /// Request the leading cache line of chunk `r` ahead of a future
    /// [`SlabAllocator::chunk`] read. Stage 2 of the store's
    /// group-prefetched Multi-Get verification (DESIGN.md §9): the item
    /// header plus the head of the key live in the first line, which is
    /// what full-key verification touches first. Safe for out-of-range or
    /// stale refs (racy staging simply skips them).
    #[inline(always)]
    pub fn prefetch(&self, r: SlabRef) {
        if let Some(c) = self.classes.get(r.class as usize) {
            if let Some((ptr, off)) = c.chunk_addr(r.chunk, Ordering::Relaxed) {
                // SAFETY: in-bounds pointer into a live page; prefetch only
                // needs a valid address.
                simdht_simd::prefetch_read(unsafe { &*ptr.add(off) });
            }
        }
    }

    /// Request every cache line of chunk `r` (the first
    /// [`PREFETCH_CHUNK_LINES`] of a larger one) — for a chunk about to be
    /// rewritten whole, the eviction look-ahead's victim (DESIGN.md §12).
    /// Safe for out-of-range or stale refs, like [`SlabAllocator::prefetch`].
    #[inline(always)]
    pub fn prefetch_chunk(&self, r: SlabRef) {
        let Some(c) = self.classes.get(r.class as usize) else {
            return;
        };
        if let Some((ptr, off)) = c.chunk_addr(r.chunk, Ordering::Relaxed) {
            let first = off & !(LINE_BYTES - 1);
            let lines = (off + c.chunk_size - first).div_ceil(LINE_BYTES);
            for line in 0..lines.min(PREFETCH_CHUNK_LINES) {
                // SAFETY: `first + line * LINE_BYTES < off + chunk_size <=
                // PAGE_BYTES`, inside the live page; a prefetch reads nothing.
                simdht_simd::prefetch_read(unsafe { ptr.add(first + line * LINE_BYTES) });
            }
        }
    }

    /// Write access to a chunk.
    pub fn chunk_mut(&mut self, r: SlabRef) -> &mut [u8] {
        let c = &self.classes[r.class as usize];
        let (ptr, off) = c
            .chunk_addr(r.chunk, Ordering::Relaxed)
            .expect("chunk ref outside allocated pages");
        // SAFETY: `&mut self` excludes other writers; optimistic readers
        // may race these bytes by design (their copies are rejected by the
        // row-word re-check).
        unsafe { std::slice::from_raw_parts_mut(ptr.add(off), c.chunk_size) }
    }

    /// Bytes currently reserved from the budget.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }
}

impl fmt::Debug for SlabAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabAllocator")
            .field("classes", &self.classes.len())
            .field("allocated_bytes", &self.allocated_bytes)
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_grow_geometrically() {
        let slab = SlabAllocator::new(1 << 20);
        assert_eq!(slab.class_for(1), Some(0));
        assert_eq!(slab.class_for(64), Some(0));
        assert!(slab.class_for(65).unwrap() > 0);
        assert!(slab.class_for(PAGE_BYTES).is_none());
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut slab = SlabAllocator::new(4 << 20);
        let refs: Vec<SlabRef> = (0..100).map(|_| slab.alloc(128).unwrap()).collect();
        for (i, &r) in refs.iter().enumerate() {
            slab.chunk_mut(r)[0] = i as u8;
        }
        for (i, &r) in refs.iter().enumerate() {
            assert_eq!(slab.chunk(r)[0], i as u8);
        }
    }

    #[test]
    fn free_list_recycles() {
        let mut slab = SlabAllocator::new(2 << 20);
        let a = slab.alloc(100).unwrap();
        slab.free(a);
        let b = slab.alloc(100).unwrap();
        assert_eq!(a, b, "freed chunk should be reused first");
    }

    #[test]
    fn budget_enforced() {
        let mut slab = SlabAllocator::new(PAGE_BYTES); // one page only
        let mut n = 0;
        loop {
            match slab.alloc(1000) {
                Ok(_) => n += 1,
                Err(SlabError::OutOfMemory) => break,
                Err(e) => panic!("{e}"),
            }
        }
        // A 1 MiB page of ~1 KiB chunks holds on the order of a thousand.
        assert!(n > 500, "only {n} chunks before OOM");
        assert!(slab.allocated_bytes() <= PAGE_BYTES);
    }

    #[test]
    fn oversized_object_rejected() {
        let mut slab = SlabAllocator::new(4 << 20);
        assert!(matches!(
            slab.alloc(2 * PAGE_BYTES),
            Err(SlabError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        let mut slab = SlabAllocator::new(8 << 20);
        let small = slab.alloc(64).unwrap();
        let large = slab.alloc(4096).unwrap();
        slab.chunk_mut(small).fill(0xAA);
        slab.chunk_mut(large).fill(0xBB);
        assert!(slab.chunk(small).iter().all(|&b| b == 0xAA));
        assert!(slab.chunk(large).iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn chunks_never_straddle_pages() {
        // With floor chunks-per-page geometry every chunk lies wholly
        // inside one page, so the raw-pointer slice construction can never
        // run off a page's end.
        let slab = SlabAllocator::new(1 << 20);
        for c in &slab.classes {
            let cpp = c.chunks_per_page as usize;
            assert!(cpp >= 1);
            assert!(cpp * c.chunk_size <= PAGE_BYTES, "class {}", c.chunk_size);
        }
    }

    #[test]
    fn chunk_addresses_stable_across_growth() {
        // The seqlock contract: an existing chunk's address survives any
        // amount of later allocation in the same class.
        let mut slab = SlabAllocator::new(16 << 20);
        let first = slab.alloc(100).unwrap();
        let p0 = slab.chunk(first).as_ptr();
        let mut refs = Vec::new();
        while let Ok(r) = slab.alloc(100) {
            refs.push(r);
        }
        assert!(refs.len() > 10_000, "expected multi-page growth");
        assert_eq!(p0, slab.chunk(first).as_ptr());
    }

    #[test]
    fn chunks_are_word_aligned_and_line_sized_classes_line_aligned() {
        // The alignment contract of the module doc, over three pages of
        // every class (fresh pages are lazily zeroed, so this touches
        // almost none of the budget it reserves).
        let sizes: Vec<usize> = SlabAllocator::new(0)
            .classes
            .iter()
            .map(|c| c.chunk_size)
            .collect();
        let mut slab = SlabAllocator::new(3 * sizes.len() * PAGE_BYTES);
        for &size in &sizes {
            for _ in 0..3 * (PAGE_BYTES / size) {
                let r = slab.alloc(size).unwrap();
                let addr = slab.chunk(r).as_ptr() as usize;
                assert_eq!(addr % 8, 0, "class {size}");
                if size % LINE_BYTES == 0 {
                    assert_eq!(addr % LINE_BYTES, 0, "class {size}");
                }
            }
        }
        assert_eq!(slab.allocated_bytes(), 3 * sizes.len() * PAGE_BYTES);
    }

    #[test]
    fn partly_filled_allocator_drops_every_page_it_allocated() {
        // Classes with zero, one and several pages, some chunks freed: drop
        // must return each page's allocation from its true start. Two
        // allocators judge it: glibc's `calloc` hands back page + 16, so the
        // lead is 48 and a base off by it aborts in `free`; the sanitizer
        // job's allocator is line-aligned already (lead 0) but reports any
        // page drop skipped as a leak.
        let mut slab = SlabAllocator::new(8 * PAGE_BYTES);
        let small: Vec<SlabRef> = (0..40_000).map(|_| slab.alloc(64).unwrap()).collect();
        let large = slab.alloc(5000).unwrap();
        for r in small.into_iter().step_by(3) {
            slab.free(r);
        }
        slab.chunk_mut(large).fill(0xCC);
        assert_eq!(slab.allocated_bytes(), 4 * PAGE_BYTES);
        let pages: usize = slab.classes.iter().map(|c| c.leads.len()).sum();
        assert_eq!(pages, 4);
    }

    #[test]
    fn chunk_racy_read_matches_chunk() {
        let mut slab = SlabAllocator::new(2 << 20);
        let r = slab.alloc(200).unwrap();
        slab.chunk_mut(r)[..3].copy_from_slice(b"abc");
        let full = slab.chunk(r).len();
        let mut buf = Vec::new();
        // Every prefix length exercises the word middle / byte tail cases
        // of the volatile copy.
        for len in [0, 1, 3, 7, 8, 9, 63, full] {
            assert!(slab.chunk_racy_read(r, len, &mut buf), "len {len}");
            assert_eq!(&buf[..], &slab.chunk(r)[..len], "len {len}");
        }
        // Lengths beyond the chunk (torn headers) and out-of-range refs
        // resolve to false, not UB.
        assert!(!slab.chunk_racy_read(r, full + 1, &mut buf));
        let bogus = SlabRef::from_parts(r.class(), u32::MAX / 2);
        assert!(!slab.chunk_racy_read(bogus, 8, &mut buf));
        let bogus_class = SlabRef::from_parts(u16::MAX, 0);
        assert!(!slab.chunk_racy_read(bogus_class, 8, &mut buf));
    }
}
