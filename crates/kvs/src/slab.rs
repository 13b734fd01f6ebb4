//! Memcached-style slab allocator for variable-length key-value objects.
//!
//! The paper's KVS (§VI-A) stores the actual variable-length key-value pair
//! data "in the server memory slabs"; the hash table only indexes them. This
//! allocator reproduces that memory organization: size classes, each class
//! carving fixed-size chunks out of 1 MiB pages, with freed chunks recycled
//! through a per-class free list.
//!
//! # Eight classes per doubling
//!
//! The smallest chunk is [`MIN_CHUNK`] (64 B, one cache line). Above it
//! every power of two `[2^k, 2^(k+1))` holds eight classes spaced
//! `2^(k-3)` apart — 64, 72, …, 120, 128, 144, …, 240, 256, 288, … — up
//! to the last class below [`PAGE_BYTES`]: 112 classes. Every class is a
//! multiple of 8, and an item larger than 64 B wastes less than an eighth
//! of its own size, where memcached's growth factor of 1.25 wastes up to a
//! fifth of the chunk: `wire_mixed`'s 282-byte item takes a 288-byte chunk,
//! not a 328-byte one. Because the rule is arithmetic,
//! [`SlabAllocator::class_for`] computes a class from the size with one
//! leading-zero count; nothing scans the class table.
//!
//! More classes can strand more partly filled pages when item sizes vary,
//! and pages never move between classes. Every workload here writes one
//! item size, so there is no page rebalancing.
//!
//! # A class's first page is never refused
//!
//! Freed chunks stay in their class, so once the budget is all paged a
//! class with no page could never be served: the store would evict every
//! item and still fail. As in memcached, a class's first page is therefore
//! granted past the budget. Only a class with a page is ever told
//! [`SlabError::OutOfMemory`], and one of its own chunks frees once the
//! store evicts far enough. The budget is exceeded by at most one page per
//! class in use, and only the bytes written become resident; a workload of
//! one item size never takes such a page.
//!
//! # One region, line-aligned pages
//!
//! Every page is carved from one [`Arena`] region the allocator maps up
//! front: `floor(budget / PAGE_BYTES)` pages and one more per class for
//! first pages past the budget, handed out in order to whichever class
//! grows next. The region is kernel-zeroed and faulted
//! lazily, so a page costs resident memory only once chunks in it are
//! written. It is page-aligned, so every page starts on a 64-byte boundary
//! ([`LINE_BYTES`]) for free. Two things rely on that. A chunk of a class
//! whose size is a multiple of 64 is exactly its own cache lines, so a
//! 58-byte item in the 64-byte class is one line and
//! [`SlabAllocator::prefetch`] of the leading line covers all of it (a
//! page-aligned `calloc` + 16 would split every such item over two). And
//! since every class size is a multiple of 8, every chunk is 8-aligned.
//!
//! # Huge pages once full
//!
//! The region starts on 4 KiB pages and is 2 MiB-aligned. A class asks for
//! a new page only when every chunk of its last one is handed out, so
//! growth marks that last page full; once both 1 MiB pages of a 2 MiB
//! range are full, the range is collapsed onto one huge page
//! ([`Arena::collapse`]), and an item fetch no longer walks the page table
//! first. Advising the whole region up front instead would fault each
//! class's partly filled last page in 2 MiB at a time: that cost the
//! `wire_*` workloads +2.0 MiB (+3.0 %) of server RSS (EXPERIMENTS.md,
//! DESIGN.md §18). Collapsing moves no byte's address.
//!
//! # Stable pages
//!
//! Pages are registered in a fixed per-class page table — a page never
//! moves or frees until the allocator drops. Readers resolve chunks under
//! the shard's shared lock and writers grow a class under its write lock,
//! so nothing relies on that stability today; it is what the region
//! layout gives for free (DESIGN.md §18).

use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::arena::{Arena, HUGE_PAGE};

/// Smallest chunk size in bytes.
pub const MIN_CHUNK: usize = 64;
/// Slab page size in bytes.
pub const PAGE_BYTES: usize = 1 << 20;
/// Size classes per doubling of the chunk size, as a power of two.
const CLASS_BITS: u32 = 3;
/// Size classes: eight per doubling from [`MIN_CHUNK`] up to, not
/// including, [`PAGE_BYTES`].
const CLASSES: usize =
    ((PAGE_BYTES.trailing_zeros() - MIN_CHUNK.trailing_zeros()) << CLASS_BITS) as usize;

/// Cache-line size every page base is aligned to.
pub const LINE_BYTES: usize = 64;
/// Lines [`SlabAllocator::prefetch_chunk`] asks for at most: past a few the
/// hardware streamer has locked on, and one hint must not flood the line
/// fill buffers.
const PREFETCH_CHUNK_LINES: usize = 8;

/// Chunk size of class `class`: the class's doubling `2^k` plus its step
/// within it, each step `2^(k - CLASS_BITS)`.
const fn chunk_size_of(class: usize) -> usize {
    let k = MIN_CHUNK.trailing_zeros() as usize + (class >> CLASS_BITS);
    let step = class & ((1 << CLASS_BITS) - 1);
    (1 << k) + (step << (k - CLASS_BITS as usize))
}

/// Index of the smallest class whose chunk holds `size` bytes; may be
/// [`CLASSES`] or more for a size past the largest class.
const fn class_index(size: usize) -> usize {
    if size <= MIN_CHUNK {
        return 0;
    }
    // The smallest class above `size - 1`: with `2^k <= size - 1 <
    // 2^(k+1)` and steps of `2^(k - CLASS_BITS)`, it is one step past the
    // step `size - 1` lies in.
    let m = size - 1;
    let k = usize::BITS - 1 - m.leading_zeros();
    let steps = m >> (k - CLASS_BITS);
    ((k - MIN_CHUNK.trailing_zeros()) << CLASS_BITS) as usize + steps + 1 - (1 << CLASS_BITS)
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
    /// Slots are published exactly once (null → page in the region), by
    /// `&mut self`; a `&self` reader never overlaps that, and whatever
    /// hands the allocator between threads (the shard lock) orders the
    /// two, so `Relaxed` suffices.
    pages: Box<[AtomicPtr<u8>]>,
    /// Pages published so far (writer-only).
    page_count: usize,
    used_chunks: u32,
    free: Vec<u32>,
}

impl SizeClass {
    fn chunks_allocated(&self) -> usize {
        self.page_count * self.chunks_per_page as usize
    }

    /// `(page pointer, byte offset)` for chunk `chunk`; `None` when the
    /// page is not allocated.
    #[inline(always)]
    fn chunk_addr(&self, chunk: u32) -> Option<(*mut u8, usize)> {
        let page = (chunk / self.chunks_per_page) as usize;
        let off = (chunk % self.chunks_per_page) as usize * self.chunk_size;
        let ptr = self.pages.get(page)?.load(Ordering::Relaxed);
        if ptr.is_null() {
            return None;
        }
        Some((ptr, off))
    }
}

/// A slab allocator with memcached-style slabs, eight size classes per
/// doubling.
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
    /// Every page any class will ever get, in hand-out order.
    region: Arena<u8>,
    /// Full pages per 2 MiB range of `region` (writer-only).
    full_pages: Vec<u8>,
}

/// Slab pages per huge page.
const PAGES_PER_HUGE: usize = HUGE_PAGE / PAGE_BYTES;

impl SlabAllocator {
    /// Create an allocator with the given total memory budget.
    pub fn new(budget_bytes: usize) -> Self {
        // Every class could in principle consume the whole budget, and
        // each has room for a first page past it.
        let max_pages = budget_bytes / PAGE_BYTES;
        let classes = (0..CLASSES)
            .map(chunk_size_of)
            .map(|chunk_size| SizeClass {
                chunk_size,
                chunks_per_page: (PAGE_BYTES / chunk_size) as u32,
                pages: (0..max_pages.max(1))
                    .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                    .collect(),
                page_count: 0,
                used_chunks: 0,
                free: Vec::new(),
            })
            .collect();
        SlabAllocator {
            classes,
            budget_bytes,
            allocated_bytes: 0,
            // SAFETY: zero-validity — any byte is a valid `u8`.
            region: unsafe { Arena::zeroed_unadvised((max_pages + CLASSES) * PAGE_BYTES) },
            full_pages: vec![0; max_pages.div_ceil(PAGES_PER_HUGE)],
        }
    }

    /// The class that would serve `size` bytes: the smallest whose chunk
    /// holds them, or `None` past the largest.
    pub fn class_for(&self, size: usize) -> Option<u16> {
        let class = class_index(size);
        (class < CLASSES).then_some(class as u16)
    }

    /// Allocate a chunk of at least `size` bytes.
    ///
    /// # Errors
    ///
    /// [`SlabError::ObjectTooLarge`] if no class fits,
    /// [`SlabError::OutOfMemory`] if the class has a page, every chunk of
    /// it is in use, and growing would exceed the budget (the caller — the
    /// CLOCK module — should evict and retry).
    pub fn alloc(&mut self, size: usize) -> Result<SlabRef, SlabError> {
        let class = self.class_for(size).ok_or(SlabError::ObjectTooLarge {
            size,
            max: chunk_size_of(CLASSES - 1),
        })?;
        let c = &mut self.classes[class as usize];
        if let Some(chunk) = c.free.pop() {
            c.used_chunks += 1;
            return Ok(SlabRef { class, chunk });
        }
        // Grow the class by the region's next page if the budget allows;
        // a class with no page yet gets one past it.
        if self.allocated_bytes + PAGE_BYTES > self.budget_bytes && c.page_count > 0 {
            return Err(SlabError::OutOfMemory);
        }
        // The class's last page has no chunk left to hand out.
        let filled = c
            .page_count
            .checked_sub(1)
            .map(|p| c.pages[p].load(Ordering::Relaxed));
        // SAFETY: mapping length — the region holds `floor(budget /
        // PAGE_BYTES)` pages and one per class; a page past the budget
        // goes only to a class that had none, so the page lies wholly
        // inside it.
        let ptr = unsafe { self.region.as_mut_ptr().add(self.allocated_bytes) };
        self.allocated_bytes += PAGE_BYTES;
        let next = c.chunks_allocated() as u32;
        c.pages[c.page_count].store(ptr, Ordering::Relaxed);
        c.page_count += 1;
        // Hand out the first new chunk; queue the rest as free.
        let total = c.chunks_allocated() as u32;
        for i in (next + 1..total).rev() {
            c.free.push(i);
        }
        c.used_chunks += 1;
        if let Some(page) = filled {
            self.page_filled(page);
        }
        Ok(SlabRef { class, chunk: next })
    }

    /// Count the region page at `page` full; the second full page of a
    /// 2 MiB range moves that range onto a huge page. (A class whose first
    /// page lies past the budget never grows, so `page` is the budget's.)
    fn page_filled(&mut self, page: *const u8) {
        let at = page as usize - self.region.as_mut_ptr() as usize;
        let huge = at / HUGE_PAGE;
        self.full_pages[huge] += 1;
        if usize::from(self.full_pages[huge]) == PAGES_PER_HUGE {
            let start = huge * HUGE_PAGE;
            self.region.collapse(start..start + HUGE_PAGE);
        }
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
            .chunk_addr(r.chunk)
            .expect("chunk ref outside allocated pages");
        // SAFETY: the page is live until drop and `off + chunk_size <=
        // PAGE_BYTES` by the chunks_per_page floor geometry.
        unsafe { std::slice::from_raw_parts(ptr.add(off), c.chunk_size) }
    }

    /// Request the leading cache line of chunk `r` ahead of a future
    /// [`SlabAllocator::chunk`] read. Stage 2 of the store's
    /// group-prefetched Multi-Get verification (DESIGN.md §9): the item
    /// header plus the head of the key live in the first line, which is
    /// what full-key verification touches first. Safe for out-of-range or
    /// stale refs.
    #[inline(always)]
    pub fn prefetch(&self, r: SlabRef) {
        if let Some(c) = self.classes.get(r.class as usize) {
            if let Some((ptr, off)) = c.chunk_addr(r.chunk) {
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
        if let Some((ptr, off)) = c.chunk_addr(r.chunk) {
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
            .chunk_addr(r.chunk)
            .expect("chunk ref outside allocated pages");
        // SAFETY: the page is live until drop, `off + chunk_size <=
        // PAGE_BYTES` by the floor geometry, and `&mut self` excludes every
        // other borrow of the allocator's chunks.
        unsafe { std::slice::from_raw_parts_mut(ptr.add(off), c.chunk_size) }
    }

    /// Bytes of the pages handed out: the budget's, and first pages past
    /// it.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// Bytes of the chunks handed out and not freed: what the live items
    /// cost, their classes' rounding included.
    pub fn chunk_bytes(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.used_chunks as usize * c.chunk_size)
            .sum()
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
    fn class_for_is_the_smallest_class_that_fits() {
        let slab = SlabAllocator::new(0);
        let sizes: Vec<usize> = slab.classes.iter().map(|c| c.chunk_size).collect();
        assert_eq!(sizes.len(), 112);
        assert_eq!(sizes[0], MIN_CHUNK);
        assert!(sizes.iter().all(|c| c % 8 == 0), "{sizes:?}");
        let largest = *sizes.last().unwrap();
        assert!(largest < PAGE_BYTES);
        // The naive answer, a walk up the class table, only moves forward.
        let mut naive = 0;
        for size in 1..=largest {
            while sizes[naive] < size {
                naive += 1;
            }
            let class = slab.class_for(size).map(usize::from);
            assert_eq!(class, Some(naive), "size {size}");
            // Below the smallest chunk every item takes it; above, the
            // rounding is under an eighth of the item.
            let waste = sizes[naive] - size;
            if size > MIN_CHUNK {
                assert!(waste <= 7.max(size / 8), "size {size} wastes {waste}");
            }
        }
        assert_eq!(slab.class_for(largest + 1), None);
        assert_eq!(slab.class_for(PAGE_BYTES), None);
        assert_eq!(slab.class_for(usize::MAX), None);
        // The benchmark's 58-byte item keeps its one-line class, and
        // `wire_mixed`'s 282-byte item (6 B header, 20 B key, 256 B value)
        // takes 288 bytes.
        assert_eq!(slab.class_for(58), Some(0));
        assert_eq!(sizes[usize::from(slab.class_for(282).unwrap())], 288);
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
        // Stable pages: an existing chunk's address survives any amount of
        // later allocation in the same class.
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
        // The alignment contract of the module doc, over two pages of
        // every class (fresh pages are lazily zeroed, and a class's second
        // page is never marked full, so no range is collapsed and this
        // touches almost none of the budget it reserves).
        let sizes: Vec<usize> = SlabAllocator::new(0)
            .classes
            .iter()
            .map(|c| c.chunk_size)
            .collect();
        let mut slab = SlabAllocator::new(2 * sizes.len() * PAGE_BYTES);
        for &size in &sizes {
            for _ in 0..2 * (PAGE_BYTES / size) {
                let r = slab.alloc(size).unwrap();
                let addr = slab.chunk(r).as_ptr() as usize;
                assert_eq!(addr % 8, 0, "class {size}");
                if size % LINE_BYTES == 0 {
                    assert_eq!(addr % LINE_BYTES, 0, "class {size}");
                }
            }
        }
        assert_eq!(slab.allocated_bytes(), 2 * sizes.len() * PAGE_BYTES);
        assert!(slab.full_pages.iter().all(|&n| n < 2));
    }

    #[test]
    fn pages_are_handed_out_in_order_from_one_region() {
        // Whichever class grows takes the region's next page, so a class's
        // pages interleave with other classes' but never overlap them, and
        // the budget's floor in pages is all a class with a page can get.
        let mut slab = SlabAllocator::new(4 * PAGE_BYTES + PAGE_BYTES / 2);
        let base = slab.region.as_mut_ptr() as usize;
        let small = slab.alloc(64).unwrap();
        let large = slab.alloc(5000).unwrap();
        let cpp = slab.classes[small.class() as usize].chunks_per_page;
        let small2 = (0..cpp).map(|_| slab.alloc(64).unwrap()).last().unwrap();
        assert_eq!(slab.chunk(small).as_ptr() as usize, base);
        assert_eq!(slab.chunk(large).as_ptr() as usize, base + PAGE_BYTES);
        assert_eq!(slab.chunk(small2).as_ptr() as usize, base + 2 * PAGE_BYTES);
        slab.alloc(1000).unwrap();
        assert_eq!(slab.allocated_bytes(), 4 * PAGE_BYTES);
        let cpp = slab.classes[large.class() as usize].chunks_per_page;
        for _ in 1..cpp {
            slab.alloc(5000).unwrap();
        }
        assert_eq!(slab.alloc(5000), Err(SlabError::OutOfMemory));
        assert_eq!(slab.allocated_bytes(), 4 * PAGE_BYTES);
        // A class with no page still gets its first, the region's next,
        // and no second.
        let spill = slab.alloc(2000).unwrap();
        assert_eq!(slab.chunk(spill).as_ptr() as usize, base + 4 * PAGE_BYTES);
        assert_eq!(slab.allocated_bytes(), 5 * PAGE_BYTES);
        let cpp = slab.classes[spill.class() as usize].chunks_per_page;
        for _ in 1..cpp {
            slab.alloc(2000).unwrap();
        }
        assert_eq!(slab.alloc(2000), Err(SlabError::OutOfMemory));
    }

    #[test]
    fn two_full_pages_move_onto_a_huge_page_and_a_partial_one_does_not() {
        if let Some(why) = crate::arena::thp_unavailable() {
            eprintln!("skipped: {why}");
            return;
        }
        let mut slab = SlabAllocator::new(4 * PAGE_BYTES);
        let base = slab.region.as_mut_ptr() as usize;
        let cpp = slab.classes[0].chunks_per_page as usize;
        // Fill pages 0 and 1 and write into page 2: growing onto page 2
        // marks page 1 full, completing the first 2 MiB range.
        for _ in 0..2 * cpp + 1 {
            let r = slab.alloc(64).unwrap();
            slab.chunk_mut(r)[0] = 1;
        }
        // Range 0 is full and collapsed, range 1 holds one written page.
        assert_eq!(slab.full_pages, [2, 0]);
        let huge_kib = crate::arena::anon_huge_kib_in(base, HUGE_PAGE);
        assert!(
            huge_kib >= (HUGE_PAGE / 1024) as u64,
            "full range not collapsed"
        );
        let r = slab.alloc(64).unwrap();
        assert_eq!(
            slab.chunk(r)[0],
            0,
            "fresh chunk on a collapsed region reads zero"
        );
    }
}
