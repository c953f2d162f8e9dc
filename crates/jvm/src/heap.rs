//! The simulated Java heap: a flat (non-generational) space managed by a
//! free-list allocator, as in the paper's J9 configuration.
//!
//! The allocator is real: a best-fit free list keyed by size, with
//! address-ordered bookkeeping so the sweep phase can coalesce. Fragments
//! smaller than [`HeapConfig::min_chunk`] cannot be returned to the free
//! list — they become **"dark matter"**, the paper's term (Section 4.1.1)
//! for tiny free chunks reclaimable only by compaction or by a neighbour's
//! death. The slow growth of reported used-heap in Figure 3 is exactly this
//! dark-matter accretion, and it emerges here the same way.

use crate::object::{push_ref, ObjectClass, ObjectId, ObjectSlot, RefLink, Refs, NIL};
use crate::paged::Paged;
use jas_simkernel::DetSet;
use std::collections::{BTreeMap, BTreeSet};

/// Heap configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapConfig {
    /// Capacity in bytes (the paper's baseline: 1 GB, usually scaled — see
    /// DESIGN.md "heap scaling").
    pub capacity: u64,
    /// Smallest chunk the free list can hold; smaller fragments are dark
    /// matter.
    pub min_chunk: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            capacity: 64 * 1024 * 1024, // 1 GB at the default 1/16 scale
            min_chunk: 64,
        }
    }
}

/// Why an allocation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No free chunk large enough; the caller should garbage-collect.
    OutOfMemory,
}

impl core::fmt::Display for AllocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocError::OutOfMemory => f.write_str("no free chunk large enough"),
        }
    }
}

impl std::error::Error for AllocError {}

/// The heap: object table + free-list allocator.
#[derive(Clone, Debug)]
pub struct SimHeap {
    cfg: HeapConfig,
    /// The object table. It and the arena are paged, so neither is ever
    /// copied to grow (see [`Paged`]).
    pub(crate) slots: Paged<ObjectSlot>,
    /// The reference arena: every slot's outgoing references, as chains of
    /// links. Appends go to the end; each sweep rebuilds it in slot order
    /// from the surviving objects' chains only.
    pub(crate) links: Paged<RefLink>,
    free_slot_ids: Vec<u32>,
    free_by_addr: BTreeMap<u64, u64>,   // addr -> len
    free_by_size: BTreeSet<(u64, u64)>, // (len, addr)
    free_bytes: u64,
    dark_matter: u64,
    live_bytes: u64,
    live_objects: u64,
    total_allocated_bytes: u64,
    /// Old objects holding references to young objects (the write-barrier
    /// remembered set used by minor collections).
    pub(crate) remembered: DetSet<ObjectId>,
}

impl SimHeap {
    /// Creates an empty heap of the configured capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one minimum chunk.
    #[must_use]
    pub fn new(cfg: HeapConfig) -> Self {
        assert!(cfg.capacity >= cfg.min_chunk, "heap too small");
        assert!(cfg.min_chunk >= 16, "minimum chunk must hold a header");
        let mut heap = SimHeap {
            cfg,
            slots: Paged::default(),
            links: Paged::default(),
            free_slot_ids: Vec::new(),
            free_by_addr: BTreeMap::new(),
            free_by_size: BTreeSet::new(),
            free_bytes: 0,
            dark_matter: 0,
            live_bytes: 0,
            live_objects: 0,
            total_allocated_bytes: 0,
            remembered: DetSet::new(),
        };
        heap.add_free_chunk(0, cfg.capacity);
        heap
    }

    /// The heap's configuration.
    #[must_use]
    pub fn config(&self) -> &HeapConfig {
        &self.cfg
    }

    fn add_free_chunk(&mut self, addr: u64, len: u64) {
        if len >= self.cfg.min_chunk {
            self.free_by_addr.insert(addr, len);
            self.free_by_size.insert((len, addr));
            self.free_bytes += len;
        } else if len > 0 {
            self.dark_matter += len;
        }
    }

    fn take_free_chunk(&mut self, addr: u64, len: u64) {
        let removed = self.free_by_addr.remove(&addr);
        debug_assert_eq!(removed, Some(len));
        let was = self.free_by_size.remove(&(len, addr));
        debug_assert!(was);
        self.free_bytes -= len;
    }

    /// Allocates an instance of `class` referencing `refs`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] when no free chunk fits; the
    /// caller is expected to garbage-collect and retry.
    pub fn allocate(
        &mut self,
        class: ObjectClass,
        refs: &[ObjectId],
    ) -> Result<ObjectId, AllocError> {
        let size = (class.size() + 7) & !7;
        // Best fit: smallest chunk >= size.
        let &(chunk_len, chunk_addr) = self
            .free_by_size
            .range((size, 0)..)
            .next()
            .ok_or(AllocError::OutOfMemory)?;
        self.take_free_chunk(chunk_addr, chunk_len);
        let remainder = chunk_len - size;
        self.add_free_chunk(chunk_addr + size, remainder);

        let mut slot = ObjectSlot {
            addr: chunk_addr,
            size: u32::try_from(size).expect("object size fits u32"),
            allocated: true,
            young: true,
            ..ObjectSlot::default()
        };
        for &r in refs {
            push_ref(&mut self.links, &mut slot, r);
        }
        self.live_bytes += size;
        self.live_objects += 1;
        self.total_allocated_bytes += size;
        let id = match self.free_slot_ids.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                ObjectId(i)
            }
            None => {
                self.slots.push(slot);
                ObjectId((self.slots.len() - 1) as u32)
            }
        };
        Ok(id)
    }

    /// Heap-relative address of an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name an allocated object.
    #[must_use]
    pub fn address_of(&self, id: ObjectId) -> u64 {
        let s = &self.slots[id.index()];
        assert!(s.allocated, "object {id:?} is not allocated");
        s.addr
    }

    /// Size in bytes of an allocated object.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name an allocated object.
    #[must_use]
    pub fn size_of(&self, id: ObjectId) -> u64 {
        let s = &self.slots[id.index()];
        assert!(s.allocated, "object {id:?} is not allocated");
        u64::from(s.size)
    }

    /// Outgoing references of the object in slot `id`, in insertion order.
    pub(crate) fn refs(&self, id: ObjectId) -> Refs<'_> {
        Refs::new(&self.links, self.slots[id.index()].ref_head)
    }

    /// Appends an outgoing reference to an allocated object.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name an allocated object.
    pub fn add_ref(&mut self, id: ObjectId, target: ObjectId) {
        // Write barrier: old -> young references enter the remembered set
        // so a minor collection can treat them as roots.
        let target_young = self
            .slots
            .get(target.index())
            .is_some_and(|t| t.allocated && t.young);
        let s = &mut self.slots[id.index()];
        assert!(s.allocated, "object {id:?} is not allocated");
        push_ref(&mut self.links, s, target);
        if !s.young && target_young {
            self.remembered.insert(id);
        }
    }

    /// Count of live young-generation objects.
    #[must_use]
    pub fn young_objects(&self) -> u64 {
        self.slots.iter().filter(|s| s.allocated && s.young).count() as u64
    }

    /// Bytes currently held by live-or-unswept objects.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Count of live-or-unswept objects.
    #[must_use]
    pub fn live_objects(&self) -> u64 {
        self.live_objects
    }

    /// Bytes on the free list (excludes dark matter).
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Bytes lost to fragments too small for the free list.
    #[must_use]
    pub fn dark_matter_bytes(&self) -> u64 {
        self.dark_matter
    }

    /// Bytes the JVM would report as "used": capacity minus free list. This
    /// *includes* dark matter, which is why reported usage creeps upward
    /// even when the true live set is flat.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.cfg.capacity - self.free_bytes
    }

    /// Heap capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    /// Cumulative bytes ever allocated.
    #[must_use]
    pub fn total_allocated_bytes(&self) -> u64 {
        self.total_allocated_bytes
    }

    /// Frees all unmarked objects, rebuilds the free list address-ordered
    /// (coalescing adjacent gaps), clears mark bits, and returns
    /// `(objects_swept, bytes_freed)`. Survivors are tenured (a full
    /// collection empties the young generation).
    ///
    /// Fragments below the minimum chunk become dark matter; dark matter
    /// adjacent to newly freed space is absorbed automatically because the
    /// free list is rebuilt from the surviving objects' layout.
    pub(crate) fn sweep(&mut self) -> (u64, u64) {
        let mut swept = 0u64;
        let mut freed = 0u64;
        // Release dead objects.
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.allocated && !s.marked {
                s.allocated = false;
                swept += 1;
                freed += u64::from(s.size);
                self.live_bytes -= u64::from(s.size);
                self.live_objects -= 1;
                self.free_slot_ids.push(i as u32);
            }
            s.young = false;
            s.marked = false;
        }
        self.remembered.clear();
        self.compact_links();
        self.rebuild_free_list();
        (swept, freed)
    }

    /// Minor sweep: frees only unmarked *young* objects and promotes young
    /// survivors to the old generation. Old objects are untouched. Returns
    /// `(objects_swept, bytes_freed)`.
    pub(crate) fn sweep_young(&mut self) -> (u64, u64) {
        let mut swept = 0u64;
        let mut freed = 0u64;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.allocated && s.young {
                if s.marked {
                    s.young = false; // promoted
                } else {
                    s.allocated = false;
                    s.young = false;
                    swept += 1;
                    freed += u64::from(s.size);
                    self.live_bytes -= u64::from(s.size);
                    self.live_objects -= 1;
                    self.free_slot_ids.push(i as u32);
                }
            }
            s.marked = false;
        }
        // All young objects are now promoted or dead: the remembered set
        // (old -> young) is empty by definition.
        self.remembered.clear();
        self.compact_links();
        self.rebuild_free_list();
        (swept, freed)
    }

    /// Slides all live objects to the bottom of the heap in address order,
    /// leaving one contiguous free chunk. Returns bytes moved.
    pub(crate) fn compact(&mut self) -> u64 {
        let mut live: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].allocated)
            .collect();
        live.sort_by_key(|&i| self.slots[i].addr);
        let mut cursor = 0u64;
        let mut moved = 0u64;
        for i in live {
            let s = &mut self.slots[i];
            if s.addr != cursor {
                moved += u64::from(s.size);
                s.addr = cursor;
            }
            cursor += u64::from(s.size);
        }
        self.free_by_addr.clear();
        self.free_by_size.clear();
        self.free_bytes = 0;
        self.dark_matter = 0;
        self.add_free_chunk(cursor, self.cfg.capacity - cursor);
        moved
    }

    /// Rebuilds the reference arena in slot order from the allocated
    /// objects' chains, dropping every freed object's links: afterwards
    /// the arena holds exactly the live objects' references, each chain
    /// contiguous.
    fn compact_links(&mut self) {
        let old = std::mem::take(&mut self.links);
        for s in &mut self.slots {
            let head = std::mem::replace(&mut s.ref_head, NIL);
            s.ref_tail = NIL;
            if s.allocated {
                for r in Refs::new(&old, head) {
                    push_ref(&mut self.links, s, r);
                }
            }
        }
    }

    fn rebuild_free_list(&mut self) {
        let mut live: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|s| s.allocated)
            .map(|s| (s.addr, u64::from(s.size)))
            .collect();
        live.sort_unstable();
        self.free_by_addr.clear();
        self.free_by_size.clear();
        self.free_bytes = 0;
        self.dark_matter = 0;
        let mut cursor = 0u64;
        for (addr, size) in live {
            debug_assert!(addr >= cursor, "overlapping objects");
            self.add_free_chunk(cursor, addr - cursor);
            cursor = addr + size;
        }
        self.add_free_chunk(cursor, self.cfg.capacity - cursor);
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for SimHeap {
    /// `cfg` is immutable; the object table, both free-list views, the
    /// byte accounting, and the remembered set are the mutable state.
    ///
    /// The object table is written as a length and then, per slot: addr,
    /// size, reference count, the references in insertion order, marked,
    /// allocated, young. The arena itself is not written: each slot's
    /// chain is visited in the slot loop, and a load rebuilds the arena in
    /// slot order.
    // jas-lint: allow(D009, reason = "cfg is construction-time configuration")
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut len = self.slots.len() as u64;
        io.length(&mut len);
        if !io.saving() {
            self.slots.clear();
            self.links.clear();
            for _ in 0..len {
                self.slots.push(ObjectSlot::default());
            }
        }
        for s in &mut self.slots {
            s.addr.persist(io);
            s.size.persist(io);
            let mut count = Refs::new(&self.links, s.ref_head).count() as u64;
            io.length(&mut count);
            if io.saving() {
                for mut r in Refs::new(&self.links, s.ref_head) {
                    r.persist(io);
                }
            } else {
                for _ in 0..count {
                    let mut r = ObjectId::default();
                    r.persist(io);
                    push_ref(&mut self.links, s, r);
                }
            }
            s.marked.persist(io);
            s.allocated.persist(io);
            s.young.persist(io);
        }
        self.free_slot_ids.persist(io);
        snap::persist_map(io, &mut self.free_by_addr);
        snap::persist_set(io, &mut self.free_by_size);
        self.free_bytes.persist(io);
        self.dark_matter.persist(io);
        self.live_bytes.persist(io);
        self.live_objects.persist(io);
        self.total_allocated_bytes.persist(io);
        snap::persist_set(io, &mut self.remembered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saved_words;

    fn small_heap() -> SimHeap {
        SimHeap::new(HeapConfig {
            capacity: 1024 * 1024,
            min_chunk: 64,
        })
    }

    #[test]
    fn fresh_heap_is_all_free() {
        let h = small_heap();
        assert_eq!(h.free_bytes(), 1024 * 1024);
        assert_eq!(h.live_bytes(), 0);
        assert_eq!(h.dark_matter_bytes(), 0);
        assert_eq!(h.used_bytes(), 0);
    }

    #[test]
    fn allocate_accounts_bytes() {
        let mut h = small_heap();
        let id = h.allocate(ObjectClass::Bean, &[]).unwrap();
        assert_eq!(h.size_of(id), 96);
        assert_eq!(h.live_bytes(), 96);
        assert_eq!(h.live_objects(), 1);
        assert_eq!(h.free_bytes(), 1024 * 1024 - 96);
    }

    #[test]
    fn allocation_rounds_to_eight() {
        let mut h = small_heap();
        let id = h.allocate(ObjectClass::Small, &[]).unwrap();
        assert_eq!(h.size_of(id) % 8, 0);
    }

    #[test]
    fn out_of_memory_when_full() {
        let mut h = SimHeap::new(HeapConfig {
            capacity: 256,
            min_chunk: 32,
        });
        let _ = h.allocate(ObjectClass::Bean, &[]).unwrap(); // 96
        let _ = h.allocate(ObjectClass::Bean, &[]).unwrap(); // 192
        assert_eq!(
            h.allocate(ObjectClass::Bean, &[]),
            Err(AllocError::OutOfMemory)
        );
    }

    #[test]
    fn sweep_reclaims_unmarked() {
        let mut h = small_heap();
        let a = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let _b = h.allocate(ObjectClass::Array, &[]).unwrap();
        // Mark only `a`.
        h.slots[a.index()].marked = true;
        let (swept, freed) = h.sweep();
        assert_eq!(swept, 1);
        assert_eq!(freed, 256);
        assert_eq!(h.live_objects(), 1);
        // Mark bits cleared.
        assert!(!h.slots[a.index()].marked);
    }

    #[test]
    fn sweep_coalesces_adjacent_gaps() {
        let mut h = small_heap();
        let ids: Vec<_> = (0..8)
            .map(|_| h.allocate(ObjectClass::Bean, &[]).unwrap())
            .collect();
        // Keep only the last object: everything before it coalesces into one
        // leading chunk.
        h.slots[ids[7].index()].marked = true;
        h.sweep();
        // Free list should be exactly two chunks: before and after the
        // survivor.
        assert_eq!(h.free_by_addr.len(), 2);
        assert_eq!(h.free_bytes(), 1024 * 1024 - 96);
    }

    #[test]
    fn slot_reuse_after_sweep() {
        let mut h = small_heap();
        let a = h.allocate(ObjectClass::Small, &[]).unwrap();
        h.sweep(); // a dies
        let b = h.allocate(ObjectClass::Small, &[]).unwrap();
        assert_eq!(a.index(), b.index(), "slot should be recycled");
    }

    #[test]
    fn dark_matter_from_tiny_remainders() {
        let mut h = SimHeap::new(HeapConfig {
            capacity: 4096,
            min_chunk: 64,
        });
        // Allocate 24-byte objects from 4096: each allocation leaves the
        // wilderness shrinking; eventually splits leave nothing. To force a
        // tiny remainder, fill almost everything then sweep a pattern.
        let ids: Vec<_> = (0..100)
            .map(|_| h.allocate(ObjectClass::Small, &[]).unwrap())
            .collect();
        // Keep every second object: gaps of 24 bytes < min_chunk 64 appear.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                h.slots[id.index()].marked = true;
            }
        }
        h.sweep();
        assert!(
            h.dark_matter_bytes() > 0,
            "alternating frees must strand fragments"
        );
        // Reported used bytes exceed live bytes by the dark matter.
        assert_eq!(h.used_bytes(), h.live_bytes() + h.dark_matter_bytes());
    }

    #[test]
    fn compact_absorbs_dark_matter() {
        let mut h = SimHeap::new(HeapConfig {
            capacity: 4096,
            min_chunk: 64,
        });
        let ids: Vec<_> = (0..100)
            .map(|_| h.allocate(ObjectClass::Small, &[]).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                h.slots[id.index()].marked = true;
            }
        }
        h.sweep();
        assert!(h.dark_matter_bytes() > 0);
        let moved = h.compact();
        assert!(moved > 0);
        assert_eq!(h.dark_matter_bytes(), 0);
        assert_eq!(h.used_bytes(), h.live_bytes());
        // One contiguous free chunk.
        assert_eq!(h.free_by_addr.len(), 1);
    }

    #[test]
    fn compact_preserves_object_count_and_bytes() {
        let mut h = small_heap();
        for _ in 0..10 {
            let _ = h.allocate(ObjectClass::Bean, &[]).unwrap();
        }
        let live_before = (h.live_objects(), h.live_bytes());
        h.compact();
        assert_eq!((h.live_objects(), h.live_bytes()), live_before);
    }

    #[test]
    fn refs_can_be_added() {
        let mut h = small_heap();
        let a = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let b = h.allocate(ObjectClass::Bean, &[a]).unwrap();
        h.add_ref(a, b);
        assert_eq!(h.refs(a).collect::<Vec<_>>(), vec![b]);
        assert_eq!(h.refs(b).collect::<Vec<_>>(), vec![a]);
    }

    /// Live references counted by walking every allocated slot's chain.
    fn live_refs(h: &SimHeap) -> usize {
        (0..h.slots.len())
            .filter(|&i| h.slots[i].allocated)
            .map(|i| h.refs(ObjectId(i as u32)).count())
            .sum()
    }

    #[test]
    fn checkpoint_words_keep_the_per_slot_layout() {
        let mut h = SimHeap::new(HeapConfig {
            capacity: 4096,
            min_chunk: 64,
        });
        let a = h.allocate(ObjectClass::Small, &[]).unwrap(); // slot 0 @0
        let b = h.allocate(ObjectClass::Bean, &[a]).unwrap(); // slot 1 @24
        let c = h.allocate(ObjectClass::Array, &[a]).unwrap(); // slot 2 @120
        let _d = h.allocate(ObjectClass::Small, &[b]).unwrap(); // slot 3 @376
        let _g = h.allocate(ObjectClass::Small, &[]).unwrap(); // slot 4 @400
        h.add_ref(c, b);
        h.add_ref(c, a);
        // Roots reach c -> {a, b}: d and g die; the last freed slot is
        // reused first, so slot 4 comes back and slot 3 stays dead.
        crate::gc::collect(&mut h, &[c], crate::gc::GcPolicy::default());
        let e = h.allocate(ObjectClass::Bean, &[c]).unwrap(); // slot 4 @376
        assert_eq!(e.index(), 4);
        h.add_ref(b, e); // old -> young: b enters the remembered set
        let words = saved_words(&mut h);
        #[rustfmt::skip]
        let expected: Vec<u64> = vec![
            5, // slots
            // addr size refs      marked allocated young
            0,   24,  0,           0, 1, 0, // a
            24,  96,  2, 0, 4,     0, 1, 0, // b
            120, 256, 3, 0, 1, 0,  0, 1, 0, // c
            376, 24,  0,           0, 0, 0, // d: swept
            376, 96,  1, 2,        0, 1, 1, // e: reused slot
            1, 3,                           // free_slot_ids
            1, 472, 3624,                   // free_by_addr
            1, 3624, 472,                   // free_by_size
            3624, 0, 472, 4, 520,           // free, dark, live bytes/objects, total
            1, 1,                           // remembered
        ];
        assert_eq!(words, expected);
        // save -> load -> save is the identity on the words.
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut restored = SimHeap::new(*h.config());
        let mut loader = snap::Loader::new(&bytes);
        restored.persist(&mut loader);
        loader.finish().expect("whole stream consumed");
        assert_eq!(saved_words(&mut restored), words);
        assert_eq!(restored.links.len(), live_refs(&restored));
    }

    #[test]
    fn object_table_footprint_is_counted() {
        // An object costs one 24-byte slot and 8 bytes per reference, with
        // no allocation of its own; a per-object `Vec` fails the size
        // bound, an arena that keeps dead chains fails the length check.
        assert!(std::mem::size_of::<ObjectSlot>() <= 24);
        assert!(std::mem::size_of::<RefLink>() <= 8);
        let mut h = small_heap();
        let mut rng = jas_simkernel::Rng::new(0xA4E7A);
        let mut ids: Vec<ObjectId> = Vec::new();
        for round in 0..6 {
            for _ in 0..300 {
                // Sparse enough (under one edge per object) that most of
                // each round dies.
                let refs: Vec<ObjectId> = (0..rng.next_below(2))
                    .filter_map(|_| rng.pick(&ids).copied())
                    .collect();
                let id = h.allocate(ObjectClass::Bean, &refs).unwrap();
                if rng.chance(0.2) {
                    if let Some(&t) = rng.pick(&ids) {
                        h.add_ref(t, id);
                    }
                }
                ids.push(id);
            }
            let roots: Vec<ObjectId> = ids.iter().copied().step_by(29).collect();
            let links_before = h.links.len();
            let report = if round % 2 == 0 {
                crate::gc::collect_minor(&mut h, &roots, crate::gc::GcPolicy::default())
            } else {
                crate::gc::collect(&mut h, &roots, crate::gc::GcPolicy::default())
            };
            ids.retain(|id| h.slots[id.index()].allocated);
            assert!(report.swept_objects > 0, "round {round}: nothing died");
            assert!(h.links.len() < links_before, "round {round}");
            assert_eq!(h.links.len(), live_refs(&h), "round {round}");
        }
    }

    #[test]
    fn best_fit_prefers_snug_chunk() {
        let mut h = small_heap();
        // Create two free chunks by allocate/sweep: sizes 96 and 256 gaps.
        let a = h.allocate(ObjectClass::Bean, &[]).unwrap(); // 96
        let keep1 = h.allocate(ObjectClass::Small, &[]).unwrap();
        let b = h.allocate(ObjectClass::Array, &[]).unwrap(); // 256
        let keep2 = h.allocate(ObjectClass::Small, &[]).unwrap();
        let (a_addr, b_addr) = (h.address_of(a), h.address_of(b));
        h.slots[keep1.index()].marked = true;
        h.slots[keep2.index()].marked = true;
        h.sweep();
        // Allocating a 96-byte object must land in the 96-byte gap (best
        // fit), not the 256-byte gap.
        let c = h.allocate(ObjectClass::Bean, &[]).unwrap();
        assert_eq!(h.address_of(c), a_addr);
        assert_ne!(h.address_of(c), b_addr);
    }
}
