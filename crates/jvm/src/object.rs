//! The simulated Java object model.
//!
//! Objects are real entities with sizes, heap addresses, and outgoing
//! references — the garbage collector in [`crate::gc`] actually traverses
//! this graph, so GC costs, pause composition, and fragmentation *emerge*
//! rather than being constants.

use crate::paged::Paged;

/// Identifier of a live-or-dead object slot in the heap's object table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub(crate) u32);

impl ObjectId {
    /// Raw table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Coarse class shapes the workload allocates, with realistic size classes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// Small scalar-ish object (boxed primitive, small bean field holder).
    #[default]
    Small,
    /// Typical entity/bean instance.
    Bean,
    /// Character data: request/response strings, char[] buffers.
    CharArray,
    /// Collections backbone: hash buckets, object arrays.
    Array,
    /// Session state and cached entities (long-lived).
    Session,
    /// Large buffer (serialization, JDBC row sets).
    Buffer,
}

impl ObjectClass {
    /// Nominal instance size in bytes (before allocator rounding).
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            ObjectClass::Small => 24,
            ObjectClass::Bean => 96,
            ObjectClass::CharArray => 160,
            ObjectClass::Array => 256,
            ObjectClass::Session => 512,
            ObjectClass::Buffer => 2048,
        }
    }

    /// Number of reference slots instances of this class carry.
    #[must_use]
    pub fn ref_slots(self) -> usize {
        match self {
            ObjectClass::Small => 1,
            ObjectClass::Bean => 4,
            ObjectClass::CharArray => 0,
            ObjectClass::Array => 8,
            ObjectClass::Session => 6,
            ObjectClass::Buffer => 0,
        }
    }
}

/// End of a reference chain: the `next` of a chain's last link, and the
/// head and tail of an object with no references.
pub(crate) const NIL: u32 = u32::MAX;

/// One slot of the object table.
///
/// An object's outgoing references live in its heap's reference arena as a
/// chain of [`RefLink`]s from `ref_head` to `ref_tail`, so a slot owns no
/// allocation of its own and a dead slot holds no reference storage.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ObjectSlot {
    /// Heap byte offset of the object (relative to heap base).
    pub(crate) addr: u64,
    /// Allocated size in bytes (after rounding).
    pub(crate) size: u32,
    /// Arena index of the first outgoing reference, or [`NIL`].
    pub(crate) ref_head: u32,
    /// Arena index of the last outgoing reference, or [`NIL`].
    pub(crate) ref_tail: u32,
    /// Mark bit for the collector.
    pub(crate) marked: bool,
    /// Whether the slot currently holds a live-or-unswept object.
    pub(crate) allocated: bool,
    /// Whether the object is in the young generation (allocated since the
    /// last collection that promoted survivors).
    pub(crate) young: bool,
}

impl Default for ObjectSlot {
    fn default() -> Self {
        ObjectSlot {
            addr: 0,
            size: 0,
            ref_head: NIL,
            ref_tail: NIL,
            marked: false,
            allocated: false,
            young: false,
        }
    }
}

/// One outgoing reference in a heap's reference arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RefLink {
    /// The referenced object.
    pub(crate) target: ObjectId,
    /// Arena index of the owner's next reference, or [`NIL`].
    pub(crate) next: u32,
}

/// The references of one object, in insertion order: a walk of its chain
/// in the reference arena.
pub(crate) struct Refs<'a> {
    links: &'a Paged<RefLink>,
    at: u32,
}

impl<'a> Refs<'a> {
    pub(crate) fn new(links: &'a Paged<RefLink>, head: u32) -> Self {
        Refs { links, at: head }
    }
}

impl Iterator for Refs<'_> {
    type Item = ObjectId;

    fn next(&mut self) -> Option<ObjectId> {
        let link = *self.links.get(self.at as usize)?;
        self.at = link.next;
        Some(link.target)
    }
}

/// Appends `target` to `slot`'s reference chain in `links`.
///
/// # Panics
///
/// Panics if the arena outgrows `u32` indices.
pub(crate) fn push_ref(links: &mut Paged<RefLink>, slot: &mut ObjectSlot, target: ObjectId) {
    let at = u32::try_from(links.len())
        .ok()
        .filter(|&at| at != NIL)
        .expect("reference arena outgrew u32 indices");
    links.push(RefLink { target, next: NIL });
    match links.get_mut(slot.ref_tail as usize) {
        Some(last) => last.next = at,
        None => slot.ref_head = at,
    }
    slot.ref_tail = at;
}

// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{Persist, StateIo};

impl Persist for ObjectId {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
    }
}

impl Persist for ObjectClass {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut tag: u64 = match self {
            ObjectClass::Small => 0,
            ObjectClass::Bean => 1,
            ObjectClass::CharArray => 2,
            ObjectClass::Array => 3,
            ObjectClass::Session => 4,
            ObjectClass::Buffer => 5,
        };
        io.word(&mut tag);
        if !io.saving() {
            *self = match tag {
                0 => ObjectClass::Small,
                1 => ObjectClass::Bean,
                2 => ObjectClass::CharArray,
                3 => ObjectClass::Array,
                4 => ObjectClass::Session,
                _ => ObjectClass::Buffer,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sizes_are_ordered_sensibly() {
        assert!(ObjectClass::Small.size() < ObjectClass::Bean.size());
        assert!(ObjectClass::Bean.size() < ObjectClass::Buffer.size());
    }

    #[test]
    fn leaf_classes_have_no_ref_slots() {
        assert_eq!(ObjectClass::CharArray.ref_slots(), 0);
        assert_eq!(ObjectClass::Buffer.ref_slots(), 0);
        assert!(ObjectClass::Array.ref_slots() > 0);
    }

    #[test]
    fn object_id_round_trips_index() {
        assert_eq!(ObjectId(7).index(), 7);
    }
}
