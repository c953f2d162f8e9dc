//! A growable table stored in fixed-size pages.
//!
//! The object table and the reference arena grow for as long as a heap
//! lives. In one `Vec` each doubling copies the whole table into a new
//! block twice its length, so up to half of the largest block is slack,
//! and whether that slack is resident depends on where the allocator
//! placed the block: fresh pages stay untouched, pages recycled from
//! earlier frees of the same process are already resident. The peak
//! resident set then differs from one run to the next in one process.
//! Here growth adds one page at a time and never moves what is stored:
//! at most one page is partly used, and every page is the same small
//! block, which an allocator serves and recycles the same way each time.

use std::ops::{Index, IndexMut};

/// Entries per page, a power of two. At the object table's 24 bytes per
/// entry a page is 48 KiB, below the size at which an allocator maps
/// blocks of their own.
const PAGE: usize = 2048;

/// A growable table of `T` in pages of [`PAGE`] entries: index, push and
/// in-order iteration as for a `Vec`, without reallocation.
#[derive(Clone, Debug)]
pub(crate) struct Paged<T> {
    /// Every page but the last is full; none is empty.
    pages: Vec<Vec<T>>,
}

impl<T> Default for Paged<T> {
    fn default() -> Self {
        Paged { pages: Vec::new() }
    }
}

impl<T> Paged<T> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |last| (self.pages.len() - 1) * PAGE + last.len())
    }

    /// Appends `value`, starting a new page if the last one is full.
    pub(crate) fn push(&mut self, value: T) {
        match self.pages.last_mut() {
            Some(page) if page.len() < PAGE => page.push(value),
            _ => {
                let mut page = Vec::with_capacity(PAGE);
                page.push(value);
                self.pages.push(page);
            }
        }
    }

    /// The entry at `i`, if there is one.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.pages.get(i / PAGE)?.get(i % PAGE)
    }

    /// The entry at `i` for writing, if there is one.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.pages.get_mut(i / PAGE)?.get_mut(i % PAGE)
    }

    /// Removes every entry and frees every page.
    pub(crate) fn clear(&mut self) {
        self.pages.clear();
    }

    /// The entries in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
    }

    /// The entries in index order, for writing.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.pages.iter_mut().flatten()
    }
}

impl<T> Index<usize> for Paged<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.pages[i / PAGE][i % PAGE]
    }
}

impl<T> IndexMut<usize> for Paged<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.pages[i / PAGE][i % PAGE]
    }
}

impl<'a, T> IntoIterator for &'a mut Paged<T> {
    type Item = &'a mut T;
    type IntoIter = std::iter::Flatten<std::slice::IterMut<'a, Vec<T>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.pages.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_as_a_vec_across_page_boundaries() {
        let n = 2 * PAGE + 5;
        let mut p = Paged::default();
        let mut v = Vec::new();
        for i in 0..n {
            assert_eq!(p.len(), v.len());
            p.push(i);
            v.push(i);
        }
        assert_eq!(p.len(), n);
        assert_eq!(p.iter().copied().collect::<Vec<_>>(), v);
        assert_eq!(p[PAGE], PAGE);
        assert_eq!(p.get(n - 1), Some(&(n - 1)));
        assert_eq!(p.get(n), None);
        p[PAGE - 1] = 7;
        *p.get_mut(PAGE + 1).unwrap() += 1;
        for x in &mut p {
            *x += 1;
        }
        assert_eq!(p[PAGE - 1], 8);
        assert_eq!(p[PAGE + 1], PAGE + 3);
        p.clear();
        assert_eq!(p.len(), 0);
        assert_eq!(p.get(0), None);
    }

    #[test]
    fn pages_are_never_reallocated() {
        // Growth adds pages of exactly `PAGE` entries: a page that grew
        // past its first capacity would have been copied.
        let mut p = Paged::default();
        for i in 0..3 * PAGE + 1 {
            p.push(i as u64);
        }
        assert_eq!(p.pages.len(), 4);
        assert!(p.pages.iter().all(|page| page.capacity() == PAGE));
    }
}
