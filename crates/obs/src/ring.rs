//! The drop-oldest ring behind the trace tail and the journal's
//! in-memory records.

/// A fixed-capacity buffer keeping the newest `cap` items pushed: once
/// full, each push overwrites the oldest item.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// The slot the next push writes; once full, the oldest item.
    next: usize,
    /// Items pushed, overwritten ones included.
    recorded: u64,
}

impl<T> Ring<T> {
    /// An empty ring of `cap` items; a zero-capacity ring keeps nothing.
    pub(crate) const fn new(cap: usize) -> Ring<T> {
        Ring {
            buf: Vec::new(),
            cap,
            next: 0,
            recorded: 0,
        }
    }

    /// Allocates all `cap` slots now, so no later push allocates.
    pub(crate) fn preallocated(mut self) -> Ring<T> {
        self.buf.reserve_exact(self.cap);
        self
    }

    /// Appends `item`, overwriting the oldest one when full.
    pub(crate) fn push(&mut self, item: T) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.next] = item;
        }
        self.next = (self.next + 1) % self.cap;
        self.recorded += 1;
    }

    /// Items pushed since construction, overwritten ones included.
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Items currently held.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The held items, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        // Before the first overwrite `next` is the length, so `older` is
        // empty; after it, the oldest item sits at `next`.
        let (newer, older) = self.buf.split_at(self.next);
        older.iter().chain(newer)
    }
}
