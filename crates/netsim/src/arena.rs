//! Recycled per-thread scratch for the packet engine.
//!
//! Every column send needs a handful of buffers (running clocks,
//! live-packet indices, the sparse loss column). Allocating them per
//! session would put `Vec` round-trips on the setup path of each of
//! steady-state's ~170k session units; instead a thread-local pool hands
//! out [`BatchScratch`] blocks that keep their capacity across uses — after
//! the first few sessions on a thread, sends allocate nothing.
//!
//! The workspace forbids `unsafe`, so this is a recycling pool rather than
//! a raw bump allocator: [`scratch`] pops a block (or builds one), the
//! [`Scratch`] guard derefs to it, and dropping the guard clears and
//! returns the block to the pool. Blocks never migrate between threads, so
//! there is no synchronisation anywhere on the path.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// The engine's columns for one [`crate::PathChannel::send_column`] call.
/// Capacities persist across pool round-trips.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Running clock of each still-live packet, nanoseconds. After a send
    /// this is the delivered packets' arrival clocks.
    pub now: Vec<u64>,
    /// Original index of each still-live packet. After a send it is either
    /// empty (identity mapping: nothing was dropped, delivered slot `j` is
    /// original packet `j`) or one original index per delivered slot.
    pub idx: Vec<u32>,
    /// Sparse loss column: one `(original index << 8) | hop` entry per
    /// dropped packet, in drop order (hop-major).
    pub lost: Vec<u32>,
}

impl BatchScratch {
    /// Empties all columns (capacity is retained).
    pub fn clear(&mut self) {
        self.now.clear();
        self.idx.clear();
        self.lost.clear();
    }
}

thread_local! {
    static POOL: RefCell<Vec<BatchScratch>> = const { RefCell::new(Vec::new()) };
}

/// Owning guard over a pooled [`BatchScratch`]; returns the block to the
/// current thread's pool on drop.
#[derive(Debug)]
pub struct Scratch(Option<BatchScratch>);

impl Deref for Scratch {
    type Target = BatchScratch;
    fn deref(&self) -> &BatchScratch {
        match &self.0 {
            Some(s) => s,
            // The Option is only vacated in Drop.
            None => unreachable!("scratch guard accessed after drop"),
        }
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut BatchScratch {
        match &mut self.0 {
            Some(s) => s,
            None => unreachable!("scratch guard accessed after drop"),
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(mut block) = self.0.take() {
            block.clear();
            POOL.with(|p| p.borrow_mut().push(block));
        }
    }
}

/// Takes a scratch block from the current thread's pool (allocating a fresh
/// empty one only when the pool is dry).
pub fn scratch() -> Scratch {
    let block = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    Scratch(Some(block))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_survives_a_pool_round_trip() {
        {
            let mut s = scratch();
            s.now.reserve(4096);
        }
        let s = scratch();
        assert!(s.now.capacity() >= 4096, "block was not recycled");
        assert!(s.now.is_empty(), "block came back dirty");
    }

    #[test]
    fn nested_guards_get_distinct_blocks() {
        let mut a = scratch();
        a.idx.push(1);
        let b = scratch();
        assert!(b.idx.is_empty());
        drop(b);
        assert_eq!(a.idx, [1]);
    }
}
