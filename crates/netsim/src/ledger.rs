//! Per-thread throughput ledgers.
//!
//! `vns-bench` reports packets/s and units/s per experiment by sampling two
//! process-wide counters around each run. Earlier revisions backed those
//! with global `AtomicU64`s that every `PathChannel` drop and every
//! `par_map` call hit — a shared cache line bouncing between workers. The
//! ledger keeps the hot-path counts in plain thread-local [`Cell`]s
//! instead:
//!
//! * campaign code calls [`add_packets`]/[`add_units`] — a thread-local
//!   increment, no atomics, no contention;
//! * a `par_map` worker drains its cells with [`take_local`] when its unit
//!   loop ends and hands the delta back to the join point, which folds the
//!   deltas into the process totals in canonical worker order via
//!   [`merge`];
//! * readers ([`packets_sent`], [`units_processed`]) see the merged totals
//!   plus their own thread's still-local tally, so single-threaded flows
//!   (the bench runner between experiments) observe their own counts
//!   immediately. The merged part moves whenever any thread's `par_map`
//!   joins, so a reader's delta is exact only while nothing else runs in
//!   the process; a test that shares its process with others and needs an
//!   exact count drains its own cells with [`take_local`] before and after
//!   the measured work, then [`merge`]s both deltas back.
//!
//! Counts recorded on a plain `std::thread` that never merges are visible
//! only to that thread; inside this workspace every worker thread is
//! spawned by `par_map`, which always merges.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process totals, fed only by [`merge`] at `par_map` join points (and by
/// nothing else — workers never touch these directly).
static MERGED_PACKETS: AtomicU64 = AtomicU64::new(0);
static MERGED_UNITS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL_PACKETS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_UNITS: Cell<u64> = const { Cell::new(0) };
}

/// A drained per-thread tally, produced by [`take_local`] and consumed by
/// [`merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerDelta {
    /// Packets pushed through `PathChannel`s on the drained thread.
    pub packets: u64,
    /// Work units completed on the drained thread.
    pub units: u64,
}

/// Records `n` packets sent on the current thread.
pub fn add_packets(n: u64) {
    LOCAL_PACKETS.with(|c| c.set(c.get() + n));
}

/// Records `n` work units processed on the current thread.
pub fn add_units(n: u64) {
    LOCAL_UNITS.with(|c| c.set(c.get() + n));
}

/// Drains the current thread's cells to zero and returns the delta. Called
/// by `par_map` workers at the end of their claim loop; the join point
/// passes the deltas to [`merge`] in worker spawn order.
pub fn take_local() -> LedgerDelta {
    LedgerDelta {
        packets: LOCAL_PACKETS.with(|c| c.replace(0)),
        units: LOCAL_UNITS.with(|c| c.replace(0)),
    }
}

/// Folds a drained worker delta into the process totals.
pub fn merge(delta: LedgerDelta) {
    if delta.packets > 0 {
        MERGED_PACKETS.fetch_add(delta.packets, Ordering::Relaxed);
    }
    if delta.units > 0 {
        MERGED_UNITS.fetch_add(delta.units, Ordering::Relaxed);
    }
}

/// Packets sent through `PathChannel`s, as visible to this thread: the
/// merged process total plus this thread's still-local tally.
pub fn packets_sent() -> u64 {
    MERGED_PACKETS.load(Ordering::Relaxed) + LOCAL_PACKETS.with(Cell::get)
}

/// Work units processed by `par_map`, as visible to this thread (merged
/// total plus this thread's local tally).
pub fn units_processed() -> u64 {
    MERGED_UNITS.load(Ordering::Relaxed) + LOCAL_UNITS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The merged totals belong to every test thread of the process at once
    // (`merge` below and every multi-worker `par_map` test move them), so
    // exact assertions read this thread's own cells — each test runs on a
    // thread of its own — and the readers are only held to "at least".

    fn local_packets() -> u64 {
        LOCAL_PACKETS.with(Cell::get)
    }

    #[test]
    fn local_counts_are_immediately_visible() {
        let p0 = packets_sent();
        let u0 = units_processed();
        add_packets(5);
        add_units(2);
        assert_eq!(local_packets(), 5);
        assert_eq!(LOCAL_UNITS.with(Cell::get), 2);
        assert!(packets_sent() - p0 >= 5);
        assert!(units_processed() - u0 >= 2);
    }

    #[test]
    fn take_local_drains_and_merge_restores_visibility() {
        add_packets(7);
        let before_merge = MERGED_PACKETS.load(Ordering::Relaxed);
        let d = take_local();
        assert_eq!(d.packets, 7);
        assert_eq!(local_packets(), 0);
        merge(d);
        assert!(MERGED_PACKETS.load(Ordering::Relaxed) >= before_merge + 7);
    }

    #[test]
    fn other_threads_do_not_skew_a_local_delta() {
        let handle = std::thread::spawn(|| {
            // A foreign thread's unmerged tally lands in its own cell and
            // nowhere else.
            add_packets(1_000_000);
            local_packets()
        });
        add_packets(3);
        assert_eq!(handle.join().expect("thread"), 1_000_000);
        assert_eq!(local_packets(), 3);
    }
}
