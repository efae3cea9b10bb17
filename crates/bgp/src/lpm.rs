//! The one longest-prefix-match table: an ordered map plus a census of its
//! keys per mask length.
//!
//! Two tables answer "which stored prefix is the most specific one
//! containing this address": a network's prefix-id table, through which
//! every speaker's Loc-RIB longest match goes (on every hop of every
//! resolved path: the table's matches, longest first, until one the speaker
//! has selected), and the Internet's prefix registry (once per resolved path
//! and per verified destination). Both are [`LpmMap`]s. The keys live in a
//! `BTreeMap` — iteration in `(addr, len)` order feeds artefacts — and
//! beside it the map keeps how many keys it holds of each mask length
//! (`/0`..=`/32`). A lookup is one exact-key probe per *populated* length
//! under the ceiling, longest first: an address has exactly one candidate
//! key per length, and the tables this repo builds populate one to three
//! lengths (/16s, a steered /18 or a forged /20, an anycast /24), so a
//! lookup is one to three `O(log n)` probes. On a table with thirteen
//! populated lengths a
//! path-compressed trie reads five to six times faster (DESIGN.md §14 has
//! both measurements); no caller builds one.
//!
//! Invariants: `lens[l]` is the number of keys of length `l`, and bit `l`
//! of `populated` is set iff `lens[l] > 0` — so a lookup visits the
//! populated lengths under its ceiling by their set bits, longest first,
//! instead of testing all 33 counts. The map is the only writer of its own
//! census — `insert` and `remove` are the only methods that can add or drop
//! a key — so nothing resets it and nothing else can put it out of step.

use std::collections::BTreeMap;

use crate::prefix::Prefix;

/// A map from [`Prefix`] to `V` with exact and longest-prefix lookups,
/// iterating in `(addr, len)` order.
#[derive(Debug, Clone)]
pub struct LpmMap<V> {
    map: BTreeMap<Prefix, V>,
    /// Keys per mask length; see the module docs.
    lens: [u32; 33],
    /// The lengths with at least one key, as bits; see the module docs.
    populated: u64,
}

impl<V> Default for LpmMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LpmMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            map: BTreeMap::new(),
            lens: [0; 33],
            populated: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let prev = self.map.insert(prefix, value);
        if prev.is_none() {
            self.lens[usize::from(prefix.len())] += 1;
            self.populated |= 1 << prefix.len();
        }
        self.debug_check_census();
        prev
    }

    /// Removes the value at exactly `prefix`.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let prev = self.map.remove(prefix);
        if prev.is_some() {
            let len = usize::from(prefix.len());
            self.lens[len] -= 1;
            if self.lens[len] == 0 {
                self.populated &= !(1 << len);
            }
        }
        self.debug_check_census();
        prev
    }

    /// Debug builds: the census accounts for every key, and the bits for
    /// every populated length.
    fn debug_check_census(&self) {
        debug_assert_eq!(
            self.lens.iter().map(|&n| n as usize).sum::<usize>(),
            self.map.len(),
            "per-length census out of step with the map"
        );
        debug_assert!(
            (0..33).all(|l| (self.lens[l] > 0) == (self.populated >> l & 1 == 1)),
            "populated-length bits out of step with the census"
        );
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        self.map.get(prefix)
    }

    /// Exact-match mutable lookup (the value only: keys move through
    /// [`LpmMap::insert`] / [`LpmMap::remove`]).
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        self.map.get_mut(prefix)
    }

    /// All stored prefixes in `(addr, len)` order.
    pub fn keys(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.map.keys().copied()
    }

    /// All `(prefix, value)` pairs in `(addr, len)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        self.map.iter().map(|(p, v)| (*p, v))
    }

    /// Longest-prefix match for a host address: the most specific stored
    /// prefix containing `ip`, with its value. A stored `/0` matches every
    /// address but is shadowed by any more-specific hit.
    pub fn lookup(&self, ip: u32) -> Option<(Prefix, &V)> {
        self.lookup_up_to(ip, None)
    }

    /// Longest-prefix match restricted to prefixes *shorter than*
    /// `max_len_exclusive` (`None` = no ceiling).
    pub fn lookup_up_to(&self, ip: u32, max_len_exclusive: Option<u8>) -> Option<(Prefix, &V)> {
        self.matches_up_to(ip, max_len_exclusive).next()
    }

    /// Every stored prefix containing `ip` and shorter than
    /// `max_len_exclusive` (`None` = no ceiling), longest first, with its
    /// value: the match and every fallback under it, for a caller whose
    /// longest match is the first one passing a test of its own.
    pub(crate) fn matches_up_to(
        &self,
        ip: u32,
        max_len_exclusive: Option<u8>,
    ) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        // One exact-key probe per populated mask length under the ceiling,
        // longest first: `ip` has exactly one candidate key per length.
        let ceiling = max_len_exclusive.map_or(33, |m| m.min(33));
        let mut lens = self.populated & ((1 << ceiling) - 1);
        std::iter::from_fn(move || {
            while lens != 0 {
                let len = 63 - lens.leading_zeros();
                lens ^= 1 << len;
                let key = Prefix::new(ip, u8::try_from(len).expect("a length under 33"));
                if let Some((p, v)) = self.map.get_key_value(&key) {
                    return Some((*p, v));
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = LpmMap::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        *t.get_mut(&p("10.0.0.0/8")).unwrap() = 3;
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(3));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn census_counts_keys_not_writes() {
        fn recount(t: &LpmMap<u32>) -> [u32; 33] {
            let mut lens = [0; 33];
            for p in t.keys() {
                lens[usize::from(p.len())] += 1;
            }
            lens
        }
        let mut t = LpmMap::new();
        for (i, pre) in ["10.0.0.0/8", "11.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]
            .into_iter()
            .enumerate()
        {
            t.insert(p(pre), i as u32);
        }
        assert_eq!(t.lens, recount(&t));
        assert_eq!(t.lens[8], 2);
        // Overwriting a key is not a new key; a remove that misses is not
        // a removal.
        t.insert(p("10.0.0.0/8"), 9);
        t.remove(&p("12.0.0.0/8"));
        assert_eq!(t.lens, recount(&t));
        t.remove(&p("10.1.0.0/16"));
        assert_eq!(t.lens, recount(&t));
        assert_eq!(t.lens[16], 0);
        assert_eq!(t.lookup(0x0a010001).map(|(m, _)| m), Some(p("10.0.0.0/8")));
    }

    #[test]
    fn longest_prefix_match_and_ceiling() {
        let mut t = LpmMap::new();
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        t.insert(p("10.1.2.0/24"), "twentyfour");
        let hit = |ip| t.lookup(ip).map(|(pre, v)| (pre, *v));
        assert_eq!(hit(0x0a010203), Some((p("10.1.2.0/24"), "twentyfour")));
        assert_eq!(hit(0x0a010303), Some((p("10.1.0.0/16"), "sixteen")));
        assert_eq!(hit(0x0aff0000), Some((p("10.0.0.0/8"), "eight")));
        assert_eq!(hit(0x0b000000), None);
        // The ceiling is exclusive: under /24 the /16 answers, under /16
        // the /8, under /8 nothing.
        let under = |c| t.lookup_up_to(0x0a010203, Some(c)).map(|(pre, _)| pre);
        assert_eq!(under(33), Some(p("10.1.2.0/24")));
        assert_eq!(under(24), Some(p("10.1.0.0/16")));
        assert_eq!(under(16), Some(p("10.0.0.0/8")));
        assert_eq!(under(8), None);
        assert_eq!(under(0), None);
    }

    #[test]
    fn default_route_shadowed_then_reexposed() {
        // /0 catches everything, loses to any more-specific and wins again
        // once the more-specific is removed.
        let mut t = LpmMap::new();
        t.insert(Prefix::DEFAULT, "default");
        t.insert(p("10.0.0.0/8"), "ten");
        t.insert(p("10.1.0.0/16"), "ten-one");
        assert_eq!(t.lookup(0xdeadbeef).unwrap().1, &"default");
        assert_eq!(t.lookup(0x0a010001).unwrap().1, &"ten-one");
        t.remove(&p("10.1.0.0/16"));
        assert_eq!(t.lookup(0x0a010001).unwrap().1, &"ten");
        t.remove(&p("10.0.0.0/8"));
        assert_eq!(t.lookup(0x0a010001).unwrap(), (Prefix::DEFAULT, &"default"));
    }

    #[test]
    fn slash32() {
        let mut t = LpmMap::new();
        t.insert(p("1.2.3.4/32"), "host");
        assert_eq!(t.lookup(0x01020304).unwrap().1, &"host");
        assert_eq!(t.lookup(0x01020305), None);
        // A /32 differing in only the last bit is a different key.
        t.insert(p("1.2.3.5/32"), "other");
        assert_eq!(t.lookup(0x01020305).unwrap().1, &"other");
        assert_eq!(t.lookup(0x01020304).unwrap().1, &"host");
    }
}
