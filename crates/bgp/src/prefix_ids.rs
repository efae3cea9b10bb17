//! Dense prefix ids: one table per network that names every prefix it has
//! seen with a small integer.
//!
//! Convergence addresses its state by these ids: a message in flight
//! between the speakers of a [`crate::BgpNet`] carries a [`PrefixId`], and a
//! speaker keeps its state for prefix `id` at `slots[id]`. The table maps
//! both ways — `prefix(id)` is an indexed load, `id(prefix)` a probe of the
//! one prefix-ordered [`LpmMap`] — and is the source of every ordered
//! reader's `(addr, len)` order and of every Loc-RIB longest match.
//!
//! Ids are handed out on first sight and never reused or retired, so the
//! table only grows, and a table extended by a few prefixes agrees with the
//! one it was copied from on every id they share.
//!
//! Outside the crate an id is opaque: readers hand it out beside the prefix
//! it names, and the readers that take a prefix take its id too
//! ([`PrefixKey`]), so a walk that already holds the id indexes instead of
//! probing the table again. A [`Covering`] list carries the ids of every
//! prefix containing one address, so a longest match over many speakers
//! probes the table once.

use crate::lpm::LpmMap;
use crate::prefix::Prefix;

/// A prefix's dense id in its network's prefix table.
///
/// Valid on every speaker of the one [`crate::BgpNet`] whose readers
/// handed it out (on a standalone [`crate::Speaker`], on that speaker): ids
/// are net-wide and never reused, so an id names the same prefix at every
/// speaker of the network, including speakers that hold no route for it. An
/// id from another network names whatever that network named first at the
/// same position. Ordered by first sight, not by prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PrefixId(u32);

/// A prefix as the by-prefix readers of [`crate::Speaker`] accept it: by
/// value (`&Prefix`, one probe of the prefix table) or by its [`PrefixId`]
/// (an index). Implemented for those two only.
pub trait PrefixKey: Copy + sealed::Sealed {}

impl PrefixKey for &Prefix {}
impl PrefixKey for PrefixId {}

mod sealed {
    use super::{Prefix, PrefixId};

    /// Keeps [`super::PrefixKey`] to the two keys, and resolves them.
    pub trait Sealed {
        /// The id this key names: itself, or what `id_of` finds for its
        /// prefix.
        fn id_with(self, id_of: impl FnOnce(&Prefix) -> Option<PrefixId>) -> Option<PrefixId>;
    }

    impl Sealed for &Prefix {
        fn id_with(self, id_of: impl FnOnce(&Prefix) -> Option<PrefixId>) -> Option<PrefixId> {
            id_of(self)
        }
    }

    impl Sealed for PrefixId {
        fn id_with(self, _: impl FnOnce(&Prefix) -> Option<PrefixId>) -> Option<PrefixId> {
            Some(self)
        }
    }
}

impl PrefixId {
    /// The id as an index into per-prefix storage.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The id stored at `index`.
    pub(crate) fn from_index(index: usize) -> Self {
        Self(u32::try_from(index).expect("fewer than 2^32 prefixes"))
    }
}

/// Every prefix a network has seen, by dense id and in `(addr, len)` order.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrefixTable {
    /// `prefixes[id]` is the prefix named `id`.
    prefixes: Vec<Prefix>,
    /// The same pairs, keyed by prefix.
    ids: LpmMap<PrefixId>,
}

impl PrefixTable {
    /// Number of prefixes named.
    pub(crate) fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True when no prefix is named.
    pub(crate) fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// The prefix named `id`.
    pub(crate) fn prefix(&self, id: PrefixId) -> Prefix {
        self.prefixes[id.index()]
    }

    /// The id of `prefix`, if it has one.
    pub(crate) fn id(&self, prefix: &Prefix) -> Option<PrefixId> {
        self.ids.get(prefix).copied()
    }

    /// The id `key` names: itself, or the id of its prefix if it has one.
    pub(crate) fn id_of(&self, key: impl PrefixKey) -> Option<PrefixId> {
        key.id_with(|prefix| self.id(prefix))
    }

    /// The id of `prefix`, assigning the next one on first sight.
    pub(crate) fn intern(&mut self, prefix: Prefix) -> PrefixId {
        if let Some(id) = self.id(&prefix) {
            return id;
        }
        let id = PrefixId::from_index(self.prefixes.len());
        self.prefixes.push(prefix);
        self.ids.insert(prefix, id);
        id
    }

    /// Every `(prefix, id)` in `(addr, len)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Prefix, PrefixId)> + '_ {
        self.ids.iter().map(|(p, id)| (p, *id))
    }

    /// Every named prefix containing `ip` and shorter than the ceiling,
    /// longest first (see [`LpmMap::matches_up_to`]).
    pub(crate) fn matches_up_to(
        &self,
        ip: u32,
        max_len_exclusive: Option<u8>,
    ) -> impl Iterator<Item = (Prefix, PrefixId)> + '_ {
        self.ids
            .matches_up_to(ip, max_len_exclusive)
            .map(|(p, id)| (p, *id))
    }

    /// Whether `self` names every prefix `base` names, by the same ids.
    pub(crate) fn extends(&self, base: &PrefixTable) -> bool {
        self.prefixes.starts_with(&base.prefixes)
    }

    /// Every named prefix containing `ip`, longest first.
    pub(crate) fn covering(&self, ip: u32) -> Covering {
        let mut covering = Covering {
            len: 0,
            entries: [(Prefix::DEFAULT, PrefixId(0)); 33],
        };
        for entry in self.matches_up_to(ip, None) {
            covering.entries[covering.len] = entry;
            covering.len += 1;
        }
        covering
    }
}

/// Every prefix a network names that contains one address, longest first,
/// with its id: what a longest match for that address at any speaker of the
/// network chooses among (see [`crate::BgpNet::covering`] and
/// [`crate::Speaker::lookup_in`]).
///
/// An address has at most one covering prefix per mask length, so the list
/// holds at most 33 entries and lives inline: building one allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct Covering {
    /// Entries in use, at the front of `entries`.
    len: usize,
    entries: [(Prefix, PrefixId); 33],
}

impl Covering {
    /// The entries shorter than `max_len_exclusive` (`None` = all), longest
    /// first.
    pub(crate) fn up_to(
        &self,
        max_len_exclusive: Option<u8>,
    ) -> impl Iterator<Item = (Prefix, PrefixId)> + '_ {
        let ceiling = max_len_exclusive.unwrap_or(u8::MAX);
        self.entries[..self.len]
            .iter()
            .copied()
            .skip_while(move |(p, _)| p.len() >= ceiling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn ids_are_first_seen_and_order_is_by_prefix() {
        let mut t = PrefixTable::default();
        let a = t.intern(p("10.1.0.0/16"));
        let b = t.intern(p("10.0.0.0/8"));
        assert_eq!(
            t.intern(p("10.1.0.0/16")),
            a,
            "a second sight is the same id"
        );
        assert_eq!((a.index(), b.index(), t.len()), (0, 1, 2));
        assert_eq!(t.prefix(b), p("10.0.0.0/8"));
        assert_eq!(t.id(&p("11.0.0.0/8")), None);
        let order: Vec<_> = t.iter().collect();
        assert_eq!(order, vec![(p("10.0.0.0/8"), b), (p("10.1.0.0/16"), a)]);
        let longest_first: Vec<_> = t.matches_up_to(0x0a01_0203, None).collect();
        assert_eq!(
            longest_first,
            vec![(p("10.1.0.0/16"), a), (p("10.0.0.0/8"), b)]
        );
        // The covering list is the same matches, cut by an exclusive
        // ceiling as `matches_up_to` cuts them.
        let covering = t.covering(0x0a01_0203);
        for ceiling in [None, Some(17), Some(16), Some(9), Some(8), Some(0)] {
            assert_eq!(
                covering.up_to(ceiling).collect::<Vec<_>>(),
                t.matches_up_to(0x0a01_0203, ceiling).collect::<Vec<_>>(),
                "ceiling {ceiling:?}"
            );
        }
        assert_eq!(t.covering(0x0b00_0000).up_to(None).count(), 0);
        let mut grown = t.clone();
        grown.intern(p("12.0.0.0/8"));
        assert!(grown.extends(&t) && !t.extends(&grown));
    }
}
