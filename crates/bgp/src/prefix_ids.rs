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

use crate::lpm::LpmMap;
use crate::prefix::Prefix;

/// A prefix's index in its network's [`PrefixTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PrefixId(u32);

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
        let mut grown = t.clone();
        grown.intern(p("12.0.0.0/8"));
        assert!(grown.extends(&t) && !t.extends(&grown));
    }
}
