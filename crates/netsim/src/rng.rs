//! Deterministic random-number streams.
//!
//! Reproducibility rule for the whole workspace: a single master seed, fanned
//! out into named per-component streams. Adding a new randomised component
//! must not perturb the draws of existing ones, so each stream's seed is a
//! hash of `(master_seed, label)` rather than a draw from a shared RNG.

use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Fans a master seed out into independent named streams.
#[derive(Debug, Clone, Copy)]
pub struct RngTree {
    master: u64,
}

impl RngTree {
    /// Creates a tree rooted at `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Self {
            master: master_seed,
        }
    }

    /// Derives the 64-bit seed for a labelled stream (FNV-1a over the label,
    /// mixed with the master via splitmix64 finalisation).
    pub fn seed_for(&self, label: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.master;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        splitmix64(h)
    }

    /// Like [`RngTree::seed_for`], but hashes a `format_args!` label as it
    /// renders instead of requiring a materialised `String` — the per-probe
    /// hot paths derive thousands of flow seeds and must not allocate one
    /// label each. Produces the identical seed to
    /// `seed_for(&label.to_string())`.
    pub fn seed_for_args(&self, label: fmt::Arguments<'_>) -> u64 {
        struct Fnv(u64);
        impl fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                for b in s.as_bytes() {
                    self.0 ^= u64::from(*b);
                    self.0 = self.0.wrapping_mul(0x100000001b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf29ce484222325 ^ self.master);
        fmt::write(&mut h, label).expect("label formatting failed");
        splitmix64(h.0)
    }

    /// A fresh RNG for a labelled stream.
    pub fn stream(&self, label: &str) -> SmallRng {
        SmallRng::seed_from_u64(self.seed_for(label))
    }

    /// A fresh RNG for a `format_args!` label (see [`RngTree::seed_for_args`]).
    pub fn stream_args(&self, label: fmt::Arguments<'_>) -> SmallRng {
        SmallRng::seed_from_u64(self.seed_for_args(label))
    }

    /// A fresh RNG for a labelled, indexed stream (e.g. per-link, per-host).
    pub fn stream_indexed(&self, label: &str, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(splitmix64(
            self.seed_for(label) ^ index.wrapping_mul(0x9e3779b97f4a7c15),
        ))
    }

    /// A child tree, for components that themselves fan out.
    pub fn subtree(&self, label: &str) -> RngTree {
        RngTree {
            master: self.seed_for(label),
        }
    }
}

/// splitmix64 finalizer — cheap avalanche so close labels/indices yield
/// unrelated seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let t = RngTree::new(42);
        let a: Vec<u32> = t
            .stream("bgp")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        let b: Vec<u32> = t
            .stream("bgp")
            .sample_iter(rand::distributions::Standard)
            .take(8)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let t = RngTree::new(42);
        assert_ne!(t.seed_for("bgp"), t.seed_for("geo"));
        assert_ne!(t.seed_for("link-1"), t.seed_for("link-2"));
    }

    #[test]
    fn different_masters_differ() {
        assert_ne!(RngTree::new(1).seed_for("x"), RngTree::new(2).seed_for("x"));
    }

    #[test]
    fn indexed_streams_differ() {
        let t = RngTree::new(7);
        let s0 = t.seed_for("host");
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            let mut r = t.stream_indexed("host", i);
            seen.insert(r.gen::<u64>());
        }
        assert_eq!(seen.len(), 1000, "indexed streams must not collide");
        let _ = s0;
    }

    #[test]
    fn args_seed_matches_string_seed() {
        let t = RngTree::new(123);
        for (a, b, c) in [(0u32, "x", true), (17, "hop:AS1", false), (9999, "", true)] {
            let label = format!("flow:{a}:{b}:{c}");
            assert_eq!(
                t.seed_for(&label),
                t.seed_for_args(format_args!("flow:{a}:{b}:{c}")),
                "label {label}"
            );
        }
        // Multi-fragment rendering (padding, positional args) hashes the
        // rendered bytes, not the fragments.
        assert_eq!(
            t.seed_for("n=007"),
            t.seed_for_args(format_args!("n={:03}", 7))
        );
    }

    #[test]
    fn subtree_isolated() {
        let t = RngTree::new(9);
        let sub = t.subtree("media");
        assert_ne!(sub.seed_for("x"), t.seed_for("x"));
        assert_eq!(sub.seed_for("x"), t.subtree("media").seed_for("x"));
    }
}
