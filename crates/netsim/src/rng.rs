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

    /// The hash of the empty label under this tree: write a label into
    /// it and [`LabelHash::finish`] gives that label's seed.
    pub fn label_hash(&self) -> LabelHash {
        LabelHash(FNV_OFFSET ^ self.master)
    }

    /// Derives the 64-bit seed for a labelled stream (FNV-1a over the label,
    /// mixed with the master via splitmix64 finalisation).
    pub fn seed_for(&self, label: &str) -> u64 {
        let mut h = self.label_hash();
        h.bytes(label.as_bytes());
        h.finish()
    }

    /// Like [`RngTree::seed_for`], but hashes a `format_args!` label as it
    /// renders instead of requiring a materialised `String` — the per-probe
    /// hot paths derive thousands of flow seeds and must not allocate one
    /// label each. Produces the identical seed to
    /// `seed_for(&label.to_string())`.
    pub fn seed_for_args(&self, label: fmt::Arguments<'_>) -> u64 {
        let mut h = self.label_hash();
        h.args(label);
        h.finish()
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

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// A stream label's seed in the making: the FNV-1a state over the bytes
/// written so far. Being `Copy`, a state is a resumable prefix — hash
/// `flow:{f}:hop` once, copy it per hop and write only what differs — and
/// every way of writing the same bytes finishes to the same seed, equal to
/// [`RngTree::seed_for`] over their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelHash(u64);

impl LabelHash {
    /// Appends raw label bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Appends `n` in decimal, the bytes `{n}` formats, without `fmt`.
    pub fn uint(&mut self, n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n;
        loop {
            at -= 1;
            // `rest % 10` is a single digit.
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.bytes(&digits[at..]);
    }

    /// Appends the text `args` renders.
    pub fn args(&mut self, args: fmt::Arguments<'_>) {
        fmt::write(self, args).expect("label formatting failed");
    }

    /// The seed of the label written so far.
    pub fn finish(self) -> u64 {
        splitmix64(self.0)
    }
}

impl fmt::Write for LabelHash {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
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
    fn resumed_hash_matches_one_shot_seed_at_every_split() {
        let t = RngTree::new(77);
        for label in [
            "",
            "x",
            "flow:probe:3:hop12:ix:AS7:R81@Ashburn",
            "blackout:bb:AS1:a->b",
        ] {
            let whole = t.seed_for(label);
            for split in 0..=label.len() {
                let (head, tail) = label.as_bytes().split_at(split);
                let mut prefix = t.label_hash();
                prefix.bytes(head);
                // A copy resumes the prefix; the original is left as it was.
                let mut resumed = prefix;
                resumed.bytes(tail);
                assert_eq!(resumed.finish(), whole, "{label:?} split at {split}");
                let mut again = prefix;
                again.args(format_args!("{}", &label[split..]));
                assert_eq!(again.finish(), whole, "{label:?} split at {split}");
            }
        }
    }

    #[test]
    fn uint_writes_the_decimal_text() {
        let t = RngTree::new(5);
        for n in [0, 7, 10, 99, 1000, 65_535, u64::from(u32::MAX), u64::MAX] {
            let mut h = t.label_hash();
            h.bytes(b"hop");
            h.uint(n);
            assert_eq!(h.finish(), t.seed_for(&format!("hop{n}")), "{n}");
        }
    }

    #[test]
    fn subtree_isolated() {
        let t = RngTree::new(9);
        let sub = t.subtree("media");
        assert_ne!(sub.seed_for("x"), t.seed_for("x"));
        assert_eq!(sub.seed_for("x"), t.subtree("media").seed_for("x"));
    }
}
