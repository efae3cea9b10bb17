//! 64-bit artefact digests.
//!
//! Each workload renders its result — session reports, telemetry
//! `Display`, RIB-derived tables, per-event message counts — straight into
//! a [`Digest`] through `fmt::Write`, so a multi-megabyte artefact is
//! hashed as it renders and never materialised. FNV-1a: the digest guards
//! against accidental divergence between reps, runs and commits, not
//! against an adversary.

use std::fmt;

/// Streaming FNV-1a 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// The empty digest (FNV offset basis).
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn matches_reference_vectors_and_streams() {
        let mut d = Digest::new();
        write!(d, "a").expect("infallible");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Digest::new();
        write!(split, "foo").expect("infallible");
        write!(split, "bar").expect("infallible");
        assert_eq!(split.value(), 0x8594_4171_f739_67e8);
    }
}
