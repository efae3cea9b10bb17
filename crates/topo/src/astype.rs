//! AS classification.
//!
//! Sec 5.2 of the paper groups last-mile hosts by the four AS types of
//! Dhamdhere & Dovrolis (IMC'08), and Table 1 / Fig 12 report loss per
//! type. The generator assigns every synthetic AS one of these types, which
//! then selects its size, connectivity and last-mile loss profile.

use std::fmt;

/// The four AS classes used throughout the paper's Sec 5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsType {
    /// Large Transit Provider — global Tier-1 style network.
    Ltp,
    /// Small Transit Provider — regional transit.
    Stp,
    /// Content / Access / Hosting Provider — serves residential users and
    /// content; the congested edge in the paper's findings.
    Cahp,
    /// Enterprise Customer — stub business network.
    Ec,
}

impl AsType {
    /// All types in the order the paper's Table 1 reports them.
    pub const ALL: [AsType; 4] = [AsType::Ltp, AsType::Stp, AsType::Cahp, AsType::Ec];

    /// Legend code.
    pub fn code(&self) -> &'static str {
        match self {
            AsType::Ltp => "LTP",
            AsType::Stp => "STP",
            AsType::Cahp => "CAHP",
            AsType::Ec => "EC",
        }
    }
}

impl fmt::Display for AsType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes() {
        assert_eq!(AsType::Ltp.code(), "LTP");
        assert_eq!(AsType::ALL.len(), 4);
    }
}
