//! XOR-parity forward error correction.
//!
//! The paper's related-work section notes that "random losses can be
//! mitigated by employing forward error correction (FEC), but FEC performs
//! poorly when loss is very high or bursty" — the ablation bench
//! demonstrates exactly that crossover using this module.
//!
//! Model: every group of `k` media packets is followed by one XOR parity
//! packet. A group survives if at most one of its `k+1` packets (data or
//! parity) is lost; two or more losses in a group are unrecoverable. This
//! is the classic single-parity interleaved scheme real conferencing
//! systems ship.

/// FEC parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FecConfig {
    /// Media packets per parity group.
    pub k: usize,
}

impl FecConfig {
    /// A common 1-parity-per-10 configuration (10% overhead).
    pub const K10: FecConfig = FecConfig { k: 10 };

    /// Applies FEC recovery to a per-packet delivery vector (`true` =
    /// arrived). `parity_arrived[g]` says whether group `g`'s parity packet
    /// survived (callers sample it through the same channel). Returns the
    /// post-recovery delivery vector.
    pub fn recover(&self, delivered: &[bool], parity_arrived: &[bool]) -> Vec<bool> {
        let mut out = delivered.to_vec();
        for (g, chunk) in delivered.chunks(self.k).enumerate() {
            let lost: Vec<usize> = chunk
                .iter()
                .enumerate()
                .filter(|(_, d)| !**d)
                .map(|(i, _)| i)
                .collect();
            let parity_ok = parity_arrived.get(g).copied().unwrap_or(false);
            if lost.len() == 1 && parity_ok {
                out[g * self.k + lost[0]] = true;
            }
        }
        out
    }

    /// Residual loss fraction after recovery.
    pub fn residual_loss(&self, delivered: &[bool], parity_arrived: &[bool]) -> f64 {
        if delivered.is_empty() {
            return 0.0;
        }
        let recovered = self.recover(delivered, parity_arrived);
        recovered.iter().filter(|d| !**d).count() as f64 / recovered.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_loss_per_group_recovered() {
        let cfg = FecConfig { k: 4 };
        let delivered = vec![true, false, true, true, true, true, true, true];
        let parity = vec![true, true];
        let out = cfg.recover(&delivered, &parity);
        assert!(out.iter().all(|d| *d));
    }

    #[test]
    fn double_loss_unrecoverable() {
        let cfg = FecConfig { k: 4 };
        let delivered = vec![false, false, true, true];
        let out = cfg.recover(&delivered, &[true]);
        assert_eq!(out, vec![false, false, true, true]);
    }

    #[test]
    fn lost_parity_blocks_recovery() {
        let cfg = FecConfig { k: 4 };
        let delivered = vec![false, true, true, true];
        let out = cfg.recover(&delivered, &[false]);
        assert!(!out[0]);
    }

    #[test]
    fn residual_loss_math() {
        let cfg = FecConfig { k: 2 };
        // Groups: [ok, lost] recoverable, [lost, lost] not.
        let delivered = vec![true, false, false, false];
        let r = cfg.residual_loss(&delivered, &[true, true]);
        assert!((r - 0.5).abs() < 1e-12);
        assert_eq!(cfg.residual_loss(&[], &[]), 0.0);
    }

    #[test]
    fn fec_good_for_random_bad_for_bursty() {
        // Same overall loss count: scattered vs one burst.
        let cfg = FecConfig::K10;
        let n = 100;
        let mut random = vec![true; n];
        for i in [5, 25, 45, 65, 85] {
            random[i] = false;
        }
        let mut bursty = vec![true; n];
        for b in &mut bursty[40..45] {
            *b = false;
        }
        let parity = vec![true; n / cfg.k];
        let r_random = cfg.residual_loss(&random, &parity);
        let r_bursty = cfg.residual_loss(&bursty, &parity);
        assert_eq!(r_random, 0.0, "isolated losses all recovered");
        assert!(r_bursty > 0.03, "burst survives FEC: {r_bursty}");
    }
}
