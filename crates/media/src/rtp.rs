//! The RFC 3550 interarrival-jitter estimator the paper's clients report.

use vns_netsim::SimTime;

/// RFC 3550 §6.4.1 interarrival jitter, in milliseconds.
///
/// `J(i) = J(i-1) + (|D(i-1,i)| - J(i-1)) / 16`, where `D` compares the
/// spacing of arrivals against the spacing of the media timestamps.
#[derive(Debug, Clone, Default)]
pub struct JitterEstimator {
    jitter_ms: f64,
    max_ms: f64,
    last_transit_ns: Option<u64>,
    samples: u64,
}

impl JitterEstimator {
    /// Fresh estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one received packet (its send and arrival instants).
    pub fn on_packet(&mut self, sent: SimTime, arrived: SimTime) {
        self.on_transit_ns((arrived - sent).as_nanos());
    }

    /// Feeds one packet by its transit time directly, in nanoseconds.
    ///
    /// Algebraically the same estimator as [`JitterEstimator::on_packet`]:
    /// `D(i-1,i) = (a_i - a_{i-1}) - (s_i - s_{i-1}) = t_i - t_{i-1}` with
    /// `t = a - s` the transit. Taking the difference exactly in integer
    /// ns before the single float conversion is both cheaper and better
    /// conditioned than differencing two ms floats.
    pub fn on_transit_ns(&mut self, t_ns: u64) {
        if let Some(prev) = self.last_transit_ns {
            let d = (t_ns as i64 - prev as i64).unsigned_abs() as f64 * 1e-6;
            self.jitter_ms += (d - self.jitter_ms) / 16.0;
            self.max_ms = self.max_ms.max(self.jitter_ms);
            self.samples += 1;
        }
        self.last_transit_ns = Some(t_ns);
    }

    /// Current smoothed jitter, ms.
    pub fn jitter_ms(&self) -> f64 {
        self.jitter_ms
    }

    /// Maximum the smoothed estimate reached, ms (what a session reports).
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Number of interarrival samples folded.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vns_netsim::Dur;

    #[test]
    fn constant_delay_means_zero_jitter() {
        let mut j = JitterEstimator::new();
        for i in 0..100u64 {
            let sent = SimTime::EPOCH + Dur::from_millis(i * 33);
            let arrived = sent + Dur::from_millis(80);
            j.on_packet(sent, arrived);
        }
        assert_eq!(j.jitter_ms(), 0.0);
        assert_eq!(j.max_ms(), 0.0);
        assert_eq!(j.samples(), 99);
    }

    #[test]
    fn variable_delay_raises_jitter() {
        let mut j = JitterEstimator::new();
        for i in 0..200u64 {
            let sent = SimTime::EPOCH + Dur::from_millis(i * 33);
            let delay = if i % 2 == 0 { 80 } else { 88 };
            j.on_packet(sent, sent + Dur::from_millis(delay));
        }
        // Alternating ±8 ms converges towards 8 ms (RFC smoothing keeps it
        // just below).
        assert!(
            j.jitter_ms() > 5.0 && j.jitter_ms() < 8.5,
            "{}",
            j.jitter_ms()
        );
    }

    #[test]
    fn estimator_ignores_order_of_magnitude_of_base_delay() {
        let run = |base: u64| {
            let mut j = JitterEstimator::new();
            for i in 0..100u64 {
                let sent = SimTime::EPOCH + Dur::from_millis(i * 33);
                j.on_packet(sent, sent + Dur::from_millis(base + (i % 3)));
            }
            j.jitter_ms()
        };
        assert!((run(10) - run(300)).abs() < 1e-9);
    }
}
