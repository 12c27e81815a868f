//! The first-order radio energy model (Heinzelman et al.).

/// Radio energy coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Electronics energy per bit (J/bit) for both TX and RX chains.
    pub e_elec: f64,
    /// Amplifier energy per bit per m² (J/bit/m²), free-space model.
    pub e_amp: f64,
    /// Packet size in bits.
    pub packet_bits: f64,
    /// Energy to aggregate one packet's worth of data (J/packet).
    pub e_aggregate: f64,
}

impl Default for RadioModel {
    fn default() -> Self {
        RadioModel {
            e_elec: 50e-9,
            e_amp: 100e-12,
            packet_bits: 2_000.0,
            e_aggregate: 5e-9 * 2_000.0,
        }
    }
}

impl RadioModel {
    /// Energy to transmit one packet over distance `d` metres.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative.
    pub fn tx(&self, d: f64) -> f64 {
        assert!(d >= 0.0, "distance must be non-negative");
        self.e_elec * self.packet_bits + self.e_amp * self.packet_bits * d * d
    }

    /// Energy to receive one packet.
    pub fn rx(&self) -> f64 {
        self.e_elec * self.packet_bits
    }

    /// Energy to fuse one incoming packet into an aggregate.
    pub fn aggregate(&self) -> f64 {
        self.e_aggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_grows_quadratically() {
        let r = RadioModel::default();
        let near = r.tx(10.0);
        let far = r.tx(100.0);
        assert!(far > near);
        let amp_near = near - r.rx();
        let amp_far = far - r.rx();
        assert!((amp_far / amp_near - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rx_independent_of_distance() {
        let r = RadioModel::default();
        assert_eq!(r.rx(), r.e_elec * r.packet_bits);
    }
}
