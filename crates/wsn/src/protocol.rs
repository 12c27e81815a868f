//! Data-collection protocols.

/// How sensed data reaches the sink each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Protocol {
    /// Every node transmits straight to the sink — the naive baseline
    /// ("classical supercomputer approach" of shipping all raw data).
    Direct,
    /// Min-hop tree forwarding over links no longer than `radio_range`;
    /// with `aggregate`, each relay fuses its subtree into one packet.
    Tree {
        /// Maximum link length in metres.
        radio_range: f64,
        /// In-network aggregation on/off.
        aggregate: bool,
    },
    /// LEACH-style clustering: nodes elect themselves cluster head with
    /// probability `p` (rotating), members send to the nearest head, heads
    /// forward (optionally aggregated) to the sink.
    Cluster {
        /// Cluster-head probability per round.
        p: f64,
        /// In-network aggregation at cluster heads on/off.
        aggregate: bool,
    },
}

impl Protocol {
    /// Tree protocol with the given radio range.
    ///
    /// # Panics
    ///
    /// Panics where [`Protocol::validate`] returns an error.
    pub fn tree(radio_range: f64, aggregate: bool) -> Protocol {
        let protocol = Protocol::Tree {
            radio_range,
            aggregate,
        };
        protocol.validate().unwrap_or_else(|e| panic!("{e}"));
        protocol
    }

    /// Clustering protocol with head probability `p`.
    ///
    /// # Panics
    ///
    /// Panics where [`Protocol::validate`] returns an error.
    pub fn cluster(p: f64, aggregate: bool) -> Protocol {
        let protocol = Protocol::Cluster { p, aggregate };
        protocol.validate().unwrap_or_else(|e| panic!("{e}"));
        protocol
    }

    /// Checks the protocol's parameters: a tree's radio range must be
    /// finite and positive, and a cluster-head probability must be in
    /// `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the radio range or the head probability
    /// otherwise.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Protocol::Tree { radio_range, .. }
                if !radio_range.is_finite() || radio_range <= 0.0 =>
            {
                Err(format!(
                    "tree radio_range {radio_range} is not finite and positive"
                ))
            }
            Protocol::Cluster { p, .. } if p.is_nan() || p <= 0.0 || p > 1.0 => {
                Err(format!("cluster head probability {p} is not in (0, 1]"))
            }
            _ => Ok(()),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Protocol::Direct => "direct".to_owned(),
            Protocol::Tree { aggregate, .. } => {
                format!("tree{}", if *aggregate { "+agg" } else { "" })
            }
            Protocol::Cluster { aggregate, .. } => {
                format!("cluster{}", if *aggregate { "+agg" } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Protocol::Direct.label(), "direct");
        assert_eq!(Protocol::tree(20.0, true).label(), "tree+agg");
        assert_eq!(Protocol::cluster(0.05, false).label(), "cluster");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        let _ = Protocol::cluster(0.0, true);
    }

    #[test]
    fn tree_radio_range_must_be_finite_and_positive() {
        for range in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let tree = Protocol::Tree {
                radio_range: range,
                aggregate: true,
            };
            let error = tree.validate().expect_err("rejected");
            assert!(error.contains("radio_range"), "{error}");
        }
        for range in [f64::MIN_POSITIVE, 45.0, f64::MAX] {
            assert_eq!(Protocol::tree(range, false).validate(), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "radio_range")]
    fn bad_radio_range_rejected() {
        let _ = Protocol::tree(f64::NAN, true);
    }
}
