//! Core-to-core communication graphs.

use rand::Rng;

/// One directed traffic flow between cores, with a relative bandwidth
/// demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source core index.
    pub src: usize,
    /// Destination core index.
    pub dst: usize,
    /// Relative bandwidth demand (arbitrary units; the simulator scales
    /// them into packets/cycle).
    pub rate: f64,
}

/// An application's communication graph: `cores` endpoints and weighted
/// directed flows between them.
///
/// ```
/// use mns_noc::graph::CommGraph;
/// let g = CommGraph::pipeline(5, 2.0);
/// assert_eq!(g.cores(), 5);
/// assert_eq!(g.flows().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommGraph {
    cores: usize,
    flows: Vec<Flow>,
}

impl CommGraph {
    /// Builds a graph from explicit flows.
    ///
    /// # Panics
    ///
    /// Panics where [`CommGraph::try_new`] returns an error.
    pub fn new(cores: usize, flows: Vec<Flow>) -> Self {
        CommGraph::try_new(cores, flows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a graph from explicit flows, checking each one.
    ///
    /// # Errors
    ///
    /// Returns a message if the graph has no cores, or one naming the
    /// first flow that references a core out of range, is a self-loop, or
    /// has a rate that is NaN or not positive.
    pub fn try_new(cores: usize, flows: Vec<Flow>) -> Result<Self, String> {
        if cores == 0 {
            return Err("graph has 0 cores".to_owned());
        }
        for &Flow { src, dst, rate } in &flows {
            if src >= cores || dst >= cores {
                return Err(format!(
                    "flow endpoint {src}->{dst} out of range for {cores} cores"
                ));
            }
            if src == dst {
                return Err(format!("self-loop flow at core {src}"));
            }
            if rate.is_nan() || rate <= 0.0 {
                return Err(format!("flow rate {rate} is not positive"));
            }
        }
        Ok(CommGraph { cores, flows })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Hotspot workload: every other core sends to core 0 (a shared
    /// memory controller), plus light neighbour chatter.
    pub fn hotspot(cores: usize, rate: f64) -> Self {
        assert!(cores >= 2, "hotspot needs at least 2 cores");
        let mut flows = Vec::new();
        for c in 1..cores {
            flows.push(Flow {
                src: c,
                dst: 0,
                rate,
            });
            flows.push(Flow {
                src: c,
                dst: if c + 1 < cores { c + 1 } else { 1 },
                rate: rate * 0.2,
            });
        }
        CommGraph::new(cores, flows)
    }

    /// Pipeline workload: core `i` streams to core `i + 1`.
    pub fn pipeline(cores: usize, rate: f64) -> Self {
        assert!(cores >= 2, "pipeline needs at least 2 cores");
        let flows = (0..cores - 1)
            .map(|i| Flow {
                src: i,
                dst: i + 1,
                rate,
            })
            .collect();
        CommGraph::new(cores, flows)
    }

    /// Random workload: each ordered pair carries a flow with probability
    /// `density`, rate uniform in `(0.1, 1.0] · rate`.
    pub fn random<R: Rng>(cores: usize, density: f64, rate: f64, rng: &mut R) -> Self {
        assert!(cores >= 2, "random graph needs at least 2 cores");
        assert!((0.0..=1.0).contains(&density), "density is a probability");
        let mut flows = Vec::new();
        for s in 0..cores {
            for d in 0..cores {
                if s != d && rng.gen_bool(density) {
                    flows.push(Flow {
                        src: s,
                        dst: d,
                        rate: rate * rng.gen_range(0.1..=1.0),
                    });
                }
            }
        }
        if flows.is_empty() {
            // Guarantee at least one flow so downstream code has work.
            flows.push(Flow {
                src: 0,
                dst: 1,
                rate,
            });
        }
        CommGraph::new(cores, flows)
    }

    /// Uniform all-to-all workload.
    pub fn uniform(cores: usize, rate: f64) -> Self {
        assert!(cores >= 2, "uniform graph needs at least 2 cores");
        let mut flows = Vec::new();
        for s in 0..cores {
            for d in 0..cores {
                if s != d {
                    flows.push(Flow {
                        src: s,
                        dst: d,
                        rate,
                    });
                }
            }
        }
        CommGraph::new(cores, flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hotspot_concentrates_on_core_zero() {
        let g = CommGraph::hotspot(8, 1.0);
        let to_zero: f64 = g
            .flows()
            .iter()
            .filter(|f| f.dst == 0)
            .map(|f| f.rate)
            .sum();
        let total: f64 = g.flows().iter().map(|f| f.rate).sum();
        assert!(to_zero > total * 0.7);
    }

    #[test]
    fn pipeline_is_a_chain() {
        let g = CommGraph::pipeline(6, 1.0);
        assert_eq!(g.flows().len(), 5);
        for (i, f) in g.flows().iter().enumerate() {
            assert_eq!((f.src, f.dst), (i, i + 1));
        }
    }

    #[test]
    fn random_is_deterministic_and_valid() {
        let mut r1 = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let a = CommGraph::random(10, 0.2, 1.0, &mut r1);
        let b = CommGraph::random(10, 0.2, 1.0, &mut r2);
        assert_eq!(a, b);
        for f in a.flows() {
            assert!(f.src != f.dst && f.rate > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = CommGraph::new(
            2,
            vec![Flow {
                src: 0,
                dst: 0,
                rate: 1.0,
            }],
        );
    }
}
