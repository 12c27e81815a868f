//! Sensor deployments.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A position in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// East coordinate.
    pub x: f64,
    /// North coordinate.
    pub y: f64,
}

impl Position {
    /// Euclidean distance.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A deployed sensor field: node positions plus a sink.
///
/// ```
/// use mns_wsn::field::Field;
/// let f = Field::random(50, 100.0, 1);
/// assert_eq!(f.nodes(), 50);
/// assert!(f.position(0).x <= 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    positions: Vec<Position>,
    sink: Position,
    side: f64,
}

impl Field {
    /// Uniform random deployment of `nodes` sensors on a `side × side`
    /// square, sink at the centre.
    ///
    /// # Panics
    ///
    /// Panics where [`Field::validate_random`] returns an error.
    pub fn random(nodes: usize, side: f64, seed: u64) -> Self {
        Field::validate_random(nodes, side).unwrap_or_else(|e| panic!("{e}"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let positions = (0..nodes)
            .map(|_| Position {
                x: rng.gen_range(0.0..side),
                y: rng.gen_range(0.0..side),
            })
            .collect();
        Field {
            positions,
            sink: Position {
                x: side / 2.0,
                y: side / 2.0,
            },
            side,
        }
    }

    /// Checks the arguments of [`Field::random`]: at least one node, and
    /// a finite, positive side (an infinite side would make every
    /// position draw fail).
    ///
    /// # Errors
    ///
    /// Returns a message naming `nodes` or `side`.
    pub fn validate_random(nodes: usize, side: f64) -> Result<(), String> {
        if nodes == 0 {
            return Err("nodes is 0".to_owned());
        }
        if !side.is_finite() || side <= 0.0 {
            return Err(format!("side {side} is not finite and positive"));
        }
        Ok(())
    }

    /// Number of sensor nodes (sink excluded).
    pub fn nodes(&self) -> usize {
        self.positions.len()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, i: usize) -> Position {
        self.positions[i]
    }

    /// Distance from node `i` to the sink.
    pub fn to_sink(&self, i: usize) -> f64 {
        self.positions[i].distance(self.sink)
    }

    /// Fraction of the field within `radius` of any node in `alive`
    /// (grid-sampled at 20 × 20).
    pub fn coverage(&self, alive: &[bool], radius: f64) -> f64 {
        let covered = self
            .sample_points()
            .filter(|&p| {
                self.positions
                    .iter()
                    .zip(alive)
                    .any(|(q, &a)| a && q.distance(p) <= radius)
            })
            .count();
        covered as f64 / SAMPLES as f64
    }

    /// The coverage sample points: the centres of a `GRID × GRID` grid
    /// over the field, row by row.
    fn sample_points(&self) -> impl Iterator<Item = Position> + '_ {
        (0..GRID).flat_map(move |gy| {
            (0..GRID).map(move |gx| Position {
                x: (gx as f64 + 0.5) * self.side / GRID as f64,
                y: (gy as f64 + 0.5) * self.side / GRID as f64,
            })
        })
    }
}

/// Sample points per side of the coverage grid.
const GRID: usize = 20;
/// Coverage sample points in all.
const SAMPLES: usize = GRID * GRID;

/// [`Field::coverage`] kept up to date instead of recomputed: for each
/// sample point, the number of live nodes within the radius of it.
///
/// Each node's covered points are found once, with the predicate that
/// `Field::coverage` applies, so [`CoverageTally::fraction`] equals
/// `coverage` over the same liveness bit for bit. An update touches only
/// the nodes whose liveness changed, in either direction.
#[derive(Debug)]
pub(crate) struct CoverageTally {
    /// For each node, the sample points within the radius of it.
    covers: Vec<Vec<u16>>,
    /// For each node, its liveness as of the last update.
    live: Vec<bool>,
    /// For each sample point, the live nodes that cover it.
    count: Vec<u32>,
    /// Sample points whose count is nonzero.
    covered: usize,
}

impl CoverageTally {
    /// A tally of `field` at sensing `radius`, with no node live yet.
    pub(crate) fn new(field: &Field, radius: f64) -> Self {
        let points: Vec<Position> = field.sample_points().collect();
        let covers = field
            .positions
            .iter()
            .map(|&q| {
                (0u16..)
                    .zip(&points)
                    .filter(|&(_, &p)| q.distance(p) <= radius)
                    .map(|(k, _)| k)
                    .collect()
            })
            .collect();
        CoverageTally {
            covers,
            live: vec![false; field.nodes()],
            count: vec![0; SAMPLES],
            covered: 0,
        }
    }

    /// Brings the tally to the liveness `alive(i)` of each node `i`.
    pub(crate) fn update(&mut self, alive: impl Fn(usize) -> bool) {
        for (i, (live, covers)) in self.live.iter_mut().zip(&self.covers).enumerate() {
            let now = alive(i);
            if now == *live {
                continue;
            }
            *live = now;
            for &k in covers {
                let count = &mut self.count[usize::from(k)];
                if now {
                    *count += 1;
                    if *count == 1 {
                        self.covered += 1;
                    }
                } else {
                    *count -= 1;
                    if *count == 0 {
                        self.covered -= 1;
                    }
                }
            }
        }
    }

    /// The covered fraction of the field, as [`Field::coverage`] gives it.
    pub(crate) fn fraction(&self) -> f64 {
        self.covered as f64 / SAMPLES as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deployment_is_deterministic_and_in_bounds() {
        let a = Field::random(30, 50.0, 7);
        let b = Field::random(30, 50.0, 7);
        assert_eq!(a, b);
        for i in 0..a.nodes() {
            let p = a.position(i);
            assert!((0.0..=50.0).contains(&p.x) && (0.0..=50.0).contains(&p.y));
        }
        assert_eq!(a.sink, Position { x: 25.0, y: 25.0 });
    }

    #[test]
    #[should_panic(expected = "side inf is not finite")]
    fn an_infinite_side_is_rejected_before_any_draw() {
        let _ = Field::random(5, f64::INFINITY, 1);
    }

    #[test]
    fn coverage_full_and_empty() {
        let f = Field::random(100, 50.0, 3);
        let all = vec![true; 100];
        let none = vec![false; 100];
        assert!(f.coverage(&all, 20.0) > 0.95);
        assert_eq!(f.coverage(&none, 20.0), 0.0);
    }

    #[test]
    fn coverage_decreases_as_nodes_die() {
        let f = Field::random(60, 100.0, 5);
        let all = vec![true; 60];
        let mut half = vec![true; 60];
        for h in half.iter_mut().take(30) {
            *h = false;
        }
        assert!(f.coverage(&half, 12.0) <= f.coverage(&all, 12.0));
    }

    // The tally reads what `Field::coverage` computes, bit for bit, over
    // fields on the smallest, an everyday and the largest finite side,
    // radii of 0, 15 and 1.5 sides (past the diagonal; +∞ on the largest
    // side), and random liveness sequences in which nodes die and revive.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tally_matches_the_coverage_oracle(
            seed in any::<u64>(),
            nodes in 1usize..80,
            which_side in 0usize..3,
            which_radius in 0usize..3,
            steps in 1usize..12,
        ) {
            let side = [f64::MIN_POSITIVE, 120.0, f64::MAX][which_side];
            let radius = [0.0, 15.0, side * 1.5][which_radius];
            let field = Field::random(nodes, side, seed);
            let mut tally = CoverageTally::new(&field, radius);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..steps {
                let share = rng.gen::<f64>();
                let alive: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(share)).collect();
                tally.update(|i| alive[i]);
                prop_assert_eq!(
                    tally.fraction().to_bits(),
                    field.coverage(&alive, radius).to_bits()
                );
            }
        }
    }

    #[test]
    fn distance_helper() {
        let a = Position { x: 0.0, y: 0.0 };
        let b = Position { x: 3.0, y: 4.0 };
        assert_eq!(a.distance(b), 5.0);
    }
}
