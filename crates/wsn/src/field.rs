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

    /// The sink position.
    pub fn sink(&self) -> Position {
        self.sink
    }

    /// Field side length.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Distance from node `i` to the sink.
    pub fn to_sink(&self, i: usize) -> f64 {
        self.positions[i].distance(self.sink)
    }

    /// Fraction of the field within `radius` of any node in `alive`
    /// (grid-sampled at 20 × 20).
    pub fn coverage(&self, alive: &[bool], radius: f64) -> f64 {
        let n = 20;
        let mut covered = 0;
        for gy in 0..n {
            for gx in 0..n {
                let p = Position {
                    x: (gx as f64 + 0.5) * self.side / n as f64,
                    y: (gy as f64 + 0.5) * self.side / n as f64,
                };
                let hit = self
                    .positions
                    .iter()
                    .zip(alive)
                    .any(|(q, &a)| a && q.distance(p) <= radius);
                if hit {
                    covered += 1;
                }
            }
        }
        covered as f64 / (n * n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_is_deterministic_and_in_bounds() {
        let a = Field::random(30, 50.0, 7);
        let b = Field::random(30, 50.0, 7);
        assert_eq!(a, b);
        for i in 0..a.nodes() {
            let p = a.position(i);
            assert!((0.0..=50.0).contains(&p.x) && (0.0..=50.0).contains(&p.y));
        }
        assert_eq!(a.sink(), Position { x: 25.0, y: 25.0 });
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

    #[test]
    fn distance_helper() {
        let a = Position { x: 0.0, y: 0.0 };
        let b = Position { x: 3.0, y: 4.0 };
        assert_eq!(a.distance(b), 5.0);
    }
}
