//! Design-space exploration: sweep, evaluate, Pareto-filter.
//!
//! "How to engineer complex multivariate systems" (slide 15) in its most
//! concrete form: enumerate candidate configurations, evaluate each on
//! several objectives, and keep the non-dominated set. The NoC topology
//! explorer below drives `mns-noc` through cluster-size × shortcut-count
//! space; the Pareto filter itself is generic over objective vectors.

use mns_noc::graph::CommGraph;

use crate::runner::{NocScenario, Runner, Scenario, ScenarioOutcome};

/// Indices of the Pareto-optimal (non-dominated, minimizing) points.
///
/// A point dominates another if it is no worse in every objective and
/// strictly better in at least one.
///
/// # NaN and infinity policy
///
/// A point containing a NaN objective is **invalid**: it never appears in
/// the front and never dominates anything (an unmeasured objective cannot
/// beat a measured one). Infinite objectives are valid and compare by the
/// usual IEEE order, so `-inf` is unbeatable and `+inf` loses to every
/// finite value; an all-`+inf` point still makes the front if nothing
/// dominates it.
///
/// ```
/// use mns_core::explore::pareto_front;
/// let pts = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![3.0, 3.0]];
/// assert_eq!(pareto_front(&pts), vec![0, 1]); // point 2 is dominated
///
/// // NaN points are excluded and cannot shadow valid points.
/// let pts = vec![vec![f64::NAN, 0.0], vec![2.0, 2.0]];
/// assert_eq!(pareto_front(&pts), vec![1]);
/// ```
///
/// # Panics
///
/// Panics if points have inconsistent dimensionality.
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    if points.is_empty() {
        return Vec::new();
    }
    let dim = points[0].len();
    for p in points {
        assert_eq!(p.len(), dim, "inconsistent objective dimensionality");
    }
    let valid = |p: &[f64]| p.iter().all(|x| !x.is_nan());
    let dominates = |a: &[f64], b: &[f64]| {
        valid(a) && a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    (0..points.len())
        .filter(|&i| {
            valid(&points[i])
                && !points
                    .iter()
                    .enumerate()
                    .any(|(j, p)| j != i && dominates(p, &points[i]))
        })
        .collect()
}

/// One evaluated NoC design point.
#[derive(Debug, Clone, PartialEq)]
pub struct NocDesignPoint {
    /// Cores per leaf router used for this point.
    pub max_cluster: usize,
    /// Shortcut budget used for this point.
    pub shortcuts: usize,
    /// Rate-weighted mean hops (latency proxy).
    pub weighted_hops: f64,
    /// Rate-weighted energy per flit.
    pub energy: f64,
    /// Router area proxy.
    pub area: f64,
    /// Whether the route set was certified deadlock-free.
    pub deadlock_free: bool,
}

/// Sweeps topology-synthesis parameters for one application and returns
/// every evaluated point plus the indices of the latency/energy/area
/// Pareto front. Every `(cluster, shortcuts)` design point becomes a
/// [`Scenario::NocPoint`] evaluated by a [`Runner`] with `workers`
/// threads (0 = one per hardware thread). The conformance contract
/// guarantees the result is byte-identical for every worker count;
/// infeasible points (no route set) are dropped.
pub fn explore_noc_with(
    app: &CommGraph,
    cluster_sizes: &[usize],
    shortcut_budgets: &[usize],
    workers: usize,
) -> (Vec<NocDesignPoint>, Vec<usize>) {
    let _sweep_span = mns_telemetry::span("noc.sweep");
    let mut params = Vec::new();
    let mut scenarios = Vec::new();
    for &max_cluster in cluster_sizes {
        for &shortcuts in shortcut_budgets {
            params.push((max_cluster, shortcuts));
            scenarios.push(Scenario::NocPoint(NocScenario {
                app: app.clone(),
                max_cluster,
                shortcuts,
            }));
        }
    }
    let outcomes = Runner::with_workers(workers).run(&scenarios).outcomes;
    let mut points = Vec::new();
    for ((max_cluster, shortcuts), outcome) in params.into_iter().zip(outcomes) {
        let ScenarioOutcome::Noc {
            feasible,
            weighted_hops,
            energy,
            area,
            deadlock_free,
        } = outcome
        else {
            unreachable!("NocPoint scenarios yield Noc outcomes");
        };
        if !feasible {
            continue;
        }
        points.push(NocDesignPoint {
            max_cluster,
            shortcuts,
            weighted_hops,
            energy,
            area,
            deadlock_free,
        });
    }
    let objectives: Vec<Vec<f64>> = points
        .iter()
        .map(|p| vec![p.weighted_hops, p.energy, p.area])
        .collect();
    let front = pareto_front(&objectives);
    (points, front)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_basics() {
        assert!(pareto_front(&[]).is_empty());
        let single = pareto_front(&[vec![1.0]]);
        assert_eq!(single, vec![0]);
        // Identical points do not dominate each other.
        let twins = pareto_front(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert_eq!(twins, vec![0, 1]);
    }

    #[test]
    fn pareto_filters_dominated() {
        let pts = vec![
            vec![1.0, 5.0],
            vec![5.0, 1.0],
            vec![3.0, 3.0],
            vec![4.0, 4.0], // dominated by [3,3]
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn noc_exploration_produces_a_front() {
        let app = CommGraph::hotspot(16, 1.0);
        let (points, front) = explore_noc_with(&app, &[2, 4, 8], &[0, 4], 1);
        assert!(!points.is_empty());
        assert!(!front.is_empty());
        assert!(front.len() <= points.len());
        for p in &points {
            assert!(p.deadlock_free, "every design must be certified");
        }
        // More shortcuts never increase weighted hops for a fixed
        // cluster size.
        for &c in &[2usize, 4, 8] {
            let h0 = points
                .iter()
                .find(|p| p.max_cluster == c && p.shortcuts == 0)
                .map(|p| p.weighted_hops);
            let h4 = points
                .iter()
                .find(|p| p.max_cluster == c && p.shortcuts == 4)
                .map(|p| p.weighted_hops);
            if let (Some(h0), Some(h4)) = (h0, h4) {
                assert!(h4 <= h0 + 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn pareto_checks_dimensions() {
        let _ = pareto_front(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn nan_points_never_enter_the_front() {
        let pts = vec![
            vec![f64::NAN, f64::NAN],
            vec![f64::NAN, 0.0],
            vec![2.0, 2.0],
        ];
        assert_eq!(pareto_front(&pts), vec![2]);
        // An all-NaN input has an empty front.
        assert!(pareto_front(&[vec![f64::NAN]]).is_empty());
    }

    #[test]
    fn nan_points_never_dominate() {
        // [NaN, 0] must not knock out [5, 5] even though 0 < 5.
        let pts = vec![vec![f64::NAN, 0.0], vec![5.0, 5.0]];
        assert_eq!(pareto_front(&pts), vec![1]);
    }

    #[test]
    fn infinities_compare_by_ieee_order() {
        // -inf is unbeatable; +inf loses to any finite value.
        let pts = vec![
            vec![f64::NEG_INFINITY, 1.0],
            vec![0.0, 1.0],
            vec![f64::INFINITY, 1.0],
        ];
        assert_eq!(pareto_front(&pts), vec![0]);
        // A lone +inf point is still the front — nothing dominates it.
        assert_eq!(pareto_front(&[vec![f64::INFINITY]]), vec![0]);
    }

    #[test]
    fn parallel_exploration_matches_serial() {
        let app = CommGraph::hotspot(16, 1.0);
        let serial = explore_noc_with(&app, &[2, 4, 8], &[0, 4], 1);
        for workers in [2, 4, 0] {
            let par = explore_noc_with(&app, &[2, 4, 8], &[0, 4], workers);
            assert_eq!(serial, par, "divergence at workers={workers}");
        }
    }
}
