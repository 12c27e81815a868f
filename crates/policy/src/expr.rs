//! Policy expressions: the data side of the engine.
//!
//! A [`PolicyExpr`] describes a policy as a small tree — primitives at
//! the leaves, combinators above them. Being plain data it can be
//! fingerprinted, encoded on the manifest wire format, pinned in the
//! golden corpus and shipped to cluster workers; the run-time state
//! lives entirely in the [`Evaluator`](crate::Evaluator) compiled from
//! it.
//!
//! Construction is validated: the `fixed`/`greedy`/... builder
//! functions and [`PolicyExpr::validate`] reject NaN parameters, duty
//! cycles outside `[0, 1]`, non-positive EWMA smoothing factors,
//! malformed schedules and over-deep nesting with a typed
//! [`PolicyError`] instead of silently clamping at evaluation time.

use std::fmt;

/// Maximum nesting depth [`PolicyExpr::validate`] accepts. Deep enough
/// for any sane composition, shallow enough that recursive wire
/// decoding of an adversarial manifest can never exhaust the stack.
pub const MAX_POLICY_DEPTH: usize = 16;

/// A composable run-time energy-management policy, as data.
///
/// The three primitive variants are byte-identical in evaluation to the
/// historical [`reference::DutyPolicy`](crate::reference::DutyPolicy)
/// enum (pinned by differential proptests); the combinators are new.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyExpr {
    /// Constant duty cycle regardless of energy state.
    Fixed(f64),
    /// Work hard above a battery threshold, throttle below it.
    Greedy {
        /// Battery fraction separating the two modes.
        threshold: f64,
        /// Duty cycle above the threshold.
        duty_high: f64,
        /// Duty cycle below the threshold.
        duty_low: f64,
    },
    /// Energy-neutral operation: duty = EWMA(harvest power) / active
    /// power, clamped to `[0, 1]` and derated linearly below 20 % of
    /// capacity (brown-out protection).
    EnergyNeutral {
        /// EWMA smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// Forecast-aware energy-neutral variant: one harvest-power EWMA
    /// *per slot-of-day*, smoothed across days with factor `alpha`, so
    /// the duty anticipates the diurnal profile (yesterday's noon
    /// predicts today's noon) instead of trailing the last few slots.
    /// Brown-out derating matches [`PolicyExpr::EnergyNeutral`].
    Forecast {
        /// Cross-day EWMA smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// Battery-health derating: capacity fades with cycle depth. The
    /// inner policy's duty is multiplied by the current health factor
    /// `max(floor, 1 − fade · equivalent_full_cycles)`, where
    /// equivalent full cycles = cumulative discharge / capacity. Every
    /// slot in which the factor actually bites counts as a derate
    /// event.
    Derate {
        /// Policy being derated.
        inner: Box<PolicyExpr>,
        /// Capacity fade per equivalent full cycle, in `[0, 1]`.
        fade: f64,
        /// Health floor in `[0, 1]` — derating never goes below it.
        floor: f64,
    },
    /// Two-threshold hysteresis: run `on` while the battery is healthy,
    /// switch to `off` once it drains to `low`, and only switch back
    /// after it recovers to `high` (no mode flapping between the two).
    /// Both branches tick their internal state every slot so a switch
    /// lands on a warm estimator.
    Hysteresis {
        /// Battery fraction that trips the policy into the `off` branch.
        low: f64,
        /// Battery fraction that re-arms the `on` branch (`> low`).
        high: f64,
        /// Branch used while armed (starts armed).
        on: Box<PolicyExpr>,
        /// Branch used after tripping.
        off: Box<PolicyExpr>,
    },
    /// Piecewise schedule over day indices: piece `k` is active from
    /// `pieces[k].0` (inclusive) until the next piece starts. The first
    /// piece must start at day 0 and starts must be strictly
    /// increasing. Only the active piece ticks its state.
    Scheduled {
        /// `(start day, policy)` pieces, strictly increasing starts.
        pieces: Vec<(u64, PolicyExpr)>,
    },
    /// Clamped composition: the inner duty, clamped into `[lo, hi]`.
    Clamp {
        /// Policy being clamped.
        inner: Box<PolicyExpr>,
        /// Lower duty bound.
        lo: f64,
        /// Upper duty bound (`>= lo`).
        hi: f64,
    },
}

/// A typed policy-construction failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// A parameter that must be a finite number was NaN or infinite.
    NonFinite {
        /// Which parameter.
        what: &'static str,
        /// The offending bits, as a value.
        value: f64,
    },
    /// A parameter fell outside its documented closed range.
    OutOfRange {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// An EWMA smoothing factor was not in `(0, 1]`.
    BadAlpha {
        /// The offending value.
        value: f64,
    },
    /// Hysteresis thresholds must satisfy `0 <= low < high <= 1`.
    BadHysteresisBand {
        /// The trip threshold.
        low: f64,
        /// The re-arm threshold.
        high: f64,
    },
    /// A schedule needs at least one piece.
    EmptySchedule,
    /// The first schedule piece must start at day 0.
    ScheduleMustStartAtZero {
        /// The actual first start day.
        start: u64,
    },
    /// Schedule starts must be strictly increasing.
    UnsortedSchedule {
        /// Index of the first out-of-order piece.
        index: usize,
    },
    /// A clamp range was empty (`lo > hi`).
    EmptyClampRange {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// The expression nests deeper than [`MAX_POLICY_DEPTH`].
    TooDeep {
        /// The depth at which validation gave up.
        depth: usize,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::NonFinite { what, value } => {
                write!(f, "{what} must be finite, got {value}")
            }
            PolicyError::OutOfRange {
                what,
                value,
                lo,
                hi,
            } => write!(f, "{what} must be in [{lo}, {hi}], got {value}"),
            PolicyError::BadAlpha { value } => {
                write!(f, "EWMA alpha must be in (0, 1], got {value}")
            }
            PolicyError::BadHysteresisBand { low, high } => {
                write!(
                    f,
                    "hysteresis band must satisfy 0 <= low < high <= 1, got [{low}, {high}]"
                )
            }
            PolicyError::EmptySchedule => write!(f, "schedule needs at least one piece"),
            PolicyError::ScheduleMustStartAtZero { start } => {
                write!(f, "first schedule piece must start at day 0, got {start}")
            }
            PolicyError::UnsortedSchedule { index } => {
                write!(
                    f,
                    "schedule starts must be strictly increasing (piece {index})"
                )
            }
            PolicyError::EmptyClampRange { lo, hi } => {
                write!(f, "clamp range [{lo}, {hi}] is empty")
            }
            PolicyError::TooDeep { depth } => {
                write!(f, "policy nests deeper than {depth} levels")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

fn check_unit(what: &'static str, v: f64) -> Result<(), PolicyError> {
    if !v.is_finite() {
        return Err(PolicyError::NonFinite { what, value: v });
    }
    if !(0.0..=1.0).contains(&v) {
        return Err(PolicyError::OutOfRange {
            what,
            value: v,
            lo: 0.0,
            hi: 1.0,
        });
    }
    Ok(())
}

fn check_alpha(v: f64) -> Result<(), PolicyError> {
    if !v.is_finite() || v <= 0.0 || v > 1.0 {
        return Err(PolicyError::BadAlpha { value: v });
    }
    Ok(())
}

impl PolicyExpr {
    /// A validated constant-duty policy (`duty` in `[0, 1]`).
    pub fn fixed(duty: f64) -> Result<PolicyExpr, PolicyError> {
        check_unit("fixed duty", duty)?;
        Ok(PolicyExpr::Fixed(duty))
    }

    /// A validated greedy two-mode policy.
    pub fn greedy(
        threshold: f64,
        duty_high: f64,
        duty_low: f64,
    ) -> Result<PolicyExpr, PolicyError> {
        check_unit("greedy threshold", threshold)?;
        check_unit("greedy duty_high", duty_high)?;
        check_unit("greedy duty_low", duty_low)?;
        Ok(PolicyExpr::Greedy {
            threshold,
            duty_high,
            duty_low,
        })
    }

    /// A validated energy-neutral policy (`alpha` in `(0, 1]`).
    pub fn energy_neutral(alpha: f64) -> Result<PolicyExpr, PolicyError> {
        check_alpha(alpha)?;
        Ok(PolicyExpr::EnergyNeutral { alpha })
    }

    /// A validated forecast-aware (per-slot-of-day EWMA) policy.
    pub fn forecast(alpha: f64) -> Result<PolicyExpr, PolicyError> {
        check_alpha(alpha)?;
        Ok(PolicyExpr::Forecast { alpha })
    }

    /// A validated battery-health derating wrapper.
    pub fn derate(inner: PolicyExpr, fade: f64, floor: f64) -> Result<PolicyExpr, PolicyError> {
        check_unit("derate fade", fade)?;
        check_unit("derate floor", floor)?;
        let expr = PolicyExpr::Derate {
            inner: Box::new(inner),
            fade,
            floor,
        };
        expr.validate()?;
        Ok(expr)
    }

    /// A validated hysteresis switch (`0 <= low < high <= 1`).
    pub fn hysteresis(
        low: f64,
        high: f64,
        on: PolicyExpr,
        off: PolicyExpr,
    ) -> Result<PolicyExpr, PolicyError> {
        if !low.is_finite() || !high.is_finite() || low < 0.0 || high > 1.0 || low >= high {
            return Err(PolicyError::BadHysteresisBand { low, high });
        }
        let expr = PolicyExpr::Hysteresis {
            low,
            high,
            on: Box::new(on),
            off: Box::new(off),
        };
        expr.validate()?;
        Ok(expr)
    }

    /// A validated piecewise day schedule.
    pub fn scheduled(pieces: Vec<(u64, PolicyExpr)>) -> Result<PolicyExpr, PolicyError> {
        let expr = PolicyExpr::Scheduled { pieces };
        expr.validate()?;
        Ok(expr)
    }

    /// A validated clamped composition (`0 <= lo <= hi <= 1`).
    pub fn clamp(inner: PolicyExpr, lo: f64, hi: f64) -> Result<PolicyExpr, PolicyError> {
        check_unit("clamp lo", lo)?;
        check_unit("clamp hi", hi)?;
        if lo > hi {
            return Err(PolicyError::EmptyClampRange { lo, hi });
        }
        let expr = PolicyExpr::Clamp {
            inner: Box::new(inner),
            lo,
            hi,
        };
        expr.validate()?;
        Ok(expr)
    }

    /// Validates every parameter in the tree. Wire decoding calls this
    /// at the parse boundary so a corrupted manifest record surfaces as
    /// a parse error, never as a silently-clamped simulation.
    pub fn validate(&self) -> Result<(), PolicyError> {
        self.validate_at(0)
    }

    fn validate_at(&self, depth: usize) -> Result<(), PolicyError> {
        if depth >= MAX_POLICY_DEPTH {
            return Err(PolicyError::TooDeep { depth });
        }
        match self {
            PolicyExpr::Fixed(d) => check_unit("fixed duty", *d),
            PolicyExpr::Greedy {
                threshold,
                duty_high,
                duty_low,
            } => {
                check_unit("greedy threshold", *threshold)?;
                check_unit("greedy duty_high", *duty_high)?;
                check_unit("greedy duty_low", *duty_low)
            }
            PolicyExpr::EnergyNeutral { alpha } | PolicyExpr::Forecast { alpha } => {
                check_alpha(*alpha)
            }
            PolicyExpr::Derate { inner, fade, floor } => {
                check_unit("derate fade", *fade)?;
                check_unit("derate floor", *floor)?;
                inner.validate_at(depth + 1)
            }
            PolicyExpr::Hysteresis { low, high, on, off } => {
                if !low.is_finite() || !high.is_finite() || *low < 0.0 || *high > 1.0 || low >= high
                {
                    return Err(PolicyError::BadHysteresisBand {
                        low: *low,
                        high: *high,
                    });
                }
                on.validate_at(depth + 1)?;
                off.validate_at(depth + 1)
            }
            PolicyExpr::Scheduled { pieces } => {
                if pieces.is_empty() {
                    return Err(PolicyError::EmptySchedule);
                }
                if pieces[0].0 != 0 {
                    return Err(PolicyError::ScheduleMustStartAtZero { start: pieces[0].0 });
                }
                for (k, w) in pieces.windows(2).enumerate() {
                    if w[1].0 <= w[0].0 {
                        return Err(PolicyError::UnsortedSchedule { index: k + 1 });
                    }
                }
                for (_, p) in pieces {
                    p.validate_at(depth + 1)?;
                }
                Ok(())
            }
            PolicyExpr::Clamp { inner, lo, hi } => {
                check_unit("clamp lo", *lo)?;
                check_unit("clamp hi", *hi)?;
                if lo > hi {
                    return Err(PolicyError::EmptyClampRange { lo: *lo, hi: *hi });
                }
                inner.validate_at(depth + 1)
            }
        }
    }

    /// Short label for corpus keys and reports. The primitives keep the
    /// exact historical `DutyPolicy` strings (`fixed`, `greedy`,
    /// `energy-neutral`) so pre-existing golden labels are unchanged;
    /// combinators compose recursively.
    pub fn label(&self) -> String {
        match self {
            PolicyExpr::Fixed(_) => "fixed".to_owned(),
            PolicyExpr::Greedy { .. } => "greedy".to_owned(),
            PolicyExpr::EnergyNeutral { .. } => "energy-neutral".to_owned(),
            PolicyExpr::Forecast { .. } => "forecast".to_owned(),
            PolicyExpr::Derate { inner, .. } => format!("derate.{}", inner.label()),
            PolicyExpr::Hysteresis { on, off, .. } => {
                format!("hyst.{}.{}", on.label(), off.label())
            }
            PolicyExpr::Scheduled { pieces } => {
                let mut out = String::from("sched");
                for (_, p) in pieces {
                    out.push('.');
                    out.push_str(&p.label());
                }
                out
            }
            PolicyExpr::Clamp { inner, .. } => format!("clamp.{}", inner.label()),
        }
    }
}

/// Per-node policy assignment for multi-node fleet simulations.
///
/// A fleet rarely wants one policy everywhere: gateway-adjacent nodes
/// can afford greed, fringe nodes need conservation. The assignment is
/// deterministic in the node index, so the same scenario description
/// always produces the same per-node policies.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyAssignment {
    /// Every node runs the same policy.
    Uniform(PolicyExpr),
    /// Node `i` runs `policies[i % policies.len()]`.
    RoundRobin(Vec<PolicyExpr>),
}

impl PolicyAssignment {
    /// The policy expression node `i` runs.
    ///
    /// # Panics
    ///
    /// Panics if a `RoundRobin` assignment is empty —
    /// [`validate`](PolicyAssignment::validate) rejects that at
    /// construction.
    pub fn policy_for(&self, node: usize) -> &PolicyExpr {
        match self {
            PolicyAssignment::Uniform(p) => p,
            PolicyAssignment::RoundRobin(ps) => &ps[node % ps.len()],
        }
    }

    /// Validates the assignment and every policy in it.
    pub fn validate(&self) -> Result<(), PolicyError> {
        match self {
            PolicyAssignment::Uniform(p) => p.validate(),
            PolicyAssignment::RoundRobin(ps) => {
                if ps.is_empty() {
                    return Err(PolicyError::EmptySchedule);
                }
                for p in ps {
                    p.validate()?;
                }
                Ok(())
            }
        }
    }

    /// Short label for corpus keys: `uniform` labels as the policy
    /// itself, mixes join with `+`.
    pub fn label(&self) -> String {
        match self {
            PolicyAssignment::Uniform(p) => p.label(),
            PolicyAssignment::RoundRobin(ps) => ps
                .iter()
                .map(PolicyExpr::label)
                .collect::<Vec<_>>()
                .join("+"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accept_valid_parameters() {
        assert!(PolicyExpr::fixed(0.0).is_ok());
        assert!(PolicyExpr::fixed(1.0).is_ok());
        assert!(PolicyExpr::greedy(0.3, 0.9, 0.05).is_ok());
        assert!(PolicyExpr::energy_neutral(1.0).is_ok());
        assert!(PolicyExpr::forecast(0.2).is_ok());
        let inner = PolicyExpr::fixed(0.5).unwrap();
        assert!(PolicyExpr::derate(inner.clone(), 0.2, 0.3).is_ok());
        assert!(PolicyExpr::hysteresis(0.2, 0.6, inner.clone(), PolicyExpr::Fixed(0.01)).is_ok());
        assert!(
            PolicyExpr::scheduled(vec![(0, inner.clone()), (5, PolicyExpr::Fixed(0.1))]).is_ok()
        );
        assert!(PolicyExpr::clamp(inner, 0.1, 0.9).is_ok());
    }

    #[test]
    fn builders_reject_nan_and_out_of_range() {
        assert!(matches!(
            PolicyExpr::fixed(f64::NAN),
            Err(PolicyError::NonFinite { .. })
        ));
        assert!(matches!(
            PolicyExpr::fixed(1.5),
            Err(PolicyError::OutOfRange { .. })
        ));
        assert!(matches!(
            PolicyExpr::fixed(-0.1),
            Err(PolicyError::OutOfRange { .. })
        ));
        assert!(matches!(
            PolicyExpr::greedy(0.3, f64::INFINITY, 0.0),
            Err(PolicyError::NonFinite { .. })
        ));
        assert!(matches!(
            PolicyExpr::energy_neutral(0.0),
            Err(PolicyError::BadAlpha { .. })
        ));
        assert!(matches!(
            PolicyExpr::energy_neutral(-0.5),
            Err(PolicyError::BadAlpha { .. })
        ));
        assert!(matches!(
            PolicyExpr::energy_neutral(f64::NAN),
            Err(PolicyError::BadAlpha { .. })
        ));
        assert!(matches!(
            PolicyExpr::forecast(1.5),
            Err(PolicyError::BadAlpha { .. })
        ));
    }

    #[test]
    fn combinator_builders_reject_malformed_shapes() {
        let p = PolicyExpr::Fixed(0.5);
        assert!(matches!(
            PolicyExpr::hysteresis(0.6, 0.6, p.clone(), p.clone()),
            Err(PolicyError::BadHysteresisBand { .. })
        ));
        assert!(matches!(
            PolicyExpr::hysteresis(0.7, 0.2, p.clone(), p.clone()),
            Err(PolicyError::BadHysteresisBand { .. })
        ));
        assert!(matches!(
            PolicyExpr::scheduled(vec![]),
            Err(PolicyError::EmptySchedule)
        ));
        assert!(matches!(
            PolicyExpr::scheduled(vec![(3, p.clone())]),
            Err(PolicyError::ScheduleMustStartAtZero { start: 3 })
        ));
        assert!(matches!(
            PolicyExpr::scheduled(vec![(0, p.clone()), (5, p.clone()), (5, p.clone())]),
            Err(PolicyError::UnsortedSchedule { index: 2 })
        ));
        assert!(matches!(
            PolicyExpr::clamp(p.clone(), 0.8, 0.2),
            Err(PolicyError::EmptyClampRange { .. })
        ));
        assert!(matches!(
            PolicyExpr::derate(p, 1.5, 0.0),
            Err(PolicyError::OutOfRange { .. })
        ));
    }

    #[test]
    fn validation_bounds_nesting_depth() {
        let mut expr = PolicyExpr::Fixed(0.5);
        for _ in 0..MAX_POLICY_DEPTH {
            expr = PolicyExpr::Clamp {
                inner: Box::new(expr),
                lo: 0.0,
                hi: 1.0,
            };
        }
        assert!(matches!(expr.validate(), Err(PolicyError::TooDeep { .. })));
    }

    #[test]
    fn labels_keep_historical_primitive_strings() {
        assert_eq!(PolicyExpr::Fixed(0.3).label(), "fixed");
        assert_eq!(
            PolicyExpr::Greedy {
                threshold: 0.3,
                duty_high: 0.9,
                duty_low: 0.05
            }
            .label(),
            "greedy"
        );
        assert_eq!(
            PolicyExpr::EnergyNeutral { alpha: 0.01 }.label(),
            "energy-neutral"
        );
        let composed =
            PolicyExpr::derate(PolicyExpr::energy_neutral(0.05).unwrap(), 0.2, 0.5).unwrap();
        assert_eq!(composed.label(), "derate.energy-neutral");
    }

    #[test]
    fn assignment_round_robin_wraps_and_validates() {
        let mix =
            PolicyAssignment::RoundRobin(vec![PolicyExpr::Fixed(0.9), PolicyExpr::Fixed(0.1)]);
        assert!(mix.validate().is_ok());
        assert_eq!(mix.policy_for(0), &PolicyExpr::Fixed(0.9));
        assert_eq!(mix.policy_for(3), &PolicyExpr::Fixed(0.1));
        assert_eq!(mix.label(), "fixed+fixed");
        assert!(PolicyAssignment::RoundRobin(vec![]).validate().is_err());
    }
}
