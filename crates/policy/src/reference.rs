//! The retained historical policy enum.
//!
//! [`DutyPolicy`] is the original fixed three-variant policy surface
//! that `mns_wsn::harvest::simulate_harvesting` evaluates inline, slot
//! by slot, exactly as it always has. It stays as the **reference
//! evaluator**: the expression engine's primitives
//! ([`PolicyExpr::Fixed`], [`PolicyExpr::Greedy`],
//! [`PolicyExpr::EnergyNeutral`]) are pinned byte-identical to it by
//! differential proptests (`tests/policy_properties.rs`), the same oracle
//! pattern the droplet router and Cheng–Church engines use.

use crate::PolicyExpr;

/// Run-time energy management policies (historical enum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DutyPolicy {
    /// Constant duty cycle regardless of energy state.
    Fixed(f64),
    /// Work hard while the battery is above `threshold` (fraction of
    /// capacity), throttle to `duty_low` below it.
    Greedy {
        /// Battery fraction separating the two modes.
        threshold: f64,
        /// Duty cycle above the threshold.
        duty_high: f64,
        /// Duty cycle below the threshold.
        duty_low: f64,
    },
    /// Energy-neutral operation: duty = EWMA(harvest power) / active
    /// power, clamped to `[0, 1]` and derated linearly once the battery
    /// falls below 20 % of capacity (brown-out protection).
    EnergyNeutral {
        /// EWMA smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

impl DutyPolicy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DutyPolicy::Fixed(_) => "fixed",
            DutyPolicy::Greedy { .. } => "greedy",
            DutyPolicy::EnergyNeutral { .. } => "energy-neutral",
        }
    }
}

impl From<DutyPolicy> for PolicyExpr {
    /// Lifts the historical enum into the expression engine. The three
    /// primitive expressions evaluate byte-identically to the enum's
    /// inline reference loop, so this conversion never changes a
    /// simulation result.
    fn from(p: DutyPolicy) -> PolicyExpr {
        match p {
            DutyPolicy::Fixed(d) => PolicyExpr::Fixed(d),
            DutyPolicy::Greedy {
                threshold,
                duty_high,
                duty_low,
            } => PolicyExpr::Greedy {
                threshold,
                duty_high,
                duty_low,
            },
            DutyPolicy::EnergyNeutral { alpha } => PolicyExpr::EnergyNeutral { alpha },
        }
    }
}
