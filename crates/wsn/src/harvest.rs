//! Energy harvesting and run-time duty-cycle management (experiment E10).
//!
//! Slide 38: distributed wireless systems must eventually be autonomous —
//! harvest energy from the environment and adapt their behaviour to it.
//! This module provides a synthetic solar trace (diurnal sinusoid with
//! per-day weather) and two evaluators over it:
//!
//! * [`simulate_harvesting`] — the retained **reference** loop over the
//!   historical [`DutyPolicy`] enum (re-exported from
//!   `mns_policy::reference`), byte-for-byte the original inline match;
//!   the energy-neutral policy sets the duty cycle from an EWMA estimate
//!   of harvest power so consumption tracks income (Kansal et al.'s
//!   energy-neutral operation).
//! * [`simulate_policy`] — the same physics driven by a composable
//!   [`mns_policy::PolicyExpr`] engine. Differential proptests
//!   (`tests/policy_properties.rs`) pin its primitive policies
//!   byte-identical to the reference loop.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mns_policy::{Policy, PolicyExpr, SlotCtx};

pub use mns_policy::reference::DutyPolicy;

/// Synthetic solar harvester model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarModel {
    /// Peak panel output at clear-sky noon (W).
    pub peak_power: f64,
    /// Day length in seconds.
    pub day_length: f64,
    /// Weather severity in `[0, 1]`: 0 = always clear, 1 = fully overcast
    /// days possible.
    pub cloudiness: f64,
}

impl Default for SolarModel {
    fn default() -> Self {
        SolarModel {
            peak_power: 0.05,
            day_length: 86_400.0,
            cloudiness: 0.4,
        }
    }
}

impl SolarModel {
    /// Checks the model's parameters: `cloudiness` must be in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming `cloudiness` otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.cloudiness) {
            return Err(format!("cloudiness {} is not in [0, 1]", self.cloudiness));
        }
        Ok(())
    }

    /// Per-day weather attenuation in `[1 − cloudiness, 1]`,
    /// deterministic per `(seed, day)`.
    pub fn weather(&self, day: u64, seed: u64) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        1.0 - self.cloudiness * rng.gen::<f64>()
    }

    /// Harvested power at absolute time `t` seconds.
    pub fn power(&self, t: f64, seed: u64) -> f64 {
        let (day, sun) = self.day_and_sun(t);
        self.peak_power * sun * self.weather(day, seed)
    }

    /// The day of time `t`, and the clear-sky share of peak power then.
    fn day_and_sun(&self, t: f64) -> (u64, f64) {
        let day = (t / self.day_length) as u64;
        let phase = (t % self.day_length) / self.day_length;
        // Daylight = first half of the day, sinusoidal.
        let sun = (std::f64::consts::PI * phase * 2.0).sin().max(0.0);
        (day, sun)
    }
}

/// One seed's [`SolarModel::power`], keeping the last day's weather so
/// that a run draws each day's weather once instead of at every call.
#[derive(Debug)]
pub(crate) struct SolarTrace {
    model: SolarModel,
    seed: u64,
    /// The last day drawn, and its weather.
    last: Option<(u64, f64)>,
}

impl SolarTrace {
    /// The trace of `model` under weather seed `seed`.
    pub(crate) fn new(model: SolarModel, seed: u64) -> Self {
        SolarTrace {
            model,
            seed,
            last: None,
        }
    }

    /// `SolarModel::power(t, seed)`, bit for bit.
    pub(crate) fn power(&mut self, t: f64) -> f64 {
        let (day, sun) = self.model.day_and_sun(t);
        let weather = match self.last {
            Some((d, w)) if d == day => w,
            _ => {
                let w = self.model.weather(day, self.seed);
                self.last = Some((day, w));
                w
            }
        };
        self.model.peak_power * sun * weather
    }
}

/// Harvesting-node simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestConfig {
    /// Battery capacity (J).
    pub battery_capacity: f64,
    /// Initial battery level as a fraction of capacity.
    pub initial_fraction: f64,
    /// Power draw when active (W).
    pub active_power: f64,
    /// Power draw when sleeping (W).
    pub sleep_power: f64,
    /// Slot length (s).
    pub slot: f64,
    /// Simulated days.
    pub days: u32,
    /// The harvester.
    pub solar: SolarModel,
    /// Weather seed.
    pub seed: u64,
}

impl Default for HarvestConfig {
    fn default() -> Self {
        HarvestConfig {
            battery_capacity: 800.0,
            initial_fraction: 0.5,
            active_power: 0.06,
            sleep_power: 0.001,
            slot: 600.0,
            days: 30,
            solar: SolarModel::default(),
            seed: 1,
        }
    }
}

/// Outcome of a harvesting simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestStats {
    /// Total useful work: Σ duty · slot over live slots (seconds of
    /// active service delivered).
    pub work: f64,
    /// Slots spent dead (battery empty).
    pub dead_slots: u64,
    /// Total slots simulated.
    pub total_slots: u64,
    /// `1 − dead_slots / total_slots`.
    pub uptime: f64,
    /// Energy lost to battery overflow (J) — harvested but not storable.
    pub wasted: f64,
    /// Lowest battery level seen (J).
    pub min_battery: f64,
    /// Total solar income over the run (J), before storage losses. This
    /// is a property of the trace alone: policies cannot change it.
    pub harvested: f64,
    /// Battery level after the last slot (J).
    pub final_battery: f64,
    /// Policy evaluations performed (one per slot).
    pub policy_evals: u64,
    /// Slots in which battery-health derating reduced the duty (always 0
    /// for the reference loop — only the `Derate` combinator derates).
    pub derate_events: u64,
    /// Equivalent full battery cycles over the run: cumulative discharge
    /// divided by nameplate capacity — the input to capacity-fade models.
    pub cycles: f64,
}

/// Simulates one harvesting node under the given policy.
///
/// # Panics
///
/// Panics on non-positive capacity, slot, or day count.
pub fn simulate_harvesting(policy: DutyPolicy, config: &HarvestConfig) -> HarvestStats {
    let _sim_span = mns_telemetry::span("wsn.harvest");
    assert!(config.battery_capacity > 0.0, "capacity must be positive");
    assert!(config.slot > 0.0, "slot must be positive");
    assert!(config.days > 0, "need at least one day");

    let total_slots = ((config.days as f64 * config.solar.day_length / config.slot) as u64).max(1);
    mns_telemetry::counter_add("wsn.harvest_slots", total_slots);
    let mut battery = config.battery_capacity * config.initial_fraction.clamp(0.0, 1.0);
    let mut ewma = 0.0f64;
    let mut work = 0.0;
    let mut dead_slots = 0u64;
    let mut wasted = 0.0;
    let mut harvested = 0.0;
    let mut discharged = 0.0;
    let mut min_battery = battery;

    for s in 0..total_slots {
        let t = s as f64 * config.slot;
        let harvest_power = config.solar.power(t, config.seed);
        let harvest = harvest_power * config.slot;
        harvested += harvest;

        let duty = match policy {
            DutyPolicy::Fixed(d) => d.clamp(0.0, 1.0),
            DutyPolicy::Greedy {
                threshold,
                duty_high,
                duty_low,
            } => {
                if battery >= threshold * config.battery_capacity {
                    duty_high.clamp(0.0, 1.0)
                } else {
                    duty_low.clamp(0.0, 1.0)
                }
            }
            DutyPolicy::EnergyNeutral { alpha } => {
                ewma = alpha * harvest_power + (1.0 - alpha) * ewma;
                let base = (ewma / config.active_power).clamp(0.0, 1.0);
                // Derate near-empty batteries so estimation error cannot
                // brown the node out.
                let fraction = battery / config.battery_capacity;
                if fraction < 0.2 {
                    base * (fraction / 0.2)
                } else {
                    base
                }
            }
        };

        // Income first (harvest accrues during the slot either way).
        battery += harvest;
        if battery > config.battery_capacity {
            wasted += battery - config.battery_capacity;
            battery = config.battery_capacity;
        }

        let demand = (duty * config.active_power + (1.0 - duty) * config.sleep_power) * config.slot;
        let sleep_only = config.sleep_power * config.slot;
        if battery >= demand {
            battery -= demand;
            discharged += demand;
            work += duty * config.slot;
        } else {
            // Not enough to run the chosen duty: the node browns out for
            // the slot, paying at most the sleep draw.
            dead_slots += 1;
            let before = battery;
            battery = (battery - sleep_only).max(0.0);
            discharged += before - battery;
        }
        min_battery = min_battery.min(battery);
    }

    HarvestStats {
        work,
        dead_slots,
        total_slots,
        uptime: 1.0 - dead_slots as f64 / total_slots as f64,
        wasted,
        min_battery,
        harvested,
        final_battery: battery,
        policy_evals: total_slots,
        derate_events: 0,
        cycles: discharged / config.battery_capacity,
    }
}

/// Simulates one harvesting node under a composable policy expression.
///
/// The physics — the solar trace, the income/overflow/demand/brown-out
/// sequence and every float operation in it — replicate
/// [`simulate_harvesting`] exactly; only the duty decision is delegated
/// to the compiled [`mns_policy::Evaluator`]. For the primitive
/// expressions (`Fixed`, `Greedy`, `EnergyNeutral`) the result is
/// byte-identical to the reference loop (pinned by differential
/// proptests), so retiring call sites onto this entry point can never
/// change a golden digest.
///
/// # Panics
///
/// Panics on non-positive capacity, slot, or day count.
pub fn simulate_policy(policy: &PolicyExpr, config: &HarvestConfig) -> HarvestStats {
    let _sim_span = mns_telemetry::span("wsn.harvest");
    assert!(config.battery_capacity > 0.0, "capacity must be positive");
    assert!(config.slot > 0.0, "slot must be positive");
    assert!(config.days > 0, "need at least one day");

    let total_slots = ((config.days as f64 * config.solar.day_length / config.slot) as u64).max(1);
    let slots_per_day = ((config.solar.day_length / config.slot) as u64).max(1);
    mns_telemetry::counter_add("wsn.harvest_slots", total_slots);
    let mut eval = policy.evaluator();
    let mut solar = SolarTrace::new(config.solar, config.seed);
    let mut battery = config.battery_capacity * config.initial_fraction.clamp(0.0, 1.0);
    let mut work = 0.0;
    let mut dead_slots = 0u64;
    let mut wasted = 0.0;
    let mut harvested = 0.0;
    let mut discharged = 0.0;
    let mut min_battery = battery;

    for s in 0..total_slots {
        let t = s as f64 * config.slot;
        let harvest_power = solar.power(t);
        let harvest = harvest_power * config.slot;
        harvested += harvest;

        // The policy observes the slot *before* income is credited,
        // matching the reference evaluation order.
        let ctx = SlotCtx {
            slot: s,
            slot_of_day: s % slots_per_day,
            slots_per_day,
            day: s / slots_per_day,
            slot_seconds: config.slot,
            battery,
            capacity: config.battery_capacity,
            battery_fraction: battery / config.battery_capacity,
            harvest_power,
            active_power: config.active_power,
            sleep_power: config.sleep_power,
            discharged,
        };
        let duty = eval.duty(&ctx);

        // Income first (harvest accrues during the slot either way).
        battery += harvest;
        if battery > config.battery_capacity {
            wasted += battery - config.battery_capacity;
            battery = config.battery_capacity;
        }

        let demand = (duty * config.active_power + (1.0 - duty) * config.sleep_power) * config.slot;
        let sleep_only = config.sleep_power * config.slot;
        if battery >= demand {
            battery -= demand;
            discharged += demand;
            work += duty * config.slot;
        } else {
            dead_slots += 1;
            let before = battery;
            battery = (battery - sleep_only).max(0.0);
            discharged += before - battery;
        }
        min_battery = min_battery.min(battery);
    }

    let derate_events = eval.derate_events();
    mns_telemetry::counter_add("wsn.policy_evals", total_slots);
    if derate_events > 0 {
        mns_telemetry::counter_add("wsn.derate_events", derate_events);
    }

    HarvestStats {
        work,
        dead_slots,
        total_slots,
        uptime: 1.0 - dead_slots as f64 / total_slots as f64,
        wasted,
        min_battery,
        harvested,
        final_battery: battery,
        policy_evals: total_slots,
        derate_events,
        cycles: discharged / config.battery_capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solar_is_zero_at_night_and_peaks_midday() {
        let s = SolarModel {
            cloudiness: 0.0,
            ..SolarModel::default()
        };
        assert_eq!(s.power(0.75 * 86_400.0, 1), 0.0);
        let noonish = s.power(0.25 * 86_400.0, 1);
        assert!((noonish - s.peak_power).abs() < 1e-9);
    }

    #[test]
    fn cloudiness_must_be_in_the_unit_interval() {
        for cloudiness in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let error = SolarModel {
                cloudiness,
                ..SolarModel::default()
            }
            .validate()
            .expect_err("rejected");
            assert!(error.contains("cloudiness"), "{error}");
        }
        for cloudiness in [0.0, 0.4, 1.0] {
            let s = SolarModel {
                cloudiness,
                ..SolarModel::default()
            };
            assert_eq!(s.validate(), Ok(()));
        }
    }

    #[test]
    fn trace_power_is_model_power_bit_for_bit() {
        let s = SolarModel::default();
        let mut trace = SolarTrace::new(s, 9);
        // Forward within and across days, then back to an earlier day.
        for t in [0.0, 600.0, 21_600.0, 86_400.0, 90_000.0, 3_000.0, 1e12] {
            assert_eq!(trace.power(t).to_bits(), s.power(t, 9).to_bits(), "t = {t}");
        }
    }

    #[test]
    fn weather_is_deterministic_and_bounded() {
        let s = SolarModel::default();
        for day in 0..20 {
            let w = s.weather(day, 9);
            assert_eq!(w, s.weather(day, 9));
            assert!((1.0 - s.cloudiness..=1.0).contains(&w));
        }
    }

    #[test]
    fn energy_neutral_has_fewer_dead_slots_than_aggressive_fixed() {
        let cfg = HarvestConfig::default();
        let fixed = simulate_harvesting(DutyPolicy::Fixed(0.9), &cfg);
        let neutral = simulate_harvesting(DutyPolicy::EnergyNeutral { alpha: 0.01 }, &cfg);
        assert!(
            neutral.dead_slots < fixed.dead_slots,
            "neutral {} fixed {}",
            neutral.dead_slots,
            fixed.dead_slots
        );
        assert!(neutral.uptime > fixed.uptime);
    }

    #[test]
    fn energy_neutral_does_more_work_than_timid_fixed() {
        let cfg = HarvestConfig::default();
        // A very low fixed duty survives but wastes the solar income.
        let timid = simulate_harvesting(DutyPolicy::Fixed(0.05), &cfg);
        let neutral = simulate_harvesting(DutyPolicy::EnergyNeutral { alpha: 0.01 }, &cfg);
        assert_eq!(timid.dead_slots, 0);
        assert!(neutral.work > timid.work * 2.0);
    }

    #[test]
    fn greedy_sits_between_extremes() {
        let cfg = HarvestConfig::default();
        let greedy = simulate_harvesting(
            DutyPolicy::Greedy {
                threshold: 0.3,
                duty_high: 0.9,
                duty_low: 0.05,
            },
            &cfg,
        );
        let fixed_hi = simulate_harvesting(DutyPolicy::Fixed(0.9), &cfg);
        assert!(greedy.uptime >= fixed_hi.uptime);
    }

    #[test]
    fn wasted_energy_reported_for_oversized_harvest() {
        let cfg = HarvestConfig {
            battery_capacity: 20.0,
            ..HarvestConfig::default()
        };
        let stats = simulate_harvesting(DutyPolicy::Fixed(0.01), &cfg);
        assert!(stats.wasted > 0.0, "tiny battery must overflow at noon");
    }

    #[test]
    fn policy_engine_primitives_match_reference_loop() {
        let cfg = HarvestConfig::default();
        for reference in [
            DutyPolicy::Fixed(0.4),
            DutyPolicy::Greedy {
                threshold: 0.3,
                duty_high: 0.9,
                duty_low: 0.05,
            },
            DutyPolicy::EnergyNeutral { alpha: 0.01 },
        ] {
            let want = simulate_harvesting(reference, &cfg);
            let got = simulate_policy(&PolicyExpr::from(reference), &cfg);
            assert_eq!(want, got, "{}", reference.label());
        }
    }

    #[test]
    fn derate_combinator_reduces_work_and_counts_events() {
        let cfg = HarvestConfig::default();
        let plain = simulate_policy(&PolicyExpr::Fixed(0.6), &cfg);
        let derated = simulate_policy(
            &PolicyExpr::derate(PolicyExpr::Fixed(0.6), 0.3, 0.2).unwrap(),
            &cfg,
        );
        assert!(derated.work < plain.work);
        assert!(derated.derate_events > 0);
        assert_eq!(plain.derate_events, 0);
        assert_eq!(plain.policy_evals, plain.total_slots);
    }

    #[test]
    fn cycles_track_cumulative_discharge() {
        let cfg = HarvestConfig {
            days: 5,
            ..HarvestConfig::default()
        };
        let s = simulate_harvesting(DutyPolicy::Fixed(0.5), &cfg);
        assert!(s.cycles > 0.0);
        // Energy conservation bounds the equivalent cycles: a node cannot
        // discharge more than its initial charge plus everything stored.
        let max_in = cfg.battery_capacity * cfg.initial_fraction + s.harvested;
        assert!(s.cycles <= max_in / cfg.battery_capacity + 1e-9);
    }

    #[test]
    fn stats_invariants() {
        let cfg = HarvestConfig {
            days: 5,
            ..HarvestConfig::default()
        };
        let s = simulate_harvesting(DutyPolicy::Fixed(0.5), &cfg);
        assert_eq!(s.total_slots, (5.0 * 86_400.0 / 600.0) as u64);
        assert!(s.work <= s.total_slots as f64 * cfg.slot);
        assert!((0.0..=1.0).contains(&s.uptime));
        assert!(s.min_battery >= 0.0);
    }
}
