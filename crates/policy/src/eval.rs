//! The run-time side of the engine: compiled, stateful evaluators.

use crate::ctx::SlotCtx;
use crate::expr::PolicyExpr;

/// A run-time energy-management policy: one duty-cycle decision per
/// slot, from the slot context and the policy's own accumulated state.
///
/// Implementations must be deterministic — same state, same context,
/// same answer — and must return a value in `[0, 1]`.
pub trait Policy {
    /// Chooses the duty cycle for one slot.
    fn duty(&mut self, ctx: &SlotCtx) -> f64;
}

/// A [`PolicyExpr`] compiled into a stateful evaluator.
///
/// Each EWMA, forecast bucket, hysteresis mode and derate counter lives
/// in the evaluator, not the expression, so one expression can be
/// compiled once per node and the nodes never share state.
#[derive(Debug, Clone)]
pub struct Evaluator {
    node: Node,
}

#[derive(Debug, Clone)]
enum Node {
    Fixed(f64),
    Greedy {
        threshold: f64,
        duty_high: f64,
        duty_low: f64,
    },
    EnergyNeutral {
        alpha: f64,
        ewma: f64,
    },
    Forecast {
        alpha: f64,
        // One harvest-power EWMA per slot-of-day, grown lazily to
        // `ctx.slots_per_day`. Starting every bucket at zero matches
        // the energy-neutral cold start.
        buckets: Vec<f64>,
    },
    Derate {
        inner: Box<Node>,
        fade: f64,
        floor: f64,
        events: u64,
    },
    Hysteresis {
        low: f64,
        high: f64,
        on: Box<Node>,
        off: Box<Node>,
        engaged: bool,
    },
    Scheduled {
        pieces: Vec<(u64, Node)>,
    },
    Clamp {
        inner: Box<Node>,
        lo: f64,
        hi: f64,
    },
}

fn compile(expr: &PolicyExpr) -> Node {
    match expr {
        PolicyExpr::Fixed(d) => Node::Fixed(*d),
        PolicyExpr::Greedy {
            threshold,
            duty_high,
            duty_low,
        } => Node::Greedy {
            threshold: *threshold,
            duty_high: *duty_high,
            duty_low: *duty_low,
        },
        PolicyExpr::EnergyNeutral { alpha } => Node::EnergyNeutral {
            alpha: *alpha,
            ewma: 0.0,
        },
        PolicyExpr::Forecast { alpha } => Node::Forecast {
            alpha: *alpha,
            buckets: Vec::new(),
        },
        PolicyExpr::Derate { inner, fade, floor } => Node::Derate {
            inner: Box::new(compile(inner)),
            fade: *fade,
            floor: *floor,
            events: 0,
        },
        PolicyExpr::Hysteresis { low, high, on, off } => Node::Hysteresis {
            low: *low,
            high: *high,
            on: Box::new(compile(on)),
            off: Box::new(compile(off)),
            engaged: true,
        },
        PolicyExpr::Scheduled { pieces } => Node::Scheduled {
            pieces: pieces.iter().map(|(d, p)| (*d, compile(p))).collect(),
        },
        PolicyExpr::Clamp { inner, lo, hi } => Node::Clamp {
            inner: Box::new(compile(inner)),
            lo: *lo,
            hi: *hi,
        },
    }
}

/// Brown-out derating shared by the EWMA-family primitives: linear
/// fade-out below 20 % of capacity. The float ops replicate the
/// historical inline loop exactly.
fn brownout(base: f64, ctx: &SlotCtx) -> f64 {
    let fraction = ctx.battery / ctx.capacity;
    if fraction < 0.2 {
        base * (fraction / 0.2)
    } else {
        base
    }
}

impl Node {
    fn duty(&mut self, ctx: &SlotCtx) -> f64 {
        match self {
            Node::Fixed(d) => d.clamp(0.0, 1.0),
            Node::Greedy {
                threshold,
                duty_high,
                duty_low,
            } => {
                if ctx.battery >= *threshold * ctx.capacity {
                    duty_high.clamp(0.0, 1.0)
                } else {
                    duty_low.clamp(0.0, 1.0)
                }
            }
            Node::EnergyNeutral { alpha, ewma } => {
                *ewma = *alpha * ctx.harvest_power + (1.0 - *alpha) * *ewma;
                let base = (*ewma / ctx.active_power).clamp(0.0, 1.0);
                brownout(base, ctx)
            }
            Node::Forecast { alpha, buckets } => {
                let n = ctx.slots_per_day.max(1) as usize;
                if buckets.len() < n {
                    buckets.resize(n, 0.0);
                }
                let k = (ctx.slot_of_day as usize) % n;
                buckets[k] = *alpha * ctx.harvest_power + (1.0 - *alpha) * buckets[k];
                let base = (buckets[k] / ctx.active_power).clamp(0.0, 1.0);
                brownout(base, ctx)
            }
            Node::Derate {
                inner,
                fade,
                floor,
                events,
            } => {
                let d = inner.duty(ctx);
                let cycles = if ctx.capacity > 0.0 {
                    ctx.discharged / ctx.capacity
                } else {
                    0.0
                };
                let health = (1.0 - *fade * cycles).max(*floor);
                if health < 1.0 {
                    *events += 1;
                }
                d * health
            }
            Node::Hysteresis {
                low,
                high,
                on,
                off,
                engaged,
            } => {
                if *engaged && ctx.battery_fraction <= *low {
                    *engaged = false;
                } else if !*engaged && ctx.battery_fraction >= *high {
                    *engaged = true;
                }
                // Both branches tick so a mode switch lands on a warm
                // estimator instead of a cold EWMA.
                let d_on = on.duty(ctx);
                let d_off = off.duty(ctx);
                if *engaged {
                    d_on
                } else {
                    d_off
                }
            }
            Node::Scheduled { pieces } => {
                let mut active = 0;
                for (k, (start, _)) in pieces.iter().enumerate() {
                    if *start <= ctx.day {
                        active = k;
                    }
                }
                pieces[active].1.duty(ctx)
            }
            Node::Clamp { inner, lo, hi } => inner.duty(ctx).clamp(*lo, *hi),
        }
    }

    fn derate_events(&self) -> u64 {
        match self {
            Node::Fixed(_)
            | Node::Greedy { .. }
            | Node::EnergyNeutral { .. }
            | Node::Forecast { .. } => 0,
            Node::Derate { inner, events, .. } => *events + inner.derate_events(),
            Node::Hysteresis { on, off, .. } => on.derate_events() + off.derate_events(),
            Node::Scheduled { pieces } => pieces.iter().map(|(_, p)| p.derate_events()).sum(),
            Node::Clamp { inner, .. } => inner.derate_events(),
        }
    }
}

impl Evaluator {
    /// Total slots (across the whole tree) in which battery-health
    /// derating actually reduced the duty. Feeds the
    /// `wsn.derate_events` telemetry counter and `HarvestStats`.
    pub fn derate_events(&self) -> u64 {
        self.node.derate_events()
    }
}

impl Policy for Evaluator {
    fn duty(&mut self, ctx: &SlotCtx) -> f64 {
        // Primitives already clamp; this outer clamp is an identity on
        // any in-range value (byte-identical), and a hard guarantee on
        // the trait contract for anything that slips through.
        self.node.duty(ctx).clamp(0.0, 1.0)
    }
}

impl PolicyExpr {
    /// Compiles the expression into a fresh stateful [`Evaluator`].
    pub fn evaluator(&self) -> Evaluator {
        Evaluator {
            node: compile(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(battery: f64, harvest: f64, slot: u64, discharged: f64) -> SlotCtx {
        let spd = 144;
        SlotCtx {
            slot,
            slot_of_day: slot % spd,
            slots_per_day: spd,
            day: slot / spd,
            slot_seconds: 600.0,
            battery,
            capacity: 800.0,
            battery_fraction: battery / 800.0,
            harvest_power: harvest,
            active_power: 0.06,
            sleep_power: 0.001,
            discharged,
        }
    }

    #[test]
    fn fixed_and_greedy_match_reference_arithmetic() {
        let mut f = PolicyExpr::Fixed(0.37).evaluator();
        assert_eq!(
            f.duty(&ctx_with(400.0, 0.0, 0, 0.0)),
            0.37f64.clamp(0.0, 1.0)
        );

        let mut g = PolicyExpr::Greedy {
            threshold: 0.3,
            duty_high: 0.9,
            duty_low: 0.05,
        }
        .evaluator();
        assert_eq!(g.duty(&ctx_with(400.0, 0.0, 0, 0.0)), 0.9);
        assert_eq!(g.duty(&ctx_with(100.0, 0.0, 1, 0.0)), 0.05);
        // Boundary: >= keeps the high mode exactly at the threshold.
        assert_eq!(g.duty(&ctx_with(0.3 * 800.0, 0.0, 2, 0.0)), 0.9);
    }

    #[test]
    fn energy_neutral_replicates_inline_ewma() {
        let alpha = 0.05;
        let mut e = PolicyExpr::EnergyNeutral { alpha }.evaluator();
        let mut ewma = 0.0f64;
        for (s, &(b, h)) in [(400.0, 0.02), (400.0, 0.05), (100.0, 0.04), (40.0, 0.0)]
            .iter()
            .enumerate()
        {
            let got = e.duty(&ctx_with(b, h, s as u64, 0.0));
            ewma = alpha * h + (1.0 - alpha) * ewma;
            let base = (ewma / 0.06).clamp(0.0, 1.0);
            let fraction = b / 800.0;
            let want = if fraction < 0.2 {
                base * (fraction / 0.2)
            } else {
                base
            };
            assert_eq!(got.to_bits(), want.to_bits(), "slot {s}");
        }
    }

    #[test]
    fn forecast_anticipates_the_diurnal_profile() {
        let mut f = PolicyExpr::Forecast { alpha: 0.5 }.evaluator();
        let mut e = PolicyExpr::EnergyNeutral { alpha: 0.5 }.evaluator();
        // Two days: sunny at slot 10, dark at slot 100. By day 1 the
        // forecast's slot-10 bucket remembers yesterday's sun even
        // though the preceding slots were dark; the plain EWMA's single
        // estimate has decayed toward darkness.
        let spd = 144u64;
        let mut last_forecast = 0.0;
        let mut last_neutral = 0.0;
        for day in 0..2u64 {
            for sod in 0..spd {
                let h = if sod == 10 { 0.06 } else { 0.0 };
                let ctx = SlotCtx {
                    slot: day * spd + sod,
                    slot_of_day: sod,
                    slots_per_day: spd,
                    day,
                    slot_seconds: 600.0,
                    battery: 600.0,
                    capacity: 800.0,
                    battery_fraction: 0.75,
                    harvest_power: h,
                    active_power: 0.06,
                    sleep_power: 0.001,
                    discharged: 0.0,
                };
                let df = f.duty(&ctx);
                let dn = e.duty(&ctx);
                if day == 1 && sod == 10 {
                    last_forecast = df;
                    last_neutral = dn;
                }
            }
        }
        assert!(
            last_forecast > last_neutral,
            "forecast {last_forecast} should beat trailing ewma {last_neutral} at the sunny slot"
        );
    }

    #[test]
    fn derate_fades_with_cycle_depth_and_counts_events() {
        let expr = PolicyExpr::derate(PolicyExpr::Fixed(1.0), 0.2, 0.5).unwrap();
        let mut e = expr.evaluator();
        // No discharge yet: full duty, no event.
        assert_eq!(e.duty(&ctx_with(400.0, 0.0, 0, 0.0)), 1.0);
        assert_eq!(e.derate_events(), 0);
        // One equivalent full cycle: health 0.8.
        let d = e.duty(&ctx_with(400.0, 0.0, 1, 800.0));
        assert!((d - 0.8).abs() < 1e-12);
        assert_eq!(e.derate_events(), 1);
        // Deep fade clamps at the floor.
        let d = e.duty(&ctx_with(400.0, 0.0, 2, 80_000.0));
        assert_eq!(d, 0.5);
        assert_eq!(e.derate_events(), 2);
    }

    #[test]
    fn hysteresis_does_not_flap_inside_the_band() {
        let expr =
            PolicyExpr::hysteresis(0.25, 0.6, PolicyExpr::Fixed(0.9), PolicyExpr::Fixed(0.1))
                .unwrap();
        let mut e = expr.evaluator();
        assert_eq!(e.duty(&ctx_with(640.0, 0.0, 0, 0.0)), 0.9); // 80 %: on
        assert_eq!(e.duty(&ctx_with(320.0, 0.0, 1, 0.0)), 0.9); // 40 %: still on
        assert_eq!(e.duty(&ctx_with(160.0, 0.0, 2, 0.0)), 0.1); // 20 %: tripped
        assert_eq!(e.duty(&ctx_with(320.0, 0.0, 3, 0.0)), 0.1); // 40 %: stays off
        assert_eq!(e.duty(&ctx_with(520.0, 0.0, 4, 0.0)), 0.9); // 65 %: re-armed
    }

    #[test]
    fn scheduled_switches_on_day_boundaries() {
        let expr = PolicyExpr::Scheduled {
            pieces: vec![(0, PolicyExpr::Fixed(0.8)), (2, PolicyExpr::Fixed(0.2))],
        };
        assert!(expr.validate().is_ok());
        let mut e = expr.evaluator();
        let spd = 144;
        assert_eq!(e.duty(&ctx_with(400.0, 0.0, 0, 0.0)), 0.8);
        assert_eq!(e.duty(&ctx_with(400.0, 0.0, spd, 0.0)), 0.8);
        assert_eq!(e.duty(&ctx_with(400.0, 0.0, 2 * spd, 0.0)), 0.2);
        assert_eq!(e.duty(&ctx_with(400.0, 0.0, 5 * spd, 0.0)), 0.2);
    }

    #[test]
    fn clamp_bounds_the_inner_duty() {
        let expr = PolicyExpr::clamp(PolicyExpr::Fixed(0.9), 0.1, 0.5).unwrap();
        let mut e = expr.evaluator();
        assert_eq!(e.duty(&ctx_with(400.0, 0.0, 0, 0.0)), 0.5);
        let expr = PolicyExpr::clamp(PolicyExpr::Fixed(0.0), 0.1, 0.5).unwrap();
        let mut e = expr.evaluator();
        assert_eq!(e.duty(&ctx_with(400.0, 0.0, 0, 0.0)), 0.1);
    }

    #[test]
    fn evaluators_are_independent_per_compile() {
        let expr = PolicyExpr::EnergyNeutral { alpha: 0.5 };
        let mut a = expr.evaluator();
        let mut b = expr.evaluator();
        a.duty(&ctx_with(400.0, 0.06, 0, 0.0));
        // b was never ticked; its EWMA is still cold.
        let db = b.duty(&ctx_with(400.0, 0.0, 1, 0.0));
        assert_eq!(db, 0.0);
    }
}
