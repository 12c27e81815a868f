//! Resource-constrained list scheduling of the assay DAG.
//!
//! Classic list scheduling with urgency = downstream critical-path length:
//! at each decision instant, ready operations are started greedily
//! (most-urgent first) if a module can be placed for them, otherwise they
//! wait. A fixed inter-module transport latency separates a producer's
//! completion from its consumers' earliest start; the
//! [`compiler`](crate::compiler) later verifies real droplet routes fit in
//! those gaps and widens the latency if not.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::assay::{Assay, OpId, OpKind};
use crate::geometry::{Cell, Grid};
use crate::modules::{ModuleLibrary, ModuleSpec};
use crate::place::Placer;

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The operation.
    pub op: OpId,
    /// Start tick.
    pub start: u32,
    /// End tick (exclusive; the module is released at `end`).
    pub end: u32,
    /// First tick of the placer reservation: equals `start` for source
    /// operations, or the opening of the landing window for operations
    /// with inputs. The router's obstacle construction reuses this value
    /// so the two subsystems cannot drift apart.
    pub reserve_from: u32,
    /// Module origin on the array.
    pub origin: Cell,
    /// Module shape used.
    pub spec: ModuleSpec,
}

/// A complete schedule for one assay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
    makespan: u32,
    transport_latency: u32,
}

impl Schedule {
    /// Entries indexed by operation id.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// The entry for `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn entry(&self, op: OpId) -> &ScheduleEntry {
        &self.entries[op.0 as usize]
    }

    /// Completion time of the last operation.
    pub fn makespan(&self) -> u32 {
        self.makespan
    }

    /// The transport latency the schedule was built with.
    pub fn transport_latency(&self) -> u32 {
        self.transport_latency
    }
}

/// Scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Ticks reserved between a producer's end and a consumer's start for
    /// droplet transport.
    pub transport_latency: u32,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            transport_latency: 16,
        }
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// An operation could not be placed even on an otherwise empty array
    /// (the grid is simply too small for the module library).
    GridTooSmall(OpId),
    /// The scheduler made no progress (congestion livelock).
    Stuck(OpId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::GridTooSmall(op) => {
                write!(f, "{op} cannot be placed on an empty array")
            }
            ScheduleError::Stuck(op) => write!(f, "scheduler made no progress at {op}"),
        }
    }
}

impl Error for ScheduleError {}

/// Urgency per op: length (in ticks, using fastest modules) of the longest
/// chain from the op to any sink.
fn urgencies(assay: &Assay, library: &ModuleLibrary) -> Vec<u32> {
    let mut urgency = vec![0u32; assay.len()];
    let order = assay.topo_order();
    let consumers = assay.consumers();
    for &id in order.iter().rev() {
        let op = assay.op(id);
        let own = library
            .options(&op.kind)
            .first()
            .map(|m| m.duration)
            .unwrap_or(1);
        let downstream = consumers[id.0 as usize]
            .iter()
            .map(|c| urgency[c.0 as usize])
            .max()
            .unwrap_or(0);
        urgency[id.0 as usize] = own + downstream;
    }
    urgency
}

/// Places a module for an operation of `kind` under its placement rule:
/// dispense and output ports on the array boundary, every other module
/// interior-first.
fn place_op(
    placer: &mut Placer,
    kind: &OpKind,
    spec: ModuleSpec,
    from: u32,
    until: u32,
) -> Option<Cell> {
    if matches!(kind, OpKind::Dispense { .. } | OpKind::Output) {
        placer.place_on_edge(spec, from, until)
    } else {
        placer.place(spec, from, until)
    }
}

/// List-schedules `assay` onto `grid` using `library`, refusing to place
/// any module over the `keepout` cells (faulty electrodes a module cannot
/// actuate).
///
/// # Errors
///
/// Returns [`ScheduleError`] if a module cannot be placed at all (on the
/// degraded array) or the array stays congested forever.
pub fn schedule_with_keepout(
    assay: &Assay,
    grid: &Grid,
    library: &ModuleLibrary,
    config: &ScheduleConfig,
    keepout: &[Cell],
) -> Result<Schedule, ScheduleError> {
    let urgency = urgencies(assay, library);
    let consumers = assay.consumers();
    let mut placer = Placer::with_keepout(*grid, keepout.to_vec());
    let mut entries: Vec<Option<ScheduleEntry>> = vec![None; assay.len()];
    let mut remaining_inputs: Vec<usize> =
        assay.operations().iter().map(|o| o.inputs.len()).collect();
    // Earliest start per op (producers' end + transport).
    let mut earliest: Vec<u32> = vec![0; assay.len()];
    let mut ready: Vec<OpId> = assay
        .operations()
        .iter()
        .filter(|o| o.inputs.is_empty())
        .map(|o| o.id)
        .collect();
    let mut pending = assay.len();
    // Decision instants: candidate times where something may become
    // startable.
    let mut instants: BTreeSet<u32> = BTreeSet::new();
    instants.insert(0);

    let mut makespan = 0;
    let mut guard = 0usize;
    let hard_cap = 4 * assay.len() * assay.len() + 1024;

    while pending > 0 {
        guard += 1;
        if guard > hard_cap {
            let stuck = ready
                .first()
                .copied()
                .unwrap_or_else(|| OpId((assay.len() - 1) as u32));
            return Err(ScheduleError::Stuck(stuck));
        }
        let Some(&now) = instants.iter().next() else {
            let stuck = ready
                .first()
                .copied()
                .unwrap_or_else(|| OpId((assay.len() - 1) as u32));
            return Err(ScheduleError::Stuck(stuck));
        };
        instants.remove(&now);

        // Most-urgent-first among ops whose earliest start has passed.
        ready.sort_by_key(|id| std::cmp::Reverse(urgency[id.0 as usize]));
        let mut still_ready = Vec::new();
        for id in ready.drain(..) {
            let op = assay.op(id);
            if earliest[id.0 as usize] > now {
                instants.insert(earliest[id.0 as usize]);
                still_ready.push(id);
                continue;
            }
            // Try module options fastest-first. Operations with inputs
            // reserve their region from the moment the first input droplet
            // can depart, so landing droplets may park inside it;
            // operations with consumers hold it through the departure
            // window so nothing is placed over an out-bound droplet.
            let reserve_from = if op.inputs.is_empty() {
                now
            } else {
                now.saturating_sub(config.transport_latency)
            };
            let has_consumers = !consumers[id.0 as usize].is_empty();
            let mut placed = false;
            for spec in library.options(&op.kind) {
                let end = now + spec.duration;
                let reserve_until = if has_consumers {
                    end + config.transport_latency
                } else {
                    end
                };
                if let Some(origin) =
                    place_op(&mut placer, &op.kind, spec, reserve_from, reserve_until)
                {
                    entries[id.0 as usize] = Some(ScheduleEntry {
                        op: id,
                        start: now,
                        end,
                        reserve_from,
                        origin,
                        spec,
                    });
                    makespan = makespan.max(end);
                    pending -= 1;
                    for &c in &consumers[id.0 as usize] {
                        remaining_inputs[c.0 as usize] -= 1;
                        earliest[c.0 as usize] =
                            earliest[c.0 as usize].max(end + config.transport_latency);
                        if remaining_inputs[c.0 as usize] == 0 {
                            still_ready.push(c);
                            instants.insert(earliest[c.0 as usize]);
                        }
                    }
                    instants.insert(end);
                    placed = true;
                    mns_telemetry::counter_add("fluidics.ops_placed", 1);
                    break;
                }
            }
            if !placed {
                mns_telemetry::counter_add("fluidics.place_failures", 1);
                // Detect a module that can never fit under its own
                // placement rule, keepout included.
                let empty_fits = library.options(&op.kind).into_iter().any(|spec| {
                    let mut empty = Placer::with_keepout(*grid, keepout.to_vec());
                    place_op(&mut empty, &op.kind, spec, 0, 1).is_some()
                });
                if !empty_fits {
                    return Err(ScheduleError::GridTooSmall(id));
                }
                // Retry at the next release instant.
                let next_release = placer
                    .reservations()
                    .iter()
                    .map(|r| r.until)
                    .filter(|&u| u > now)
                    .min();
                if let Some(u) = next_release {
                    instants.insert(u);
                } else {
                    instants.insert(now + 1);
                }
                still_ready.push(id);
            }
        }
        ready = still_ready;
    }

    let entries: Vec<ScheduleEntry> = entries
        .into_iter()
        .map(|e| e.expect("all ops scheduled"))
        .collect();
    Ok(Schedule {
        entries,
        makespan,
        transport_latency: config.transport_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assay::{multiplex_immunoassay, serial_dilution, Assay};

    /// Schedules on the pristine array: no keepout.
    fn schedule(
        assay: &Assay,
        grid: &Grid,
        library: &ModuleLibrary,
        config: &ScheduleConfig,
    ) -> Result<Schedule, ScheduleError> {
        schedule_with_keepout(assay, grid, library, config, &[])
    }

    fn simple_assay() -> Assay {
        let mut b = Assay::builder();
        let s = b.dispense("s");
        let r = b.dispense("r");
        let m = b.mix(s, r);
        b.detect(m);
        b.build().unwrap()
    }

    #[test]
    fn schedule_respects_dependencies_and_latency() {
        let assay = simple_assay();
        let grid = Grid::new(12, 12).unwrap();
        let cfg = ScheduleConfig::default();
        let sched = schedule(&assay, &grid, &ModuleLibrary::standard(), &cfg).unwrap();
        for op in assay.operations() {
            let e = sched.entry(op.id);
            assert!(e.end > e.start);
            for &p in &op.inputs {
                let pe = sched.entry(p);
                assert!(
                    e.start >= pe.end + cfg.transport_latency,
                    "{} starts at {} before {} + latency",
                    op.id,
                    e.start,
                    pe.end
                );
            }
        }
        assert!(sched.makespan() > 0);
    }

    #[test]
    fn parallel_assay_overlaps_operations() {
        let assay = multiplex_immunoassay(4);
        let grid = Grid::new(16, 16).unwrap();
        let sched = schedule(
            &assay,
            &grid,
            &ModuleLibrary::standard(),
            &ScheduleConfig::default(),
        )
        .unwrap();
        // At least two mixes should overlap in time on a 16×16 array.
        let mixes: Vec<&ScheduleEntry> = assay
            .operations()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Mix))
            .map(|o| sched.entry(o.id))
            .collect();
        let overlapping = mixes.iter().any(|a| {
            mixes
                .iter()
                .any(|b| a.op != b.op && a.start < b.end && b.start < a.end)
        });
        assert!(overlapping, "no mix-level parallelism found");
    }

    #[test]
    fn serial_dilution_schedules_on_modest_grid() {
        let assay = serial_dilution(4);
        let grid = Grid::new(12, 12).unwrap();
        let sched = schedule(
            &assay,
            &grid,
            &ModuleLibrary::standard(),
            &ScheduleConfig::default(),
        )
        .unwrap();
        assert_eq!(sched.entries().len(), assay.len());
    }

    #[test]
    fn ports_sit_on_the_boundary() {
        let assay = simple_assay();
        let grid = Grid::new(12, 12).unwrap();
        let sched = schedule(
            &assay,
            &grid,
            &ModuleLibrary::standard(),
            &ScheduleConfig::default(),
        )
        .unwrap();
        for op in assay.operations() {
            if matches!(op.kind, OpKind::Dispense { .. } | OpKind::Output) {
                let e = sched.entry(op.id);
                let c = e.origin;
                assert!(c.x == 0 || c.y == 0 || c.x == 11 || c.y == 11);
            }
        }
    }

    #[test]
    fn grid_too_small_reported() {
        use crate::modules::ModuleSpec;
        let assay = simple_assay();
        let grid = Grid::new(6, 6).unwrap();
        // A mixer larger than the whole array can never be placed.
        let giant = ModuleLibrary::custom(
            vec![ModuleSpec {
                width: 10,
                height: 10,
                duration: 4,
            }],
            vec![ModuleSpec {
                width: 1,
                height: 3,
                duration: 2,
            }],
            vec![ModuleSpec {
                width: 1,
                height: 1,
                duration: 30,
            }],
            2,
            2,
        );
        let err = schedule(&assay, &grid, &giant, &ScheduleConfig::default()).unwrap_err();
        assert!(matches!(err, ScheduleError::GridTooSmall(_)));
    }

    #[test]
    fn port_with_no_live_boundary_cell_is_reported_as_grid_too_small() {
        // Every boundary cell of an 8×8 array is keepout: the mixer and
        // the detector fit inside, but no dispense port can be placed, so
        // the schedule fails at once rather than at its decision cap.
        let grid = Grid::new(8, 8).unwrap();
        let keepout: Vec<Cell> = grid
            .cells()
            .filter(|c| c.x == 0 || c.y == 0 || c.x == 7 || c.y == 7)
            .collect();
        assert_eq!(keepout.len(), 28);
        for assay in [simple_assay(), multiplex_immunoassay(8)] {
            let err = schedule_with_keepout(
                &assay,
                &grid,
                &ModuleLibrary::standard(),
                &ScheduleConfig::default(),
                &keepout,
            )
            .unwrap_err();
            assert_eq!(err, ScheduleError::GridTooSmall(OpId(0)));
        }
    }

    #[test]
    fn smallest_grid_still_schedules_simple_assay() {
        let assay = simple_assay();
        let grid = Grid::new(3, 3).unwrap();
        let sched = schedule(
            &assay,
            &grid,
            &ModuleLibrary::standard(),
            &ScheduleConfig::default(),
        )
        .unwrap();
        assert_eq!(sched.entries().len(), assay.len());
    }

    #[test]
    fn congestion_serializes_instead_of_failing() {
        // Many mixes on a small array: must still schedule, serialized.
        let assay = multiplex_immunoassay(6);
        let grid = Grid::new(8, 8).unwrap();
        let sched = schedule(
            &assay,
            &grid,
            &ModuleLibrary::compact(),
            &ScheduleConfig::default(),
        )
        .unwrap();
        assert_eq!(sched.entries().len(), assay.len());
    }
}
