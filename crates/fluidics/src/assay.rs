//! Biochemical assays as operation DAGs.
//!
//! An assay is the "program" a lab-on-chip executes: dispense reagents,
//! mix/split/dilute droplets, detect products. Dependencies between
//! operations form a DAG that the [`scheduler`](crate::schedule) maps onto
//! chip resources over time.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of an operation within one assay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The kinds of droplet operations a DMFB supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Introduce a droplet of the named fluid from a reservoir
    /// (0 inputs, 1 output).
    Dispense {
        /// Reagent/sample name, for reporting.
        fluid: String,
    },
    /// Merge two droplets and agitate (2 inputs, 1 output).
    Mix,
    /// Split one droplet into two (1 input, 2 outputs).
    Split,
    /// Mix then split, keeping one product: one dilution step
    /// (2 inputs, 1 output — the waste droplet is discarded on-module).
    Dilute,
    /// Hold a droplet on a sensing site (1 input, 0 outputs).
    Detect,
    /// Move a droplet to a waste/collection port (1 input, 0 outputs).
    Output,
}

impl OpKind {
    /// Number of droplets consumed.
    pub fn arity_in(&self) -> usize {
        match self {
            OpKind::Dispense { .. } => 0,
            OpKind::Mix | OpKind::Dilute => 2,
            OpKind::Split | OpKind::Detect | OpKind::Output => 1,
        }
    }

    /// Number of droplets produced.
    pub fn arity_out(&self) -> usize {
        match self {
            OpKind::Dispense { .. } | OpKind::Mix | OpKind::Dilute => 1,
            OpKind::Split => 2,
            OpKind::Detect | OpKind::Output => 0,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Dispense { fluid } => write!(f, "dispense({fluid})"),
            OpKind::Mix => f.write_str("mix"),
            OpKind::Split => f.write_str("split"),
            OpKind::Dilute => f.write_str("dilute"),
            OpKind::Detect => f.write_str("detect"),
            OpKind::Output => f.write_str("output"),
        }
    }
}

/// One node of the assay DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Identifier within the assay.
    pub id: OpId,
    /// Operation kind.
    pub kind: OpKind,
    /// Producer operations, in input-slot order.
    pub inputs: Vec<OpId>,
}

/// Errors validating an assay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssayError {
    /// An operation references a producer that does not exist.
    UnknownInput(OpId, OpId),
    /// An operation lists itself as one of its own inputs.
    SelfReference(OpId),
    /// Wrong number of inputs for the operation kind.
    Arity {
        /// The ill-formed operation.
        op: OpId,
        /// Inputs required by its kind.
        expected: usize,
        /// Inputs supplied.
        actual: usize,
    },
    /// A producer's droplets are consumed more often than produced.
    OverConsumed(OpId),
    /// The dependency graph has a cycle.
    Cycle,
    /// The assay has no operations.
    Empty,
}

impl fmt::Display for AssayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssayError::UnknownInput(op, input) => {
                write!(f, "{op} references unknown producer {input}")
            }
            AssayError::SelfReference(op) => {
                write!(f, "{op} lists itself as an input")
            }
            AssayError::Arity {
                op,
                expected,
                actual,
            } => write!(f, "{op} expects {expected} inputs, got {actual}"),
            AssayError::OverConsumed(op) => {
                write!(f, "outputs of {op} are consumed more often than produced")
            }
            AssayError::Cycle => f.write_str("assay dependency graph has a cycle"),
            AssayError::Empty => f.write_str("assay has no operations"),
        }
    }
}

impl Error for AssayError {}

/// A validated assay: an acyclic operation graph with consistent droplet
/// flow.
///
/// ```
/// use mns_fluidics::assay::Assay;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Assay::builder();
/// let s = b.dispense("sample");
/// let r = b.dispense("reagent");
/// let m = b.mix(s, r);
/// b.detect(m);
/// let assay = b.build()?;
/// assert_eq!(assay.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assay {
    ops: Vec<Operation>,
}

impl Assay {
    /// Starts building an assay.
    pub fn builder() -> AssayBuilder {
        AssayBuilder::default()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the assay has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operations in id order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// The operation with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are dense, assigned by the
    /// builder).
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.0 as usize]
    }

    /// Consumers of each operation: `consumers()[p]` lists ops taking an
    /// input from `p`.
    pub fn consumers(&self) -> Vec<Vec<OpId>> {
        let mut out = vec![Vec::new(); self.ops.len()];
        for op in &self.ops {
            for &p in &op.inputs {
                out[p.0 as usize].push(op.id);
            }
        }
        out
    }

    /// A topological order of the operations (exists by construction).
    pub fn topo_order(&self) -> Vec<OpId> {
        let mut indegree: Vec<usize> = self.ops.iter().map(|o| o.inputs.len()).collect();
        let consumers = self.consumers();
        let mut queue: Vec<OpId> = self
            .ops
            .iter()
            .filter(|o| o.inputs.is_empty())
            .map(|o| o.id)
            .collect();
        let mut order = Vec::with_capacity(self.ops.len());
        while let Some(id) = queue.pop() {
            order.push(id);
            for &c in &consumers[id.0 as usize] {
                indegree[c.0 as usize] -= 1;
                if indegree[c.0 as usize] == 0 {
                    queue.push(c);
                }
            }
        }
        debug_assert_eq!(order.len(), self.ops.len());
        order
    }

    /// Length (in operations) of the longest dependency chain — the
    /// critical path that lower-bounds any schedule.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.ops.len()];
        for &id in &self.topo_order() {
            let op = &self.ops[id.0 as usize];
            let d = op
                .inputs
                .iter()
                .map(|p| depth[p.0 as usize])
                .max()
                .unwrap_or(0);
            depth[id.0 as usize] = d + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Incremental builder for [`Assay`]. Methods return the id of the newly
/// added operation so protocols compose naturally.
#[derive(Debug, Default)]
pub struct AssayBuilder {
    ops: Vec<Operation>,
}

impl AssayBuilder {
    fn push(&mut self, kind: OpKind, inputs: Vec<OpId>) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Operation { id, kind, inputs });
        id
    }

    /// Adds a dispense of `fluid`.
    pub fn dispense(&mut self, fluid: &str) -> OpId {
        self.push(
            OpKind::Dispense {
                fluid: fluid.to_owned(),
            },
            Vec::new(),
        )
    }

    /// Adds a mix of two droplets.
    pub fn mix(&mut self, a: OpId, b: OpId) -> OpId {
        self.push(OpKind::Mix, vec![a, b])
    }

    /// Adds a binary split. Both downstream consumers reference the same
    /// split id; droplet-flow validation allows up to two consumers.
    pub fn split(&mut self, input: OpId) -> OpId {
        self.push(OpKind::Split, vec![input])
    }

    /// Adds one dilution step (mix + discard half).
    pub fn dilute(&mut self, sample: OpId, buffer: OpId) -> OpId {
        self.push(OpKind::Dilute, vec![sample, buffer])
    }

    /// Adds a detection (terminal).
    pub fn detect(&mut self, input: OpId) -> OpId {
        self.push(OpKind::Detect, vec![input])
    }

    /// Adds an output-to-waste (terminal).
    pub fn output(&mut self, input: OpId) -> OpId {
        self.push(OpKind::Output, vec![input])
    }

    /// Validates and finalizes the assay.
    ///
    /// # Errors
    ///
    /// Returns the first [`AssayError`] found: unknown inputs, arity
    /// mismatches, droplet over-consumption, cycles, or emptiness.
    pub fn build(self) -> Result<Assay, AssayError> {
        if self.ops.is_empty() {
            return Err(AssayError::Empty);
        }
        let n = self.ops.len() as u32;
        let mut consumed: HashMap<OpId, usize> = HashMap::new();
        for op in &self.ops {
            let expected = op.kind.arity_in();
            if op.inputs.len() != expected {
                return Err(AssayError::Arity {
                    op: op.id,
                    expected,
                    actual: op.inputs.len(),
                });
            }
            for &p in &op.inputs {
                if p.0 >= n {
                    return Err(AssayError::UnknownInput(op.id, p));
                }
                if p == op.id {
                    // A self-loop is a degenerate cycle, but it deserves
                    // its own diagnosis: the caller fed an operation its
                    // own id, usually a copy-paste slip.
                    return Err(AssayError::SelfReference(op.id));
                }
                if p.0 > op.id.0 {
                    // Builder ids are assigned in creation order, so any
                    // forward reference would be a cycle.
                    return Err(AssayError::Cycle);
                }
                *consumed.entry(p).or_insert(0) += 1;
            }
        }
        for op in &self.ops {
            let uses = consumed.get(&op.id).copied().unwrap_or(0);
            if uses > op.kind.arity_out() {
                return Err(AssayError::OverConsumed(op.id));
            }
        }
        Ok(Assay { ops: self.ops })
    }
}

/// Expected relative analyte concentration at every operation's output,
/// assuming dispensed samples carry concentration 1.0 and buffers
/// (any fluid named `buffer*`) carry 0.0. Mixing and diluting average the
/// two input concentrations (equal droplet volumes); splitting and
/// detection preserve them.
///
/// This is the calibration math of a dilution ladder: step `k` of
/// [`serial_dilution`] detects concentration `2^-k`.
pub fn concentrations(assay: &Assay) -> Vec<f64> {
    let mut conc = vec![0.0; assay.len()];
    for &id in &assay.topo_order() {
        let op = assay.op(id);
        conc[id.0 as usize] = match &op.kind {
            OpKind::Dispense { fluid } => {
                if fluid.starts_with("buffer") {
                    0.0
                } else {
                    1.0
                }
            }
            OpKind::Mix | OpKind::Dilute => {
                (conc[op.inputs[0].0 as usize] + conc[op.inputs[1].0 as usize]) / 2.0
            }
            OpKind::Split | OpKind::Detect | OpKind::Output => conc[op.inputs[0].0 as usize],
        };
    }
    conc
}

/// Canned protocol: a serial dilution ladder of `steps` steps followed by
/// a detection of each intermediate concentration — the workhorse
/// calibration assay of point-of-care chips.
pub fn serial_dilution(steps: usize) -> Assay {
    let mut b = Assay::builder();
    let mut current = b.dispense("sample");
    for _ in 0..steps {
        let buffer = b.dispense("buffer");
        let diluted = b.dilute(current, buffer);
        // Sample the ladder at this concentration.
        let tap = b.split(diluted);
        b.detect(tap);
        current = tap;
    }
    b.output(current);
    b.build().expect("generated protocol is well-formed")
}

/// Canned protocol: an `n`-plex immunoassay — `n` samples each mixed with
/// a shared-reagent aliquot and detected in parallel (the "parallel
/// scheduling and routing of multiple samples" workload of slide 20).
pub fn multiplex_immunoassay(n: usize) -> Assay {
    let mut b = Assay::builder();
    for i in 0..n {
        let sample = b.dispense(&format!("sample{i}"));
        let reagent = b.dispense("antibody");
        let mixed = b.mix(sample, reagent);
        b.detect(mixed);
    }
    b.build().expect("generated protocol is well-formed")
}

/// Canned protocol: `n` detect→wash→re-detect chains. Each sample binds
/// its antibody, is read, then goes through `wash_steps` wash cycles
/// (dilute with wash buffer, split, re-read) before ending at waste —
/// the shape that forces electrode *reuse* over time, since every chain
/// revisits detection after each wash.
///
/// Shape: `n · (6 + 4·wash_steps)` operations, width `n` parallel
/// chains, critical path `2·wash_steps + 4`.
pub fn washing_protocol(n: usize, wash_steps: usize) -> Assay {
    let mut b = Assay::builder();
    for i in 0..n.max(1) {
        let sample = b.dispense(&format!("sample{i}"));
        let reagent = b.dispense("antibody");
        let bound = b.mix(sample, reagent);
        let mut tap = b.split(bound);
        b.detect(tap);
        for _ in 0..wash_steps {
            let wash = b.dispense("buffer-wash");
            let washed = b.dilute(tap, wash);
            tap = b.split(washed);
            b.detect(tap);
        }
        b.output(tap);
    }
    b.build().expect("generated protocol is well-formed")
}

/// Canned protocol: a balanced multi-reagent reduction tree. `fanin^depth`
/// reagents are dispensed, then combined level by level — each group of
/// `fanin` siblings is folded through binary mixes — until a single
/// product remains and is detected. This is the widest-then-narrowing
/// shape of master-mix preparation.
///
/// Shape: `2·fanin^depth` operations (`fanin^depth` dispenses,
/// `fanin^depth − 1` mixes, one detect), width `fanin^depth`, critical
/// path `depth·(fanin − 1) + 2`. `fanin` is clamped to at least 2.
///
/// # Panics
///
/// Panics if `fanin^depth` overflows `usize`; keep the tree modest.
pub fn mixing_tree(depth: usize, fanin: usize) -> Assay {
    let fanin = fanin.max(2);
    let mut b = Assay::builder();
    let leaves = fanin
        .checked_pow(u32::try_from(depth).expect("depth fits in u32"))
        .expect("fanin^depth fits in usize");
    let mut level: Vec<OpId> = (0..leaves)
        .map(|i| b.dispense(&format!("reagent{i}")))
        .collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / fanin);
        for group in level.chunks(fanin) {
            let mut acc = group[0];
            for &sibling in &group[1..] {
                acc = b.mix(acc, sibling);
            }
            next.push(acc);
        }
        level = next;
    }
    b.detect(level[0]);
    b.build().expect("generated protocol is well-formed")
}

/// Canned protocol: a dilution *gradient* — `rows` independent ladders
/// where row `r` (0-based) dilutes its own sample `r + 1` times before
/// detection, so the detected concentrations span `2^-1 … 2^-rows`.
/// Unlike [`serial_dilution`] the rows share nothing, which makes this
/// the placement stressor: many wide, unequal-length parallel chains.
///
/// Shape: `rows² + 3·rows` operations (row `r` holds `2r + 4`), width
/// `rows` parallel chains, critical path `rows + 2`.
pub fn dilution_gradient(rows: usize) -> Assay {
    let mut b = Assay::builder();
    for r in 0..rows.max(1) {
        let mut current = b.dispense(&format!("sample{r}"));
        for _ in 0..=r {
            let buffer = b.dispense("buffer");
            current = b.dilute(current, buffer);
        }
        b.detect(current);
    }
    b.build().expect("generated protocol is well-formed")
}

/// Which synthetic protocol family a scenario compiles. Every kind is
/// sized by one scale parameter `n` at [`instantiate`](Self::instantiate)
/// time; the variants carry only the *shape* knobs that are not a size.
///
/// | kind | generator | width | critical path |
/// |---|---|---|---|
/// | `Multiplex` | [`multiplex_immunoassay`]`(n)` | `n` | 3 |
/// | `SerialDilution` | [`serial_dilution`]`(n)` | 2 | `2n + 2` |
/// | `Washing { wash_steps }` | [`washing_protocol`]`(n, wash_steps)` | `n` | `2·wash_steps + 4` |
/// | `MixingTree { fanin }` | [`mixing_tree`]`(n, fanin)` | `fanin^n` | `n·(fanin−1) + 2` |
/// | `DilutionGradient` | [`dilution_gradient`]`(n)` | `n` | `n + 2` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AssayKind {
    /// `n` independent mix→detect chains (the original immunoassay).
    #[default]
    Multiplex,
    /// One ladder of `n` dilute→split→detect steps.
    SerialDilution,
    /// `n` detect→wash→re-detect chains of `wash_steps` washes each.
    Washing {
        /// Wash cycles between the first and last read of each sample.
        wash_steps: usize,
    },
    /// A balanced reduction tree of depth `n` (so `fanin^n` reagents).
    MixingTree {
        /// Reagents merged per tree node (clamped to ≥ 2).
        fanin: usize,
    },
    /// `n` independent ladders of increasing length (row `r` dilutes
    /// `r + 1` times).
    DilutionGradient,
}

impl AssayKind {
    /// Builds the protocol of this kind at scale `n` (clamped to ≥ 1, so
    /// instantiation is total — a zero-sized scenario still produces a
    /// valid one-sample assay).
    pub fn instantiate(self, n: usize) -> Assay {
        let n = n.max(1);
        match self {
            AssayKind::Multiplex => multiplex_immunoassay(n),
            AssayKind::SerialDilution => serial_dilution(n),
            AssayKind::Washing { wash_steps } => washing_protocol(n, wash_steps),
            AssayKind::MixingTree { fanin } => mixing_tree(n, fanin),
            AssayKind::DilutionGradient => dilution_gradient(n),
        }
    }

    /// Checks that `n` is a scale [`instantiate`](Self::instantiate) builds
    /// as given: at least 1. A scale of 0 would run as 1 under the label
    /// of 0.
    ///
    /// # Errors
    ///
    /// Returns a message naming the kind and the scale.
    pub fn validate_scale(self, n: usize) -> Result<(), String> {
        if n == 0 {
            return Err(format!("{}: scale 0 is below 1", self.describe(n)));
        }
        Ok(())
    }

    /// Stable label fragment naming the kind at scale `n` (used in golden
    /// corpus labels, so the `Multiplex` spelling must stay `plex{n}`).
    pub fn describe(self, n: usize) -> String {
        match self {
            AssayKind::Multiplex => format!("plex{n}"),
            AssayKind::SerialDilution => format!("dilution{n}"),
            AssayKind::Washing { wash_steps } => format!("wash{n}x{wash_steps}"),
            AssayKind::MixingTree { fanin } => format!("mixtree{n}f{fanin}"),
            AssayKind::DilutionGradient => format!("gradient{n}"),
        }
    }

    /// Every kind with small representative shape knobs — the sweep axis
    /// used by examples and experiment tables.
    pub fn catalog() -> Vec<AssayKind> {
        vec![
            AssayKind::Multiplex,
            AssayKind::SerialDilution,
            AssayKind::Washing { wash_steps: 2 },
            AssayKind::MixingTree { fanin: 2 },
            AssayKind::DilutionGradient,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_assay() {
        let mut b = Assay::builder();
        let s = b.dispense("s");
        let r = b.dispense("r");
        let m = b.mix(s, r);
        b.detect(m);
        let a = b.build().unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.op(m).inputs, vec![s, r]);
        assert_eq!(a.critical_path_len(), 3);
    }

    #[test]
    fn split_feeds_two_consumers() {
        let mut b = Assay::builder();
        let s = b.dispense("s");
        let sp = b.split(s);
        b.detect(sp);
        b.output(sp);
        assert!(b.build().is_ok());
    }

    #[test]
    fn over_consumption_detected() {
        let mut b = Assay::builder();
        let s = b.dispense("s");
        b.detect(s);
        b.output(s); // dispense produces one droplet, consumed twice
        assert_eq!(b.build().unwrap_err(), AssayError::OverConsumed(OpId(0)));
    }

    #[test]
    fn empty_assay_rejected() {
        assert_eq!(Assay::builder().build().unwrap_err(), AssayError::Empty);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let a = serial_dilution(4);
        let order = a.topo_order();
        assert_eq!(order.len(), a.len());
        let position: HashMap<OpId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for op in a.operations() {
            for &p in &op.inputs {
                assert!(position[&p] < position[&op.id]);
            }
        }
    }

    #[test]
    fn canned_protocols_shape() {
        let d = serial_dilution(3);
        // 1 sample + per step (buffer + dilute + split + detect) + output.
        assert_eq!(d.len(), 1 + 3 * 4 + 1);
        let m = multiplex_immunoassay(5);
        assert_eq!(m.len(), 5 * 4);
        assert_eq!(m.critical_path_len(), 3);
    }

    #[test]
    fn washing_protocol_shape() {
        for (n, w) in [(1, 0), (2, 1), (3, 2), (2, 4)] {
            let a = washing_protocol(n, w);
            assert_eq!(a.len(), n * (6 + 4 * w), "ops for n={n} w={w}");
            assert_eq!(a.critical_path_len(), 2 * w + 4, "cp for n={n} w={w}");
            let detects = a
                .operations()
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Detect))
                .count();
            assert_eq!(detects, n * (w + 1), "each wash re-reads every sample");
        }
        // Zero-sized request degrades to one sample, never an empty assay.
        assert_eq!(washing_protocol(0, 1).len(), 10);
    }

    #[test]
    fn mixing_tree_shape() {
        for (depth, fanin) in [(0, 2), (1, 2), (3, 2), (2, 3), (1, 4)] {
            let leaves = fanin_pow(fanin, depth);
            let a = mixing_tree(depth, fanin);
            assert_eq!(a.len(), 2 * leaves, "ops for depth={depth} fanin={fanin}");
            assert_eq!(
                a.critical_path_len(),
                depth * (fanin - 1) + 2,
                "cp for depth={depth} fanin={fanin}"
            );
            let mixes = a
                .operations()
                .iter()
                .filter(|o| matches!(o.kind, OpKind::Mix))
                .count();
            assert_eq!(mixes, leaves - 1, "a reduction tree has leaves-1 mixes");
        }
        // Degenerate fanin clamps to binary.
        assert_eq!(mixing_tree(2, 0), mixing_tree(2, 2));
    }

    fn fanin_pow(fanin: usize, depth: usize) -> usize {
        fanin.pow(depth as u32)
    }

    #[test]
    fn dilution_gradient_shape_and_concentrations() {
        for rows in [1usize, 2, 4] {
            let a = dilution_gradient(rows);
            assert_eq!(a.len(), rows * rows + 3 * rows, "ops for rows={rows}");
            assert_eq!(a.critical_path_len(), rows + 2, "cp for rows={rows}");
        }
        // Row r is diluted r+1 times, so detects read 2^-1 … 2^-rows.
        let a = dilution_gradient(4);
        let conc = concentrations(&a);
        let detected: Vec<f64> = a
            .operations()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Detect))
            .map(|o| conc[o.inputs[0].0 as usize])
            .collect();
        assert_eq!(detected.len(), 4);
        for (r, &c) in detected.iter().enumerate() {
            let expect = 0.5f64.powi(r as i32 + 1);
            assert!((c - expect).abs() < 1e-12, "row {r}: {c} vs {expect}");
        }
    }

    #[test]
    fn assay_kind_instantiates_every_family() {
        for kind in AssayKind::catalog() {
            let a = kind.instantiate(3);
            assert!(!a.is_empty(), "{kind:?} at n=3");
            // Zero scale clamps to one instead of failing validation.
            assert!(!kind.instantiate(0).is_empty(), "{kind:?} at n=0");
        }
        assert_eq!(AssayKind::default(), AssayKind::Multiplex);
        assert_eq!(AssayKind::Multiplex.describe(2), "plex2");
        assert_eq!(AssayKind::SerialDilution.describe(3), "dilution3");
        assert_eq!(AssayKind::Washing { wash_steps: 2 }.describe(3), "wash3x2");
        assert_eq!(AssayKind::MixingTree { fanin: 2 }.describe(3), "mixtree3f2");
        assert_eq!(AssayKind::DilutionGradient.describe(4), "gradient4");
    }

    #[test]
    fn unknown_input_rejected() {
        let mut b = Assay::builder();
        let s = b.dispense("s");
        b.detect(s);
        // Forge a reference to an id the builder never handed out.
        b.detect(OpId(99));
        assert_eq!(
            b.build().unwrap_err(),
            AssayError::UnknownInput(OpId(2), OpId(99))
        );
    }

    #[test]
    fn self_reference_rejected() {
        let mut b = Assay::builder();
        b.dispense("s");
        // The next id the builder will assign is 1 — feed it to itself.
        b.detect(OpId(1));
        assert_eq!(b.build().unwrap_err(), AssayError::SelfReference(OpId(1)));
    }

    #[test]
    fn forward_reference_rejected_as_cycle() {
        let mut b = Assay::builder();
        b.dispense("s");
        // op1 consumes op2 (in range once op2 exists) — a cycle seed.
        b.detect(OpId(2));
        b.split(OpId(0));
        assert_eq!(b.build().unwrap_err(), AssayError::Cycle);
    }

    #[test]
    fn rejection_errors_display() {
        assert_eq!(
            AssayError::SelfReference(OpId(4)).to_string(),
            "op4 lists itself as an input"
        );
        assert_eq!(
            AssayError::UnknownInput(OpId(1), OpId(9)).to_string(),
            "op1 references unknown producer op9"
        );
    }

    #[test]
    fn dilution_ladder_concentrations_halve() {
        let assay = serial_dilution(4);
        let conc = concentrations(&assay);
        // Each detect sees half of the previous step's concentration.
        let detected: Vec<f64> = assay
            .operations()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Detect))
            .map(|o| conc[o.inputs[0].0 as usize])
            .collect();
        assert_eq!(detected.len(), 4);
        for (k, &c) in detected.iter().enumerate() {
            let expect = 0.5f64.powi(k as i32 + 1);
            assert!((c - expect).abs() < 1e-12, "step {k}: {c} vs {expect}");
        }
    }

    #[test]
    fn mix_concentration_averages_inputs() {
        let mut b = Assay::builder();
        let s = b.dispense("sample");
        let w = b.dispense("buffer");
        let m = b.mix(s, w);
        b.detect(m);
        let assay = b.build().unwrap();
        let conc = concentrations(&assay);
        assert_eq!(conc[s.0 as usize], 1.0);
        assert_eq!(conc[w.0 as usize], 0.0);
        assert_eq!(conc[m.0 as usize], 0.5);
    }

    #[test]
    fn arity_display_and_accessors() {
        assert_eq!(OpKind::Mix.arity_in(), 2);
        assert_eq!(OpKind::Split.arity_out(), 2);
        assert_eq!(
            OpKind::Dispense { fluid: "x".into() }.to_string(),
            "dispense(x)"
        );
        assert_eq!(OpId(3).to_string(), "op3");
    }
}
