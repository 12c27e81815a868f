//! Explicit state-space analysis ("simulation" in the keynote's
//! simulation-versus-traversal dichotomy).
//!
//! These routines enumerate the packed state space directly. They are exact
//! and simple but exponential in gene count — the point of experiment E5 is
//! to show where they stop scaling and implicit [`symbolic`] traversal takes
//! over.
//!
//! [`symbolic`]: crate::symbolic

use std::collections::HashMap;

use crate::network::{BooleanNetwork, NetworkError, State};

/// Default cap on explicit exhaustive enumeration (2^22 ≈ 4.2 M states).
pub const DEFAULT_EXPLICIT_LIMIT: usize = 22;

/// An attractor of the dynamics: a set of states closed under the update
/// semantics, plus (for synchronous exhaustive search) its basin size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attractor {
    /// The states of the attractor. For synchronous semantics this is the
    /// cycle in temporal order starting from its smallest state; for
    /// asynchronous semantics it is the terminal SCC sorted ascending.
    pub states: Vec<State>,
    /// Number of states whose trajectory ends in this attractor (including
    /// the attractor's own states); `None` when not computed.
    pub basin: Option<u64>,
}

impl Attractor {
    /// Cycle length (1 = fixed point).
    pub fn period(&self) -> usize {
        self.states.len()
    }

    /// Smallest member state — a canonical identifier for comparisons.
    ///
    /// # Panics
    ///
    /// Panics if the attractor has no states (never produced by this
    /// crate).
    pub fn key(&self) -> State {
        *self.states.iter().min().expect("attractor is non-empty")
    }
}

fn check_size(net: &BooleanNetwork, limit: Option<usize>) -> Result<(), NetworkError> {
    let max = limit.unwrap_or(DEFAULT_EXPLICIT_LIMIT);
    if net.len() > max {
        return Err(NetworkError::TooLarge {
            genes: net.len(),
            max,
        });
    }
    Ok(())
}

/// Finds every synchronous attractor by exhaustive trajectory coloring,
/// with exact basin sizes. Attractors are returned sorted by their
/// canonical key.
///
/// `limit` overrides the gene-count cap
/// ([`DEFAULT_EXPLICIT_LIMIT`]).
///
/// # Errors
///
/// Returns [`NetworkError::TooLarge`] when the network exceeds the cap.
pub fn sync_attractors(
    net: &BooleanNetwork,
    limit: Option<usize>,
) -> Result<Vec<Attractor>, NetworkError> {
    check_size(net, limit)?;
    let n_states: u64 = 1 << net.len();
    const UNSEEN: u32 = u32::MAX;
    const IN_PROGRESS: u32 = u32::MAX - 1;
    let mut color = vec![UNSEEN; n_states as usize];
    let mut attractors: Vec<Attractor> = Vec::new();
    let mut basins: Vec<u64> = Vec::new();

    for s0 in 0..n_states {
        if color[s0 as usize] != UNSEEN {
            continue;
        }
        let mut path: Vec<u64> = vec![s0];
        let mut pos: HashMap<u64, usize> = HashMap::new();
        pos.insert(s0, 0);
        color[s0 as usize] = IN_PROGRESS;
        let id;
        loop {
            let cur = *path.last().expect("path is non-empty");
            let next = net.sync_step(State::from_bits(cur)).bits();
            match color[next as usize] {
                UNSEEN => {
                    color[next as usize] = IN_PROGRESS;
                    pos.insert(next, path.len());
                    path.push(next);
                }
                IN_PROGRESS => {
                    // New cycle discovered within the current walk.
                    let start = pos[&next];
                    let cycle: Vec<u64> = path[start..].to_vec();
                    id = attractors.len() as u32;
                    attractors.push(Attractor {
                        states: canonical_cycle(&cycle),
                        basin: Some(0),
                    });
                    basins.push(0);
                    break;
                }
                existing => {
                    id = existing;
                    break;
                }
            }
        }
        for s in &path {
            color[*s as usize] = id;
        }
        basins[id as usize] += path.len() as u64;
    }

    for (a, b) in attractors.iter_mut().zip(&basins) {
        a.basin = Some(*b);
    }
    attractors.sort_by_key(Attractor::key);
    Ok(attractors)
}

/// Rotates a cycle so it starts at its smallest state, preserving temporal
/// order.
fn canonical_cycle(cycle: &[u64]) -> Vec<State> {
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|&(_, s)| s)
        .map(|(i, _)| i)
        .expect("cycle is non-empty");
    cycle[min_pos..]
        .iter()
        .chain(&cycle[..min_pos])
        .map(|&s| State::from_bits(s))
        .collect()
}

/// Finds every asynchronous attractor — the terminal strongly connected
/// components of the one-gene-at-a-time transition graph — via iterative
/// Tarjan SCC.
///
/// # Errors
///
/// Returns [`NetworkError::TooLarge`] when the network exceeds the cap
/// (default [`DEFAULT_EXPLICIT_LIMIT`], async graphs are denser so prefer
/// smaller nets).
pub fn async_attractors(
    net: &BooleanNetwork,
    limit: Option<usize>,
) -> Result<Vec<Attractor>, NetworkError> {
    check_size(net, limit)?;
    let n_states = 1usize << net.len();

    // Iterative Tarjan over the async graph.
    let mut index = vec![u32::MAX; n_states];
    let mut low = vec![0u32; n_states];
    let mut on_stack = vec![false; n_states];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<u32>> = Vec::new();
    let mut scc_of = vec![u32::MAX; n_states];

    #[derive(Debug)]
    struct Frame {
        v: u32,
        succ: Vec<u32>,
        next_child: usize,
    }

    for root in 0..n_states as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        let mut call: Vec<Frame> = Vec::new();
        let succ = |v: u32| -> Vec<u32> {
            net.async_successors(State::from_bits(u64::from(v)))
                .into_iter()
                .map(|s| s.bits() as u32)
                .collect()
        };
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        call.push(Frame {
            v: root,
            succ: succ(root),
            next_child: 0,
        });
        while let Some(frame) = call.last_mut() {
            if frame.next_child < frame.succ.len() {
                let w = frame.succ[frame.next_child];
                frame.next_child += 1;
                if index[w as usize] == u32::MAX {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push(Frame {
                        v: w,
                        succ: succ(w),
                        next_child: 0,
                    });
                } else if on_stack[w as usize] {
                    let v = frame.v;
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                let v = frame.v;
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.v;
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc_of[w as usize] = sccs.len() as u32;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }

    // An SCC is an attractor iff no edge leaves it.
    let mut out = Vec::new();
    'scc: for comp in &sccs {
        let my_id = scc_of[comp[0] as usize];
        for &v in comp {
            for s in net.async_successors(State::from_bits(u64::from(v))) {
                if scc_of[s.bits() as usize] != my_id {
                    continue 'scc;
                }
            }
        }
        let mut states: Vec<State> = comp
            .iter()
            .map(|&v| State::from_bits(u64::from(v)))
            .collect();
        states.sort_unstable();
        out.push(Attractor {
            states,
            basin: None,
        });
    }
    out.sort_by_key(Attractor::key);
    Ok(out)
}

/// Scans all states for fixed points (identical under both semantics).
///
/// # Errors
///
/// Returns [`NetworkError::TooLarge`] when the network exceeds the cap.
pub fn fixed_points(
    net: &BooleanNetwork,
    limit: Option<usize>,
) -> Result<Vec<State>, NetworkError> {
    check_size(net, limit)?;
    let n_states: u64 = 1 << net.len();
    Ok((0..n_states)
        .map(State::from_bits)
        .filter(|&s| net.is_fixed_point(s))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BooleanNetwork;

    fn toggle_pair() -> BooleanNetwork {
        BooleanNetwork::builder()
            .genes(&["a", "b"])
            .rule("a", "!b")
            .unwrap()
            .rule("b", "!a")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn sync_attractors_of_toggle() {
        let net = toggle_pair();
        let atts = sync_attractors(&net, None).unwrap();
        // Two fixed points {a}, {b} and one 2-cycle {00,11}.
        assert_eq!(atts.len(), 3);
        let periods: Vec<usize> = atts.iter().map(Attractor::period).collect();
        assert_eq!(periods.iter().filter(|&&p| p == 1).count(), 2);
        assert_eq!(periods.iter().filter(|&&p| p == 2).count(), 1);
        let total_basin: u64 = atts.iter().map(|a| a.basin.unwrap()).sum();
        assert_eq!(total_basin, 4, "basins partition the state space");
    }

    #[test]
    fn async_attractors_of_toggle() {
        let net = toggle_pair();
        let atts = async_attractors(&net, None).unwrap();
        // Under async semantics the 2-cycle dissolves; only the two fixed
        // points remain.
        assert_eq!(atts.len(), 2);
        assert!(atts.iter().all(|a| a.period() == 1));
    }

    #[test]
    fn fixed_points_match_sync_period_one() {
        let net = toggle_pair();
        let fps = fixed_points(&net, None).unwrap();
        assert_eq!(fps.len(), 2);
        for fp in fps {
            assert!(net.is_fixed_point(fp));
        }
    }

    #[test]
    fn cycle_canonicalization_starts_at_min() {
        let net = BooleanNetwork::builder()
            .genes(&["a", "b", "c"])
            // 3-gene rotation: a←c, b←a, c←b produces 6-cycles & fixed pts.
            .rule("a", "c")
            .unwrap()
            .rule("b", "a")
            .unwrap()
            .rule("c", "b")
            .unwrap()
            .build()
            .unwrap();
        let atts = sync_attractors(&net, None).unwrap();
        for a in &atts {
            assert_eq!(a.states[0], a.key());
        }
        // 000 and 111 fixed; two 3-cycles (001→010→100, 011→110→101).
        assert_eq!(atts.iter().filter(|a| a.period() == 1).count(), 2);
        assert_eq!(atts.iter().filter(|a| a.period() == 3).count(), 2);
    }

    #[test]
    fn too_large_is_reported() {
        let mut b = BooleanNetwork::builder();
        for i in 0..30 {
            b = b.gene(&format!("g{i}"));
        }
        for i in 0..30 {
            b = b
                .rule(&format!("g{i}"), &format!("g{}", (i + 1) % 30))
                .unwrap();
        }
        let net = b.build().unwrap();
        assert!(matches!(
            sync_attractors(&net, None),
            Err(NetworkError::TooLarge { .. })
        ));
        // Explicit override succeeds conceptually but we keep it small here.
        assert!(sync_attractors(&net, Some(8)).is_err());
    }
}
