//! Host-speed calibration: a fixed task that shares no code with the
//! kit, timed between passes, so the run can tell how fast the host was.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Grid side of the calibration task.
const SIDE: usize = 64;
/// Shortest-path searches per task.
const SOURCES: usize = 6;
/// The task's best time on the host the bounds were tuned on (2 vCPUs
/// of a shared x86-64 machine). Timings are scaled by this over the
/// run's best task time: seconds at that host's speed.
pub const REFERENCE_S: f64 = 1.7e-3;

/// Seconds one calibration task takes.
pub fn time_task() -> f64 {
    let t0 = Instant::now();
    black_box(task(black_box(0x9e37_79b9_7f4a_7c15)));
    t0.elapsed().as_secs_f64()
}

/// Dijkstra from [`SOURCES`] cells of a seeded [`SIDE`]² grid with a
/// binary heap: branchy integer work on a small heap and vectors, like
/// the kit's routing and scheduling. Returns a checksum of the distances.
fn task(mut state: u64) -> u64 {
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let cells = SIDE * SIDE;
    let cost: Vec<u32> = (0..cells).map(|_| 1 + (next() % 9) as u32).collect();
    let mut checksum = 0u64;
    let mut dist = vec![u32::MAX; cells];
    let mut heap = BinaryHeap::new();
    for _ in 0..SOURCES {
        dist.fill(u32::MAX);
        let source = (next() % cells as u64) as usize;
        dist[source] = 0;
        heap.push(Reverse((0u32, source)));
        while let Some(Reverse((d, cell))) = heap.pop() {
            if d > dist[cell] {
                continue;
            }
            let (x, y) = (cell % SIDE, cell / SIDE);
            let neighbours = [
                (x > 0).then(|| cell - 1),
                (x + 1 < SIDE).then(|| cell + 1),
                (y > 0).then(|| cell - SIDE),
                (y + 1 < SIDE).then(|| cell + SIDE),
            ];
            for n in neighbours.into_iter().flatten() {
                let nd = d + cost[n];
                if nd < dist[n] {
                    dist[n] = nd;
                    heap.push(Reverse((nd, n)));
                }
            }
        }
        checksum = dist.iter().fold(checksum, |acc, &d| {
            acc.wrapping_mul(31).wrapping_add(u64::from(d))
        });
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_is_deterministic() {
        assert_eq!(task(7), task(7));
        assert_ne!(task(7), task(8));
    }
}
