//! Named counters and histograms.
//!
//! Counters are monotonic `u64` accumulators; histograms record value
//! distributions in power-of-two buckets with exact count/sum/min/max.
//! Both live in process-wide registries keyed by name (`BTreeMap`, so
//! every snapshot iterates in one deterministic order). When telemetry
//! is disabled the record functions return before touching any lock or
//! allocating the name.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Power-of-two bucket count: bucket `i` holds values whose bit length
/// is `i` (bucket 0 is the value zero, the last bucket is everything
/// with 63+ significant bits).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket histogram with exact summary statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Power-of-two buckets by bit length of the value.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Adds one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket.min(HISTOGRAM_BUCKETS - 1)] += 1;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<String, Histogram>> = Mutex::new(BTreeMap::new());

pub(crate) fn counter_add(name: &str, delta: u64) {
    let mut counters = COUNTERS.lock().expect("counter registry lock");
    match counters.get_mut(name) {
        Some(v) => *v = v.saturating_add(delta),
        None => {
            counters.insert(name.to_owned(), delta);
        }
    }
}

pub(crate) fn observe(name: &str, value: u64) {
    let mut hists = HISTOGRAMS.lock().expect("histogram registry lock");
    match hists.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::default();
            h.record(value);
            hists.insert(name.to_owned(), h);
        }
    }
}

/// First line of [`MetricsSnapshot::to_text`].
const SNAPSHOT_HEADER: &str = "# mns-telemetry metrics snapshot v2";

/// A point-in-time copy of every counter and histogram, in name order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// One counter's value (0 when absent — a counter never incremented
    /// is indistinguishable from one at zero).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Plain-text rendering, one metric per line in name order: the unit
    /// of regression diffing and the form worker processes ship.
    /// Lossless: [`from_text`](MetricsSnapshot::from_text) reads it back
    /// exactly. A histogram line carries the raw `min` (`u64::MAX` when
    /// empty) and its non-empty buckets as `<bit length>:<count>` pairs:
    ///
    /// ```text
    /// # mns-telemetry metrics snapshot v2
    /// counter wsn.harvest_slots 1440
    /// hist runner.evaluate_ns count=3 sum=150000 min=102 max=99021 buckets=7:1,16:1,17:1
    /// ```
    ///
    /// Metric names must not contain whitespace (names in this workspace
    /// are dotted identifiers).
    pub fn to_text(&self) -> String {
        let mut out = format!("{SNAPSHOT_HEADER}\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = (0..HISTOGRAM_BUCKETS)
                .filter(|&i| h.buckets[i] != 0)
                .map(|i| format!("{i}:{}", h.buckets[i]))
                .collect();
            out.push_str(&format!(
                "hist {name} count={} sum={} min={} max={} buckets={}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(",")
            ));
        }
        out
    }

    /// Parses a rendering produced by [`to_text`](MetricsSnapshot::to_text).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<MetricsSnapshot, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(SNAPSHOT_HEADER) => {}
            other => return Err(format!("bad snapshot header: {other:?}")),
        }
        let mut snap = MetricsSnapshot::default();
        for (i, line) in lines.enumerate() {
            let bad = |what: &str| format!("line {}: {what} in `{line}`", i + 2);
            let value = |token: &str, key: &str| -> Result<u64, String> {
                token
                    .strip_prefix(key)
                    .and_then(|rest| rest.strip_prefix('='))
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(&format!("bad `{key}=`")))
            };
            let repeated = match line.split_whitespace().collect::<Vec<_>>()[..] {
                [] => false,
                ["counter", name, count] => {
                    let count = count.parse().map_err(|_| bad("bad counter value"))?;
                    snap.counters.insert(name.to_owned(), count).is_some()
                }
                ["hist", name, count, sum, min, max, buckets] => {
                    let mut h = Histogram {
                        count: value(count, "count")?,
                        sum: value(sum, "sum")?,
                        min: value(min, "min")?,
                        max: value(max, "max")?,
                        buckets: [0; HISTOGRAM_BUCKETS],
                    };
                    let pairs = buckets
                        .strip_prefix("buckets=")
                        .ok_or_else(|| bad("bad `buckets=`"))?;
                    for pair in pairs.split_terminator(',') {
                        let (bucket, n) = pair.split_once(':').ok_or_else(|| bad("bad bucket"))?;
                        let bucket = bucket
                            .parse::<usize>()
                            .ok()
                            .filter(|&b| b < HISTOGRAM_BUCKETS)
                            .ok_or_else(|| bad("bad bucket index"))?;
                        h.buckets[bucket] = n.parse().map_err(|_| bad("bad bucket count"))?;
                    }
                    snap.histograms.insert(name.to_owned(), h).is_some()
                }
                _ => return Err(bad("unknown record")),
            };
            if repeated {
                return Err(bad("repeated metric"));
            }
        }
        Ok(snap)
    }

    /// Folds another snapshot into this one: counters are summed
    /// (saturating), histograms merged bucket-wise. Associative and
    /// order-insensitive, so per-shard snapshots from worker processes
    /// merge to the same aggregate in any order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

pub(crate) fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: COUNTERS.lock().expect("counter registry lock").clone(),
        histograms: HISTOGRAMS.lock().expect("histogram registry lock").clone(),
    }
}

pub(crate) fn clear() {
    COUNTERS.lock().expect("counter registry lock").clear();
    HISTOGRAMS.lock().expect("histogram registry lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[10], 1); // 1000
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::default();
        a.record(4);
        let mut b = Histogram::default();
        b.record(16);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.sum, 20);
        assert_eq!(a.min, 4);
        assert_eq!(a.max, 16);
    }

    #[test]
    fn text_round_trips_losslessly() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.b".to_owned(), 23);
        snap.counters.insert("a.max".to_owned(), u64::MAX);
        let mut h = Histogram::default();
        for v in [0u64, 1, 7, 1000, u64::MAX] {
            h.record(v);
        }
        snap.histograms.insert("c.d_ns".to_owned(), h);
        // An empty histogram (min = u64::MAX sentinel) must survive too.
        snap.histograms
            .insert("c.empty_ns".to_owned(), Histogram::default());
        let text = snap.to_text();
        assert_eq!(MetricsSnapshot::from_text(&text), Ok(snap));
        assert_eq!(
            MetricsSnapshot::from_text(&MetricsSnapshot::default().to_text()),
            Ok(MetricsSnapshot::default())
        );
    }

    #[test]
    fn from_text_rejects_malformed_snapshots() {
        let v2 = "# mns-telemetry metrics snapshot v2";
        let hist = "hist h count=1 sum=3 min=3 max=3";
        for (text, why) in [
            ("garbage".to_owned(), "no header"),
            (
                "# mns-telemetry metrics snapshot v1\ncounter a 1\n".to_owned(),
                "v1 header",
            ),
            (format!("{v2}\ncounter a x\n"), "bad counter value"),
            (format!("{v2}\ncounter a 1\ncounter a 2\n"), "repeated name"),
            (
                format!("{v2}\nhist h 1 3 3 3 buckets=2:1\n"),
                "missing `count=`",
            ),
            (format!("{v2}\n{hist} 2:1\n"), "missing `buckets=`"),
            (format!("{v2}\n{hist} buckets=64:1\n"), "bucket 64"),
            (format!("{v2}\n{hist} buckets=2\n"), "bucket without count"),
            (format!("{v2}\nhist h count=1 sum=3\n"), "truncated hist"),
            (format!("{v2}\ngauge g 1\n"), "unknown record"),
        ] {
            assert!(MetricsSnapshot::from_text(&text).is_err(), "{why}");
        }
    }

    #[test]
    fn snapshot_merge_is_order_insensitive() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("n".to_owned(), 2);
        let mut ha = Histogram::default();
        ha.record(4);
        a.histograms.insert("h".to_owned(), ha);

        let mut b = MetricsSnapshot::default();
        b.counters.insert("n".to_owned(), 3);
        b.counters.insert("m".to_owned(), 1);
        let mut hb = Histogram::default();
        hb.record(16);
        b.histograms.insert("h".to_owned(), hb);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("n"), 5);
        assert_eq!(ab.counter("m"), 1);
        assert_eq!(ab.histograms["h"].count, 2);
        assert_eq!(ab.histograms["h"].sum, 20);
    }
}
