//! Small statistics helpers and process measurements.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn kind_profile_names_the_kind_at_each_percentile() {
        let mut p = KindProfile::new(&["fast", "slow"]);
        // 60 fast items, 40 slow ones: p50 is fast, p90 and p99 slow.
        p.add_pass((0..100).map(|i| (usize::from(i >= 60), f64::from(i))));
        let line = p.summary();
        assert!(line.contains("fast 60.0% of items"), "{line}");
        assert!(
            line.ends_with("p50 fast 100% p90 slow 100% p99 slow 100%"),
            "{line}"
        );
    }

    #[test]
    fn set_timings_weigh_sets_equally() {
        let mut t = SetTimings::new(3);
        t.record(0, 1.0, vec![1.0, 3.0]);
        t.record(0, 3.0, vec![1.0, 3.0]);
        t.record(0, 100.0, vec![1.0, 3.0]);
        t.record(1, 6.0, vec![5.0]);
        // Set 0's median pass is 3 s, set 1's is 6 s; set 2 never ran.
        assert_eq!(t.wall_s(), 4.5);
        assert_eq!(t.item_quantile_ms(0.5), 3.5);
    }

    #[test]
    fn repeated_items_take_their_median_time() {
        let mut t = SetTimings::repeated(1);
        // Item 0 stalls in one pass, item 1 in another: each item's
        // median ignores its stall, where each pass's own maximum is a
        // stall.
        t.record(0, 1.0, vec![1.0, 2.0, 3.0]);
        t.record(0, 1.0, vec![9.0, 2.0, 3.0]);
        t.record(0, 1.0, vec![1.0, 9.0, 3.0]);
        assert_eq!(t.item_quantile_ms(1.0), 3.0);
        assert_eq!(t.item_quantile_ms(0.0), 1.0);
        let mut u = SetTimings::new(1);
        u.record(0, 1.0, vec![1.0, 2.0, 3.0]);
        u.record(0, 1.0, vec![9.0, 2.0, 3.0]);
        u.record(0, 1.0, vec![1.0, 9.0, 3.0]);
        assert_eq!(u.item_quantile_ms(1.0), 9.0);
    }
}

/// Pass timings of a run that cycles over a fixed number of input sets.
///
/// Each pass runs every item of one set. A set's figure is the median
/// over its passes, and the run's figure is the mean over sets, so
/// every set weighs the same however many times it came round.
#[derive(Clone, Debug)]
pub struct SetTimings {
    /// Per set: (pass wall seconds, item milliseconds) of every pass.
    passes: Vec<Vec<(f64, Vec<f64>)>>,
    /// Whether every pass over a set runs the same items in the same
    /// order, so that an item's time is its median over the passes.
    repeated: bool,
}

impl SetTimings {
    /// Timings of passes whose items differ from pass to pass.
    pub fn new(sets: usize) -> Self {
        SetTimings {
            passes: vec![Vec::new(); sets],
            repeated: false,
        }
    }

    /// Timings of passes that repeat the same items: the item quantiles
    /// are taken over each item's median time, pooled over all sets, so
    /// that a stall of the machine during one run of an item does not
    /// move them.
    pub fn repeated(sets: usize) -> Self {
        SetTimings {
            repeated: true,
            ..Self::new(sets)
        }
    }

    pub fn record(&mut self, set: usize, wall_s: f64, item_ms: Vec<f64>) {
        self.passes[set].push((wall_s, item_ms));
    }

    fn over_sets(&self, f: impl Fn(&(f64, Vec<f64>)) -> f64) -> f64 {
        let per_set: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| median(&p.iter().map(&f).collect::<Vec<_>>()))
            .collect();
        per_set.iter().sum::<f64>() / per_set.len().max(1) as f64
    }

    /// Mean over sets of the median pass wall time.
    pub fn wall_s(&self) -> f64 {
        self.over_sets(|(wall, _)| *wall)
    }

    /// The `q`-quantile item time: for repeated items the quantile of
    /// every item's median time over its passes, otherwise the mean over
    /// sets of the median over passes of each pass's quantile.
    pub fn item_quantile_ms(&self, q: f64) -> f64 {
        if !self.repeated {
            return self.over_sets(|(_, items)| quantile(items, q));
        }
        let mut medians = Vec::new();
        for p in self.passes.iter().filter(|p| !p.is_empty()) {
            let items = p.iter().map(|(_, items)| items.len()).min().unwrap_or(0);
            medians.extend(
                (0..items)
                    .map(|i| median(&p.iter().map(|(_, items)| items[i]).collect::<Vec<_>>())),
            );
        }
        quantile(&medians, q)
    }
}

/// The latency percentiles the end-to-end metrics report.
pub const PERCENTILES: [(f64, &str); 3] = [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")];

/// How a run's items split by kind: each kind's share of items and
/// median latency, and per [`PERCENTILES`] entry, in how many passes
/// the item at that percentile was of each kind. It shows which kind of
/// item each latency metric measures.
pub struct KindProfile {
    names: &'static [&'static str],
    at: [Vec<u64>; 3],
    latency_ms: Vec<Vec<f64>>,
}

impl KindProfile {
    pub fn new(names: &'static [&'static str]) -> Self {
        KindProfile {
            names,
            at: std::array::from_fn(|_| vec![0; names.len()]),
            latency_ms: vec![Vec::new(); names.len()],
        }
    }

    /// Adds one pass: (kind index, latency in ms) of every item.
    pub fn add_pass(&mut self, items: impl IntoIterator<Item = (usize, f64)>) {
        let mut items: Vec<(usize, f64)> = items.into_iter().collect();
        if items.is_empty() {
            return;
        }
        items.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (row, (q, _)) in self.at.iter_mut().zip(PERCENTILES) {
            let rank = (q * (items.len() - 1) as f64).round() as usize;
            row[items[rank].0] += 1;
        }
        for (kind, ms) in items {
            self.latency_ms[kind].push(ms);
        }
    }

    /// One line: each kind's share of items and median latency, then
    /// the kinds found at each percentile, as shares of the passes.
    pub fn summary(&self) -> String {
        let total: usize = self.latency_ms.iter().map(Vec::len).sum();
        let mut out = String::new();
        for (name, ms) in self.names.iter().zip(&self.latency_ms) {
            out.push_str(&format!(
                "{name} {:.1}% of items (median {:.3} ms), ",
                100.0 * ratio(ms.len() as f64, total as f64),
                median(ms)
            ));
        }
        let passes: u64 = self.at[0].iter().sum();
        out.push_str(&format!(
            "item kind at each percentile over {passes} passes:"
        ));
        for (row, (_, label)) in self.at.iter().zip(PERCENTILES) {
            out.push_str(&format!(" {label}"));
            for (name, &n) in self.names.iter().zip(row) {
                if n > 0 {
                    out.push_str(&format!(
                        " {name} {:.0}%",
                        100.0 * ratio(n as f64, passes as f64)
                    ));
                }
            }
        }
        out
    }
}
