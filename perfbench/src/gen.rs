//! Seeded input generation shared by the workloads.
//!
//! Draws are stratified: an attribute with `k` values is drawn from a
//! shuffled pool holding each value equally often, so every seed gets
//! the same mix of FU counts, algorithms and control styles and only
//! their pairing with designs changes. That keeps run-to-run spread
//! down without fixing the inputs.

use hls_core::ControlStyle;
use hls_ctrl::EncodingStyle;
use hls_sched::{Algorithm, Priority};
use hls_testkit::SplitMix64;

/// The five scheduling algorithms synth-mixed draws from.
pub const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::List(Priority::PathLength),
    Algorithm::List(Priority::Urgency),
    Algorithm::Asap,
    Algorithm::ForceDirected { slack: 0 },
    Algorithm::FreedomBased { slack: 0 },
];

/// The four control styles.
pub const CONTROLS: [ControlStyle; 4] = [
    ControlStyle::Hardwired(EncodingStyle::Binary),
    ControlStyle::Hardwired(EncodingStyle::OneHot),
    ControlStyle::Hardwired(EncodingStyle::Gray),
    ControlStyle::Microcode,
];

/// Fisher–Yates shuffle on the in-repo PRNG.
pub fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.usize_in(0, i + 1);
        v.swap(i, j);
    }
}

/// `n` draws from `values`, each value appearing `n / k` or `n / k + 1`
/// times, in seeded order.
pub fn balanced<T: Clone>(rng: &mut SplitMix64, values: &[T], n: usize) -> Vec<T> {
    let mut pool: Vec<T> = (0..n).map(|i| values[i % values.len()].clone()).collect();
    shuffle(rng, &mut pool);
    pool
}

/// `n` sizes spaced evenly on a log scale from `lo` to `hi`.
pub fn log_ladder(lo: usize, hi: usize, n: usize) -> Vec<usize> {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    (0..n)
        .map(|i| {
            let u = i as f64 / (n.max(2) - 1) as f64;
            (a + (b - a) * u).exp().round() as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_pools_are_balanced_and_seeded() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let x = balanced(&mut a, &[1, 2, 3, 4], 10);
        assert_eq!(x, balanced(&mut b, &[1, 2, 3, 4], 10));
        for v in 1..=4 {
            let c = x.iter().filter(|&&e| e == v).count();
            assert!(c == 2 || c == 3);
        }
        let sizes = log_ladder(32, 512, 8);
        assert_eq!((sizes[0], sizes[7]), (32, 512));
    }
}
