//! Design-space exploration.
//!
//! "A good synthesis system can produce several designs for the same
//! specification in a reasonable amount of time. This allows the developer
//! to explore different trade-offs between cost, speed, power and so on"
//! (§1.2). This module sweeps resource limits, scheduling algorithms, and
//! control styles over a behavior — serially via [`sweep_grid_cdfg`] or
//! across every core via [`Explorer`] — and extracts the area–latency
//! Pareto front.
//!
//! The parallel engine is the system's first genuinely concurrent hot
//! path: grid points fan out over a work-stealing pool ([`hls_par`]),
//! and a content-addressed memo cache (fingerprint of the lowered CDFG +
//! the fully configured synthesizer → result summary) collapses repeated
//! points so each distinct configuration is synthesized once. Every sweep
//! goes through one engine, [`Explorer::run`]; result order is fixed by
//! the point list, never by thread interleaving, so parallel sweeps are
//! byte-identical to serial ones.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use hls_cdfg::Cdfg;
use hls_par::{default_threads, ThreadPool};
use hls_sched::Algorithm;

use crate::estimate::{prune_mask, Estimator, PruneStats};
use crate::pipeline::{
    cdfg_fingerprint, CancelToken, ControlStyle, PreparedBehavior, SynthesisResult, Synthesizer,
};
use crate::SynthesisError;

/// One explored design point.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// Functional units used.
    pub fus: usize,
    /// Scheduling algorithm that produced the point.
    pub algorithm: Algorithm,
    /// Controller style of the point.
    pub control: ControlStyle,
    /// Latency in control steps.
    pub latency: u64,
    /// Estimated area in gate equivalents.
    pub area: f64,
    /// Registers used.
    pub registers: usize,
    /// Multiplexer inputs.
    pub mux_inputs: usize,
}

impl DesignPoint {
    fn new(cfg: &GridPoint, s: PointSummary) -> Self {
        DesignPoint {
            fus: cfg.fus,
            algorithm: cfg.algorithm,
            control: cfg.control,
            latency: s.latency,
            area: s.area,
            registers: s.registers,
            mux_inputs: s.mux_inputs,
        }
    }

    /// `true` when `self` dominates `other` (no worse on both axes,
    /// strictly better on one).
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        (self.latency <= other.latency && self.area <= other.area)
            && (self.latency < other.latency || self.area < other.area)
    }
}

/// The numeric summary a sweep keeps per point (and what the memo cache
/// stores — the full [`SynthesisResult`] would pin every netlist of a
/// grid in memory).
#[derive(Clone, Copy, Debug, PartialEq)]
struct PointSummary {
    latency: u64,
    area: f64,
    registers: usize,
    mux_inputs: usize,
}

impl PointSummary {
    fn of(r: &SynthesisResult) -> Self {
        PointSummary {
            latency: r.latency,
            area: r.area.total(),
            registers: r.datapath.reg_count(),
            mux_inputs: r.datapath.mux_inputs,
        }
    }
}

/// One grid coordinate: the overrides applied to the base synthesizer.
///
/// Public so callers that need *explicit* point lists — the batch
/// endpoint of `hls-serve` routes individual grid points to shard
/// workers — can name coordinates outside a cartesian [`GridSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridPoint {
    /// Universal-FU count override.
    pub fus: usize,
    /// Scheduling algorithm override.
    pub algorithm: Algorithm,
    /// Control style override.
    pub control: ControlStyle,
}

/// A multi-dimensional sweep specification: the cartesian product
/// FU count × scheduling algorithm × control style, explored in exactly
/// that nesting order (`fus` outermost, `controls` innermost).
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Universal-FU counts to explore.
    pub fus: Vec<usize>,
    /// Scheduling algorithms to explore.
    pub algorithms: Vec<Algorithm>,
    /// Control styles to explore.
    pub controls: Vec<ControlStyle>,
}

impl GridSpec {
    /// A pure FU sweep (`1..=max_fus`) under `base`'s configured
    /// algorithm and control style.
    pub fn fu_sweep(base: &Synthesizer, max_fus: usize) -> Self {
        GridSpec {
            fus: (1..=max_fus).collect(),
            algorithms: vec![base.configured_algorithm()],
            controls: vec![base.configured_control()],
        }
    }

    /// Number of grid points (duplicates included).
    pub fn len(&self) -> usize {
        self.fus.len() * self.algorithms.len() * self.controls.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian grid into explicit coordinates, in grid
    /// order (`fus` outermost, `controls` innermost).
    pub fn expand(&self) -> Vec<GridPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &fus in &self.fus {
            for &algorithm in &self.algorithms {
                for &control in &self.controls {
                    out.push(GridPoint {
                        fus,
                        algorithm,
                        control,
                    });
                }
            }
        }
        out
    }
}

/// Collapses duplicate coordinates: the unique points in first-occurrence
/// order, plus one representative index per original position.
fn dedup_points(points: &[GridPoint]) -> (Vec<GridPoint>, Vec<usize>) {
    let mut uniq: Vec<GridPoint> = Vec::new();
    let mut index: HashMap<GridPoint, usize> = HashMap::new();
    let mut slot = Vec::with_capacity(points.len());
    for p in points {
        let next = uniq.len();
        let s = *index.entry(*p).or_insert_with(|| {
            uniq.push(*p);
            next
        });
        slot.push(s);
    }
    (uniq, slot)
}

/// What [`Explorer::run`] sweeps.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    /// The points to explore, in the order results are indexed by.
    pub points: Vec<GridPoint>,
    /// Skip points the QoR estimator proves absent from the exhaustive
    /// Pareto front ([`crate::estimate::prune_mask`]) instead of
    /// synthesizing them.
    pub prune: bool,
    /// Checked before each point starts; see [`Explorer::run`].
    pub cancel: CancelToken,
}

/// The collected outcome of a sweep ([`Explorer::collect`]).
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The synthesized (surviving) design points, in point order.
    pub points: Vec<DesignPoint>,
    /// One flag per swept position: `true` when the point was skipped
    /// by the dominance pre-pass. `points` holds exactly the `false`
    /// positions, in order.
    pub pruned: Vec<bool>,
    /// Estimator and pruning counters. An unpruned sweep estimates and
    /// prunes nothing and counts each distinct point as synthesized.
    pub stats: PruneStats,
}

/// One record of a sweep, as [`Explorer::run`] delivers it.
#[derive(Clone, Debug)]
pub enum StreamedPoint {
    /// Skipped by the estimator's dominance pre-pass — provably absent
    /// from the exhaustive Pareto front, never synthesized.
    Pruned,
    /// Fully synthesized (or answered from the memo cache).
    Synthesized {
        /// The synthesized design point.
        point: DesignPoint,
        /// `true` when the point was served from the memo cache.
        cache_hit: bool,
    },
}

/// Cache hit/miss counters of an [`Explorer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Grid points answered from the memo cache (including waits on a
    /// point another worker was already synthesizing).
    pub hits: u64,
    /// Grid points that ran full synthesis.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Content-addressed memo cache with in-flight deduplication: the first
/// worker to claim a key synthesizes it; concurrent lookups of the same
/// key park on a condvar and reuse the summary instead of repeating the
/// work.
struct MemoCache {
    map: Mutex<HashMap<u64, Arc<CacheCell>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct CacheCell {
    state: Mutex<CellState>,
    ready: Condvar,
}

enum CellState {
    Pending,
    Done(PointSummary),
    Failed(String),
}

impl MemoCache {
    fn new() -> Self {
        MemoCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
        }
    }

    /// Returns the summary plus `true` when it was served from the cache
    /// (including waits on a point another worker was synthesizing) or
    /// `false` when this call ran the computation itself.
    fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<PointSummary, SynthesisError>,
    ) -> Result<(PointSummary, bool), SynthesisError> {
        let (cell, owner) = {
            let mut map = self.map.lock().expect("cache lock");
            match map.entry(key) {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(v) => {
                    let cell = Arc::new(CacheCell {
                        state: Mutex::new(CellState::Pending),
                        ready: Condvar::new(),
                    });
                    v.insert(Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if owner {
            self.misses.fetch_add(1, Ordering::SeqCst);
            let resolve = Resolve(&cell);
            let result = compute();
            *cell.state.lock().expect("cell lock") = match &result {
                Ok(s) => CellState::Done(*s),
                Err(e) => CellState::Failed(e.to_string()),
            };
            drop(resolve);
            result.map(|s| (s, false))
        } else {
            self.hits.fetch_add(1, Ordering::SeqCst);
            let mut state = cell.state.lock().expect("cell lock");
            while matches!(*state, CellState::Pending) {
                state = cell.ready.wait(state).expect("cell wait");
            }
            match &*state {
                CellState::Done(s) => Ok((*s, true)),
                CellState::Failed(msg) => Err(SynthesisError::Explore(msg.clone())),
                CellState::Pending => unreachable!("loop exits only on a final state"),
            }
        }
    }
}

/// Wakes a cell's waiters when its owner finishes — including when
/// `compute` unwinds, in which case the cell is marked failed first, so a
/// later lookup of the key errors instead of blocking forever.
struct Resolve<'a>(&'a CacheCell);

impl Drop for Resolve<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, CellState::Pending) {
            *state = CellState::Failed("point synthesis panicked".into());
        }
        self.0.ready.notify_all();
    }
}

/// Applies a grid coordinate to the base synthesizer.
pub(crate) fn configure(base: &Synthesizer, cfg: &GridPoint) -> Synthesizer {
    base.clone()
        .universal_fus(cfg.fus)
        .algorithm(cfg.algorithm)
        .control(cfg.control)
}

/// Synthesizes one point from a prepared behavior and summarizes it.
///
/// The grid only perturbs FU count, algorithm, and control style — none
/// of which affect the transformation passes or the dependence/bound
/// analysis — so every point of a sweep shares one [`PreparedBehavior`]
/// instead of re-optimizing and re-analyzing the behavior per point.
fn run_point(
    syn: &Synthesizer,
    prepared: &PreparedBehavior,
) -> Result<PointSummary, SynthesisError> {
    syn.synthesize_prepared(prepared)
        .map(|r| PointSummary::of(&r))
}

/// Serially sweeps the grid over an already-compiled behavior: the
/// reference [`Explorer`] sweeps must reproduce.
///
/// # Errors
///
/// Propagates the first synthesis failure (in grid order).
pub fn sweep_grid_cdfg(
    base: &Synthesizer,
    cdfg: &Cdfg,
    spec: &GridSpec,
) -> Result<Vec<DesignPoint>, SynthesisError> {
    let prepared = base.prepare(cdfg.clone())?;
    spec.expand()
        .iter()
        .map(|cfg| run_point(&configure(base, cfg), &prepared).map(|s| DesignPoint::new(cfg, s)))
        .collect()
}

/// The parallel, cached exploration engine.
///
/// Owns a work-stealing thread pool and a content-addressed memo cache;
/// both live across sweeps, so re-exploring a behavior (or overlapping
/// grids) is answered from the cache. Sizing: [`Explorer::new`] uses one
/// worker per available core, overridable with the `HLS_EXPLORE_THREADS`
/// environment variable or [`Explorer::with_threads`].
///
/// # Examples
///
/// ```
/// use hls_core::{Explorer, GridSpec, Synthesizer};
///
/// let explorer = Explorer::with_threads(2);
/// let base = Synthesizer::new();
/// let cdfg = hls_lang::compile(hls_workloads::sources::SQRT)?;
/// let spec = GridSpec::fu_sweep(&base, 3);
/// let points = explorer.sweep_grid_cdfg(&base, &cdfg, &spec)?;
/// assert_eq!(points.len(), 3);
/// // Identical to the serial reference sweep, in the same order.
/// assert_eq!(points, hls_core::sweep_grid_cdfg(&base, &cdfg, &spec)?);
/// # Ok::<(), hls_core::SynthesisError>(())
/// ```
#[derive(Debug)]
pub struct Explorer {
    pool: ThreadPool,
    cache: Arc<MemoCache>,
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Explorer {
    /// An explorer with [`default_threads`] workers.
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// An explorer with exactly `threads` workers (min 1).
    pub fn with_threads(threads: usize) -> Self {
        Explorer {
            pool: ThreadPool::new(threads),
            cache: Arc::new(MemoCache::new()),
        }
    }

    /// Number of pool workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Cumulative cache counters across every sweep this explorer ran.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The sweep engine: synthesizes every point of `sweep` on the pool,
    /// through the memo cache, and calls `on_point` once per index of
    /// `sweep.points`.
    ///
    /// - **Ordering.** Synthesized points call back from worker threads
    ///   in completion order; the index, not the call order, places a
    ///   result. With `prune` set, pruned positions call back first, from
    ///   the caller's thread in point order, with
    ///   [`StreamedPoint::Pruned`].
    /// - **Dedup.** Repeated points are not collapsed here (each
    ///   repetition after the first is a memo hit); [`Explorer::collect`]
    ///   dispatches each distinct point once.
    /// - **Cancellation.** `sweep.cancel` is checked before each point. A
    ///   point that has started runs to completion, so the memo cache is
    ///   never poisoned with a cancellation; once the token fires, every
    ///   unstarted point reports [`SynthesisError::Cancelled`].
    ///
    /// The behavior is prepared (passes and bound analyses) once and
    /// shared by every point. When this returns, every callback has run
    /// and the pool holds no clone of `on_point`.
    ///
    /// Returns the estimator's counters when `sweep.prune` is set.
    /// Pruning decisions ignore control style (it never affects latency
    /// or area), but hardwired controller generation can fail where
    /// microcode cannot: a pruned point that would have errored
    /// unpruned errors only if a surviving point shares the failure.
    ///
    /// # Errors
    ///
    /// Returns an error only when the behavior fails to *prepare*
    /// (before any point runs); per-point failures go to `on_point`, so
    /// one bad point cannot hide the others.
    pub fn run<F>(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        sweep: &Sweep,
        on_point: F,
    ) -> Result<Option<PruneStats>, SynthesisError>
    where
        F: Fn(usize, Result<StreamedPoint, SynthesisError>) + Send + Sync + 'static,
    {
        let behavior_fp = cdfg_fingerprint(cdfg);
        let prepared = Arc::new(base.prepare(cdfg.clone())?);
        let estimates = sweep
            .prune
            .then(|| Estimator::new(base, &prepared).estimate_points(&sweep.points));
        let mask = estimates.as_deref().map(prune_mask).unwrap_or_default();
        let mut survivors = Vec::with_capacity(sweep.points.len());
        for (i, p) in sweep.points.iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                on_point(i, Ok(StreamedPoint::Pruned));
            } else {
                survivors.push((i, *p));
            }
        }
        let synthesized = survivors.len();

        let base = Arc::new(base.clone());
        let cache = Arc::clone(&self.cache);
        let cancel = sweep.cancel.clone();
        // Each survivor yields its actual (latency, area) for the
        // estimator agreement check below.
        let actuals = self.pool.map(survivors, move |_, (i, cfg)| {
            if cancel.is_cancelled() {
                on_point(
                    i,
                    Err(SynthesisError::Cancelled {
                        completed: "explore-point",
                    }),
                );
                return None;
            }
            let syn = configure(&base, &cfg);
            let key = memo_key(behavior_fp, syn.fingerprint());
            match cache.get_or_compute(key, || run_point(&syn, &prepared)) {
                Ok((s, cache_hit)) => {
                    let point = DesignPoint::new(&cfg, s);
                    let actual = (i, point.latency, point.area);
                    on_point(i, Ok(StreamedPoint::Synthesized { point, cache_hit }));
                    Some(actual)
                }
                Err(e) => {
                    on_point(i, Err(e));
                    None
                }
            }
        });

        let Some(estimates) = estimates else {
            return Ok(None);
        };
        // Self-check: did every bounded estimate contain its actual?
        let mut checked = 0usize;
        let mut inside = 0usize;
        for (i, latency, area) in actuals.into_iter().flatten() {
            if estimates[i].bounded {
                checked += 1;
                if estimates[i].contains(latency, area) {
                    inside += 1;
                }
            }
        }
        Ok(Some(PruneStats {
            estimated: sweep.points.len(),
            pruned: sweep.points.len() - synthesized,
            synthesized,
            agreement: if checked == 0 {
                1.0
            } else {
                inside as f64 / checked as f64
            },
        }))
    }

    /// Runs `sweep` through [`Explorer::run`] and collects the results
    /// in point order. A repeated point is dispatched once and its result
    /// fanned back out to every repetition, so it never even consults the
    /// memo cache twice; under pruning the estimator's identity rule
    /// already prunes repetitions.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures and the first point failure or
    /// cancellation in point order, independent of completion order.
    pub fn collect(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        sweep: &Sweep,
    ) -> Result<SweepOutcome, SynthesisError> {
        let (uniq, slot) = if sweep.prune {
            (sweep.points.clone(), (0..sweep.points.len()).collect())
        } else {
            dedup_points(&sweep.points)
        };
        let dispatched = Sweep {
            points: uniq,
            prune: sweep.prune,
            cancel: sweep.cancel.clone(),
        };
        type Slot = Option<Result<StreamedPoint, SynthesisError>>;
        let results: Arc<Mutex<Vec<Slot>>> = Arc::new(Mutex::new(
            (0..dispatched.points.len()).map(|_| None).collect(),
        ));
        let sink = Arc::clone(&results);
        let stats = self.run(base, cdfg, &dispatched, move |i, r| {
            sink.lock().expect("results lock")[i] = Some(r);
        })?;
        let mut results = std::mem::take(&mut *results.lock().expect("results lock"));

        let mut points = Vec::with_capacity(slot.len());
        let mut pruned = Vec::with_capacity(slot.len());
        for &s in &slot {
            match &results[s] {
                Some(Ok(StreamedPoint::Synthesized { point, .. })) => {
                    points.push(point.clone());
                    pruned.push(false);
                }
                Some(Ok(StreamedPoint::Pruned)) => pruned.push(true),
                Some(Err(_)) | None => {
                    return Err(match results[s].take() {
                        Some(Err(e)) => e,
                        _ => SynthesisError::Explore("sweep point never reported a result".into()),
                    })
                }
            }
        }
        Ok(SweepOutcome {
            points,
            pruned,
            stats: stats.unwrap_or(PruneStats {
                estimated: 0,
                pruned: 0,
                synthesized: dispatched.points.len(),
                agreement: 1.0,
            }),
        })
    }

    /// Parallel, cached grid sweep over an already-compiled behavior;
    /// same results and order as [`sweep_grid_cdfg`].
    ///
    /// # Errors
    ///
    /// Propagates the first synthesis failure (in grid order).
    pub fn sweep_grid_cdfg(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        spec: &GridSpec,
    ) -> Result<Vec<DesignPoint>, SynthesisError> {
        let sweep = Sweep {
            points: spec.expand(),
            ..Sweep::default()
        };
        self.collect(base, cdfg, &sweep).map(|o| o.points)
    }

    /// [`Explorer::sweep_grid_cdfg`] behind the QoR-estimator pruning
    /// pre-pass: the surviving points' [`pareto_front`] is byte-identical
    /// to the exhaustive sweep's.
    ///
    /// # Errors
    ///
    /// Propagates the first synthesis failure among *synthesized* points
    /// (in grid order).
    pub fn sweep_grid_cdfg_pruned(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        spec: &GridSpec,
    ) -> Result<SweepOutcome, SynthesisError> {
        let sweep = Sweep {
            points: spec.expand(),
            prune: true,
            ..Sweep::default()
        };
        self.collect(base, cdfg, &sweep)
    }
}

impl Default for Explorer {
    fn default() -> Self {
        Self::new()
    }
}

/// Combines the behavior and configuration fingerprints into one cache
/// key (FNV-1a over both digests).
fn memo_key(behavior_fp: u64, config_fp: u64) -> u64 {
    let mut w = hls_testkit::FnvWriter::new();
    w.update(&behavior_fp.to_le_bytes());
    w.update(&config_fp.to_le_bytes());
    w.finish()
}

/// Filters `points` down to the area–latency Pareto front, sorted by
/// latency.
///
/// Single sort + sweep (`O(n log n)`): after sorting by (latency, area),
/// a point is on the front iff its area is strictly below every area
/// seen so far. Duplicate (latency, area) pairs collapse to one point.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<&DesignPoint> = points.iter().collect();
    // total_cmp keeps the sort a strict weak ordering even if an area
    // comes back NaN (partial_cmp would collapse NaN pairs to Equal,
    // which is not transitive and can panic sort_by in debug builds);
    // NaN orders after +inf, so such points also lose the `<` sweep
    // below and never pollute the front.
    sorted.sort_by(|a, b| a.latency.cmp(&b.latency).then(a.area.total_cmp(&b.area)));
    let mut front = Vec::new();
    let mut best_area = f64::INFINITY;
    for p in sorted {
        if p.area < best_area {
            best_area = p.area;
            front.push(p.clone());
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_sched::Priority;

    fn point(latency: u64, area: f64) -> DesignPoint {
        DesignPoint {
            fus: 1,
            algorithm: Algorithm::List(Priority::PathLength),
            control: ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
            latency,
            area,
            registers: 3,
            mux_inputs: 2,
        }
    }

    /// The serial SQRT sweep over `1..=max_fus` universal FUs.
    fn sqrt_fu_sweep(max_fus: usize) -> Vec<DesignPoint> {
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        sweep_grid_cdfg(&base, &cdfg, &GridSpec::fu_sweep(&base, max_fus)).unwrap()
    }

    #[test]
    fn sweep_trades_area_for_speed() {
        let points = sqrt_fu_sweep(4);
        assert_eq!(points.len(), 4);
        // Latency never increases with more FUs.
        for w in points.windows(2) {
            assert!(w[1].latency <= w[0].latency, "{points:?}");
        }
        // The single-FU point is the slowest.
        assert!(points[0].latency > points.last().unwrap().latency);
    }

    #[test]
    fn pareto_front_is_non_dominated() {
        let points = sqrt_fu_sweep(4);
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "front contains dominated points");
                }
            }
        }
        // Front is sorted by latency.
        assert!(front.windows(2).all(|w| w[0].latency <= w[1].latency));
    }

    #[test]
    fn pareto_front_minimal_on_fixture() {
        // Hand-built: b dominated by a, d dominated by c, e a duplicate
        // of c, f on the front (slower but smaller than everything).
        let a = point(10, 100.0);
        let b = point(12, 120.0);
        let c = point(8, 130.0);
        let d = point(9, 135.0);
        let e = point(8, 130.0);
        let f = point(14, 90.0);
        let front = pareto_front(&[a.clone(), b, c.clone(), d, e, f.clone()]);
        assert_eq!(front, vec![c, a, f]);
    }

    #[test]
    fn pareto_front_survives_nan_area() {
        // A NaN area must neither panic the sort (total_cmp keeps the
        // comparator a total order) nor land on the front (NaN sorts
        // after +inf and fails the strict `<` sweep).
        let good = point(10, 100.0);
        let bad = point(8, f64::NAN);
        let also_bad = point(12, f64::NAN);
        let front = pareto_front(&[bad.clone(), good.clone(), also_bad, bad]);
        assert_eq!(front, vec![good]);
    }

    #[test]
    fn dominance_semantics() {
        let a = point(10, 100.0);
        let b = point(12, 120.0);
        let c = point(8, 130.0);
        assert!(a.dominates(&b));
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        assert!(!a.dominates(&a), "no self-domination");
    }

    type Log = Vec<(usize, Result<StreamedPoint, SynthesisError>)>;

    /// Every callback of one [`Explorer::run`], sorted by index.
    fn run_and_log(explorer: &Explorer, cdfg: &Cdfg, sweep: &Sweep) -> (Log, Option<PruneStats>) {
        let log: Arc<Mutex<Log>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let stats = explorer
            .run(&Synthesizer::new(), cdfg, sweep, move |i, r| {
                sink.lock().unwrap().push((i, r));
            })
            .expect("SQRT prepares");
        let mut log = std::mem::take(&mut *log.lock().unwrap());
        log.sort_by_key(|(i, _)| *i);
        (log, stats)
    }

    #[test]
    fn run_matches_the_serial_reference_pruned_or_not_on_any_pool() {
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let spec = GridSpec {
            fus: vec![1, 2, 3],
            algorithms: vec![Algorithm::Asap, Algorithm::List(Priority::PathLength)],
            controls: vec![
                ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
                ControlStyle::Microcode,
            ],
        };
        let reference = sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
        let reference_front = format!("{:?}", pareto_front(&reference));
        for (prune, threads) in [(false, 1), (false, 2), (true, 1), (true, 2)] {
            let case = format!("prune={prune} threads={threads}");
            let explorer = Explorer::with_threads(threads);
            let sweep = Sweep {
                points: spec.expand(),
                prune,
                ..Sweep::default()
            };
            let mut pruned_positions = Vec::new();
            for warm in [false, true] {
                let (log, stats) = run_and_log(&explorer, &cdfg, &sweep);
                let indices: Vec<usize> = log.iter().map(|(i, _)| *i).collect();
                assert_eq!(
                    indices,
                    (0..spec.len()).collect::<Vec<_>>(),
                    "{case}: every index calls back exactly once"
                );
                let mut synthesized = Vec::new();
                pruned_positions.clear();
                for (i, r) in log {
                    match r.expect("SQRT points synthesize") {
                        StreamedPoint::Pruned => pruned_positions.push(i),
                        StreamedPoint::Synthesized { point, cache_hit } => {
                            assert_eq!(point, reference[i], "{case}: point {i}");
                            assert!(!warm || cache_hit, "{case}: warm point {i} missed");
                            synthesized.push(point);
                        }
                    }
                }
                assert_eq!(
                    format!("{:?}", pareto_front(&synthesized)),
                    reference_front,
                    "{case}: the front must not change"
                );
                match stats {
                    None => assert!(!prune && pruned_positions.is_empty(), "{case}"),
                    Some(stats) => {
                        assert!(prune, "{case}");
                        assert!(stats.pruned > 0, "{case}: control twins alone prune");
                        assert_eq!(stats.estimated, spec.len(), "{case}");
                        assert_eq!(stats.pruned, pruned_positions.len(), "{case}");
                        assert_eq!(stats.synthesized, synthesized.len(), "{case}");
                        assert_eq!(stats.agreement, 1.0, "{case}");
                    }
                }
            }

            // A fired token cancels every unpruned point; pruning still
            // reports its positions.
            let cancel = CancelToken::new();
            cancel.cancel();
            let cancelled = Sweep {
                cancel,
                ..sweep.clone()
            };
            let (log, _) = run_and_log(&explorer, &cdfg, &cancelled);
            assert_eq!(log.len(), spec.len(), "{case}");
            for (i, r) in log {
                match r {
                    Ok(StreamedPoint::Pruned) => assert!(pruned_positions.contains(&i)),
                    Err(SynthesisError::Cancelled { completed }) => {
                        assert_eq!(completed, "explore-point");
                        assert!(!pruned_positions.contains(&i), "{case}: {i}");
                    }
                    other => panic!("{case}: point {i} ran under a fired token: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn panicking_owner_fails_the_cell_instead_of_wedging_waiters() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;

        let cache = Arc::new(MemoCache::new());
        let owner = catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_compute(7, || panic!("injected synthesis panic"))
        }));
        assert!(owner.is_err(), "the owner's panic propagates");
        let (tx, rx) = mpsc::channel();
        let waiter = Arc::clone(&cache);
        // Joined only once it has answered: a wedged lookup must fail
        // the test, not hang it.
        let lookup = std::thread::spawn(move || {
            let again = waiter.get_or_compute(7, || unreachable!("the key is already claimed"));
            let _ = tx.send(again.map(|_| ()).map_err(|e| e.to_string()));
        });
        let again = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a second lookup of a panicked key must not block");
        lookup.join().expect("lookup thread");
        assert!(again.unwrap_err().contains("panicked"));
    }

    #[test]
    fn dedup_points_collapses_duplicates_in_first_occurrence_order() {
        let spec = GridSpec {
            fus: vec![2, 1, 2, 2],
            algorithms: vec![Algorithm::Asap],
            controls: vec![ControlStyle::Microcode],
        };
        assert_eq!(spec.len(), 4, "expand keeps duplicates");
        assert_eq!(spec.expand().len(), 4);
        let (uniq, slot) = dedup_points(&spec.expand());
        assert_eq!(uniq.len(), 2);
        assert_eq!(uniq[0].fus, 2, "first occurrence wins the slot");
        assert_eq!(uniq[1].fus, 1);
        assert_eq!(slot, vec![0, 1, 0, 0]);
    }

    #[test]
    fn duplicate_grid_points_synthesize_once_and_fan_out() {
        let explorer = Explorer::with_threads(2);
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let spec = GridSpec {
            fus: vec![2, 1, 2],
            algorithms: vec![Algorithm::Asap],
            controls: vec![ControlStyle::Microcode],
        };
        let points = explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
        assert_eq!(points.len(), 3, "output shape keeps the duplicate");
        assert_eq!(points[0], points[2]);
        // The duplicate never reached the memo cache: two misses, no hits.
        let stats = explorer.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn pruned_sweep_preserves_the_pareto_front_exactly() {
        let explorer = Explorer::with_threads(2);
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let spec = GridSpec {
            fus: vec![1, 2, 3, 4],
            algorithms: vec![
                Algorithm::Asap,
                Algorithm::List(Priority::PathLength),
                Algorithm::ForceDirected { slack: 1 },
            ],
            controls: vec![
                ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
                ControlStyle::Microcode,
            ],
        };
        let exhaustive = explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
        let pruned = explorer
            .sweep_grid_cdfg_pruned(&base, &cdfg, &spec)
            .unwrap();
        assert_eq!(
            pareto_front(&pruned.points),
            pareto_front(&exhaustive),
            "pruning must not change the front"
        );
        assert_eq!(pruned.stats.estimated, spec.len());
        assert_eq!(
            pruned.stats.pruned + pruned.stats.synthesized,
            pruned.stats.estimated
        );
        assert!(
            pruned.stats.pruned > 0,
            "control-duplicate points alone guarantee pruning here"
        );
        assert_eq!(pruned.stats.agreement, 1.0, "{:?}", pruned.stats);
        assert_eq!(pruned.pruned.len(), spec.len());
        assert_eq!(
            pruned.pruned.iter().filter(|&&m| !m).count(),
            pruned.points.len()
        );
    }

    #[test]
    fn grid_spec_order_and_len() {
        let spec = GridSpec {
            fus: vec![1, 2],
            algorithms: vec![Algorithm::Asap, Algorithm::List(Priority::Urgency)],
            controls: vec![ControlStyle::Microcode],
        };
        assert_eq!(spec.len(), 4);
        assert!(!spec.is_empty());
        let pts = spec.expand();
        assert_eq!(pts[0].fus, 1);
        assert_eq!(pts[0].algorithm, Algorithm::Asap);
        assert_eq!(pts[1].algorithm, Algorithm::List(Priority::Urgency));
        assert_eq!(pts[2].fus, 2);
    }
}
