//! # hls-core — the end-to-end synthesis pipeline
//!
//! The driver tying every stage of the DAC'88 tutorial flow together:
//! BSL source → CDFG → high-level transformations → scheduling → data-path
//! allocation → controller synthesis → RT-level netlist, plus design-space
//! exploration and behavioral/RTL verification.
//!
//! ```
//! use hls_core::Synthesizer;
//!
//! let result = Synthesizer::new()
//!     .synthesize_source(hls_workloads::sources::SQRT)?;
//! assert_eq!(result.latency, 10);
//! let check = result.verify(4, (0.1, 1.0))?;
//! assert!(check.equivalent);
//! # Ok::<(), hls_core::SynthesisError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod estimate;
mod explore;
mod pipeline;
mod report;
mod system;

pub use estimate::{prune_mask, Estimator, PruneStats, QorEstimate};
pub use explore::{
    pareto_front, sweep_grid_cdfg, CacheStats, DesignPoint, Explorer, GridPoint, GridSpec,
    StreamedPoint, Sweep, SweepOutcome,
};
pub use pipeline::{
    cdfg_fingerprint, CancelToken, ControlReport, ControlStyle, PreparedBehavior, StageNanos,
    SynthesisResult, Synthesizer,
};
pub use system::{ProcessSynthesis, SystemEquivalence, SystemSynthesisResult};

// Re-exported so downstream layers (e.g. the service) can inspect the
// static liveness verdict without depending on the simulator crate.
pub use hls_sim::{analyze_deadlock, DeadlockVerdict};

use std::error::Error;
use std::fmt;

/// Any error the synthesis pipeline can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum SynthesisError {
    /// Front-end (lexing, parsing, lowering) failure.
    Parse(hls_lang::ParseError),
    /// Scheduling failure.
    Schedule(hls_sched::ScheduleError),
    /// Allocation failure.
    Alloc(hls_alloc::AllocError),
    /// Control-synthesis failure.
    Ctrl(hls_ctrl::CtrlError),
    /// Simulation failure during verification.
    Sim(hls_sim::SimError),
    /// A cached exploration point whose original synthesis failed; the
    /// message is the original error's rendering (the typed error went
    /// to whichever sweep computed the point first).
    Explore(String),
    /// Synthesis was cancelled (deadline or explicit token) between
    /// stages; `completed` names the last pipeline stage that finished,
    /// so callers can report how far the flow got.
    Cancelled {
        /// The last stage that ran to completion before the cancel
        /// check fired (`"none"` when nothing finished).
        completed: &'static str,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Parse(e) => write!(f, "parse: {e}"),
            SynthesisError::Schedule(e) => write!(f, "schedule: {e}"),
            SynthesisError::Alloc(e) => write!(f, "allocate: {e}"),
            SynthesisError::Ctrl(e) => write!(f, "control: {e}"),
            SynthesisError::Sim(e) => write!(f, "simulate: {e}"),
            SynthesisError::Explore(msg) => write!(f, "explore (cached failure): {msg}"),
            SynthesisError::Cancelled { completed } => {
                write!(f, "cancelled (last completed stage: {completed})")
            }
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::Parse(e) => Some(e),
            SynthesisError::Schedule(e) => Some(e),
            SynthesisError::Alloc(e) => Some(e),
            SynthesisError::Ctrl(e) => Some(e),
            SynthesisError::Sim(e) => Some(e),
            SynthesisError::Explore(_) => None,
            SynthesisError::Cancelled { .. } => None,
        }
    }
}

impl From<hls_lang::ParseError> for SynthesisError {
    fn from(e: hls_lang::ParseError) -> Self {
        SynthesisError::Parse(e)
    }
}
impl From<hls_sched::ScheduleError> for SynthesisError {
    fn from(e: hls_sched::ScheduleError) -> Self {
        SynthesisError::Schedule(e)
    }
}
impl From<hls_alloc::AllocError> for SynthesisError {
    fn from(e: hls_alloc::AllocError) -> Self {
        SynthesisError::Alloc(e)
    }
}
impl From<hls_ctrl::CtrlError> for SynthesisError {
    fn from(e: hls_ctrl::CtrlError) -> Self {
        SynthesisError::Ctrl(e)
    }
}
impl From<hls_sim::SimError> for SynthesisError {
    fn from(e: hls_sim::SimError) -> Self {
        SynthesisError::Sim(e)
    }
}
