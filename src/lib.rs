//! # hls — high-level synthesis in Rust
//!
//! A complete, from-scratch reproduction of the flow described in
//! *"Tutorial on High-Level Synthesis"* (McFarland, Parker, Camposano;
//! 25th Design Automation Conference, 1988): behavioral specification →
//! control/data-flow graph → high-level transformations → scheduling →
//! data-path allocation → controller synthesis → register-transfer-level
//! structure, with behavioral/RTL co-simulation for verification.
//!
//! This umbrella crate re-exports every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`cdfg`] | `hls-cdfg` | the internal representation |
//! | [`lang`] | `hls-lang` | the BSL front end |
//! | [`opt`] | `hls-opt` | high-level transformations |
//! | [`sched`] | `hls-sched` | all §3.1 scheduling algorithms |
//! | [`alloc`] | `hls-alloc` | all §3.2 allocation techniques |
//! | [`ctrl`] | `hls-ctrl` | FSM + microcode control synthesis |
//! | [`rtl`] | `hls-rtl` | component library, netlist, Verilog, area |
//! | [`sim`] | `hls-sim` | behavioral + RTL simulation, equivalence |
//! | [`core`] | `hls-core` | the end-to-end [`Synthesizer`] |
//! | [`workloads`] | `hls-workloads` | benchmarks and figure graphs |
//!
//! # Quickstart
//!
//! ```
//! use hls::Synthesizer;
//!
//! // The paper's square-root behavior, synthesized onto two FUs:
//! let design = Synthesizer::new()
//!     .synthesize_source(hls::workloads::sources::SQRT)?;
//! assert_eq!(design.latency, 10); // the paper's "2 + 4·2 = 10" schedule
//! # Ok::<(), hls::SynthesisError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hls_alloc as alloc;
pub use hls_cdfg as cdfg;
pub use hls_core as core;
pub use hls_ctrl as ctrl;
pub use hls_lang as lang;
pub use hls_opt as opt;
pub use hls_rtl as rtl;
pub use hls_sched as sched;
pub use hls_sim as sim;
pub use hls_workloads as workloads;

pub use hls_cdfg::Fx;
pub use hls_core::{
    pareto_front, sweep_grid_cdfg, CacheStats, ControlStyle, DesignPoint, Explorer, GridSpec,
    SynthesisError, SynthesisResult, Synthesizer,
};
