//! `diy` — data-parallel building blocks for block-structured analysis.
//!
//! This crate reimplements the role DIY plays in the paper (Peterka et al.,
//! LDAV'11 / SC'12 §III-C): it owns the block decomposition, the neighborhood
//! connectivity (including **periodic boundary neighbors**), scalable
//! neighbor data exchange (including **targeted exchange** of particles near
//! block boundaries), collectives, and parallel block I/O to a single file.
//!
//! ## Distributed-memory model
//!
//! The paper runs over MPI on an IBM Blue Gene/P. Here the distributed
//! machine is *simulated*: [`comm::Runtime::run`] spawns one OS thread per
//! rank, each rank owns its block data privately, and every byte that
//! crosses a rank boundary is explicitly serialized through message channels
//! (see `DESIGN.md` for why this preserves the algorithmic behaviour). No
//! shared mutable state exists between ranks; the API is deliberately shaped
//! like a message-passing library so the algorithms above it are the same
//! ones that would run over MPI.

pub mod codec;
pub mod comm;
pub mod decomposition;
pub mod exchange;
pub mod hash;
pub mod hist;
pub mod io;
pub mod log;
pub mod mem;
pub mod metrics;
pub mod reduce;
pub mod telemetry;
pub mod timing;
pub mod trace;

/// Every binary linking `diy` counts allocations through [`mem`]; the
/// wrapper forwards to the system allocator and keeps a few relaxed
/// atomics.
#[global_allocator]
static GLOBAL_ALLOCATOR: mem::CountingAlloc = mem::CountingAlloc;

pub use codec::{Decode, Encode, Reader};
pub use comm::{ResidentRuntime, Runtime, World};
pub use decomposition::{Assignment, Decomposition, Neighbor};
pub use exchange::NeighborExchange;
pub use hist::LogHistogram;
pub use metrics::{collect_report, MetricsHandle, RunReport};
pub use trace::{
    chrome_trace_json, collect_traces, set_trace_mode, trace_mode, validate_chrome_trace,
    RankTrace, TraceMode,
};
