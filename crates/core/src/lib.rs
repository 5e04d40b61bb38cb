//! `tess` — parallel Voronoi tessellation of distributed particle data.
//!
//! This is the paper's contribution (§III-C): a distributed-memory parallel
//! Voronoi tessellation that combines unchanged *serial* local computation
//! with neighborhood communication. The main features, mirroring the
//! paper's list:
//!
//! * standalone (serial, one block) and in-situ (distributed) modes,
//! * neighborhood particle ghost-zone exchange (periodic, targeted),
//! * local Voronoi cell computation,
//! * identification of complete cells,
//! * early volume-threshold culling (conservative diameter bound),
//! * convex-hull computation for face ordering, areas, and volumes,
//! * parallel writing of Voronoi blocks to a single file.
//!
//! ## Algorithm
//!
//! Each block receives ghost particles from every neighbor within the ghost
//! distance (bidirectional exchange). A cell is then grown around each
//! *original* particle by clipping the ghosted block box with the
//! perpendicular bisectors of nearby particles, visited in distance order
//! through a uniform grid, until the **security radius** criterion holds:
//! once the nearest unvisited candidate is farther than twice the cell's
//! maximal site-to-vertex distance, no remaining particle can cut the cell.
//! A cell whose security ball sticks out of the ghosted region cannot be
//! certified and is marked incomplete (the paper deletes these).
//!
//! Keeping only cells sited at original particles resolves the duplicated
//! cells the paper's Figure 5 shows after the bidirectional exchange.

pub mod block;
pub mod cell;
pub mod driver;
pub mod ghost;
pub mod grid;
pub mod io;
pub mod model;
pub mod params;
pub mod service;
pub mod stats;

pub use driver::{
    tessellate, tessellate_serial, tessellate_streaming, StreamSummary, TessResult,
    PHASE_GHOST_EXCHANGE, PHASE_OUTPUT, PHASE_VORONOI,
};
pub use io::{StreamWriteSummary, TessStreamWriter};
pub use model::{Cell, Cells, Face, Faces, MeshBlock, NO_NEIGHBOR};
pub use params::{GhostSpec, TessParams, AUTO_GHOST_FACTOR};
pub use service::{
    Answer, CellSummary, MeshService, MeshSnapshot, ParticleStore, Pending, PointHit, Query,
    RegionSummary, Response, ServiceClosed, ServiceConfig, ServiceStats, Update, UpdateReport,
    SERVICE_TRACE_PID,
};
pub use stats::TessStats;
