//! # polaris-arch
//!
//! Node-architecture and device-technology models for the CLUSTER 2002
//! keynote's forward-looking argument: projections of "performance,
//! capacity, power, size, and cost curves" (experiment F1), and the
//! node organizations it names — blades, SMP-on-chip, processor in
//! memory — evaluated on a latency-extended roofline model against a
//! kernel suite (experiment F4).

pub mod device;
pub mod kernels;
pub mod node;
pub mod projection;
pub mod roofline;

pub mod prelude {
    pub use crate::device::{Anchor, DevicePoint, DoublingPeriods, Projection, ANCHOR_YEAR};
    pub use crate::kernels::{Kernel, DAXPY, DGEMM, FFT, GUPS, STENCIL7, SUITE};
    pub use crate::node::{NodeKind, NodeModel};
    pub use crate::projection::{
        cluster_at, crossing_in, crossover_year, crossover_year_in, curve, ClusterPoint,
        Constraint, Crossing, DEFAULT_HORIZON, PETAFLOPS,
    };
    pub use crate::roofline::{attainable, efficiency, knee};
}
