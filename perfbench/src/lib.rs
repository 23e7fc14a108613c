//! The repository benchmark. See `README.md` for the workloads, the
//! metrics and the layer each per-layer metric belongs to.

pub mod expected;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod report;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workload;
