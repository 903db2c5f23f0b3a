//! End-to-end and per-layer benchmark of the simulator and its modeled
//! service.  See `README.md` in this directory.

pub mod bench;
pub mod metrics;
pub mod probes;
pub mod rep;
pub mod trace;
pub mod workloads;
