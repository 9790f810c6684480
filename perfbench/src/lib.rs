//! `seaice-perfbench`: the repository's benchmark. It drives four named
//! workloads (`label`, `train`, `serve`, `stream`) through the crates'
//! public functions, reports end-to-end metrics on an untraced run and
//! per-layer metrics on a traced run, checks every output, and records
//! the host fingerprint with each result. See `README.md`.

pub mod compare;
pub mod host;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
