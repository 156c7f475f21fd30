//! # perfbench — the repository benchmark
//!
//! Runs the simulator's workloads for a time budget and prints end-to-end
//! metrics (host cost and simulated results) or, in a traced run,
//! per-layer metrics plus a Chrome trace of host-time spans. Everything is
//! measured from outside the simulator crates, through their public
//! functions. See `README.md` in this directory.

pub mod alloc;
pub mod bench;
pub mod cells;
pub mod crashenum;
pub mod refclock;
pub mod traced;
pub mod tracer;
