//! Measurement helpers of the milliScope end-to-end benchmark: order
//! statistics for the reported metrics and the in-memory span recorder of
//! the traced run. The benchmark itself is the `perfbench` binary.

pub mod stats;
pub mod trace;
