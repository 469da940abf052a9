//! Shared helpers for the vmcw benchmark and figure-reproduction harness.

#![forbid(unsafe_code)]

pub mod load;
pub mod perf;
