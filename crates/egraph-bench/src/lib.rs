//! # egraph-bench
//!
//! Shared workload definitions for the benchmark harness. Each Criterion
//! bench target (and the `figures` binary) pulls its parameters from here so
//! that the quick terminal reproduction and the statistically rigorous
//! Criterion runs measure exactly the same workloads.
//!
//! The experiment identifiers (FIG5, ABL-A, …) are the section names the
//! `figures` binary takes on its command line and prints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod workloads;

pub use workloads::*;
