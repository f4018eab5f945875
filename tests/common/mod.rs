//! Shared support for the differential suites. Each integration
//! test that needs it declares `mod common;` — test binaries compile
//! independently, so not every binary uses every item.
#![allow(dead_code)]

pub mod matrix;
pub mod oracle;
