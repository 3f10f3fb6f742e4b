//! Benchmark-harness support for the `figures` binary: the hot-path
//! timing harness behind `figures --bench`.

pub mod hotpath;
