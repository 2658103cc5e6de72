//! # refocus-bench
//!
//! Substrate benchmark for the ReFOCUS reproduction. The library itself
//! is empty; the one target, `benches/substrate_json.rs`, times the FFT
//! kernels, the optical convolution and the fault campaign, checks the
//! serial/parallel bit-identity contract, and writes
//! `BENCH_substrate.json`:
//!
//! ```text
//! cargo bench -p refocus-bench --bench substrate_json
//! ```
//!
//! End-to-end and per-layer host-time measurements live in the
//! stand-alone `perfbench` package at the repository root.

#![warn(missing_docs)]
