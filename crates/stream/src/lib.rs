//! # ep2-stream — out-of-core kernel-block streaming
//!
//! The paper's Step-1 memory bound `(d + l + m) · n ≤ S_G` caps the
//! training-set size at what fits the device. This crate removes that cap:
//! it streams the `m x n` mini-batch kernel block through a **bounded,
//! double-buffered producer/consumer pipeline** so datasets whose residency
//! exceeds `S_G` train at streaming — not thrashing — speed.
//!
//! The moving parts:
//!
//! - [`BlockPlan`] — partitions the `m x n` kernel block into `m x n_tile`
//!   tiles and sizes the ring so
//!   `tiles_in_flight · (m + d) · n_tile + l·n + (tiles_in_flight − 1)·d·m`
//!   fits `S_G` at the active precision (the `(m + d) · n_tile` per slot
//!   covers the kernel panel *and* its staged feature slice; the
//!   `(tiles_in_flight − 1)·d·m` term is one staged mini-batch feature
//!   block per possible producer — see
//!   `ep2_device::batch::streamed_slots`).
//! - [`TileRing`] — the fixed set of recycled tile buffers, each charged
//!   against the [`MemoryLedger`](ep2_device::MemoryLedger) for as long as
//!   the ring lives, so the `S_G` audit covers the pipeline.
//! - [`StreamEngine`] — producer threads assemble tiles via the blocked
//!   [`ep2_kernels::matrix::kernel_cross_into`] path (center row norms
//!   cached once per run, per-thread GEMM pack arenas reused) and push them
//!   through a bounded channel; the consumer drains [`TileGuard`]s in tile
//!   order and recycles each buffer on drop — backpressure is the empty
//!   channel running dry. Assembly of tile `t+1` overlaps compute on
//!   tile `t`.
//!
//! The consumer side (the preconditioned-SGD update) lives in `ep2-core`
//! (`EigenProIteration::step_streamed`), which depends on this crate. It
//! is the only implementation of Algorithm 1's iteration: the in-core step
//! feeds it one [`TileGuard::detached`] full-width tile and the sharded
//! driver one detached tile per shard, so every residency runs the same
//! consumer code.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pipeline;
mod plan;
mod ring;

pub use pipeline::{StreamEngine, TileStream};
pub use plan::BlockPlan;
pub use ring::{TileGuard, TileRing};
