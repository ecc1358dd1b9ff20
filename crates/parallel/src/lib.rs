//! # xai-parallel
//!
//! A hand-rolled, offline work-stealing runtime for the workspace's
//! host-side hot paths — the rayon shape (a lazily-initialised global
//! worker pool, `scope`/`join`, `par_chunks_mut`) rebuilt on `std`
//! only, because the build environment has no crates.io access.
//!
//! Before this crate, every parallel entry point
//! (`Fft2d::forward_batch_parallel`, `explain_batch_parallel_on`)
//! paid `std::thread::scope` — an OS thread spawn per chunk per
//! call. Now the whole stack shares one
//! persistent [`Pool`] with two scheduling lanes:
//!
//! * **compute** — [`Pool::scope`] / [`Pool::par_chunks_mut`] /
//!   [`Pool::join`]. A fixed fleet of workers (defaults to
//!   `available_parallelism`, overridable with `XAI_THREADS`) drains a
//!   chunked injector queue; idle workers — and the waiting caller —
//!   steal whole chunks, so ragged row blocks balance. Tasks on this
//!   lane must be CPU-bound and must never block on other tasks.
//! * **blocking** — [`Pool::scope_blocking`]. Every task is guaranteed
//!   its own thread from an elastic crew that grows to the high-water
//!   mark of requested concurrency and is then reused forever. This is
//!   the lane for request fan-out whose tasks *rendezvous* (e.g.
//!   `BatchQueue` followers park until the fleet's flight lands); a
//!   bounded pool would deadlock-until-timeout there.
//!
//! ## Determinism contract
//!
//! The runtime never changes results, only wall-clock time. Split
//! points are fixed by the caller (`chunk_len`), each chunk is
//! processed by exactly one task with the same sequential code the
//! serial path runs, and chunks are disjoint — so outputs are
//! **bit-identical** to serial execution for *any* worker count,
//! including 1. Ordered error/result collection is the caller's job
//! (one pre-allocated slot per chunk, first-error-in-chunk-order).
//!
//! ## Example
//!
//! ```
//! use xai_parallel::Pool;
//!
//! let pool = Pool::new(4);
//! let mut data: Vec<u64> = (0..1000).collect();
//! pool.par_chunks_mut(&mut data, 128, |_, chunk| {
//!     for v in chunk {
//!         *v *= 2;
//!     }
//! });
//! assert_eq!(data[999], 1998);
//!
//! let (a, b) = pool.join(|| 6 * 7, || "ok");
//! assert_eq!((a, b), (42, "ok"));
//! ```
//!
//! ## Safety
//!
//! Persistent worker threads are `'static`; scoped tasks borrow from
//! the caller's stack. Bridging the two requires erasing the task
//! closure's lifetime — the same trick `rayon-core` and
//! `std::thread::scope` use internally. The **single** `unsafe`
//! expression in this crate lives in [`pool`]'s task erasure and is
//! sound because a scope always joins every task it spawned before
//! returning, even when the scope body or a task panics.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod pool;

pub use pool::{global, init_global, Pool, Scope};
