//! `fcm-substrate` — the hermetic, zero-dependency substrate.
//!
//! Everything in this workspace that previously came from external crates
//! now lives here, so `cargo build --release --offline` works from an
//! empty registry cache and every experiment is reproducible from its
//! seed alone:
//!
//! | module | replaces | provides |
//! |---|---|---|
//! | [`rng`] | `rand` | SplitMix64-seeded xoshiro256++, `gen_range`, `shuffle`, `sample`, stream splitting |
//! | [`pool`] | `crossbeam` + `parking_lot` | scoped work-stealing `par_map` / `par_for`, poison-free `Mutex` |
//! | [`json`] | `serde` | a `Json` value with builder API, escaping emitter, round-trip parser |
//! | [`bytes`] | `bytes` | an immutable cheap-clone byte string |
//! | [`prop`] | `proptest` | seeded property harness, bisection shrinking, `FCM_PROP_SEED` replay |
//! | [`bench`](mod@bench) | `criterion` | warmup + timed iterations, median/p95, `BENCH_*.json` artefacts |
//! | [`fault`] | `fail`/failpoints | deterministic fault plans for named IO sites, crash latch, site tracing |
//!
//! The dependability argument (after De Florio's survey of application-
//! level fault tolerance, and the self-contained evaluation pipeline of
//! Rugina et al.'s AADL framework): a dependability tool must control
//! its own randomness and concurrency, or its own measurements are not
//! reproducible evidence.

#![warn(missing_docs)]

pub mod bench;
pub mod bytes;
pub mod fault;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;

pub use bytes::Bytes;
pub use fault::{Fault, FaultInjector, FaultKind, FaultPlan, FaultRule};
pub use json::{Json, ToJson};
pub use pool::{par_for, par_map, par_map_threads, par_reduce, Mutex};
pub use rng::Rng;
