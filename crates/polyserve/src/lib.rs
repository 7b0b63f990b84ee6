//! # polyserve — a long-running profiling server over the Poly-Prof pipeline
//!
//! Everything before this crate runs Poly-Prof as a *batch* tool: one
//! process, one workload, one report. `polyserve` turns the pipeline into a
//! *service*: a TCP server that accepts profiling submissions (a registered
//! workload, or an uploaded `.ptrace` recording), streams incremental
//! progress frames while the run folds, and delivers the final report as
//! stable-keyed JSON — with the operational armor a shared service needs:
//!
//! - **Admission control** — per-tenant token-bucket rate limits in front
//!   of a bounded run queue. Overload is answered with a structured
//!   `overloaded` frame carrying a `retry_after_ms` hint, never an
//!   accepted-then-hung session.
//! - **Fair scheduling** — the worker pool drains the queue round-robin
//!   across tenants, so one flooding tenant cannot starve the rest.
//! - **Session isolation** — every session folds under `catch_unwind`
//!   with its own [`polyresist::ResourceBudget`] (re-armed at run start so
//!   queue wait never eats session time) and its own forked
//!   [`polyresist::FaultPlan`]. A failing session degrades *itself*; the
//!   server keeps serving.
//! - **One owner per session** — the connection thread that admitted a
//!   session holds the only handle on its socket and writes every frame of
//!   it; it reports progress by reading the heartbeat the run publishes on
//!   the session's budget, and it is the watchdog that cancels a session
//!   wedged past its deadline plus grace. No sampler, pump or watchdog
//!   thread exists, and no thread in the server polls: accept, workers and
//!   owners all block until there is something to do.
//! - **Folded-DDG cache** — clean results are cached by
//!   `(program id, input hash)` with single-flight dedup: identical
//!   concurrent submissions fold once. What is kept is the rendered report
//!   minus its session-dependent head, at most 8 MiB of them (least recently
//!   hit evicted first); a submission the cache holds is answered at
//!   admission by its connection thread — no queue slot, no worker — so a hit
//!   costs one copy of those bytes and is served while every worker folds.
//!
//! The wire protocol is deliberately small (see [`wire`]): length-prefixed
//! frames each written in one write, flat JSON objects, no external
//! dependencies. [`client::Client`]
//! is the matching blocking client used by the tests and by
//! `perf_ledger`'s `serve_mix` workload.
//!
//! ```no_run
//! use polyserve::{serve, Client, ServerConfig, Submission, SubmitOpts};
//!
//! let registry = vec![("backprop".to_string(), rodinia::backprop::build().program)];
//! let server = serve("127.0.0.1:0", ServerConfig::default(), registry).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let outcome = client
//!     .submit(Submission::Program { workload: "backprop" }, &SubmitOpts::default())
//!     .unwrap();
//! println!("{outcome:?}");
//! server.shutdown();
//! ```

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, Outcome, Submission, SubmitOpts};
pub use server::{serve, ServerConfig, ServerHandle};
