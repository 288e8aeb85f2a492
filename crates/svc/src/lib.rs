//! `midas-svc` — the capacity-planning service layer of the MIDAS
//! reproduction.
//!
//! The lower crates answer one question per call ("run this experiment at
//! this seed"); this crate turns them into a long-running planning tool:
//!
//! * [`spec`] — experiment specs as JSON files: [`spec::JobSpec`] couples an
//!   [`ExperimentSpec`](midas::sim::ExperimentSpec) with the session knobs
//!   (traffic, dynamics, threads, deadline), with
//!   strict dotted-path decode errors and a pinned canonical encoding.
//! * [`json`] / [`hash`] — the dependency-free JSON parser/writers and
//!   SHA-256 behind it (the container has no crates.io access).
//! * [`pool`] — a bounded worker pool ([`pool::JobQueue`]) with per-job
//!   deadlines, cooperative cancellation, panic isolation and graceful
//!   drain; identical in-flight submissions dedup to one handle.
//! * [`runner`] — the executor: streams session-driven experiments into
//!   `rounds.jsonl` via [`observer::JsonlObserver`] and writes
//!   `result.json` **byte-identical** to the in-process
//!   `ExperimentSpec::run` encoding.
//! * [`cache`] / [`status`] — the content-addressed result store:
//!   `jobs/<id>/{spec.json, status.json, rounds.jsonl, result.json}` keyed
//!   by [`spec::JobSpec::cache_key`], with atomic `status.json` transitions
//!   (`queued → running → done|failed|cancelled|timeout`).
//!
//! The `midas` binary (this crate's `src/main.rs`) fronts it all:
//! `midas run spec.json`, `midas batch specs/`, `midas cache {ls,gc}`.

#![forbid(unsafe_code)]

pub mod cache;
pub mod hash;
pub mod json;
pub mod observer;
pub mod pool;
pub mod runner;
pub mod spec;
pub mod status;
