//! Steady-state end-to-end and per-layer benchmark for the flash-qos
//! engine, fleet and offline pipeline. See `README.md` for the metrics,
//! the workloads and how to read a result; `main.rs` is the command line.

pub mod catalog;
pub mod compare;
pub mod gen;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod offline;
pub mod online;
pub mod report;
pub mod run;
pub mod sys;
pub mod trace;
pub mod traced;
pub mod workloads;
