//! Benchmark support for CaWoSched: the `bench` binary regenerates the
//! committed `BENCH_*.json` artifacts, one section per artifact.
//!
//! | section | artifact            | measures                                        |
//! |---------|---------------------|-------------------------------------------------|
//! | `cost`  | `BENCH_cost.json`   | dense vs interval cost engine over the horizon  |
//! | `exact` | `BENCH_exact.json`  | exact solvers per cost engine, parallel B&B     |
//! | `lp`    | `BENCH_lp.json`     | LP engine ladder, headline, threads, warm       |
//! | `warm`  | `BENCH_warm.json`   | solve-cache hits, warm re-solves, re-answers    |
//! | `obs`   | `BENCH_obs.json`    | observability overhead and solve traces         |
//!
//! ```text
//! cargo run --release -p cawo_bench --bin bench [-- SECTION...]
//! ```
//!
//! [`report`] holds the schema and timing discipline every section
//! shares; [`fixtures`] the instances they measure.

pub mod fixtures;
pub mod report;
