//! Shared fixtures for the CaWoSched criterion benches.
//!
//! The benches regenerate the paper's timing artifacts:
//!
//! | bench               | paper artifact                             |
//! |---------------------|--------------------------------------------|
//! | `runtime`           | Fig. 8 — time per algorithm variant        |
//! | `runtime_large`     | Fig. 12 — large workflows only             |
//! | `deadline_tolerance`| Fig. 13 — time vs deadline factor          |
//! | `components`        | engine micro-benchmarks (not in the paper) |
//! | `ablation`          | parameter ablations (µ, k, refine cap)     |
//! | `cost_engine`       | dense vs interval cost engine over horizon |
//! | `lp_engine`         | sparse LP engine on the compact A.4 model  |
//!
//! Five binaries emit machine-readable artifacts outside the criterion
//! harness, each into the current directory:
//!
//! | binary        | artifact            | measures                                   |
//! |---------------|---------------------|--------------------------------------------|
//! | `bench_cost`  | `BENCH_cost.json`   | the `cost_engine` grid                     |
//! | `bench_exact` | `BENCH_exact.json`  | exact solvers and their cost engines       |
//! | `bench_lp`    | `BENCH_lp.json`     | LP engine ladders, headline, threads, warm |
//! | `bench_warm`  | `BENCH_warm.json`   | warm-path cache hits and re-answers        |
//! | `bench_obs`   | `BENCH_obs.json`    | observability overhead and solve traces    |

pub mod fixtures;
