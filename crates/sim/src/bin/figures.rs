//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures <artifact> [--scale quick|medium|full] [--seed N]
//! artifact ∈ {table1, table2, fig1, fig2, …, fig17, ext-heft, ext-ls, all}
//! ```
//!
//! Each handler writes the same rows/series the paper plots to stdout.
//! An unknown artifact exits 2 before any work; a closed stdout ends
//! the program quietly with exit 0.

#![expect(clippy::print_stderr, reason = "a CLI binary")]

use std::collections::HashMap;
use std::io::{self, Write};

use cawo_core::{Cost, Variant};
use cawo_platform::{DeadlineFactor, Scenario, PAPER_PROCESSOR_TYPES};
use cawo_sim::cli::{die, stdout_failed};
use cawo_sim::exactcmp::{run_exact_comparison, ExactCmpConfig};
use cawo_sim::experiment::{run_grid, size_class, ExperimentConfig, GridScale, SpecResult};
use cawo_sim::metrics::{
    self, boxplot, cost_ratios_vs, mean, median, performance_profile, rank_distribution,
};
use cawo_sim::report::{markdown_table, opt_f64, series_table, Series};
use cawo_sim::ClusterKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact: Option<String> = None;
    let mut scale = GridScale::Quick;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = GridScale::parse(args.get(i).map_or("", |s| s.as_str()))
                    .unwrap_or_else(|| die("expected --scale quick|medium|full"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("expected --seed <u64>"));
            }
            a if artifact.is_none() => artifact = Some(a.to_string()),
            a => die(&format!("unexpected argument {a}")),
        }
        i += 1;
    }
    let artifact = artifact.unwrap_or_else(|| die(USAGE));
    let handler = match artifact.as_str() {
        "all" => None,
        name => match ARTIFACTS.iter().find(|&&(n, _)| n == name) {
            Some(&(_, h)) => Some(h),
            None => die(&format!("unknown artifact {name}\n{USAGE}")),
        },
    };

    let mut out = io::stdout().lock();
    let out: &mut dyn Write = &mut out;
    let written = match handler {
        Some(Handler::Standalone(f)) => f(out, seed, scale),
        Some(Handler::Grid(f)) => f(out, &grid(seed, scale)),
        None => all(out, &grid(seed, scale)),
    };
    written
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| stdout_failed(&e));
}

const USAGE: &str = "usage: figures <table1|table2|fig1..fig17|ext-heft|ext-ls|all> \
                     [--scale quick|medium|full] [--seed N]";

/// An artifact that needs no grid: it gets the seed and the scale.
type Standalone = fn(&mut dyn Write, u64, GridScale) -> io::Result<()>;
/// An artifact drawn from the grid's results.
type GridFig = fn(&mut dyn Write, &[SpecResult]) -> io::Result<()>;

#[derive(Clone, Copy)]
enum Handler {
    Standalone(Standalone),
    Grid(GridFig),
}

/// Every artifact id and its handler; `all` prints `table1`, then each
/// grid artifact in this order.
const ARTIFACTS: [(&str, Handler); 21] = [
    ("table1", Handler::Standalone(|out, _, _| table1(out))),
    ("table2", Handler::Grid(table2)),
    ("fig1", Handler::Grid(fig1)),
    ("fig2", Handler::Grid(|out, r| fig2(out, r, None))),
    ("fig3", Handler::Grid(fig3)),
    ("fig4", Handler::Grid(|out, r| fig4(out, r, None))),
    ("fig5", Handler::Grid(fig5)),
    ("fig6", Handler::Grid(fig6)),
    ("fig7", Handler::Standalone(fig7)),
    ("fig8", Handler::Grid(|out, r| fig8(out, r, None))),
    ("fig9", Handler::Standalone(|out, _, _| fig9(out))),
    (
        "fig10",
        Handler::Grid(|out, r| fig2(out, r, Some(FigFilter::Deadline(DeadlineFactor::X20)))),
    ),
    (
        "fig11",
        Handler::Grid(|out, r| fig4(out, r, Some(FigFilter::Deadline(DeadlineFactor::X20)))),
    ),
    ("fig12", Handler::Grid(fig12)),
    ("fig13", Handler::Grid(fig13)),
    ("fig14", Handler::Grid(fig14)),
    ("fig15", Handler::Grid(fig15)),
    ("fig16", Handler::Grid(fig16)),
    ("fig17", Handler::Grid(fig17)),
    (
        "ext-heft",
        Handler::Standalone(|out, seed, _| ext_heft(out, seed)),
    ),
    (
        "ext-ls",
        Handler::Standalone(|out, seed, _| ext_ls(out, seed)),
    ),
];

/// Runs the experiment grid the grid artifacts are drawn from.
fn grid(seed: u64, scale: GridScale) -> Vec<SpecResult> {
    eprintln!("running grid (scale {scale:?}, seed {seed}) ...");
    let results = run_grid(&ExperimentConfig::new(scale, seed));
    eprintln!("{} instances done", results.len());
    results
}

fn all(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    table1(out)?;
    for &(name, handler) in &ARTIFACTS {
        if let Handler::Grid(f) = handler {
            writeln!(out, "\n===== {name} =====")?;
            f(out, results)?;
        }
    }
    Ok(())
}

fn fig9(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Figure 9 illustrates the E-schedule block-shift argument of \
         Lemma 4.2; it has no data series. See cawo-exact::dp."
    )
}

fn fig3(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    for d in [
        DeadlineFactor::X10,
        DeadlineFactor::X15,
        DeadlineFactor::X30,
    ] {
        writeln!(out, "## deadline factor {}", d.as_f64())?;
        fig2(out, results, Some(FigFilter::Deadline(d)))?;
    }
    Ok(())
}

fn fig5(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    for d in [
        DeadlineFactor::X10,
        DeadlineFactor::X15,
        DeadlineFactor::X30,
    ] {
        writeln!(out, "## deadline factor {}", d.as_f64())?;
        fig4(out, results, Some(FigFilter::Deadline(d)))?;
    }
    Ok(())
}

fn fig13(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    for d in DeadlineFactor::ALL {
        writeln!(out, "## deadline factor {}", d.as_f64())?;
        fig8(out, results, Some(FigFilter::Deadline(d)))?;
    }
    Ok(())
}

fn fig14(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    for c in [ClusterKind::Small, ClusterKind::Large] {
        writeln!(out, "## cluster {}", c.name())?;
        fig4(out, results, Some(FigFilter::Cluster(c)))?;
    }
    Ok(())
}

fn fig15(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    for s in Scenario::ALL {
        writeln!(out, "## scenario {}", s.label())?;
        fig4(out, results, Some(FigFilter::Scenario(s)))?;
    }
    Ok(())
}

fn fig16(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    for class in ["small", "medium", "large"] {
        writeln!(out, "## workflow size class {class}")?;
        fig4(out, results, Some(FigFilter::SizeClass(class)))?;
    }
    Ok(())
}

fn fig17(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    for c in [ClusterKind::Small, ClusterKind::Large] {
        writeln!(out, "## cluster {}", c.name())?;
        fig2(out, results, Some(FigFilter::Cluster(c)))?;
    }
    Ok(())
}

/// Instance filters for the grouped figures.
#[derive(Debug, Clone, Copy)]
enum FigFilter {
    Deadline(DeadlineFactor),
    Cluster(ClusterKind),
    Scenario(Scenario),
    SizeClass(&'static str),
}

impl FigFilter {
    fn keep(&self, r: &SpecResult) -> bool {
        match *self {
            FigFilter::Deadline(d) => r.spec.deadline == d,
            FigFilter::Cluster(c) => r.spec.cluster == c,
            FigFilter::Scenario(s) => r.spec.scenario == s,
            FigFilter::SizeClass(c) => size_class(r.n_tasks) == c,
        }
    }
}

/// The nine algorithms of the main §6.2 comparison (baseline + `-LS`).
fn main_algorithms() -> Vec<Variant> {
    let mut v = vec![Variant::Asap];
    v.extend(Variant::WITH_LS);
    v
}

fn filtered(results: &[SpecResult], filter: Option<FigFilter>) -> Vec<&SpecResult> {
    results
        .iter()
        .filter(|r| filter.is_none_or(|f| f.keep(r)))
        .collect()
}

/// Cost matrix (instances × algorithms) for a set of variants.
fn cost_matrix(results: &[&SpecResult], algs: &[Variant]) -> Vec<Vec<Cost>> {
    results
        .iter()
        .map(|r| algs.iter().map(|&v| r.cost_of(v)).collect())
        .collect()
}

// ----- Table 1 -------------------------------------------------------

fn table1(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table 1: processor specifications in the clusters")?;
    let rows: Vec<Vec<String>> = PAPER_PROCESSOR_TYPES
        .iter()
        .map(|t| {
            vec![
                t.name.to_string(),
                t.speed.to_string(),
                t.p_idle.to_string(),
                t.p_work.to_string(),
                "x12".to_string(),
                "x24".to_string(),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        markdown_table(
            &["Processor", "Speed", "Pidle", "Pwork", "small", "large"],
            &rows
        )
    )
}

// ----- Table 2: local-search ablation --------------------------------

fn table2(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    writeln!(
        out,
        "Table 2: cost ratio (with LS / without LS); atacseq* + bacass \
         instances, refined variants"
    )?;
    use cawo_graph::generator::Family;
    let subset: Vec<&SpecResult> = results
        .iter()
        .filter(|r| matches!(r.spec.family, Family::Atacseq | Family::Bacass))
        .collect();
    let pairs = [
        (Variant::SlackRLs, Variant::SlackR, "slackR"),
        (Variant::SlackWRLs, Variant::SlackWR, "slackWR"),
        (Variant::PressRLs, Variant::PressR, "pressR"),
        (Variant::PressWRLs, Variant::PressWR, "pressWR"),
    ];
    let mut rows = Vec::new();
    for (ls, greedy, name) in pairs {
        let ratios: Vec<f64> = subset
            .iter()
            .filter_map(|r| {
                let with = r.cost_of(ls);
                let without = r.cost_of(greedy);
                match (with, without) {
                    (0, 0) => Some(1.0),
                    (_, 0) => None, // impossible: LS never worsens
                    (w, wo) => Some(w as f64 / wo as f64),
                }
            })
            .collect();
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().copied().fold(0.0f64, f64::max);
        rows.push(vec![
            name.to_string(),
            format!("{min:.2}"),
            format!("{max:.2}"),
            opt_f64(mean(&ratios)),
        ]);
    }
    writeln!(
        out,
        "{}",
        markdown_table(&["Algorithm Variant", "Min", "Max", "Avg"], &rows)
    )?;
    writeln!(out, "({} instances in the subset)", subset.len())
}

// ----- Figure 1: rank distribution -----------------------------------

fn fig1(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    writeln!(
        out,
        "Figure 1: rank distribution (fraction of instances per rank)"
    )?;
    let algs = main_algorithms();
    let matrix = cost_matrix(&filtered(results, None), &algs);
    let dist = rank_distribution(&matrix);
    let xs: Vec<String> = algs.iter().map(|v| v.name().to_string()).collect();
    let series: Vec<Series> = (0..algs.len())
        .map(|r| Series {
            name: format!("rank{}", r + 1),
            values: (0..algs.len()).map(|a| dist[a][r]).collect(),
        })
        .collect();
    writeln!(out, "{}", series_table("variant", &xs, &series))?;
    // Headline numbers quoted in §6.2.
    let asap_last = dist[0][algs.len() - 1];
    writeln!(
        out,
        "ASAP ranked last on {:.2}% of instances",
        100.0 * asap_last
    )?;
    let (best_alg, best_first) = (0..algs.len())
        .map(|a| (algs[a], dist[a][0]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one algorithm");
    writeln!(
        out,
        "most-frequent rank-1: {} ({:.2}%)",
        best_alg,
        100.0 * best_first
    )
}

// ----- Figure 2 (and 3/10/17): performance profiles -------------------

fn fig2(out: &mut dyn Write, results: &[SpecResult], filter: Option<FigFilter>) -> io::Result<()> {
    writeln!(
        out,
        "Performance profiles: fraction of instances with best/own >= tau"
    )?;
    let algs = main_algorithms();
    let subset = filtered(results, filter);
    if subset.is_empty() {
        writeln!(out, "(no instances in this group at the current scale)")?;
        return Ok(());
    }
    let matrix = cost_matrix(&subset, &algs);
    let taus = metrics::default_taus();
    let xs: Vec<String> = taus.iter().map(|t| format!("{t:.2}")).collect();
    let series: Vec<Series> = algs
        .iter()
        .enumerate()
        .map(|(a, v)| Series {
            name: v.name().to_string(),
            values: performance_profile(&matrix, a, &taus),
        })
        .collect();
    writeln!(out, "{}", series_table("tau", &xs, &series))
}

// ----- Figure 4 (and 5/11/14/15/16): cost ratio vs ASAP ---------------

fn fig4(out: &mut dyn Write, results: &[SpecResult], filter: Option<FigFilter>) -> io::Result<()> {
    writeln!(
        out,
        "Median cost ratio (variant cost / ASAP cost); lower is better"
    )?;
    let algs = main_algorithms();
    let subset = filtered(results, filter);
    if subset.is_empty() {
        writeln!(out, "(no instances in this group at the current scale)")?;
        return Ok(());
    }
    let matrix = cost_matrix(&subset, &algs);
    let mut rows = Vec::new();
    for (a, v) in algs.iter().enumerate().skip(1) {
        let ratios = cost_ratios_vs(&matrix, a, 0);
        rows.push(vec![
            v.name().to_string(),
            opt_f64(median(&ratios)),
            opt_f64(mean(&ratios)),
            ratios.len().to_string(),
        ]);
    }
    writeln!(
        out,
        "{}",
        markdown_table(&["variant", "median", "mean", "n"], &rows)
    )
}

// ----- Figure 6: boxplots ---------------------------------------------

fn fig6(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    writeln!(out, "Figure 6: boxplot of cost ratios vs ASAP")?;
    let algs = main_algorithms();
    let matrix = cost_matrix(&filtered(results, None), &algs);
    let mut rows = Vec::new();
    for (a, v) in algs.iter().enumerate().skip(1) {
        let ratios = cost_ratios_vs(&matrix, a, 0);
        if let Some(b) = boxplot(&ratios) {
            rows.push(vec![
                v.name().to_string(),
                format!("{:.3}", b.lo_whisker),
                format!("{:.3}", b.q1),
                format!("{:.3}", b.median),
                format!("{:.3}", b.q3),
                format!("{:.3}", b.hi_whisker),
                b.outliers.len().to_string(),
            ]);
        }
    }
    writeln!(
        out,
        "{}",
        markdown_table(
            &["variant", "lo", "q1", "median", "q3", "hi", "#outliers"],
            &rows
        )
    )
}

// ----- Figure 7: exact comparison -------------------------------------

fn fig7(out: &mut dyn Write, seed: u64, scale: GridScale) -> io::Result<()> {
    let cfg = ExactCmpConfig {
        instances: match scale {
            GridScale::Quick => 12,
            GridScale::Medium => 24,
            GridScale::Full => 48,
        },
        seed,
        ..ExactCmpConfig::default()
    };
    eprintln!("running exact comparison ({} instances) ...", cfg.instances);
    let results = run_exact_comparison(&cfg);
    let proved = results.iter().filter(|r| r.proved).count();
    writeln!(
        out,
        "Figure 7: optimal/heuristic cost ratio on {} small instances \
         ({} proved optimal)",
        results.len(),
        proved
    )?;
    let algs: Vec<Variant> = cfg.variants.clone();
    let mut rows = Vec::new();
    for &v in &algs {
        let ratios: Vec<f64> = results
            .iter()
            .filter(|r| r.proved)
            .map(|r| r.ratio(v))
            .collect();
        let at_one = ratios.iter().filter(|&&r| r == 1.0).count();
        rows.push(vec![
            v.name().to_string(),
            opt_f64(median(&ratios)),
            opt_f64(mean(&ratios)),
            format!("{at_one}/{}", ratios.len()),
        ]);
    }
    writeln!(
        out,
        "{}",
        markdown_table(
            &["variant", "median ratio", "mean ratio", "optimal hits"],
            &rows
        )
    )
}

// ----- Figure 8 (and 12/13): running times -----------------------------

fn fig8(out: &mut dyn Write, results: &[SpecResult], filter: Option<FigFilter>) -> io::Result<()> {
    writeln!(out, "Running time per algorithm variant (milliseconds)")?;
    let algs = Variant::ALL;
    let subset = filtered(results, filter);
    if subset.is_empty() {
        writeln!(out, "(no instances in this group at the current scale)")?;
        return Ok(());
    }
    let mut rows = Vec::new();
    for &v in &algs {
        let times: Vec<f64> = subset.iter().map(|r| r.millis_of(v)).collect();
        let max = times.iter().copied().fold(0.0f64, f64::max);
        rows.push(vec![
            v.name().to_string(),
            opt_f64(median(&times)),
            opt_f64(mean(&times)),
            format!("{max:.3}"),
        ]);
    }
    writeln!(
        out,
        "{}",
        markdown_table(&["variant", "median ms", "mean ms", "max ms"], &rows)
    )
}

fn fig12(out: &mut dyn Write, results: &[SpecResult]) -> io::Result<()> {
    writeln!(
        out,
        "Figure 12: running time, large workflows (20k-30k tasks) only"
    )?;
    let classes: HashMap<&str, usize> = results.iter().fold(HashMap::new(), |mut m, r| {
        *m.entry(size_class(r.n_tasks)).or_default() += 1;
        m
    });
    if classes.contains_key("large") {
        fig8(out, results, Some(FigFilter::SizeClass("large")))?;
    } else {
        let biggest = if classes.contains_key("medium") {
            "medium"
        } else {
            "small"
        };
        writeln!(
            out,
            "(no 20k+ workflows at this scale — showing the `{biggest}` class; \
             rerun with --scale full for the paper-sized measurement)"
        )?;
        fig8(out, results, Some(FigFilter::SizeClass(biggest)))?;
    }
    Ok(())
}

// ----- Extensions (paper §7 future work) -------------------------------

/// Two-pass carbon-aware HEFT (§7) vs plain HEFT, both refined by the
/// strongest CaWoSched variant. Reports median carbon-cost ratios.
fn ext_heft(out: &mut dyn Write, seed: u64) -> io::Result<()> {
    use cawo_core::{carbon_cost, Instance};
    use cawo_graph::generator::{generate, GeneratorConfig};
    use cawo_heft::{heft_schedule, two_pass_carbon_heft, CarbonHeftConfig};
    use cawo_platform::Cluster;

    writeln!(
        out,
        "Extension (paper §7): two-pass carbon-aware HEFT vs plain HEFT,\n\
         both followed by the pressWR-LS second pass"
    )?;
    let mut rows = Vec::new();
    for lambda in [0.25, 0.5, 0.75, 1.0] {
        let mut ratios = Vec::new();
        for (i, family) in cawo_graph::generator::Family::ALL.iter().enumerate() {
            for (j, scenario) in Scenario::ALL.iter().enumerate() {
                let s = seed ^ ((i * 4 + j) as u64) << 8;
                let wf = generate(&GeneratorConfig::new(*family, 150, s));
                let cluster = Cluster::from_type_counts("ext", &[2, 2, 2, 2, 2, 2], s);
                // Pipeline A: plain HEFT.
                let plain = heft_schedule(&wf, &cluster);
                let (cmap, profile) = two_pass_carbon_heft(
                    &wf,
                    &cluster,
                    *scenario,
                    DeadlineFactor::X20,
                    s,
                    CarbonHeftConfig {
                        carbon_weight: lambda,
                        makespan_slack: 0.4,
                    },
                );
                let inst_a = Instance::build(&wf, &cluster, &plain);
                let inst_b = Instance::build(&wf, &cluster, &cmap);
                // Same horizon for both pipelines (based on plain HEFT).
                if inst_a.asap_makespan() > profile.deadline()
                    || inst_b.asap_makespan() > profile.deadline()
                {
                    continue; // remap overshot the shared deadline
                }
                let a = carbon_cost(
                    &inst_a,
                    &Variant::PressWRLs.run(&inst_a, &profile),
                    &profile,
                );
                let b = carbon_cost(
                    &inst_b,
                    &Variant::PressWRLs.run(&inst_b, &profile),
                    &profile,
                );
                ratios.push(match (b, a) {
                    (0, 0) => 1.0,
                    (_, 0) => continue,
                    (b, a) => b as f64 / a as f64,
                });
            }
        }
        let wins = ratios.iter().filter(|&&r| r < 1.0).count();
        rows.push(vec![
            format!("{lambda:.2}"),
            opt_f64(median(&ratios)),
            opt_f64(mean(&ratios)),
            format!("{wins}/{}", ratios.len()),
        ]);
    }
    writeln!(
        out,
        "{}",
        markdown_table(
            &[
                "carbon weight λ",
                "median C-HEFT/HEFT",
                "mean",
                "C-HEFT wins"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "ratios < 1 mean the carbon-aware first pass reduced the final cost"
    )
}

/// First-improvement vs best-improvement local search (§5.3's discarded
/// alternative): quality and applied-move counts.
fn ext_ls(out: &mut dyn Write, seed: u64) -> io::Result<()> {
    use cawo_core::{
        carbon_cost, greedy_schedule, local_search_with_policy, GreedyConfig, Instance, LsPolicy,
        Score,
    };
    use cawo_graph::generator::{generate, Family, GeneratorConfig};
    use cawo_heft::heft_schedule;
    use cawo_platform::{Cluster, ProfileConfig};

    writeln!(
        out,
        "Extension: first-improvement vs best-improvement local search"
    )?;
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    // Instances where first-improvement reaches cost 0 and
    // best-improvement does not: the row stays, but best/first has no
    // finite value to enter the median.
    let mut no_ratio = 0usize;
    for (i, family) in Family::ALL.iter().enumerate() {
        for (j, scenario) in Scenario::ALL.iter().enumerate() {
            let s = seed ^ ((i * 4 + j) as u64) << 16;
            let wf = generate(&GeneratorConfig::new(*family, 150, s));
            let cluster = Cluster::from_type_counts("ext", &[2, 2, 2, 2, 2, 2], s);
            let mapping = heft_schedule(&wf, &cluster);
            let inst = Instance::build(&wf, &cluster, &mapping);
            let profile = ProfileConfig::new(*scenario, DeadlineFactor::X20, s)
                .build(&cluster, inst.asap_makespan());
            let greedy = greedy_schedule(
                &inst,
                &profile,
                GreedyConfig::new(Score::Pressure, true, true),
            );
            let mut first = greedy.clone();
            let fs = local_search_with_policy(
                &inst,
                &profile,
                &mut first,
                10,
                LsPolicy::FirstImprovement,
            );
            let mut best = greedy.clone();
            let bs =
                local_search_with_policy(&inst, &profile, &mut best, 10, LsPolicy::BestImprovement);
            let fc = carbon_cost(&inst, &first, &profile);
            let bc = carbon_cost(&inst, &best, &profile);
            match (bc, fc) {
                (0, 0) => ratios.push(1.0),
                (_, 0) => no_ratio += 1,
                (b, f) => ratios.push(b as f64 / f as f64),
            }
            rows.push(vec![
                format!("{}/{}", family.name(), scenario.label()),
                fc.to_string(),
                bc.to_string(),
                fs.moves.to_string(),
                bs.moves.to_string(),
            ]);
        }
    }
    writeln!(
        out,
        "{}",
        markdown_table(
            &[
                "instance",
                "first-impr cost",
                "best-impr cost",
                "FI moves",
                "BI moves"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "median best/first cost ratio: {} over {} instances; {no_ratio} more without a \
         finite ratio (first-improvement reached cost 0, best-improvement did not). \
         ≈1 supports the paper's choice of the faster first-improvement policy",
        opt_f64(median(&ratios)),
        ratios.len(),
    )
}
