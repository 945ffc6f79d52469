//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures <artifact> [--scale quick|medium|full] [--seed N]
//! artifact ∈ {table1, table2, fig1, fig2, …, fig8, fig10, …, fig17, all}
//! ```
//!
//! Each handler prints the same rows/series the paper plots.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a CLI binary")]

use std::collections::HashMap;

use cawo_core::{Cost, Variant};
use cawo_platform::{DeadlineFactor, Scenario, PAPER_PROCESSOR_TYPES};
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

    // Artifacts that do not need the grid.
    match artifact.as_str() {
        "table1" => return table1(),
        "fig7" => return fig7(seed, scale),
        "fig9" => {
            println!(
                "Figure 9 illustrates the E-schedule block-shift argument of \
                 Lemma 4.2; it has no data series. See cawo-exact::dp."
            );
            return;
        }
        "ext-heft" => return ext_heft(seed),
        "ext-ls" => return ext_ls(seed),
        _ => {}
    }

    eprintln!("running grid (scale {scale:?}, seed {seed}) ...");
    let cfg = ExperimentConfig::new(scale, seed);
    let results = run_grid(&cfg);
    eprintln!("{} instances done", results.len());

    match artifact.as_str() {
        "table2" => table2(&results),
        "fig1" => fig1(&results),
        "fig2" => fig2(&results, None),
        "fig3" => fig3(&results),
        "fig4" => fig4(&results, None),
        "fig5" => fig5(&results),
        "fig6" => fig6(&results),
        "fig8" => fig8(&results, None),
        "fig10" => fig2(&results, Some(FigFilter::Deadline(DeadlineFactor::X20))),
        "fig11" => fig4(&results, Some(FigFilter::Deadline(DeadlineFactor::X20))),
        "fig12" => fig12(&results),
        "fig13" => fig13(&results),
        "fig14" => fig14(&results),
        "fig15" => fig15(&results),
        "fig16" => fig16(&results),
        "fig17" => fig17(&results),
        "all" => {
            table1();
            for (name, f) in ALL_GRID_FIGS {
                println!("\n===== {name} =====");
                f(&results);
            }
        }
        other => die(&format!("unknown artifact {other}\n{USAGE}")),
    }
}

const USAGE: &str = "usage: figures <table1|table2|fig1..fig17|ext-heft|ext-ls|all> \
                     [--scale quick|medium|full] [--seed N]";

type GridFig = fn(&[SpecResult]);
const ALL_GRID_FIGS: [(&str, GridFig); 16] = [
    ("table2", table2),
    ("fig1", fig1),
    ("fig2", |r: &[SpecResult]| fig2(r, None)),
    ("fig3", fig3),
    ("fig4", |r: &[SpecResult]| fig4(r, None)),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig8", |r: &[SpecResult]| fig8(r, None)),
    ("fig10", |r: &[SpecResult]| {
        fig2(r, Some(FigFilter::Deadline(DeadlineFactor::X20)))
    }),
    ("fig11", |r: &[SpecResult]| {
        fig4(r, Some(FigFilter::Deadline(DeadlineFactor::X20)))
    }),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
];

fn fig3(results: &[SpecResult]) {
    for d in [
        DeadlineFactor::X10,
        DeadlineFactor::X15,
        DeadlineFactor::X30,
    ] {
        println!("## deadline factor {}", d.as_f64());
        fig2(results, Some(FigFilter::Deadline(d)));
    }
}

fn fig5(results: &[SpecResult]) {
    for d in [
        DeadlineFactor::X10,
        DeadlineFactor::X15,
        DeadlineFactor::X30,
    ] {
        println!("## deadline factor {}", d.as_f64());
        fig4(results, Some(FigFilter::Deadline(d)));
    }
}

fn fig13(results: &[SpecResult]) {
    for d in DeadlineFactor::ALL {
        println!("## deadline factor {}", d.as_f64());
        fig8(results, Some(FigFilter::Deadline(d)));
    }
}

fn fig14(results: &[SpecResult]) {
    for c in [ClusterKind::Small, ClusterKind::Large] {
        println!("## cluster {}", c.name());
        fig4(results, Some(FigFilter::Cluster(c)));
    }
}

fn fig15(results: &[SpecResult]) {
    for s in Scenario::ALL {
        println!("## scenario {}", s.label());
        fig4(results, Some(FigFilter::Scenario(s)));
    }
}

fn fig16(results: &[SpecResult]) {
    for class in ["small", "medium", "large"] {
        println!("## workflow size class {class}");
        fig4(results, Some(FigFilter::SizeClass(class)));
    }
}

fn fig17(results: &[SpecResult]) {
    for c in [ClusterKind::Small, ClusterKind::Large] {
        println!("## cluster {}", c.name());
        fig2(results, Some(FigFilter::Cluster(c)));
    }
}

#[expect(clippy::exit, reason = "a CLI's usage/error path legitimately exits")]
fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
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

fn table1() {
    println!("Table 1: processor specifications in the clusters");
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
    println!(
        "{}",
        markdown_table(
            &["Processor", "Speed", "Pidle", "Pwork", "small", "large"],
            &rows
        )
    );
}

// ----- Table 2: local-search ablation --------------------------------

fn table2(results: &[SpecResult]) {
    println!(
        "Table 2: cost ratio (with LS / without LS); atacseq* + bacass \
         instances, refined variants"
    );
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
    println!(
        "{}",
        markdown_table(&["Algorithm Variant", "Min", "Max", "Avg"], &rows)
    );
    println!("({} instances in the subset)", subset.len());
}

// ----- Figure 1: rank distribution -----------------------------------

fn fig1(results: &[SpecResult]) {
    println!("Figure 1: rank distribution (fraction of instances per rank)");
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
    println!("{}", series_table("variant", &xs, &series));
    // Headline numbers quoted in §6.2.
    let asap_last = dist[0][algs.len() - 1];
    println!("ASAP ranked last on {:.2}% of instances", 100.0 * asap_last);
    let (best_alg, best_first) = (0..algs.len())
        .map(|a| (algs[a], dist[a][0]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one algorithm");
    println!(
        "most-frequent rank-1: {} ({:.2}%)",
        best_alg,
        100.0 * best_first
    );
}

// ----- Figure 2 (and 3/10/17): performance profiles -------------------

fn fig2(results: &[SpecResult], filter: Option<FigFilter>) {
    println!("Performance profiles: fraction of instances with best/own >= tau");
    let algs = main_algorithms();
    let subset = filtered(results, filter);
    if subset.is_empty() {
        println!("(no instances in this group at the current scale)");
        return;
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
    println!("{}", series_table("tau", &xs, &series));
}

// ----- Figure 4 (and 5/11/14/15/16): cost ratio vs ASAP ---------------

fn fig4(results: &[SpecResult], filter: Option<FigFilter>) {
    println!("Median cost ratio (variant cost / ASAP cost); lower is better");
    let algs = main_algorithms();
    let subset = filtered(results, filter);
    if subset.is_empty() {
        println!("(no instances in this group at the current scale)");
        return;
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
    println!(
        "{}",
        markdown_table(&["variant", "median", "mean", "n"], &rows)
    );
}

// ----- Figure 6: boxplots ---------------------------------------------

fn fig6(results: &[SpecResult]) {
    println!("Figure 6: boxplot of cost ratios vs ASAP");
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
    println!(
        "{}",
        markdown_table(
            &["variant", "lo", "q1", "median", "q3", "hi", "#outliers"],
            &rows
        )
    );
}

// ----- Figure 7: exact comparison -------------------------------------

fn fig7(seed: u64, scale: GridScale) {
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
    println!(
        "Figure 7: optimal/heuristic cost ratio on {} small instances \
         ({} proved optimal)",
        results.len(),
        proved
    );
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
    println!(
        "{}",
        markdown_table(
            &["variant", "median ratio", "mean ratio", "optimal hits"],
            &rows
        )
    );
}

// ----- Figure 8 (and 12/13): running times -----------------------------

fn fig8(results: &[SpecResult], filter: Option<FigFilter>) {
    println!("Running time per algorithm variant (milliseconds)");
    let algs = Variant::ALL;
    let subset = filtered(results, filter);
    if subset.is_empty() {
        println!("(no instances in this group at the current scale)");
        return;
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
    println!(
        "{}",
        markdown_table(&["variant", "median ms", "mean ms", "max ms"], &rows)
    );
}

fn fig12(results: &[SpecResult]) {
    println!("Figure 12: running time, large workflows (20k-30k tasks) only");
    let classes: HashMap<&str, usize> = results.iter().fold(HashMap::new(), |mut m, r| {
        *m.entry(size_class(r.n_tasks)).or_default() += 1;
        m
    });
    if classes.contains_key("large") {
        fig8(results, Some(FigFilter::SizeClass("large")));
    } else {
        let biggest = if classes.contains_key("medium") {
            "medium"
        } else {
            "small"
        };
        println!(
            "(no 20k+ workflows at this scale — showing the `{biggest}` class; \
             rerun with --scale full for the paper-sized measurement)"
        );
        fig8(results, Some(FigFilter::SizeClass(biggest)));
    }
}

// ----- Extensions (paper §7 future work) -------------------------------

/// Two-pass carbon-aware HEFT (§7) vs plain HEFT, both refined by the
/// strongest CaWoSched variant. Reports median carbon-cost ratios.
fn ext_heft(seed: u64) {
    use cawo_core::{carbon_cost, Instance};
    use cawo_graph::generator::{generate, GeneratorConfig};
    use cawo_heft::{heft_schedule, two_pass_carbon_heft, CarbonHeftConfig};
    use cawo_platform::Cluster;

    println!(
        "Extension (paper §7): two-pass carbon-aware HEFT vs plain HEFT,\n\
         both followed by the pressWR-LS second pass"
    );
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
    println!(
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
    );
    println!("ratios < 1 mean the carbon-aware first pass reduced the final cost");
}

/// First-improvement vs best-improvement local search (§5.3's discarded
/// alternative): quality and applied-move counts.
fn ext_ls(seed: u64) {
    use cawo_core::{
        carbon_cost, greedy_schedule, local_search_with_policy, GreedyConfig, Instance, LsPolicy,
        Score,
    };
    use cawo_graph::generator::{generate, Family, GeneratorConfig};
    use cawo_heft::heft_schedule;
    use cawo_platform::{Cluster, ProfileConfig};

    println!("Extension: first-improvement vs best-improvement local search");
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
    println!(
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
    );
    println!(
        "median best/first cost ratio: {} over {} instances; {no_ratio} more without a \
         finite ratio (first-improvement reached cost 0, best-improvement did not). \
         ≈1 supports the paper's choice of the faster first-improvement policy",
        opt_f64(median(&ratios)),
        ratios.len(),
    );
}
