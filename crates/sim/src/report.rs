//! Plain-text emitters for the figure/table reproductions.
//!
//! The paper's figures are plots; these helpers print the identical
//! underlying rows/series as aligned text and markdown tables so the
//! shapes (who wins, by what factor, where crossovers fall) can be read
//! off.

use std::fmt::Write as _;

/// A named series over a shared x-axis.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// y-values aligned with the table's x-axis.
    pub values: Vec<f64>,
}

/// Renders series as a column-aligned table with an x-axis column.
pub fn series_table(x_label: &str, xs: &[String], series: &[Series]) -> String {
    // `fmt::Write` into a String cannot fail; the Results are dropped.
    let mut out = String::new();
    let _ = write!(out, "{:<12}", x_label);
    for s in series {
        let _ = write!(out, " {:>12}", truncate(&s.name, 12));
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{:<12}", truncate(x, 12));
        for s in series {
            match s.values.get(i) {
                Some(v) => drop(write!(out, " {:>12.4}", v)),
                None => drop(write!(out, " {:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        let _ = write!(out, " {h} |");
    }
    out.push('\n');
    out.push('|');
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            let _ = write!(out, " {cell} |");
        }
        out.push('\n');
    }
    out
}

/// Formats a float with 3 decimals, or `-` for `None`.
pub fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"))
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_table_alignment() {
        let xs = vec!["0.0".to_string(), "0.5".to_string()];
        let series = vec![
            Series {
                name: "ASAP".into(),
                values: vec![1.0, 0.25],
            },
            Series {
                name: "pressWR-LS".into(),
                values: vec![1.0],
            },
        ];
        let t = series_table("tau", &xs, &series);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("ASAP"));
        assert!(lines[2].contains('-'), "missing value rendered as dash");
    }

    #[test]
    fn markdown_table_shape() {
        let md = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("---"));
    }

    #[test]
    fn opt_f64_formats() {
        assert_eq!(opt_f64(Some(0.5)), "0.500");
        assert_eq!(opt_f64(None), "-");
    }

    #[test]
    fn truncate_long_names() {
        assert_eq!(truncate("abcdefghijklmnop", 5), "abcde");
        assert_eq!(truncate("abc", 5), "abc");
    }
}

/// Renders a schedule as an ASCII Gantt chart with a green-budget
/// sparkline, `width` characters wide. Each execution unit gets one row;
/// `#` marks original tasks, `~` communication tasks. The last row shows
/// the relative green budget (`' '` low … `'█'` high).
pub fn render_gantt(
    inst: &cawo_core::Instance,
    sched: &cawo_core::Schedule,
    profile: &cawo_platform::PowerProfile,
    width: usize,
) -> String {
    use cawo_core::NodeKind;
    let horizon = profile.deadline().max(1);
    let width = width.clamp(10, 400);
    let col_of = |t: cawo_platform::Time| -> usize {
        ((t as u128 * width as u128) / horizon as u128).min(width as u128 - 1) as usize
    };
    let mut out = String::new();
    for u in 0..inst.unit_count() as u32 {
        let order = inst.unit_order(u);
        if order.is_empty() {
            continue;
        }
        let mut row = vec![b'.'; width];
        for &v in order {
            let a = col_of(sched.start(v));
            let b = col_of(sched.finish(v, inst).saturating_sub(1).max(sched.start(v)));
            let glyph = match inst.kind(v) {
                NodeKind::Task => b'#',
                NodeKind::Comm { .. } => b'~',
            };
            for slot in &mut row[a..=b] {
                *slot = glyph;
            }
        }
        let label = if inst.unit(u).is_link {
            format!("L{u:<4}")
        } else {
            format!("p{u:<4}")
        };
        out.push_str(&label);
        out.push(' ');
        out.push_str(&String::from_utf8_lossy(&row));
        out.push('\n');
    }
    // Budget sparkline.
    let max_g = profile.budgets().iter().copied().max().unwrap_or(1).max(1);
    let levels = [
        ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2585}', '\u{2587}',
    ];
    out.push_str("green ");
    for c in 0..width {
        let t = (c as u128 * horizon as u128 / width as u128) as cawo_platform::Time;
        let g = profile.budget_at(t.min(horizon - 1));
        let idx = ((g as u128 * (levels.len() as u128 - 1)) / max_g as u128) as usize;
        out.push(levels[idx]);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod gantt_tests {
    use super::*;
    use cawo_core::enhanced::UnitInfo;
    use cawo_core::{Instance, Schedule};
    use cawo_graph::dag::DagBuilder;
    use cawo_platform::PowerProfile;

    fn two_unit_instance() -> Instance {
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        Instance::from_raw(
            b.build().unwrap(),
            vec![10, 10],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 1,
                    p_work: 2,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 1,
                    p_work: 2,
                    is_link: false,
                },
            ],
            0,
        )
    }

    #[test]
    fn gantt_has_one_row_per_used_unit_plus_budget() {
        let inst = two_unit_instance();
        let sched = Schedule::new(vec![0, 10]);
        let profile = PowerProfile::from_parts(vec![0, 20, 40], vec![2, 8]);
        let g = render_gantt(&inst, &sched, &profile, 40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("p0"));
        assert!(lines[1].starts_with("p1"));
        assert!(lines[2].starts_with("green"));
        // Task 0 occupies the first quarter of row p0.
        assert!(lines[0].contains('#'));
    }

    #[test]
    fn gantt_marks_positions_proportionally() {
        let inst = two_unit_instance();
        let sched = Schedule::new(vec![0, 30]);
        let profile = PowerProfile::from_parts(vec![0, 40], vec![5]);
        let g = render_gantt(&inst, &sched, &profile, 40);
        let p1 = g.lines().nth(1).unwrap();
        let row = &p1[6..]; // skip label
                            // Task 1 runs in [30, 40) of a 40-unit horizon: last quarter.
        assert_eq!(&row[0..29], ".".repeat(29));
        assert!(row[30..].contains('#'));
    }

    #[test]
    fn gantt_clamps_width() {
        let inst = two_unit_instance();
        let sched = Schedule::new(vec![0, 10]);
        let profile = PowerProfile::uniform(40, 3);
        let g = render_gantt(&inst, &sched, &profile, 2);
        // Width clamped to >= 10.
        assert!(g.lines().next().unwrap().len() >= 10);
    }
}
