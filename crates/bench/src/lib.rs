//! # ragnar-bench — experiment implementations and report helpers
//!
//! Every figure/table of the paper lives in [`experiments`] as a
//! `ragnar_harness::Experiment`, listed in
//! [`experiments::registry`]; the root package's `ragnar` binary serves
//! that registry (`cargo run --release -- <experiment> --help`). See
//! `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for the
//! shared CLI and cache layout.

#![warn(missing_docs)]

pub mod experiments;

/// Renders values as a one-line ASCII sparkline (8 levels).
///
/// # Examples
///
/// ```
/// let s = ragnar_bench::sparkline(&[0.0, 0.5, 1.0]);
/// assert_eq!(s.chars().count(), 3);
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Formats bits per second with a sensible unit.
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:.2} Gbps", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.2} Mbps", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.1} Kbps", bps / 1e3)
    } else {
        format!("{bps:.1} bps")
    }
}

/// Renders a markdown-style table to a string (one trailing newline).
pub fn fmt_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(c.len());
            s.push_str(&format!(" {c:<w$} |"));
        }
        s.push('\n');
        s
    };
    let mut out = line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&line(&sep));
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

/// Formats a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s, "▁█");
        assert_eq!(sparkline(&[]), "");
        // Flat input does not panic.
        let flat = sparkline(&[3.0, 3.0, 3.0]);
        assert_eq!(flat.chars().count(), 3);
    }

    #[test]
    fn bps_units() {
        assert_eq!(fmt_bps(1.0), "1.0 bps");
        assert_eq!(fmt_bps(31_800.0), "31.8 Kbps");
        assert_eq!(fmt_bps(2.5e9), "2.50 Gbps");
    }

    #[test]
    fn pct_format() {
        assert_eq!(fmt_pct(0.0592), "5.92%");
    }
}
