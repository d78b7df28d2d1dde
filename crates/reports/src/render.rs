//! Markdown rendering of the industry-report knowledge base.
//!
//! The paper publishes its survey as a living, community-extendable
//! table (Appendix E / ref \[13\], ddoscovery.github.io). This renderer
//! produces that artifact from the typed corpus so the two can never
//! drift apart.

use crate::corpus::{corpus, IndustryReport, Metric, TrendClaim};

fn claim_cell(c: TrendClaim) -> String {
    match c {
        TrendClaim::Increase(Some(v)) => format!("▲ {:+.1}%", 100.0 * v),
        TrendClaim::Increase(None) => "▲".into(),
        TrendClaim::Decrease(Some(v)) => format!("▼ {:+.1}%", 100.0 * v),
        TrendClaim::Decrease(None) => "▼".into(),
        TrendClaim::Mixed => "◆ mixed".into(),
        TrendClaim::NotReported => "—".into(),
    }
}

fn metric_list(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{m:?}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Render one report as a markdown table row.
fn row(r: &IndustryReport) -> String {
    format!(
        "| {} | {} | {:?} | {} mo | {} | {} | {} | {} | {} | {} |",
        r.vendor.name(),
        r.year,
        r.format,
        r.period_months,
        if r.ddos_only { "DDoS-only" } else { "broad" },
        claim_cell(r.overall),
        claim_cell(r.direct_path),
        claim_cell(r.reflection_amplification),
        claim_cell(r.application_layer),
        metric_list(&r.metrics),
    )
}

/// The full knowledge base as a markdown document.
pub fn knowledge_base_markdown() -> String {
    let reports = corpus();
    let mut out = String::from(
        "# DDoS industry report knowledge base\n\n\
         Structured extraction of the surveyed vendor reports (paper §3,\n\
         Table 3, Appendix E). Trend glyphs: ▲ increase, ▼ decrease,\n\
         ◆ mixed, — not reported.\n\n\
         | Vendor | Year | Format | Period | Scope | Overall | Direct path | Reflection-ampl. | L7 | Metrics |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in &reports {
        out.push_str(&row(r));
        out.push('\n');
    }
    let dp_inc = reports.iter().filter(|r| r.direct_path.is_increase()).count();
    let dp_dec = reports.iter().filter(|r| r.direct_path.is_decrease()).count();
    let ra_inc = reports
        .iter()
        .filter(|r| r.reflection_amplification.is_increase())
        .count();
    let ra_dec = reports
        .iter()
        .filter(|r| r.reflection_amplification.is_decrease())
        .count();
    out.push_str(&format!(
        "\n**Claim counts** (the Table-1 industry column): direct path ▲({dp_inc}) ▼({dp_dec}); \
         reflection-amplification ▲({ra_inc}) ▼({ra_dec}).\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_reports() {
        let md = knowledge_base_markdown();
        // Header + separator + 24 rows.
        let table_rows = md.lines().filter(|l| l.starts_with("| ")).count();
        assert_eq!(table_rows, 1 + 24);
        for vendor in crate::corpus::Vendor::ALL {
            assert!(md.contains(vendor.name()), "{} missing", vendor.name());
        }
    }

    #[test]
    fn rows_have_consistent_column_count() {
        let md = knowledge_base_markdown();
        let counts: Vec<usize> = md
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.matches('|').count())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn claim_cells_render_values() {
        assert_eq!(claim_cell(TrendClaim::Decrease(Some(-0.17))), "▼ -17.0%");
        assert_eq!(claim_cell(TrendClaim::Increase(None)), "▲");
        assert_eq!(claim_cell(TrendClaim::NotReported), "—");
    }

    #[test]
    fn summary_counts_match_table1() {
        let md = knowledge_base_markdown();
        assert!(md.contains("direct path ▲(5) ▼(0)"));
        assert!(md.contains("reflection-amplification ▲(2) ▼(3)"));
    }
}
