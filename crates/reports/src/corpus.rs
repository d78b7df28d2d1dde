//! The industry-report corpus: the 24 reports from 22 vendors the paper
//! surveys (§3, Table 3), encoded as structured data.
//!
//! This is the machine-readable version of the paper's supplementary
//! knowledge base \[13\]: per report, the format, analysis period, the
//! trend each vendor claims per attack class, and the metrics the report
//! uses. Claims follow the paper's §3 "Comparing findings" discussion
//! and the Table-1 right column (direct path: 5 reports increasing,
//! 0 decreasing; reflection-amplification: 2 increasing, 3 decreasing).

use serde::{Deserialize, Serialize};

/// DDoS mitigation vendors surveyed (Table 3, "Included" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Vendor {
    A10,
    Akamai,
    Arelion,
    Cloudflare,
    Comcast,
    Corero,
    DdosGuard,
    F5,
    Huawei,
    Imperva,
    Kaspersky,
    Link11,
    Lumen,
    Microsoft,
    Nbip,
    Netscout,
    NexusGuard,
    Nokia,
    NsFocus,
    Qrator,
    Radware,
    Zayo,
}

impl Vendor {
    pub const ALL: [Vendor; 22] = [
        Vendor::A10,
        Vendor::Akamai,
        Vendor::Arelion,
        Vendor::Cloudflare,
        Vendor::Comcast,
        Vendor::Corero,
        Vendor::DdosGuard,
        Vendor::F5,
        Vendor::Huawei,
        Vendor::Imperva,
        Vendor::Kaspersky,
        Vendor::Link11,
        Vendor::Lumen,
        Vendor::Microsoft,
        Vendor::Nbip,
        Vendor::Netscout,
        Vendor::NexusGuard,
        Vendor::Nokia,
        Vendor::NsFocus,
        Vendor::Qrator,
        Vendor::Radware,
        Vendor::Zayo,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Vendor::A10 => "A10",
            Vendor::Akamai => "Akamai",
            Vendor::Arelion => "Arelion",
            Vendor::Cloudflare => "Cloudflare",
            Vendor::Comcast => "Comcast",
            Vendor::Corero => "Corero",
            Vendor::DdosGuard => "DDoS-Guard",
            Vendor::F5 => "F5",
            Vendor::Huawei => "Huawei",
            Vendor::Imperva => "Imperva",
            Vendor::Kaspersky => "Kaspersky",
            Vendor::Link11 => "Link11",
            Vendor::Lumen => "Lumen",
            Vendor::Microsoft => "Microsoft Azure",
            Vendor::Nbip => "NBIP",
            Vendor::Netscout => "Netscout",
            Vendor::NexusGuard => "NexusGuard",
            Vendor::Nokia => "Nokia",
            Vendor::NsFocus => "NSFocus",
            Vendor::Qrator => "Qrator",
            Vendor::Radware => "Radware",
            Vendor::Zayo => "Zayo",
        }
    }
}

/// Publication format (§3 "Presentation style").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReportFormat {
    FullDocument,
    Blog,
    Infographic,
}

/// A vendor's claimed trend for some attack category, with the claimed
/// relative change when the report quantifies it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrendClaim {
    Increase(Option<f64>),
    Decrease(Option<f64>),
    Mixed,
    NotReported,
}

impl TrendClaim {
    pub fn is_increase(self) -> bool {
        matches!(self, TrendClaim::Increase(_))
    }
    pub fn is_decrease(self) -> bool {
        matches!(self, TrendClaim::Decrease(_))
    }
}

/// Attack attributes a report quantifies (§3 "Metrics used by reports").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Metric {
    Count,
    Size,
    Duration,
    Vectors,
    Methods,
    VectorInstances,
    Context,
    Geolocation,
    TargetIndustry,
    MultiVector,
}

/// One surveyed industry report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndustryReport {
    pub vendor: Vendor,
    pub year: u16,
    pub format: ReportFormat,
    /// Months covered by the analysis period.
    pub period_months: u8,
    /// Report covers DDoS exclusively (vs a broader threat report).
    pub ddos_only: bool,
    pub overall: TrendClaim,
    pub direct_path: TrendClaim,
    pub reflection_amplification: TrendClaim,
    pub application_layer: TrendClaim,
    pub metrics: Vec<Metric>,
}

/// The encoded corpus. Claims are taken from §3:
/// * "Companies generally reported an overall increase in DDoS attacks";
/// * exceptions: F5 (−9.7 % total), Arelion ("dramatic" reduction);
/// * RA decreases: Arelion, Netscout (−17 %), Akamai (CharGEN/SSDP/CLDAP);
/// * L7 increases: Cloudflare, F5, Imperva, NBIP, Netscout, NexusGuard,
///   Radware;
/// * Table 1: DP ▲(5) ▼(0); RA ▲(2) ▼(3).
pub fn corpus() -> Vec<IndustryReport> {
    use Metric::*;
    use TrendClaim::*;
    use Vendor::*;
    let all = |v: Vendor,
               format: ReportFormat,
               months: u8,
               ddos_only: bool,
               overall: TrendClaim,
               dp: TrendClaim,
               ra: TrendClaim,
               l7: TrendClaim,
               metrics: Vec<Metric>| IndustryReport {
        vendor: v,
        year: 2022,
        format,
        period_months: months,
        ddos_only,
        overall,
        direct_path: dp,
        reflection_amplification: ra,
        application_layer: l7,
        metrics,
    };
    vec![
        all(A10, ReportFormat::FullDocument, 12, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, Vectors, VectorInstances]),
        all(Akamai, ReportFormat::Blog, 12, true, Increase(None), NotReported, Decrease(None), NotReported, vec![Count, Size, Vectors]),
        // Akamai published two documents in the window (Table 3 lists
        // [4, 5]); the second focuses on 2022 totals.
        all(Akamai, ReportFormat::Blog, 12, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, TargetIndustry]),
        all(Arelion, ReportFormat::FullDocument, 12, true, Decrease(None), Increase(None), Decrease(None), NotReported, vec![Count, Vectors, Context]),
        all(Cloudflare, ReportFormat::Blog, 3, true, Increase(None), Increase(None), NotReported, Increase(None), vec![Count, Size, Duration, Vectors, Geolocation, TargetIndustry]),
        all(Comcast, ReportFormat::FullDocument, 12, false, Increase(None), NotReported, NotReported, NotReported, vec![Count, Vectors, TargetIndustry]),
        all(Corero, ReportFormat::FullDocument, 12, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, Size, Duration]),
        // DDoS-Guard released two documents (Table 3 lists [41, 42]).
        all(DdosGuard, ReportFormat::Blog, 12, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, Vectors, Geolocation]),
        all(DdosGuard, ReportFormat::Infographic, 12, true, Increase(None), NotReported, NotReported, NotReported, vec![Count]),
        all(F5, ReportFormat::Blog, 12, true, Decrease(Some(-0.097)), NotReported, Mixed, Increase(None), vec![Count, Size, Vectors, TargetIndustry]),
        all(Huawei, ReportFormat::FullDocument, 12, true, Increase(None), NotReported, Increase(None), NotReported, vec![Count, Size, Vectors, Methods]),
        all(Imperva, ReportFormat::FullDocument, 12, true, Increase(None), NotReported, NotReported, Increase(None), vec![Count, Size, Duration, MultiVector]),
        all(Kaspersky, ReportFormat::Blog, 3, false, Increase(None), Increase(None), NotReported, NotReported, vec![Count, Duration, Geolocation]),
        all(Link11, ReportFormat::FullDocument, 12, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, Size]),
        all(Lumen, ReportFormat::Blog, 3, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, Size, Duration, TargetIndustry]),
        all(Microsoft, ReportFormat::Blog, 12, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, Size, Duration, Vectors, Geolocation]),
        all(Nbip, ReportFormat::Infographic, 3, true, Increase(None), NotReported, NotReported, Increase(None), vec![Count, Size]),
        all(Netscout, ReportFormat::FullDocument, 6, true, Increase(None), Increase(None), Decrease(Some(-0.17)), Increase(None), vec![Count, Size, Duration, Vectors, Methods, VectorInstances, Context, Geolocation, TargetIndustry, MultiVector]),
        all(NexusGuard, ReportFormat::FullDocument, 12, true, Increase(None), NotReported, Increase(None), Increase(None), vec![Count, Size, Duration, Vectors, MultiVector]),
        all(Nokia, ReportFormat::FullDocument, 12, false, Increase(None), NotReported, NotReported, NotReported, vec![Count, Vectors, VectorInstances]),
        all(NsFocus, ReportFormat::FullDocument, 12, true, Increase(None), Increase(None), NotReported, NotReported, vec![Count, Size, Vectors, Methods, Geolocation]),
        all(Qrator, ReportFormat::Blog, 3, false, Increase(None), NotReported, NotReported, NotReported, vec![Count, Duration, Geolocation]),
        all(Radware, ReportFormat::FullDocument, 12, false, Increase(None), NotReported, NotReported, Increase(None), vec![Count, Size, Vectors, TargetIndustry]),
        all(Zayo, ReportFormat::Blog, 6, true, Increase(None), NotReported, NotReported, NotReported, vec![Count, Size, Duration]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_24_reports_from_22_vendors() {
        let c = corpus();
        assert_eq!(c.len(), 24);
        let vendors: std::collections::BTreeSet<Vendor> = c.iter().map(|r| r.vendor).collect();
        assert_eq!(vendors.len(), 22);
    }

    #[test]
    fn every_vendor_appears() {
        let c = corpus();
        for v in Vendor::ALL {
            assert!(c.iter().any(|r| r.vendor == v), "{} missing", v.name());
        }
    }

    #[test]
    fn table1_industry_column_counts() {
        // Table 1 right column: DP ▲(5) ▼(0); RA ▲(2) ▼(3).
        let c = corpus();
        let dp_inc = c.iter().filter(|r| r.direct_path.is_increase()).count();
        let dp_dec = c.iter().filter(|r| r.direct_path.is_decrease()).count();
        let ra_inc = c
            .iter()
            .filter(|r| r.reflection_amplification.is_increase())
            .count();
        let ra_dec = c
            .iter()
            .filter(|r| r.reflection_amplification.is_decrease())
            .count();
        assert_eq!((dp_inc, dp_dec), (5, 0));
        assert_eq!((ra_inc, ra_dec), (2, 3));
    }

    #[test]
    fn exceptions_from_section3() {
        let c = corpus();
        // F5's −9.7 % total decrease.
        let f5 = c.iter().find(|r| r.vendor == Vendor::F5).unwrap();
        assert_eq!(f5.overall, TrendClaim::Decrease(Some(-0.097)));
        // Arelion's "dramatic" reduction with DP increase.
        let arelion = c.iter().find(|r| r.vendor == Vendor::Arelion).unwrap();
        assert!(arelion.overall.is_decrease());
        assert!(arelion.direct_path.is_increase());
        // Netscout's −17 % RA decrease.
        let netscout = c.iter().find(|r| r.vendor == Vendor::Netscout).unwrap();
        assert_eq!(
            netscout.reflection_amplification,
            TrendClaim::Decrease(Some(-0.17))
        );
    }

    #[test]
    fn l7_increase_reporters() {
        // §3: Cloudflare, F5, Imperva, NBIP, Netscout, NexusGuard,
        // Radware reported substantial L7 increases.
        let c = corpus();
        for v in [
            Vendor::Cloudflare,
            Vendor::F5,
            Vendor::Imperva,
            Vendor::Nbip,
            Vendor::Netscout,
            Vendor::NexusGuard,
            Vendor::Radware,
        ] {
            let any = c
                .iter()
                .any(|r| r.vendor == v && r.application_layer.is_increase());
            assert!(any, "{} should claim an L7 increase", v.name());
        }
    }

    #[test]
    fn most_reports_claim_overall_increase() {
        let c = corpus();
        let inc = c.iter().filter(|r| r.overall.is_increase()).count();
        let dec = c.iter().filter(|r| r.overall.is_decrease()).count();
        assert!(inc >= 20, "inc {inc}");
        assert_eq!(dec, 2); // F5 and Arelion
    }

    #[test]
    fn every_report_uses_counts() {
        for r in corpus() {
            assert!(r.metrics.contains(&Metric::Count), "{:?}", r.vendor);
        }
    }

    #[test]
    fn quarterly_reports_exist() {
        // §3 "Analysis period": some reports cover quarters.
        let c = corpus();
        assert!(c.iter().any(|r| r.period_months == 3));
        assert!(c.iter().any(|r| r.period_months == 12));
    }
}
