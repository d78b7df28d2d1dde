//! `analytics` — the paper's statistical comparison machinery.
//!
//! * [`series`]: weekly series, §5 normalization (median of first 15
//!   weeks), 12-week EWMA, OLS trend lines and Table-1 trend classes;
//! * [`corr`]: Spearman/Pearson with t-test p-values (Fig. 6),
//!   quarterly correlation boxes (Fig. 14 / App. F);
//! * [`membership`](mod@membership): the sorted-merge join kernel every target
//!   comparison below is built on;
//! * [`upset`](mod@upset): exclusive set intersections of (date, IP) targets
//!   (Fig. 7);
//! * [`overlap`]: overlap time series, new-vs-recurring decomposition,
//!   industry confirmation joins (Fig. 8, 9, 10, 13);
//! * [`heatmap`]: the Fig.-4 matrix;
//! * [`special`]: log-gamma / incomplete beta / Student-t machinery
//!   behind the p-values.

pub mod bootstrap;
pub mod concentration;
pub mod corr;
pub mod heatmap;
pub mod lag;
pub mod membership;
pub mod overlap;
pub mod seasonal;
pub mod series;
pub mod special;
pub mod upset;

pub use bootstrap::{trend_interval, TrendInterval};
pub use concentration::{concentration, Concentration};
pub use corr::{
    average_ranks, box_stats, correlation_matrix, pearson, quarterly_correlations, spearman,
    BoxStats, Correlation, CorrelationMatrix, Method,
};
pub use heatmap::Heatmap;
pub use lag::{best_lag, durable_crossing, lagged_spearman, share_series, LagResult};
pub use membership::{membership, sorted_distinct};
pub use overlap::{
    confirmation_shares, ip_overlap_share, new_vs_recurring, weekly_overlap,
    weekly_target_counts, ConfirmationShares, NewRecurring, OverlapSeries,
};
pub use seasonal::{monthly_profile, seasonal_summary, SeasonalSummary};
pub use series::{median, relative_change_4y, Regression, Trend, WeekMask, WeeklySeries};
pub use upset::{upset, TargetTuple, UpsetAnalysis};
