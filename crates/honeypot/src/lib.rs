//! `honeypot` — reflection-amplification honeypot observatories
//! (AmpPot, Hopscotch, NewKid).
//!
//! Platform configurations follow Table 2 of the paper; packet-level
//! detection ([`detector`]) applies each platform's flow identifier and
//! thresholds; [`aggregate`] implements CCC cross-sensor merging and the
//! Appendix-I carpet-bombing reconstruction; [`event::Honeypot`] is the
//! fast analytic path used for the macro study.

pub mod aggregate;
pub mod detector;
pub mod event;
pub mod pipeline;
pub mod platform;

pub use aggregate::{
    carpet_prefix, events_to_columns, merge_sensor_flows, reconstruct_carpet_columns,
    HoneypotEvent, CARPET_MAX_PREFIX, CARPET_MIN_PREFIX,
};
pub use detector::{AttackMode, HoneypotDetector, HoneypotFlow, HpFlowKey};
pub use event::Honeypot;
pub use pipeline::{HoneypotPipeline, PipelineStats};
pub use platform::{FlowIdScheme, HoneypotConfig};
