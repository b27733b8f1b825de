//! Evaluation harness for the MultiEM reproduction.
//!
//! Provides the metrics and measurement utilities used by every experiment:
//!
//! * [`metrics`] — tuple-exact precision / recall / F1 and the looser pair-F1
//!   (Example 2 of the paper);
//! * [`sampling`] — labelled pair sampling for the supervised baselines
//!   (5 % train / 5 % validation, P negatives per positive, Section IV-A);
//! * [`profile`] — duration and byte formatting in the style of the paper's
//!   efficiency tables (Tables V and VI, Figure 5);
//! * [`report`] — plain-text / markdown table rendering for the bench binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod report;
pub mod sampling;

pub use metrics::{evaluate, pair_metrics, tuple_metrics, EvaluationReport, Metrics};
pub use profile::{format_bytes, format_duration};
pub use report::TextTable;
pub use sampling::{sample_labeled_pairs, LabeledPair, SamplingConfig};
