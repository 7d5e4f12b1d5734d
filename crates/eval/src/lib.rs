//! # pipefail-eval
//!
//! The evaluation harness reproducing the paper's §18.4 protocol:
//!
//! * [`detection`] — prioritisation ("detection") curves: cumulative % of
//!   pipes inspected (by count or by network length) vs % of test-year
//!   failures detected (Figs 18.7/18.8);
//! * [`metrics`] — AUC of the detection curve over the full budget and over
//!   a restricted inspection budget (the paper's AUC(100%) and AUC(1%), the
//!   latter reported in basis points ‱), plus the classical Mann–Whitney
//!   AUC;
//! * [`significance`] — seeded replicate runs and one-sided paired t-tests
//!   (Table 18.4), parallelised across replicates on the task pool;
//! * [`runner`] — one entry point that fits every compared model on every
//!   region and collects curves/AUCs (Fig 18.7, Table 18.3);
//! * [`svg`] / [`riskmap`] — dependency-free SVG rendering of network maps
//!   (Fig 18.2) and risk maps with test-year failures as stars (Fig 18.9);
//! * [`report`] — plain-text table formatting matching the paper's layout.

#![warn(missing_docs)]

pub mod charts;
pub mod detection;
pub mod metrics;
pub mod report;
pub mod riskmap;
pub mod runner;
pub mod significance;
pub mod svg;

pub use detection::DetectionCurve;
pub use metrics::{auc_at_fraction, full_auc, mann_whitney_auc};
pub use runner::{FitReport, ModelKind, RegionResult, RetryPolicy, RunConfig};
