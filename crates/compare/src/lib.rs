#![warn(missing_docs)]
//! # wsm-compare — regenerating the paper's tables and figures
//!
//! The evaluation section of the paper consists of three comparison
//! tables, two architecture figures and a taxonomy of message-format
//! differences. This crate regenerates each one **from the living
//! implementations** in the sibling crates:
//!
//! | Artifact | Module | Source of truth |
//! |---|---|---|
//! | Table 1 (version evolution) | [`mod@table1`] | the broker's dialect profiles (`SpecDialect::profile`) plus the version predicates on `WseVersion` / `WsnVersion` |
//! | Table 2 (function mapping) | [`mod@table2`] | the operations the service handlers actually implement |
//! | Table 3 (six-spec comparison) | [`mod@table3`] | the substrate crates (CORBA, JMS, OGSI, WSN, WSE) |
//! | Fig. 1 / Fig. 2 (architectures) | [`figures`] | entity/interaction declarations mirroring the running services |
//! | §V.4 (message-format differences) | [`msgdiff`] | real serialized envelopes diffed with `wsm-xml::diff` |
//!
//! Cells that correspond to a capability method are *derived* — change
//! the implementation and the table changes. The handful of cells that
//! describe prose-only properties (e.g. "Require SubscriptionEnd") are
//! explicit constants, marked as such, so EXPERIMENTS.md can account
//! for every cell.

pub mod convergence;
pub mod figures;
pub mod msgdiff;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod trends;

pub use convergence::{agreement, projected_merge, render_convergence, Agreement, MergedFeature};
pub use figures::{render_architecture, wsbase_architecture, wse_architecture, Architecture};
pub use msgdiff::{run_msgdiff, run_version_msgdiff, DiffCategory, MsgDiffReport};
pub use table1::{render_table1, table1, Cell, Table1Row};
pub use table2::{render_table2, table2};
pub use table3::{render_table3, table3, SystemProfile};
pub use trends::{render_trends, verify as verify_trends, Trend};
