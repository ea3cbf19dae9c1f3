//! The cost model of §3.2: cost formulas for every PT node over the
//! physical-schema statistics, combining I/O and CPU time.
//!
//! Two layers are provided:
//! - [`CostModel`] — the general estimator predicting the pipelined
//!   executor of `oorq-exec` (clustering-, buffer- and index-aware),
//!   whose estimate of every plan node is one [`Cost`] ([`NodeCost`]);
//! - [`paper_mode`] — symbolic cost expressions reproducing Figure 5's
//!   formula table and the §4.6 simplified model behind Figure 7.

mod error;
pub mod guard;
mod model;
pub mod paper_mode;
mod params;

pub use error::CostError;
pub use guard::{guard_hi, guard_lo};
pub use model::{CostModel, FixCurve, NodeCost, PlanCost};
pub use oorq_pt::OpKind;
pub use params::{Cost, CostParams};

#[cfg(test)]
mod fig5_tests;
#[cfg(test)]
mod tests;
