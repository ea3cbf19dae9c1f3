//! Cost features: the parameter-independent measurements each per-node
//! estimate is built from. (Residual reporting groups them by
//! [`oorq_pt::OpKind`], re-exported from this crate.)
//!
//! Splitting every Figure 5 formula into a feature vector times the
//! [`CostWeights`](crate::CostWeights) makes the model *calibratable*:
//! the features are pure functions of the plan and the statistics, so a
//! least-squares fit of the weights against observed per-operator
//! counters never has to re-run the estimator.

use crate::params::CostWeights;

/// The feature vector of one operator's *own* (exclusive) work. All
/// entries are counts in the estimator's physical units; predicted cost
/// components are the dot products with the fitted [`CostWeights`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostFeatures {
    /// Pages read by sequential scans.
    pub seq_pages: f64,
    /// Pages fetched by random dereference (implicit joins, predicate
    /// path traversal, fetching objects matched by an index).
    pub deref_pages: f64,
    /// Index non-leaf (level descent) accesses.
    pub index_level_ios: f64,
    /// Index leaf accesses.
    pub index_leaf_ios: f64,
    /// Pages written materializing temporaries.
    pub write_pages: f64,
    /// Predicate comparisons evaluated.
    pub evals: f64,
    /// Method cost units (declared `eval_cost` times invocations).
    pub method_units: f64,
}

impl CostFeatures {
    /// Predicted page accesses under the given weights.
    pub fn io(&self, w: &CostWeights) -> f64 {
        self.seq_pages * w.seq_page
            + self.deref_pages * w.deref_page
            + self.index_level_ios * w.index_level
            + self.index_leaf_ios * w.index_leaf
            + self.write_pages * w.write_page
    }

    /// Predicted evaluations under the given weights.
    pub fn cpu(&self, w: &CostWeights) -> f64 {
        self.evals * w.eval + self.method_units * w.method
    }

    /// The io-side feature columns, in fit order (shared between the
    /// calibration fitter and [`CostFeatures::io`]).
    pub(crate) fn io_columns(&self) -> [f64; 5] {
        [
            self.seq_pages,
            self.deref_pages,
            self.index_level_ios,
            self.index_leaf_ios,
            self.write_pages,
        ]
    }

    /// The cpu-side feature columns, in fit order.
    pub(crate) fn cpu_columns(&self) -> [f64; 2] {
        [self.evals, self.method_units]
    }
}

impl std::ops::Add for CostFeatures {
    type Output = CostFeatures;
    fn add(self, rhs: CostFeatures) -> CostFeatures {
        CostFeatures {
            seq_pages: self.seq_pages + rhs.seq_pages,
            deref_pages: self.deref_pages + rhs.deref_pages,
            index_level_ios: self.index_level_ios + rhs.index_level_ios,
            index_leaf_ios: self.index_leaf_ios + rhs.index_leaf_ios,
            write_pages: self.write_pages + rhs.write_pages,
            evals: self.evals + rhs.evals,
            method_units: self.method_units + rhs.method_units,
        }
    }
}

impl std::ops::AddAssign for CostFeatures {
    fn add_assign(&mut self, rhs: CostFeatures) {
        *self = *self + rhs;
    }
}
