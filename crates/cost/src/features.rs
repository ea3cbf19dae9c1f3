//! Cost features: the parameter-independent measurements each per-node
//! estimate is built from, split by component so the static analyzer
//! can bound each one separately.

/// The feature vector of one operator's *own* (exclusive) work. All
/// entries are counts in the estimator's physical units; the predicted
/// page accesses and evaluations are their sums.
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
    /// Predicted page accesses.
    pub fn io(&self) -> f64 {
        self.seq_pages
            + self.deref_pages
            + self.index_level_ios
            + self.index_leaf_ios
            + self.write_pages
    }

    /// Predicted evaluations.
    pub fn cpu(&self) -> f64 {
        self.evals + self.method_units
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
