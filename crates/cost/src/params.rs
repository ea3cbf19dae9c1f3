//! Cost-model parameters.

/// A cost estimate, split into I/O (page accesses) and CPU (predicate /
/// method evaluations) as §3.2 prescribes: "The computed cost includes
/// I/O time and CPU time, thereby giving a fair estimation of the use of
/// machine resources."
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Page accesses (unit: one page read/write).
    pub io: f64,
    /// Evaluations (unit: one predicate evaluation).
    pub cpu: f64,
}

impl Cost {
    /// Zero cost.
    pub fn zero() -> Cost {
        Cost::default()
    }

    /// Construct from components.
    pub fn new(io: f64, cpu: f64) -> Cost {
        Cost { io, cpu }
    }

    /// Weighted total in abstract time units.
    pub fn total(&self, params: &CostParams) -> f64 {
        self.io * params.pr + self.cpu * params.ev
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            io: self.io + rhs.io,
            cpu: self.cpu + rhs.cpu,
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.io += rhs.io;
        self.cpu += rhs.cpu;
    }
}

/// Parameters of the cost model. `pr` and `ev` are the paper's §4.6
/// constants: the cost of one page access and of one predicate
/// evaluation, respectively. [`CostParams::default`] is the model every
/// optimizer serves; [`CostParams::paper_mode`] reproduces Figures 5
/// and 7.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Cost of one page access (`pr`).
    pub pr: f64,
    /// Cost of one predicate evaluation (`ev`).
    pub ev: f64,
    /// Buffer frames assumed available. Inner operands of nested-loop
    /// joins smaller than this stay resident across rescans; `0` models
    /// the paper's §4.6 simplification where every access pays `pr`.
    pub buffer_frames: u64,
    /// Fraction of a page access charged for a *clustered* implicit join
    /// (sub-object co-located with its owner). `1.0` would mean
    /// clustering is worthless; the default models same-or-neighbour
    /// page placement.
    pub clustered_access: f64,
}

/// Number of fixpoint iterations assumed when the statistics carry no
/// chain-depth information.
pub(crate) const DEFAULT_FIX_ITERATIONS: f64 = 10.0;

/// Selectivity of a predicate that cannot be estimated.
pub(crate) const DEFAULT_SELECTIVITY: f64 = 0.1;

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            pr: 1.0,
            ev: 0.05,
            buffer_frames: 64,
            clustered_access: 0.1,
        }
    }
}

impl CostParams {
    /// The §4.6 simplified model: no access structures besides path
    /// indices, sub-objects not clustered, no materialization, every
    /// access pays `pr`, every evaluation pays `ev`.
    pub fn paper_mode() -> Self {
        CostParams {
            pr: 1.0,
            ev: 1.0,
            buffer_frames: 0,
            clustered_access: 1.0,
        }
    }
}
