//! Cost-model parameters.

use crate::features::CostFeatures;
use crate::profiles::FixProfiles;

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

/// Calibratable weights of the estimator's cost *components*.
///
/// Every per-node estimate is assembled from a small feature vector
/// ([`crate::CostFeatures`]: sequential pages, dereference pages, index
/// level/leaf accesses, temporary writes, predicate evaluations, method
/// cost units); these weights are the linear coefficients mapping the
/// features onto predicted page accesses and evaluations. `1.0`
/// everywhere reproduces the uncalibrated Figure 5 formulas; the
/// calibration harness (`oorq-bench`) fits them ([`CostWeights::fit`])
/// to the observed per-operator counters of the scenario corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of sequentially scanned pages (scan cost per page).
    pub seq_page: f64,
    /// Weight of random object dereferences (implicit joins, predicate
    /// path traversal, fetching index matches). A fitted value below 1
    /// captures buffer hits the §4.6 model ignores.
    pub deref_page: f64,
    /// Weight of index non-leaf (level descent) page accesses — the
    /// calibrated stand-in for mis-stated index heights.
    pub index_level: f64,
    /// Weight of index leaf accesses.
    pub index_leaf: f64,
    /// Weight of temporary materialization writes (fixpoint accumulator).
    pub write_page: f64,
    /// Weight of one predicate comparison.
    pub eval: f64,
    /// Weight of one method (computed-attribute) cost unit. The
    /// estimator charges a method's declared `eval_cost` units per
    /// invocation while the executor counts invocations, so the fitted
    /// value absorbs the declared-vs-counted scale.
    pub method: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            seq_page: 1.0,
            deref_page: 1.0,
            index_level: 1.0,
            index_leaf: 1.0,
            write_page: 1.0,
            eval: 1.0,
            method: 1.0,
        }
    }
}

impl CostWeights {
    /// Fit the weights to `(features, observed page accesses, observed
    /// evaluations)` equations by weighted ridge least squares, pulled
    /// toward the identity weights.
    ///
    /// Each equation contributes `feat · w = observed` per cost side,
    /// weighted by `1/max(observed, FIT_FLOOR)²` so the fit minimizes
    /// (approximately) *relative* error rather than letting the largest
    /// operators dominate. The ridge term `λ‖w − 1‖²` keeps features the
    /// equations never exercise at exactly their uncalibrated value and
    /// makes the normal equations unconditionally solvable. All
    /// arithmetic is plain `f64` in the order given: the fit is
    /// reproducible bit-for-bit.
    pub fn fit(equations: &[(CostFeatures, f64, f64)]) -> CostWeights {
        // io side: 5 features against observed page accesses; cpu side:
        // 2 features against observed evaluations.
        let w_io = ridge_fit(equations.iter().map(|(f, io, _)| (f.io_columns(), *io)));
        let w_cpu = ridge_fit(equations.iter().map(|(f, _, cpu)| (f.cpu_columns(), *cpu)));
        let clamp = |v: f64| v.clamp(0.05, 20.0);
        CostWeights {
            seq_page: clamp(w_io[0]),
            deref_page: clamp(w_io[1]),
            index_level: clamp(w_io[2]),
            index_leaf: clamp(w_io[3]),
            write_page: clamp(w_io[4]),
            eval: clamp(w_cpu[0]),
            method: clamp(w_cpu[1]),
        }
    }
}

/// Magnitude floor of the per-equation fit weighting `1/max(obs,
/// FIT_FLOOR)²`: keeps near-zero observations (a handful of pages whose
/// cold reads the executor attributes to a twin operator) from
/// receiving unbounded relative weight and dragging a shared
/// coefficient away from the bulk of the corpus.
const FIT_FLOOR: f64 = 4.0;

/// Accumulate the weighted normal equations of one cost side (feature
/// columns and observation per equation), add the ridge
/// pull toward 1 and solve `(AᵀA + λI) w = Aᵀb + λ·1` by Gaussian
/// elimination with partial pivoting. The ridge strength is relative to
/// the system's own scale so it is negligible for features the corpus
/// exercises and decisive for ones it does not.
fn ridge_fit<const N: usize>(equations: impl Iterator<Item = ([f64; N], f64)>) -> [f64; N] {
    let mut ata = [[0.0f64; N]; N];
    let mut atb = [0.0f64; N];
    for (a, obs) in equations {
        let wgt = 1.0 / obs.max(FIT_FLOOR).powi(2);
        for i in 0..N {
            for j in 0..N {
                ata[i][j] += wgt * a[i] * a[j];
            }
            atb[i] += wgt * a[i] * obs;
        }
    }
    let trace: f64 = (0..N).map(|i| ata[i][i]).sum();
    let lambda = 1e-4 * (trace / N as f64) + 1e-9;
    for i in 0..N {
        ata[i][i] += lambda;
        atb[i] += lambda;
    }
    solve(&mut ata, &mut atb)
}

fn solve<const N: usize>(a: &mut [[f64; N]; N], b: &mut [f64; N]) -> [f64; N] {
    for col in 0..N {
        let pivot = (col..N)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        debug_assert!(p.abs() > 0.0, "ridge keeps every pivot nonzero");
        let pivot_row = a[col];
        for row in col + 1..N {
            let f = a[row][col] / p;
            for (dst, src) in a[row].iter_mut().zip(pivot_row.iter()).skip(col) {
                *dst -= f * src;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0f64; N];
    for col in (0..N).rev() {
        let mut v = b[col];
        for k in col + 1..N {
            v -= a[col][k] * x[k];
        }
        x[col] = v / a[col][col];
    }
    x
}

/// Parameters of the cost model. `pr` and `ev` are the paper's §4.6
/// constants: the cost of one page access and of one predicate
/// evaluation, respectively.
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
    /// Buffer-residency modeling for dereference streams: when on, a
    /// stream of random dereferences whose target working set fits in
    /// `buffer_frames` pays only its cold reads (at most the working
    /// set), and pages re-touched by fixpoint iterations 2..n are
    /// charged hot. Off by default — the uncalibrated model charges
    /// every dereference like §4.6 does — and switched on by the
    /// calibrated snapshot, where the observed counters show the
    /// residency effect dominating the residuals.
    pub residency: bool,
    /// Memory budget for materializing pipeline breakers, in pages
    /// (`0` = unbounded). Mirrors the executor's
    /// `ExecConfig::memory_budget_pages`: past the budget the buffer
    /// manager spills least-recently-used temporary pages, so breaker
    /// re-reads that would hit in an unbounded buffer pay full page
    /// reads. The effective breaker-resident capacity is
    /// `CostParams::breaker_frames`.
    pub memory_budget_pages: u64,
    /// Component weights (see [`CostWeights`]); identity by default,
    /// fitted by the calibration harness.
    pub weights: CostWeights,
    /// Fixpoint cardinality profiles fed back from execution traces
    /// (see [`FixProfiles`]); empty by default — the estimator then
    /// falls back to flat per-iteration deltas — and loaded from the
    /// checked-in `fix_profiles.toml` by [`CostParams::calibrated`].
    pub fix_profiles: FixProfiles,
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
            residency: false,
            memory_budget_pages: 0,
            weights: CostWeights::default(),
            fix_profiles: FixProfiles::empty(),
        }
    }
}

/// The checked-in calibration snapshot (regenerate with
/// `reproduce calibrate-fit`).
const CALIBRATED_SNAPSHOT: &str = include_str!("../calibrated.toml");

/// The checked-in fixpoint profile snapshot (regenerate with
/// `reproduce feedback-fit`).
const FIX_PROFILES_SNAPSHOT: &str = include_str!("../fix_profiles.toml");

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
            residency: false,
            memory_budget_pages: 0,
            weights: CostWeights::default(),
            fix_profiles: FixProfiles::empty(),
        }
    }

    /// Parameters fitted against the observed per-operator counters of
    /// the music/parts/chain scenario corpus — the checked-in snapshot
    /// produced by the `oorq-bench` calibration harness. Differs from
    /// [`CostParams::paper_mode`] (symbolic Figure 5 fidelity) and from
    /// [`CostParams::default`] (identity weights, no residency
    /// modeling): the snapshot switches on buffer-residency modeling of
    /// dereference streams (`residency`) and carries component weights
    /// correcting the remaining systematic drift (declared-vs-counted
    /// method cost, index probe accounting, write amplification).
    /// Also attaches the fixpoint cardinality profiles fitted by the
    /// feedback harness (`fix_profiles.toml`).
    pub fn calibrated() -> Self {
        let mut p = Self::parse_snapshot(CALIBRATED_SNAPSHOT)
            .expect("checked-in calibrated.toml must parse");
        p.fix_profiles = FixProfiles::parse(FIX_PROFILES_SNAPSHOT)
            .expect("checked-in fix_profiles.toml must parse");
        p
    }

    /// Parse a `calibrated.toml`-style snapshot: `key = value` lines,
    /// `#` comments, and a `[weights]` section for the component
    /// weights. A deliberately tiny subset of TOML so the workspace
    /// stays dependency-free. A weight scales a non-negative feature, so
    /// a negative one (like a non-finite value) is refused here: it is
    /// the one input through which an estimate could turn negative.
    pub fn parse_snapshot(src: &str) -> Result<Self, String> {
        let mut p = CostParams::default();
        for line in snapshot_lines(src) {
            let (lineno, section, Some((key, value))) = line? else {
                continue;
            };
            if section == "weights" && value < 0.0 {
                return Err(format!("line {lineno}: negative weight `{key}`"));
            }
            match (section, key) {
                ("", "pr") => p.pr = value,
                ("", "ev") => p.ev = value,
                ("", "buffer_frames") => p.buffer_frames = value as u64,
                ("", "clustered_access") => p.clustered_access = value,
                ("", "residency") => p.residency = value != 0.0,
                ("", "memory_budget_pages") => p.memory_budget_pages = value as u64,
                ("weights", "seq_page") => p.weights.seq_page = value,
                ("weights", "deref_page") => p.weights.deref_page = value,
                ("weights", "index_level") => p.weights.index_level = value,
                ("weights", "index_leaf") => p.weights.index_leaf = value,
                ("weights", "write_page") => p.weights.write_page = value,
                ("weights", "eval") => p.weights.eval = value,
                ("weights", "method") => p.weights.method = value,
                (s, k) => {
                    let dot = if s.is_empty() { "" } else { "." };
                    return Err(format!("line {lineno}: unknown key `{s}{dot}{k}`"));
                }
            }
        }
        Ok(p)
    }

    /// Effective breaker-resident capacity in pages: `buffer_frames`
    /// capped by the memory budget when one is set. Materializing
    /// breakers (fixpoint accumulators and deltas, nested-loop
    /// materialized inners) whose footprint stays under this stay hot;
    /// past it the executor spills and re-reads pay in full.
    pub(crate) fn breaker_frames(&self) -> f64 {
        let b = self.buffer_frames as f64;
        if self.memory_budget_pages == 0 {
            b
        } else {
            b.min(self.memory_budget_pages as f64)
        }
    }

    /// Render parameters in the snapshot format (what the calibration
    /// harness emits for check-in).
    pub fn render_snapshot(&self, header: &str) -> String {
        let w = &self.weights;
        format!(
            "# {header}\n\
             pr = {}\nev = {}\nbuffer_frames = {}\nclustered_access = {}\n\
             residency = {}\nmemory_budget_pages = {}\n\n\
             [weights]\n\
             seq_page = {}\nderef_page = {}\nindex_level = {}\nindex_leaf = {}\n\
             write_page = {}\neval = {}\nmethod = {}\n",
            self.pr,
            self.ev,
            self.buffer_frames,
            self.clustered_access,
            if self.residency { 1 } else { 0 },
            self.memory_budget_pages,
            w.seq_page,
            w.deref_page,
            w.index_level,
            w.index_leaf,
            w.write_page,
            w.eval,
            w.method,
        )
    }
}

/// One line of a cost snapshot: its number, the section it is in (`""`
/// before any header) and, unless it is the `[section]` header, its
/// `key = value` entry.
pub(crate) type SnapshotLine<'a> = (usize, &'a str, Option<(&'a str, f64)>);

/// The lines of a snapshot (`calibrated.toml`, `fix_profiles.toml`): a
/// deliberately tiny subset of TOML, so the workspace stays
/// dependency-free. `#` comments and blank lines are skipped, a value
/// must be a finite number, and an error names its line.
pub(crate) fn snapshot_lines(src: &str) -> impl Iterator<Item = Result<SnapshotLine<'_>, String>> {
    fn entry(line: &str) -> Result<(&str, f64), String> {
        let (key, value) = line.split_once('=').ok_or("expected `key = value`")?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number: {e}"))?;
        if !value.is_finite() {
            return Err("non-finite value".into());
        }
        Ok((key.trim(), value))
    }
    let mut section = "";
    src.lines().zip(1..).filter_map(move |(raw, lineno)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return None;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim();
            return Some(Ok((lineno, section, None)));
        }
        let entry = entry(line).map_err(|e| format!("line {lineno}: {e}"));
        Some(entry.map(|entry| (lineno, section, Some(entry))))
    })
}
