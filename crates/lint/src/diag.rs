//! Diagnostics: stable lint codes, severities and the report container.

use std::collections::BTreeSet;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The construct is wrong: evaluating it would fail or give a wrong
    /// answer.
    Error,
    /// Legal but suspicious — usually a modelling mistake.
    Warn,
    /// Informational: a property worth knowing, not a defect.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Note => "note",
        };
        write!(f, "{s}")
    }
}

/// Every check the lint engine performs, with a stable code.
///
/// `QG*` codes come from the query-graph pass ([`crate::lint_graph`]),
/// `PT*` from the plan pass ([`crate::verify_pt`]) and `CM*` from the
/// cost-model pass ([`crate::lint_plan_cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    // ---- query-graph pass ------------------------------------------
    /// A predicate or projection references a variable no tree label or
    /// root binding introduces.
    UnboundVariable,
    /// An arc references a name the graph/catalog does not define.
    UnknownName,
    /// Two bindings of one predicate node introduce the same variable.
    DuplicateVariable,
    /// A tree label names an attribute its input type does not have.
    BadLabel,
    /// A recursive name with no non-recursive alternative: the fixpoint
    /// starts from nothing and stays empty (or is not computable).
    UnsafeRecursion,
    /// An alternative consumes its own name more than once (non-linear
    /// recursion, outside the semi-naive/\[KL86\] assumptions).
    NonLinearRecursion,
    /// A name is produced but unreachable from the answer.
    UnreachableNode,
    /// A dependency cycle among derived names none of which the answer
    /// needs.
    DeadViewCycle,
    /// Two distinct names consume each other (mutual recursion — not
    /// expressible as a single linear fixpoint here).
    MutualRecursion,
    /// A bound variable no predicate or projection uses.
    UnusedVariable,
    /// A multi-input predicate node with no conjunct connecting its
    /// inputs (Cartesian product).
    CartesianProduct,
    /// The name is linearly recursive (the shape `Fix` handles well).
    LinearRecursion,

    // ---- plan pass --------------------------------------------------
    /// A `Fix` body is not a `Union` of a base and a recursive leg.
    FixBodyNotUnion,
    /// No leg of the fixpoint body references the temporary.
    FixNoRecursiveLeg,
    /// Every leg of the fixpoint body references the temporary: there is
    /// no base case to seed the iteration.
    FixNoBaseLeg,
    /// An `IJ`/`PIJ` step is unusable: the `on` column is absent from
    /// the input, or the step's attribute is not a reference.
    BadIjStep,
    /// An operator names an index that does not exist or has the wrong
    /// kind for the operator.
    BadIndex,
    /// A projection drops a column an enclosing operator still consumes.
    ProjDropsNeeded,
    /// The two legs of a union produce different column sets.
    UnionShapeMismatch,
    /// A predicate or projection expression does not type-check against
    /// the columns actually produced below it.
    IllTypedPredicate,
    /// A temporary is referenced outside any scope that defines it.
    UndefinedTemp,
    /// A join produces the same column name from both sides.
    DuplicateColumn,
    /// A projection onto zero columns.
    EmptyProjection,
    /// A fixpoint body propagates no temporary columns verbatim, so no
    /// selection can ever be pushed through it (\[KL86\]).
    NoPropagatedColumns,

    // ---- cost-model pass --------------------------------------------
    /// A cardinality or page estimate is negative or NaN.
    NegativeCardinality,
    /// A cost figure is negative, NaN or infinite.
    NonFiniteCost,
    /// A selection is estimated to *grow* its input (selectivity > 1).
    SelectivityOutOfRange,

    // ---- calibration drift pass -------------------------------------
    /// An operator's predicted page accesses drift beyond tolerance from
    /// the observed ones.
    IoDrift,
    /// An operator's predicted evaluations drift beyond tolerance from
    /// the observed ones.
    CpuDrift,
    /// An operator's predicted output cardinality drifts beyond
    /// tolerance from the observed row count.
    RowsDrift,
    /// A plan node in the cost breakdown has no observed counterpart (or
    /// vice versa) — predicted-vs-observed attribution is incomplete.
    UnmatchedOperator,
    /// A fixpoint profile's predicted iteration count drifts beyond
    /// tolerance from the observed semi-naive pass count.
    FixIterationsDrift,
    /// A fixpoint profile's predicted delta mass drifts beyond tolerance
    /// from the observed delta curve's total.
    FixDeltaMassDrift,
    /// The model and the run disagree about which side of the spill
    /// cliff the plan is on: breaker pages modeled past the memory
    /// budget against observed spill evictions.
    SpillDrift,

    // ---- physical-plan pass -----------------------------------------
    /// Physical operator ids are not dense and unique.
    PhysOpIds,
    /// A physical operator's output columns disagree with its operands.
    PhysColsMismatch,
    /// A union/fixpoint permutation does not map its operand's columns.
    PhysBadPerm,
    /// A physical operator names a missing or wrong-kind index.
    PhysBadIndex,
    /// A temp scan outside any defining fixpoint scope.
    PhysUndefinedTemp,
    /// A nested loop marked rescannable over a non-rescannable inner.
    PhysBadRescan,
    /// An entity scan references an entity out of range.
    PhysBadEntity,
    // PX008 and PX009 are retired with the parallel operators they
    // checked; the numbers are not reused.
    /// A materializing breaker's estimated page footprint exceeds the
    /// executor's breaker memory budget: the answer stays correct, but
    /// LRU spill makes its re-reads pay full page I/O.
    BreakerOverBudget,

    // ---- abstract-interpretation (static bounds) pass ---------------
    /// An observed operator row counter escapes its static interval.
    BoundRowsViolated,
    /// An observed operator page-access counter escapes its static
    /// interval.
    BoundPagesViolated,
    /// An observed fixpoint ran more semi-naive passes than the static
    /// bound allows.
    BoundPassesViolated,
    /// A computed projection column is never consumed upstream (dead
    /// definition beyond PT006's shape check).
    DeadComputedColumn,
    /// A fixpoint's key space is unbounded: termination rests on the
    /// iteration cap, not on a finiteness proof.
    FixKeySpaceUnbounded,
    /// A fixpoint whose base leg is provably empty: the whole fixpoint
    /// produces nothing.
    FixProvablyEmpty,
    /// The analysis derived a degenerate interval (`lo > hi` or NaN
    /// endpoint) — an internal soundness failure.
    DegenerateInterval,
}

impl LintCode {
    /// The stable short code (what tests and tools match on).
    pub fn code(&self) -> &'static str {
        match self {
            LintCode::UnboundVariable => "QG001",
            LintCode::UnknownName => "QG002",
            LintCode::DuplicateVariable => "QG003",
            LintCode::BadLabel => "QG004",
            LintCode::UnsafeRecursion => "QG005",
            LintCode::NonLinearRecursion => "QG006",
            LintCode::UnreachableNode => "QG007",
            LintCode::DeadViewCycle => "QG008",
            LintCode::MutualRecursion => "QG009",
            LintCode::UnusedVariable => "QG010",
            LintCode::CartesianProduct => "QG011",
            LintCode::LinearRecursion => "QG012",
            LintCode::FixBodyNotUnion => "PT001",
            LintCode::FixNoRecursiveLeg => "PT002",
            LintCode::FixNoBaseLeg => "PT003",
            LintCode::BadIjStep => "PT004",
            LintCode::BadIndex => "PT005",
            LintCode::ProjDropsNeeded => "PT006",
            LintCode::UnionShapeMismatch => "PT007",
            LintCode::IllTypedPredicate => "PT008",
            LintCode::UndefinedTemp => "PT009",
            LintCode::DuplicateColumn => "PT010",
            LintCode::EmptyProjection => "PT011",
            LintCode::NoPropagatedColumns => "PT012",
            LintCode::NegativeCardinality => "CM001",
            LintCode::NonFiniteCost => "CM002",
            LintCode::SelectivityOutOfRange => "CM003",
            LintCode::IoDrift => "CX001",
            LintCode::CpuDrift => "CX002",
            LintCode::RowsDrift => "CX003",
            LintCode::UnmatchedOperator => "CX004",
            LintCode::FixIterationsDrift => "CX005",
            LintCode::FixDeltaMassDrift => "CX006",
            LintCode::SpillDrift => "CX007",
            LintCode::PhysOpIds => "PX001",
            LintCode::PhysColsMismatch => "PX002",
            LintCode::PhysBadPerm => "PX003",
            LintCode::PhysBadIndex => "PX004",
            LintCode::PhysUndefinedTemp => "PX005",
            LintCode::PhysBadRescan => "PX006",
            LintCode::PhysBadEntity => "PX007",
            LintCode::BreakerOverBudget => "PX010",
            LintCode::BoundRowsViolated => "AB001",
            LintCode::BoundPagesViolated => "AB002",
            LintCode::BoundPassesViolated => "AB003",
            LintCode::DeadComputedColumn => "AB004",
            LintCode::FixKeySpaceUnbounded => "AB005",
            LintCode::FixProvablyEmpty => "AB006",
            LintCode::DegenerateInterval => "AB007",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(&self) -> Severity {
        use LintCode::*;
        match self {
            UnboundVariable
            | UnknownName
            | DuplicateVariable
            | BadLabel
            | UnsafeRecursion
            | MutualRecursion
            | FixBodyNotUnion
            | FixNoRecursiveLeg
            | FixNoBaseLeg
            | BadIjStep
            | BadIndex
            | ProjDropsNeeded
            | UnionShapeMismatch
            | IllTypedPredicate
            | UndefinedTemp
            | NegativeCardinality
            | NonFiniteCost
            | SelectivityOutOfRange
            | PhysOpIds
            | PhysColsMismatch
            | PhysBadPerm
            | PhysBadIndex
            | PhysUndefinedTemp
            | PhysBadRescan
            | PhysBadEntity
            | BoundRowsViolated
            | BoundPagesViolated
            | BoundPassesViolated
            | DegenerateInterval => Severity::Error,
            NonLinearRecursion | UnreachableNode | DeadViewCycle | DuplicateColumn
            | EmptyProjection | IoDrift | CpuDrift | RowsDrift | FixIterationsDrift
            | FixDeltaMassDrift | SpillDrift | BreakerOverBudget | FixProvablyEmpty => {
                Severity::Warn
            }
            UnusedVariable | CartesianProduct | LinearRecursion | NoPropagatedColumns
            | UnmatchedOperator | DeadComputedColumn | FixKeySpaceUnbounded => Severity::Note,
        }
    }

    /// All codes the engine can emit, in code order.
    pub fn all() -> &'static [LintCode] {
        use LintCode::*;
        &[
            UnboundVariable,
            UnknownName,
            DuplicateVariable,
            BadLabel,
            UnsafeRecursion,
            NonLinearRecursion,
            UnreachableNode,
            DeadViewCycle,
            MutualRecursion,
            UnusedVariable,
            CartesianProduct,
            LinearRecursion,
            FixBodyNotUnion,
            FixNoRecursiveLeg,
            FixNoBaseLeg,
            BadIjStep,
            BadIndex,
            ProjDropsNeeded,
            UnionShapeMismatch,
            IllTypedPredicate,
            UndefinedTemp,
            DuplicateColumn,
            EmptyProjection,
            NoPropagatedColumns,
            NegativeCardinality,
            NonFiniteCost,
            SelectivityOutOfRange,
            IoDrift,
            CpuDrift,
            RowsDrift,
            UnmatchedOperator,
            FixIterationsDrift,
            FixDeltaMassDrift,
            SpillDrift,
            PhysOpIds,
            PhysColsMismatch,
            PhysBadPerm,
            PhysBadIndex,
            PhysUndefinedTemp,
            PhysBadRescan,
            PhysBadEntity,
            BreakerOverBudget,
            BoundRowsViolated,
            BoundPagesViolated,
            BoundPassesViolated,
            DeadComputedColumn,
            FixKeySpaceUnbounded,
            FixProvablyEmpty,
            DegenerateInterval,
        ]
    }

    /// One-line description of what the check enforces.
    pub fn describe(&self) -> &'static str {
        use LintCode::*;
        match self {
            UnboundVariable => "variable used but never bound by a tree label",
            UnknownName => "arc references a name the graph does not define",
            DuplicateVariable => "variable bound twice in one predicate node",
            BadLabel => "tree label names an attribute the input type lacks",
            UnsafeRecursion => "recursive name with no non-recursive alternative",
            NonLinearRecursion => "alternative consumes its own name twice",
            UnreachableNode => "produced name unreachable from the answer",
            DeadViewCycle => "dependency cycle the answer never consumes",
            MutualRecursion => "two names consume each other",
            UnusedVariable => "bound variable is never used",
            CartesianProduct => "multi-input node with no connecting conjunct",
            LinearRecursion => "name is linearly recursive",
            FixBodyNotUnion => "Fix body is not a Union",
            FixNoRecursiveLeg => "no leg of the fixpoint references the temporary",
            FixNoBaseLeg => "every leg of the fixpoint references the temporary",
            BadIjStep => "IJ/PIJ step unusable on its input",
            BadIndex => "operator names a missing or wrong-kind index",
            ProjDropsNeeded => "projection drops a column consumed upstream",
            UnionShapeMismatch => "union legs produce different columns",
            IllTypedPredicate => "expression does not type-check over its columns",
            UndefinedTemp => "temporary referenced outside a defining scope",
            DuplicateColumn => "join duplicates a column name",
            EmptyProjection => "projection onto zero columns",
            NoPropagatedColumns => "fixpoint propagates no columns (nothing pushable)",
            NegativeCardinality => "negative or NaN cardinality estimate",
            NonFiniteCost => "negative, NaN or infinite cost estimate",
            SelectivityOutOfRange => "selection estimated to grow its input",
            IoDrift => "predicted page accesses drift beyond tolerance from observed",
            CpuDrift => "predicted evaluations drift beyond tolerance from observed",
            RowsDrift => "predicted cardinality drifts beyond tolerance from observed rows",
            UnmatchedOperator => "cost-breakdown node without an observed counterpart",
            FixIterationsDrift => {
                "modeled fixpoint iteration count drifts from the observed passes"
            }
            FixDeltaMassDrift => "modeled fixpoint delta mass drifts from the observed curve",
            SpillDrift => "modeled spill-cliff side disagrees with observed spill evictions",
            PhysOpIds => "physical operator ids not dense and unique",
            PhysColsMismatch => "physical operator columns disagree with operands",
            PhysBadPerm => "union/fixpoint permutation does not map operand columns",
            PhysBadIndex => "physical operator names a missing or wrong-kind index",
            PhysUndefinedTemp => "temp scanned outside a defining fixpoint",
            PhysBadRescan => "nested-loop rescan over a non-rescannable inner",
            PhysBadEntity => "entity scan references an entity out of range",
            BreakerOverBudget => "breaker footprint exceeds the memory budget (expect spill)",
            BoundRowsViolated => "observed row counter escapes its static interval",
            BoundPagesViolated => "observed page-access counter escapes its static interval",
            BoundPassesViolated => "fixpoint exceeded its static semi-naive pass bound",
            DeadComputedColumn => "computed projection column never consumed upstream",
            FixKeySpaceUnbounded => "fixpoint key space unbounded; termination rests on the cap",
            FixProvablyEmpty => "fixpoint base leg provably empty",
            DegenerateInterval => "analysis derived a degenerate interval (lo > hi or NaN)",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding: a code, where it was found, and what was seen.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: LintCode,
    /// Where: a node path in the plan, or a name/node in the graph.
    pub location: String,
    /// What was observed.
    pub message: String,
}

impl Diagnostic {
    /// Severity, from the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity(),
            self.code.code(),
            self.location,
            self.message
        )
    }
}

/// The outcome of a lint pass: every diagnostic found, in discovery
/// order.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Record a finding.
    pub fn push(
        &mut self,
        code: LintCode,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            location: location.into(),
            message: message.into(),
        });
    }

    /// True when no `Error`-severity finding was recorded.
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// True when a specific code fired.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The distinct stable codes that fired.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    /// Absorb another report.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Human-readable rendering, one diagnostic per line.
    pub fn render(&self) -> String {
        if self.diagnostics.is_empty() {
            return "clean: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}
