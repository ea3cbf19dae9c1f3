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
/// `QG*` codes come from the query-graph pass ([`crate::lint_graph`])
/// and `PT*` from the plan pass ([`crate::verify_pt`]).
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
    /// recursion, outside the semi-naive/\[KL86\] assumptions: each pass
    /// reads every occurrence as the last pass's delta, so `Fix` would
    /// miss the rows that join a new row with an older one).
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
    /// kind for the operator, or a `Sel^idx` names one its predicate
    /// and input cannot probe.
    BadIndex,
    /// A projection drops a column an enclosing operator still consumes.
    ProjDropsNeeded,
    /// The two legs of a union produce different column sets (the graph
    /// pass reports it too, for a name's alternatives).
    UnionShapeMismatch,
    /// A predicate or projection expression does not type-check against
    /// the columns actually produced below it (the graph pass reports it
    /// too, for a conjunct that is no truth value and for a relation
    /// arc's row used as a value).
    IllTypedPredicate,
    /// A temporary is scanned outside the recursive leg of the fixpoint
    /// that defines it, and no enclosing context gives its shape.
    UndefinedTemp,
    /// A join produces the same column name from both sides.
    DuplicateColumn,
    /// A projection onto zero columns.
    EmptyProjection,
    /// A fixpoint body propagates no temporary columns verbatim, so no
    /// selection can ever be pushed through it (\[KL86\]).
    NoPropagatedColumns,

    // ---- drift pass -------------------------------------------------
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
    // CX005–CX007 are retired with the fitted fixpoint profiles and the
    // residency model they checked; the numbers are not reused.

    // ---- physical-plan pass -----------------------------------------
    /// Physical operator ids are not dense and unique.
    PhysOpIds,
    /// A physical operator's output columns disagree with its operands.
    PhysColsMismatch,
    /// A union/fixpoint permutation does not map its operand's columns.
    PhysBadPerm,
    /// A physical operator names a missing or wrong-kind index.
    PhysBadIndex,
    /// A temp scan outside the recursive leg of its `FixPoint`.
    PhysUndefinedTemp,
    /// A nested loop marked rescannable over a non-rescannable inner.
    PhysBadRescan,
    /// An entity scan references an entity out of range.
    PhysBadEntity,
    // PX008 and PX009 are retired with the parallel operators they
    // checked, PX010 with the breaker-budget model; the numbers are not
    // reused.

    // ---- abstract-interpretation (static bounds) pass ---------------
    /// An observed operator row counter escapes its static interval.
    BoundRowsViolated,
    /// An observed operator page-access counter escapes its static
    /// interval.
    BoundPagesViolated,
    /// An observed fixpoint ran more semi-naive passes than the static
    /// bound allows.
    BoundPassesViolated,
    // AB004 is retired with the dead-column pass that reported it; the
    // number is not reused.
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
    /// A code's stable short code, fixed severity and one-line
    /// description: one row per code, the one place its facts are
    /// written.
    #[rustfmt::skip]
    fn facts(&self) -> (&'static str, Severity, &'static str) {
        use LintCode::*;
        use Severity::{Error, Note, Warn};
        match self {
            UnboundVariable       => ("QG001", Error, "variable used but never bound by a tree label"),
            UnknownName           => ("QG002", Error, "arc references a name the graph does not define"),
            DuplicateVariable     => ("QG003", Error, "variable bound twice in one predicate node"),
            BadLabel              => ("QG004", Error, "tree label names an attribute the input type lacks"),
            UnsafeRecursion       => ("QG005", Error, "recursive name with no non-recursive alternative"),
            NonLinearRecursion    => ("QG006", Error, "alternative consumes its own name twice"),
            UnreachableNode       => ("QG007", Warn,  "produced name unreachable from the answer"),
            DeadViewCycle         => ("QG008", Warn,  "dependency cycle the answer never consumes"),
            MutualRecursion       => ("QG009", Error, "two names consume each other"),
            UnusedVariable        => ("QG010", Note,  "bound variable is never used"),
            CartesianProduct      => ("QG011", Note,  "multi-input node with no connecting conjunct"),
            LinearRecursion       => ("QG012", Note,  "name is linearly recursive"),
            FixBodyNotUnion       => ("PT001", Error, "Fix body is not a Union"),
            FixNoRecursiveLeg     => ("PT002", Error, "no leg of the fixpoint references the temporary"),
            FixNoBaseLeg          => ("PT003", Error, "every leg of the fixpoint references the temporary"),
            BadIjStep             => ("PT004", Error, "IJ/PIJ step unusable on its input"),
            BadIndex              => ("PT005", Error, "operator names a missing or wrong-kind index"),
            ProjDropsNeeded       => ("PT006", Error, "projection drops a column consumed upstream"),
            UnionShapeMismatch    => ("PT007", Error, "union legs produce different columns"),
            IllTypedPredicate     => ("PT008", Error, "expression does not type-check over its columns"),
            UndefinedTemp         => ("PT009", Error, "temporary referenced outside a defining scope"),
            DuplicateColumn       => ("PT010", Warn,  "join duplicates a column name"),
            EmptyProjection       => ("PT011", Warn,  "projection onto zero columns"),
            NoPropagatedColumns   => ("PT012", Note,  "fixpoint propagates no columns (nothing pushable)"),
            IoDrift               => ("CX001", Warn,  "predicted page accesses drift beyond tolerance from observed"),
            CpuDrift              => ("CX002", Warn,  "predicted evaluations drift beyond tolerance from observed"),
            RowsDrift             => ("CX003", Warn,  "predicted cardinality drifts beyond tolerance from observed rows"),
            UnmatchedOperator     => ("CX004", Note,  "cost-breakdown node without an observed counterpart"),
            PhysOpIds             => ("PX001", Error, "physical operator ids not dense and unique"),
            PhysColsMismatch      => ("PX002", Error, "physical operator columns disagree with operands"),
            PhysBadPerm           => ("PX003", Error, "union/fixpoint permutation does not map operand columns"),
            PhysBadIndex          => ("PX004", Error, "physical operator names a missing or wrong-kind index"),
            PhysUndefinedTemp     => ("PX005", Error, "temp scanned outside a defining fixpoint"),
            PhysBadRescan         => ("PX006", Error, "nested-loop rescan over a non-rescannable inner"),
            PhysBadEntity         => ("PX007", Error, "entity scan references an entity out of range"),
            BoundRowsViolated     => ("AB001", Error, "observed row counter escapes its static interval"),
            BoundPagesViolated    => ("AB002", Error, "observed page-access counter escapes its static interval"),
            BoundPassesViolated   => ("AB003", Error, "fixpoint exceeded its static semi-naive pass bound"),
            FixKeySpaceUnbounded  => ("AB005", Note,  "fixpoint key space unbounded; termination rests on the cap"),
            FixProvablyEmpty      => ("AB006", Warn,  "fixpoint base leg provably empty"),
            DegenerateInterval    => ("AB007", Error, "analysis derived a degenerate interval (lo > hi or NaN)"),
        }
    }

    /// The stable short code (what tests and tools match on).
    pub fn code(&self) -> &'static str {
        self.facts().0
    }

    /// The fixed severity of this code.
    pub fn severity(&self) -> Severity {
        self.facts().1
    }

    /// One-line description of what the check enforces.
    pub fn describe(&self) -> &'static str {
        self.facts().2
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
            IoDrift,
            CpuDrift,
            RowsDrift,
            UnmatchedOperator,
            PhysOpIds,
            PhysColsMismatch,
            PhysBadPerm,
            PhysBadIndex,
            PhysUndefinedTemp,
            PhysBadRescan,
            PhysBadEntity,
            BoundRowsViolated,
            BoundPagesViolated,
            BoundPassesViolated,
            FixKeySpaceUnbounded,
            FixProvablyEmpty,
            DegenerateInterval,
        ]
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
