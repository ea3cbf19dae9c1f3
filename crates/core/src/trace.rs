//! Optimizer trace: the Figure 6 summary, observed on a real run.
//!
//! Each optimization step records its granularity, the kind of strategy
//! that drove it, and the PT node kinds it generated, so the summary
//! table of Figure 6 can be regenerated from an actual optimization.

use std::fmt;

use oorq_cost::NodeCost;

/// The four optimization steps of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `rewrite` — make `Union`/`Fix` explicit.
    Rewrite,
    /// `translate` — onto the physical schema.
    Translate,
    /// `generatePT` — optimize predicate nodes.
    GeneratePt,
    /// `transformPT` — position selective operators w.r.t. recursion.
    TransformPt,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Step::Rewrite => "rewrite",
            Step::Translate => "translate",
            Step::GeneratePt => "generatePT",
            Step::TransformPt => "transformPT",
        };
        write!(f, "{s}")
    }
}

/// Strategy kind driving a step (Figure 6's "Strategy" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// No choices involved, applied to saturation.
    Irrevocable,
    /// Cost-based generative (builds candidates bottom-up).
    CostBasedGenerative,
    /// Cost-based transformational (rewrites a complete plan).
    CostBasedTransformational,
    /// Cost-based (choice among alternatives).
    CostBased,
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrategyKind::Irrevocable => "irrevocable",
            StrategyKind::CostBasedGenerative => "cost-based (generative)",
            StrategyKind::CostBasedTransformational => "cost-based (transformational)",
            StrategyKind::CostBased => "cost-based",
        };
        write!(f, "{s}")
    }
}

/// One recorded step.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Which step.
    pub step: Step,
    /// Optimization granule ("the entire query (graph)", "one arc", ...).
    pub granularity: String,
    /// Strategy kind.
    pub strategy: StrategyKind,
    /// PT node kinds generated (`Fix`, `Union`, `IJ`, `PIJ`, `EJ`, `Sel`).
    pub nodes_generated: Vec<String>,
    /// Free-form notes (actions applied, costs compared).
    pub notes: Vec<String>,
}

/// The whole optimization trace.
#[derive(Debug, Clone, Default)]
pub struct OptTrace {
    /// Recorded steps, in order.
    pub steps: Vec<StepTrace>,
    /// Per-node predicted cost breakdown of the *final* plan. Each line
    /// carries the pre-order PT node index (`oorq_pt::node_ids`), the
    /// join key against the executor's per-operator observed counters
    /// (`OpReport::pt_node`).
    pub final_breakdown: Vec<NodeCost>,
}

impl OptTrace {
    /// Render the Figure 6 style summary table, followed by each step's
    /// recorded notes (actions applied, costs compared).
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "| Procedure | Granularity | Strategy | PT nodes generated |\n\
             |---|---|---|---|\n",
        );
        for s in &self.steps {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                s.step,
                s.granularity,
                s.strategy,
                s.nodes_summary()
            ));
        }
        let mut noted = false;
        for s in &self.steps {
            if s.notes.is_empty() {
                continue;
            }
            if !noted {
                out.push('\n');
                noted = true;
            }
            for n in &s.notes {
                out.push_str(&format!("{}: {}\n", s.step, n));
            }
        }
        out
    }
}

impl StepTrace {
    /// Node kinds with multiplicity: `Fix, Sel ×3` — deduplicated but
    /// counted (the previous rendering dropped multiplicity), sorted by
    /// kind for a stable table.
    pub(crate) fn nodes_summary(&self) -> String {
        if self.nodes_generated.is_empty() {
            return "none".to_string();
        }
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for kind in &self.nodes_generated {
            *counts.entry(kind).or_insert(0) += 1;
        }
        counts
            .iter()
            .map(|(k, c)| {
                if *c > 1 {
                    format!("{k} ×{c}")
                } else {
                    (*k).to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}
