//! Structural analyses over processing trees shared by the optimizer
//! (push-action legality) and the lint engine (plan verification).

use oorq_query::Expr;

use crate::node::Pt;

/// Compute the propagated columns of a fixpoint body: output columns of
/// the recursive side's top projection that are verbatim copies of the
/// temporary's fields — the \[KL86\] `canPush` condition: a selection
/// on these columns commutes with the fixpoint.
pub fn propagated_columns(fix: &Pt) -> Vec<String> {
    let Ok((temp, _, rec)) = fix.fix_sides() else {
        return Vec::new();
    };
    // Temp leaf variable inside the recursive side.
    let mut temp_var = None;
    rec.visit(&mut |n| {
        if let Pt::Temp { name, var } = n {
            if name == temp && temp_var.is_none() {
                temp_var = Some(var.clone());
            }
        }
    });
    let Some(tv) = temp_var else {
        return Vec::new();
    };
    let Pt::Proj { cols, .. } = rec else {
        return Vec::new();
    };
    cols.iter()
        .filter(|(name, e)| matches!(e, Expr::Var(v) if *v == format!("{tv}.{name}")))
        .map(|(name, _)| name.clone())
        .collect()
}
