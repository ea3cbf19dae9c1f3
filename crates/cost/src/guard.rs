//! Shared NaN/∞ guards for cardinality and cost figures.
//!
//! The point-estimate side (the cost model's cardinality and
//! selectivity clamps) and the interval side (`oorq-analysis` directed rounding) must
//! agree on how degenerate arithmetic is neutralized, so both use these
//! helpers.

/// Sanitize a cardinality estimate: degenerate arithmetic (NaN from
/// 0·∞, negative from mis-set statistics) collapses to zero instead of
/// poisoning every downstream estimate — a non-negative cardinality is
/// provable, not merely checked.
pub(crate) fn sane_rows(r: f64) -> f64 {
    if r.is_finite() && r > 0.0 {
        r
    } else {
        0.0
    }
}

/// Guard an interval *lower* endpoint: rounding may only move it down,
/// so anything degenerate (NaN, negative, ±∞) collapses to `0.0` —
/// identical to the point-estimate clamp.
pub fn guard_lo(x: f64) -> f64 {
    sane_rows(x)
}

/// Guard an interval *upper* endpoint: rounding may only move it up, so
/// NaN (unknown) widens to `+∞` and negative garbage collapses to
/// `0.0`; a genuine `+∞` (unbounded) is kept.
pub fn guard_hi(x: f64) -> f64 {
    if x.is_nan() {
        f64::INFINITY
    } else if x < 0.0 {
        0.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sane_rows_clamps_degenerate() {
        assert_eq!(sane_rows(f64::NAN), 0.0);
        assert_eq!(sane_rows(-3.0), 0.0);
        assert_eq!(sane_rows(f64::INFINITY), 0.0);
        assert_eq!(sane_rows(2.5), 2.5);
    }

    #[test]
    fn guards_are_directed() {
        assert_eq!(guard_lo(f64::NAN), 0.0);
        assert_eq!(guard_lo(f64::INFINITY), 0.0);
        assert_eq!(guard_hi(f64::NAN), f64::INFINITY);
        assert_eq!(guard_hi(f64::INFINITY), f64::INFINITY);
        assert_eq!(guard_hi(-1.0), 0.0);
        assert!(guard_lo(7.0) <= guard_hi(7.0));
    }
}
