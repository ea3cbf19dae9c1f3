//! The interval abstract domain: non-negative `[lo, hi]` ranges over
//! `f64` with *directed rounding* — every arithmetic operation bumps the
//! lower endpoint one ulp down and the upper endpoint one ulp up, so a
//! chain of float operations can never round a true bound out of the
//! interval.
//!
//! Invariants (enforced by `Interval::make`):
//! - `0.0 <= lo < ∞` (a lower bound of `∞` is meaningless for counters
//!   and collapses to `0`, mirroring the cost model's cardinality
//!   clamp);
//! - `0.0 <= hi <= ∞` (NaN — unknown — widens to `∞`);
//! - `lo <= hi` (a violation downstream is reported as AB007, see
//!   [`crate::check`]).

use std::fmt;

use oorq_cost::{guard_hi, guard_lo};

/// Bump toward `+∞` by one ulp (identity on NaN and `+∞`).
pub(crate) fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        x
    } else if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Bump toward `-∞` by one ulp (identity on NaN and `-∞`).
pub(crate) fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// A non-negative interval `[lo, hi]`, the abstract value of every
/// counter (rows, page accesses, passes) and cost figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Sound lower bound (finite, non-negative).
    pub lo: f64,
    /// Sound upper bound (`∞` = unbounded).
    pub hi: f64,
}

impl Interval {
    /// Build an interval, guarding both endpoints (NaN/∞/negative lower
    /// endpoints collapse to `0`, NaN upper endpoints widen to `∞`).
    pub(crate) fn make(lo: f64, hi: f64) -> Interval {
        Interval {
            lo: guard_lo(lo),
            hi: guard_hi(hi),
        }
    }

    /// The exact singleton `[x, x]`.
    pub fn exact(x: f64) -> Interval {
        Interval::make(x, x)
    }

    /// The exact singleton of an integer counter.
    pub(crate) fn exact_u64(n: u64) -> Interval {
        Interval::exact(n as f64)
    }

    /// `[0, 0]`.
    pub fn zero() -> Interval {
        Interval { lo: 0.0, hi: 0.0 }
    }

    /// `[0, ∞]`: no information.
    pub fn top() -> Interval {
        Interval {
            lo: 0.0,
            hi: f64::INFINITY,
        }
    }

    /// `[0, hi]`.
    pub(crate) fn up_to(hi: f64) -> Interval {
        Interval::make(0.0, hi)
    }

    /// Is `lo > hi` or an endpoint NaN? (Should be impossible through
    /// `Interval::make`; checked defensively and surfaced as AB007.)
    pub fn is_degenerate(&self) -> bool {
        self.lo.is_nan() || self.hi.is_nan() || self.lo > self.hi
    }

    /// Does the interval contain an observed integer counter?
    pub fn contains_count(&self, n: u64) -> bool {
        let x = n as f64;
        x >= self.lo && x <= self.hi
    }

    /// Interval addition with directed rounding. (Not `std::ops::Add`:
    /// directed rounding breaks the algebraic laws callers expect of
    /// `+`, so the widening stays visible at call sites.)
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Interval) -> Interval {
        Interval::make(next_down(self.lo + o.lo), next_up(self.hi + o.hi))
    }

    /// Interval multiplication with directed rounding. Both operands are
    /// non-negative, so endpoint products suffice; `0 · ∞` resolves to
    /// `0` (the supremum over *finite* values of an unbounded factor
    /// times zero is zero), not IEEE NaN.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Interval) -> Interval {
        let lo = next_down(self.lo * o.lo);
        let hi = if self.hi == 0.0 || o.hi == 0.0 {
            0.0
        } else {
            next_up(self.hi * o.hi)
        };
        Interval::make(lo, hi)
    }

    /// Multiply by an exact non-negative scalar.
    pub fn scale(self, k: f64) -> Interval {
        self.mul(Interval::exact(k))
    }

    /// Cap the upper bound (a second, independent upper bound).
    pub(crate) fn cap_hi(self, hi: f64) -> Interval {
        Interval {
            lo: self.lo.min(guard_hi(hi)),
            hi: self.hi.min(guard_hi(hi)),
        }
    }

    /// Does `self` lie strictly above `o` (no overlap)? `true` proves
    /// every concrete value of `self` exceeds every value of `o`.
    pub(crate) fn strictly_above(&self, o: &Interval) -> bool {
        self.lo > o.hi
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |x: f64, f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if x == f64::INFINITY {
                write!(f, "inf")
            } else if x.fract() == 0.0 && x.abs() < 1e15 {
                write!(f, "{}", x as i64)
            } else {
                write!(f, "{x:.2}")
            }
        };
        write!(f, "[")?;
        side(self.lo, f)?;
        write!(f, ", ")?;
        side(self.hi, f)?;
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_bumps_are_directed() {
        assert!(next_up(1.0) > 1.0);
        assert!(next_down(1.0) < 1.0);
        assert!(next_up(0.0) > 0.0);
        assert!(next_down(0.0) < 0.0);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        assert!(next_up(f64::NAN).is_nan());
    }

    #[test]
    fn make_guards_endpoints() {
        let i = Interval::make(f64::NAN, f64::NAN);
        assert_eq!(i.lo, 0.0);
        assert_eq!(i.hi, f64::INFINITY);
        let j = Interval::make(-3.0, -1.0);
        assert_eq!(j.lo, 0.0);
        assert_eq!(j.hi, 0.0);
        assert!(!j.is_degenerate());
    }

    #[test]
    fn zero_times_unbounded_is_zero() {
        let z = Interval::zero();
        let t = Interval::top();
        assert_eq!(z.mul(t).hi, 0.0);
        assert_eq!(t.mul(z).hi, 0.0);
    }

    #[test]
    fn add_mul_contain_true_value() {
        let a = Interval::exact(0.1);
        let b = Interval::exact(0.2);
        let s = a.add(b);
        assert!(s.lo <= 0.3 && 0.3 <= s.hi);
        let p = a.mul(b);
        assert!(p.lo <= 0.02 && 0.02 <= p.hi);
    }

    /// The endpoint guards are the *same* functions the cost model's
    /// clamps use (`oorq_cost::guard_lo`/`guard_hi`), so
    /// the point estimator and the interval domain agree on what
    /// degenerate inputs mean.
    #[test]
    fn guards_shared_with_cost_model() {
        for x in [f64::NAN, f64::INFINITY, -7.0, 0.0, 3.5, 1e300] {
            let i = Interval::make(x, x);
            assert_eq!(i.lo, oorq_cost::guard_lo(x), "lo guard for {x}");
            assert_eq!(i.hi, oorq_cost::guard_hi(x), "hi guard for {x}");
        }
    }

    /// Monotonicity property: widening an operand can only widen (never
    /// narrow) the result of `add`/`mul` — the soundness
    /// argument for propagating bounds through transfer functions.
    /// Driven by the in-repo deterministic PRNG over mixed magnitudes,
    /// zeros, and infinities.
    #[test]
    fn widening_inputs_never_narrows_outputs() {
        let mut rng = oorq_prng::Prng::new(0x1417_e5a1);
        let endpoint = |rng: &mut oorq_prng::Prng| -> f64 {
            match rng.below(8) {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => rng.f64() * 1e-9,
                3 => rng.f64() * 1e12,
                _ => rng.f64() * 1e4,
            }
        };
        let iv = |rng: &mut oorq_prng::Prng| -> Interval {
            let (a, b) = (endpoint(rng), endpoint(rng));
            Interval::make(a.min(b), a.max(b))
        };
        let contains = |outer: &Interval, inner: &Interval| -> bool {
            outer.lo <= inner.lo && outer.hi >= inner.hi
        };
        for case in 0..2000 {
            let a = iv(&mut rng);
            let b = iv(&mut rng);
            // A strict widening of `a` (its hull with a fresh interval).
            let c = iv(&mut rng);
            let wide = Interval::make(a.lo.min(c.lo), a.hi.max(c.hi));
            assert!(contains(&wide, &a), "hull must contain its operand");
            for (name, narrow, widened) in [
                ("add", a.add(b), wide.add(b)),
                ("mul", a.mul(b), wide.mul(b)),
            ] {
                assert!(
                    contains(&widened, &narrow),
                    "case {case}: {name} narrowed under widening: \
                     {a} -> {wide}, other {b}: {narrow} vs {widened}"
                );
            }
            // Directed rounding keeps the true value inside: check
            // against exact integer arithmetic on small cases.
            let m = (rng.below(100) as f64, rng.below(100) as f64);
            let (x, y) = (Interval::exact(m.0), Interval::exact(m.1));
            assert!(x.add(y).contains_count((m.0 + m.1) as u64));
            assert!(x.mul(y).contains_count((m.0 * m.1) as u64));
        }
    }

    #[test]
    fn containment_and_dominance() {
        let i = Interval::make(2.0, 5.0);
        assert!(i.contains_count(2));
        assert!(i.contains_count(5));
        assert!(!i.contains_count(6));
        assert!(Interval::make(6.0, 9.0).strictly_above(&i));
        assert!(!Interval::make(5.0, 9.0).strictly_above(&i));
    }
}
