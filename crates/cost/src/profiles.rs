//! Fixpoint cardinality profiles: observed iteration counts and fitted
//! geometric delta-decay curves, fed back from execution traces.
//!
//! The default estimator guesses one global iteration count
//! (`max_chain_depth` / `DEFAULT_FIX_ITERATIONS`) and assumes *flat*
//! per-iteration deltas, but the paper's §3.2 point (Figure 5:
//! `Fix(T,P) = Σᵢ cost(Exp(Tᵢ))`) is that push decisions hinge on
//! per-iteration volumes. The feedback harness (`oorq-bench`) replays
//! the scenario corpus, joins each fixpoint's predicted `NodeCost` line
//! to its observed delta curve (`ExecReport::fix_deltas`, keyed per
//! fixpoint node since the attribution fix), fits one [`FixProfile`]
//! per (scenario, temporary) and persists them as
//! `crates/cost/fix_profiles.toml` — the same TOML subset as
//! `calibrated.toml`, loaded by `CostParams::calibrated()`.

use std::collections::BTreeMap;

use crate::params::snapshot_lines;

/// A fitted delta-size curve for one (scenario, temporary) fixpoint:
/// everything the estimator needs to model the semi-naive iteration
/// structure is expressed *relative* to quantities it can compute
/// statically (base-case row estimate, chain-depth statistic), so a
/// profile fitted at one data scale transfers to neighbouring scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixProfile {
    /// Observed rec-side pass count (delta-curve length minus the seed
    /// entry; the final zero-delta convergence check counts as a pass).
    pub iterations: f64,
    /// Passes per unit of the chain-depth statistic the default
    /// estimator consults (`max_chain_depth`, falling back to
    /// `DEFAULT_FIX_ITERATIONS`); lets the profile extrapolate when the
    /// statistic moves.
    pub iters_per_depth: f64,
    /// Observed seed delta over the estimator's base-case row estimate.
    pub seed_scale: f64,
    /// Geometric per-iteration decay ratio of delta sizes (`1.0` = flat
    /// curve; `< 1.0` = shrinking frontier).
    pub decay: f64,
    /// Total observed delta mass (sum over the curve, seed included).
    pub mass: f64,
    /// Observed mass over the observed seed (dimensionless, so it
    /// transfers across data scales): pins the reconstructed curve's
    /// *total*, which the geometric `decay` endpoints-fit alone
    /// under-counts for non-geometric (e.g. linearly decaying)
    /// frontiers. `0` marks a legacy profile with no recorded ratio;
    /// the estimator then trusts the geometric sum.
    pub mass_scale: f64,
}

impl FixProfile {
    /// Fit a profile from one observed delta curve (seed first, final
    /// zero entry on convergence), the estimator's base-case row
    /// estimate and the chain-depth statistic it would consult.
    /// Returns `None` for curves too degenerate to model (empty, or a
    /// zero seed).
    pub fn fit(deltas: &[u64], base_rows: f64, depth: f64) -> Option<FixProfile> {
        let seed = *deltas.first()? as f64;
        if seed <= 0.0 {
            return None;
        }
        let iterations = (deltas.len() - 1).max(1) as f64;
        // Geometric ratio through the last *nonzero* point: with the
        // convergence zero excluded, `(d_k / d_0)^(1/k)` matches the
        // endpoints exactly and interpolates the rest.
        let last_nonzero = deltas.iter().rposition(|&d| d > 0).unwrap_or(0);
        let decay = if last_nonzero == 0 {
            1.0
        } else {
            let ratio = deltas[last_nonzero] as f64 / seed;
            ratio.powf(1.0 / last_nonzero as f64)
        };
        let mass: f64 = deltas.iter().map(|&d| d as f64).sum();
        Some(FixProfile {
            iterations,
            iters_per_depth: iterations / depth.max(1.0),
            seed_scale: seed / base_rows.max(1.0),
            decay: decay.clamp(0.01, 10.0),
            mass,
            mass_scale: mass / seed,
        })
    }
}

/// The persisted profile set, keyed `scenario/temp` (e.g.
/// `music0/fig3/nopush/Influencer`). [`FixProfiles::lookup`] folds
/// all scenarios of one temporary into the single profile the estimator
/// uses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FixProfiles {
    entries: BTreeMap<String, FixProfile>,
}

impl FixProfiles {
    /// No profiles: the estimator falls back to the flat-delta default.
    pub fn empty() -> FixProfiles {
        FixProfiles::default()
    }

    /// True when no profiles are loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of (scenario, temp) profiles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Insert or replace the profile under `scenario/temp` key.
    pub fn insert(&mut self, key: impl Into<String>, profile: FixProfile) {
        self.entries.insert(key.into(), profile);
    }

    /// Exact lookup by full `scenario/temp` key.
    pub fn get(&self, key: &str) -> Option<&FixProfile> {
        self.entries.get(key)
    }

    /// Iterate `(key, profile)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FixProfile)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The profile the estimator uses for a temporary: the per-field
    /// *median* over every scenario that exercised it (key equal to
    /// `temp` or ending in `/temp`). Medians keep one outlier scenario
    /// from dragging the whole estimate.
    pub fn lookup(&self, temp: &str) -> Option<FixProfile> {
        let suffix = format!("/{temp}");
        let matching: Vec<&FixProfile> = self
            .entries
            .iter()
            .filter(|(k, _)| k.as_str() == temp || k.ends_with(&suffix))
            .map(|(_, v)| v)
            .collect();
        if matching.is_empty() {
            return None;
        }
        let med = |f: fn(&FixProfile) -> f64| -> f64 {
            let mut vals: Vec<f64> = matching.iter().map(|p| f(p)).collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            let n = vals.len();
            if n % 2 == 1 {
                vals[n / 2]
            } else {
                (vals[n / 2 - 1] + vals[n / 2]) / 2.0
            }
        };
        Some(FixProfile {
            iterations: med(|p| p.iterations),
            iters_per_depth: med(|p| p.iters_per_depth),
            seed_scale: med(|p| p.seed_scale),
            decay: med(|p| p.decay),
            mass: med(|p| p.mass),
            mass_scale: med(|p| p.mass_scale),
        })
    }

    /// Parse the `fix_profiles.toml` snapshot format: `#` comments,
    /// `[scenario/temp]` section headers, `key = value` lines. Same
    /// deliberately tiny TOML subset as `calibrated.toml`, with
    /// line-numbered errors.
    pub fn parse(src: &str) -> Result<FixProfiles, String> {
        let mut out = FixProfiles::default();
        for line in snapshot_lines(src) {
            let (lineno, section, entry) = line?;
            let Some((key, value)) = entry else {
                if section.is_empty() {
                    return Err(format!("line {lineno}: empty section name"));
                }
                let flat = FixProfile {
                    iterations: 1.0,
                    iters_per_depth: 1.0,
                    seed_scale: 1.0,
                    decay: 1.0,
                    mass: 0.0,
                    mass_scale: 0.0,
                };
                out.entries.insert(section.to_string(), flat);
                continue;
            };
            let Some(p) = out.entries.get_mut(section) else {
                return Err(format!(
                    "line {lineno}: `{key}` outside a [scenario/temp] section"
                ));
            };
            match key {
                "iterations" => p.iterations = value,
                "iters_per_depth" => p.iters_per_depth = value,
                "seed_scale" => p.seed_scale = value,
                "decay" => p.decay = value,
                "mass" => p.mass = value,
                "mass_scale" => p.mass_scale = value,
                k => return Err(format!("line {lineno}: unknown key `{k}`")),
            }
        }
        Ok(out)
    }

    /// Render in the snapshot format (what `reproduce feedback-fit`
    /// emits for check-in). Round-trips through [`FixProfiles::parse`].
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\n");
        for (key, p) in &self.entries {
            out.push_str(&format!(
                "\n[{key}]\niterations = {}\niters_per_depth = {}\nseed_scale = {}\n\
                 decay = {}\nmass = {}\nmass_scale = {}\n",
                p.iterations, p.iters_per_depth, p.seed_scale, p.decay, p.mass, p.mass_scale,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_curve_shape() {
        // Seed 8, geometric halving, convergence zero at the end.
        let p = FixProfile::fit(&[8, 4, 2, 1, 0], 10.0, 4.0).unwrap();
        assert_eq!(p.iterations, 4.0);
        assert_eq!(p.iters_per_depth, 1.0);
        assert!((p.seed_scale - 0.8).abs() < 1e-12);
        // (1/8)^(1/3) = 0.5: the ratio through the last nonzero point.
        assert!((p.decay - 0.5).abs() < 1e-12, "{}", p.decay);
        assert_eq!(p.mass, 15.0);
    }

    #[test]
    fn fit_rejects_degenerate_curves() {
        assert!(FixProfile::fit(&[], 10.0, 4.0).is_none());
        assert!(FixProfile::fit(&[0, 3, 0], 10.0, 4.0).is_none());
        // A seed-only curve is flat by definition.
        let p = FixProfile::fit(&[5], 10.0, 4.0).unwrap();
        assert_eq!(p.decay, 1.0);
        assert_eq!(p.iterations, 1.0);
    }

    fn sample() -> FixProfiles {
        let mut ps = FixProfiles::empty();
        ps.insert(
            "music0/fig3/nopush/Influencer",
            FixProfile {
                iterations: 2.0,
                iters_per_depth: 1.0,
                seed_scale: 1.125,
                decay: 0.5,
                mass: 9.0,
                mass_scale: 2.0,
            },
        );
        ps.insert(
            "music1/fig3/nopush/Influencer",
            FixProfile {
                iterations: 4.0,
                iters_per_depth: 1.0,
                seed_scale: 1.25,
                decay: 0.63,
                mass: 40.0,
                mass_scale: 4.0,
            },
        );
        ps.insert(
            "parts0/nopush/Contains",
            FixProfile {
                iterations: 3.0,
                iters_per_depth: 0.75,
                seed_scale: 2.0,
                decay: 0.7,
                mass: 68.0,
                mass_scale: 3.4,
            },
        );
        ps
    }

    #[test]
    fn snapshot_round_trips() {
        let ps = sample();
        let rendered = ps.render("test header");
        let parsed = FixProfiles::parse(&rendered).unwrap();
        assert_eq!(ps, parsed);
        // And the rendered form is stable under a second round trip.
        assert_eq!(rendered, parsed.render("test header"));
    }

    #[test]
    fn parse_accepts_comments_defaults_and_blank_lines() {
        let ps = FixProfiles::parse(
            "# leading comment\n\n[a/T] # trailing comment\niterations = 3\n\n[b/T]\n",
        )
        .unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.get("a/T").unwrap().iterations, 3.0);
        // Unset keys take the flat-curve defaults.
        let b = ps.get("b/T").unwrap();
        assert_eq!((b.iterations, b.decay, b.mass), (1.0, 1.0, 0.0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (src, want) in [
            ("[a/T]\nnope\n", "line 2: expected `key = value`"),
            ("[]\n", "line 1: empty section name"),
            ("[a/T]\niterations = abc\n", "line 2: bad number"),
            ("[a/T]\ndecay = inf\n", "line 2: non-finite value"),
            (
                "mass = 3\n",
                "line 1: `mass` outside a [scenario/temp] section",
            ),
            ("[a/T]\n\nwat = 3\n", "line 3: unknown key `wat`"),
        ] {
            let err = FixProfiles::parse(src).unwrap_err();
            assert!(err.starts_with(want), "{src:?}: got {err:?}, want {want:?}");
        }
    }

    #[test]
    fn aggregate_takes_per_field_medians_per_temp() {
        let ps = sample();
        let inf = ps.lookup("Influencer").unwrap();
        // Two Influencer entries: even-count medians average the pair.
        assert_eq!(inf.iterations, 3.0);
        assert!((inf.seed_scale - 1.1875).abs() < 1e-12);
        let contains = ps.lookup("Contains").unwrap();
        assert_eq!(contains.iterations, 3.0);
        assert!(ps.lookup("Nope").is_none());
    }

    #[test]
    fn lookup_answers_the_aggregate_not_one_scenario() {
        let ps = sample();
        let exact = ps.get("music0/fig3/nopush/Influencer").unwrap();
        assert_eq!(exact.iterations, 2.0);
        assert_eq!(ps.lookup("Influencer").unwrap().iterations, 3.0);
    }
}
