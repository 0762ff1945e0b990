//! The tolerance-band drift gate: freshly swept records vs a committed
//! golden document.
//!
//! The simulator is deterministic, so on an unchanged tree the comparison
//! holds exactly; the relative tolerance band exists so an *intentional*
//! small behaviour change (a cost-constant tweak, a latency adjustment) can
//! be landed together with refreshed prose while CI still catches real
//! regressions. Identity must match exactly: the two documents must cover
//! the same matrix points, and a config-fingerprint mismatch is always
//! drift (it means the machine, the inputs or the epoch changed and the
//! goldens need regeneration, a reviewable act).

use super::record::ReproRecord;

/// Relative difference of two counts: 0 when they are equal (zeros
/// included), NaN when either is NaN.
fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// Whether `value` is within `bound`. `<=` is false when either side is
/// NaN, so a NaN value or bound never passes.
fn within(value: f64, bound: f64) -> bool {
    value <= bound
}

/// Parse a `--tolerance` value: a finite, non-negative fraction.
pub fn parse_tolerance(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|t| t.is_finite() && *t >= 0.0)
}

fn key(r: &ReproRecord) -> (String, String, usize, String) {
    (r.app.clone(), r.series.clone(), r.nprocs, r.scale.clone())
}

/// Compare `fresh` against `golden` within relative tolerance `tol`
/// (e.g. `0.02` = 2%). Returns every violation found, empty on success.
pub fn drift(fresh: &[ReproRecord], golden: &[ReproRecord], tol: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for g in golden {
        let Some(f) = fresh.iter().find(|f| key(f) == key(g)) else {
            problems.push(format!(
                "missing point: {}/{}@{}({}) in fresh sweep",
                g.app, g.series, g.nprocs, g.scale
            ));
            continue;
        };
        let id = format!("{}/{}@{}({})", g.app, g.series, g.nprocs, g.scale);
        if f.config != g.config {
            problems.push(format!(
                "{id}: config drift\n  golden: {}\n  fresh:  {}",
                g.config, f.config
            ));
            continue;
        }
        let fields: [(&str, f64, f64); 14] = [
            ("speedup", f.speedup, g.speedup),
            ("elapsed", f.elapsed as f64, g.elapsed as f64),
            ("busy", f.busy as f64, g.busy as f64),
            ("idle", f.idle as f64, g.idle as f64),
            ("overhead", f.overhead as f64, g.overhead as f64),
            ("refs", f.refs as f64, g.refs as f64),
            ("l1_hits", f.l1_hits as f64, g.l1_hits as f64),
            ("l2_hits", f.l2_hits as f64, g.l2_hits as f64),
            ("local_misses", f.local_misses as f64, g.local_misses as f64),
            ("remote_misses", f.remote_misses as f64, g.remote_misses as f64),
            ("invalidations", f.invalidations as f64, g.invalidations as f64),
            ("wait_cycles", f.wait_cycles as f64, g.wait_cycles as f64),
            ("peak_occ", f.peak_occ as f64, g.peak_occ as f64),
            ("adherence", f.adherence, g.adherence),
        ];
        for (name, fv, gv) in fields {
            let r = rel(fv, gv);
            if !within(r, tol) {
                problems.push(format!(
                    "{id}: {name} drifted {:.2}% (golden {gv}, fresh {fv}, tolerance {:.2}%)",
                    r * 100.0,
                    tol * 100.0
                ));
            }
        }
        if !within(f.max_error, 1e-6) {
            problems.push(format!("{id}: numeric error {:.3e} exceeds 1e-6", f.max_error));
        }
    }
    for f in fresh {
        if !golden.iter().any(|g| key(g) == key(f)) {
            problems.push(format!(
                "extra point: {}/{}@{}({}) not in golden",
                f.app, f.series, f.nprocs, f.scale
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(elapsed: u64) -> ReproRecord {
        ReproRecord {
            app: "gauss".into(),
            series: "Base".into(),
            nprocs: 4,
            scale: "small".into(),
            config: "cfg".into(),
            hash: "0".into(),
            speedup: 1.0,
            elapsed,
            busy: 100,
            idle: 0,
            overhead: 0,
            refs: 100,
            l1_hits: 90,
            l2_hits: 0,
            local_misses: 5,
            remote_misses: 5,
            invalidations: 0,
            wait_cycles: 0,
            peak_occ: 0,
            adherence: 1.0,
            max_error: 0.0,
        }
    }

    #[test]
    fn identical_records_pass() {
        assert!(drift(&[rec(1000)], &[rec(1000)], 0.0).is_empty());
    }

    #[test]
    fn small_drift_within_band_passes_large_fails() {
        assert!(drift(&[rec(1010)], &[rec(1000)], 0.02).is_empty());
        let problems = drift(&[rec(1500)], &[rec(1000)], 0.02);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("elapsed"), "{problems:?}");
    }

    #[test]
    fn missing_extra_and_config_drift_reported() {
        let mut other = rec(1000);
        other.nprocs = 8;
        let problems = drift(&[other], &[rec(1000)], 0.5);
        assert!(problems.iter().any(|p| p.starts_with("missing point")));
        assert!(problems.iter().any(|p| p.starts_with("extra point")));

        let mut forged = rec(1000);
        forged.config = "other-cfg".into();
        let problems = drift(&[forged], &[rec(1000)], 0.5);
        assert!(problems.iter().any(|p| p.contains("config drift")), "{problems:?}");
    }

    #[test]
    fn numeric_error_always_gates() {
        let mut bad = rec(1000);
        bad.max_error = 1e-3;
        let problems = drift(&[bad], &[rec(1000)], 1.0);
        assert!(problems.iter().any(|p| p.contains("numeric error")), "{problems:?}");
    }

    #[test]
    fn nan_fields_and_nan_error_are_drift() {
        let mut fresh = rec(1000);
        fresh.speedup = f64::NAN;
        let problems = drift(&[fresh], &[rec(1000)], 0.02);
        assert!(problems.iter().any(|p| p.contains("speedup")), "{problems:?}");

        // A NaN golden value is drift even against a fresh zero.
        let mut fresh = rec(1000);
        fresh.adherence = 0.0;
        let mut golden = rec(1000);
        golden.adherence = f64::NAN;
        let problems = drift(&[fresh], &[golden], 0.02);
        assert!(problems.iter().any(|p| p.contains("adherence")), "{problems:?}");

        let mut fresh = rec(1000);
        fresh.max_error = f64::NAN;
        let problems = drift(&[fresh], &[rec(1000)], 0.02);
        assert!(problems.iter().any(|p| p.contains("numeric error")), "{problems:?}");
    }

    #[test]
    fn nan_tolerance_passes_nothing() {
        // A tripled `elapsed` fails at the default band, and a NaN band must
        // not wave it through.
        assert_eq!(drift(&[rec(3000)], &[rec(1000)], 0.02).len(), 1);
        let problems = drift(&[rec(3000)], &[rec(1000)], f64::NAN);
        assert!(problems.iter().any(|p| p.contains("elapsed")), "{problems:?}");
        // Not even identical records pass a NaN band.
        assert!(!drift(&[rec(1000)], &[rec(1000)], f64::NAN).is_empty());
    }

    #[test]
    fn tolerance_must_be_a_finite_non_negative_fraction() {
        assert_eq!(parse_tolerance("0.02"), Some(0.02));
        assert_eq!(parse_tolerance("0"), Some(0.0));
        for bad in ["nan", "NaN", "inf", "-inf", "-0.01", "two", ""] {
            assert_eq!(parse_tolerance(bad), None, "{bad:?} accepted");
        }
    }
}
