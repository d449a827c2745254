//! Correctness checks on workload outputs. Each check compares against
//! an independent computation or a conservation property of the
//! method, never against a stored copy, and records a one-line reason
//! when it fails.

use wafer_md::md::vec3::V3d;

/// The verdict of a workload's checks: every failure with its reason.
#[derive(Debug, Default)]
pub struct Verdict {
    failures: Vec<String>,
    /// Every bounded quantity checked, with its value and bound.
    measured: Vec<String>,
}

impl Verdict {
    /// Record `reason` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(reason());
        }
    }

    /// Check a measured quantity against its upper bound (NaN fails).
    pub fn within(&mut self, what: &str, value: f64, bound: f64) {
        self.measured
            .push(format!("{what:<40} {value:>11.3e} (bound {bound:.0e})"));
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(value <= bound) {
            self.failures.push(format!(
                "{what} = {value:.3e} exceeds its bound {bound:.0e}"
            ));
        }
    }

    /// Check a measured quantity against a closed range (NaN fails).
    pub fn between(&mut self, what: &str, value: f64, lo: f64, hi: f64) {
        self.measured
            .push(format!("{what:<40} {value:>11.3e} (range {lo}..={hi})"));
        if !(lo..=hi).contains(&value) {
            self.failures
                .push(format!("{what} = {value:.3e} lies outside {lo}..={hi}"));
        }
    }

    pub fn measured(&self) -> &[String] {
        &self.measured
    }

    /// Record a failure outright.
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The largest total-energy excursion from `reference`, per atom (eV).
/// NaN anywhere reads as an infinite drift.
pub fn energy_drift_per_atom(reference: f64, energies: &[f64], n_atoms: usize) -> f64 {
    energies
        .iter()
        .map(|&e| {
            let d = (e - reference).abs();
            if d.is_nan() {
                f64::INFINITY
            } else {
                d
            }
        })
        .fold(0.0, f64::max)
        / n_atoms.max(1) as f64
}

/// Σ m·v over all atoms (amu·Å/ps), for one species of mass `mass`.
pub fn momentum(velocities: &[V3d], mass: f64) -> V3d {
    velocities.iter().copied().sum::<V3d>().scale(mass)
}

/// The change of total momentum between two states, relative to the
/// thermal momentum scale Σ m·|v| of the first: conserved dynamics keep
/// it at rounding level.
pub fn momentum_change(before: &[V3d], after: &[V3d], mass: f64) -> f64 {
    let scale: f64 = before.iter().map(|v| v.norm()).sum::<f64>() * mass;
    (momentum(after, mass) - momentum(before, mass)).norm() / scale.max(f64::MIN_POSITIVE)
}

/// |Σ F| ÷ Σ |F|: Newton's third law makes the net force vanish.
pub fn net_force_ratio(forces: &[V3d]) -> f64 {
    let net: V3d = forces.iter().copied().sum();
    let total: f64 = forces.iter().map(|f| f.norm()).sum();
    net.norm() / total.max(f64::MIN_POSITIVE)
}

/// max_i |a_i − b_i| ÷ max_i |b_i|: how far per-atom vectors `a`
/// stray from the reference `b`, relative to the largest reference
/// magnitude. Infinite when the lengths differ or a value is NaN.
pub fn max_relative_deviation(a: &[V3d], b: &[V3d]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let scale = b.iter().map(|v| v.norm()).fold(0.0, f64::max);
    let worst = a
        .iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm())
        .fold(
            0.0,
            |m: f64, d| if d.is_nan() { f64::INFINITY } else { m.max(d) },
        );
    worst / scale.max(f64::MIN_POSITIVE)
}

/// The first atom whose vectors differ in any bit, or `None` when `a`
/// and `b` are bit-identical (a length mismatch reports the shorter
/// length).
pub fn first_bit_difference(a: &[V3d], b: &[V3d]) -> Option<usize> {
    let bits = |v: &V3d| v.to_array().map(f64::to_bits);
    a.iter()
        .zip(b)
        .position(|(x, y)| bits(x) != bits(y))
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

/// The first body the server returned for each cache key; every later
/// body for the key must match it byte for byte.
#[derive(Debug, Default)]
pub struct BodyLedger {
    first: std::collections::BTreeMap<String, Vec<u8>>,
}

impl BodyLedger {
    /// Record `body` for `key`; fails when it differs from the body the
    /// key was first answered with.
    pub fn record(&mut self, key: &str, body: &[u8]) -> Result<(), String> {
        match self.first.get(key) {
            None => {
                self.first.insert(key.to_string(), body.to_vec());
                Ok(())
            }
            Some(first) if first.as_slice() == body => Ok(()),
            Some(first) => {
                let at = first.iter().zip(body).position(|(a, b)| a != b);
                Err(format!(
                    "body for key {key} differs from its first answer (byte {}, lengths {} vs {})",
                    at.unwrap_or(first.len().min(body.len())),
                    body.len(),
                    first.len()
                ))
            }
        }
    }

    /// The first body of every key, in key order.
    pub fn first_bodies(&self) -> impl Iterator<Item = (&String, &Vec<u8>)> {
        self.first.iter()
    }
}

/// The scheduler counters of a serve run, as `/stats` reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    pub requests: u64,
    pub runs: u64,
    pub cache_hits: u64,
    pub coalesced: u64,
}

/// Check the server's accounting against what the clients sent: one
/// engine run per distinct spec, and every request disposed exactly
/// once as a hit, a coalesced wait, or a run.
pub fn check_serve_counters(
    verdict: &mut Verdict,
    stats: ServeCounters,
    requests_sent: u64,
    distinct_specs: u64,
) {
    verdict.check(stats.requests == requests_sent, || {
        format!(
            "/stats requests = {} but {requests_sent} were sent",
            stats.requests
        )
    });
    verdict.check(stats.runs == distinct_specs, || {
        format!(
            "/stats runs = {} but {distinct_specs} distinct specs were sent",
            stats.runs
        )
    });
    let disposed = stats.cache_hits + stats.coalesced + stats.runs;
    verdict.check(disposed == requests_sent, || {
        format!(
            "hits {} + coalesced {} + runs {} = {disposed}, not the {requests_sent} requests sent",
            stats.cache_hits, stats.coalesced, stats.runs
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(n: usize) -> Vec<V3d> {
        (0..n)
            .map(|i| V3d::new(i as f64 * 0.5, 1.0 - i as f64 * 0.25, (i % 3) as f64))
            .collect()
    }

    #[test]
    fn within_fails_above_the_bound_and_on_nan() {
        let mut v = Verdict::default();
        v.within("small", 1e-6, 1e-5);
        assert!(v.passed());
        v.within("large", 2e-5, 1e-5);
        v.within("nan", f64::NAN, 1e-5);
        assert_eq!(v.failures().len(), 2);
        assert_eq!(v.measured().len(), 3);
    }

    #[test]
    fn energy_jump_breaks_the_drift_bound() {
        // A 4,096-atom run whose total energy wobbles by ±0.3 eV passes
        // the workloads' drift bound; one 25 eV jump (≈ 6 meV/atom)
        // fails it.
        let (e0, n) = (-30_000.0, 4096);
        let steady: Vec<f64> = (0..50).map(|i| e0 + 0.3 * (i as f64 * 0.7).sin()).collect();
        let mut v = Verdict::default();
        v.within(
            "drift",
            energy_drift_per_atom(e0, &steady, n),
            crate::compute::DRIFT_BOUND_EV,
        );
        assert!(v.passed(), "{:?}", v.failures());
        let mut jumped = steady.clone();
        jumped[30] += 25.0;
        v.within(
            "drift",
            energy_drift_per_atom(e0, &jumped, n),
            crate::compute::DRIFT_BOUND_EV,
        );
        assert!(!v.passed());
        jumped.push(f64::NAN);
        assert_eq!(energy_drift_per_atom(e0, &jumped, n), f64::INFINITY);
    }

    #[test]
    fn one_ulp_in_one_coordinate_breaks_bit_identity() {
        let a = lattice(50);
        let mut b = a.clone();
        assert_eq!(first_bit_difference(&a, &b), None);
        b[17].y = f64::from_bits(b[17].y.to_bits() + 1);
        assert_eq!(first_bit_difference(&a, &b), Some(17));
        assert_eq!(first_bit_difference(&a, &a[..49]), Some(49));
    }

    #[test]
    fn momentum_and_net_force_detect_a_one_sided_kick() {
        let v = vec![V3d::new(1.0, 0.0, 0.0), V3d::new(-1.0, 0.0, 0.0)];
        assert_eq!(momentum_change(&v, &v, 2.0), 0.0);
        let kicked = vec![V3d::new(1.5, 0.0, 0.0), V3d::new(-1.0, 0.0, 0.0)];
        assert!((momentum_change(&v, &kicked, 2.0) - 0.25).abs() < 1e-12);
        assert_eq!(net_force_ratio(&v), 0.0);
        assert!((net_force_ratio(&kicked) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn relative_deviation_scales_by_the_reference() {
        let a = lattice(8);
        let mut b = a.clone();
        assert_eq!(max_relative_deviation(&a, &b), 0.0);
        let scale = b.iter().map(|v| v.norm()).fold(0.0, f64::max);
        b[3].x += 1e-3 * scale;
        let dev = max_relative_deviation(&b, &a);
        assert!((dev - 1e-3).abs() < 1e-9, "{dev}");
        assert_eq!(max_relative_deviation(&a, &a[..7]), f64::INFINITY);
    }

    #[test]
    fn one_altered_byte_in_a_hit_body_is_caught() {
        let miss = b"wafer-md report\nsteps 20\nE -123.456\n".to_vec();
        let mut ledger = BodyLedger::default();
        assert!(ledger.record("00aa", &miss).is_ok());
        assert!(ledger.record("00aa", &miss).is_ok());
        let mut hit = miss.clone();
        hit[20] ^= 1;
        let err = ledger.record("00aa", &hit).unwrap_err();
        assert!(err.contains("byte 20"), "{err}");
        assert!(ledger.record("00aa", &miss[..miss.len() - 1]).is_err());
        assert!(ledger.record("00bb", &hit).is_ok());
        assert_eq!(ledger.first_bodies().count(), 2);
    }

    #[test]
    fn one_run_too_many_fails_the_serve_accounting() {
        let good = ServeCounters {
            requests: 100,
            runs: 12,
            cache_hits: 85,
            coalesced: 3,
        };
        let mut v = Verdict::default();
        check_serve_counters(&mut v, good, 100, 12);
        assert!(v.passed(), "{:?}", v.failures());
        let extra_run = ServeCounters { runs: 13, ..good };
        let mut v = Verdict::default();
        check_serve_counters(&mut v, extra_run, 100, 12);
        assert_eq!(v.failures().len(), 2, "{:?}", v.failures());
    }
}
