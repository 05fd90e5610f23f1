//! Order statistics over samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; 0 for an empty sample (the run is then already marked
/// incorrect by its failure count).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Harrell–Davis estimate of the `q`-quantile: a Beta-weighted mean of
/// all order statistics. From a dozen samples it estimates a high
/// percentile far more steadily than interpolating the two largest.
pub fn harrell_davis(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    if n < 2 {
        return quantile(samples, q);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    let mut prev = 0.0;
    let mut est = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        est += (cdf - prev) * x;
        prev = cdf;
    }
    est
}

/// Regularized incomplete beta function `I_x(a, b)` (continued fraction,
/// Numerical Recipes §6.4).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(1.0 - x, b, a) / b
    }
}

fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..200 {
        let m = m as f64;
        for aa in [
            m * (b - m) * x / ((qam + 2.0 * m) * (a + 2.0 * m)),
            -(a + m) * (qab + m) * x / ((a + 2.0 * m) * (qap + 2.0 * m)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let s: f64 = C[0] + (1..9).map(|i| C[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((beta_cdf(0.3, 2.0, 3.0) - 0.3483).abs() < 1e-4);
        // Symmetric sample: the HD median is the centre.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((harrell_davis(&v, 0.5) - 6.0).abs() < 1e-9);
        let p95 = harrell_davis(&v, 0.95);
        assert!(p95 > 10.0 && p95 < 11.0, "{p95}");
    }
}
