//! Correctness checks of every timed operation.
//!
//! An operation fails on any solver error, on a relative error above the
//! workload tolerance against the seeded manufactured solution, or on a
//! solution whose bits differ from the first solution the run produced
//! for the same right-hand side (the solver's determinism contract). A
//! failure is counted and printed with the seed; it never aborts the run.

use std::collections::HashMap;
use std::fmt::Display;

use csolve::common::RealScalar;
use csolve::Scalar;

pub struct Checker {
    workload: &'static str,
    seed: u64,
    tol: f64,
    /// Solution bits by right-hand-side key, from the first solution seen.
    first: HashMap<usize, Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Largest relative error seen.
    pub max_rel_err: f64,
}

impl Checker {
    pub fn new(workload: &'static str, seed: u64, tol: f64) -> Self {
        Self {
            workload,
            seed,
            tol,
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
            max_rel_err: 0.0,
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: &str, why: impl Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!(
            "FAILED {what} (workload {}, seed {}): {why}",
            self.workload, self.seed
        );
    }

    /// Check the solution of the right-hand side `key` against the exact
    /// solution and against the first solution of that key. Returns whether
    /// it passed.
    pub fn check<T: Scalar>(
        &mut self,
        key: usize,
        what: &str,
        got: (&[T], &[T]),
        want: (&[T], &[T]),
    ) -> bool {
        let err = rel_error(got, want);
        if err.is_nan() || err > self.tol {
            self.fail(what, format!("relative error {err:e} above {:e}", self.tol));
            return false;
        }
        self.max_rel_err = self.max_rel_err.max(err);
        let b = bits(got);
        match self.first.get(&key) {
            Some(f) if *f != b => {
                let diff = f.iter().zip(&b).filter(|(x, y)| x != y).count();
                self.fail(
                    what,
                    format!("{diff} solution words differ from the run's first solution"),
                );
                return false;
            }
            Some(_) => {}
            None => {
                self.first.insert(key, b);
            }
        }
        self.attempted += 1;
        true
    }
}

/// `‖got − want‖₂ / ‖want‖₂` over both solution parts.
pub fn rel_error<T: Scalar>(got: (&[T], &[T]), want: (&[T], &[T])) -> f64 {
    if got.0.len() != want.0.len() || got.1.len() != want.1.len() {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (g, w) in got.0.iter().zip(want.0).chain(got.1.iter().zip(want.1)) {
        num += (*g - *w).abs2().to_f64();
        den += w.abs2().to_f64();
    }
    (num / den).sqrt()
}

/// The bit patterns of a solution (real and imaginary part of each entry).
fn bits<T: Scalar>(x: (&[T], &[T])) -> Vec<u64> {
    x.0.iter()
        .chain(x.1)
        .flat_map(|v| [v.real().to_f64().to_bits(), v.imag().to_f64().to_bits()])
        .collect()
}

/// A copy of `x` with the lowest mantissa bit of its first entry flipped.
pub fn flip_one_bit<T: Scalar>(x: &[T]) -> Vec<T> {
    let mut out = x.to_vec();
    let re = f64::from_bits(out[0].real().to_f64().to_bits() ^ 1);
    out[0] = T::from_parts(<T::Real as RealScalar>::from_f64_real(re), out[0].imag());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve::C64;

    #[test]
    fn a_flipped_bit_is_a_failure() {
        let x: Vec<C64> = (0..8).map(|i| C64::from_f64(i as f64 + 0.5)).collect();
        let y = vec![C64::from_f64(1.0); 3];
        let mut c = Checker::new("unit", 7, 1e-3);
        assert!(c.check(0, "first", (&x, &y), (&x, &y)));
        assert!(c.check(0, "same", (&x, &y), (&x, &y)));
        let bad = flip_one_bit(&x);
        assert!(rel_error((&bad, &y), (&x, &y)) < 1e-15);
        assert!(!c.check(0, "flipped", (&bad, &y), (&x, &y)));
        assert_eq!((c.attempted, c.failed), (3, 1));
    }

    #[test]
    fn an_inaccurate_solution_is_a_failure() {
        let x = vec![1.0f64; 4];
        let y = vec![2.0f64; 4];
        let mut c = Checker::new("unit", 7, 1e-3);
        assert!(!c.check(0, "wrong", (&y, &y), (&x, &x)));
        assert_eq!(c.failed, 1);
    }
}
