//! The workloads and their seeded inputs.
//!
//! The seed picks each workload's manufactured solution `x`, and with it
//! the right-hand side `b = A·x`; it also drives the sweep's stream of
//! right-hand sides. The solver only ever sees the generated `b`.

use csolve::common::RealScalar;
use csolve::{BlockSizes, CoupledProblem, DenseBackend, Scalar, SolverConfig, Tracer};

/// Dense-side (H-matrix) tolerance of every workload.
pub const EPS: f64 = 1e-4;
/// Worker threads of every workload.
pub const THREADS: usize = 2;
const MIB: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Multi-solve + H-matrix Schur under a fixed memory budget, blocking
    /// picked by the autotuner (`f64` academic pipe).
    PipeMsBudget,
    /// Multi-factorization + H-matrix Schur, no budget (`C64` industrial).
    AircraftMf,
    /// One `SolverSession` serving a stream of right-hand sides (`C64`
    /// industrial).
    AircraftSweep,
}

/// One workload: what it solves and how a run is sized.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Target size `N` handed to the problem generator.
    pub n_total: usize,
    /// Memory budget in bytes, when the workload has one.
    pub budget: Option<usize>,
    /// Largest accepted relative error against the manufactured solution.
    pub tol: f64,
    /// Nominal seconds of one timed operation (a `solve()` call, or one
    /// whole session for the sweep): a run of `--seconds s` times
    /// `s / op_seconds` of them, so every run of a workload does the same
    /// amount of work.
    pub op_seconds: f64,
    /// Warm right-hand sides per session (sweep only).
    pub stream_len: usize,
    /// Right-hand sides per burst, and the session's `max_batch`.
    pub burst: usize,
}

pub const NAMES: [&str; 3] = ["pipe-ms-budget", "aircraft-mf", "aircraft-sweep"];

impl Spec {
    /// The named workload; `smoke` shrinks it to a seconds-long self-test.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let spec = match name {
            "pipe-ms-budget" => Spec {
                name: "pipe-ms-budget",
                kind: Kind::PipeMsBudget,
                n_total: if smoke { 2_000 } else { 12_000 },
                budget: Some(if smoke { 7 * MIB } else { 86 * MIB }),
                tol: EPS,
                op_seconds: 2.6,
                stream_len: 0,
                burst: 1,
            },
            "aircraft-mf" => Spec {
                name: "aircraft-mf",
                kind: Kind::AircraftMf,
                n_total: if smoke { 1_200 } else { 4_000 },
                budget: None,
                tol: EPS,
                op_seconds: 2.75,
                stream_len: 0,
                burst: 1,
            },
            "aircraft-sweep" => Spec {
                name: "aircraft-sweep",
                kind: Kind::AircraftSweep,
                n_total: if smoke { 1_200 } else { 4_000 },
                budget: None,
                tol: EPS,
                op_seconds: 2.9,
                stream_len: if smoke { 32 } else { 256 },
                burst: 16,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn algorithm(&self) -> csolve::Algorithm {
        match self.kind {
            Kind::AircraftMf => csolve::Algorithm::MultiFactorization,
            Kind::PipeMsBudget | Kind::AircraftSweep => csolve::Algorithm::MultiSolve,
        }
    }

    /// The solver configuration at `threads` worker threads.
    pub fn config(&self, threads: usize, tracer: Tracer) -> SolverConfig {
        let mut b = SolverConfig::builder()
            .eps(EPS)
            .dense_backend(DenseBackend::Hmat)
            .num_threads(threads)
            .tracer(tracer);
        if let Some(bytes) = self.budget {
            b = b.block_sizes(BlockSizes::Auto).memory_budget(bytes);
        }
        if self.kind == Kind::AircraftMf {
            b = b.n_b(2);
        }
        b.build().expect("workload configuration is valid")
    }

    /// Timed operations in a run of `seconds`.
    pub fn ops(&self, seconds: u64, smoke: bool) -> usize {
        if smoke {
            return 2;
        }
        ((seconds as f64 / self.op_seconds).round() as usize).max(3)
    }
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        // FNV-1a of the stream name keeps the workloads' inputs independent.
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ tag)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }

    pub fn scalar<T: Scalar>(&mut self) -> T {
        let re = self.unit();
        let im = self.unit();
        T::from_parts(
            <T::Real as RealScalar>::from_f64_real(re),
            <T::Real as RealScalar>::from_f64_real(im),
        )
    }

    pub fn vec<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        (0..n).map(|_| self.scalar()).collect()
    }
}

/// One right-hand side of the sweep: `b = A·x` with
/// `x = Σ_j coef[j]·basis[j]`.
pub struct Request<T: Scalar> {
    pub b_v: Vec<T>,
    pub b_s: Vec<T>,
    coef: Vec<T>,
}

/// A workload's problem with its seeded solution and right-hand sides.
pub struct Inputs<T: Scalar> {
    pub problem: CoupledProblem<T>,
    basis: Vec<(Vec<T>, Vec<T>)>,
    pub stream: Vec<Request<T>>,
}

/// Seeded solutions spanning the sweep's right-hand sides.
const BASIS: usize = 4;

impl<T: Scalar> Inputs<T> {
    pub fn build(spec: &Spec, seed: u64) -> Self {
        let mut problem = match spec.kind {
            Kind::PipeMsBudget => csolve::pipe_problem::<T>(spec.n_total),
            Kind::AircraftMf | Kind::AircraftSweep => csolve::industrial_problem::<T>(spec.n_total),
        };
        let (nv, ns) = (problem.n_fem(), problem.n_bem());
        let mut rng = Rng::new(seed, spec.name);
        let mut xs: Vec<(Vec<T>, Vec<T>)> = (0..if spec.stream_len > 0 { 1 + BASIS } else { 1 })
            .map(|_| (rng.vec(nv), rng.vec(ns)))
            .collect();
        let bs = apply(&problem, &xs);
        let basis_b = bs[1..].to_vec();
        let (x_v, x_s) = xs.remove(0);
        problem.x_exact_v = x_v;
        problem.x_exact_s = x_s;
        (problem.b_v, problem.b_s) = bs[0].clone();

        let stream = (0..spec.stream_len)
            .map(|_| {
                let coef: Vec<T> = rng.vec(BASIS);
                Request {
                    b_v: combine(&coef, basis_b.iter().map(|b| &b.0[..])),
                    b_s: combine(&coef, basis_b.iter().map(|b| &b.1[..])),
                    coef,
                }
            })
            .collect();
        Inputs {
            problem,
            basis: xs,
            stream,
        }
    }

    /// The exact solution of stream request `i`.
    pub fn exact(&self, i: usize) -> (Vec<T>, Vec<T>) {
        let c = &self.stream[i].coef;
        (
            combine(c, self.basis.iter().map(|x| &x.0[..])),
            combine(c, self.basis.iter().map(|x| &x.1[..])),
        )
    }
}

/// `Σ_j coef[j]·vecs[j]`.
fn combine<'a, T: Scalar>(coef: &[T], vecs: impl Iterator<Item = &'a [T]>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for (&c, v) in coef.iter().zip(vecs) {
        if out.is_empty() {
            out = vec![T::ZERO; v.len()];
        }
        for (o, &x) in out.iter_mut().zip(v) {
            *o += c * x;
        }
    }
    out
}

/// `A·x` for each `(x_v, x_s)`, sharing one pass over the BEM kernel.
fn apply<T: Scalar>(p: &CoupledProblem<T>, xs: &[(Vec<T>, Vec<T>)]) -> Vec<(Vec<T>, Vec<T>)> {
    let (nv, ns) = (p.n_fem(), p.n_bem());
    let mut out: Vec<(Vec<T>, Vec<T>)> = xs
        .iter()
        .map(|(x_v, x_s)| {
            let mut b_v = vec![T::ZERO; nv];
            p.a_vv.matvec(T::ONE, x_v, T::ZERO, &mut b_v);
            p.a_vs.matvec(T::ONE, x_s, T::ONE, &mut b_v);
            let mut b_s = vec![T::ZERO; ns];
            p.a_sv.matvec(T::ONE, x_v, T::ZERO, &mut b_s);
            (b_v, b_s)
        })
        .collect();
    let mut acc = vec![T::ZERO; xs.len()];
    for i in 0..ns {
        acc.fill(T::ZERO);
        for j in 0..ns {
            let a = p.bem.eval(i, j);
            for (k, (_, x_s)) in xs.iter().enumerate() {
                acc[k] += a * x_s[j];
            }
        }
        for (k, o) in out.iter_mut().enumerate() {
            o.1[i] += acc[k];
        }
    }
    out
}
