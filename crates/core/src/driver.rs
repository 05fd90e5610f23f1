//! The solution driver: workspace setup (surface cluster ordering) and the
//! four Schur-complement strategies of the paper.
//!
//! The blockwise strategies (multi-solve, multi-factorization) run their
//! block loops as a lookahead task-DAG pipeline ([`TaskDag`]): each block's
//! compute and ordered commit are explicit DAG nodes dispatched to worker
//! threads lowest-id-first, so the next block's compute overlaps the
//! previous block's Schur commit instead of fork-joining per phase. Blocks
//! are admitted one by one against the memory budget by a
//! [`BudgetScheduler`] and folded into the Schur accumulator in a fixed
//! order by an [`OrderedCommit`] — so results are bitwise-identical for
//! every thread count, and peak tracked memory never exceeds the configured
//! budget (concurrency degrades instead).

use std::sync::{Arc, Mutex};

use crate::autotune::{self, AutotuneDecision, BlockSizes, MatrixStats};
use crate::config::{Algorithm, Metrics, SolverConfig, SparseCompressionSummary};
use crate::pipeline::{Admission, BudgetScheduler, OrderedCommit, TaskDag};
use crate::schur::{SchurAcc, SchurFactor};
use csolve_common::{
    ByteSized, Error, MemTracker, PhaseTimer, Result, Scalar, ScopeTracer, SpanKind, Stopwatch,
    TraceEventKind, Tracer,
};
use csolve_dense::Mat;
use csolve_fembem::{BemOperator, CoupledProblem};
use csolve_hmat::ClusterTree;
use csolve_sparse::{
    factorize, factorize_schur, Coo, Csc, FactorStats, SparseFactorization, SparseOptions,
    SymbolicFactorization, Symmetry,
};

/// Result of a coupled solve.
#[derive(Debug)]
pub struct Outcome<T> {
    /// Volume solution (original ordering).
    pub xv: Vec<T>,
    /// Surface solution (original ordering).
    pub xs: Vec<T>,
    /// Wall-clock, phase and memory measurements of the run.
    pub metrics: Metrics,
}

/// Working copy of the problem with the surface unknowns in cluster order.
struct Ws<'a, T: Scalar> {
    a_vv: &'a Csc<T>,
    a_sv: Csc<T>,
    a_vs: Csc<T>,
    bem: BemOperator<T>,
    tree: ClusterTree,
    symmetric: bool,
    /// Accumulated BLR statistics of every sparse factorization of the run
    /// (commutative sums, so concurrent tile aggregation order cannot change
    /// the result). Read out into [`Metrics::sparse_compression`] at the end.
    blr: Mutex<SparseCompressionSummary>,
}

impl<T: Scalar> Ws<'_, T> {
    fn nv(&self) -> usize {
        self.a_vv.nrows
    }

    fn ns(&self) -> usize {
        self.bem.n()
    }

    fn sparse_opts(&self, cfg: &SolverConfig, tracker: &Arc<MemTracker>) -> SparseOptions {
        SparseOptions {
            ordering: cfg.ordering,
            symmetry: if self.symmetric {
                Symmetry::SymmetricLdlt
            } else {
                Symmetry::UnsymmetricLu
            },
            blr_eps: cfg.effective_sparse_eps(),
            tracker: Some(Arc::clone(tracker)),
            panel_nb: cfg.dense_panel_nb,
            tracer: cfg.tracer.clone(),
            trace_seq: None,
        }
    }

    /// Fold one factorization's BLR statistics into the run aggregate.
    fn note_factor_stats(&self, stats: &FactorStats) {
        let mut agg = self.blr.lock().unwrap_or_else(|e| e.into_inner());
        agg.merge(&SparseCompressionSummary {
            eps: 0.0,
            panels_eligible: stats.panels_eligible,
            panels_compressed: stats.compressed_panels,
            dense_bytes: stats.panel_dense_bytes,
            stored_bytes: stats.panel_stored_bytes,
            max_rank: stats.max_panel_rank,
        });
    }
}

/// Record the Schur factorization flops when the backend reports a closed
/// form (the compressed backends report 0 and add no entry, keeping the
/// metric keys stable per backend).
fn add_dense_factor_flops<T: Scalar>(timer: &PhaseTimer, schur: &SchurAcc<T>, symmetric: bool) {
    let f = schur.factor_flops(symmetric);
    if f > 0 {
        timer.add_flops("dense factorization", f);
    }
}

/// The sparse factorization is shared by reference across pipeline workers;
/// it must stay immutable-thread-safe. (Compile-time check.)
#[allow(dead_code)]
fn assert_factorization_shareable<T: Scalar>() {
    fn sharable<X: Send + Sync>() {}
    sharable::<SparseFactorization<T>>();
}

/// Worker threads the solve will use: the explicit knob, or the ambient
/// rayon thread count when the knob is 0.
pub(crate) fn effective_threads(cfg: &SolverConfig) -> usize {
    if cfg.num_threads > 0 {
        cfg.num_threads
    } else {
        rayon::current_num_threads()
    }
    .max(1)
}

/// Concurrent-block cap for the pipelines: the explicit knob, or one block
/// per worker thread.
fn inflight_cap(cfg: &SolverConfig, threads: usize) -> usize {
    if cfg.max_inflight_blocks > 0 {
        cfg.max_inflight_blocks
    } else {
        threads
    }
    .max(1)
}

/// RAII token for the dense layer's global kernel counters: enabled for the
/// duration of a traced solve, with the counter delta emitted as one
/// `kernel_counters` event. The `Drop` impl keeps the global enable count
/// balanced on error paths.
struct KernelCounting(Option<csolve_dense::stats::KernelSnapshot>);

impl KernelCounting {
    fn start(tracer: &Tracer) -> Self {
        if tracer.is_enabled() {
            csolve_dense::stats::enable();
            Self(Some(csolve_dense::stats::snapshot()))
        } else {
            Self(None)
        }
    }

    fn finish(mut self, rt: ScopeTracer<'_>) {
        if let Some(before) = self.0.take() {
            let d = csolve_dense::stats::snapshot().delta(&before);
            csolve_dense::stats::disable();
            rt.event(TraceEventKind::KernelCounters {
                packed_calls: d.packed_calls,
                naive_calls: d.naive_calls,
                matvec_calls: d.matvec_calls,
                flops: d.flops,
                ns: d.ns,
            });
        }
    }
}

impl Drop for KernelCounting {
    fn drop(&mut self) {
        if self.0.take().is_some() {
            csolve_dense::stats::disable();
        }
    }
}

/// Sample the memory tracker into the trace at a deterministic phase
/// boundary (main-thread call sites only, to keep run-scope record order
/// thread-count independent).
fn mem_sample(rt: ScopeTracer<'_>, tracker: &MemTracker) {
    let (live, peak) = tracker.snapshot();
    rt.event(TraceEventKind::MemHighWater { live, peak });
}

/// Solve the coupled system with the chosen algorithm and configuration.
///
/// The one-shot solve is the session layer's factorization followed by a
/// width-1 panel solve on a fresh tracker, so a cached
/// [`SolverSession`](crate::SolverSession) solve is bitwise-identical to it
/// by construction.
///
/// # Examples
///
/// ```
/// use csolve_coupled::{solve, Algorithm, SolverConfig};
///
/// let problem = csolve_fembem::pipe_problem::<f64>(800);
/// let cfg = SolverConfig { eps: 1e-4, ..Default::default() };
/// let out = solve(&problem, Algorithm::MultiSolve, &cfg).unwrap();
/// assert!(problem.relative_error(&out.xv, &out.xs) < 1e-4);
/// ```
///
/// Capacity experiments bound the tracked memory; an infeasible budget is a
/// clean out-of-memory error, not a crash:
///
/// ```
/// use csolve_coupled::{solve, Algorithm, SolverConfig};
///
/// let problem = csolve_fembem::pipe_problem::<f64>(800);
/// let cfg = SolverConfig { mem_budget: Some(10_000), ..Default::default() };
/// let err = solve(&problem, Algorithm::MultiSolve, &cfg).unwrap_err();
/// assert!(err.is_oom());
/// ```
pub fn solve<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
) -> Result<Outcome<T>> {
    cfg.validate()?;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(effective_threads(cfg))
        .build()
        .map_err(|e| Error::InvalidConfig(format!("thread pool construction failed: {e}")))?;
    pool.install(|| {
        let tracker = match cfg.mem_budget {
            Some(b) => MemTracker::with_budget(b),
            None => MemTracker::unbounded(),
        };
        let clock = RunClock::start(cfg);
        let (factors, run) = factor(problem, algo, cfg, &tracker, &clock.timer)?;
        let (xv, xs) = factors.solve_panel(&problem.b_v, &problem.b_s, cfg, &clock.timer)?;
        let metrics = clock.finish(problem, cfg, &tracker, run);
        Ok(Outcome { xv, xs, metrics })
    })
}

/// What each blockwise `*_factors` phase hands back: the reusable sparse and
/// Schur factors, the Schur storage bytes, and the autotune decision.
type FactorsOut<T> = (
    SparseFactorization<T>,
    SchurFactor<T>,
    usize,
    Option<AutotuneDecision>,
);

/// The reusable factorization state behind a solve: either `A_vv` factored
/// on its own plus the factored Schur complement (baseline, multi-solve,
/// multi-factorization — consumed by [`finish_solution_panel`]'s
/// equations), or the stacked-`W` partial factorization of the advanced
/// coupling (consumed by [`condensed_solution`]).
enum FactorState<T: Scalar> {
    Direct {
        fact: SparseFactorization<T>,
        sf: SchurFactor<T>,
    },
    Condensed {
        fact_w: SparseFactorization<T>,
        sf: SchurFactor<T>,
    },
}

/// Everything needed to serve repeated right-hand sides for one factorized
/// coupled matrix, detached from the problem's borrowed data: the factor
/// state, the cluster permutation, and the permuted coupling blocks. The
/// sparse and Schur factors hold their `MemCharge`s, so a cached
/// `SessionFactors` keeps its bytes accounted on the tracker it was
/// factorized against until it is dropped.
pub(crate) struct SessionFactors<T: Scalar> {
    state: FactorState<T>,
    tree: ClusterTree,
    a_sv: Csc<T>,
    a_vs: Csc<T>,
    nv: usize,
    ns: usize,
}

impl<T: Scalar> SessionFactors<T> {
    pub(crate) fn nv(&self) -> usize {
        self.nv
    }

    pub(crate) fn ns(&self) -> usize {
        self.ns
    }

    /// Bytes this entry pins while cached: the factor storage plus the
    /// permuted coupling blocks and the cluster tree. (Used for the LRU
    /// bookkeeping and the `session_evict` events; the authoritative
    /// accounting is the `MemCharge`s the factors hold.)
    pub(crate) fn entry_bytes(&self) -> usize {
        let state = match &self.state {
            FactorState::Direct { fact, sf } | FactorState::Condensed { fact_w: fact, sf } => {
                fact.byte_size() + sf.byte_size()
            }
        };
        state + self.side_bytes()
    }

    /// Bytes of the entry's side structures (the permuted coupling blocks
    /// and the cluster permutation) that are *not* already charged to the
    /// tracker through the factors' own `MemCharge`s. The session charges
    /// these explicitly when it caches the entry.
    pub(crate) fn side_bytes(&self) -> usize {
        self.a_sv.byte_size()
            + self.a_vs.byte_size()
            + self.tree.perm.len() * std::mem::size_of::<usize>()
    }

    /// Solve a `w`-column right-hand-side panel (the solution phase, paper
    /// equations (7)). `b_v` is `nv × w` and `b_s` is `ns × w`, both
    /// column-major in the *original* index order; the returned `(xv, xs)`
    /// panels use the same layout and ordering.
    ///
    /// The whole panel runs under [`csolve_dense::with_colwise_det`], so
    /// column `j` of the result is bitwise-identical to the width-1 panel
    /// a one-shot [`solve`] of that right-hand side runs with the same
    /// configuration and factors — at every thread count.
    pub(crate) fn solve_panel(
        &self,
        b_v: &[T],
        b_s: &[T],
        cfg: &SolverConfig,
        timer: &PhaseTimer,
    ) -> Result<(Vec<T>, Vec<T>)> {
        let (nv, ns) = (self.nv, self.ns);
        if nv == 0 || !b_v.len().is_multiple_of(nv) || b_v.len() / nv * ns != b_s.len() {
            return Err(Error::DimensionMismatch {
                context: "session panel solve",
                expected: (nv, ns),
                got: (b_v.len(), b_s.len()),
            });
        }
        let w = b_v.len() / nv;
        // Surface parts into cluster order, column by column.
        let mut b_s_p = Vec::with_capacity(ns * w);
        for j in 0..w {
            let col = &b_s[j * ns..(j + 1) * ns];
            b_s_p.extend(self.tree.perm.iter().map(|&o| col[o]));
        }
        let (xv, xs_p) = csolve_dense::with_colwise_det(|| match &self.state {
            FactorState::Direct { fact, sf } => {
                finish_solution_panel(b_v, &b_s_p, fact, sf, &self.a_sv, &self.a_vs, cfg, timer)
            }
            FactorState::Condensed { fact_w, sf } => {
                condensed_solution(b_v, &b_s_p, fact_w, sf, nv, ns, cfg, timer)
            }
        })?;
        let mut xs = Vec::with_capacity(ns * w);
        for j in 0..w {
            xs.extend(self.tree.to_original_order(&xs_p[j * ns..(j + 1) * ns]));
        }
        Ok((xv, xs))
    }
}

/// What [`factor`] measures besides the factors themselves: the inputs of
/// the run's [`Metrics`] that only the factorization phase knows.
struct FactorRun {
    schur_bytes: usize,
    autotune: Option<AutotuneDecision>,
    sparse_compression: Option<SparseCompressionSummary>,
}

/// The per-run instruments shared by [`solve`] and [`factorize_session`]:
/// the phase timer, the wall clock, and the kernel-counter window.
struct RunClock {
    timer: PhaseTimer,
    sw: Stopwatch,
    counting: KernelCounting,
}

impl RunClock {
    fn start(cfg: &SolverConfig) -> Self {
        Self {
            timer: PhaseTimer::new(),
            sw: Stopwatch::start(),
            counting: KernelCounting::start(&cfg.tracer),
        }
    }

    /// The shared epilogue: sample the tracker, close the kernel-counter
    /// window, and assemble the run's [`Metrics`].
    fn finish<T: Scalar>(
        self,
        problem: &CoupledProblem<T>,
        cfg: &SolverConfig,
        tracker: &MemTracker,
        run: FactorRun,
    ) -> Metrics {
        let rt = cfg.tracer.run();
        mem_sample(rt, tracker);
        self.counting.finish(rt);
        Metrics {
            phases: self
                .timer
                .phases()
                .into_iter()
                .map(|(n, d)| (n, d.as_secs_f64()))
                .collect(),
            total_seconds: self.sw.elapsed_secs(),
            peak_bytes: tracker.peak(),
            schur_bytes: run.schur_bytes,
            phase_bytes: self.timer.bytes(),
            phase_flops: self.timer.flops(),
            threads: rayon::current_num_threads(),
            n_total: problem.n_total(),
            n_bem: problem.n_bem(),
            n_fem: problem.n_fem(),
            autotune: run.autotune,
            sparse_compression: run.sparse_compression,
        }
    }
}

/// Build the reusable factorization state for a session cache entry: the
/// chosen algorithm's factorization phase without the solution phase, and
/// the [`Metrics`] of that run. Runs on the caller's rayon pool (the session
/// installs its own) and charges everything against `tracker` — including
/// the factor storage, whose charges the returned [`SessionFactors`] keeps
/// holding.
pub(crate) fn factorize_session<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
) -> Result<(SessionFactors<T>, Metrics)> {
    cfg.validate()?;
    let clock = RunClock::start(cfg);
    let (factors, run) = factor(problem, algo, cfg, tracker, &clock.timer)?;
    Ok((factors, clock.finish(problem, cfg, tracker, run)))
}

/// The factorization phase of every algorithm: put the surface unknowns in
/// cluster order once (every blockwise Schur range is then contiguous for
/// both dense and H-matrix backends), run the chosen algorithm up to the
/// factored Schur complement, and detach the factors from the problem.
fn factor<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    timer: &PhaseTimer,
) -> Result<(SessionFactors<T>, FactorRun)> {
    let tree = ClusterTree::build(&problem.bem.points, cfg.hmat_leaf);
    let all_v: Vec<usize> = (0..problem.n_fem()).collect();
    let ws = Ws {
        a_vv: &problem.a_vv,
        a_sv: problem.a_sv.submatrix(&tree.perm, &all_v),
        a_vs: problem.a_vs.submatrix(&all_v, &tree.perm),
        bem: problem.bem.permuted(&tree.perm),
        tree,
        symmetric: problem.symmetric,
        blr: Mutex::new(SparseCompressionSummary::default()),
    };

    let (state, schur_bytes, autotune) = match algo {
        Algorithm::BaselineCoupling => {
            let (fact, sf, sb) = baseline_factors(&ws, cfg, tracker, timer)?;
            (FactorState::Direct { fact, sf }, sb, None)
        }
        Algorithm::AdvancedCoupling => {
            let (fact_w, sf, sb) = advanced_factors(&ws, cfg, tracker, timer)?;
            (FactorState::Condensed { fact_w, sf }, sb, None)
        }
        Algorithm::MultiSolve => {
            let (fact, sf, sb, d) = multi_solve_factors(&ws, cfg, tracker, timer)?;
            (FactorState::Direct { fact, sf }, sb, d)
        }
        Algorithm::MultiFactorization => {
            let (fact, sf, sb, d) = multi_factorization_factors(&ws, cfg, tracker, timer)?;
            (FactorState::Direct { fact, sf }, sb, d)
        }
    };

    // The summary is reported whenever compression was *on*, even if no
    // panel met the size gate (all-zero counts are informative too).
    let sparse_compression = cfg.effective_sparse_eps().map(|eps| {
        let mut s = ws.blr.lock().unwrap_or_else(|e| e.into_inner()).clone();
        s.eps = eps;
        s
    });
    let (nv, ns) = (ws.nv(), ws.ns());
    let Ws {
        a_sv, a_vs, tree, ..
    } = ws;
    Ok((
        SessionFactors {
            state,
            tree,
            a_sv,
            a_vs,
            nv,
            ns,
        },
        FactorRun {
            schur_bytes,
            autotune,
            sparse_compression,
        },
    ))
}

/// The solution phase with `A_vv` and `S` factored (paper equations (7)),
/// on a `w`-column panel: `b_v` (`nv × w`) and `b_s_p` (`ns × w`, cluster
/// order), both column-major. The factor traversals run on the full panel
/// (`solve_in_place` is multi-RHS); the sparse coupling products run per
/// column. The returned surface panel stays in cluster order.
#[allow(clippy::too_many_arguments)]
fn finish_solution_panel<T: Scalar>(
    b_v: &[T],
    b_s_p: &[T],
    fact: &SparseFactorization<T>,
    sf: &SchurFactor<T>,
    a_sv: &Csc<T>,
    a_vs: &Csc<T>,
    cfg: &SolverConfig,
    timer: &PhaseTimer,
) -> Result<(Vec<T>, Vec<T>)> {
    let nv = fact.n();
    let ns = a_sv.nrows;
    let w = b_v.len() / nv.max(1);
    let rt = cfg.tracer.run();
    // T = A_vv⁻¹ B_v
    let mut t = Mat::from_col_major(nv, w, b_v.to_vec());
    rt.time(SpanKind::SparseSolve, || {
        timer.time("sparse solve (rhs)", || fact.solve_in_place(&mut t))
    })?;
    // RHS_s = B_s − A_sv T
    let mut xs = Mat::from_col_major(ns, w, b_s_p.to_vec());
    for j in 0..w {
        a_sv.matvec(-T::ONE, t.col(j), T::ONE, xs.col_mut(j));
    }
    // X_s = S⁻¹ RHS_s
    rt.time(SpanKind::DenseSolve, || {
        timer.time("dense solve", || sf.solve_in_place(xs.as_mut()))
    });
    // Two triangular solves per column on the n_s × n_s factor (backends
    // without a closed-form count report 0 and add no entry).
    let solve_flops = sf.solve_flops(w);
    if solve_flops > 0 {
        timer.add_flops("dense solve", solve_flops);
    }
    // X_v = A_vv⁻¹ (B_v − A_vs X_s)
    let mut bv2 = Mat::from_col_major(nv, w, b_v.to_vec());
    for j in 0..w {
        a_vs.matvec(-T::ONE, xs.col(j), T::ONE, bv2.col_mut(j));
    }
    rt.time(SpanKind::SparseSolve, || {
        timer.time("sparse solve (back)", || fact.solve_in_place(&mut bv2))
    })?;
    Ok((bv2.data().to_vec(), xs.data().to_vec()))
}

/// §II-E — one sparse solve against all of `A_vs` at once. The dense result
/// `Y` (`n_v × n_s`) is the memory bottleneck the paper quantifies at
/// 2.6 TiB for the industrial case. Everything up to (and including) the
/// Schur factorization; the solution phase is [`finish_solution_panel`].
fn baseline_factors<T: Scalar>(
    ws: &Ws<'_, T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    timer: &PhaseTimer,
) -> Result<(SparseFactorization<T>, SchurFactor<T>, usize)> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let rt = cfg.tracer.run();
    let fact = timer.time("sparse factorization", || {
        factorize(ws.a_vv, &ws.sparse_opts(cfg, tracker))
    })?;
    ws.note_factor_stats(fact.stats());
    // The solver works on a permuted copy internally: 2× the dense result.
    let mut y_charge = tracker.charge(
        2 * nv * ns * std::mem::size_of::<T>(),
        "dense Y = A_vv^-1 A_vs",
    )?;
    let y = {
        let mut sp = rt.span(SpanKind::SparseSolve);
        let y = timer.time("sparse solve (Y)", || fact.solve_sparse_rhs(&ws.a_vs))?;
        sp.add_bytes(y.byte_size());
        y
    };
    y_charge.resize(y.byte_size(), "dense Y = A_vv^-1 A_vs")?;
    timer.add_bytes("sparse solve (Y)", y.byte_size());

    let mut schur = rt.time(SpanKind::SchurInit, || {
        timer.time("Schur init (A_ss)", || {
            SchurAcc::init(&ws.bem, &ws.tree, cfg, tracker)
        })
    })?;
    // Z = A_sv·Y, subtracted panel-wise to bound the SpMM temporary.
    let zw = cfg.n_c.max(64).min(ns.max(1));
    let mut c0 = 0;
    while c0 < ns {
        let c1 = (c0 + zw).min(ns);
        let _z_charge = tracker.charge(ns * (c1 - c0) * std::mem::size_of::<T>(), "SpMM panel")?;
        let mut z = Mat::<T>::zeros(ns, c1 - c0);
        let spmm_flops = 2 * ws.a_sv.nnz() as u64 * (c1 - c0) as u64;
        {
            let mut sp = rt.span(SpanKind::Spmm);
            timer.time("SpMM", || {
                ws.a_sv
                    .mul_dense(T::ONE, y.view(0..nv, c0..c1), T::ZERO, z.as_mut())
            });
            sp.add_bytes(z.byte_size());
            sp.add_flops(spmm_flops);
        }
        timer.add_bytes("SpMM", z.byte_size());
        timer.add_flops("SpMM", spmm_flops);
        rt.time(SpanKind::AxpyCommit, || {
            timer.time("Schur assembly", || {
                schur.axpy_block_traced(-T::ONE, 0, c0, z.as_ref(), cfg.eps, rt)
            })
        })?;
        timer.add_bytes("Schur assembly", z.byte_size());
        c0 = c1;
    }
    drop(y);
    drop(y_charge);
    let schur_bytes = schur.bytes();
    timer.add_bytes("dense factorization", schur_bytes);
    add_dense_factor_flops(timer, &schur, ws.symmetric);
    mem_sample(rt, tracker);
    let sf = factor_schur_traced(schur, ws, cfg, timer, rt)?;
    Ok((fact, sf, schur_bytes))
}

/// Shared epilogue of every algorithm: factor the accumulated Schur
/// complement under a `dense_factorization` span (the compressed backend
/// additionally records its `hlu_factor` span inside).
fn factor_schur_traced<T: Scalar>(
    schur: SchurAcc<T>,
    ws: &Ws<'_, T>,
    cfg: &SolverConfig,
    timer: &PhaseTimer,
    rt: ScopeTracer<'_>,
) -> Result<SchurFactor<T>> {
    let mut sp = rt.span(SpanKind::DenseFactorization);
    sp.add_bytes(schur.bytes());
    sp.add_flops(schur.factor_flops(ws.symmetric));
    timer.time("dense factorization", || {
        schur.factor_traced(ws.symmetric, cfg.eps, cfg.dense_panel_nb, rt)
    })
}

/// §II-F — a single factorization+Schur call on the stacked coupled matrix;
/// the full Schur complement is returned as one dense `n_s × n_s` matrix.
/// The stacked-`W` partial factorization and the factored Schur complement
/// are both reusable across solves
/// ([`SparseFactorization::condense_and_solve`] takes `&self`); the
/// solution phase is [`condensed_solution`].
fn advanced_factors<T: Scalar>(
    ws: &Ws<'_, T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    timer: &PhaseTimer,
) -> Result<(SparseFactorization<T>, SchurFactor<T>, usize)> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let n = nv + ns;
    let rt = cfg.tracer.run();
    // W = [A_vv A_vs; A_sv 0]
    let w = {
        let mut sp = rt.span(SpanKind::AssembleW);
        let w = timer.time("assemble W", || stacked_w(ws.a_vv, &ws.a_vs, &ws.a_sv, ns));
        sp.add_bytes(w.byte_size());
        w
    };
    let _w_charge = tracker.charge(w.byte_size(), "stacked W matrix")?;
    timer.add_bytes("assemble W", w.byte_size());
    let schur_vars: Vec<usize> = (nv..n).collect();
    // The dense Schur output of the sparse solver (the API limitation).
    let x_charge = tracker.charge(ns * ns * std::mem::size_of::<T>(), "dense Schur output")?;
    let (fact_w, x) = timer.time("sparse factorization+Schur", || {
        factorize_schur(&w, &schur_vars, &ws.sparse_opts(cfg, tracker))
    })?;
    ws.note_factor_stats(fact_w.stats());
    timer.add_bytes("sparse factorization+Schur", x.byte_size());

    // S = A_ss + X (X already carries the minus sign).
    let mut schur = rt.time(SpanKind::SchurInit, || {
        timer.time("Schur init (A_ss)", || {
            SchurAcc::init(&ws.bem, &ws.tree, cfg, tracker)
        })
    })?;
    rt.time(SpanKind::AxpyCommit, || {
        timer.time("Schur assembly", || {
            schur.axpy_block_traced(T::ONE, 0, 0, x.as_ref(), cfg.eps, rt)
        })
    })?;
    timer.add_bytes("Schur assembly", x.byte_size());
    drop(x);
    drop(x_charge);
    let schur_bytes = schur.bytes();
    timer.add_bytes("dense factorization", schur_bytes);
    add_dense_factor_flops(timer, &schur, ws.symmetric);
    mem_sample(rt, tracker);
    let sf = factor_schur_traced(schur, ws, cfg, timer, rt)?;
    Ok((fact_w, sf, schur_bytes))
}

/// Solution phase of the advanced coupling: one condensation solve through
/// the partial `W` factorization, generalized to a `w`-column panel.
/// `b_v`/`b_s` are column-major (`b_s` already in cluster order); the
/// returned surface part stays in cluster order (the caller unpermutes).
#[allow(clippy::too_many_arguments)]
fn condensed_solution<T: Scalar>(
    b_v: &[T],
    b_s: &[T],
    fact_w: &SparseFactorization<T>,
    sf: &SchurFactor<T>,
    nv: usize,
    ns: usize,
    cfg: &SolverConfig,
    timer: &PhaseTimer,
) -> Result<(Vec<T>, Vec<T>)> {
    let n = nv + ns;
    let w = b_v.len() / nv.max(1);
    let rt = cfg.tracer.run();
    let mut b = Mat::<T>::zeros(n, w);
    for j in 0..w {
        b.col_mut(j)[..nv].copy_from_slice(&b_v[j * nv..(j + 1) * nv]);
        b.col_mut(j)[nv..].copy_from_slice(&b_s[j * ns..(j + 1) * ns]);
    }
    rt.time(SpanKind::CoupledSolve, || {
        timer.time("coupled solve", || {
            fact_w.condense_and_solve(&mut b, |xs_block| {
                sf.solve_in_place(xs_block);
                Ok(())
            })
        })
    })?;
    let mut xv = Vec::with_capacity(nv * w);
    let mut xs = Vec::with_capacity(ns * w);
    for j in 0..w {
        xv.extend_from_slice(&b.col(j)[..nv]);
        xs.extend_from_slice(&b.col(j)[nv..]);
    }
    Ok((xv, xs))
}

/// §IV-A — multi-solve: factor `A_vv` once, then assemble `S` by panels of
/// `n_c` columns through repeated sparse solves (Algorithm 1; with the HMAT
/// backend and `n_S`-wide Schur panels this is the compressed-Schur
/// Algorithm 2).
///
/// The `n_S`-wide Schur panels are independent of each other, so they run as
/// a pipeline: each panel is admitted against the memory budget (reserving
/// its `Z` panel plus the worst-case transient `Y` of one inner sparse
/// solve), computed on whichever worker is free, and committed into `S` in
/// panel order — the same fold order as the sequential loop, hence the same
/// bits in the compressed accumulator.
fn multi_solve_factors<T: Scalar>(
    ws: &Ws<'_, T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    timer: &PhaseTimer,
) -> Result<FactorsOut<T>> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let elem = std::mem::size_of::<T>();
    let rt = cfg.tracer.run();
    let fact = timer.time("sparse factorization", || {
        factorize(ws.a_vv, &ws.sparse_opts(cfg, tracker))
    })?;
    ws.note_factor_stats(fact.stats());
    let schur = rt.time(SpanKind::SchurInit, || {
        timer.time("Schur init (A_ss)", || {
            SchurAcc::init(&ws.bem, &ws.tree, cfg, tracker)
        })
    })?;

    // SPIDO subtracts every n_c panel straight into dense S; HMAT buffers
    // n_S columns per compressed AXPY (the separate n_S ≥ n_c parameter of
    // Algorithm 2). Under `BlockSizes::Auto` the autotuner shrinks that
    // blocking until one panel's working set fits the budget headroom —
    // decided here, at a sequential point after the sparse factors and `S`
    // are resident, from thread-count-invariant inputs only (see
    // [`crate::autotune`]): the selection, like the arithmetic, is
    // identical for every thread count.
    let stats = MatrixStats {
        nv,
        ns,
        nnz_avv: ws.a_vv.nnz(),
        nnz_asv: ws.a_sv.nnz(),
        nnz_avs: ws.a_vs.nnz(),
        elem,
    };
    let decision = match cfg.block_sizes {
        BlockSizes::Auto => Some(autotune::plan_multi_solve(&stats, cfg, tracker)?),
        _ => None,
    };
    let (n_c, n_s) = match &decision {
        Some(d) => {
            rt.event(TraceEventKind::AutotuneSelect {
                n_c: d.n_c,
                n_s: d.n_s,
                n_b: 0,
                predicted_bytes: d.predicted_peak,
            });
            if d.degraded {
                rt.event(TraceEventKind::BudgetDegrade { cap: d.n_s });
            }
            (d.n_c, d.n_s)
        }
        None => autotune::fixed_multi_solve_blocking(cfg),
    };
    let all_v: Vec<usize> = (0..nv).collect();

    let panels: Vec<(usize, usize, usize)> = (0..ns.div_ceil(n_s.max(1)))
        .map(|i| (i, i * n_s, ((i + 1) * n_s).min(ns)))
        .collect();

    let threads = rayon::current_num_threads();
    let mut inflight = inflight_cap(cfg, threads);
    if decision.is_some() {
        // Model-informed concurrency: admit no more panels than the
        // measured headroom holds. The scheduler would discover the same
        // bound by failed admissions and degrade; starting at the model's
        // cap skips that churn. Scheduling-only — commit order (and thus
        // the result) is unaffected.
        let per = autotune::multi_solve_panel_bytes(&stats, n_c, n_s).max(1);
        let headroom = tracker.budget().saturating_sub(tracker.live());
        inflight = inflight.min((headroom / per).max(1));
    }
    let sched = BudgetScheduler::new(Arc::clone(tracker), inflight).with_tracer(cfg.tracer.clone());
    let commit = OrderedCommit::new(schur).with_tracer(cfg.tracer.clone());
    let (fact_r, sched_r, commit_r) = (&fact, &sched, &commit);
    let panels_r = &panels;

    // Lookahead task-DAG dispatch: a panel's compute (admission + sparse
    // solves + SpMM) and its ordered commit are separate DAG nodes, so the
    // next panel's compute overlaps the previous panel's Schur commit. The
    // lookahead distance mirrors the in-flight cap (same memory bound).
    let dag = TaskDag::pipeline(panels.len(), inflight).with_tracer(cfg.tracer.clone());
    let dag_compute = |seq: usize| {
        let (_, p0, p1) = panels_r[seq];
        let w = p1 - p0;
        // Worst-case working set of this panel: its Z panel plus one inner
        // sparse solve's Y (the solver uses a permuted internal copy: 2×).
        let reserve = (ns * w + 2 * nv * n_c.min(w)) * elem;
        let mut adm = match sched_r.admit(seq, reserve, "Schur panel Z + Y workspace") {
            Ok(a) => a,
            Err(e) => {
                fail(sched_r, commit_r, &e);
                return None;
            }
        };
        let bt = cfg.tracer.block(seq);

        let compute = || -> Result<Mat<T>> {
            let mut zpanel = Mat::<T>::zeros(ns, w);
            let mut c0 = p0;
            while c0 < p1 {
                let c1 = (c0 + n_c).min(p1);
                // Columns c0..c1 of A_vs as a sparse RHS.
                let cols: Vec<usize> = (c0..c1).collect();
                let rhs = ws.a_vs.submatrix(&all_v, &cols);
                let y = {
                    let mut sp = bt.span(SpanKind::SparseSolve);
                    let y = timer.time("sparse solve (Y)", || fact_r.solve_sparse_rhs(&rhs))?;
                    sp.add_bytes(y.byte_size());
                    y
                };
                timer.add_bytes("sparse solve (Y)", y.byte_size());
                let spmm_flops = 2 * ws.a_sv.nnz() as u64 * (c1 - c0) as u64;
                {
                    let mut sp = bt.span(SpanKind::Spmm);
                    timer.time("SpMM", || {
                        ws.a_sv.mul_dense(
                            T::ONE,
                            y.as_ref(),
                            T::ZERO,
                            zpanel.view_mut(0..ns, (c0 - p0)..(c1 - p0)),
                        )
                    });
                    sp.add_flops(spmm_flops);
                }
                timer.add_flops("SpMM", spmm_flops);
                c0 = c1;
            }
            timer.add_bytes("SpMM", zpanel.byte_size());
            #[cfg(feature = "fault-inject")]
            crate::fault::maybe_poison_panel(&mut zpanel);
            Ok(zpanel)
        };
        let zpanel = match compute() {
            Ok(z) => z,
            Err(e) => {
                fail(sched_r, commit_r, &e);
                return None;
            }
        };
        // The Y workspace is gone; hand off with only the Z panel reserved.
        if let Err(e) = adm.resize(zpanel.byte_size(), "Schur panel Z") {
            fail(sched_r, commit_r, &e);
            return None;
        }
        adm.begin_commit();
        Some((adm, zpanel))
    };
    let dag_commit = |seq: usize, (adm, zpanel): (Admission<'_>, Mat<T>)| {
        let (_, p0, _) = panels_r[seq];
        let bt = cfg.tracer.block(seq);
        let committed = commit_r.commit(seq, |schur| {
            bt.time(SpanKind::AxpyCommit, || {
                timer.time("Schur assembly", || {
                    schur.axpy_block_traced(-T::ONE, 0, p0, zpanel.as_ref(), cfg.eps, bt)
                })
            })
        });
        match committed {
            Ok(()) => timer.add_bytes("Schur assembly", zpanel.byte_size()),
            Err(e) => sched_r.poison(&e),
        }
        drop(adm);
    };
    dag.execute(threads, dag_compute, dag_commit);

    let schur = commit.into_result()?;
    let schur_bytes = schur.bytes();
    timer.add_bytes("dense factorization", schur_bytes);
    add_dense_factor_flops(timer, &schur, ws.symmetric);
    mem_sample(rt, tracker);
    let sf = factor_schur_traced(schur, ws, cfg, timer, rt)?;
    Ok((fact, sf, schur_bytes, decision))
}

/// §IV-B — multi-factorization: `n_b × n_b` factorization+Schur calls on
/// stacked `W = [A_vv A_vs|_j ; A_sv|_i 0]` submatrices (Algorithm 3; the
/// HMAT backend compresses each returned block immediately — the
/// compressed-Schur variant).
///
/// `W` is unsymmetric (paper: "except when i = j"), so the unsymmetric
/// solver mode is used throughout, with its duplicated storage — the very
/// overhead the paper identifies as multi-factorization's memory weakness.
///
/// Tiles run as a pipeline like the multi-solve panels. One wrinkle: the
/// sparse solver charges its internal factorization memory directly against
/// the tracker, so a tile can hit an out-of-memory error *mid-compute* that
/// only exists because other tiles are in flight. Such a tile releases its
/// reservation, waits for concurrent tiles to free memory, and retries —
/// propagating the error only when no concurrent work is left to wait for
/// (i.e. when the sequential algorithm would have failed too).
///
/// After the tile pipeline and the Schur factorization comes a final plain
/// factorization of `A_vv` for the solution phase — the per-tile `W`
/// factorizations are not reusable through the solver API.
fn multi_factorization_factors<T: Scalar>(
    ws: &Ws<'_, T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    timer: &PhaseTimer,
) -> Result<FactorsOut<T>> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let elem = std::mem::size_of::<T>();
    let rt = cfg.tracer.run();
    let schur = rt.time(SpanKind::SchurInit, || {
        timer.time("Schur init (A_ss)", || {
            SchurAcc::init(&ws.bem, &ws.tree, cfg, tracker)
        })
    })?;

    // Under `BlockSizes::Auto` the autotuner grows the tile grid (shrinks
    // the tiles) until one stacked-W working set fits the budget headroom —
    // same deterministic selection point and inputs as in `multi_solve`.
    let stats = MatrixStats {
        nv,
        ns,
        nnz_avv: ws.a_vv.nnz(),
        nnz_asv: ws.a_sv.nnz(),
        nnz_avs: ws.a_vs.nnz(),
        elem,
    };
    let decision = match cfg.block_sizes {
        BlockSizes::Auto => Some(autotune::plan_multi_factorization(
            &stats,
            cfg,
            tracker,
            |n_b| tile_internal_bytes(ws, cfg, n_b),
        )?),
        _ => None,
    };
    let n_b = match &decision {
        Some(d) => {
            rt.event(TraceEventKind::AutotuneSelect {
                n_c: 0,
                n_s: 0,
                n_b: d.n_b,
                predicted_bytes: d.predicted_peak,
            });
            if d.degraded {
                rt.event(TraceEventKind::BudgetDegrade { cap: d.n_b });
            }
            d.n_b
        }
        None => cfg.n_b.clamp(1, ns.max(1)),
    };
    let blk = ns.div_ceil(n_b);
    let ranges: Vec<std::ops::Range<usize>> = (0..n_b)
        .map(|b| (b * blk)..((b + 1) * blk).min(ns))
        .filter(|r| !r.is_empty())
        .collect();
    let all_v: Vec<usize> = (0..nv).collect();

    let w_opts = SparseOptions {
        symmetry: Symmetry::UnsymmetricLu,
        ..ws.sparse_opts(cfg, tracker)
    };

    let tiles: Vec<(usize, std::ops::Range<usize>, std::ops::Range<usize>)> = ranges
        .iter()
        .flat_map(|ri| ranges.iter().map(move |rj| (ri.clone(), rj.clone())))
        .enumerate()
        .map(|(seq, (ri, rj))| (seq, ri, rj))
        .collect();

    let threads = rayon::current_num_threads();
    let mut inflight = inflight_cap(cfg, threads);
    if decision.is_some() {
        // Same model-informed concurrency cap as in `multi_solve`:
        // scheduling-only, no numeric effect.
        let per = autotune::multi_fact_tile_bytes(&stats, n_b).max(1);
        let headroom = tracker.budget().saturating_sub(tracker.live());
        inflight = inflight.min((headroom / per).max(1));
    }
    let sched = BudgetScheduler::new(Arc::clone(tracker), inflight).with_tracer(cfg.tracer.clone());
    let commit = OrderedCommit::new(schur).with_tracer(cfg.tracer.clone());
    let (sched_r, commit_r, w_opts_r) = (&sched, &commit, &w_opts);
    let tiles_r = &tiles;

    // Same lookahead task-DAG dispatch as `multi_solve`: tile factorization
    // overlaps the previous tile's ordered Schur commit.
    let dag = TaskDag::pipeline(tiles.len(), inflight).with_tracer(cfg.tracer.clone());
    let dag_compute = |seq: usize| {
        let (_, ri, rj) = &tiles_r[seq];
        let rows: Vec<usize> = ri.clone().collect();
        let cols: Vec<usize> = rj.clone().collect();
        let a_sv_i = ws.a_sv.submatrix(&rows, &all_v);
        let a_vs_j = ws.a_vs.submatrix(&all_v, &cols);
        let m = rows.len().max(cols.len());
        // Reservation: the stacked W (values + row indices + column
        // pointers) and the dense Schur output X_ij.
        let nnz = ws.a_vv.nnz() + a_sv_i.nnz() + a_vs_j.nnz();
        let w_bytes = nnz * (elem + std::mem::size_of::<usize>())
            + (nv + m + 1) * std::mem::size_of::<usize>();
        let reserve = w_bytes + m * m * elem;
        let mut adm: Option<Admission<'_>> =
            match sched_r.admit(seq, reserve, "stacked W + Schur block X_ij") {
                Ok(a) => Some(a),
                Err(e) => {
                    fail(sched_r, commit_r, &e);
                    return None;
                }
            };
        let bt = cfg.tracer.block(seq);
        // The sparse solver's internal spans land in this tile's block scope.
        let tile_opts = SparseOptions {
            trace_seq: Some(seq),
            ..w_opts_r.clone()
        };

        let compute = || -> Result<Mat<T>> {
            // Stacked square W (padded when the edge blocks differ in size).
            let w = {
                let mut sp = bt.span(SpanKind::AssembleW);
                let w = timer.time("assemble W", || stacked_w(ws.a_vv, &a_vs_j, &a_sv_i, m));
                sp.add_bytes(w.byte_size());
                w
            };
            timer.add_bytes("assemble W", w.byte_size());
            let schur_vars: Vec<usize> = (nv..nv + m).collect();
            // Each call re-factorizes A_vv — the superfluous work the method
            // trades for memory (hence its name).
            let (fact_w, x) = timer.time("sparse factorization+Schur", || {
                factorize_schur(&w, &schur_vars, &tile_opts)
            })?;
            ws.note_factor_stats(fact_w.stats());
            drop(fact_w);
            timer.add_bytes("sparse factorization+Schur", x.byte_size());
            #[cfg(feature = "fault-inject")]
            let x = {
                let mut x = x;
                crate::fault::maybe_poison_panel(&mut x);
                x
            };
            Ok(x)
        };

        // Compute with a retry loop around transient (concurrency-induced)
        // out-of-memory failures from the sparse solver's internal charges.
        let mut stalled_retry_done = false;
        let x = loop {
            match compute() {
                Ok(x) => break x,
                Err(e) if e.is_oom() => {
                    // Free our reservation so concurrent tiles can finish,
                    // then wait for memory to come back.
                    drop(adm.take());
                    let stalled = sched_r.wait_for_progress(sched_r.epoch());
                    if stalled && stalled_retry_done {
                        fail(sched_r, commit_r, &e);
                        return None;
                    }
                    stalled_retry_done = stalled;
                    match sched_r.readmit(reserve, "stacked W + Schur block X_ij") {
                        Ok(a) => adm = Some(a),
                        Err(e) => {
                            fail(sched_r, commit_r, &e);
                            return None;
                        }
                    }
                }
                Err(e) => {
                    fail(sched_r, commit_r, &e);
                    return None;
                }
            }
        };

        let Some(mut adm) = adm.take() else {
            // Unreachable by construction (every loop exit either breaks
            // with an admission held or returns), but a worker thread must
            // never panic: drain the pipeline with a structured error.
            let e = Error::Internal {
                context: "multi-factorization retry lost its admission",
            };
            fail(sched_r, commit_r, &e);
            return None;
        };
        // W is freed; hand off with only the Schur block reserved.
        if let Err(e) = adm.resize(x.byte_size(), "dense Schur block X_ij") {
            fail(sched_r, commit_r, &e);
            return None;
        }
        adm.begin_commit();
        Some((adm, x))
    };
    let dag_commit = |seq: usize, (adm, x): (Admission<'_>, Mat<T>)| {
        let (_, ri, rj) = &tiles_r[seq];
        let (rows, cols) = (ri.len(), rj.len());
        let bt = cfg.tracer.block(seq);
        let committed = commit_r.commit(seq, |schur| {
            bt.time(SpanKind::AxpyCommit, || {
                timer.time("Schur assembly", || {
                    schur.axpy_block_traced(
                        T::ONE,
                        ri.start,
                        rj.start,
                        x.view(0..rows, 0..cols),
                        cfg.eps,
                        bt,
                    )
                })
            })
        });
        match committed {
            Ok(()) => timer.add_bytes("Schur assembly", rows * cols * elem),
            Err(e) => sched_r.poison(&e),
        }
        drop(adm);
    };
    dag.execute(threads, dag_compute, dag_commit);

    let schur = commit.into_result()?;
    let schur_bytes = schur.bytes();
    timer.add_bytes("dense factorization", schur_bytes);
    add_dense_factor_flops(timer, &schur, ws.symmetric);
    mem_sample(rt, tracker);
    let sf = factor_schur_traced(schur, ws, cfg, timer, rt)?;
    // A final plain factorization of A_vv for the solution phase (the W
    // factorizations are not reusable through the solver API).
    let fact = timer.time("sparse factorization", || {
        factorize(ws.a_vv, &ws.sparse_opts(cfg, tracker))
    })?;
    ws.note_factor_stats(fact.stats());
    Ok((fact, sf, schur_bytes, decision))
}

/// Predicted solver-internal tracked bytes (fronts, contribution blocks,
/// factor panels, dense Schur output) of one multi-factorization tile at
/// grid size `n_b`: a symbolic analysis of the representative corner tile's
/// stacked `W` pattern, replayed with the numeric phase's exact charge
/// schedule. Purely structural (no numeric work) and deterministic — safe
/// to consult from the autotuner's selection point.
fn tile_internal_bytes<T: Scalar>(ws: &Ws<'_, T>, cfg: &SolverConfig, n_b: usize) -> Result<usize> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let m = ns.div_ceil(n_b.max(1)).min(ns);
    let rows: Vec<usize> = (0..m).collect();
    let all_v: Vec<usize> = (0..nv).collect();
    let a_sv_0 = ws.a_sv.submatrix(&rows, &all_v);
    let a_vs_0 = ws.a_vs.submatrix(&all_v, &rows);
    let w = stacked_w(ws.a_vv, &a_vs_0, &a_sv_0, m);
    let schur_vars: Vec<usize> = (nv..nv + m).collect();
    let sym = SymbolicFactorization::analyze(&w, &schur_vars, cfg.ordering)?;
    // W is factored in the unsymmetric (LU) mode regardless of the coupled
    // system's symmetry (the stacked tile is unsymmetric except on the
    // diagonal). With sparse compression on, factor panels are priced by
    // the BLR rank-profile model instead of dense storage (still an upper
    // bound via the dense cap per panel, never below the elimination-front
    // peak).
    let elem = std::mem::size_of::<T>();
    Ok(if cfg.effective_sparse_eps().is_some() {
        sym.predicted_numeric_peak_bytes_blr(elem, true)
    } else {
        sym.predicted_numeric_peak_bytes(elem, true)
    })
}

/// Record `e` as the pipeline's error in both primitives so every blocked
/// worker drains promptly (first error wins).
fn fail<S>(sched: &BudgetScheduler, commit: &OrderedCommit<S>, e: &Error) {
    sched.poison(e);
    commit.abort(e);
}

/// The stacked coupled matrix `W = [A_vv A_vs|_j ; A_sv|_i 0]` of order
/// `nv + m`, where `A_vs|_j` has at most `m` columns and `A_sv|_i` at most
/// `m` rows (zero-padded when the edge blocks of a tile differ in size).
fn stacked_w<T: Scalar>(a_vv: &Csc<T>, a_vs_j: &Csc<T>, a_sv_i: &Csc<T>, m: usize) -> Csc<T> {
    let n = a_vv.nrows + m;
    let mut coo = Coo::with_capacity(n, n, a_vv.nnz() + a_vs_j.nnz() + a_sv_i.nnz());
    for (a, r0, c0) in [
        (a_vv, 0, 0),
        (a_vs_j, 0, a_vv.nrows),
        (a_sv_i, a_vv.nrows, 0),
    ] {
        for j in 0..a.ncols {
            for p in a.colptr[j]..a.colptr[j + 1] {
                coo.push(r0 + a.rowidx[p], c0 + j, a.values[p]);
            }
        }
    }
    coo.to_csc()
}
