//! Outside-in replay of the solver's work through each layer's public API.
//!
//! The traced run re-executes a workload's algorithm call by call — cluster
//! ordering (`csolve::hmat`), sparse factorization and solves
//! (`csolve::sparse`), Schur accumulation and factorization
//! (`csolve::solver::SchurAcc`) — in the order and with the arguments the
//! driver uses, recording a span around every call. The pipelined driver
//! folds blocks in a fixed order, so this sequential replay must reproduce
//! `csolve::solve` (and the session's panel solves) bit for bit; the traced
//! run checks that it does.

use std::ops::Range;
use std::sync::Arc;

use csolve::common::MemTracker;
use csolve::dense::Mat;
use csolve::fembem::{BemOperator, CoupledProblem};
use csolve::hmat::ClusterTree;
use csolve::solver::schur::{SchurAcc, SchurFactor};
use csolve::sparse::{
    factorize, factorize_schur, Coo, Csc, FactorStats, SparseFactorization, SparseOptions, Symmetry,
};
use csolve::{Result, Scalar, SolverConfig, Tracer};

use crate::spans::Recorder;

/// The problem with its surface unknowns in cluster order.
pub struct Permuted<T: Scalar> {
    tree: ClusterTree,
    a_sv: Csc<T>,
    a_vs: Csc<T>,
    bem: BemOperator<T>,
}

/// The reusable factors of one coupled matrix.
pub struct Factors<T: Scalar> {
    ws: Permuted<T>,
    fact: SparseFactorization<T>,
    sf: SchurFactor<T>,
}

/// Cluster ordering and the surface permutation of the coupling blocks.
fn permute<T: Scalar>(
    rec: &mut Recorder,
    p: &CoupledProblem<T>,
    cfg: &SolverConfig,
) -> Permuted<T> {
    rec.time("hmat.cluster", || {
        let tree = ClusterTree::build(&p.bem.points, cfg.hmat_leaf);
        let all_v: Vec<usize> = (0..p.n_fem()).collect();
        let a_sv = p.a_sv.submatrix(&tree.perm, &all_v);
        let a_vs = p.a_vs.submatrix(&all_v, &tree.perm);
        let bem = p.bem.permuted(&tree.perm);
        Permuted {
            tree,
            a_sv,
            a_vs,
            bem,
        }
    })
}

fn sparse_opts(cfg: &SolverConfig, symmetry: Symmetry, tracker: &Arc<MemTracker>) -> SparseOptions {
    SparseOptions {
        ordering: cfg.ordering,
        symmetry,
        blr_eps: cfg.effective_sparse_eps(),
        tracker: Some(Arc::clone(tracker)),
        panel_nb: cfg.dense_panel_nb,
        tracer: Tracer::disabled(),
        trace_seq: None,
    }
}

fn symmetry<T: Scalar>(p: &CoupledProblem<T>) -> Symmetry {
    if p.symmetric {
        Symmetry::SymmetricLdlt
    } else {
        Symmetry::UnsymmetricLu
    }
}

/// Work counters of one sparse factorization.
fn note_factor(rec: &mut Recorder, layer: &str, stats: &FactorStats) {
    rec.add(&format!("{layer}.flops"), stats.flops);
    rec.add("blr.stored_bytes", stats.panel_stored_bytes as f64);
    rec.add("blr.dense_bytes", stats.panel_dense_bytes as f64);
}

/// Multi-solve factorization: `A_vv`, then the Schur complement assembled
/// by `n_s`-column panels of `n_c`-column sparse solves, then its factor.
pub fn multi_solve<T: Scalar>(
    rec: &mut Recorder,
    p: &CoupledProblem<T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    (n_c, n_s): (usize, usize),
) -> Result<Factors<T>> {
    let ws = permute(rec, p, cfg);
    let (nv, ns) = (p.n_fem(), p.n_bem());
    let fact = factor_volume(rec, p, cfg, tracker)?;
    let mut schur = rec.time("schur.init", || {
        SchurAcc::init(&ws.bem, &ws.tree, cfg, tracker)
    })?;
    let all_v: Vec<usize> = (0..nv).collect();
    let spmm_flops = 2.0 * ws.a_sv.nnz() as f64;
    for p0 in (0..ns).step_by(n_s.max(1)) {
        let p1 = (p0 + n_s).min(ns);
        let mut zpanel = Mat::<T>::zeros(ns, p1 - p0);
        for c0 in (p0..p1).step_by(n_c.max(1)) {
            let c1 = (c0 + n_c).min(p1);
            let y = rec.time("sparse.solve_rhs", || {
                let cols: Vec<usize> = (c0..c1).collect();
                fact.solve_sparse_rhs(&ws.a_vs.submatrix(&all_v, &cols))
            })?;
            rec.time("sparse.spmm", || {
                ws.a_sv.mul_dense(
                    T::ONE,
                    y.as_ref(),
                    T::ZERO,
                    zpanel.view_mut(0..ns, (c0 - p0)..(c1 - p0)),
                )
            });
            rec.add("sparse.spmm.flops", spmm_flops * (c1 - c0) as f64);
        }
        rec.time("schur.axpy", || {
            schur.axpy_block(-T::ONE, 0, p0, zpanel.as_ref(), cfg.eps)
        })?;
    }
    let sf = factor_schur(rec, p, cfg, schur)?;
    Ok(Factors { ws, fact, sf })
}

/// Multi-factorization: one factorization+Schur call per `W` tile of an
/// `n_b × n_b` grid, then the Schur factor and a plain factorization of
/// `A_vv` for the solution phase.
pub fn multi_factorization<T: Scalar>(
    rec: &mut Recorder,
    p: &CoupledProblem<T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
) -> Result<Factors<T>> {
    let ws = permute(rec, p, cfg);
    let (nv, ns) = (p.n_fem(), p.n_bem());
    let mut schur = rec.time("schur.init", || {
        SchurAcc::init(&ws.bem, &ws.tree, cfg, tracker)
    })?;
    let n_b = cfg.n_b.clamp(1, ns.max(1));
    let blk = ns.div_ceil(n_b);
    let ranges: Vec<Range<usize>> = (0..n_b)
        .map(|b| (b * blk)..((b + 1) * blk).min(ns))
        .filter(|r| !r.is_empty())
        .collect();
    let all_v: Vec<usize> = (0..nv).collect();
    let w_opts = sparse_opts(cfg, Symmetry::UnsymmetricLu, tracker);
    for ri in &ranges {
        for rj in &ranges {
            let m = ri.len().max(rj.len());
            let w = rec.time("sparse.assemble_w", || {
                let rows: Vec<usize> = ri.clone().collect();
                let cols: Vec<usize> = rj.clone().collect();
                let a_sv_i = ws.a_sv.submatrix(&rows, &all_v);
                let a_vs_j = ws.a_vs.submatrix(&all_v, &cols);
                let nnz = p.a_vv.nnz() + a_sv_i.nnz() + a_vs_j.nnz();
                let mut coo = Coo::with_capacity(nv + m, nv + m, nnz);
                push_csc(&mut coo, &p.a_vv, 0, 0);
                push_csc(&mut coo, &a_vs_j, 0, nv);
                push_csc(&mut coo, &a_sv_i, nv, 0);
                coo.to_csc()
            });
            let schur_vars: Vec<usize> = (nv..nv + m).collect();
            let (stats, x) = rec.time("sparse.factor_schur", || {
                factorize_schur(&w, &schur_vars, &w_opts).map(|(f, x)| (*f.stats(), x))
            })?;
            note_factor(rec, "sparse.factor_schur", &stats);
            rec.time("schur.axpy", || {
                schur.axpy_block(
                    T::ONE,
                    ri.start,
                    rj.start,
                    x.view(0..ri.len(), 0..rj.len()),
                    cfg.eps,
                )
            })?;
        }
    }
    let sf = factor_schur(rec, p, cfg, schur)?;
    // The W factorizations are not reusable for the solution phase: the
    // driver ends with a plain factorization of A_vv.
    let fact = factor_volume(rec, p, cfg, tracker)?;
    Ok(Factors { ws, fact, sf })
}

/// Factor `A_vv` on its own.
fn factor_volume<T: Scalar>(
    rec: &mut Recorder,
    p: &CoupledProblem<T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
) -> Result<SparseFactorization<T>> {
    let fact = rec.time("sparse.factor", || {
        factorize(&p.a_vv, &sparse_opts(cfg, symmetry(p), tracker))
    })?;
    note_factor(rec, "sparse.factor", fact.stats());
    Ok(fact)
}

/// Factor the assembled Schur complement.
fn factor_schur<T: Scalar>(
    rec: &mut Recorder,
    p: &CoupledProblem<T>,
    cfg: &SolverConfig,
    schur: SchurAcc<T>,
) -> Result<SchurFactor<T>> {
    rec.add("schur.bytes", schur.bytes() as f64);
    rec.time("schur.factor", || {
        schur.factor(p.symmetric, cfg.eps, cfg.dense_panel_nb)
    })
}

/// Solve a `w`-column right-hand-side panel (`b_v` is `n_v × w`, `b_s` is
/// `n_s × w`, column-major, original ordering) with the factors, as the
/// driver's solution phase does. `colwise` runs it in the dense layer's
/// column-deterministic mode, as the session's batched solves do.
pub fn solve_panel<T: Scalar>(
    rec: &mut Recorder,
    f: &Factors<T>,
    b_v: &[T],
    b_s: &[T],
    colwise: bool,
) -> Result<(Vec<T>, Vec<T>)> {
    if colwise {
        csolve::dense::with_colwise_det(|| panel(rec, f, b_v, b_s))
    } else {
        panel(rec, f, b_v, b_s)
    }
}

fn panel<T: Scalar>(
    rec: &mut Recorder,
    f: &Factors<T>,
    b_v: &[T],
    b_s: &[T],
) -> Result<(Vec<T>, Vec<T>)> {
    let (nv, ns) = (f.fact.n(), f.ws.a_sv.nrows);
    let w = b_v.len() / nv;
    rec.add("rhs", w as f64);
    let perm = &f.ws.tree.perm;
    let b_s_p: Vec<T> = rec.time("hmat.cluster", || {
        b_s.chunks(ns)
            .flat_map(|col| perm.iter().map(move |&o| col[o]))
            .collect()
    });
    // T = A_vv⁻¹ B_v
    let mut t = Mat::from_col_major(nv, w, b_v.to_vec());
    rec.time("sparse.solve_panel", || f.fact.solve_in_place(&mut t))?;
    // RHS_s = B_s − A_sv T
    let mut xs = Mat::from_col_major(ns, w, b_s_p);
    rec.time("sparse.matvec", || {
        for j in 0..w {
            let mut rhs_s = xs.col(j).to_vec();
            f.ws.a_sv.matvec(-T::ONE, t.col(j), T::ONE, &mut rhs_s);
            xs.col_mut(j).copy_from_slice(&rhs_s);
        }
    });
    // X_s = S⁻¹ RHS_s
    rec.time("schur.solve", || f.sf.solve_in_place(xs.as_mut()));
    // X_v = A_vv⁻¹ (B_v − A_vs X_s)
    let mut bv2 = Mat::from_col_major(nv, w, b_v.to_vec());
    rec.time("sparse.matvec", || {
        for j in 0..w {
            let x = xs.col(j).to_vec();
            let mut tmp = bv2.col_mut(j).to_vec();
            f.ws.a_vs.matvec(-T::ONE, &x, T::ONE, &mut tmp);
            bv2.col_mut(j).copy_from_slice(&tmp);
        }
    });
    rec.time("sparse.solve_panel", || f.fact.solve_in_place(&mut bv2))?;
    let xs_orig = rec.time("hmat.cluster", || {
        (0..w)
            .flat_map(|j| f.ws.tree.to_original_order(xs.col(j)))
            .collect()
    });
    Ok((bv2.data().to_vec(), xs_orig))
}

/// Append a CSC block into a COO builder at offset `(r0, c0)`.
fn push_csc<T: Scalar>(coo: &mut Coo<T>, a: &Csc<T>, r0: usize, c0: usize) {
    for j in 0..a.ncols {
        for p in a.colptr[j]..a.colptr[j + 1] {
            coo.push(r0 + a.rowidx[p], c0 + j, a.values[p]);
        }
    }
}
