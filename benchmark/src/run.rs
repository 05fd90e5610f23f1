//! One benchmark run: set-up, then either the timed end-to-end loop
//! (tracing off) or the traced run (reference solves plus the layer
//! replay).

use std::sync::Arc;
use std::time::Instant;

use csolve::common::MemTracker;
use csolve::dense::{Mat, Op};
use csolve::solver::autotune::fixed_multi_solve_blocking;
use csolve::{
    Metrics, Scalar, SessionBuilder, SessionStats, SolverConfig, SpanKind, TracePayload, Tracer,
    C64,
};

use crate::check::Checker;
use crate::inputs::{Inputs, Kind, Rng, Spec, THREADS};
use crate::metrics::{mib, Values, DENSE_LAYERS, PEAK_LAYERS};
use crate::replay::{self, Factors};
use crate::spans::Recorder;
use crate::stats::{harrell_davis, median, quantile};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, and more while they take under `SETUP_SECONDS` in
/// total, so that a set-up of a few tens of milliseconds is still timed
/// steadily. The timed runs repeat as many set-ups after their loop, so the
/// median spans the run rather than one moment of the host's speed.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Sample count behind each median or percentile.
    pub samples: Vec<(&'static str, usize)>,
    pub gemm_peak_gflops: f64,
    pub max_rel_err: f64,
    /// The traced run's spans as JSON lines.
    pub spans_jsonl: Option<String>,
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Outcome {
    match spec.kind {
        Kind::PipeMsBudget => run_typed::<f64>(spec, seed, seconds, trace, smoke),
        Kind::AircraftMf | Kind::AircraftSweep => {
            run_typed::<C64>(spec, seed, seconds, trace, smoke)
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn run_typed<T: Scalar>(spec: &Spec, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Outcome {
    // The dense kernels calibrate their cache blocking once per process, on
    // first use; users pay that once, so it stays out of every timing.
    let _ = csolve::dense::kernel_blocking(std::mem::size_of::<T>());
    let mut setup = Vec::new();
    let mut inputs = None;
    while setup.len() < SETUP_MAX_REPS
        && (setup.len() < SETUP_MIN_REPS || setup.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let t = Instant::now();
        inputs = Some(std::hint::black_box(Inputs::<T>::build(spec, seed)));
        setup.push(secs(t));
        if smoke {
            break;
        }
    }
    let inputs = inputs.expect("at least one set-up");
    let mut chk = Checker::new(spec.name, seed, spec.tol);
    let mut values = Values::new();
    let mut samples = vec![];
    let mut spans_jsonl = None;
    if trace {
        values.insert("fembem.build_s".into(), median(&setup));
        spans_jsonl = Some(traced(spec, &inputs, &mut chk, &mut values));
    } else {
        let ops = spec.ops(seconds, smoke);
        match spec.kind {
            Kind::AircraftSweep => sweep(spec, &inputs, ops, &mut chk, &mut values, &mut samples),
            _ => one_shot(spec, &inputs, ops, &mut chk, &mut values, &mut samples),
        }
        for _ in 0..setup.len() {
            let t = Instant::now();
            std::hint::black_box(Inputs::<T>::build(spec, seed));
            setup.push(secs(t));
        }
        values.insert("setup_s".into(), median(&setup));
        samples.push(("setup_s", setup.len()));
        // Add-one estimate of the failure probability, so that a clean run
        // reads a small positive number and one failure doubles it.
        let frac = (chk.failed + 1) as f64 / (chk.attempted + 1) as f64;
        values.insert("fail_frac".into(), frac);
    }
    let gemm_peak_gflops = gemm_probe::<T>();
    if trace {
        values.insert("dense.gemm_peak_gflops".into(), gemm_peak_gflops);
    }
    Outcome {
        attempted: chk.attempted,
        failed: chk.failed,
        values,
        samples,
        gemm_peak_gflops,
        max_rel_err: chk.max_rel_err,
        spans_jsonl,
    }
}

/// Seconds of a `solve()`'s solution phase (after the factors exist).
fn solution_secs(m: &Metrics) -> f64 {
    m.phases
        .iter()
        .filter(|(n, _)| {
            matches!(
                n.as_str(),
                "sparse solve (rhs)" | "dense solve" | "sparse solve (back)"
            )
        })
        .map(|(_, s)| s)
        .sum()
}

/// A closed loop of `ops` one-shot `solve()` calls on the same system.
fn one_shot<T: Scalar>(
    spec: &Spec,
    inp: &Inputs<T>,
    ops: usize,
    chk: &mut Checker,
    values: &mut Values,
    samples: &mut Vec<(&'static str, usize)>,
) {
    let cfg = spec.config(THREADS, Tracer::disabled());
    let p = &inp.problem;
    let (mut wall, mut factor, mut peak, mut schur) = (vec![], vec![], vec![], vec![]);
    let mut total = 0.0;
    for _ in 0..ops {
        let t = Instant::now();
        let out = csolve::solve(p, spec.algorithm(), &cfg);
        let s = secs(t);
        total += s;
        match out {
            Ok(o) => {
                if chk.check(0, "solve()", (&o.xv, &o.xs), (&p.x_exact_v, &p.x_exact_s)) {
                    wall.push(s);
                    factor.push(s - solution_secs(&o.metrics));
                    peak.push(mib(o.metrics.peak_bytes));
                    schur.push(mib(o.metrics.schur_bytes));
                }
            }
            Err(e) => chk.fail("solve()", e),
        }
    }
    let put = |values: &mut Values, k: &str, v: f64| values.insert(k.into(), v);
    put(values, "solve_s", median(&wall));
    put(values, "factor_s", median(&factor));
    put(values, "peak_mib", median(&peak));
    put(values, "schur_mib", median(&schur));
    // Every request is one solve(): the closed loop's rate and latency are
    // those of solve() itself.
    put(values, "rhs_per_s", wall.len() as f64 / total);
    put(values, "rhs_lat_p50_ms", 1e3 * median(&wall));
    put(values, "rhs_lat_p95_ms", 1e3 * harrell_davis(&wall, 0.95));
    for k in [
        "solve_s",
        "factor_s",
        "peak_mib",
        "rhs_lat_p50_ms",
        "rhs_lat_p95_ms",
    ] {
        samples.push((k, wall.len()));
    }
}

/// What one session served.
#[derive(Default)]
struct Served {
    /// Cold request: factorization plus the first solve.
    cold_s: f64,
    /// Warm bursts, submit of the first request to the return of `flush`.
    warm_s: f64,
    warm_rhs: usize,
    lat_ms: Vec<f64>,
    /// `submit` calls that only queued a request.
    submit_ms: Vec<f64>,
    /// The calls that solved a panel (the auto-flushing `submit` plus the
    /// collecting `flush`), per burst.
    panel_ms: Vec<f64>,
    peak_bytes: usize,
    schur_bytes: usize,
    stats: SessionStats,
}

/// One client of a fresh session: a cold request with the workload's
/// right-hand side, then (with `stream`) the seeded stream in bursts,
/// each flushed and every result checked.
fn serve<T: Scalar>(
    spec: &Spec,
    inp: &Inputs<T>,
    cfg: &SolverConfig,
    chk: &mut Checker,
    stream: bool,
) -> Option<Served> {
    let p = &inp.problem;
    let mut s = match SessionBuilder::new(cfg.clone(), spec.algorithm())
        .max_batch(spec.burst)
        .build::<T>()
    {
        Ok(s) => s,
        Err(e) => {
            chk.fail("session build", e);
            return None;
        }
    };
    let mut out = Served::default();
    let t = Instant::now();
    let cold = s.submit(p, &p.b_v, &p.b_s).and_then(|_| s.flush());
    out.cold_s = secs(t);
    match cold {
        Ok(v) if v.len() == 1 => {
            chk.check(
                0,
                "cold request",
                (&v[0].xv, &v[0].xs),
                (&p.x_exact_v, &p.x_exact_s),
            );
        }
        Ok(v) => chk.fail(
            "cold request",
            format!("{} results for one request", v.len()),
        ),
        Err(e) => {
            chk.fail("cold request", e);
            return None;
        }
    }
    if stream {
        for (b, burst) in inp.stream.chunks(spec.burst).enumerate() {
            let start = Instant::now();
            let mut sent = Vec::with_capacity(burst.len());
            let mut panel_ms = 0.0;
            let mut error = None;
            for r in burst {
                let t = Instant::now();
                sent.push(t);
                if let Err(e) = s.submit(p, &r.b_v, &r.b_s) {
                    error = Some(e);
                    break;
                }
                let ms = 1e3 * secs(t);
                if s.pending_len() == 0 {
                    panel_ms += ms;
                } else {
                    out.submit_ms.push(ms);
                }
            }
            let t = Instant::now();
            let solved = s.flush();
            let done = Instant::now();
            out.panel_ms.push(panel_ms + 1e3 * (done - t).as_secs_f64());
            out.warm_s += (done - start).as_secs_f64();
            out.lat_ms
                .extend(sent.iter().map(|&t| 1e3 * (done - t).as_secs_f64()));
            // A failed burst leaves its requests without results; each
            // counts as a failure below.
            let solved = match (solved, error) {
                (Ok(v), None) => v,
                (Ok(_), Some(e)) | (Err(e), _) => {
                    eprintln!("burst {b}: {e}");
                    Vec::new()
                }
            };
            for k in 0..burst.len() {
                let i = b * spec.burst + k;
                match solved.get(k) {
                    Some(sol) => {
                        let (xv, xs) = inp.exact(i);
                        if chk.check(1 + i, "warm request", (&sol.xv, &sol.xs), (&xv, &xs)) {
                            out.warm_rhs += 1;
                        }
                    }
                    None => chk.fail("warm request", format!("request {i} has no result")),
                }
            }
        }
    }
    out.stats = s.stats();
    out.peak_bytes = out.stats.peak_bytes;
    out.schur_bytes = s.last_metrics().map_or(0, |m| m.schur_bytes);
    Some(out)
}

/// A closed loop of `sessions` fresh sessions, each serving the cold
/// request and the whole seeded stream.
fn sweep<T: Scalar>(
    spec: &Spec,
    inp: &Inputs<T>,
    sessions: usize,
    chk: &mut Checker,
    values: &mut Values,
    samples: &mut Vec<(&'static str, usize)>,
) {
    let cfg = spec.config(THREADS, Tracer::disabled());
    let (mut session, mut cold, mut rate, mut peak, mut schur) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut p50, mut p95) = (vec![], vec![]);
    for _ in 0..sessions {
        let Some(s) = serve(spec, inp, &cfg, chk, true) else {
            continue;
        };
        session.push(s.cold_s + s.warm_s);
        cold.push(s.cold_s);
        rate.push(s.warm_rhs as f64 / s.warm_s);
        peak.push(mib(s.peak_bytes));
        schur.push(mib(s.schur_bytes));
        p50.push(quantile(&s.lat_ms, 0.5));
        p95.push(quantile(&s.lat_ms, 0.95));
    }
    let put = |values: &mut Values, k: &str, v: f64| values.insert(k.into(), v);
    // One "solve" of this workload is one whole session.
    put(values, "solve_s", median(&session));
    put(values, "factor_s", median(&cold));
    put(values, "peak_mib", median(&peak));
    put(values, "schur_mib", median(&schur));
    put(values, "rhs_per_s", median(&rate));
    // Latency percentiles of each session's warm requests, median over
    // sessions: one burst slowed by a neighbour on the host moves a
    // session's tail, not the run's.
    put(values, "rhs_lat_p50_ms", median(&p50));
    put(values, "rhs_lat_p95_ms", median(&p95));
    for k in [
        "solve_s",
        "factor_s",
        "peak_mib",
        "rhs_per_s",
        "rhs_lat_p50_ms",
        "rhs_lat_p95_ms",
    ] {
        samples.push((k, session.len()));
    }
}

/// Sum of the durations of the recorded solver spans of `kind`.
fn span_secs(records: &[csolve::TraceRecord], kind: SpanKind) -> f64 {
    records
        .iter()
        .map(|r| match &r.payload {
            TracePayload::Span {
                kind: k, dur_ns, ..
            } if *k == kind => *dur_ns as f64 * 1e-9,
            _ => 0.0,
        })
        .sum()
}

/// A rayon pool of the workload's width, for the replay and the GEMM probe.
fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// The traced run: reference runs at 2 and 1 threads, one run with the
/// solver's tracer on, then the layer replay, whose solutions must match
/// the reference bit for bit. Returns the replay's spans as JSON lines.
fn traced<T: Scalar>(
    spec: &Spec,
    inp: &Inputs<T>,
    chk: &mut Checker,
    values: &mut Values,
) -> String {
    let p = &inp.problem;
    let exact = (&p.x_exact_v[..], &p.x_exact_s[..]);
    let cfg2 = spec.config(THREADS, Tracer::disabled());
    let cfg1 = spec.config(1, Tracer::disabled());
    let tracer = Tracer::enabled();
    let cfg_t = spec.config(THREADS, tracer.clone());
    let mut put = |k: &str, v: f64| values.insert(k.into(), v);

    // Reference walls: a one-shot solve(), or a session's cold request.
    let (wall2, wall1, wall_t, autotune);
    let mut session_stats = None;
    if spec.kind == Kind::AircraftSweep {
        let r2 = serve(spec, inp, &cfg2, chk, true);
        let r1 = serve(spec, inp, &cfg1, chk, false);
        let rt = serve(spec, inp, &cfg_t, chk, false);
        wall2 = r2.as_ref().map_or(0.0, |r| r.cold_s);
        wall1 = r1.map_or(0.0, |r| r.cold_s);
        wall_t = rt.map_or(0.0, |r| r.cold_s);
        let (n_c, n_s) = fixed_multi_solve_blocking(&cfg2);
        autotune = (n_c, n_s, false, 0);
        session_stats = r2;
    } else {
        let mut timed = |cfg: &SolverConfig, what: &str| {
            let t = Instant::now();
            let out = csolve::solve(p, spec.algorithm(), cfg);
            let s = secs(t);
            match out {
                Ok(o) => {
                    chk.check(0, what, (&o.xv, &o.xs), exact);
                    (s, o.metrics.autotune)
                }
                Err(e) => {
                    chk.fail(what, e);
                    (s, None)
                }
            }
        };
        let (w2, d) = timed(&cfg2, "solve() at 2 threads");
        wall2 = w2;
        wall1 = timed(&cfg1, "solve() at 1 thread").0;
        wall_t = timed(&cfg_t, "traced solve()").0;
        autotune = match d {
            Some(d) => (d.n_c, d.n_s, d.degraded, d.predicted_peak),
            None if spec.kind == Kind::PipeMsBudget => {
                let (n_c, n_s) = fixed_multi_solve_blocking(&cfg2);
                (n_c, n_s, false, 0)
            }
            None => (0, 0, false, 0),
        };
    }
    let records = tracer.drain();
    put(
        "pipeline.admit_wait_s",
        span_secs(&records, SpanKind::AdmitWait),
    );
    put(
        "pipeline.commit_wait_s",
        span_secs(&records, SpanKind::CommitWait),
    );
    put("pipeline.speedup_2t", wall1 / wall2);
    put("trace.overhead_frac", wall_t / wall2 - 1.0);
    put("autotune.n_c", autotune.0 as f64);
    put("autotune.n_s", autotune.1 as f64);
    put("autotune.degraded", if autotune.2 { 1.0 } else { 0.0 });
    put("autotune.predicted_mib", mib(autotune.3));
    match &session_stats {
        Some(s) => {
            put("session.submit_ms", median(&s.submit_ms));
            put("session.flush_ms", median(&s.panel_ms));
            put(
                "session.hit_ratio",
                s.stats.cache_hits as f64 / s.stats.requests as f64,
            );
            put(
                "session.batch_width",
                s.stats.requests as f64 / s.stats.batches as f64,
            );
        }
        // A one-shot solve() is a session of one uncached request.
        None => {
            put("session.submit_ms", 0.0);
            put("session.flush_ms", 0.0);
            put("session.hit_ratio", 0.0);
            put("session.batch_width", 1.0);
        }
    }

    // The replay, on a pool of the same width, with the dense-kernel
    // counters on.
    let tracker = match spec.budget {
        Some(b) => MemTracker::with_budget(b),
        None => MemTracker::unbounded(),
    };
    let mut rec = Recorder::new();
    rec.set_tracker(Arc::clone(&tracker));
    csolve::dense::stats::enable();
    pool(THREADS).install(|| replay_workload(spec, inp, &cfg2, &tracker, autotune, &mut rec, chk));
    csolve::dense::stats::disable();

    layer_values(&rec, values);
    let op0: f64 = rec.leaves().filter(|s| s.op == 0).map(|s| s.secs()).sum();
    values.insert("pipeline.overlap".into(), op0 / (THREADS as f64 * wall2));
    let unattributed = values["trace.unattributed_frac"];
    if unattributed.is_nan() || unattributed > 0.05 {
        chk.fail(
            "replay attribution",
            format!("{unattributed:.3} of the replay wall is outside layer spans"),
        );
    }
    rec.to_jsonl()
}

/// Replay the workload's reference work, checking every solution against
/// the reference bits (same right-hand-side keys).
fn replay_workload<T: Scalar>(
    spec: &Spec,
    inp: &Inputs<T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    autotune: (usize, usize, bool, usize),
    rec: &mut Recorder,
    chk: &mut Checker,
) {
    let p = &inp.problem;
    let exact = (&p.x_exact_v[..], &p.x_exact_s[..]);
    rec.set_op(0);
    rec.begin("replay");
    let factors: csolve::Result<Factors<T>> = match spec.kind {
        Kind::AircraftMf => replay::multi_factorization(rec, p, cfg, tracker),
        _ => replay::multi_solve(rec, p, cfg, tracker, (autotune.0, autotune.1)),
    };
    let f = match factors {
        Ok(f) => f,
        Err(e) => {
            rec.end();
            chk.fail("replay factorization", e);
            return;
        }
    };
    let colwise = spec.kind == Kind::AircraftSweep;
    let first = replay::solve_panel(rec, &f, &p.b_v, &p.b_s, colwise);
    rec.end();
    match first {
        Ok((xv, xs)) => {
            chk.check(0, "replay", (&xv, &xs), exact);
        }
        Err(e) => chk.fail("replay", e),
    }
    if spec.kind != Kind::AircraftSweep {
        return;
    }
    let (nv, ns) = (p.n_fem(), p.n_bem());
    for (b, burst) in inp.stream.chunks(spec.burst).enumerate() {
        rec.set_op(1 + b as u64);
        rec.begin("replay");
        let b_v: Vec<T> = burst.iter().flat_map(|r| r.b_v.iter().copied()).collect();
        let b_s: Vec<T> = burst.iter().flat_map(|r| r.b_s.iter().copied()).collect();
        let out = replay::solve_panel(rec, &f, &b_v, &b_s, true);
        rec.end();
        let (xv, xs) = match out {
            Ok(x) => x,
            Err(e) => {
                chk.fail("replay panel", e);
                continue;
            }
        };
        for k in 0..burst.len() {
            let i = b * spec.burst + k;
            let (wv, ws) = inp.exact(i);
            let got = (&xv[k * nv..(k + 1) * nv], &xs[k * ns..(k + 1) * ns]);
            chk.check(1 + i, "replay panel", got, (&wv, &ws));
        }
    }
}

/// Per-layer metrics from the replay's spans and work counters.
fn layer_values(rec: &Recorder, values: &mut Values) {
    let mut put = |k: &str, v: f64| values.insert(k.into(), v);
    let rate = |flops: f64, s: f64| if s > 0.0 { flops / s * 1e-9 } else { 0.0 };
    for (layer, key) in [
        ("hmat.cluster", "hmat.cluster_s"),
        ("sparse.factor", "sparse.factor_s"),
        ("sparse.factor_schur", "sparse.factor_schur_s"),
        ("sparse.assemble_w", "sparse.assemble_w_s"),
        ("sparse.solve_rhs", "sparse.solve_rhs_s"),
        ("sparse.spmm", "sparse.spmm_s"),
        ("schur.init", "schur.init_s"),
        ("schur.axpy", "schur.axpy_s"),
        ("schur.factor", "schur.factor_s"),
    ] {
        put(key, rec.total_secs(layer));
    }
    for layer in [
        "sparse.factor",
        "sparse.factor_schur",
        "sparse.solve_rhs",
        "schur.axpy",
    ] {
        put(&format!("{layer}_calls"), rec.count(layer) as f64);
    }
    for layer in ["sparse.factor", "sparse.factor_schur", "sparse.spmm"] {
        let flops = rec.work(&format!("{layer}.flops"));
        put(
            &format!("{layer}_gflops"),
            rate(flops, rec.total_secs(layer)),
        );
    }
    let dense = rec.work("blr.dense_bytes");
    put(
        "sparse.blr_ratio",
        if dense > 0.0 {
            rec.work("blr.stored_bytes") / dense
        } else {
            1.0
        },
    );
    let rhs = rec.work("rhs").max(1.0);
    put(
        "sparse.solve_panel_ms_per_rhs",
        1e3 * rec.total_secs("sparse.solve_panel") / rhs,
    );
    put(
        "sparse.matvec_ms_per_rhs",
        1e3 * rec.total_secs("sparse.matvec") / rhs,
    );
    put(
        "schur.solve_ms_per_rhs",
        1e3 * rec.total_secs("schur.solve") / rhs,
    );
    put("schur.mib", mib(rec.work("schur.bytes") as usize));
    for layer in DENSE_LAYERS {
        let flops: u64 = rec.named(layer).map(|s| s.dense.flops).sum();
        let ns: u64 = rec.named(layer).map(|s| s.dense.ns).sum();
        put(&format!("{layer}.dense_flops"), flops as f64 * 1e-9);
        put(&format!("{layer}.dense_s"), ns as f64 * 1e-9);
    }
    for layer in PEAK_LAYERS {
        let peak = rec.named(layer).map(|s| s.peak_rise).max().unwrap_or(0);
        put(&format!("{layer}.peak_mib"), mib(peak));
    }
    let (packed, naive) = rec.leaves().fold((0u64, 0u64), |(p, n), s| {
        (p + s.dense.packed_calls, n + s.dense.naive_calls)
    });
    put(
        "dense.packed_frac",
        if packed + naive > 0 {
            packed as f64 / (packed + naive) as f64
        } else {
            0.0
        },
    );
    let leaves: f64 = rec.leaves().map(|s| s.secs()).sum();
    let roots: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.secs())
        .sum();
    put(
        "trace.unattributed_frac",
        if roots > 0.0 {
            1.0 - leaves / roots
        } else {
            1.0
        },
    );
}

/// GEMM rate (GF/s, `2·m·n·k` flops) of the dense layer at a fixed size
/// for the workload's scalar, on a pool of the workload's width: the
/// denominator of every `*_gflops` metric.
fn gemm_probe<T: Scalar>() -> f64 {
    const N: usize = 384;
    pool(THREADS).install(|| {
        let mut rng = Rng::new(1, "gemm probe");
        let a = Mat::from_col_major(N, N, rng.vec::<T>(N * N));
        let b = Mat::from_col_major(N, N, rng.vec::<T>(N * N));
        let mut c = Mat::<T>::zeros(N, N);
        let mut best = 0.0f64;
        for _ in 0..5 {
            let t = Instant::now();
            csolve::dense::gemm(
                T::ONE,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                T::ZERO,
                c.as_mut(),
            );
            best = best.max(2.0 * (N * N * N) as f64 / secs(t) * 1e-9);
        }
        std::hint::black_box(&c);
        best
    })
}
