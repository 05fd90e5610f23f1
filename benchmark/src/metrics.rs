//! Metric names and units, the host fingerprint, and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`; the smoke test checks that they agree name for name
//! and unit for unit.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed by every run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_mib", "MiB"),
    ("schur_mib", "MiB"),
    ("factor_s", "s"),
    ("rhs_per_s", "1/s"),
    ("rhs_lat_p50_ms", "ms"),
    ("rhs_lat_p95_ms", "ms"),
    ("fail_frac", "ratio"),
];

/// Layers whose replayed calls report the dense-kernel work done inside
/// them (`<layer>.dense_flops`, `<layer>.dense_s`).
pub const DENSE_LAYERS: &[&str] = &[
    "sparse.factor",
    "sparse.factor_schur",
    "sparse.solve_rhs",
    "sparse.solve_panel",
    "schur.init",
    "schur.axpy",
    "schur.factor",
    "schur.solve",
];

/// Layers whose replayed calls charge the memory tracker
/// (`<layer>.peak_mib`).
pub const PEAK_LAYERS: &[&str] = &[
    "sparse.factor",
    "sparse.factor_schur",
    "sparse.solve_rhs",
    "schur.init",
    "schur.axpy",
    "schur.factor",
];

/// Per-layer metrics, printed by every run with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("fembem.build_s", "s"),
        ("hmat.cluster_s", "s"),
        ("sparse.factor_s", "s"),
        ("sparse.factor_calls", "count"),
        ("sparse.factor_gflops", "GF/s"),
        ("sparse.factor_schur_s", "s"),
        ("sparse.factor_schur_calls", "count"),
        ("sparse.factor_schur_gflops", "GF/s"),
        ("sparse.assemble_w_s", "s"),
        ("sparse.blr_ratio", "ratio"),
        ("sparse.solve_rhs_s", "s"),
        ("sparse.solve_rhs_calls", "count"),
        ("sparse.spmm_s", "s"),
        ("sparse.spmm_gflops", "GF/s"),
        ("sparse.solve_panel_ms_per_rhs", "ms"),
        ("sparse.matvec_ms_per_rhs", "ms"),
        ("schur.init_s", "s"),
        ("schur.axpy_s", "s"),
        ("schur.axpy_calls", "count"),
        ("schur.factor_s", "s"),
        ("schur.solve_ms_per_rhs", "ms"),
        ("schur.mib", "MiB"),
        ("dense.gemm_peak_gflops", "GF/s"),
        ("dense.packed_frac", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for l in DENSE_LAYERS {
        v.push((format!("{l}.dense_flops"), "Gflop"));
        v.push((format!("{l}.dense_s"), "s"));
    }
    for l in PEAK_LAYERS {
        v.push((format!("{l}.peak_mib"), "MiB"));
    }
    v.extend(
        [
            ("autotune.n_c", "count"),
            ("autotune.n_s", "count"),
            ("autotune.degraded", "count"),
            ("autotune.predicted_mib", "MiB"),
            ("pipeline.speedup_2t", "x"),
            ("pipeline.overlap", "ratio"),
            ("pipeline.admit_wait_s", "s"),
            ("pipeline.commit_wait_s", "s"),
            ("session.submit_ms", "ms"),
            ("session.flush_ms", "ms"),
            ("session.hit_ratio", "ratio"),
            ("session.batch_width", "count"),
            ("trace.unattributed_frac", "ratio"),
            ("trace.overhead_frac", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// The metric table of one mode.
pub fn table(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Computed metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Bytes to MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// A JSON number; a non-finite value (which JSON cannot hold) is `None`.
fn num(v: f64) -> Option<String> {
    // `+ 0.0` turns the -0 of an empty sum into 0.
    v.is_finite().then(|| format!("{}", v + 0.0))
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// the mode's table with its unit. A metric the run did not compute, or
/// computed as a non-finite number, is reported on stderr and makes the
/// run incorrect.
pub fn result_line(trace: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let mut missing = Vec::new();
    let mut body = String::new();
    for (i, (name, unit)) in table(trace).iter().enumerate() {
        let v = match values.get(name).copied().and_then(num) {
            Some(v) => v,
            None => {
                missing.push(name.clone());
                "0".into()
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    if !missing.is_empty() {
        eprintln!("metrics not computed: {}", missing.join(", "));
    }
    let correct = failed == 0 && missing.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

/// Host fingerprint: thread count, compiler, the dense kernels' cache
/// calibration and the measured GEMM rate, so figures from different hosts
/// are never compared silently.
pub fn host_json(gemm_peak_gflops: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cache = csolve::dense::cache_info();
    let blocking = |elem: usize| {
        let b = csolve::dense::kernel_blocking(elem);
        format!(
            "{{\"mc\": {}, \"kc\": {}, \"nc\": {}, \"mr\": {}, \"nr\": {}}}",
            b.mc, b.kc, b.nc, b.mr, b.nr
        )
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"cache\": {{\"l1d_bytes\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \"source\": \"{}\"}}, \"kernel_blocking\": {{\"8\": {}, \"16\": {}}}, \"dense.gemm_peak_gflops\": {}}}",
        env!("BENCH_RUSTC_VERSION"),
        cache.l1d_bytes,
        cache.l2_bytes,
        cache.l3_bytes,
        cache.source.name(),
        blocking(8),
        blocking(16),
        num(gemm_peak_gflops).unwrap_or_else(|| "0".into()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_metrics_make_a_run_incorrect() {
        let mut v = Values::new();
        for (n, _) in table(false) {
            v.insert(n, 1.5);
        }
        assert!(result_line(false, 3, 0, &v).starts_with("{\"correct\": true"));
        v.remove("solve_s");
        assert!(result_line(false, 3, 0, &v).starts_with("{\"correct\": false"));
        v.insert("solve_s".into(), f64::NAN);
        assert!(result_line(false, 3, 0, &v).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let t = per_layer();
        let mut names: Vec<&String> = t.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), t.len());
    }
}
