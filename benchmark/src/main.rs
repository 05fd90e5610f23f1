//! The repository benchmark of the coupled sparse/dense solver.
//!
//! ```text
//! csolve-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! csolve-benchmark --smoke
//! ```
//!
//! With `--trace 0` a run sets up the workload's seeded inputs, times a
//! closed loop of solver operations with tracing off, checks every result,
//! and prints the end-to-end metrics. With `--trace 1` it runs the traced
//! run instead: reference solves, then a replay of the same work through
//! each layer's public API with a span around every call, checked bit for
//! bit against the reference, and prints the per-layer metrics. The last
//! line of standard output is the result object; the line before it holds
//! the host fingerprint and the sample counts. The traced run also writes
//! its spans to `.bench_out/`. `--smoke` runs every workload at a tiny size
//! in both modes and checks the output against `BENCHMARK.json`;
//! `--mf-budget-probe <runs>` counts budgeted multi-factorization failures.

mod check;
mod inputs;
mod metrics;
mod replay;
mod run;
mod spans;
mod stats;

use std::process::ExitCode;

use inputs::Spec;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            f => return Err(format!("unknown argument {f}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The line before the result: host fingerprint, workload, seed, sample
/// counts and the largest relative error seen.
fn detail_line(spec: &Spec, seed: u64, out: &run::Outcome) -> String {
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"samples\": {{{}}}, \"max_rel_err\": {:e}, \"host\": {}}}",
        spec.name,
        samples.join(", "),
        out.max_rel_err,
        metrics::host_json(out.gemm_peak_gflops)
    )
}

/// Write the traced run's host line and spans under `.bench_out/`.
fn write_spans(spec: &Spec, seed: u64, detail: &str, jsonl: &str) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", spec.name));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, format!("{detail}\n{jsonl}")));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        return match smoke::run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("smoke test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(i) = argv.iter().position(|a| a == "--mf-budget-probe") {
        let runs = argv.get(i + 1).and_then(|r| r.parse().ok()).unwrap_or(4);
        return mf_budget_probe(runs);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: csolve-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>", inputs::NAMES.join("|"));
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, false) else {
        eprintln!(
            "unknown workload {}; one of {}",
            args.workload,
            inputs::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let out = run::run(&spec, args.seed, args.seconds, args.trace, false);
    let detail = detail_line(&spec, args.seed, &out);
    if let Some(jsonl) = &out.spans_jsonl {
        write_spans(&spec, args.seed, &detail, jsonl);
    }
    println!("{detail}");
    println!(
        "{}",
        metrics::result_line(args.trace, out.attempted, out.failed, &out.values)
    );
    ExitCode::SUCCESS
}

/// `--mf-budget-probe <runs>`: how often budgeted (autotuned)
/// multi-factorization of the `aircraft-mf` system completes at the
/// workload's thread count, per budget given as a fraction of its
/// unbounded peak. This is why `aircraft-mf` runs without a budget.
fn mf_budget_probe(runs: usize) -> ExitCode {
    let spec = Spec::named("aircraft-mf", false).expect("known workload");
    let inp = inputs::Inputs::<csolve::C64>::build(&spec, 1);
    let cfg = spec.config(inputs::THREADS, csolve::Tracer::disabled());
    let peak = match csolve::solve(&inp.problem, spec.algorithm(), &cfg) {
        Ok(o) => o.metrics.peak_bytes,
        Err(e) => {
            eprintln!("unbounded solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("unbounded peak {:.1} MiB", metrics::mib(peak));
    for frac in [0.4, 0.5, 0.6, 0.75, 0.9] {
        let mut cfg = cfg.clone();
        cfg.mem_budget = Some((peak as f64 * frac) as usize);
        cfg.block_sizes = csolve::BlockSizes::Auto;
        let (mut ok, mut oom) = (0, 0);
        for _ in 0..runs {
            match csolve::solve(&inp.problem, spec.algorithm(), &cfg) {
                Ok(_) => ok += 1,
                Err(e) if e.is_oom() => oom += 1,
                Err(e) => eprintln!("budget {frac}: {e}"),
            }
        }
        println!("budget {frac:.2} x peak: {ok} of {runs} completed, {oom} out of memory");
    }
    ExitCode::SUCCESS
}

/// The self-test: every workload at a tiny size, in both modes.
mod smoke {
    use csolve::json::{parse_json, JsonValue};

    use crate::check::{flip_one_bit, Checker};
    use crate::inputs::{Inputs, Spec, NAMES, THREADS};
    use crate::{metrics, run};

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(doc: &JsonValue, key: &str) -> Result<Vec<(String, String)>, String> {
        let list = doc
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        list.iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).map(str::to_string);
                Ok((
                    field("name").ok_or("metric without a name")?,
                    field("unit").ok_or("metric without a unit")?,
                ))
            })
            .collect()
    }

    pub fn run() -> Result<(), String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse_json(&doc).map_err(|e| format!("{path}: {e:?}"))?;
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("BENCHMARK.json has no workloads")?
            .iter()
            .filter_map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .collect();
        if workloads != NAMES {
            return Err(format!(
                "BENCHMARK.json workloads {workloads:?} != {NAMES:?}"
            ));
        }
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want: Vec<(String, String)> = metrics::table(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            if declared(&doc, key)? != want {
                return Err(format!("the {key} metrics differ from BENCHMARK.json"));
            }
            for name in NAMES {
                let spec = Spec::named(name, true).expect("known workload");
                let out = run::run(&spec, 1, 1, trace, true);
                let line = metrics::result_line(trace, out.attempted, out.failed, &out.values);
                eprintln!("smoke {name} trace={}: {line}", trace as u8);
                if !line.starts_with("{\"correct\": true") {
                    return Err(format!("{name} (trace {}) is not correct", trace as u8));
                }
                for (n, u) in &want {
                    if !line.contains(&format!("\"{n}\": {{\"value\": "))
                        || !line.contains(&format!("\"unit\": \"{u}\""))
                    {
                        return Err(format!("{name}: metric {n} [{u}] missing"));
                    }
                }
            }
        }
        flipped_bit_is_a_failure()
    }

    /// A solution with one flipped bit must count as a failed operation.
    fn flipped_bit_is_a_failure() -> Result<(), String> {
        let spec = Spec::named("pipe-ms-budget", true).expect("known workload");
        let inp = Inputs::<f64>::build(&spec, 1);
        let p = &inp.problem;
        let cfg = spec.config(THREADS, csolve::Tracer::disabled());
        let o = csolve::solve(p, spec.algorithm(), &cfg).map_err(|e| e.to_string())?;
        let want = (&p.x_exact_v[..], &p.x_exact_s[..]);
        let mut chk = Checker::new(spec.name, 1, spec.tol);
        let ok = chk.check(0, "solve()", (&o.xv, &o.xs), want);
        let bad = flip_one_bit(&o.xs);
        let caught = !chk.check(0, "corrupted solve()", (&o.xv, &bad), want);
        if ok && caught && (chk.attempted, chk.failed) == (2, 1) {
            Ok(())
        } else {
            Err("a flipped solution bit was not counted as a failure".into())
        }
    }

    #[test]
    fn smoke() {
        run().unwrap();
    }
}
