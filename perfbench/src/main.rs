//! `perfbench` — the repository's end-to-end and per-layer benchmark of
//! the cluster simulator, driven through the public library surface
//! (`SimBuilder`, `Sim::run`, `Sim::telemetry_snapshot`).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload two-class --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times whole runs and reports the end-to-end metrics;
//! `--trace 1` makes a traced run and reports the per-layer metrics.
//! Both check every run's output. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is 1 when a check fails, 2 on a usage error.

mod probes;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bnb_telemetry::{render_chrome_trace, render_prometheus, MetricsSnapshot, Registry, Span};
use workload::{digest, Checks, Fidelity, Run, Workload, SMOKE_DIVISOR, WORKLOADS};

/// Timed runs of the end-to-end measurement, at least, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// `build()` timings per run, at least, for the `setup_s` median.
const MIN_SETUP_SAMPLES: usize = 51;

/// The four spans the serial engine records when traced.
const SIM_SPANS: [&str; 4] = ["sim.arrival", "sim.place", "sim.schedule", "sim.depart"];

/// The end-to-end metrics `--trace 0` reports, with their units.
const END_TO_END: [(&str, &str); 3] = [
    ("req_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `--trace 1` reports, with their units.
const PER_LAYER: [(&str, &str); 27] = [
    ("queueing.lazy.pair_ns", "ns"),
    ("queueing.calendar.pair_ns", "ns"),
    ("lazy.stale_pop_frac", "ratio"),
    ("lazy.rebuild_scans", "count"),
    ("calendar.rebuilds", "count"),
    ("router.place_ns", "ns"),
    ("router.engine_new_us", "us"),
    ("fleet.join_depart_ns", "ns"),
    ("arrivals.fill_ns", "ns"),
    ("distributions.exp_ns", "ns"),
    ("distributions.alias_build_us", "us"),
    ("hashring.ring_update_us", "us"),
    ("metrics.collect_ns", "ns"),
    ("sim.arrival_ns", "ns"),
    ("sim.place_ns", "ns"),
    ("sim.schedule_ns", "ns"),
    ("sim.depart_ns", "ns"),
    ("sim.glue_ns", "ns"),
    ("sim.next_free_bypass_frac", "ratio"),
    ("sharded.epochs", "count"),
    ("sharded.arrivals_per_server_epoch", "req"),
    ("sharded.epoch_us", "us"),
    ("telemetry.overhead_ratio", "ratio"),
    ("fidelity.latency_mean_err", "ratio"),
    ("fidelity.latency_p99_err", "ratio"),
    ("fidelity.drop_rate_err", "ratio"),
    ("fidelity.max_norm_queue_err", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    /// Corrupts one run's metrics, to show that a failed check fails
    /// the command.
    inject_fault: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         [--smoke] [--inject-fault]\n\
         workloads: {}\n\
         --smoke divides every request budget by {SMOKE_DIVISOR}",
        names.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut inject_fault) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--smoke" => smoke = true,
            "--inject-fault" => inject_fault = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mut workload = workload.ok_or("--workload is required")?;
    if smoke {
        workload.requests /= SMOKE_DIVISOR;
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject_fault,
    })
}

/// The median of `v` (sorted in place).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile of sorted `v`, nearest rank.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.75))
}

/// The process's peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

/// Timed runs of the workload for at least `budget` and `min_reps`
/// runs, each checked against `baseline`; `each` sees every run.
#[allow(clippy::too_many_arguments)]
fn timed_runs(
    args: &Args,
    phase: &str,
    registry: Option<&Registry>,
    span: &mut Span,
    budget: Duration,
    min_reps: usize,
    baseline: &bnb_cluster::ClusterMetrics,
    checks: &mut Checks,
    mut each: impl FnMut(&Run),
) {
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_reps || start.elapsed() < budget {
        let mut run = args.workload.run(args.seed, registry, span);
        if args.inject_fault && i == 0 {
            run.metrics.dropped += 1;
        }
        checks.check(&format!("{phase} run {i}"), &run.metrics, Some(baseline));
        each(&run);
        i += 1;
    }
}

/// Engine span `name`'s mean timed duration, less `empty_ns` (what a
/// span around nothing reads), times its calls, per arrived request, in
/// ns: what that component costs each request.
fn span_ns_per_request(snap: &MetricsSnapshot, name: &str, empty_ns: f64) -> f64 {
    let arrived = snap.counter("sim.arrived").unwrap_or(0);
    let (Some(hist), Some(calls)) = (
        snap.histogram(&format!("{name}.ns")),
        snap.counter(&format!("{name}.calls")),
    ) else {
        return 0.0;
    };
    if hist.count() == 0 || arrived == 0 {
        return 0.0;
    }
    (hist.sum() as f64 / hist.count() as f64 - empty_ns) * calls as f64 / arrived as f64
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs the end-to-end measurement: whole timed runs, untraced.
/// `rss_mb` is the process's peak resident memory after its first run.
fn end_to_end(
    args: &Args,
    rss_mb: f64,
    baseline: &bnb_cluster::ClusterMetrics,
    checks: &mut Checks,
    report: &mut String,
) -> Vec<(&'static str, f64)> {
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let requests = args.workload.requests as f64;
    timed_runs(
        args,
        "timed",
        None,
        &mut Span::disabled("bench.sim_run"),
        args.seconds,
        MIN_REPS,
        baseline,
        checks,
        |run| {
            rates.push(requests / run.run_s);
            setups.push(run.setup_s);
        },
    );
    while setups.len() < MIN_SETUP_SAMPLES {
        setups.push(args.workload.setup_only(args.seed));
    }
    let req_per_s = median(&mut rates);
    let setup_s = median(&mut setups);
    let (q1, q3) = quartiles(&rates);
    let (s1, s3) = quartiles(&setups);
    let _ = writeln!(
        report,
        "  req_per_s     {req_per_s:.4e} req/s  (quartiles {q1:.4e} .. {q3:.4e}, {} runs)",
        rates.len()
    );
    let _ = writeln!(
        report,
        "  setup_s       {setup_s:.4e} s      (quartiles {s1:.4e} .. {s3:.4e}, {} builds)",
        setups.len()
    );
    let _ = writeln!(
        report,
        "  peak_rss_mb   {rss_mb:.1} MB (after the first run)"
    );
    vec![
        ("req_per_s", req_per_s),
        ("setup_s", setup_s),
        ("peak_rss_mb", rss_mb),
    ]
}

/// Runs the traced measurement: untraced timed runs; runs traced at
/// the engine's default span sampling, for the tracing overhead; runs
/// with every span occurrence timed, for the per-component split; then
/// the per-layer probes. Writes the spans out and returns the
/// per-layer metrics.
fn per_layer(
    args: &Args,
    warm: &Run,
    fidelity: &Fidelity,
    checks: &mut Checks,
    report: &mut String,
) -> Vec<(&'static str, f64)> {
    let w = &args.workload;
    let phase = args.seconds / 4;
    let requests = w.requests as f64;
    let mut phase_run_s =
        |name: &str, registry: Option<&Registry>, span: &mut Span, each: &mut dyn FnMut(&Run)| {
            let mut run_s = Vec::new();
            timed_runs(
                args,
                name,
                registry,
                span,
                phase,
                1,
                &warm.metrics,
                checks,
                |run| {
                    run_s.push(run.run_s);
                    each(run);
                },
            );
            median(&mut run_s)
        };
    let mut off = Span::disabled("bench.sim_run");
    let untraced_run_s = phase_run_s("untraced", None, &mut off, &mut |_| {});
    let sampled_run_s = phase_run_s("traced", Some(&Registry::enabled()), &mut off, &mut |_| {});

    // Every occurrence timed: the engine's default 1-in-64 sampling is
    // in step with its power-of-two block refills, so sampled means
    // over-weight the refills. One registry serves the engine's spans
    // and the benchmark's own, so the exported trace has one timeline.
    let registry = Registry::with_sampling(0, bnb_telemetry::registry::DEFAULT_TRACE_CAP);
    let empty_ns = probes::empty_span_ns(&registry);
    let mut sim_run = registry.span_unsampled("bench.sim_run", 1);
    let mut components: [Vec<f64>; 4] = Default::default();
    let mut covered_ns = 0.0;
    let mut last = MetricsSnapshot::new();
    phase_run_s("timed-span", Some(&registry), &mut sim_run, &mut |run| {
        let arrived = run.snapshot.counter("sim.arrived").unwrap_or(0) as f64;
        for (c, name) in components.iter_mut().zip(SIM_SPANS) {
            let ns = span_ns_per_request(&run.snapshot, name, empty_ns);
            c.push(ns);
            covered_ns += ns * arrived;
        }
        last = run.snapshot.clone();
    });

    let spec = w.spec(args.seed);
    let probe_budget = phase / 10;
    let layers = probes::run_all(
        &registry,
        &probes::ProbeParams {
            spec: &spec,
            seed: args.seed,
            metrics: &warm.metrics,
            budget: probe_budget,
        },
    );

    let counters = &warm.snapshot;
    let count = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let ns_per_request = untraced_run_s / requests * 1e9;
    let sim: Vec<f64> = components.iter_mut().map(|c| median(c)).collect();
    let epochs = count("sharded.epochs");
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for layer in &layers {
        for (name, probe) in &layer.probes {
            out.push((name, probe.value(empty_ns)));
        }
    }
    out.extend([
        (
            "lazy.stale_pop_frac",
            ratio(count("lazy.stale_pops"), count("lazy.ring_inserts")),
        ),
        ("lazy.rebuild_scans", count("lazy.rebuild_scans")),
        ("calendar.rebuilds", count("calendar.rebuilds")),
        ("sim.arrival_ns", sim[0]),
        ("sim.place_ns", sim[1]),
        ("sim.schedule_ns", sim[2]),
        ("sim.depart_ns", sim[3]),
        ("sim.glue_ns", ns_per_request - sim.iter().sum::<f64>()),
        (
            "sim.next_free_bypass_frac",
            ratio(count("sim.next_free_bypass"), count("sim.arrived")),
        ),
        ("sharded.epochs", epochs),
        (
            "sharded.arrivals_per_server_epoch",
            ratio(count("sim.arrived"), epochs * spec.speeds.n() as f64),
        ),
        ("sharded.epoch_us", ratio(untraced_run_s * 1e6, epochs)),
        ("telemetry.overhead_ratio", untraced_run_s / sampled_run_s),
    ]);
    out.extend(fidelity.named());

    // Spans: the engine's (last fully timed run) and the benchmark's own.
    let mut snap = last;
    snap.add_span(&sim_run);
    let _ = writeln!(report, "  span self time (duration minus child spans):");
    let covered_ms = covered_ns / 1e6;
    let _ = writeln!(
        report,
        "    {:<24} {:>10.3} ms total {:>10.3} ms self (children: the sim.* spans, less clock reads)",
        "bench.sim_run",
        sim_run.total_ns() as f64 / 1e6,
        sim_run.total_ns() as f64 / 1e6 - covered_ms
    );
    for layer in &layers {
        snap.add_span(&layer.span);
        for (_, probe) in &layer.probes {
            snap.add_span(&probe.span);
        }
        let _ = writeln!(
            report,
            "    {:<24} {:>10.3} ms total {:>10.3} ms self",
            layer.span.name(),
            layer.span.total_ns() as f64 / 1e6,
            layer.self_ns() as f64 / 1e6
        );
    }
    match write_exports(w.name, args.seed, &snap) {
        Ok(stem) => {
            let _ = writeln!(report, "  trace written to {stem}.{{trace.json,prom}}");
        }
        Err(e) => {
            checks.attempted += 1;
            checks.failed += 1;
            checks.failures.push(format!("writing the trace: {e}"));
        }
    }
    let _ = writeln!(
        report,
        "  telemetry.overhead_ratio {:.4} (req/s traced at default sampling / untraced)",
        untraced_run_s / sampled_run_s
    );
    out
}

/// Writes the spans as a chrome://tracing file and a Prometheus text
/// file under the package's `out/` directory; returns the path stem.
fn write_exports(workload: &str, seed: u64, snap: &MetricsSnapshot) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{dir}/{workload}-seed{seed}");
    std::fs::write(format!("{stem}.trace.json"), render_chrome_trace(snap))?;
    std::fs::write(format!("{stem}.prom"), render_prometheus(snap))?;
    Ok(stem)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut checks = Checks::default();
    let mut report = String::new();

    // Untimed: a first run, which every later run must repeat exactly,
    // and the serial engine's answer at the same seed and budget.
    let warm = w.run(args.seed, None, &mut Span::disabled("bench.sim_run"));
    checks.check("first run", &warm.metrics, None);
    // Read before any other run: later runs reuse freed memory in ways
    // that vary with the allocator's address-space layout.
    let rss_mb = peak_rss_mb();
    let reference = if w.workers.is_some() {
        let r = w.serial_reference(args.seed);
        checks.check("serial reference", &r, None);
        r
    } else {
        warm.metrics.clone()
    };
    let fidelity = Fidelity::of(&warm.metrics, &reference);

    let metrics = if args.trace {
        per_layer(&args, &warm, &fidelity, &mut checks, &mut report)
    } else {
        end_to_end(&args, rss_mb, &warm.metrics, &mut checks, &mut report)
    };

    let engine = match w.workers {
        Some(n) => format!("sharded engine, {n} workers"),
        None => "serial engine".to_owned(),
    };
    let m = &warm.metrics;
    println!(
        "perfbench {} (scenario {}, {engine}, {} requests, seed {}, trace {})",
        w.name,
        w.scenario,
        w.requests,
        args.seed,
        u8::from(args.trace)
    );
    print!("{report}");
    for (name, v) in fidelity.named() {
        println!("  {name:<28} {v:.6}");
    }
    println!(
        "  failed_frac   {} ({} of {} runs)",
        checks.failed_frac(),
        checks.failed,
        checks.attempted
    );
    println!(
        "  simulated: completed {} dropped {} orphaned {} mean latency {:.6} p99 {:.6} \
         max normalized queue {:.6}",
        m.completed, m.dropped, m.orphaned, m.latency_mean, m.latency[2], m.max_normalized_queue
    );
    println!(
        "  digest {:016x} (FNV-1a of the cluster-sim metrics table)",
        digest(m)
    );
    for f in &checks.failures {
        println!("  CHECK FAILED: {f}");
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .expect("every declared metric is measured");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
