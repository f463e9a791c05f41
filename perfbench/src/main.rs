//! End-to-end and per-layer benchmark of the nanopose runtime.
//!
//! ```text
//! perfbench --workload <d1-stream|d2-fleet|policy-sweep> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Renders the workload's inputs from `--seed`, sets the program up
//! several times, measures for `--seconds`, checks every result against
//! a serial reference, and prints a human-readable report followed by
//! one JSON line: `--trace 0` reports the end-to-end metrics of an
//! untraced run, `--trace 1` the per-layer metrics of a traced run. See
//! `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod common;
mod d1;
mod d2;
mod spans;
mod stats;
mod sweep;

use common::{Ctx, Metric, Report};
use spans::Spans;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Spans the traced run can hold before it starts dropping them.
const SPAN_CAPACITY: usize = 1 << 20;

/// Every per-layer metric, in report order, with its unit. A metric of a
/// layer the workload never calls (its `BYPASSED` list) is reported as 0
/// with n = 0; any other metric missing or without samples fails the run.
const LAYER_METRICS: [(&str, &str); 22] = [
    ("np-quant.little_us", "us"),
    ("np-quant.big_us", "us"),
    ("np-quant.big_batched_us_per_frame", "us"),
    ("np-quant.big_batch_frames", "count"),
    ("np-quant.eval_us_per_frame", "us"),
    ("np-quant.quantize_s", "s"),
    ("np-quant.compile_s", "s"),
    ("np-dory.deploy_s", "s"),
    ("np-quant.allocs_per_frame", "count"),
    ("np-tensor.pool_speedup_x", "x"),
    ("np-adaptive.frac_big", "frac"),
    ("np-adaptive.runner_overhead_us", "us"),
    ("np-adaptive.table_s", "s"),
    ("np-adaptive.sweep_s", "s"),
    ("np-serve.tick_us", "us"),
    ("np-serve.frames_per_tick", "count"),
    ("np-serve.queue_wait_us", "us"),
    ("np-serve.service_us", "us"),
    ("np-serve.admit_us", "us"),
    ("np-serve.retire_us", "us"),
    ("np-gap8.cycles_per_frame", "cycles"),
    ("bench.trace_overhead_frac", "frac"),
];

/// End-to-end metrics every workload reports with `--trace 0`; the
/// report also prints `throughput_fps` and `latency_p99_us`, which are
/// not in the result because hypervisor steal on a shared host moves them
/// by far more than any bound (see README.md).
const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "latency_p50_us",
    "latency_p90_us",
    "cpu_us_per_frame",
    "gap8_mj_per_frame",
    "peak_heap_bytes",
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <d1-stream|d2-fleet|policy-sweep> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Ctx) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) => (
            w,
            Ctx {
                seed,
                seconds,
                trace,
            },
        ),
        _ => usage(),
    }
}

fn print_metric(kind: &str, m: &Metric) {
    println!(
        "{kind:<6} {:<34} {:>14.4} {:<6} n={:<8} {}",
        m.name, m.value, m.unit, m.n, m.note
    );
}

fn json_metrics(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let (workload, ctx) = parse_args();
    type Run = fn(&Ctx, &mut Spans) -> Report;
    let (run, bypassed): (Run, &[&str]) = match workload.as_str() {
        "d1-stream" => (d1::run, d1::BYPASSED),
        "d2-fleet" => (d2::run, d2::BYPASSED),
        "policy-sweep" => (sweep::run, sweep::BYPASSED),
        _ => usage(),
    };
    println!("fingerprint {}", common::fingerprint());
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let mut spans = Spans::new(if ctx.trace { SPAN_CAPACITY } else { 0 });
    let mut report = run(&ctx, &mut spans);

    if ctx.trace {
        for (name, unit) in LAYER_METRICS {
            let samples = report.layer.iter().find(|m| m.name == name).map(|m| m.n);
            match samples {
                Some(n) if n > 0 => {}
                None if bypassed.contains(&name) => {
                    report.layer(name, unit, 0.0, 0, "layer bypassed by this workload")
                }
                _ => {
                    eprintln!("perfbench: {workload} reported no samples of {name}");
                    std::process::exit(1);
                }
            }
        }
    }
    for m in &report.e2e {
        print_metric("e2e", m);
    }
    if ctx.trace {
        for m in &report.layer {
            print_metric("layer", m);
        }
        let (kept, dropped) = spans.counts();
        let path =
            PathBuf::from(".bench_out").join(format!("spans-{workload}-seed{}.tsv", ctx.seed));
        match spans.write_tsv(&path) {
            Ok(()) => println!(
                "spans  {kept} kept, {dropped} dropped, written to {}",
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!(
        "checks {} attempted, {} failed (drops, mismatches against the serial reference)",
        report.attempted, report.failed
    );

    let chosen: Vec<&Metric> = if ctx.trace {
        LAYER_METRICS
            .iter()
            .map(|(name, _)| {
                report
                    .layer
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("filled above")
            })
            .collect()
    } else {
        E2E_METRICS
            .iter()
            .map(|name| {
                report
                    .e2e
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{workload} did not report {name}"))
            })
            .collect()
    };
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(&chosen)
    );
    if !correct {
        std::process::exit(1);
    }
}
