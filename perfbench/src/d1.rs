//! `d1-stream`: one drone running D1 (F1 little, M1.0 big) through
//! `FrameRunner::run_frame` in a closed loop: the next frame starts as
//! soon as the last inference ends. Input is the Known-environment
//! flight sequences replayed in temporal order, cycling, with the policy
//! reset at each sequence start.

use crate::common::{
    alternate_pools, op_costs, proxy, quantize, report_cpu, report_latency, same_result, Ctx,
    Gap8Tally, Overhead, Report, Setups, TH,
};
use crate::spans::Spans;
use crate::{alloc, stats};
use np_adaptive::{CostModel, FrameResult, FrameRunner};
use np_dataset::{DatasetConfig, PoseDataset};
use np_quant::{QScratch, QuantizedProgram};
use np_tensor::parallel::Pool;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rendered Known sequences (60 frames each). The escalation rate, and
/// with it the cost of a pass, varies from sequence to sequence; 100 of
/// them keep its spread across seeds to about 3%.
const SEQS: usize = 100;
/// Frames run before timing starts.
const WARMUP_FRAMES: usize = 300;
/// Frames per traced / untraced window in the traced run.
const WINDOW_FRAMES: usize = 256;
/// Calls per pool block in the replay.
const REPLAY_BLOCK: usize = 200;

/// Per-layer metrics of layers this workload never calls: it batches no
/// big frames, builds no table and serves no sessions.
pub const BYPASSED: &[&str] = &[
    "np-quant.big_batched_us_per_frame",
    "np-quant.big_batch_frames",
    "np-quant.eval_us_per_frame",
    "np-adaptive.table_s",
    "np-adaptive.sweep_s",
    "np-serve.tick_us",
    "np-serve.frames_per_tick",
    "np-serve.queue_wait_us",
    "np-serve.service_us",
    "np-serve.admit_us",
    "np-serve.retire_us",
];

struct Setup {
    little: Arc<QuantizedProgram>,
    big: Arc<QuantizedProgram>,
    runner: FrameRunner,
    costs: CostModel,
}

fn setup(
    f1: &np_nn::Sequential,
    m10: &np_nn::Sequential,
    calib: &np_tensor::Tensor,
    spans: &mut Spans,
) -> Setup {
    let little_q = quantize(f1, calib, spans);
    let big_q = quantize(m10, calib, spans);
    let s = spans.open("np-quant.compile", 0);
    let little = little_q.compile_shared(PROXY_INPUT);
    let big = big_q.compile_shared(PROXY_INPUT);
    spans.close(s);
    let runner = FrameRunner::from_programs(little.clone(), big.clone(), TH, Pool::global());
    let costs = op_costs(f1, m10, spans);
    Setup {
        little,
        big,
        runner,
        costs,
    }
}

pub fn run(ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let data = PoseDataset::generate(&DatasetConfig {
        seed: ctx.seed,
        n_sequences: SEQS,
        ..DatasetConfig::known()
    });
    let n = data.len();
    let frames: Vec<&[f32]> = (0..n).map(|i| data.frame(i).image.as_slice()).collect();
    let seq_start: Vec<bool> = (0..n)
        .map(|i| i == 0 || data.frame(i).seq != data.frame(i - 1).seq)
        .collect();
    let calib = crate::common::calib_batch();
    let (f1, m10) = (proxy(ModelId::F1), proxy(ModelId::M10));

    // The exactness reference: one isolated serial runner per sequence
    // (sequences fan out over the pool; each runner stays serial). Built
    // before the heap baseline and before any timing.
    let expect: Vec<FrameResult> = {
        let s = setup(&f1, &m10, &calib, &mut Spans::new(0));
        let starts: Vec<usize> = (0..n).filter(|&i| seq_start[i]).chain([n]).collect();
        Pool::global()
            .map(starts.len() - 1, |q| {
                let mut reference =
                    FrameRunner::from_programs(s.little.clone(), s.big.clone(), TH, Pool::serial());
                (starts[q]..starts[q + 1])
                    .map(|i| reference.run_frame(frames[i]))
                    .collect::<Vec<_>>()
            })
            .concat()
    };
    let mut lat_ns: Vec<u64> = Vec::with_capacity((ctx.seconds * 50_000.0) as usize + 1);

    let build = |sp: &mut Spans| setup(&f1, &m10, &calib, sp);
    let (mut setups, s) = Setups::first(ctx, spans, build);
    let Setup {
        little,
        big,
        mut runner,
        costs,
    } = s;

    let mut i = 0;
    for _ in 0..WARMUP_FRAMES {
        if seq_start[i] {
            runner.reset();
        }
        black_box(runner.run_frame(frames[i]));
        i = (i + 1) % n;
    }

    let mut gap8 = Gap8Tally::default();
    let mut big_frames = 0u64;
    let mut overhead = Overhead::default();
    let mut traced = false;
    spans.on = false;
    let allocs_before = alloc::allocs();
    let cpu_before = stats::process_cpu_ns();
    let mut start = Instant::now();
    let mut window_start = start;
    while !ctx.done(start) && lat_ns.len() < lat_ns.capacity() {
        let paused = setups.catch_up(ctx, start, spans, build);
        start += paused;
        window_start += paused;
        if seq_start[i] {
            runner.reset();
        }
        let t0 = Instant::now();
        let r = runner.run_frame(black_box(frames[i]));
        let t1 = Instant::now();
        lat_ns.push((t1 - t0).as_nanos() as u64);
        spans.record("np-adaptive.run_frame", t0, t1, lat_ns.len() as u64);
        report.check(same_result(&r, &expect[i]));
        gap8.add(&costs, r.decision);
        big_frames += r.decision.runs_big() as u64;
        i = (i + 1) % n;
        if ctx.trace && lat_ns.len().is_multiple_of(WINDOW_FRAMES) {
            let now = Instant::now();
            overhead.add(
                traced,
                (now - window_start).as_nanos() as u64,
                WINDOW_FRAMES as u64,
            );
            window_start = now;
            traced = !traced;
            spans.on = traced;
        }
    }
    let (setup_cpu_ns, setup_allocs) = setups.spent();
    let cpu_ns = stats::process_cpu_ns() - cpu_before - setup_cpu_ns;
    let allocs = alloc::allocs() - allocs_before - setup_allocs;
    let peak_heap = setups.peak_heap();
    setups.report(&mut report, spans, build);
    let frames_run = lat_ns.len();
    let busy_ns: u64 = lat_ns.iter().sum();
    let mean_frame_us = busy_ns as f64 / frames_run as f64 / 1e3;

    report.e2e(
        "throughput_fps",
        "1/s",
        frames_run as f64 / (busy_ns as f64 / 1e9),
        frames_run,
        "frames per second of run_frame time, closed loop",
    );
    report_cpu(&mut report, cpu_ns, frames_run);
    report_latency(&mut report, &mut lat_ns, "per run_frame");
    report.e2e(
        "gap8_mj_per_frame",
        "mJ",
        gap8.mj_per_frame(&costs),
        frames_run,
        "Eq. 2 over the run's decisions",
    );
    report.e2e(
        "peak_heap_bytes",
        "bytes",
        peak_heap as f64,
        1,
        "peak live heap after set-up, above the rendered inputs",
    );

    let frac_big = big_frames as f64 / frames_run as f64;
    report.layer(
        "np-adaptive.frac_big",
        "frac",
        frac_big,
        frames_run,
        "frames escalated to M1.0",
    );
    report.layer(
        "np-gap8.cycles_per_frame",
        "cycles",
        gap8.cycles_per_frame(),
        frames_run,
        "analytic plans, run's decisions",
    );
    report.layer(
        "np-quant.allocs_per_frame",
        "count",
        allocs as f64 / frames_run as f64,
        frames_run,
        "heap allocations per timed frame",
    );
    if !ctx.trace {
        return report;
    }
    report.layer(
        "bench.trace_overhead_frac",
        "frac",
        overhead.frac(),
        frames_run,
        "traced vs untraced windows, wall time per frame",
    );

    // Replay the pass's np-quant calls: the little program on every
    // frame, the big one where the reference escalated.
    spans.on = true;
    let calls: Vec<(usize, bool)> = (0..n)
        .flat_map(|f| {
            let big_call = expect[f].decision.runs_big().then_some((f, true));
            std::iter::once((f, false)).chain(big_call)
        })
        .collect();
    let mut scratch = QScratch::for_programs(&[&little, &big]);
    let (global_ns, serial_ns) = alternate_pools(calls.len(), REPLAY_BLOCK, |pool, serial, c| {
        let (f, is_big) = calls[c];
        let program = if is_big { &big } else { &little };
        let t0 = Instant::now();
        black_box(program.forward_prepacked(pool, &mut scratch, frames[f]));
        if !serial {
            let name = if is_big {
                "np-quant.big"
            } else {
                "np-quant.little"
            };
            spans.record(name, t0, Instant::now(), f as u64);
        }
    });
    let (n_little, little_us) = spans.mean_us("np-quant.little");
    let (n_big, big_us) = spans.mean_us("np-quant.big");
    report.layer(
        "np-quant.little_us",
        "us",
        little_us,
        n_little,
        "F1 forward_prepacked, global pool",
    );
    report.layer(
        "np-quant.big_us",
        "us",
        big_us,
        n_big,
        "M1.0 forward_prepacked, global pool",
    );
    report.layer(
        "np-tensor.pool_speedup_x",
        "x",
        serial_ns as f64 / global_ns as f64,
        calls.len(),
        "serial / global time, same replayed calls",
    );
    report.layer(
        "np-adaptive.runner_overhead_us",
        "us",
        mean_frame_us - little_us - frac_big * big_us,
        frames_run,
        "run_frame - little - frac_big * big",
    );
    report
}
