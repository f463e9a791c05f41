//! `policy-sweep`: the offline work behind paper Fig. 4/5, without
//! plotting. Each pass builds an `ErrorMap` from validation features and
//! an `EvalTable` on the test split, both from quantized F1, M1.0 and
//! aux-8×6 networks, then sweeps the OP, Aux-HLC, Aux-SM and Random
//! policies and extracts the Pareto front.
//!
//! Sequences are 64 frames long, so each `build_for_indices_with` call
//! covers one sequence in exactly one batch-64 `forward_with` per model;
//! those calls are the latency samples.

use crate::common::{
    alternate_pools, proxy, quantize, report_cpu, report_latency, Ctx, Overhead, Report, Setups, TH,
};
use crate::spans::Spans;
use crate::{alloc, stats};
use np_adaptive::features::Backend;
use np_adaptive::sweep::{
    pareto_front, sweep_aux_hlc_with, sweep_aux_sm_with, sweep_op_with, sweep_random_with,
};
use np_adaptive::{
    evaluate_policy, CostModel, ErrorMap, EvalTable, FrameFeatures, OpPolicy, OperatingPoint,
};
use np_dataset::{DatasetConfig, GridSpec, PoseDataset};
use np_dory::deploy_analytic;
use np_gap8::Gap8Config;
use np_quant::QuantizedNetwork;
use np_tensor::parallel::Pool;
use np_tensor::Tensor;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::hint::black_box;
use std::time::Instant;

/// Rendered sequences: 20 validation and 10 test sequences per pass.
const SEQS: usize = 100;
const SEQ_FRAMES: usize = 64;
const GRID: GridSpec = GridSpec::GRID_8X6;
/// Operating points per threshold sweep (Random: `RANDOM_POINTS`).
const SWEEP_POINTS: usize = 15;
const RANDOM_POINTS: usize = 11;
/// Sequences replayed per pool in the traced run.
const REPLAY_SEQS: usize = 8;

/// Per-layer metrics of layers this workload never calls: it runs no
/// compiled program, no `FrameRunner` and no server.
pub const BYPASSED: &[&str] = &[
    "np-quant.compile_s",
    "np-quant.little_us",
    "np-quant.big_us",
    "np-quant.big_batched_us_per_frame",
    "np-quant.big_batch_frames",
    "np-adaptive.runner_overhead_us",
    "np-serve.tick_us",
    "np-serve.frames_per_tick",
    "np-serve.queue_wait_us",
    "np-serve.service_us",
    "np-serve.admit_us",
    "np-serve.retire_us",
];

struct Setup {
    little: QuantizedNetwork,
    big: QuantizedNetwork,
    aux: QuantizedNetwork,
    costs: CostModel,
}

fn setup(models: &[np_nn::Sequential; 3], calib: &Tensor, spans: &mut Spans) -> Setup {
    let [little, big, aux] = models.each_ref().map(|m| quantize(m, calib, spans));
    let s = spans.open("np-dory.deploy", 0);
    let gap8 = Gap8Config::default();
    let [small_plan, big_plan, aux_plan] = models
        .each_ref()
        .map(|m| deploy_analytic(&m.describe(PROXY_INPUT), &gap8).expect("proxy model fits GAP8"));
    spans.close(s);
    Setup {
        little,
        big,
        aux,
        costs: CostModel::new(&small_plan, &big_plan, &aux_plan),
    }
}

/// The inputs of one pass: validation and test sequences of the render.
struct Inputs {
    data: PoseDataset,
    val: Vec<Vec<usize>>,
    test: Vec<Vec<usize>>,
    truth_cells: Vec<usize>,
}

impl Inputs {
    fn frames(&self) -> usize {
        (self.val.len() + self.test.len()) * SEQ_FRAMES
    }
}

/// Features of one sequence, timed into `lat_ns`.
fn features(
    pool: Pool,
    s: &Setup,
    data: &PoseDataset,
    seq: &[usize],
    lat_ns: &mut Vec<u64>,
) -> Vec<FrameFeatures> {
    let t = Instant::now();
    let f = EvalTable::build_for_indices_with(
        pool,
        data,
        &mut Backend::Quantized(&s.little),
        &mut Backend::Quantized(&s.big),
        &mut Backend::Quantized(&s.aux),
        GRID,
        seq,
    );
    lat_ns.push(t.elapsed().as_nanos() as u64);
    f
}

/// One pass: error map, test table, four sweeps, Pareto front. Also
/// returns every sequence's features (validation, then test).
fn pass(
    pool: Pool,
    s: &Setup,
    inputs: &Inputs,
    spans: &mut Spans,
    lat_ns: &mut Vec<u64>,
    pass_no: u64,
) -> (Vec<OperatingPoint>, Vec<Vec<FrameFeatures>>) {
    let sp = spans.open("np-adaptive.table", pass_no);
    let mut sequences: Vec<Vec<FrameFeatures>> = inputs
        .val
        .iter()
        .map(|seq| features(pool, s, &inputs.data, seq, lat_ns))
        .collect();
    let map = ErrorMap::build(GRID, &sequences.concat(), &inputs.truth_cells);
    let table = EvalTable {
        sequences: inputs
            .test
            .iter()
            .map(|seq| features(pool, s, &inputs.data, seq, lat_ns))
            .collect(),
        grid: GRID,
    };
    spans.close(sp);
    let sp = spans.open("np-adaptive.sweep", pass_no);
    let mut points = sweep_op_with(pool, &table, &s.costs, SWEEP_POINTS);
    points.extend(sweep_aux_hlc_with(
        pool,
        &table,
        &s.costs,
        &map,
        SWEEP_POINTS,
    ));
    points.extend(sweep_aux_sm_with(pool, &table, &s.costs, SWEEP_POINTS));
    points.extend(sweep_random_with(pool, &table, &s.costs, RANDOM_POINTS));
    let front = pareto_front(&points);
    spans.close(sp);
    sequences.extend(table.sequences);
    (front, sequences)
}

pub fn run(ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let data = PoseDataset::generate(&DatasetConfig {
        seed: ctx.seed,
        n_sequences: SEQS,
        frames_per_seq: SEQ_FRAMES,
        ..DatasetConfig::known()
    });
    let val: Vec<Vec<usize>> = data
        .val_indices()
        .chunks(SEQ_FRAMES)
        .map(<[usize]>::to_vec)
        .collect();
    let truth_cells = data.grid_labels(&data.val_indices(), GRID);
    let test = data.test_sequences();
    let calib = crate::common::calib_batch();
    let inputs = Inputs {
        data,
        val,
        test,
        truth_cells,
    };
    let models = [
        proxy(ModelId::F1),
        proxy(ModelId::M10),
        proxy(ModelId::Aux(GRID)),
    ];
    let mut lat_ns: Vec<u64> = Vec::with_capacity((ctx.seconds * 1_000.0) as usize + 64);

    let build = |sp: &mut Spans| setup(&models, &calib, sp);
    let (mut setups, s) = Setups::first(ctx, spans, build);

    // Warm-up pass; its front is the one every later pass must repeat.
    let (front, _) = pass(
        Pool::global(),
        &s,
        &inputs,
        spans,
        &mut Vec::with_capacity(64),
        0,
    );

    // The traced run alternates traced and untraced passes.
    let mut overhead = Overhead::default();
    let allocs_before = alloc::allocs();
    let cpu_before = stats::process_cpu_ns();
    let mut passes = 0u64;
    let mut busy_ns = 0u64;
    let mut start = Instant::now();
    let mut sequences = Vec::new();
    while !ctx.done(start) {
        start += setups.catch_up(ctx, start, spans, build);
        let traced = ctx.trace && passes % 2 == 1;
        spans.on = traced;
        let t = Instant::now();
        let (f, seqs) = pass(Pool::global(), &s, &inputs, spans, &mut lat_ns, passes + 1);
        let ns = t.elapsed().as_nanos() as u64;
        busy_ns += ns;
        overhead.add(traced, ns, inputs.frames() as u64);
        passes += 1;
        report.check(f == front);
        sequences = seqs;
    }
    let (setup_cpu_ns, setup_allocs) = setups.spent();
    let cpu_ns = stats::process_cpu_ns() - cpu_before - setup_cpu_ns;
    let allocs = alloc::allocs() - allocs_before - setup_allocs;
    let peak_heap = setups.peak_heap();
    setups.report(&mut report, spans, build);

    // Exactness: the same pass on a serial pool must give the same front.
    let (serial_front, _) = pass(
        Pool::serial(),
        &s,
        &inputs,
        &mut Spans::new(0),
        &mut Vec::with_capacity(64),
        0,
    );
    report.check(serial_front == front);

    let table_frames = passes as usize * inputs.frames();
    report.e2e(
        "throughput_fps",
        "1/s",
        table_frames as f64 / (busy_ns as f64 / 1e9),
        table_frames,
        "table frames per second, through to the Pareto front",
    );
    report_cpu(&mut report, cpu_ns, table_frames);
    report_latency(&mut report, &mut lat_ns, "per 64-frame table call");
    // OP over every rendered validation and test sequence of the pass.
    let op_table = EvalTable {
        sequences,
        grid: GRID,
    };
    let op = evaluate_policy(&mut OpPolicy::new(TH), &op_table, &s.costs);
    report.e2e(
        "gap8_mj_per_frame",
        "mJ",
        op.energy_mj,
        op.n_frames,
        format!("OP at th = {TH}, validation + test sequences"),
    );
    report.e2e(
        "peak_heap_bytes",
        "bytes",
        peak_heap as f64,
        1,
        "peak live heap after set-up, above the rendered inputs",
    );
    report.layer(
        "np-adaptive.frac_big",
        "frac",
        op.frac_big,
        op.n_frames,
        format!("OP at th = {TH}"),
    );
    report.layer(
        "np-gap8.cycles_per_frame",
        "cycles",
        op.mean_cycles,
        op.n_frames,
        format!("OP at th = {TH}"),
    );
    report.layer(
        "np-quant.allocs_per_frame",
        "count",
        allocs as f64 / table_frames as f64,
        table_frames,
        "heap allocations per table frame",
    );
    if !ctx.trace {
        return report;
    }
    for (metric, span) in [
        ("np-adaptive.table_s", "np-adaptive.table"),
        ("np-adaptive.sweep_s", "np-adaptive.sweep"),
    ] {
        let (n, us) = spans.mean_us(span);
        report.layer(metric, "s", us / 1e6, n, "mean per traced pass");
    }
    report.layer(
        "bench.trace_overhead_frac",
        "frac",
        overhead.frac(),
        passes as usize,
        "traced vs untraced passes, busy time per table frame",
    );

    // Replay the batch-64 forward_with calls of the three networks.
    spans.on = true;
    let batches: Vec<Tensor> = inputs
        .test
        .iter()
        .cycle()
        .take(REPLAY_SEQS)
        .map(|seq| inputs.data.images_tensor(seq))
        .collect();
    let nets = [&s.little, &s.big, &s.aux];
    let (global_ns, serial_ns) =
        alternate_pools(batches.len() * nets.len(), nets.len(), |pool, serial, c| {
            let t0 = Instant::now();
            black_box(nets[c % nets.len()].forward_with(pool, &batches[c / nets.len()]));
            if !serial {
                spans.record("np-quant.forward_with", t0, Instant::now(), c as u64);
            }
        });
    let (n_calls, call_us) = spans.mean_us("np-quant.forward_with");
    report.layer(
        "np-quant.eval_us_per_frame",
        "us",
        call_us * nets.len() as f64 / SEQ_FRAMES as f64,
        n_calls,
        "F1 + M1.0 + aux forward_with at batch 64, per frame",
    );
    report.layer(
        "np-tensor.pool_speedup_x",
        "x",
        serial_ns as f64 / global_ns as f64,
        n_calls,
        "serial / global time, same replayed calls",
    );
    report
}
