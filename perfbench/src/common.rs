//! What the three workloads share: run context, metric report, host
//! fingerprint, models, repeated set-up and pool-alternating replays.

use crate::spans::Spans;
use crate::{alloc, stats};
use np_adaptive::{CostModel, Decision, FrameResult};
use np_dataset::{DatasetConfig, PoseDataset};
use np_dory::deploy_analytic;
use np_gap8::perf::CycleBreakdown;
use np_gap8::Gap8Config;
use np_nn::init::SmallRng;
use np_nn::Sequential;
use np_quant::{kernel_isa, QuantizedNetwork};
use np_tensor::parallel::Pool;
use np_tensor::Tensor;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::time::{Duration, Instant};

/// OP threshold of every workload (paper operating point used by the
/// serving and pipeline benches).
pub const TH: f32 = 0.05;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Calibration frames fed to `QuantizedNetwork::quantize`.
const CALIB_FRAMES: usize = 16;

/// Command-line arguments of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// Whether the measured loop has run long enough.
    pub fn done(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// One reported number with its unit and the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub note: String,
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct Report {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn e2e(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        n: usize,
        note: impl Into<String>,
    ) {
        self.e2e.push(Metric {
            name,
            unit,
            value,
            n,
            note: note.into(),
        });
    }

    pub fn layer(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        n: usize,
        note: impl Into<String>,
    ) {
        self.layer.push(Metric {
            name,
            unit,
            value,
            n,
            note: note.into(),
        });
    }

    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The host and configuration a result was measured on, as one JSON
/// object. Results whose fingerprints differ are never compared.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cpu\": {:?}, \"nproc\": {nproc}, \"kernel_isa\": {:?}, \"pool_threads\": {}, \
         \"NP_THREADS\": {:?}, \"NP_ISA\": {:?}, \"NP_CALIB\": {:?}, \"profile\": {:?}}}",
        cpu,
        kernel_isa().as_str(),
        Pool::global().threads(),
        env("NP_THREADS"),
        env("NP_ISA"),
        env("NP_CALIB"),
        profile,
    )
}

/// The seeded float proxy of `id`. Weights are fixed per model, not per
/// run seed: the seed chooses the inputs, the models are the program.
/// Untrained proxies escalate at rates that swing from 2% to 56% with the
/// weight seed; these seeds put D1 at about 29% on Known frames and D2 at
/// about 12% on Unseen frames (th = 0.05), so d1-stream loads M1.0 and
/// d2-fleet mostly bypasses it.
pub fn proxy(id: ModelId) -> Sequential {
    let seed = match id {
        ModelId::F1 => 10,
        ModelId::F2 => 6,
        ModelId::M10 => 13,
        ModelId::Aux(_) => 14,
    };
    id.build_proxy(&mut SmallRng::seed(seed))
}

/// Calibration batch for `QuantizedNetwork::quantize`: training frames of
/// a fixed small render. Like the weights, it is part of the program and
/// does not change with the run seed.
pub fn calib_batch() -> Tensor {
    let data = PoseDataset::generate(&DatasetConfig::tiny());
    let train = data.train_indices();
    data.images_tensor(&train[..CALIB_FRAMES])
}

/// `QuantizedNetwork::quantize` inside an `np-quant.quantize` span.
pub fn quantize(model: &Sequential, calib: &Tensor, spans: &mut Spans) -> QuantizedNetwork {
    let s = spans.open("np-quant.quantize", 0);
    let q = QuantizedNetwork::quantize(model, calib);
    spans.close(s);
    q
}

/// The set-ups timed for `setup_s`. The first is built before the
/// measured loop and kept; the other `SETUPS - 1` are spread evenly over
/// the loop, each built and dropped at once. A host speed state lasts
/// longer than a burst of set-ups, so set-ups timed back to back all land
/// in one state; spread out, their median follows the whole run. The
/// loop's CPU time, allocation count and heap peak leave them out.
pub struct Setups {
    trace: bool,
    secs: Vec<f64>,
    cpu_ns: u64,
    allocs: usize,
    heap_base: usize,
    peak: usize,
}

impl Setups {
    /// Starts heap tracking, then builds and times the first set-up. The
    /// heap it keeps counts towards the peak; its transient peak does not.
    pub fn first<T>(
        ctx: &Ctx,
        spans: &mut Spans,
        build: impl FnOnce(&mut Spans) -> T,
    ) -> (Self, T) {
        let heap_base = alloc::reset_peak();
        let mut setups = Setups {
            trace: ctx.trace,
            secs: Vec::with_capacity(SETUPS),
            cpu_ns: 0,
            allocs: 0,
            heap_base,
            peak: 0,
        };
        let built = setups.timed(spans, build);
        alloc::reset_peak();
        (setups, built)
    }

    /// Builds one set-up with spans on in the traced run, and times it.
    fn timed<T>(&mut self, spans: &mut Spans, build: impl FnOnce(&mut Spans) -> T) -> T {
        let on = spans.on;
        spans.on = self.trace;
        let t = Instant::now();
        let span = spans.open("bench.setup", self.secs.len() as u64);
        spans.scope = span;
        let built = build(spans);
        spans.scope = crate::spans::NONE;
        spans.close(span);
        self.secs.push(t.elapsed().as_secs_f64());
        spans.on = on;
        built
    }

    /// Builds, times and drops every set-up due by now in a measured loop
    /// of `ctx.seconds` that started at `loop_start`. Returns the wall
    /// time they took; the caller moves its loop clocks on by as much.
    pub fn catch_up<T>(
        &mut self,
        ctx: &Ctx,
        loop_start: Instant,
        spans: &mut Spans,
        mut build: impl FnMut(&mut Spans) -> T,
    ) -> Duration {
        let elapsed = loop_start.elapsed().as_secs_f64();
        let due = (1 + (elapsed / ctx.seconds * SETUPS as f64) as usize).min(SETUPS);
        let t = Instant::now();
        while self.secs.len() < due {
            self.peak = self.peak.max(alloc::peak());
            let (cpu0, allocs0) = (stats::process_cpu_ns(), alloc::allocs());
            drop(self.timed(spans, &mut build));
            self.cpu_ns += stats::process_cpu_ns() - cpu0;
            self.allocs += alloc::allocs() - allocs0;
            alloc::reset_peak();
        }
        t.elapsed()
    }

    /// CPU time (ns) and allocations spent in set-ups inside the loop.
    pub fn spent(&self) -> (u64, usize) {
        (self.cpu_ns, self.allocs)
    }

    /// Peak live heap since [`Setups::first`] began, above the live heap
    /// at that point, outside the set-ups' own transient peaks.
    pub fn peak_heap(&self) -> usize {
        self.peak.max(alloc::peak()) - self.heap_base
    }

    /// Runs the set-ups the loop ended too early for, then reports
    /// `setup_s` and the per-layer set-up splits recorded as spans (those
    /// the set-up calls; none in the untraced run).
    pub fn report<T>(
        mut self,
        report: &mut Report,
        spans: &mut Spans,
        mut build: impl FnMut(&mut Spans) -> T,
    ) {
        while self.secs.len() < SETUPS {
            drop(self.timed(spans, &mut build));
        }
        report.e2e(
            "setup_s",
            "s",
            stats::median(&self.secs),
            self.secs.len(),
            "median of set-ups spread over the run",
        );
        for (metric, span) in [
            ("np-quant.quantize_s", "np-quant.quantize"),
            ("np-quant.compile_s", "np-quant.compile"),
            ("np-dory.deploy_s", "np-dory.deploy"),
        ] {
            let (n, mean_us) = spans.mean_us(span);
            if n > 0 {
                report.layer(
                    metric,
                    "s",
                    n as f64 * mean_us / 1e6 / self.secs.len() as f64,
                    n,
                    "mean per set-up",
                );
            }
        }
    }
}

/// Times the same calls under `Pool::global()` and `Pool::serial()`,
/// alternating in blocks of `block` calls (and which pool goes first) so
/// host speed changes fall on both sides alike. `call(pool, serial, i)`
/// runs call `i`. Returns total global and serial nanoseconds.
pub fn alternate_pools(
    n_calls: usize,
    block: usize,
    mut call: impl FnMut(Pool, bool, usize),
) -> (u64, u64) {
    let (mut global_ns, mut serial_ns) = (0u64, 0u64);
    for (b, start) in (0..n_calls).step_by(block).enumerate() {
        let end = (start + block).min(n_calls);
        let sides = [(false, Pool::global()), (true, Pool::serial())];
        let order = if b % 2 == 0 {
            sides
        } else {
            [sides[1], sides[0]]
        };
        for (serial, pool) in order {
            let t = Instant::now();
            for i in start..end {
                call(pool, serial, i);
            }
            let ns = t.elapsed().as_nanos() as u64;
            if serial {
                serial_ns += ns;
            } else {
                global_ns += ns;
            }
        }
    }
    (global_ns, serial_ns)
}

/// Alternates a traced and an untraced window of measured work and keeps
/// their busy time apart, so the tracing overhead is measured under the
/// same host conditions as the work itself.
#[derive(Default)]
pub struct Overhead {
    ns: [u64; 2],
    units: [u64; 2],
}

impl Overhead {
    pub fn add(&mut self, traced: bool, ns: u64, units: u64) {
        self.ns[traced as usize] += ns;
        self.units[traced as usize] += units;
    }

    /// Traced time per unit over untraced time per unit, minus one.
    pub fn frac(&self) -> f64 {
        let per = |i: usize| self.ns[i] as f64 / self.units[i].max(1) as f64;
        if self.units[0] == 0 || self.units[1] == 0 {
            0.0
        } else {
            per(1) / per(0) - 1.0
        }
    }
}

/// The Eq. 2 cost model of a big/little pair, priced by
/// `np_dory::deploy_analytic` plans of the networks the workload runs
/// (so `NP_CALIB` has no effect). OP decisions never price the aux CNN,
/// so the little plan stands in for it.
pub fn op_costs(little: &Sequential, big: &Sequential, spans: &mut Spans) -> CostModel {
    let s = spans.open("np-dory.deploy", 0);
    let gap8 = Gap8Config::default();
    let plan = |net: &Sequential| {
        deploy_analytic(&net.describe(PROXY_INPUT), &gap8).expect("proxy model fits GAP8")
    };
    let (little_plan, big_plan) = (plan(little), plan(big));
    spans.close(s);
    CostModel::new(&little_plan, &big_plan, &little_plan)
}

/// Modelled GAP8 cycles and energy of a run's decisions (paper Eq. 2).
#[derive(Default)]
pub struct Gap8Tally {
    cycles: CycleBreakdown,
    frames: u64,
}

impl Gap8Tally {
    pub fn add(&mut self, costs: &CostModel, decision: Decision) {
        self.cycles = self.cycles.add(&costs.frame_cycles(decision, false));
        self.frames += 1;
    }

    pub fn cycles_per_frame(&self) -> f64 {
        self.cycles.total() as f64 / self.frames.max(1) as f64
    }

    /// Energy of the mean frame, in millijoules.
    pub fn mj_per_frame(&self, costs: &CostModel) -> f64 {
        let n = self.frames.max(1);
        costs.to_mj(&CycleBreakdown {
            compute: self.cycles.compute / n,
            dma_stall: self.cycles.dma_stall / n,
            setup: self.cycles.setup / n,
        })
    }
}

/// Bit-for-bit equality of two ensemble results.
pub fn same_result(a: &FrameResult, b: &FrameResult) -> bool {
    let bits = |v: &[f32; 4]| v.map(f32::to_bits);
    a.decision == b.decision
        && bits(&a.scaled) == bits(&b.scaled)
        && bits(&a.little_scaled) == bits(&b.little_scaled)
        && a.big_scaled.map(|v| bits(&v)) == b.big_scaled.map(|v| bits(&v))
}

/// Reports `latency_p50_us`, `latency_p90_us` and `latency_p99_us` of
/// `lat_ns`, each with its sample count and the samples beyond it.
pub fn report_latency(report: &mut Report, lat_ns: &mut [u64], what: &str) {
    for (name, q) in [
        ("latency_p50_us", 0.50),
        ("latency_p90_us", 0.90),
        ("latency_p99_us", 0.99),
    ] {
        let p = stats::percentile(lat_ns, q);
        let short = if p.beyond < 10 {
            " (under 10: not resolved)"
        } else {
            ""
        };
        report.e2e(
            name,
            "us",
            p.us,
            p.n,
            format!("{what}, {} beyond{short}", p.beyond),
        );
    }
}

/// Reports `cpu_us_per_frame`: CPU time of every thread of the process
/// over the measured loop, per frame.
pub fn report_cpu(report: &mut Report, cpu_ns: u64, frames: usize) {
    report.e2e(
        "cpu_us_per_frame",
        "us",
        cpu_ns as f64 / frames as f64 / 1e3,
        frames,
        "process CPU time, all threads",
    );
}
