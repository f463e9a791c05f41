//! `d2-fleet`: eight drone sessions on one `np_serve::Server` running D2
//! (F2 little, M1.0 big) over Unseen-environment sequences.
//!
//! Each session is a 30 fps camera; the eight are phase-aligned with
//! 0–2 ms of seeded jitter (a frame-synchronous fleet). The loop is open
//! and runs on a virtual clock: when the server is idle the clock jumps
//! to the next due frame, otherwise it advances by each `tick`'s measured
//! duration. Latency is timed from the due time. Sessions are retired
//! after a fixed number of frames and a new one admitted into the slot;
//! lifetimes are staggered so one session turns over every 1.5 seconds
//! of virtual time.

use crate::common::{
    alternate_pools, op_costs, proxy, quantize, report_cpu, report_latency, same_result, Ctx,
    Gap8Tally, Overhead, Report, Setups, TH,
};
use crate::spans::Spans;
use crate::{alloc, stats};
use np_adaptive::{CostModel, FrameResult};
use np_dataset::{DatasetConfig, PoseDataset};
use np_quant::QScratch;
use np_serve::{ServeConfig, Server, ServingEnsemble, SessionId};
use np_tensor::parallel::Pool;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::hint::black_box;
use std::time::Instant;

const SESSIONS: usize = 8;
const MAX_COALESCE: usize = 4;
const QUEUE_CAP: usize = 4;
/// Camera period: 30 fps.
const PERIOD_NS: u64 = 33_333_333;
const JITTER_NS: u64 = 2_000_000;
/// Rendered sequences; session streams cycle over them.
const SEQS: usize = 24;
/// Frames per rendered sequence.
const SEQ_FRAMES: usize = 60;
/// Frames one session serves before it is retired (12 s at 30 fps).
const LIFE: usize = 6 * SEQ_FRAMES;
/// Ticks served before timing starts.
const WARMUP_TICKS: usize = 200;
/// Ticks per traced / untraced window in the traced run.
const WINDOW_TICKS: usize = 128;
/// Calls per pool block in the replay.
const REPLAY_BLOCK: usize = 100;
/// Batches of each size replayed in the traced run.
const REPLAY_BATCHES: usize = 150;
/// Span names of the replayed big batches, by batch size − 1.
const BIG_BATCH_SPANS: [&str; MAX_COALESCE] = [
    "np-quant.big_b1",
    "np-quant.big_b2",
    "np-quant.big_b3",
    "np-quant.big_b4",
];

/// Per-layer metrics of layers this workload never calls: it builds no
/// table and sweeps no policy.
pub const BYPASSED: &[&str] = &[
    "np-quant.eval_us_per_frame",
    "np-adaptive.table_s",
    "np-adaptive.sweep_s",
];

struct Setup {
    ensemble: ServingEnsemble,
    server: Server,
    ids: Vec<SessionId>,
    costs: CostModel,
}

fn setup(
    f2: &np_nn::Sequential,
    m10: &np_nn::Sequential,
    calib: &np_tensor::Tensor,
    spans: &mut Spans,
) -> Setup {
    let little = quantize(f2, calib, spans);
    let big = quantize(m10, calib, spans);
    let s = spans.open("np-quant.compile", 0);
    let ensemble = ServingEnsemble::compile(&little, &big, PROXY_INPUT, MAX_COALESCE);
    spans.close(s);
    let s = spans.open("np-serve.new_and_admit", 0);
    let mut server = Server::new(
        &ensemble,
        Pool::global(),
        ServeConfig {
            max_sessions: SESSIONS,
            queue_capacity: QUEUE_CAP,
        },
    );
    let ids = (0..SESSIONS)
        .map(|_| server.admit(TH).expect("slab sized for the fleet"))
        .collect();
    spans.close(s);
    let costs = op_costs(f2, m10, spans);
    Setup {
        ensemble,
        server,
        ids,
        costs,
    }
}

/// One session lifetime in a slot.
struct Tenant {
    id: SessionId,
    /// Global lifetime number; picks the stream and the jitter.
    life: usize,
    /// Frames this lifetime streams.
    len: usize,
    /// Camera tick of the lifetime's first frame.
    t0: u64,
    submitted: usize,
    resolved: usize,
}

/// First stream frame of lifetime `life`: lifetimes start at successive
/// sequence starts, so `SEQS` distinct streams cover every lifetime.
fn stream_start(life: usize) -> usize {
    (life % SEQS) * SEQ_FRAMES
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Tenant {
    fn due_ns(&self, seed: u64, k: usize) -> u64 {
        let jitter = splitmix(seed ^ ((self.life as u64) << 32) ^ k as u64) % JITTER_NS;
        (self.t0 + k as u64) * PERIOD_NS + jitter
    }

    fn done(&self) -> bool {
        self.resolved == self.len
    }
}

pub fn run(ctx: &Ctx, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let data = PoseDataset::generate(&DatasetConfig {
        seed: ctx.seed,
        n_sequences: SEQS,
        frames_per_seq: SEQ_FRAMES,
        ..DatasetConfig::unseen()
    });
    let n = data.len();
    let frame = |k: usize| data.frame(k % n).image.as_slice();
    let calib = crate::common::calib_batch();
    let (f2, m10) = (proxy(ModelId::F2), proxy(ModelId::M10));

    // Exactness references: an isolated serial FrameRunner per distinct
    // stream, over a whole lifetime (streams fan out over the pool; each
    // runner stays serial). Built before the heap baseline and before any
    // timing.
    let expect: Vec<Vec<FrameResult>> = {
        let s = setup(&f2, &m10, &calib, &mut Spans::new(0));
        Pool::global().map(SEQS, |life| {
            let mut reference = s.ensemble.runner(TH, Pool::serial());
            (0..LIFE)
                .map(|k| reference.run_frame(frame(stream_start(life) + k)))
                .collect()
        })
    };
    let cap = (ctx.seconds * 50_000.0) as usize + 1;
    let mut lat_ns: Vec<u64> = Vec::with_capacity(cap);

    let build = |sp: &mut Spans| setup(&f2, &m10, &calib, sp);
    let (mut setups, s) = Setups::first(ctx, spans, build);
    let Setup {
        ensemble,
        mut server,
        ids,
        costs,
    } = s;

    // Staggered first lifetimes: slot k streams (k + 1) / SESSIONS of a
    // lifetime, so afterwards one slot turns over every LIFE / SESSIONS
    // frames.
    let mut tenants: Vec<Tenant> = ids
        .into_iter()
        .enumerate()
        .map(|(k, id)| Tenant {
            id,
            life: k,
            len: LIFE * (k + 1) / SESSIONS,
            t0: 0,
            submitted: 0,
            resolved: 0,
        })
        .collect();
    let mut next_life = SESSIONS;

    let mut now: u64 = 0;
    let mut ticks = 0usize;
    let mut timing = false;
    let mut start = Instant::now();
    let mut window_start = start;
    let mut traced = false;
    let mut overhead = Overhead::default();
    let (mut busy_ns, mut wait_ns, mut service_ns) = (0u64, 0u64, 0u64);
    let (mut late, mut dropped, mut offered) = (0u64, 0u64, 0u64);
    let mut timed_ticks = 0u64;
    let mut gap8 = Gap8Tally::default();
    let mut big_frames = 0u64;
    let mut batch_counts = [0u64; MAX_COALESCE + 1];
    let (mut allocs_before, mut cpu_before) = (0, 0);
    spans.on = false;
    loop {
        if !timing && ticks == WARMUP_TICKS {
            timing = true;
            allocs_before = alloc::allocs();
            cpu_before = stats::process_cpu_ns();
            start = Instant::now();
            window_start = start;
        }
        if timing && (ctx.done(start) || lat_ns.len() + SESSIONS > cap) {
            break;
        }
        if timing {
            let paused = setups.catch_up(ctx, start, spans, build);
            start += paused;
            window_start += paused;
        }
        // Cameras: submit every frame due by now.
        let mut next_due = u64::MAX;
        for t in &mut tenants {
            while t.submitted < t.len && t.due_ns(ctx.seed, t.submitted) <= now {
                let due = t.due_ns(ctx.seed, t.submitted);
                let f = frame(stream_start(t.life) + t.submitted);
                let sp = spans.open("np-serve.submit", t.submitted as u64);
                let ok = server.submit(t.id, f, due / 1000);
                spans.close(sp);
                t.submitted += 1;
                offered += timing as u64;
                if !ok {
                    report.check(false);
                    dropped += timing as u64;
                    t.resolved += 1;
                }
            }
            if t.submitted < t.len {
                next_due = next_due.min(t.due_ns(ctx.seed, t.submitted));
            }
        }
        if server.total_queue_depth() == 0 {
            // Idle: every slot has frames to come, so jump to the next one.
            assert!(next_due != u64::MAX, "an idle fleet has a frame due");
            now = next_due;
            continue;
        }

        let sp = spans.open("np-serve.tick", ticks as u64);
        let t_tick = Instant::now();
        let served = server.tick(now / 1000);
        let tick_ns = t_tick.elapsed().as_nanos() as u64;
        spans.close(sp);
        let done = now + tick_ns;
        let mut escalated = 0usize;
        for sv in served {
            let t = tenants
                .iter_mut()
                .find(|t| t.id == sv.session)
                .expect("served frame belongs to a live tenant");
            let k = sv.seq as usize;
            let due = t.due_ns(ctx.seed, k);
            report.check(same_result(&sv.result, &expect[t.life % SEQS][k]));
            t.resolved += 1;
            escalated += sv.result.decision.runs_big() as usize;
            if timing {
                lat_ns.push(done - due);
                wait_ns += now - due;
                service_ns += tick_ns;
                late += (done - due > PERIOD_NS) as u64;
                gap8.add(&costs, sv.result.decision);
                big_frames += sv.result.decision.runs_big() as u64;
            }
        }
        let n_served = served.len();
        server.commit(done / 1000);
        now = done;
        ticks += 1;
        if timing {
            busy_ns += tick_ns;
            timed_ticks += 1;
            batch_counts[MAX_COALESCE] += (escalated / MAX_COALESCE) as u64;
            batch_counts[escalated % MAX_COALESCE] += 1;
            if ctx.trace {
                overhead.add(traced, 0, n_served as u64);
                if timed_ticks.is_multiple_of(WINDOW_TICKS as u64) {
                    let wall = Instant::now();
                    overhead.add(traced, (wall - window_start).as_nanos() as u64, 0);
                    window_start = wall;
                    traced = !traced;
                    spans.on = traced;
                }
            }
        }

        // Turn over every finished session: retire it, admit a new one
        // into its slot, starting at the next camera tick.
        for t in tenants.iter_mut().filter(|t| t.done()) {
            let t_churn = Instant::now();
            let sp = spans.open("np-serve.retire", t.life as u64);
            assert!(server.retire(t.id), "finished tenant is live");
            spans.close(sp);
            let sp = spans.open("np-serve.admit", next_life as u64);
            t.id = server.admit(TH).expect("retired slot is free");
            spans.close(sp);
            now += t_churn.elapsed().as_nanos() as u64;
            *t = Tenant {
                id: t.id,
                life: next_life,
                len: LIFE,
                t0: now / PERIOD_NS + 1,
                submitted: 0,
                resolved: 0,
            };
            next_life += 1;
        }
    }
    let (setup_cpu_ns, setup_allocs) = setups.spent();
    let cpu_ns = stats::process_cpu_ns() - cpu_before - setup_cpu_ns;
    let allocs = alloc::allocs() - allocs_before - setup_allocs;
    let peak_heap = setups.peak_heap();
    setups.report(&mut report, spans, build);
    let frames_run = lat_ns.len();

    report.e2e(
        "throughput_fps",
        "1/s",
        frames_run as f64 / (busy_ns as f64 / 1e9),
        frames_run,
        "frames per second of tick busy time",
    );
    report_cpu(&mut report, cpu_ns, frames_run);
    report_latency(&mut report, &mut lat_ns, "due -> tick completion");
    report.e2e(
        "slo_miss_frac",
        "frac",
        (late + dropped) as f64 / offered.max(1) as f64,
        offered as usize,
        format!("{dropped} dropped, {late} later than one camera period"),
    );
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
    report.layer(
        "np-serve.tick_us",
        "us",
        busy_ns as f64 / timed_ticks as f64 / 1e3,
        timed_ticks as usize,
        "mean tick duration",
    );
    report.layer(
        "np-serve.frames_per_tick",
        "count",
        frames_run as f64 / timed_ticks as f64,
        timed_ticks as usize,
        "frames served per tick",
    );
    report.layer(
        "np-serve.queue_wait_us",
        "us",
        wait_ns as f64 / frames_run as f64 / 1e3,
        frames_run,
        "due -> start of the serving tick",
    );
    report.layer(
        "np-serve.service_us",
        "us",
        service_ns as f64 / frames_run as f64 / 1e3,
        frames_run,
        "start -> end of the serving tick, per frame",
    );
    let batches: u64 = batch_counts[1..].iter().sum();
    let batch_frames: u64 = (1..=MAX_COALESCE).map(|b| b as u64 * batch_counts[b]).sum();
    report.layer(
        "np-quant.big_batch_frames",
        "count",
        batch_frames as f64 / batches.max(1) as f64,
        batches as usize,
        "frames per coalesced big batch",
    );
    if !ctx.trace {
        return report;
    }
    for (metric, span) in [
        ("np-serve.admit_us", "np-serve.admit"),
        ("np-serve.retire_us", "np-serve.retire"),
    ] {
        let (n_calls, us) = spans.mean_us(span);
        report.layer(metric, "us", us, n_calls, "per call, traced windows");
    }
    report.layer(
        "bench.trace_overhead_frac",
        "frac",
        overhead.frac(),
        frames_run,
        "traced vs untraced windows, wall time per frame",
    );

    // Replay the run's np-quant calls: the little program on every
    // stream frame, and big batches of each size the server coalesced,
    // built from frames the reference escalated.
    spans.on = true;
    let escalated: Vec<usize> = (0..SEQS)
        .flat_map(|life| {
            let e = &expect[life];
            (0..LIFE)
                .filter(move |&k| e[k].decision.runs_big())
                .map(move |k| stream_start(life) + k)
        })
        .collect();
    enum Call {
        Little(usize),
        Big(usize, usize),
    }
    let mut calls: Vec<Call> = (0..n).map(Call::Little).collect();
    // Batch size 1 always (it gives np-quant.big_us), larger sizes when
    // the run coalesced them.
    for (b, &count) in batch_counts.iter().enumerate().skip(1) {
        if escalated.is_empty() || (count == 0 && b > 1) {
            continue;
        }
        calls.extend((0..REPLAY_BATCHES).map(|r| Call::Big(r * b % escalated.len(), b)));
    }
    let little = ensemble.little();
    let big = ensemble.big();
    let frame_len = frame(0).len();
    let mut staged = vec![0.0f32; MAX_COALESCE * frame_len];
    let mut little_scratch = QScratch::for_program(little);
    let mut big_scratch = QScratch::for_program(big);
    let (global_ns, serial_ns) = alternate_pools(calls.len(), REPLAY_BLOCK, |pool, serial, c| {
        match calls[c] {
            Call::Little(f) => {
                let t0 = Instant::now();
                black_box(little.forward_prepacked(pool, &mut little_scratch, frame(f)));
                if !serial {
                    spans.record("np-quant.little", t0, Instant::now(), f as u64);
                }
            }
            Call::Big(first, b) => {
                for j in 0..b {
                    let f = frame(escalated[(first + j) % escalated.len()]);
                    staged[j * frame_len..(j + 1) * frame_len].copy_from_slice(f);
                }
                let t0 = Instant::now();
                black_box(big.forward_batched(pool, &mut big_scratch, &staged[..b * frame_len], b));
                if !serial {
                    spans.record(BIG_BATCH_SPANS[b - 1], t0, Instant::now(), first as u64);
                }
            }
        }
    });
    let (n_little, little_us) = spans.mean_us("np-quant.little");
    let (n_big, big_us) = spans.mean_us(BIG_BATCH_SPANS[0]);
    report.layer(
        "np-quant.little_us",
        "us",
        little_us,
        n_little,
        "F2 forward_prepacked, global pool",
    );
    report.layer(
        "np-quant.big_us",
        "us",
        big_us,
        n_big,
        "M1.0 forward_batched at batch 1, global pool",
    );
    let batched_us: f64 = (1..=MAX_COALESCE)
        .map(|b| spans.mean_us(BIG_BATCH_SPANS[b - 1]).1 * batch_counts[b] as f64)
        .sum();
    let big_batched_us_per_frame = batched_us / batch_frames.max(1) as f64;
    report.layer(
        "np-quant.big_batched_us_per_frame",
        "us",
        big_batched_us_per_frame,
        batch_frames as usize,
        "replayed forward_batched, weighted by the run's batch sizes",
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
        busy_ns as f64 / frames_run as f64 / 1e3 - little_us - frac_big * big_batched_us_per_frame,
        frames_run,
        "tick time per frame - little - frac_big * batched big",
    );
    report
}
