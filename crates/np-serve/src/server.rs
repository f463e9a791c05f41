//! The tick-based session-multiplexing server.
//!
//! # Scheduling model
//!
//! A [`Server`] owns a [`SessionSlab`] plus one shared pair of compiled
//! programs and advances in discrete **ticks**. Each tick:
//!
//! 1. **Select** — walk the slots round-robin (rotating start, so
//!    coalescing order carries no positional bias) and pick the head
//!    frame of every live session whose oldest frame has arrived. At most
//!    *one* frame per session per tick: that bound *is* the fairness
//!    policy. A session with a deep backlog cannot monopolize the pool,
//!    and a big-model escalation from one stream can never block another
//!    stream's little-model result — everything selected this tick
//!    completes this tick.
//! 2. **Little pass** — run the little model for all selected sessions in
//!    parallel ([`Pool::for_each_mut`] work-stealing), each into its own
//!    private arena with serial inner kernels. When only one session is
//!    selected, its inference gets the whole pool instead.
//! 3. **Policy + coalesce** — apply each session's OP policy serially in
//!    selection order (per-session state only, so order across sessions
//!    is irrelevant to the results), and gather escalated frames — from
//!    *different* sessions — into micro-batches of up to
//!    [`Server::max_coalesce`] frames.
//! 4. **Big pass** — run each gathered micro-batch through the big
//!    program's batch plan (bit-exact against per-frame execution, so the
//!    coalescing is invisible in the outputs) and patch the escalated
//!    results with the ensemble average.
//!
//! Per-session result streams are **bit-identical** to running each
//! session on an isolated [`FrameRunner`] sharing the same programs —
//! the exactness tests in `tests/serving.rs` pin this across pool widths.
//!
//! # Latency accounting
//!
//! [`Server::tick`] takes the caller's clock (`now_us`) and returns the
//! frames it served; [`Server::commit`] then records
//! `completion − arrival` per frame once the caller knows when the tick
//! finished on its clock. `bench_serving` runs a virtual clock advanced
//! by measured execution time, which keeps arrivals deterministic while
//! latencies still reflect real service speed. Callers that don't model
//! service time can use [`Server::serve`], which commits at `now_us`.
//!
//! [`Pool::for_each_mut`]: np_tensor::parallel::Pool::for_each_mut

use crate::slab::{SessionId, SessionSlab};
use np_adaptive::{FrameResult, FrameRunner};
use np_quant::{QScratch, QuantizedNetwork, QuantizedProgram};
use np_tensor::parallel::Pool;
use np_trace::hist::LogHistogram;
use np_trace::Counter;
use std::sync::Arc;

/// The shared, immutable half of a serving deployment: one little
/// program (per-frame plan) and one big program (batch plan for
/// cross-session coalescing), both behind `Arc` so every session — and
/// every isolated reference runner — executes the same packed weights.
pub struct ServingEnsemble {
    little: Arc<QuantizedProgram>,
    big: Arc<QuantizedProgram>,
}

impl ServingEnsemble {
    /// Compiles a big/little pair for serving: the little model with the
    /// per-frame plan it always runs under, the big model with a batch
    /// plan of `max_coalesce` so escalations from different sessions can
    /// share one weight sweep.
    ///
    /// # Panics
    ///
    /// Panics if either network does not regress 4 outputs or
    /// `max_coalesce == 0`.
    pub fn compile(
        little: &QuantizedNetwork,
        big: &QuantizedNetwork,
        chw: (usize, usize, usize),
        max_coalesce: usize,
    ) -> Self {
        assert!(max_coalesce >= 1, "max_coalesce must be at least 1");
        Self::from_programs(
            little.compile_shared(chw),
            big.compile_batched_shared(chw, max_coalesce),
        )
    }

    /// Wraps already-compiled shared programs (the big one must carry a
    /// batch plan; its `max_batch` becomes the coalescing width).
    ///
    /// # Panics
    ///
    /// Panics if the programs disagree on input shape or either does not
    /// regress exactly 4 outputs.
    pub fn from_programs(little: Arc<QuantizedProgram>, big: Arc<QuantizedProgram>) -> Self {
        assert_eq!(
            little.output_len(),
            4,
            "little model must regress 4 outputs"
        );
        assert_eq!(big.output_len(), 4, "big model must regress 4 outputs");
        assert_eq!(
            little.input_chw(),
            big.input_chw(),
            "ensemble members must share an input shape"
        );
        ServingEnsemble { little, big }
    }

    /// The shared little program.
    pub fn little(&self) -> &QuantizedProgram {
        &self.little
    }

    /// The shared (batch-planned) big program.
    pub fn big(&self) -> &QuantizedProgram {
        &self.big
    }

    /// Widest cross-session micro-batch the big program can carry.
    pub fn max_coalesce(&self) -> usize {
        self.big.max_batch().max(1)
    }

    /// An isolated [`FrameRunner`] over the *same* shared programs — the
    /// bit-exactness reference for a served session with threshold `th`,
    /// and the sequential-serving baseline in `bench_serving`.
    pub fn runner(&self, th: f32, pool: Pool) -> FrameRunner {
        FrameRunner::from_programs(self.little.clone(), self.big.clone(), th, pool)
    }
}

/// Sizing knobs for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum concurrent sessions the slab will admit.
    pub max_sessions: usize,
    /// Frames one session may queue before submissions drop
    /// (backpressure).
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            queue_capacity: 4,
        }
    }
}

/// One frame completed by a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    /// The session the frame belongs to.
    pub session: SessionId,
    /// Per-session frame sequence number (0-based).
    pub seq: u64,
    /// When the frame entered the session's queue (caller's clock, µs).
    pub arrival_us: u64,
    /// The ensemble result — bit-identical to an isolated
    /// [`FrameRunner`] fed the same frame sequence.
    pub result: FrameResult,
}

/// Telemetry snapshot for one stream (or, via
/// [`Server::aggregate_stats`], the whole server, where the queue fields
/// are totals across sessions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames served.
    pub frames: u64,
    /// Served frames on which the big model ran.
    pub big_frames: u64,
    /// Frames currently queued.
    pub queue_depth: usize,
    /// Deepest the queue has been.
    pub peak_queue_depth: usize,
    /// Median served latency (completion − arrival), µs.
    pub p50_latency_us: u64,
    /// 99th-percentile served latency, µs.
    pub p99_latency_us: u64,
    /// Worst served latency, µs.
    pub max_latency_us: u64,
}

/// Session-multiplexing inference server. See the module docs for the
/// tick anatomy; construction is the only allocating phase — admission
/// reuses slab slots and the serving loop is zero-alloc in steady state
/// at any pool width.
pub struct Server {
    little: Arc<QuantizedProgram>,
    big: Arc<QuantizedProgram>,
    pool: Pool,
    frame_len: usize,
    max_coalesce: usize,
    slab: SessionSlab,
    /// Server-owned scratch for the coalesced big passes (sessions never
    /// run the big model in their private arenas).
    big_scratch: QScratch,
    /// Gather buffer for one micro-batch: `max_coalesce * frame_len`.
    big_staged: Vec<f32>,
    /// `(result position, slot index)` of the staged escalations.
    big_rows: Vec<(u32, u32)>,
    /// Slot indices selected this tick, in rotation order.
    selected: Vec<u32>,
    results: Vec<Served>,
    /// `(slot index, arrival_us)` of served frames awaiting `commit`.
    pending_latency: Vec<(u32, u64)>,
    agg_latency: LogHistogram,
    rr_cursor: usize,
    frames_served: u64,
    big_served: u64,
    peak_queue: usize,
    ticks: u64,
    little_span: np_trace::SpanId,
    big_span: np_trace::SpanId,
    tick_span: np_trace::SpanId,
}

impl Server {
    /// Builds a server over a compiled ensemble. All staging the serving
    /// loop touches is allocated here (slot arenas follow at each slot's
    /// first admission).
    pub fn new(ensemble: &ServingEnsemble, pool: Pool, config: ServeConfig) -> Self {
        let little = ensemble.little.clone();
        let big = ensemble.big.clone();
        let (c, h, w) = little.input_chw();
        let frame_len = c * h * w;
        let max_coalesce = ensemble.max_coalesce();
        let big_scratch = QScratch::for_program(&big);
        let little_span = np_trace::register_span(&format!("serve/{}@tick", little.name()));
        let big_span = np_trace::register_span(&format!("serve/{}@coalesce", big.name()));
        let tick_span = np_trace::register_span("serve/tick");
        Server {
            little,
            big,
            pool,
            frame_len,
            max_coalesce,
            slab: SessionSlab::new(config.max_sessions, frame_len, config.queue_capacity),
            big_scratch,
            big_staged: vec![0.0; max_coalesce * frame_len],
            big_rows: Vec::with_capacity(max_coalesce),
            selected: Vec::with_capacity(config.max_sessions),
            results: Vec::with_capacity(config.max_sessions),
            pending_latency: Vec::with_capacity(config.max_sessions),
            agg_latency: LogHistogram::new(),
            rr_cursor: 0,
            frames_served: 0,
            big_served: 0,
            peak_queue: 0,
            ticks: 0,
            little_span,
            big_span,
            tick_span,
        }
    }

    /// Admits a session with OP threshold `th`, warming its private
    /// arena so even the slot's very first frame is served without
    /// allocating. `None` when the slab is at capacity.
    pub fn admit(&mut self, th: f32) -> Option<SessionId> {
        let id = self.slab.admit(th)?;
        let slot = self.slab.get_mut(id).expect("freshly admitted");
        slot.scratch.reserve(&self.little);
        np_trace::counter_add(Counter::ServeSessionsAdmitted, 1);
        Some(id)
    }

    /// Retires a session, recycling its slot (the warm arena is kept for
    /// the next tenant, never freed). Queued-but-unserved frames are
    /// discarded. Returns `false` for a stale handle.
    pub fn retire(&mut self, id: SessionId) -> bool {
        if self.slab.retire(id) {
            np_trace::counter_add(Counter::ServeSessionsRetired, 1);
            true
        } else {
            false
        }
    }

    /// Enqueues one float CHW frame for `id`, arriving at `now_us`.
    /// Returns `false` — and drops the frame — when the handle is stale
    /// or the session's queue is full (open-loop backpressure: the
    /// caller decides whether to retry, thin the stream, or retire).
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not match the compiled input shape.
    pub fn submit(&mut self, id: SessionId, frame: &[f32], now_us: u64) -> bool {
        assert_eq!(frame.len(), self.frame_len, "frame size mismatch");
        let fl = self.frame_len;
        let Some(slot) = self.slab.get_mut(id) else {
            np_trace::counter_add(Counter::ServeFramesDropped, 1);
            return false;
        };
        if slot.enqueue(frame, now_us, fl) {
            let depth = slot.queue_len();
            self.peak_queue = self.peak_queue.max(depth);
            np_trace::counter_add(Counter::ServeFramesEnqueued, 1);
            np_trace::counter_max(Counter::ServeQueueDepthPeak, depth as u64);
            true
        } else {
            np_trace::counter_add(Counter::ServeFramesDropped, 1);
            false
        }
    }

    /// Runs one scheduling tick at caller time `now_us` and returns the
    /// frames it completed (empty when nothing was ready). Any latencies
    /// still pending from a previous tick are committed at `now_us`
    /// first; call [`Server::commit`] with the tick's true completion
    /// time before the next tick for exact latency accounting.
    pub fn tick(&mut self, now_us: u64) -> &[Served] {
        self.commit(now_us);
        self.results.clear();
        self.ticks += 1;
        let n_slots = self.slab.allocated_slots();
        if n_slots == 0 {
            return &self.results;
        }
        let t_tick = np_trace::start();

        // Phase 1: fair selection — ≤1 ready frame per session, rotating
        // the scan start so no slot is systematically first into a
        // coalesced batch.
        self.selected.clear();
        let start = self.rr_cursor % n_slots;
        for k in 0..n_slots {
            let idx = (start + k) % n_slots;
            let slot = self.slab.slot_mut(idx);
            if slot.active && slot.head_arrival().is_some_and(|a| a <= now_us) {
                slot.selected = true;
                self.selected.push(idx as u32);
            }
        }
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        if self.selected.is_empty() {
            np_trace::finish(self.tick_span, t_tick, 0);
            return &self.results;
        }

        // Phase 2: the little model for every selected session, each into
        // its own arena. A lone session gets the whole pool for its
        // inference; several run in parallel across sessions with serial
        // inner work (a region nested in another runs inline anyway).
        let n_sel = self.selected.len();
        let fl = self.frame_len;
        let little = &self.little;
        let t_little = np_trace::start();
        if n_sel == 1 {
            let idx = self.selected[0] as usize;
            self.slab.slot_mut(idx).run_little(little, self.pool, fl);
        } else {
            self.pool.for_each_mut(self.slab.slots_mut(), |_, slot| {
                if slot.selected {
                    slot.run_little(little, Pool::serial(), fl);
                }
            });
        }
        np_trace::finish(self.little_span, t_little, n_sel as u64);

        // Phase 3: policy per session (its own state only — cross-session
        // order cannot affect results), escalations gathered into
        // micro-batches that flush at max_coalesce.
        for k in 0..n_sel {
            let idx = self.selected[k] as usize;
            let slot = self.slab.slot_mut(idx);
            slot.selected = false;
            let little_scaled = slot.little_scaled;
            let decision = slot.policy.decide_scaled(&little_scaled);
            slot.decision = decision;
            let seq = slot.seq;
            slot.seq += 1;
            let session = SessionId::for_slot(idx, slot.generation);
            np_trace::counter_add(Counter::FramesTotal, 1);
            if decision.runs_big() {
                slot.big_frames += 1;
                self.big_served += 1;
                np_trace::counter_add(Counter::FramesBig, 1);
                np_trace::counter_add(Counter::ServeFramesEscalated, 1);
                let dst = self.big_rows.len() * fl;
                self.big_staged[dst..dst + fl].copy_from_slice(slot.head_frame(fl));
            }
            let arrival_us = slot.pop_head();
            self.results.push(Served {
                session,
                seq,
                arrival_us,
                result: FrameResult {
                    decision,
                    scaled: little_scaled,
                    little_scaled,
                    big_scaled: None,
                },
            });
            self.pending_latency.push((idx as u32, arrival_us));
            if decision.runs_big() {
                self.big_rows
                    .push(((self.results.len() - 1) as u32, idx as u32));
                if self.big_rows.len() == self.max_coalesce {
                    self.flush_big();
                }
            }
        }

        // Phase 4: the partial tail batch, if any.
        self.flush_big();

        self.frames_served += self.results.len() as u64;
        np_trace::counter_add(Counter::ServeFramesServed, self.results.len() as u64);
        np_trace::finish(self.tick_span, t_tick, self.results.len() as u64);
        &self.results
    }

    /// Records `completion_us − arrival` for every frame the last tick
    /// served, into the per-stream and aggregate latency histograms.
    /// Idempotent once drained.
    pub fn commit(&mut self, completion_us: u64) {
        for i in 0..self.pending_latency.len() {
            let (idx, arrival) = self.pending_latency[i];
            let lat = completion_us.saturating_sub(arrival);
            self.slab.slot_mut(idx as usize).latency.record(lat);
            self.agg_latency.record(lat);
        }
        self.pending_latency.clear();
    }

    /// [`Server::tick`] + [`Server::commit`] at the same timestamp — for
    /// callers that don't model service time on their clock.
    pub fn serve(&mut self, now_us: u64) -> &[Served] {
        self.tick(now_us);
        self.commit(now_us);
        &self.results
    }

    /// Runs one staged cross-session micro-batch through the big
    /// program's batch plan and patches the escalated results with the
    /// ensemble average (element-wise midpoint, exactly as
    /// [`FrameRunner`] computes it).
    fn flush_big(&mut self) {
        let k = self.big_rows.len();
        if k == 0 {
            return;
        }
        let fl = self.frame_len;
        let t_big = np_trace::start();
        let bo = self.big.forward_batched(
            self.pool,
            &mut self.big_scratch,
            &self.big_staged[..k * fl],
            k,
        );
        for (i, &(pos, _slot)) in self.big_rows.iter().enumerate() {
            let big_scaled = [bo[i * 4], bo[i * 4 + 1], bo[i * 4 + 2], bo[i * 4 + 3]];
            let r = &mut self.results[pos as usize].result;
            r.big_scaled = Some(big_scaled);
            r.scaled = [
                (r.little_scaled[0] + big_scaled[0]) / 2.0,
                (r.little_scaled[1] + big_scaled[1]) / 2.0,
                (r.little_scaled[2] + big_scaled[2]) / 2.0,
                (r.little_scaled[3] + big_scaled[3]) / 2.0,
            ];
        }
        np_trace::finish(self.big_span, t_big, k as u64);
        np_trace::counter_add(Counter::ServeBigBatches, 1);
        self.big_rows.clear();
    }

    /// Sessions currently live.
    pub fn active_sessions(&self) -> usize {
        self.slab.active()
    }

    /// Maximum concurrent sessions.
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Slab slots ever constructed (never shrinks — retired arenas stay
    /// resident for reuse).
    pub fn allocated_slots(&self) -> usize {
        self.slab.allocated_slots()
    }

    /// Frames queued for `id` right now (`None` for a stale handle).
    pub fn queue_depth(&self, id: SessionId) -> Option<usize> {
        self.slab.get(id).map(|s| s.queue_len())
    }

    /// Telemetry snapshot for one stream (`None` for a stale handle).
    pub fn stream_stats(&self, id: SessionId) -> Option<StreamStats> {
        self.slab.get(id).map(|s| StreamStats {
            frames: s.seq,
            big_frames: s.big_frames,
            queue_depth: s.queue_len(),
            peak_queue_depth: s.peak_queue,
            p50_latency_us: s.latency.quantile(0.5),
            p99_latency_us: s.latency.quantile(0.99),
            max_latency_us: s.latency.max(),
        })
    }

    /// Server-wide telemetry: totals across all sessions ever served,
    /// with the latency quantiles over the merged stream.
    pub fn aggregate_stats(&self) -> StreamStats {
        StreamStats {
            frames: self.frames_served,
            big_frames: self.big_served,
            queue_depth: self.total_queue_depth(),
            peak_queue_depth: self.peak_queue,
            p50_latency_us: self.agg_latency.quantile(0.5),
            p99_latency_us: self.agg_latency.quantile(0.99),
            max_latency_us: self.agg_latency.max(),
        }
    }

    /// Frames queued across every live session.
    pub fn total_queue_depth(&self) -> usize {
        (0..self.slab.allocated_slots())
            .map(|i| self.slab.slot(i).queue_len())
            .sum()
    }

    /// Total frames completed since construction.
    pub fn frames_served(&self) -> u64 {
        self.frames_served
    }

    /// Scheduling ticks executed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Widest cross-session micro-batch one big pass will carry.
    pub fn max_coalesce(&self) -> usize {
        self.max_coalesce
    }

    /// Floats per input frame.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Steady-state bytes private to one session: its arena/scratch plus
    /// its frame queue (`None` for a stale handle). This is the marginal
    /// cost of one more stream — the packed weights are shared.
    pub fn session_bytes(&self, id: SessionId) -> Option<usize> {
        self.slab
            .get(id)
            .map(|s| s.scratch.bytes() + s.queue_bytes())
    }

    /// Bytes shared by *all* sessions: both programs' packed weights plus
    /// the server's coalescing scratch and gather buffer.
    pub fn shared_bytes(&self) -> usize {
        self.little.packed_weight_bytes()
            + self.big.packed_weight_bytes()
            + self.big_scratch.bytes()
            + self.big_staged.len() * std::mem::size_of::<f32>()
    }

    /// An isolated [`FrameRunner`] over the same shared programs — the
    /// bit-exactness reference for a session with threshold `th`.
    pub fn isolated_runner(&self, th: f32) -> FrameRunner {
        FrameRunner::from_programs(self.little.clone(), self.big.clone(), th, self.pool)
    }

    /// The shared little program.
    pub fn little(&self) -> &QuantizedProgram {
        &self.little
    }

    /// The shared (batch-planned) big program.
    pub fn big(&self) -> &QuantizedProgram {
        &self.big
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_nn::init::SmallRng;
    use np_quant::QuantizedNetwork;
    use np_tensor::Tensor;
    use np_zoo::channels::PROXY_INPUT;
    use np_zoo::ModelId;

    fn frames(n: usize, seed: u64) -> Tensor {
        let (c, h, w) = PROXY_INPUT;
        let mut s = seed;
        let data: Vec<f32> = (0..n * c * h * w)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
            })
            .collect();
        Tensor::from_vec(&[n, c, h, w], data)
    }

    fn ensemble(max_coalesce: usize) -> ServingEnsemble {
        let mut rng = SmallRng::seed(21);
        let little = ModelId::F1.build_proxy(&mut rng);
        let big = ModelId::M10.build_proxy(&mut rng);
        let calib = frames(5, 77);
        ServingEnsemble::compile(
            &QuantizedNetwork::quantize(&little, &calib),
            &QuantizedNetwork::quantize(&big, &calib),
            PROXY_INPUT,
            max_coalesce,
        )
    }

    /// Multiplexed serving must be invisible in the outputs: each
    /// session's result stream — decisions, scaled outputs, bit for bit —
    /// equals an isolated FrameRunner fed the same frames, at any pool
    /// width, even though escalations coalesce across sessions.
    #[test]
    fn served_streams_match_isolated_runners() {
        let ens = ensemble(4);
        let fl = {
            let (c, h, w) = PROXY_INPUT;
            c * h * w
        };
        let th = 0.05;
        let n_sessions = 3;
        let n_frames = 5;
        let streams: Vec<Tensor> = (0..n_sessions)
            .map(|s| frames(n_frames, 100 + s as u64))
            .collect();

        let want: Vec<Vec<FrameResult>> = streams
            .iter()
            .map(|stream| {
                let mut runner = ens.runner(th, Pool::serial());
                (0..n_frames)
                    .map(|i| runner.run_frame(&stream.as_slice()[i * fl..(i + 1) * fl]))
                    .collect()
            })
            .collect();

        for threads in [1usize, 4] {
            let mut server = Server::new(
                &ens,
                Pool::new(threads),
                ServeConfig {
                    max_sessions: 8,
                    queue_capacity: 2,
                },
            );
            let ids: Vec<SessionId> = (0..n_sessions).map(|_| server.admit(th).unwrap()).collect();
            let mut got: Vec<Vec<FrameResult>> = vec![Vec::new(); n_sessions];
            for i in 0..n_frames {
                for (s, id) in ids.iter().enumerate() {
                    assert!(server.submit(
                        *id,
                        &streams[s].as_slice()[i * fl..(i + 1) * fl],
                        i as u64
                    ));
                }
                let served: Vec<Served> = server.serve(i as u64).to_vec();
                assert_eq!(served.len(), n_sessions, "one frame per session per tick");
                for sv in served {
                    got[sv.session.index()].push(sv.result);
                }
            }
            assert_eq!(got, want, "threads {threads}");
        }
    }

    /// One frame per session per tick: a backlogged stream cannot crowd
    /// out a quiet one, and its own backlog drains one frame at a time.
    #[test]
    fn backlogged_session_cannot_starve_others() {
        let ens = ensemble(2);
        let fl =
            ens.little().input_chw().0 * ens.little().input_chw().1 * ens.little().input_chw().2;
        let mut server = Server::new(
            &ens,
            Pool::serial(),
            ServeConfig {
                max_sessions: 4,
                queue_capacity: 4,
            },
        );
        let busy = server.admit(0.5).unwrap();
        let quiet = server.admit(0.5).unwrap();
        let stream = frames(4, 9);
        for i in 0..4 {
            assert!(server.submit(busy, &stream.as_slice()[i * fl..(i + 1) * fl], 0));
        }
        assert!(server.submit(quiet, &stream.as_slice()[..fl], 0));

        let served = server.serve(10);
        assert_eq!(served.len(), 2, "both sessions served despite backlog");
        let sessions: Vec<usize> = served.iter().map(|s| s.session.index()).collect();
        assert!(sessions.contains(&busy.index()));
        assert!(sessions.contains(&quiet.index()));
        assert_eq!(server.queue_depth(busy), Some(3));
        assert_eq!(server.queue_depth(quiet), Some(0));
        // The backlog drains fully over the next ticks.
        for want_left in [2usize, 1, 0] {
            let served = server.serve(10);
            assert_eq!(served.len(), 1);
            assert_eq!(server.queue_depth(busy), Some(want_left));
        }
        assert!(server.serve(10).is_empty());
    }

    /// Frames that have not "arrived" on the caller's clock stay queued.
    #[test]
    fn tick_respects_arrival_times() {
        let ens = ensemble(2);
        let fl = ens.little().input_chw().1 * ens.little().input_chw().2;
        let mut server = Server::new(&ens, Pool::serial(), ServeConfig::default());
        let id = server.admit(0.5).unwrap();
        let stream = frames(1, 3);
        assert!(server.submit(id, &stream.as_slice()[..fl], 500));
        assert!(server.serve(499).is_empty(), "frame is in the future");
        assert_eq!(server.serve(500).len(), 1);
    }

    /// Admission control and backpressure: capacity caps live sessions,
    /// full queues drop, stale handles are rejected, slots recycle.
    #[test]
    fn admission_backpressure_and_recycling() {
        let ens = ensemble(2);
        let fl = ens.little().input_chw().1 * ens.little().input_chw().2;
        let mut server = Server::new(
            &ens,
            Pool::serial(),
            ServeConfig {
                max_sessions: 2,
                queue_capacity: 1,
            },
        );
        let a = server.admit(0.5).unwrap();
        let b = server.admit(0.5).unwrap();
        assert!(server.admit(0.5).is_none(), "slab at capacity");
        assert_eq!(server.active_sessions(), 2);

        let stream = frames(1, 4);
        assert!(server.submit(a, &stream.as_slice()[..fl], 0));
        assert!(
            !server.submit(a, &stream.as_slice()[..fl], 1),
            "full queue must drop"
        );

        assert!(server.retire(a));
        assert!(!server.retire(a));
        assert!(
            !server.submit(a, &stream.as_slice()[..fl], 2),
            "stale handle must be rejected"
        );
        let c = server.admit(0.1).unwrap();
        assert_eq!(c.index(), a.index(), "slot recycled from the freelist");
        assert_eq!(server.allocated_slots(), 2);
        assert!(server.session_bytes(c).unwrap() > 0);
        assert!(server.shared_bytes() > 0);
        let _ = b;
    }

    /// Latency accounting: commit records completion − arrival into both
    /// the per-stream and aggregate histograms.
    #[test]
    fn latency_histograms_track_commit_times() {
        let ens = ensemble(2);
        let fl = ens.little().input_chw().1 * ens.little().input_chw().2;
        let mut server = Server::new(&ens, Pool::serial(), ServeConfig::default());
        let id = server.admit(0.5).unwrap();
        let stream = frames(1, 5);
        assert!(server.submit(id, &stream.as_slice()[..fl], 100));
        let served = server.tick(200).len();
        assert_eq!(served, 1);
        server.commit(300);
        let stats = server.stream_stats(id).unwrap();
        assert_eq!(stats.frames, 1);
        assert!(
            stats.big_frames >= 1,
            "first frame always runs the ensemble"
        );
        // LogHistogram buckets by powers of two: 200µs lands in [128, 256).
        assert!(stats.p50_latency_us >= 128 && stats.p50_latency_us <= 256);
        let agg = server.aggregate_stats();
        assert_eq!(agg.frames, 1);
        assert_eq!(agg.peak_queue_depth, 1);
    }
}
