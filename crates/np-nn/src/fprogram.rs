//! Plan-once, run-many float inference for a [`Sequential`].
//!
//! [`Sequential::forward`] allocates a fresh output `Tensor` per layer and
//! an im2col matrix per convolution, every call. [`FloatProgram::compile`]
//! walks the chain once for a fixed input shape, assigns every
//! intermediate a static offset in one planned f32 arena (via the
//! [`np_tensor::arena`] planner), copies the weights into flat step
//! payloads, and precomputes batch-norm `1/sqrt(var + eps)` terms.
//! [`FloatProgram::forward_prepacked`] then replays the chain into a
//! reusable [`FScratch`] without allocating after warm-up.
//!
//! Every step body replicates the corresponding eval-mode layer forward
//! *operation for operation* — same accumulation order, same pool plumbing
//! for the conv GEMM — so the outputs are bit-identical to
//! [`Sequential::forward_with`] on a single-image batch at any thread
//! count, not merely close. Elementwise steps (batch norm, ReLU) run in
//! place, which the naive layer chain cannot do, so the planned arena is
//! typically smaller than even the peak live pair of the layer chain.

use crate::layers::{
    AvgPool2d, BatchNorm2d, Conv2d, DepthwiseConv2d, Dropout, Flatten, GlobalAvgPool, Linear,
    MaxPool2d, Relu,
};
use crate::sequential::Sequential;
use np_tensor::arena::{disjoint_pair, plan_arena, BufferReq};
use np_tensor::im2col::{im2col_into, Im2colSpec};
use np_tensor::matmul::matmul_acc_with;
use np_tensor::parallel::Pool;

const BN_EPS: f32 = 1e-5;

/// One executable float step; buffers are ids into the planned arena.
#[derive(Debug, Clone)]
enum FStep {
    Conv {
        spec: Im2colSpec,
        out_channels: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
        input: usize,
        output: usize,
    },
    Depthwise {
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        h: usize,
        w: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
        input: usize,
        output: usize,
    },
    /// Eval-mode batch norm, in place: `y = g * (x - mean) * inv_std + b`.
    BatchNorm {
        plane: usize,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        mean: Vec<f32>,
        inv_std: Vec<f32>,
        buf: usize,
    },
    ReluInPlace {
        buf: usize,
    },
    MaxPool {
        channels: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        input: usize,
        output: usize,
    },
    AvgPool {
        channels: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        input: usize,
        output: usize,
    },
    GlobalAvgPool {
        channels: usize,
        h: usize,
        w: usize,
        input: usize,
        output: usize,
    },
    Linear {
        in_features: usize,
        out_features: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
        input: usize,
        output: usize,
    },
}

/// Buffer bookkeeping during compilation (chain live ranges).
struct Bufs {
    sizes: Vec<usize>,
    first: Vec<usize>,
    last: Vec<usize>,
    cur: usize,
    time: usize,
}

impl Bufs {
    fn new(input_len: usize) -> Self {
        Bufs {
            sizes: vec![input_len],
            first: vec![0],
            last: vec![0],
            cur: 0,
            time: 0,
        }
    }

    fn advance(&mut self, out_len: usize) -> (usize, usize) {
        self.time += 1;
        self.last[self.cur] = self.time;
        self.sizes.push(out_len);
        self.first.push(self.time);
        self.last.push(self.time);
        let input = self.cur;
        self.cur = self.sizes.len() - 1;
        (input, self.cur)
    }

    fn touch(&mut self) -> usize {
        self.time += 1;
        self.last[self.cur] = self.time;
        self.cur
    }
}

/// Reusable execution scratch for [`FloatProgram`]: the planned f32 arena
/// plus the im2col buffer for the largest convolution.
#[derive(Debug, Default)]
pub struct FScratch {
    arena: Vec<f32>,
    lowered: Vec<f32>,
}

impl FScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        FScratch::default()
    }

    /// A scratch pre-sized for `program` — no allocation on any
    /// subsequent run of it.
    pub fn for_program(program: &FloatProgram) -> Self {
        let mut s = FScratch::new();
        s.reserve(program);
        s
    }

    /// Grows the buffers to `program`'s requirements (never shrinks).
    pub fn reserve(&mut self, program: &FloatProgram) {
        if self.arena.len() < program.arena_len {
            self.arena.resize(program.arena_len, 0.0);
        }
        if self.lowered.len() < program.lowered_len {
            self.lowered.resize(program.lowered_len, 0.0);
        }
    }
}

/// A [`Sequential`] compiled for one input shape into a statically-planned,
/// allocation-free float executor. See the module docs.
#[derive(Debug, Clone)]
pub struct FloatProgram {
    name: String,
    input_chw: (usize, usize, usize),
    output_chw: (usize, usize, usize),
    steps: Vec<FStep>,
    buf_offsets: Vec<usize>,
    buf_sizes: Vec<usize>,
    arena_len: usize,
    lowered_len: usize,
    output_buf: usize,
}

impl FloatProgram {
    /// Compiles `net` (in eval mode: batch-norm running statistics,
    /// dropout as identity) for single-image inputs of shape `chw`.
    ///
    /// # Panics
    ///
    /// Panics if the model contains a layer kind the program executor does
    /// not know, or if a layer rejects the propagated shape.
    pub fn compile(net: &Sequential, chw: (usize, usize, usize)) -> Self {
        let (mut c, mut h, mut w) = chw;
        let mut bufs = Bufs::new(c * h * w);
        let mut steps = Vec::with_capacity(net.layers().len());
        let mut lowered_len = 0usize;

        for layer in net.layers() {
            let any = layer.as_any();
            if let Some(conv) = any.downcast_ref::<Conv2d>() {
                let (desc, next) = layer.describe((c, h, w));
                let spec = Im2colSpec {
                    channels: c,
                    height: h,
                    width: w,
                    kernel: desc.kernel,
                    stride: desc.stride,
                    padding: desc.padding,
                };
                lowered_len = lowered_len.max(spec.rows() * spec.cols());
                let (input, output) = bufs.advance(desc.out_channels * spec.cols());
                steps.push(FStep::Conv {
                    spec,
                    out_channels: desc.out_channels,
                    weight: conv.weight().as_slice().to_vec(),
                    bias: conv.bias().as_slice().to_vec(),
                    input,
                    output,
                });
                (c, h, w) = next;
            } else if let Some(dw) = any.downcast_ref::<DepthwiseConv2d>() {
                let (desc, next) = layer.describe((c, h, w));
                let (oh, ow) = desc.out_hw;
                let (input, output) = bufs.advance(c * oh * ow);
                steps.push(FStep::Depthwise {
                    channels: c,
                    kernel: desc.kernel,
                    stride: desc.stride,
                    padding: desc.padding,
                    h,
                    w,
                    weight: dw.weight().as_slice().to_vec(),
                    bias: dw.bias().as_slice().to_vec(),
                    input,
                    output,
                });
                (c, h, w) = next;
            } else if let Some(bn) = any.downcast_ref::<BatchNorm2d>() {
                // Same 1/sqrt(var + eps) the eval forward computes, done
                // once here: identical f32 bits on every run.
                let inv_std: Vec<f32> = bn
                    .running_var()
                    .iter()
                    .map(|&v| 1.0 / (v + BN_EPS).sqrt())
                    .collect();
                let buf = bufs.touch();
                steps.push(FStep::BatchNorm {
                    plane: h * w,
                    gamma: bn.gamma().as_slice().to_vec(),
                    beta: bn.beta().as_slice().to_vec(),
                    mean: bn.running_mean().to_vec(),
                    inv_std,
                    buf,
                });
            } else if any.is::<Relu>() {
                let buf = bufs.touch();
                steps.push(FStep::ReluInPlace { buf });
            } else if any.is::<MaxPool2d>() || any.is::<AvgPool2d>() {
                let (desc, next) = layer.describe((c, h, w));
                let (oh, ow) = desc.out_hw;
                let (input, output) = bufs.advance(c * oh * ow);
                if any.is::<MaxPool2d>() {
                    steps.push(FStep::MaxPool {
                        channels: c,
                        h,
                        w,
                        kernel: desc.kernel,
                        stride: desc.stride,
                        input,
                        output,
                    });
                } else {
                    steps.push(FStep::AvgPool {
                        channels: c,
                        h,
                        w,
                        kernel: desc.kernel,
                        stride: desc.stride,
                        input,
                        output,
                    });
                }
                (c, h, w) = next;
            } else if any.is::<GlobalAvgPool>() {
                let (input, output) = bufs.advance(c);
                steps.push(FStep::GlobalAvgPool {
                    channels: c,
                    h,
                    w,
                    input,
                    output,
                });
                (h, w) = (1, 1);
            } else if let Some(lin) = any.downcast_ref::<Linear>() {
                let in_features = c * h * w;
                let out_features = lin.weight().shape()[0];
                assert_eq!(
                    lin.weight().shape()[1],
                    in_features,
                    "linear expects {} inputs, chain provides {in_features}",
                    lin.weight().shape()[1],
                );
                let (input, output) = bufs.advance(out_features);
                steps.push(FStep::Linear {
                    in_features,
                    out_features,
                    weight: lin.weight().as_slice().to_vec(),
                    bias: lin.bias().as_slice().to_vec(),
                    input,
                    output,
                });
                (c, h, w) = (out_features, 1, 1);
            } else if any.is::<Flatten>() {
                c *= h * w;
                h = 1;
                w = 1;
            } else if any.is::<Dropout>() {
                // Identity in eval mode: no step.
            } else {
                panic!("no program lowering for layer `{}`", layer.name());
            }
        }

        let reqs: Vec<BufferReq> = bufs
            .sizes
            .iter()
            .zip(bufs.first.iter().zip(bufs.last.iter()))
            .map(|(&elems, (&f, &l))| BufferReq::new(elems, f, l))
            .collect();
        let plan = plan_arena(&reqs);

        FloatProgram {
            name: net.name().to_string(),
            input_chw: chw,
            output_chw: (c, h, w),
            steps,
            buf_offsets: plan.offsets,
            buf_sizes: bufs.sizes,
            arena_len: plan.arena_bytes,
            lowered_len,
            output_buf: bufs.cur,
        }
    }

    /// Model name (inherited from the [`Sequential`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fixed input shape the program was compiled for.
    pub fn input_chw(&self) -> (usize, usize, usize) {
        self.input_chw
    }

    /// The output shape every run produces.
    pub fn output_chw(&self) -> (usize, usize, usize) {
        self.output_chw
    }

    /// Flat output element count.
    pub fn output_len(&self) -> usize {
        self.buf_sizes[self.output_buf]
    }

    /// Planned arena size in f32 elements.
    pub fn arena_elems(&self) -> usize {
        self.arena_len
    }

    /// Sum of all intermediate buffers with no reuse — what the naive
    /// layer chain allocates per frame.
    pub fn naive_activation_elems(&self) -> usize {
        self.buf_sizes.iter().sum()
    }

    /// Runs the compiled chain on one CHW frame, writing every
    /// intermediate into `scratch`'s planned arena, and returns the output
    /// slice. Bit-identical to [`Sequential::forward_with`] on the
    /// `[1, C, H, W]` batch at any pool width; allocation-free once
    /// `scratch` is warm.
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not match the compiled input shape.
    pub fn forward_prepacked<'s>(
        &self,
        pool: Pool,
        scratch: &'s mut FScratch,
        frame: &[f32],
    ) -> &'s [f32] {
        assert_eq!(frame.len(), self.buf_sizes[0], "input size mismatch");
        scratch.reserve(self);
        let in_off = self.buf_offsets[0];
        scratch.arena[in_off..in_off + frame.len()].copy_from_slice(frame);

        let FScratch { arena, lowered } = scratch;
        for step in &self.steps {
            match step {
                FStep::Conv {
                    spec,
                    out_channels,
                    weight,
                    bias,
                    input,
                    output,
                } => {
                    let cols = spec.cols();
                    let rows = spec.rows();
                    let (in_off, in_len) = self.buf_at(*input);
                    im2col_into(
                        &arena[in_off..in_off + in_len],
                        *spec,
                        &mut lowered[..rows * cols],
                    );
                    let (out_off, out_len) = self.buf_at(*output);
                    let dst = &mut arena[out_off..out_off + out_len];
                    for (ci, &bv) in bias.iter().enumerate() {
                        dst[ci * cols..(ci + 1) * cols].fill(bv);
                    }
                    // Same call (and thus the same internal work-clamped
                    // partition) as Conv2d's single-image forward.
                    matmul_acc_with(
                        pool,
                        weight,
                        &lowered[..rows * cols],
                        dst,
                        *out_channels,
                        rows,
                        cols,
                    );
                }
                FStep::Depthwise {
                    channels,
                    kernel,
                    stride,
                    padding,
                    h,
                    w,
                    weight,
                    bias,
                    input,
                    output,
                } => {
                    let k = *kernel;
                    let oh = (h + 2 * padding - k) / stride + 1;
                    let ow = (w + 2 * padding - k) / stride + 1;
                    let pad = *padding as isize;
                    let (inp, outp) =
                        disjoint_pair(arena, self.buf_at(*input), self.buf_at(*output));
                    let pool = pool.for_work(channels * k * k * oh * ow);
                    pool.for_each_chunk(outp, oh * ow, |ci, dst| {
                        let plane_src = &inp[ci * h * w..(ci + 1) * h * w];
                        let kern = &weight[ci * k * k..(ci + 1) * k * k];
                        let bias_v = bias[ci];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = bias_v;
                                for ky in 0..k {
                                    let iy = oy as isize * *stride as isize + ky as isize - pad;
                                    if iy < 0 || iy >= *h as isize {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = ox as isize * *stride as isize + kx as isize - pad;
                                        if ix >= 0 && ix < *w as isize {
                                            acc += kern[ky * k + kx]
                                                * plane_src[iy as usize * w + ix as usize];
                                        }
                                    }
                                }
                                dst[oy * ow + ox] = acc;
                            }
                        }
                    });
                }
                FStep::BatchNorm {
                    plane,
                    gamma,
                    beta,
                    mean,
                    inv_std,
                    buf,
                } => {
                    let (off, _) = self.buf_at(*buf);
                    for (ci, ((&g, &b), (&m, &istd))) in gamma
                        .iter()
                        .zip(beta.iter())
                        .zip(mean.iter().zip(inv_std.iter()))
                        .enumerate()
                    {
                        let base = off + ci * plane;
                        for v in &mut arena[base..base + plane] {
                            let xh = (*v - m) * istd;
                            *v = g * xh + b;
                        }
                    }
                }
                FStep::ReluInPlace { buf } => {
                    let (off, len) = self.buf_at(*buf);
                    for v in &mut arena[off..off + len] {
                        *v = v.max(0.0);
                    }
                }
                FStep::MaxPool {
                    channels,
                    h,
                    w,
                    kernel,
                    stride,
                    input,
                    output,
                } => {
                    let oh = (h - kernel) / stride + 1;
                    let ow = (w - kernel) / stride + 1;
                    let (inp, outp) =
                        disjoint_pair(arena, self.buf_at(*input), self.buf_at(*output));
                    for ci in 0..*channels {
                        let plane = &inp[ci * h * w..(ci + 1) * h * w];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut best = f32::NEG_INFINITY;
                                for ky in 0..*kernel {
                                    for kx in 0..*kernel {
                                        let v = plane[(oy * stride + ky) * w + ox * stride + kx];
                                        if v > best {
                                            best = v;
                                        }
                                    }
                                }
                                outp[ci * oh * ow + oy * ow + ox] = best;
                            }
                        }
                    }
                }
                FStep::AvgPool {
                    channels,
                    h,
                    w,
                    kernel,
                    stride,
                    input,
                    output,
                } => {
                    let oh = (h - kernel) / stride + 1;
                    let ow = (w - kernel) / stride + 1;
                    let inv = 1.0 / (kernel * kernel) as f32;
                    let (inp, outp) =
                        disjoint_pair(arena, self.buf_at(*input), self.buf_at(*output));
                    for ci in 0..*channels {
                        let plane = &inp[ci * h * w..(ci + 1) * h * w];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = 0.0;
                                for ky in 0..*kernel {
                                    for kx in 0..*kernel {
                                        acc += plane[(oy * stride + ky) * w + ox * stride + kx];
                                    }
                                }
                                outp[ci * oh * ow + oy * ow + ox] = acc * inv;
                            }
                        }
                    }
                }
                FStep::GlobalAvgPool {
                    channels,
                    h,
                    w,
                    input,
                    output,
                } => {
                    let inv = 1.0 / (h * w) as f32;
                    let (inp, outp) =
                        disjoint_pair(arena, self.buf_at(*input), self.buf_at(*output));
                    for (ci, o) in outp.iter_mut().enumerate().take(*channels) {
                        let base = ci * h * w;
                        *o = inp[base..base + h * w].iter().sum::<f32>() * inv;
                    }
                }
                FStep::Linear {
                    in_features,
                    out_features,
                    weight,
                    bias,
                    input,
                    output,
                } => {
                    let (inp, outp) =
                        disjoint_pair(arena, self.buf_at(*input), self.buf_at(*output));
                    for j in 0..*out_features {
                        let wrow = &weight[j * in_features..(j + 1) * in_features];
                        let mut acc = bias[j];
                        for (xi, wi) in inp.iter().zip(wrow.iter()) {
                            acc += xi * wi;
                        }
                        outp[j] = acc;
                    }
                }
            }
        }

        let out_off = self.buf_offsets[self.output_buf];
        let out_len = self.buf_sizes[self.output_buf];
        &scratch.arena[out_off..out_off + out_len]
    }

    fn buf_at(&self, id: usize) -> (usize, usize) {
        (self.buf_offsets[id], self.buf_sizes[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{Initializer, SmallRng};
    use np_tensor::Tensor;

    fn mixed_net(rng: &mut SmallRng) -> Sequential {
        Sequential::with_name(
            "float-mixed",
            vec![
                Box::new(Conv2d::new(1, 5, 3, 2, 1, Initializer::KaimingUniform, rng)),
                Box::new(BatchNorm2d::new(5)),
                Box::new(Relu::new()),
                Box::new(DepthwiseConv2d::new(
                    5,
                    3,
                    1,
                    1,
                    Initializer::KaimingUniform,
                    rng,
                )),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Conv2d::new(5, 6, 3, 1, 1, Initializer::KaimingUniform, rng)),
                Box::new(Relu::new()),
                Box::new(Dropout::new(0.5, 9)),
                Box::new(Flatten::new()),
                Box::new(Linear::new(6 * 4 * 4, 3, Initializer::KaimingUniform, rng)),
            ],
        )
    }

    fn frame(rng: &mut SmallRng) -> Tensor {
        let data: Vec<f32> = (0..16 * 16).map(|_| rng.uniform(-1.0, 1.0)).collect();
        Tensor::from_vec(&[1, 1, 16, 16], data)
    }

    #[test]
    fn prepacked_matches_sequential_bitwise() {
        let mut rng = SmallRng::seed(7);
        let mut net = mixed_net(&mut rng);
        // Exercise batch norm with non-default running stats.
        for _ in 0..3 {
            let batch: Vec<f32> = (0..4 * 16 * 16).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let _ = net.forward_train(&Tensor::from_vec(&[4, 1, 16, 16], batch));
        }
        net.clear_caches();
        let program = FloatProgram::compile(&net, (1, 16, 16));
        let mut scratch = FScratch::for_program(&program);

        for _ in 0..4 {
            let x = frame(&mut rng);
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let want = net.forward_with(pool, &x);
                let got = program.forward_prepacked(pool, &mut scratch, x.as_slice());
                assert_eq!(got, want.as_slice(), "{threads} threads");
            }
        }
    }

    #[test]
    fn compile_reports_shapes_and_arena() {
        let mut rng = SmallRng::seed(8);
        let net = mixed_net(&mut rng);
        let program = FloatProgram::compile(&net, (1, 16, 16));
        assert_eq!(program.input_chw(), (1, 16, 16));
        assert_eq!(program.output_chw(), (3, 1, 1));
        assert_eq!(program.output_len(), 3);
        assert!(program.arena_elems() < program.naive_activation_elems());
        assert_eq!(program.name(), "float-mixed");
    }
}
