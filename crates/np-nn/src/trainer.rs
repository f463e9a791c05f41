//! Mini-batch training loop with optional data-parallel gradient workers.

use crate::layer::Param;
use crate::loss::{cross_entropy_loss, huber_loss, l1_loss, mse_loss};
use crate::optim::{Adam, Sgd};
use crate::sequential::Sequential;
use np_tensor::parallel::Pool;
use np_tensor::Tensor;

/// Ground truth for a training set.
#[derive(Debug, Clone)]
pub enum TrainTarget {
    /// `[N, D]` regression targets.
    Regression(Tensor),
    /// One class index per sample.
    Classification(Vec<usize>),
}

impl TrainTarget {
    /// Number of samples.
    pub fn len(&self) -> usize {
        match self {
            TrainTarget::Regression(t) => t.shape()[0],
            TrainTarget::Classification(v) => v.len(),
        }
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn gather(&self, idxs: &[usize]) -> TrainTarget {
        match self {
            TrainTarget::Regression(t) => {
                let d = t.shape()[1];
                let src = t.as_slice();
                let mut out = Vec::with_capacity(idxs.len() * d);
                for &i in idxs {
                    out.extend_from_slice(&src[i * d..(i + 1) * d]);
                }
                TrainTarget::Regression(Tensor::from_vec(&[idxs.len(), d], out))
            }
            TrainTarget::Classification(v) => {
                TrainTarget::Classification(idxs.iter().map(|&i| v[i]).collect())
            }
        }
    }
}

/// Loss function selector for [`fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossKind {
    /// Mean absolute error (the paper's regression objective).
    L1,
    /// Mean squared error.
    Mse,
    /// Smooth L1 with the given delta.
    Huber(f32),
    /// Softmax cross entropy (classification targets required).
    CrossEntropy,
}

/// A complete training set: stacked inputs plus targets.
#[derive(Debug, Clone)]
pub struct TrainData {
    /// `[N, C, H, W]` inputs.
    pub inputs: Tensor,
    /// Matching targets.
    pub targets: TrainTarget,
}

impl TrainData {
    /// Bundles inputs and targets.
    ///
    /// # Panics
    ///
    /// Panics if sample counts disagree.
    pub fn new(inputs: Tensor, targets: TrainTarget) -> Self {
        assert_eq!(inputs.shape()[0], targets.len(), "sample count mismatch");
        TrainData { inputs, targets }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn gather(&self, idxs: &[usize]) -> (Tensor, TrainTarget) {
        let d = self.inputs.shape();
        let per = d[1] * d[2] * d[3];
        let src = self.inputs.as_slice();
        let mut out = Vec::with_capacity(idxs.len() * per);
        for &i in idxs {
            out.extend_from_slice(&src[i * per..(i + 1) * per]);
        }
        (
            Tensor::from_vec(&[idxs.len(), d[1], d[2], d[3]], out),
            self.targets.gather(idxs),
        )
    }
}

/// Abstraction over the optimizers in [`crate::optim`], so the trainer does
/// not need to be generic.
pub trait Optimizer: Send {
    /// Applies one parameter update.
    fn step(&mut self, params: &mut [&mut Param]);
    /// Current learning rate.
    fn lr(&self) -> f32;
    /// Overwrites the learning rate.
    fn set_lr(&mut self, lr: f32);
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        Sgd::step(self, params);
    }
    fn lr(&self) -> f32 {
        Sgd::lr(self)
    }
    fn set_lr(&mut self, lr: f32) {
        Sgd::set_lr(self, lr);
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        Adam::step(self, params);
    }
    fn lr(&self) -> f32 {
        Adam::lr(self)
    }
    fn set_lr(&mut self, lr: f32) {
        Adam::set_lr(self, lr);
    }
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Full passes over the data.
    pub epochs: usize,
    /// Samples per gradient step.
    pub batch_size: usize,
    /// Data-parallel gradient workers (1 = single-threaded).
    pub threads: usize,
    /// Objective.
    pub loss: LossKind,
    /// Cosine-anneal the learning rate to 10% of its initial value.
    pub cosine_schedule: bool,
    /// Random seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            threads: 4,
            loss: LossKind::L1,
            cosine_schedule: true,
            seed: 0,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Learning rate used.
    pub lr: f32,
}

fn batch_loss(
    model: &mut Sequential,
    inputs: &Tensor,
    targets: &TrainTarget,
    loss: LossKind,
    grad_scale: f32,
    pool: Pool,
) -> f32 {
    let pred = model.forward_train_with(pool, inputs);
    let (value, grad) = match (loss, targets) {
        (LossKind::L1, TrainTarget::Regression(t)) => l1_loss(&pred, t),
        (LossKind::Mse, TrainTarget::Regression(t)) => mse_loss(&pred, t),
        (LossKind::Huber(delta), TrainTarget::Regression(t)) => huber_loss(&pred, t, delta),
        (LossKind::CrossEntropy, TrainTarget::Classification(t)) => cross_entropy_loss(&pred, t),
        _ => panic!("loss kind does not match target kind"),
    };
    model.backward_with(pool, &grad.scale(grad_scale));
    value
}

/// One batch shard of data-parallel training: a worker clone, its slice
/// of the batch, and the weighted loss it reports.
struct Shard<'w> {
    worker: &'w mut Sequential,
    x: Tensor,
    y: TrainTarget,
    weight: f32,
    loss: f32,
}

/// Trains `model` on `data`, returning per-epoch statistics.
///
/// With `config.threads > 1` each batch is sharded across worker clones of
/// the model; gradients are summed with the correct per-shard weighting so
/// the result is identical (up to float reassociation) to single-threaded
/// training.
///
/// # Panics
///
/// Panics if `data` is empty, `batch_size == 0`, or the loss kind does not
/// match the target kind.
pub fn fit(
    model: &mut Sequential,
    opt: &mut dyn Optimizer,
    data: &TrainData,
    config: TrainConfig,
) -> Vec<EpochStats> {
    assert!(!data.is_empty(), "training data is empty");
    assert!(config.batch_size > 0, "batch size must be positive");
    let n = data.len();
    let threads = config.threads.max(1);
    let lr0 = opt.lr();
    let mut rng = crate::init::SmallRng::seed(config.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut workers: Vec<Sequential> = (0..threads).map(|_| model.clone()).collect();
    let mut stats = Vec::with_capacity(config.epochs);
    let total_steps = (config.epochs * n.div_ceil(config.batch_size)) as u32;
    let mut step = 0u32;

    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut seen = 0usize;
        for batch_idx in order.chunks(config.batch_size) {
            if config.cosine_schedule {
                opt.set_lr(crate::optim::cosine_lr(step, total_steps, lr0, lr0 * 0.1));
            }
            let batch_n = batch_idx.len();
            let loss_value = if threads == 1 || batch_n < 2 * threads {
                // Single-model path: the kernels themselves parallelize
                // (over batch items / GEMM rows) on a pool of this width.
                let (bx, by) = data.gather(batch_idx);
                model.zero_grad();
                batch_loss(model, &bx, &by, config.loss, 1.0, Pool::new(threads))
            } else {
                // Shard the batch across worker clones, one pool item per
                // shard. Workers run serial kernels: the batch shards ARE
                // the parallelism.
                let shard = batch_n.div_ceil(threads);
                let mut shards: Vec<Shard> = workers
                    .iter_mut()
                    .zip(batch_idx.chunks(shard))
                    .map(|(worker, idxs)| {
                        worker.copy_params_from(model);
                        worker.zero_grad();
                        let (x, y) = data.gather(idxs);
                        let weight = idxs.len() as f32 / batch_n as f32;
                        Shard {
                            worker,
                            x,
                            y,
                            weight,
                            loss: 0.0,
                        }
                    })
                    .collect();
                let loss_kind = config.loss;
                Pool::new(threads).for_each_mut(&mut shards, |_, s| {
                    s.loss = batch_loss(s.worker, &s.x, &s.y, loss_kind, s.weight, Pool::serial())
                        * s.weight;
                });
                let n_shards = shards.len();
                let loss: f32 = shards.iter().map(|s| s.loss).sum();
                model.zero_grad();
                for worker in &workers[..n_shards] {
                    model.accumulate_grads_from(worker);
                }
                // Gradients flow back explicitly; batch-norm running
                // statistics are state and must be synced too (worker 0's
                // EMA is a valid estimate — it has seen a shard of every
                // batch).
                model.copy_norm_stats_from(&workers[0]);
                loss
            };
            opt.step(&mut model.params_mut());
            epoch_loss += loss_value * batch_n as f32;
            seen += batch_n;
            step += 1;
        }
        stats.push(EpochStats {
            epoch,
            loss: epoch_loss / seen as f32,
            lr: opt.lr(),
        });
    }
    model.clear_caches();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{Initializer, SmallRng};
    use crate::layers::{Conv2d, Flatten, Linear, Relu};
    use crate::optim::SgdConfig;

    /// Toy task: regress the mean of a 4x4 image.
    fn toy_data(n: usize, seed: u64) -> TrainData {
        let mut rng = SmallRng::seed(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let img: Vec<f32> = (0..16).map(|_| rng.uniform(-1.0, 1.0)).collect();
            ys.push(img.iter().sum::<f32>() / 16.0);
            xs.extend(img);
        }
        TrainData::new(
            Tensor::from_vec(&[n, 1, 4, 4], xs),
            TrainTarget::Regression(Tensor::from_vec(&[n, 1], ys)),
        )
    }

    fn toy_model(seed: u64) -> Sequential {
        let mut rng = SmallRng::seed(seed);
        Sequential::new(vec![
            Box::new(Conv2d::new(
                1,
                4,
                3,
                1,
                1,
                Initializer::KaimingUniform,
                &mut rng,
            )),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(
                4 * 16,
                1,
                Initializer::KaimingUniform,
                &mut rng,
            )),
        ])
    }

    #[test]
    fn loss_decreases_single_thread() {
        let data = toy_data(128, 1);
        let mut model = toy_model(2);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        let stats = fit(
            &mut model,
            &mut opt,
            &data,
            TrainConfig {
                epochs: 8,
                batch_size: 16,
                threads: 1,
                loss: LossKind::Mse,
                cosine_schedule: false,
                seed: 3,
            },
        );
        assert!(
            stats.last().unwrap().loss < 0.5 * stats[0].loss,
            "loss did not decrease: {stats:?}"
        );
    }

    #[test]
    fn multithreaded_matches_single_thread() {
        let data = toy_data(64, 5);
        let config = |threads| TrainConfig {
            epochs: 2,
            batch_size: 16,
            threads,
            loss: LossKind::Mse,
            cosine_schedule: false,
            seed: 7,
        };
        let mut m1 = toy_model(9);
        let mut m2 = m1.clone();
        let mut o1 = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        let mut o2 = o1.clone();
        let s1 = fit(&mut m1, &mut o1, &data, config(1));
        let s2 = fit(&mut m2, &mut o2, &data, config(4));
        // Same shuffles, same shards summed deterministically: losses match
        // to float tolerance.
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert!((a.loss - b.loss).abs() < 1e-3, "{a:?} vs {b:?}");
        }
        let x = Tensor::full(&[1, 1, 4, 4], 0.2);
        assert!(m1.forward(&x).allclose(&m2.forward(&x), 1e-3));
    }

    #[test]
    fn classification_training_improves_accuracy() {
        // Classify whether the left half is brighter than the right half.
        let mut rng = SmallRng::seed(11);
        let n = 128;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let bias: f32 = if rng.chance(0.5) { 0.8 } else { -0.8 };
            let mut img = vec![0.0f32; 16];
            for (i, v) in img.iter_mut().enumerate() {
                let col = i % 4;
                *v = rng.uniform(-0.2, 0.2) + if col < 2 { bias } else { -bias };
            }
            ys.push(if bias > 0.0 { 0 } else { 1 });
            xs.extend(img);
        }
        let data = TrainData::new(
            Tensor::from_vec(&[n, 1, 4, 4], xs),
            TrainTarget::Classification(ys.clone()),
        );
        let mut model = Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(16, 2, Initializer::XavierUniform, &mut rng)),
        ]);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        fit(
            &mut model,
            &mut opt,
            &data,
            TrainConfig {
                epochs: 10,
                batch_size: 32,
                threads: 2,
                loss: LossKind::CrossEntropy,
                cosine_schedule: true,
                seed: 1,
            },
        );
        let logits = model.forward(&data.inputs);
        let acc = crate::loss::accuracy(&logits, &ys);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn multithreaded_training_syncs_batchnorm_stats() {
        // Regression test: data-parallel training must propagate batch-norm
        // running statistics to the master model, or eval-mode inference
        // operates with initialization statistics and is garbage.
        use crate::layers::BatchNorm2d;
        let data = toy_data(64, 3);
        let mut model = Sequential::new(vec![
            Box::new(Conv2d::new(
                1,
                4,
                3,
                1,
                1,
                Initializer::KaimingUniform,
                &mut SmallRng::seed(2),
            )),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(
                4 * 16,
                1,
                Initializer::KaimingUniform,
                &mut SmallRng::seed(3),
            )),
        ]);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        fit(
            &mut model,
            &mut opt,
            &data,
            TrainConfig {
                epochs: 3,
                batch_size: 32,
                threads: 4,
                loss: LossKind::Mse,
                cosine_schedule: false,
                seed: 5,
            },
        );
        let bn = model.layers()[1]
            .as_any()
            .downcast_ref::<BatchNorm2d>()
            .expect("layer 1 is batchnorm");
        // Inputs are uniform(-1,1) through a random conv: running variance
        // must have moved away from its 1.0 initialization.
        let moved = bn.running_var().iter().any(|&v| (v - 1.0).abs() > 1e-3)
            || bn.running_mean().iter().any(|&m| m.abs() > 1e-4);
        assert!(moved, "running stats never left initialization");

        // And eval-mode predictions must be close to train-mode ones.
        let x = data.inputs.batch_item(0);
        let eval_out = model.forward(&x);
        let train_out = model.forward_train(&x);
        model.clear_caches();
        assert!(
            (eval_out.as_slice()[0] - train_out.as_slice()[0]).abs() < 1.0,
            "eval {} vs train {} diverged",
            eval_out.as_slice()[0],
            train_out.as_slice()[0]
        );
    }

    #[test]
    #[should_panic(expected = "loss kind does not match")]
    fn mismatched_loss_panics() {
        let data = toy_data(8, 1);
        let mut model = toy_model(1);
        let mut opt = Sgd::new(SgdConfig::default());
        fit(
            &mut model,
            &mut opt,
            &data,
            TrainConfig {
                epochs: 1,
                batch_size: 8,
                threads: 1,
                loss: LossKind::CrossEntropy,
                cosine_schedule: false,
                seed: 0,
            },
        );
    }
}
