//! A real minibatch-SGD convergence experiment (Figure 13d).
//!
//! The paper trains ResNet50 on CIFAR100 for 100 epochs at different
//! mini-batch sizes and shows that very small batches (16, 32) fail to
//! reach maximum validation accuracy — the mechanism being batch
//! normalization, whose statistics become too noisy below ~32 samples
//! (§4.4 cites Wu & He's Group Normalization finding). Training ResNet50 is
//! out of scope for a CPU-only crate, so we reproduce the *mechanism* with
//! a genuinely trained model: a two-layer MLP with batch normalization on a
//! synthetic multi-class task, trained with minibatch SGD + momentum and
//! linear learning-rate scaling. Everything here is real training — real
//! forward/backward passes, real parameter updates — not a curve fit.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Synthetic classification dataset: `classes` labelled points in
/// `features`-dimensional space (see [`Dataset::shells_split`]).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Flattened `[n][features]` inputs.
    pub x: Vec<f32>,
    /// Labels in `0..classes`.
    pub y: Vec<usize>,
    /// Feature dimensionality.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Generates a train/validation pair of the *radial shells* task:
    /// class `c` lives on the sphere of radius `1 + 0.4 c`, perturbed by
    /// uniform noise. Separating concentric shells requires the network's
    /// nonlinearity and is strongly normalization-dependent, making it the
    /// right stress test for the batch-norm mechanism of Figure 13d.
    pub fn shells_split(
        n_train: usize,
        n_val: usize,
        features: usize,
        classes: usize,
        noise: f32,
        seed: u64,
    ) -> (Self, Self) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut draw = |n: usize| {
            let mut x = Vec::with_capacity(n * features);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let class = rng.gen_range(0..classes);
                let radius = 1.0 + 0.4 * class as f32;
                let mut v: Vec<f32> = (0..features)
                    .map(|_| {
                        let u1: f32 = rng.gen_range(1e-6f32..1.0);
                        let u2: f32 = rng.gen_range(0.0f32..1.0);
                        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
                    })
                    .collect();
                let norm = v.iter().map(|a| a * a).sum::<f32>().sqrt().max(1e-6);
                for vi in v.iter_mut() {
                    *vi = *vi / norm * radius + noise * rng.gen_range(-1.0f32..1.0);
                }
                x.extend_from_slice(&v);
                y.push(class);
            }
            Dataset {
                x,
                y,
                features,
                classes,
            }
        };
        let train = draw(n_train);
        let val = draw(n_val);
        (train, val)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Mini-batch size.
    pub batch: usize,
    /// Epochs to train.
    pub epochs: usize,
    /// Learning rate at the reference batch of 64 (scaled linearly with
    /// batch, after Goyal et al.).
    pub base_lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Hidden layer width.
    pub hidden: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            batch: 64,
            epochs: 100,
            base_lr: 0.05,
            momentum: 0.9,
            hidden: 48,
            seed: 7,
        }
    }
}

/// Validation accuracy per epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResult {
    /// Mini-batch size trained with.
    pub batch: usize,
    /// Validation accuracy after each epoch.
    pub val_accuracy: Vec<f64>,
}

impl TrainResult {
    /// Best validation accuracy over the run.
    pub fn best(&self) -> f64 {
        self.val_accuracy.iter().copied().fold(0.0, f64::max)
    }

    /// Mean accuracy over the last `k` epochs (plateau estimate).
    pub fn final_plateau(&self, k: usize) -> f64 {
        let n = self.val_accuracy.len();
        let k = k.min(n).max(1);
        self.val_accuracy[n - k..].iter().sum::<f64>() / k as f64
    }

    /// First epoch reaching `threshold` accuracy, if any (convergence
    /// speed).
    pub fn epochs_to_reach(&self, threshold: f64) -> Option<usize> {
        self.val_accuracy
            .iter()
            .position(|&a| a >= threshold)
            .map(|e| e + 1)
    }
}

/// MLP with batch normalization: `Linear → BatchNorm → ReLU → Linear`.
struct Mlp {
    d: usize,
    h: usize,
    k: usize,
    w1: Vec<f32>,
    b1: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
    // Momentum buffers.
    vw1: Vec<f32>,
    vb1: Vec<f32>,
    vgamma: Vec<f32>,
    vbeta: Vec<f32>,
    vw2: Vec<f32>,
    vb2: Vec<f32>,
    // Batch-norm running statistics for evaluation.
    run_mean: Vec<f32>,
    run_var: Vec<f32>,
}

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.9;

impl Mlp {
    fn new(d: usize, h: usize, k: usize, rng: &mut SmallRng) -> Self {
        let scale1 = (2.0 / d as f32).sqrt();
        let scale2 = (2.0 / h as f32).sqrt();
        Self {
            d,
            h,
            k,
            w1: (0..d * h).map(|_| rng.gen_range(-scale1..scale1)).collect(),
            b1: vec![0.0; h],
            gamma: vec![1.0; h],
            beta: vec![0.0; h],
            w2: (0..h * k).map(|_| rng.gen_range(-scale2..scale2)).collect(),
            b2: vec![0.0; k],
            vw1: vec![0.0; d * h],
            vb1: vec![0.0; h],
            vgamma: vec![0.0; h],
            vbeta: vec![0.0; h],
            vw2: vec![0.0; h * k],
            vb2: vec![0.0; k],
            run_mean: vec![0.0; h],
            run_var: vec![1.0; h],
        }
    }

    /// One SGD step on a mini-batch; returns the mean loss.
    #[expect(
        clippy::needless_range_loop,
        reason = "the loops index several arrays with strides; iterators would hide them"
    )]
    fn train_step(&mut self, x: &[f32], y: &[usize], lr: f32, momentum: f32) -> f32 {
        let b = y.len();
        let (d, h, k) = (self.d, self.h, self.k);

        // ---- forward ----
        let mut z1 = vec![0.0f32; b * h];
        for i in 0..b {
            for j in 0..h {
                let mut acc = self.b1[j];
                for f in 0..d {
                    acc += x[i * d + f] * self.w1[f * h + j];
                }
                z1[i * h + j] = acc;
            }
        }
        // Batch normalization with *batch* statistics — the noise source.
        let mut mean = vec![0.0f32; h];
        let mut var = vec![0.0f32; h];
        for j in 0..h {
            let mut m = 0.0;
            for i in 0..b {
                m += z1[i * h + j];
            }
            m /= b as f32;
            let mut v = 0.0;
            for i in 0..b {
                let dlt = z1[i * h + j] - m;
                v += dlt * dlt;
            }
            v /= b as f32;
            mean[j] = m;
            var[j] = v;
            self.run_mean[j] = BN_MOMENTUM * self.run_mean[j] + (1.0 - BN_MOMENTUM) * m;
            self.run_var[j] = BN_MOMENTUM * self.run_var[j] + (1.0 - BN_MOMENTUM) * v;
        }
        let mut xhat = vec![0.0f32; b * h];
        let mut a = vec![0.0f32; b * h]; // post-ReLU activations
        for i in 0..b {
            for j in 0..h {
                let norm = (z1[i * h + j] - mean[j]) / (var[j] + BN_EPS).sqrt();
                xhat[i * h + j] = norm;
                let pre = self.gamma[j] * norm + self.beta[j];
                a[i * h + j] = pre.max(0.0);
            }
        }
        let mut probs = vec![0.0f32; b * k];
        let mut loss = 0.0f32;
        for i in 0..b {
            let mut logits = vec![0.0f32; k];
            for c in 0..k {
                let mut acc = self.b2[c];
                for j in 0..h {
                    acc += a[i * h + j] * self.w2[j * k + c];
                }
                logits[c] = acc;
            }
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for c in 0..k {
                let e = (logits[c] - max).exp();
                probs[i * k + c] = e;
                denom += e;
            }
            for c in 0..k {
                probs[i * k + c] /= denom;
            }
            loss -= probs[i * k + y[i]].max(1e-12).ln();
        }
        loss /= b as f32;

        // ---- backward ----
        let mut dz2 = probs;
        for i in 0..b {
            dz2[i * k + y[i]] -= 1.0;
            for c in 0..k {
                dz2[i * k + c] /= b as f32;
            }
        }
        let mut dw2 = vec![0.0f32; h * k];
        let mut db2 = vec![0.0f32; k];
        for i in 0..b {
            for c in 0..k {
                let g = dz2[i * k + c];
                db2[c] += g;
                for j in 0..h {
                    dw2[j * k + c] += a[i * h + j] * g;
                }
            }
        }
        // Through ReLU into the BN output.
        let mut dy1 = vec![0.0f32; b * h];
        for i in 0..b {
            for j in 0..h {
                if a[i * h + j] > 0.0 {
                    let mut g = 0.0;
                    for c in 0..k {
                        g += dz2[i * k + c] * self.w2[j * k + c];
                    }
                    dy1[i * h + j] = g;
                }
            }
        }
        // BN backward.
        let mut dgamma = vec![0.0f32; h];
        let mut dbeta = vec![0.0f32; h];
        let mut dz1 = vec![0.0f32; b * h];
        for j in 0..h {
            let std = (var[j] + BN_EPS).sqrt();
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for i in 0..b {
                let dxhat = dy1[i * h + j] * self.gamma[j];
                sum_dxhat += dxhat;
                sum_dxhat_xhat += dxhat * xhat[i * h + j];
                dgamma[j] += dy1[i * h + j] * xhat[i * h + j];
                dbeta[j] += dy1[i * h + j];
            }
            for i in 0..b {
                let dxhat = dy1[i * h + j] * self.gamma[j];
                dz1[i * h + j] = (dxhat * b as f32 - sum_dxhat - xhat[i * h + j] * sum_dxhat_xhat)
                    / (b as f32 * std);
            }
        }
        let mut dw1 = vec![0.0f32; d * h];
        let mut db1 = vec![0.0f32; h];
        for i in 0..b {
            for j in 0..h {
                let g = dz1[i * h + j];
                db1[j] += g;
                for f in 0..d {
                    dw1[f * h + j] += x[i * d + f] * g;
                }
            }
        }

        // ---- SGD with momentum ----
        fn update(p: &mut [f32], v: &mut [f32], g: &[f32], lr: f32, momentum: f32) {
            for ((p, v), g) in p.iter_mut().zip(v.iter_mut()).zip(g.iter()) {
                *v = momentum * *v - lr * g;
                *p += *v;
            }
        }
        update(&mut self.w1, &mut self.vw1, &dw1, lr, momentum);
        update(&mut self.b1, &mut self.vb1, &db1, lr, momentum);
        update(&mut self.gamma, &mut self.vgamma, &dgamma, lr, momentum);
        update(&mut self.beta, &mut self.vbeta, &dbeta, lr, momentum);
        update(&mut self.w2, &mut self.vw2, &dw2, lr, momentum);
        update(&mut self.b2, &mut self.vb2, &db2, lr, momentum);
        loss
    }

    /// Classifies one sample using the running BN statistics.
    fn predict(&self, x: &[f32]) -> usize {
        let (d, h, k) = (self.d, self.h, self.k);
        let mut best = 0;
        let mut best_score = f32::NEG_INFINITY;
        let mut hidden = vec![0.0f32; h];
        for (j, out) in hidden.iter_mut().enumerate() {
            let mut acc = self.b1[j];
            for (f, &xf) in x.iter().enumerate().take(d) {
                acc += xf * self.w1[f * h + j];
            }
            let norm = (acc - self.run_mean[j]) / (self.run_var[j] + BN_EPS).sqrt();
            *out = (self.gamma[j] * norm + self.beta[j]).max(0.0);
        }
        for c in 0..k {
            let mut acc = self.b2[c];
            for (j, &a) in hidden.iter().enumerate() {
                acc += a * self.w2[j * k + c];
            }
            if acc > best_score {
                best_score = acc;
                best = c;
            }
        }
        best
    }
}

/// Trains the MLP on `train`, evaluating on `val` after each epoch.
pub fn train(train_set: &Dataset, val_set: &Dataset, config: &TrainConfig) -> TrainResult {
    assert_eq!(train_set.features, val_set.features);
    assert!(
        config.batch > 0 && config.epochs > 0,
        "batch and epochs must be positive"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut model = Mlp::new(
        train_set.features,
        config.hidden,
        train_set.classes,
        &mut rng,
    );
    // Linear LR scaling relative to the reference batch of 64.
    let lr = config.base_lr * config.batch as f32 / 64.0;

    let n = train_set.len();
    let d = train_set.features;
    let mut order: Vec<usize> = (0..n).collect();
    let mut val_accuracy = Vec::with_capacity(config.epochs);

    for _epoch in 0..config.epochs {
        // Fisher-Yates shuffle.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(config.batch) {
            if chunk.len() < 2 {
                continue; // batch norm needs at least two samples
            }
            let mut bx = Vec::with_capacity(chunk.len() * d);
            let mut by = Vec::with_capacity(chunk.len());
            for &idx in chunk {
                bx.extend_from_slice(&train_set.x[idx * d..(idx + 1) * d]);
                by.push(train_set.y[idx]);
            }
            model.train_step(&bx, &by, lr, config.momentum);
        }
        let correct = (0..val_set.len())
            .filter(|&i| model.predict(&val_set.x[i * d..(i + 1) * d]) == val_set.y[i])
            .count();
        val_accuracy.push(correct as f64 / val_set.len() as f64);
    }
    TrainResult {
        batch: config.batch,
        val_accuracy,
    }
}

/// Runs the full Figure 13d sweep over mini-batch sizes on the radial
/// shells task.
pub fn batch_size_sweep(batches: &[usize], epochs: usize, seed: u64) -> Vec<TrainResult> {
    let (train_set, val_set) = Dataset::shells_split(4096, 1024, 8, 8, 0.12, seed);
    batches
        .iter()
        .map(|&batch| {
            train(
                &train_set,
                &val_set,
                &TrainConfig {
                    batch,
                    epochs,
                    base_lr: 0.08,
                    seed: seed + 2,
                    ..TrainConfig::default()
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_deterministic_and_sized() {
        let a = Dataset::shells_split(100, 0, 8, 4, 0.3, 1).0;
        let b = Dataset::shells_split(100, 0, 8, 4, 0.3, 1).0;
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
        assert!(a.y.iter().all(|&y| y < 4));
    }

    #[test]
    fn training_learns_shells_gradually() {
        // The nonlinear shells task converges over tens of epochs.
        let (train_set, val_set) = Dataset::shells_split(2048, 512, 8, 8, 0.12, 5);
        let result = train(
            &train_set,
            &val_set,
            &TrainConfig {
                batch: 64,
                epochs: 30,
                base_lr: 0.08,
                ..TrainConfig::default()
            },
        );
        assert!(
            result.best() > 0.55,
            "shells should be learnable: {:.3}",
            result.best()
        );
        // Accuracy improves substantially over training.
        assert!(result.val_accuracy[29] > result.val_accuracy[0] + 0.1);
    }

    #[test]
    fn moderate_batches_beat_tiny_batches() {
        // The Figure 13d mechanism: batch-norm statistics over 16 samples
        // are too noisy to reach maximum accuracy; batch 128 plateaus
        // clearly higher.
        let results = batch_size_sweep(&[16, 128], 40, 21);
        let tiny = results[0].final_plateau(10);
        let moderate = results[1].final_plateau(10);
        assert!(
            moderate > tiny + 0.02,
            "batch 128 ({moderate:.3}) should clearly beat batch 16 ({tiny:.3})"
        );
    }

    #[test]
    fn result_helpers() {
        let r = TrainResult {
            batch: 64,
            val_accuracy: vec![0.2, 0.5, 0.9, 0.85],
        };
        assert_eq!(r.best(), 0.9);
        assert_eq!(r.epochs_to_reach(0.5), Some(2));
        assert_eq!(r.epochs_to_reach(0.95), None);
        assert!((r.final_plateau(2) - 0.875).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_panics() {
        let d = Dataset::shells_split(10, 0, 4, 2, 0.1, 1).0;
        train(
            &d,
            &d,
            &TrainConfig {
                batch: 0,
                ..TrainConfig::default()
            },
        );
    }
}
