//! Adam and AdamW.

use crate::Optimizer;

/// Adam (Kingma & Ba) with bias-corrected moment estimates.
///
/// Default hyper-parameters follow the original paper, which is also what
/// the FDA paper uses for LeNet-5 / VGG16* local optimization and (with a
/// larger server learning rate) for FedAdam's server step.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates Adam with default betas (0.9, 0.999) and eps 1e-7.
    pub fn new(lr: f32, dim: usize) -> Self {
        Adam::with_params(lr, 0.9, 0.999, 1e-7, dim)
    }

    /// Creates Adam with explicit hyper-parameters.
    pub(crate) fn with_params(lr: f32, beta1: f32, beta2: f32, eps: f32, dim: usize) -> Self {
        assert!(lr > 0.0, "adam: learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "adam: beta1 in [0,1)");
        assert!((0.0..1.0).contains(&beta2), "adam: beta2 in [0,1)");
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "adam: length mismatch");
        assert_eq!(params.len(), self.m.len(), "adam: dim mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn reset(&mut self) {
        self.t = 0;
        self.m.iter_mut().for_each(|v| *v = 0.0);
        self.v.iter_mut().for_each(|v| *v = 0.0);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

/// AdamW (Loshchilov & Hutter): Adam with *decoupled* weight decay, used by
/// the paper for ConvNeXtLarge fine-tuning.
#[derive(Debug, Clone)]
pub struct AdamW {
    inner: Adam,
    weight_decay: f32,
}

impl AdamW {
    /// Creates AdamW with default betas and the given decoupled decay.
    pub fn new(lr: f32, weight_decay: f32, dim: usize) -> Self {
        assert!(weight_decay >= 0.0, "adamw: weight decay must be >= 0");
        AdamW {
            inner: Adam::new(lr, dim),
            weight_decay,
        }
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        // Decoupled decay applied directly to weights, then an Adam step.
        let decay = self.inner.lr * self.weight_decay;
        if decay > 0.0 {
            for p in params.iter_mut() {
                *p -= decay * *p;
            }
        }
        self.inner.step(params, grads);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn learning_rate(&self) -> f32 {
        self.inner.lr
    }

    fn name(&self) -> &'static str {
        "adamw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step is ≈ lr·sign(g).
        let mut opt = Adam::new(0.1, 2);
        let mut w = vec![0.0f32, 0.0];
        opt.step(&mut w, &[3.0, -0.5]);
        assert!(
            (w[0] + 0.1).abs() < 1e-3,
            "step should be ≈ -lr, got {}",
            w[0]
        );
        assert!(
            (w[1] - 0.1).abs() < 1e-3,
            "step should be ≈ +lr, got {}",
            w[1]
        );
    }

    #[test]
    fn adam_converges_on_ill_conditioned_quadratic() {
        // f(w) = 100·w₀² + 0.01·w₁² — adaptive scaling should handle the
        // 10⁴ conditioning gap where plain SGD at a workable lr crawls.
        let mut opt = Adam::new(0.1, 2);
        let mut w = vec![1.0f32, 1.0];
        for _ in 0..2000 {
            let g = [200.0 * w[0], 0.02 * w[1]];
            opt.step(&mut w, &g);
        }
        assert!(w[0].abs() < 1e-3, "w0 = {}", w[0]);
        assert!(w[1].abs() < 0.15, "w1 = {}", w[1]);
    }

    #[test]
    fn adamw_decay_shrinks_without_gradient() {
        let mut opt = AdamW::new(0.1, 0.5, 1);
        let mut w = vec![1.0f32];
        // Zero gradient: only the decoupled decay moves the weight.
        opt.step(&mut w, &[0.0]);
        assert!((w[0] - 0.95).abs() < 1e-6, "1 − lr·wd = 0.95, got {}", w[0]);
    }

    #[test]
    fn adamw_equals_adam_when_decay_zero() {
        let mut a = Adam::new(0.05, 3);
        let mut aw = AdamW::new(0.05, 0.0, 3);
        let mut w1 = vec![0.3f32, -0.2, 0.9];
        let mut w2 = w1.clone();
        for s in 0..50 {
            let g: Vec<f32> = w1.iter().map(|v| v + s as f32 * 0.01).collect();
            a.step(&mut w1, &g);
            let g2: Vec<f32> = w2.iter().map(|v| v + s as f32 * 0.01).collect();
            aw.step(&mut w2, &g2);
        }
        for (x, y) in w1.iter().zip(&w2) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut opt = Adam::new(0.1, 1);
        let mut w = vec![0.0f32];
        opt.step(&mut w, &[1.0]);
        let first = w[0];
        opt.reset();
        let mut w2 = vec![0.0f32];
        opt.step(&mut w2, &[1.0]);
        assert_eq!(w2[0], first);
    }
}
