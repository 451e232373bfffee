//! Binary-concrete (Gumbel-Softmax) input relaxation and the
//! straight-through estimator — the paper's Fig. 3 input pipeline.
//!
//! The test input to an SNN is a binary spike tensor, which is not
//! differentiable. The paper therefore maintains a real-valued tensor
//! `I_real`, relaxes it with the Gumbel-Softmax function at temperature `τ`
//! (`I_soft`), binarizes with a straight-through estimator (`I_in`), and
//! backpropagates as if the binarization were the identity.
//!
//! For a *binary* variable the Gumbel-Softmax reduces to the binary
//! concrete distribution: `I_soft = σ((I_real + g) / τ)` with logistic
//! noise `g = ln u − ln(1 − u)`. A deterministic mode (`g = 0`) is provided
//! for reproducible tests and for the final deterministic readout of the
//! optimized stimulus.

use rand::Rng;
use snn_tensor::Tensor;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One relaxed-binarized sample of the input pipeline.
///
/// Holds the soft relaxation and the binarized tensor actually applied to
/// the SNN, plus what the backward pass needs.
#[derive(Debug, Clone, PartialEq)]
pub struct GumbelSample {
    /// `I_soft = σ((I_real + g)/τ)` — the differentiable relaxation.
    pub soft: Tensor,
    /// `I_in = STE(I_soft)` — hard 0/1 spikes applied to the network.
    pub binary: Tensor,
    tau: f32,
}

impl GumbelSample {
    /// Samples the pipeline stochastically: logistic noise is added to the
    /// logits before the temperature-scaled sigmoid.
    pub fn stochastic(rng: &mut impl Rng, logits: &Tensor, tau: f32) -> Self {
        let mut sample = Self::unsampled(logits);
        sample.resample(Some(rng), logits, tau);
        sample
    }

    /// Deterministic pipeline (no noise): `I_soft = σ(I_real/τ)`.
    pub fn deterministic(logits: &Tensor, tau: f32) -> Self {
        let mut sample = Self::unsampled(logits);
        sample.resample(None::<&mut rand::rngs::StdRng>, logits, tau);
        sample
    }

    /// All-zero buffers shaped like `logits`, for
    /// [`resample`](Self::resample) to fill.
    pub fn unsampled(logits: &Tensor) -> Self {
        let zeros = Tensor::zeros(logits.shape().clone());
        Self { soft: zeros.clone(), binary: zeros, tau: 1.0 }
    }

    /// Draws the sample anew in place — with logistic noise from `rng`,
    /// or deterministically without one — so that an optimizer loop
    /// samples every step into the same two buffers. Same values, and
    /// the same draws from `rng` in the same order, as a fresh
    /// [`stochastic`](Self::stochastic)/[`deterministic`](Self::deterministic)
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive or `logits` has another shape than
    /// the sample.
    pub fn resample(&mut self, mut rng: Option<&mut impl Rng>, logits: &Tensor, tau: f32) {
        assert!(tau > 0.0, "temperature must be positive, got {tau}");
        assert_eq!(logits.shape(), self.soft.shape(), "logit shape must match the sample");
        self.tau = tau;
        let out = self.soft.as_mut_slice().iter_mut().zip(self.binary.as_mut_slice());
        for (&l, (soft, binary)) in logits.as_slice().iter().zip(out) {
            let g = rng.as_mut().map_or(0.0, |rng| {
                let u: f32 = rng.gen_range(f32::EPSILON..(1.0 - f32::EPSILON));
                (u / (1.0 - u)).ln()
            });
            *soft = sigmoid((l + g) / tau);
            // The straight-through estimator's forward pass.
            *binary = if *soft >= 0.5 { 1.0 } else { 0.0 };
        }
    }

    /// The temperature this sample was drawn at.
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// Backward pass: turns `∂L/∂I_in` (the gradient that BPTT delivered
    /// at the binary network input) into `∂L/∂I_real`, in place.
    ///
    /// The straight-through estimator passes the gradient unchanged through
    /// the binarization; the concrete relaxation contributes
    /// `∂I_soft/∂I_real = I_soft·(1−I_soft)/τ`.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape.
    pub fn grad_logits(&self, grad: &mut Tensor) {
        assert_eq!(grad.shape(), self.soft.shape(), "gradient shape must match the sample");
        let inv_tau = 1.0 / self.tau;
        for (g, &sv) in grad.as_mut_slice().iter_mut().zip(self.soft.as_slice()) {
            *g *= sv * (1.0 - sv) * inv_tau;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_tensor::Shape;

    #[test]
    fn deterministic_sample_thresholds_logits_at_zero() {
        let logits = Tensor::from_vec(Shape::d1(4), vec![-2.0, -0.1, 0.1, 3.0]).unwrap();
        let s = GumbelSample::deterministic(&logits, 0.5);
        assert!(s.binary.is_binary());
        assert_eq!(s.binary.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn lower_temperature_sharpens_the_relaxation() {
        let logits = Tensor::from_vec(Shape::d1(1), vec![1.0]).unwrap();
        let warm = GumbelSample::deterministic(&logits, 1.0);
        let cold = GumbelSample::deterministic(&logits, 0.1);
        assert!(cold.soft[0] > warm.soft[0]);
        assert!(cold.soft[0] > 0.99);
    }

    #[test]
    fn stochastic_sampling_rate_follows_logit() {
        let mut rng = StdRng::seed_from_u64(11);
        let logits = Tensor::zeros(Shape::d1(10_000));
        let s = GumbelSample::stochastic(&mut rng, &logits, 0.9);
        // logit 0 ⇒ spike probability 1/2
        let rate = s.binary.sum() / s.binary.len() as f32;
        assert!((rate - 0.5).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn grad_logits_scales_by_concrete_derivative() {
        let logits = Tensor::from_vec(Shape::d1(2), vec![0.0, 4.0]).unwrap();
        let s = GumbelSample::deterministic(&logits, 1.0);
        let mut g = Tensor::full(Shape::d1(2), 1.0);
        s.grad_logits(&mut g);
        // at logit 0: σ=0.5 ⇒ derivative 0.25; at logit 4: σ≈0.982 ⇒ ≈0.0177
        assert!((g[0] - 0.25).abs() < 1e-4);
        assert!(g[1] < 0.05);
        assert!(g[1] > 0.0);
    }

    #[test]
    fn saturated_logits_receive_vanishing_gradient() {
        let logits = Tensor::from_vec(Shape::d1(1), vec![50.0]).unwrap();
        let s = GumbelSample::deterministic(&logits, 0.9);
        let mut g = Tensor::full(Shape::d1(1), 1.0);
        s.grad_logits(&mut g);
        assert!(g[0].abs() < 1e-6);
    }

    #[test]
    fn stochastic_is_reproducible_per_seed() {
        let logits = Tensor::zeros(Shape::d1(64));
        let a = GumbelSample::stochastic(&mut StdRng::seed_from_u64(5), &logits, 0.9);
        let b = GumbelSample::stochastic(&mut StdRng::seed_from_u64(5), &logits, 0.9);
        assert_eq!(a, b);
    }

    #[test]
    fn resampling_in_place_equals_a_fresh_sample() {
        let mut rng = StdRng::seed_from_u64(3);
        let logits = snn_tensor::init::uniform(&mut rng, Shape::d2(4, 9), -2.0, 2.0);
        let mut reused = GumbelSample::deterministic(&Tensor::zeros(Shape::d2(4, 9)), 0.4);
        reused.resample(Some(&mut StdRng::seed_from_u64(8)), &logits, 0.7);
        assert_eq!(reused, GumbelSample::stochastic(&mut StdRng::seed_from_u64(8), &logits, 0.7));
        reused.resample(None::<&mut StdRng>, &logits, 0.6);
        assert_eq!(reused, GumbelSample::deterministic(&logits, 0.6));
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_nonpositive_temperature() {
        let logits = Tensor::zeros(Shape::d1(1));
        let _ = GumbelSample::deterministic(&logits, 0.0);
    }
}
