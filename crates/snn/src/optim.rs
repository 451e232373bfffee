//! Optimizers and annealing schedules.
//!
//! The paper optimizes the test input with Adam under an adaptive learning
//! rate and anneals the Gumbel-Softmax temperature; training uses the same
//! machinery on the weights. Both live here.

use serde::{Deserialize, Serialize};
use snn_tensor::Tensor;

/// Annealing schedule for a scalar hyper-parameter (learning rate or
/// Gumbel temperature).
///
/// # Example
///
/// ```
/// use snn_model::optim::Schedule;
///
/// let s = Schedule::Exponential { initial: 0.1, decay: 0.5, min: 0.01 };
/// assert_eq!(s.at(0), 0.1);
/// assert_eq!(s.at(1), 0.05);
/// assert_eq!(s.at(10), 0.01); // floored
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Schedule {
    /// Constant value.
    Constant(f32),
    /// Multiply by `factor` every `every` steps, floored at `min`.
    Step {
        /// Value at step 0.
        initial: f32,
        /// Multiplicative factor applied every `every` steps.
        factor: f32,
        /// Interval in steps.
        every: usize,
        /// Lower bound.
        min: f32,
    },
    /// `initial · decayˢ`, floored at `min`.
    Exponential {
        /// Value at step 0.
        initial: f32,
        /// Per-step decay multiplier.
        decay: f32,
        /// Lower bound.
        min: f32,
    },
    /// Half-cosine from `initial` down to `min` over `period` steps, then
    /// held at `min`.
    Cosine {
        /// Value at step 0.
        initial: f32,
        /// Final value.
        min: f32,
        /// Number of steps of the descent.
        period: usize,
    },
}

impl Schedule {
    /// Value of the schedule at `step`.
    pub fn at(&self, step: usize) -> f32 {
        match *self {
            Schedule::Constant(v) => v,
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                reason = "decay exponents saturate the schedule at `min` long before i32::MAX"
            )]
            Schedule::Step { initial, factor, every, min } => {
                let k = step.checked_div(every).unwrap_or(0);
                (initial * factor.powi(k as i32)).max(min)
            }
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                reason = "decay exponents saturate the schedule at `min` long before i32::MAX"
            )]
            Schedule::Exponential { initial, decay, min } => {
                (initial * decay.powi(step as i32)).max(min)
            }
            Schedule::Cosine { initial, min, period } => {
                if period == 0 || step >= period {
                    return min;
                }
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "step < period here, and periods are training-run sized, far below 2^24"
                )]
                let x = step as f32 / period as f32;
                min + 0.5 * (initial - min) * (1.0 + (std::f32::consts::PI * x).cos())
            }
        }
    }
}

/// Adam optimizer state for one parameter tensor.
///
/// # Example
///
/// ```
/// use snn_model::optim::Adam;
/// use snn_tensor::{Shape, Tensor};
///
/// let mut p = Tensor::zeros(Shape::d1(3));
/// let mut adam = Adam::new(p.shape().clone());
/// let g = Tensor::full(Shape::d1(3), 1.0);
/// adam.step(&mut p, &g, 0.1);
/// // a positive gradient moves the parameter down
/// assert!(p.as_slice().iter().all(|&v| v < 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    m: Tensor,
    v: Tensor,
    t: u64,
    /// Exponential decay for the first moment (default 0.9).
    pub beta1: f32,
    /// Exponential decay for the second moment (default 0.999).
    pub beta2: f32,
    /// Numerical-stability constant (default 1e-8).
    pub eps: f32,
}

impl Adam {
    /// Fresh optimizer state for a parameter of the given shape.
    pub fn new(shape: snn_tensor::Shape) -> Self {
        Self {
            m: Tensor::zeros(shape.clone()),
            v: Tensor::zeros(shape),
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// One Adam update of `param` against `grad` with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree with the state.
    pub fn step(&mut self, param: &mut Tensor, grad: &Tensor, lr: f32) {
        assert_eq!(param.shape(), self.m.shape(), "adam param shape mismatch");
        assert_eq!(grad.shape(), self.m.shape(), "adam grad shape mismatch");
        snn_obs::counter!("snn_model_adam_steps_total", "Adam optimizer updates.").inc();
        self.t += 1;
        let b1 = self.beta1;
        let b2 = self.beta2;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "bias correction converges to 1.0 long before t overflows i32"
        )]
        let bc1 = 1.0 - b1.powi(self.t as i32);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "bias correction converges to 1.0 long before t overflows i32"
        )]
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let moments = self.m.as_mut_slice().iter_mut().zip(self.v.as_mut_slice());
        let params = param.as_mut_slice().iter_mut().zip(grad.as_slice());
        for ((p, &g), (m, v)) in params.zip(moments) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Number of updates performed so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use snn_tensor::Shape;

    #[test]
    fn constant_schedule_is_constant() {
        let s = Schedule::Constant(0.3);
        assert_eq!(s.at(0), 0.3);
        assert_eq!(s.at(999), 0.3);
    }

    #[test]
    fn step_schedule_decays_in_stairs() {
        let s = Schedule::Step { initial: 1.0, factor: 0.1, every: 10, min: 1e-3 };
        assert_eq!(s.at(9), 1.0);
        assert!((s.at(10) - 0.1).abs() < 1e-7);
        assert!((s.at(25) - 0.01).abs() < 1e-8);
        assert_eq!(s.at(1000), 1e-3);
    }

    #[test]
    fn cosine_schedule_is_monotone_decreasing() {
        let s = Schedule::Cosine { initial: 1.0, min: 0.1, period: 20 };
        assert_eq!(s.at(0), 1.0);
        let mut prev = f32::INFINITY;
        for step in 0..25 {
            let v = s.at(step);
            assert!(v <= prev + 1e-6);
            prev = v;
        }
        assert_eq!(s.at(20), 0.1);
        assert_eq!(s.at(100), 0.1);
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // minimize f(x) = (x - 3)², gradient 2(x-3)
        let mut x = Tensor::zeros(Shape::d1(1));
        let mut adam = Adam::new(Shape::d1(1));
        for _ in 0..500 {
            let g = Tensor::from_vec(Shape::d1(1), vec![2.0 * (x[0] - 3.0)]).unwrap();
            adam.step(&mut x, &g, 0.05);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x={}", x[0]);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // Bias correction makes the very first step ≈ lr regardless of
        // gradient magnitude.
        for scale in [0.01f32, 1.0, 100.0] {
            let mut x = Tensor::zeros(Shape::d1(1));
            let mut adam = Adam::new(Shape::d1(1));
            let g = Tensor::from_vec(Shape::d1(1), vec![scale]).unwrap();
            adam.step(&mut x, &g, 0.1);
            assert!((x[0] + 0.1).abs() < 1e-3, "scale {scale}: x={}", x[0]);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn adam_rejects_wrong_shape() {
        let mut x = Tensor::zeros(Shape::d1(2));
        let mut adam = Adam::new(Shape::d1(3));
        let g = Tensor::zeros(Shape::d1(2));
        adam.step(&mut x, &g, 0.1);
    }
}
