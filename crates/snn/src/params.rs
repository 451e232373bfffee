use serde::{Deserialize, Serialize};

/// Parameters of the discrete-time Leaky-Integrate-and-Fire neuron.
///
/// Per simulation tick a non-refractory neuron updates its membrane
/// potential as `v ← leak·v + z` where `z` is the weighted sum of incoming
/// spikes. When `v ≥ threshold` the neuron emits a spike, the potential is
/// reset to zero and the neuron ignores input for `refrac_steps` ticks —
/// exactly the behaviour sketched in the paper's Fig. 1.
///
/// # Example
///
/// ```
/// use snn_model::LifParams;
///
/// let p = LifParams::default();
/// assert!(p.leak > 0.0 && p.leak <= 1.0);
/// let fast = LifParams { refrac_steps: 0, ..p };
/// assert_eq!(fast.refrac_steps, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifParams {
    /// Firing threshold `θ` on the membrane potential.
    pub threshold: f32,
    /// Multiplicative leak `λ ∈ (0, 1]` applied to the carried potential
    /// each tick (1.0 = perfect integrator).
    pub leak: f32,
    /// Number of ticks after a spike during which the neuron neither
    /// integrates nor fires.
    pub refrac_steps: u32,
}

impl LifParams {
    /// Validates the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field, if any.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.threshold.is_finite() && self.threshold > 0.0) {
            return Err(format!("threshold must be finite and positive, got {}", self.threshold));
        }
        if !(self.leak > 0.0 && self.leak <= 1.0) {
            return Err(format!("leak must be in (0, 1], got {}", self.leak));
        }
        Ok(())
    }
}

impl Default for LifParams {
    fn default() -> Self {
        Self { threshold: 1.0, leak: 0.9, refrac_steps: 2 }
    }
}

/// What one [`LifParams::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifTick {
    /// The neuron emitted a spike this tick.
    pub fired: bool,
    /// Pre-spike membrane potential `v[t]`, or `None` when the neuron was
    /// refractory and did not integrate.
    pub potential: Option<f32>,
}

impl LifParams {
    /// One tick of one neuron — the forward LIF update of the clocked
    /// simulator (the event-driven oracle has its own, and
    /// [`step_row`](Self::step_row) spells this one a second time for a
    /// whole row): a refractory neuron counts down and stays at rest;
    /// otherwise the membrane leaks, integrates the synaptic drive `z`,
    /// and on reaching the threshold fires, resets and enters its
    /// refractory period. `carried` is the potential kept across ticks,
    /// `refrac` the remaining refractory ticks; both are advanced in
    /// place.
    #[inline]
    pub fn step(&self, carried: &mut f32, refrac: &mut u32, z: f32) -> LifTick {
        if *refrac > 0 {
            *refrac -= 1;
            *carried = 0.0;
            return LifTick { fired: false, potential: None };
        }
        let v = self.leak * *carried + z;
        let fired = v >= self.threshold;
        if fired {
            *carried = 0.0;
            *refrac = self.refrac_steps;
        } else {
            *carried = v;
        }
        LifTick { fired, potential: Some(v) }
    }

    /// One tick of a row of neurons that share these parameters:
    /// [`step`](Self::step) for every `i`, on `carried[i]`, `refrac[i]`
    /// and `z[i]`, with the spike written to `spikes[i]` as `0.0`/`1.0`
    /// and, into a `recorded` pair of `(potential, gate)` rows, what BPTT
    /// needs of the tick: `v` and `1.0`, or `0.0` twice when resting.
    ///
    /// This is a second spelling of the update, not a loop over `step`:
    /// its branches are written as selects so that the loop vectorises
    /// (a select-form `step` is slower on the one-neuron paths, where
    /// the branch predicts well). The two are held together by a property
    /// test on spikes, state bits and recorded rows, not by construction.
    /// A resting neuron computes a potential that the select then drops;
    /// no floating-point state is touched by it. Without `recorded` the
    /// loop is the indexed one the packed engine has always called (on
    /// rows of 32 a zip reads 5 % slower); with it the rows are zipped,
    /// because six indexed rows keep their bounds checks and stay scalar.
    ///
    /// # Panics
    ///
    /// Panics if the rows differ in length.
    pub fn step_row(
        &self,
        carried: &mut [f32],
        refrac: &mut [u32],
        z: &[f32],
        spikes: &mut [f32],
        recorded: Option<(&mut [f32], &mut [f32])>,
    ) {
        let n = carried.len();
        assert!(
            refrac.len() == n && z.len() == n && spikes.len() == n,
            "step_row rows must have one length"
        );
        // One tick of one neuron, branch-free: `(potential, resting)`.
        let tick = |c: &mut f32, r: &mut u32, z: f32, s: &mut f32| {
            let resting = *r > 0;
            let v = self.leak * *c + z;
            let fired = !resting & (v >= self.threshold);
            *c = if resting | fired { 0.0 } else { v };
            // Not resting means the counter is already 0.
            *r = if fired { self.refrac_steps } else { r.saturating_sub(1) };
            *s = f32::from(u8::from(fired));
            (v, resting)
        };
        match recorded {
            None => {
                for i in 0..n {
                    tick(&mut carried[i], &mut refrac[i], z[i], &mut spikes[i]);
                }
            }
            Some((pot, gate)) => {
                assert!(pot.len() == n && gate.len() == n, "step_row rows must have one length");
                let state = carried.iter_mut().zip(refrac).zip(z.iter().zip(spikes));
                for (((c, r), (&z, s)), (p, g)) in state.zip(pot.iter_mut().zip(gate)) {
                    let (v, resting) = tick(c, r, z, s);
                    *p = if resting { 0.0 } else { v };
                    *g = f32::from(u8::from(!resting));
                }
            }
        }
    }

    /// These parameters under a timing-variation fault: threshold and
    /// leak scaled (and clamped back into their valid ranges), refractory
    /// period shifted by `refrac_delta` ticks and floored at zero.
    pub fn perturbed(&self, threshold_scale: f32, leak_scale: f32, refrac_delta: i32) -> Self {
        Self {
            threshold: (self.threshold * threshold_scale).max(f32::EPSILON),
            leak: (self.leak * leak_scale).clamp(f32::EPSILON, 1.0),
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "clamped non-negative and refractory periods are tiny, truncation unreachable"
            )]
            refrac_steps: (i64::from(self.refrac_steps) + i64::from(refrac_delta)).max(0) as u32,
        }
    }
}

/// Surrogate derivative used for the non-differentiable spike function
/// during BPTT.
///
/// The forward pass uses the hard Heaviside `s = H(v − θ)`; the backward
/// pass substitutes `ds/dv` with a smooth approximation evaluated at
/// `v − θ`.
///
/// # Example
///
/// ```
/// use snn_model::Surrogate;
///
/// let s = Surrogate::default();
/// // The surrogate is maximal at the threshold and decays away from it.
/// assert!(s.grad(0.0) > s.grad(1.0));
/// assert!(s.grad(0.0) > s.grad(-1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Surrogate {
    /// SLAYER-style fast sigmoid: `1 / (1 + k·|x|)²` scaled so the peak is
    /// `1`.
    FastSigmoid {
        /// Sharpness `k` (larger = narrower support around the threshold).
        slope: f32,
    },
}

impl Surrogate {
    /// Evaluates the surrogate spike derivative at `x = v − θ`.
    pub fn grad(&self, x: f32) -> f32 {
        let Surrogate::FastSigmoid { slope } = *self;
        let d = 1.0 + slope * x.abs();
        1.0 / (d * d)
    }
}

impl Default for Surrogate {
    fn default() -> Self {
        Surrogate::FastSigmoid { slope: 5.0 }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_params_are_valid() {
        assert!(LifParams::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_threshold_and_leak() {
        let mut p = LifParams { threshold: 0.0, ..LifParams::default() };
        assert!(p.validate().is_err());
        p.threshold = f32::NAN;
        assert!(p.validate().is_err());
        p = LifParams::default();
        p.leak = 0.0;
        assert!(p.validate().is_err());
        p.leak = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn fast_sigmoid_peaks_at_threshold() {
        let s = Surrogate::FastSigmoid { slope: 5.0 };
        assert_eq!(s.grad(0.0), 1.0);
        assert!(s.grad(0.5) < 1.0);
    }

    proptest! {
        /// `step_row` is `step` per neuron — spike, carried potential to
        /// the bit and refractory counter — over 200 consecutive ticks
        /// from arbitrary pre-states (refractory ones included), on rows
        /// that leave a vector remainder, with drives that land a
        /// potential exactly on the threshold and zeroes of both signs.
        /// Every other tick also asks for the potential and gate rows,
        /// which must hold what `LifTick` reports: `v` and `1.0`, or
        /// `+0.0` twice on a resting tick.
        #[test]
        fn step_row_is_step_for_every_neuron(
            n in 1usize..71,
            refrac_steps in 0u32..4,
            leak_index in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let lif = LifParams { threshold: 1.0, leak: [0.5, 0.9, 1.0][leak_index], refrac_steps };
            let mut carried: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let mut refrac: Vec<u32> =
                (0..n).map(|_| if rng.gen_bool(0.3) { rng.gen_range(1..4) } else { 0 }).collect();
            let (mut carried_row, mut refrac_row) = (carried.clone(), refrac.clone());
            let mut spikes = vec![f32::NAN; n];
            let (mut potential, mut gate) = (vec![f32::NAN; n], vec![f32::NAN; n]);
            for tick in 0..200 {
                let z: Vec<f32> = (0..n)
                    .map(|i| match rng.gen_range(0..6) {
                        0 => 0.0,
                        1 => -0.0,
                        // `v == θ` exactly wherever the product is exact
                        // (always under leak 0.5 and 1.0).
                        2 => lif.threshold - lif.leak * carried[i],
                        _ => rng.gen_range(-0.5f32..1.5),
                    })
                    .collect();
                let record = tick % 2 == 1;
                let recorded = record.then_some((&mut potential[..], &mut gate[..]));
                lif.step_row(&mut carried_row, &mut refrac_row, &z, &mut spikes, recorded);
                for i in 0..n {
                    let LifTick { fired, potential: v } = lif.step(&mut carried[i], &mut refrac[i], z[i]);
                    if record {
                        prop_assert_eq!(potential[i].to_bits(), v.unwrap_or(0.0).to_bits(), "tick {} neuron {}", tick, i);
                        prop_assert_eq!(gate[i].to_bits(), f32::from(u8::from(v.is_some())).to_bits(), "tick {} neuron {}", tick, i);
                    }
                    prop_assert_eq!(spikes[i].to_bits(), f32::from(u8::from(fired)).to_bits(), "tick {} neuron {}", tick, i);
                    prop_assert_eq!(carried_row[i].to_bits(), carried[i].to_bits(), "tick {} neuron {}", tick, i);
                    prop_assert_eq!(refrac_row[i], refrac[i], "tick {} neuron {}", tick, i);
                }
            }
        }

        #[test]
        fn surrogates_are_nonnegative_even_and_decay(
            x in 0.01f32..10.0
        ) {
            let s = Surrogate::FastSigmoid { slope: 5.0 };
            let g = s.grad(x);
            prop_assert!(g >= 0.0);
            prop_assert!((g - s.grad(-x)).abs() < 1e-6, "not even at {x}");
            prop_assert!(s.grad(x * 2.0) <= g + 1e-6, "not monotone at {x}");
        }
    }
}
