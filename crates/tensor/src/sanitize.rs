//! Debug-build numeric sanitizer.
//!
//! NaN and Inf propagate silently through f32 arithmetic: a single bad
//! weight poisons every downstream activation, loss and gradient, and
//! the failure finally surfaces far from its origin (typically as a
//! test-generation run that "converges" to coverage 0). These guards
//! pin the blast radius to one kernel call: every numeric kernel in
//! [`crate::ops`] (and the surrogate-gradient backward pass in the
//! `snn-model` crate) scans its operands and results in debug builds
//! and panics naming the operation, the operand and the offending
//! index. Release builds compile the scans out entirely.

/// Panics in debug builds when any element of `values` is NaN or ±Inf.
///
/// `op` names the kernel (e.g. `"matvec"`), `operand` the argument or
/// result being scanned (e.g. `"x"`, `"out"`). No-op in release builds.
#[inline]
#[track_caller]
#[expect(clippy::panic, reason = "the sanitizer's report IS a deliberate debug-build panic")]
pub fn debug_assert_finite(op: &str, operand: &str, values: &[f32]) {
    if cfg!(debug_assertions) {
        if let Some(idx) = values.iter().position(|v| !v.is_finite()) {
            panic!(
                "{op}: non-finite value {} at {operand}[{idx}] — a NaN/Inf entered or left \
                 a numeric kernel; inspect the upstream computation",
                values[idx]
            );
        }
    }
}

/// Panics in debug builds when any element of `values` is not exactly
/// `0.0` or `1.0`.
///
/// The bit-packed lane kernels in [`crate::packed`] represent spikes as
/// single bits, which is only sound when the `f32` source really is
/// binary; a fractional value (e.g. an average-pooling output packed by
/// mistake) would silently change simulation results. No-op in release
/// builds.
#[inline]
#[track_caller]
#[expect(clippy::float_cmp, reason = "binary spikes are exact 0.0/1.0 values, not tolerances")]
#[expect(clippy::panic, reason = "the sanitizer's report IS a deliberate debug-build panic")]
pub fn debug_assert_binary(op: &str, operand: &str, values: &[f32]) {
    if cfg!(debug_assertions) {
        if let Some(idx) = values.iter().position(|&v| v != 0.0 && v != 1.0) {
            panic!(
                "{op}: non-binary value {} at {operand}[{idx}] — bit-packed lanes require \
                 exact 0.0/1.0 spikes; a fractional activation reached a packed kernel",
                values[idx]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_slices_pass() {
        debug_assert_finite("test", "x", &[0.0, -1.5, f32::MAX, f32::MIN_POSITIVE]);
        debug_assert_finite("test", "empty", &[]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nan_is_caught_with_location() {
        let err = std::panic::catch_unwind(|| {
            debug_assert_finite("matvec", "x", &[1.0, f32::NAN, 3.0]);
        })
        .expect_err("NaN must panic in debug builds");
        let msg = err.downcast_ref::<String>().expect("panic payload is the report");
        assert!(msg.contains("matvec") && msg.contains("x[1]"), "{msg}");
    }

    #[test]
    fn binary_slices_pass() {
        debug_assert_binary("test", "spikes", &[0.0, 1.0, 1.0, 0.0]);
        debug_assert_binary("test", "empty", &[]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn fractional_value_is_caught_with_location() {
        let err = std::panic::catch_unwind(|| {
            debug_assert_binary("broadcast_row", "golden", &[1.0, 0.5, 0.0]);
        })
        .expect_err("fractional spike must panic in debug builds");
        let msg = err.downcast_ref::<String>().expect("panic payload is the report");
        assert!(msg.contains("broadcast_row") && msg.contains("golden[1]"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn infinity_is_caught() {
        assert!(std::panic::catch_unwind(|| {
            debug_assert_finite("conv2d", "weight", &[f32::INFINITY]);
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            debug_assert_finite("conv2d", "weight", &[f32::NEG_INFINITY]);
        })
        .is_err());
    }
}
