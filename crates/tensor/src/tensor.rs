use crate::{Shape, ShapeError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// Contiguous, row-major, owned `f32` tensor.
///
/// `Tensor` is the single numeric container of the workspace: synaptic
/// weights, membrane-potential traces, spike trains (as 0.0/1.0 values) and
/// gradients are all stored in this type. Data is always dense and
/// row-major; the shape can be reinterpreted without copying via
/// [`Tensor::reshape`].
///
/// # Example
///
/// ```
/// use snn_tensor::{Shape, Tensor};
///
/// let mut t = Tensor::zeros(Shape::d2(2, 2));
/// t[[0, 1]] = 3.0;
/// assert_eq!(t[[0, 1]], 3.0);
/// assert_eq!(t.sum(), 3.0);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self { shape: self.shape.clone(), data: self.data.clone() }
    }

    /// Into the buffers `self` owns (the derived one would allocate).
    fn clone_from(&mut self, source: &Self) {
        if self.shape != source.shape {
            self.shape = source.shape.clone();
        }
        self.data.clone_from(&source.data);
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Self { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Self { shape, data: vec![value; len] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len()` does not match the number of
    /// elements described by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let shape = shape.into();
        if shape.len() != data.len() {
            return Err(ShapeError::new(
                "from_vec",
                format!("shape {shape} needs {} elements, got {}", shape.len(), data.len()),
            ));
        }
        Ok(Self { shape, data })
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the data under a new shape without copying.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the new shape has a different element
    /// count.
    pub fn reshape(self, shape: impl Into<Shape>) -> Result<Self, ShapeError> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(ShapeError::new(
                "reshape",
                format!(
                    "cannot reshape {} elements into {shape} ({} elements)",
                    self.data.len(),
                    shape.len()
                ),
            ));
        }
        Ok(Self { shape, data: self.data })
    }

    /// Element at multi-index `idx` (bounds-checked in debug builds).
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at multi-index `idx`.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    #[expect(
        clippy::cast_precision_loss,
        reason = "a rounded element count changes the mean by ≤1 ulp, harmless"
    )]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`f32::NEG_INFINITY` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`f32::INFINITY` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// L1 norm: sum of absolute values.
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy operands must share a shape");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|v| *v *= alpha);
    }

    /// Element-wise (Hadamard) product, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "hadamard operands must share a shape");
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).collect(),
        }
    }

    /// Binarizes with threshold `thr`: elements `>= thr` become 1.0, the
    /// rest 0.0. This is the forward pass of the straight-through estimator.
    pub fn binarize(&self, thr: f32) -> Tensor {
        self.map(|v| if v >= thr { 1.0 } else { 0.0 })
    }

    /// `true` if every element is exactly 0.0 or 1.0 (a valid spike tensor).
    #[expect(clippy::float_cmp, reason = "spike tensors hold exact 0.0/1.0 values by construction")]
    pub fn is_binary(&self) -> bool {
        self.data.iter().all(|&v| v == 0.0 || v == 1.0)
    }

    /// Squared L2 distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sq_distance(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "sq_distance operands must share a shape");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b) * (a - b)).sum()
    }
}

impl Index<usize> for Tensor {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl Index<[usize; 2]> for Tensor {
    type Output = f32;
    fn index(&self, idx: [usize; 2]) -> &f32 {
        &self.data[self.shape.offset(&idx)]
    }
}

impl IndexMut<[usize; 2]> for Tensor {
    fn index_mut(&mut self, idx: [usize; 2]) -> &mut f32 {
        let off = self.shape.offset(&idx);
        &mut self.data[off]
    }
}

impl Index<[usize; 3]> for Tensor {
    type Output = f32;
    fn index(&self, idx: [usize; 3]) -> &f32 {
        &self.data[self.shape.offset(&idx)]
    }
}

impl IndexMut<[usize; 3]> for Tensor {
    fn index_mut(&mut self, idx: [usize; 3]) -> &mut f32 {
        let off = self.shape.offset(&idx);
        &mut self.data[off]
    }
}

impl Index<[usize; 4]> for Tensor {
    type Output = f32;
    fn index(&self, idx: [usize; 4]) -> &f32 {
        &self.data[self.shape.offset(&idx)]
    }
}

impl IndexMut<[usize; 4]> for Tensor {
    fn index_mut(&mut self, idx: [usize; 4]) -> &mut f32 {
        let off = self.shape.offset(&idx);
        &mut self.data[off]
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add operands must share a shape");
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "sub operands must share a shape");
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|v| v * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} (", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|v| format!("{v:.3}")).collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clone_from_keeps_the_buffer_when_shapes_agree() {
        let mut held = Tensor::zeros(Shape::d2(2, 3));
        let buffer = held.as_slice().as_ptr();
        let source = Tensor::full(Shape::d2(2, 3), 1.5);
        held.clone_from(&source);
        assert_eq!(held, source);
        assert_eq!(held.as_slice().as_ptr(), buffer);
        held.clone_from(&Tensor::full(Shape::d1(4), 2.0));
        assert_eq!(held, Tensor::full(Shape::d1(4), 2.0));
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(z.sum(), 0.0);
        let f = Tensor::full(Shape::d2(2, 3), 1.5);
        assert_eq!(f.sum(), 9.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0, 3.0]).is_ok());
        assert!(Tensor::from_vec(Shape::d1(3), vec![1.0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::d1(6), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let r = t.reshape(Shape::d2(2, 3)).unwrap();
        assert_eq!(r[[1, 2]], 5.0);
        assert!(r.clone().reshape(Shape::d1(5)).is_err());
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(Shape::d3(2, 3, 4));
        t[[1, 2, 3]] = 7.0;
        assert_eq!(t.at(&[1, 2, 3]), 7.0);
        *t.at_mut(&[0, 0, 0]) = -1.0;
        assert_eq!(t[[0, 0, 0]], -1.0);
    }

    #[test]
    fn binarize_thresholds_correctly() {
        let t = Tensor::from_vec(Shape::d1(4), vec![0.2, 0.5, 0.7, -0.1]).unwrap();
        let b = t.binarize(0.5);
        assert_eq!(b.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
        assert!(b.is_binary());
        assert!(!t.is_binary());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(Shape::d1(3), 1.0);
        let b = Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0, 3.0]).unwrap();
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn l1_norm_counts_absolute_values() {
        let t = Tensor::from_vec(Shape::d1(3), vec![-1.0, 2.0, -3.0]).unwrap();
        assert_eq!(t.l1_norm(), 6.0);
        assert_eq!(t.count_nonzero(), 3);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(Shape::d1(2), vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(Shape::d1(2), vec![3.0, 5.0]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[3.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn add_rejects_mismatched_shapes() {
        let a = Tensor::zeros(Shape::d1(2));
        let b = Tensor::zeros(Shape::d1(3));
        let _ = &a + &b;
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(Shape::d1(2));
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }

    proptest! {
        #[test]
        fn sum_matches_reference(data in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let n = data.len();
            let t = Tensor::from_vec(Shape::d1(n), data.clone()).unwrap();
            let expect: f32 = data.iter().sum();
            prop_assert!((t.sum() - expect).abs() < 1e-3);
        }

        #[test]
        fn binarize_is_idempotent(data in proptest::collection::vec(-1.0f32..2.0, 1..64)) {
            let n = data.len();
            let t = Tensor::from_vec(Shape::d1(n), data).unwrap();
            let b1 = t.binarize(0.5);
            let b2 = b1.binarize(0.5);
            prop_assert_eq!(b1, b2);
        }

        #[test]
        fn sq_distance_is_symmetric_and_zero_on_self(
            data in proptest::collection::vec(-5.0f32..5.0, 1..32)
        ) {
            let n = data.len();
            let t = Tensor::from_vec(Shape::d1(n), data.clone()).unwrap();
            let u = Tensor::from_vec(Shape::d1(n), data.iter().map(|v| v + 1.0).collect()).unwrap();
            prop_assert!((t.sq_distance(&t)).abs() < 1e-6);
            prop_assert!((t.sq_distance(&u) - u.sq_distance(&t)).abs() < 1e-4);
        }
    }
}
