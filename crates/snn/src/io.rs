//! Compact binary serialization of trained networks.
//!
//! A test-program development flow needs to hand a *trained* model from
//! the training step to the test-generation and fault-simulation steps
//! (possibly different machines/processes). This module defines a small,
//! versioned, little-endian binary format:
//!
//! ```text
//! magic  b"SNNMTFC1"
//! input shape   : u32 rank, u32 dims…
//! layer count   : u32
//! per layer     : u8 kind (0 dense / 1 conv / 2 pool / 3 recurrent)
//!                 kind-specific geometry, LIF params, raw f32 weights
//! ```
//!
//! The format is self-describing enough to rebuild the exact [`Network`];
//! [`Network::load`] validates the magic, geometry (chaining, kernels that
//! fit their padded input, pooling windows that tile theirs, no input or
//! layer without features), weight lengths and weight finiteness, and
//! fails with
//! [`std::io::ErrorKind::InvalidData`] otherwise.

use crate::{ConvLayer, DenseLayer, Layer, LifParams, Network, PoolLayer, RecurrentLayer};
use snn_tensor::{ops::Conv2dSpec, Shape, Tensor};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"SNNMTFC1";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `usize` count/extent as `u32`, failing with `InvalidData`
/// instead of silently truncating when it exceeds the format's 32-bit
/// field width.
fn write_len(w: &mut impl Write, n: usize) -> io::Result<()> {
    let v = u32::try_from(n)
        .map_err(|_| bad(format!("value {n} exceeds the format's u32 field width")))?;
    write_u32(w, v)
}

fn write_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn write_lif(w: &mut impl Write, lif: &LifParams) -> io::Result<()> {
    write_f32(w, lif.threshold)?;
    write_f32(w, lif.leak)?;
    write_u32(w, lif.refrac_steps)
}

fn read_lif(r: &mut impl Read) -> io::Result<LifParams> {
    let lif = LifParams { threshold: read_f32(r)?, leak: read_f32(r)?, refrac_steps: read_u32(r)? };
    lif.validate().map_err(bad)?;
    Ok(lif)
}

fn write_tensor(w: &mut impl Write, t: &Tensor) -> io::Result<()> {
    write_len(w, t.len())?;
    for &v in t.as_slice() {
        write_f32(w, v)?;
    }
    Ok(())
}

fn read_tensor(r: &mut impl Read, shape: Shape) -> io::Result<Tensor> {
    let len = read_u32(r)? as usize;
    if len != shape.len() {
        return Err(bad(format!("weight blob of {len} values does not fit shape {shape}")));
    }
    // The count is the file's word: reserve no more than a small layer
    // needs and grow as values actually arrive, so a short blob claiming a
    // huge layer fails here instead of in the allocator.
    let mut data = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        let v = read_f32(r).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                bad(format!("weight blob ends after {} of its {len} values", data.len()))
            }
            _ => e,
        })?;
        // The zero-skipping kernels rest on `0 · w = ±0`, which an
        // infinite or NaN weight breaks.
        if !v.is_finite() {
            return Err(bad(format!("non-finite weight {v} at offset {}", data.len())));
        }
        data.push(v);
    }
    Tensor::from_vec(shape, data).map_err(|e| bad(e.to_string()))
}

impl Network {
    /// Serializes the network (topology, LIF parameters, weights) into
    /// `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        let dims = self.input_shape().dims();
        write_len(w, dims.len())?;
        for &d in dims {
            write_len(w, d)?;
        }
        write_len(w, self.layers().len())?;
        for layer in self.layers() {
            match layer {
                Layer::Dense(l) => {
                    w.write_all(&[0u8])?;
                    write_len(w, layer.out_features())?;
                    write_len(w, layer.in_features())?;
                    write_lif(w, &l.lif)?;
                    write_tensor(w, &l.weight)?;
                }
                Layer::Conv(l) => {
                    w.write_all(&[1u8])?;
                    write_len(w, l.spec.in_channels)?;
                    write_len(w, l.spec.out_channels)?;
                    write_len(w, l.spec.kernel)?;
                    write_len(w, l.spec.stride)?;
                    write_len(w, l.spec.padding)?;
                    write_len(w, l.in_hw.0)?;
                    write_len(w, l.in_hw.1)?;
                    write_lif(w, &l.lif)?;
                    write_tensor(w, &l.weight)?;
                }
                Layer::Pool(l) => {
                    w.write_all(&[2u8])?;
                    write_len(w, l.channels)?;
                    write_len(w, l.in_hw.0)?;
                    write_len(w, l.in_hw.1)?;
                    write_len(w, l.k)?;
                }
                Layer::Recurrent(l) => {
                    w.write_all(&[3u8])?;
                    write_len(w, layer.out_features())?;
                    write_len(w, layer.in_features())?;
                    write_lif(w, &l.lif)?;
                    write_tensor(w, &l.w_in)?;
                    write_tensor(w, &l.w_rec)?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes a network written by [`Network::save`].
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic,
    /// malformed geometry or truncated weights, and propagates I/O errors.
    pub fn load(r: &mut impl Read) -> io::Result<Network> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not an snn-mtfc model file (bad magic)"));
        }
        let rank = read_u32(r)? as usize;
        if rank > 4 {
            return Err(bad(format!("implausible input rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(r)? as usize);
        }
        let input_shape = Shape::new(dims);
        let count = read_u32(r)? as usize;
        if count == 0 || count > 1024 {
            return Err(bad(format!("implausible layer count {count}")));
        }
        let mut layers = Vec::with_capacity(count);
        for _ in 0..count {
            let mut kind = [0u8; 1];
            r.read_exact(&mut kind)?;
            let layer = match kind[0] {
                0 => {
                    let out = read_u32(r)? as usize;
                    let inp = read_u32(r)? as usize;
                    let lif = read_lif(r)?;
                    let weight = read_tensor(r, Shape::d2(out, inp))?;
                    Layer::Dense(DenseLayer::new(weight, lif))
                }
                1 => {
                    let in_c = read_u32(r)? as usize;
                    let out_c = read_u32(r)? as usize;
                    let kernel = read_u32(r)? as usize;
                    let stride = read_u32(r)? as usize;
                    let padding = read_u32(r)? as usize;
                    let h = read_u32(r)? as usize;
                    let w_ = read_u32(r)? as usize;
                    if kernel == 0 || stride == 0 {
                        return Err(bad("conv layer with zero kernel/stride"));
                    }
                    let spec = Conv2dSpec::new(in_c, out_c, kernel, stride, padding);
                    if !spec.fits(h, w_) {
                        return Err(bad(format!(
                            "conv kernel {kernel} exceeds the {h}×{w_} input padded by {padding}"
                        )));
                    }
                    let lif = read_lif(r)?;
                    let weight = read_tensor(r, spec.weight_shape())?;
                    Layer::Conv(ConvLayer::new(spec, (h, w_), weight, lif))
                }
                2 => {
                    let channels = read_u32(r)? as usize;
                    let h = read_u32(r)? as usize;
                    let w_ = read_u32(r)? as usize;
                    let k = read_u32(r)? as usize;
                    if k == 0 || !h.is_multiple_of(k) || !w_.is_multiple_of(k) {
                        return Err(bad("pool layer with invalid window"));
                    }
                    Layer::Pool(PoolLayer::new(channels, (h, w_), k))
                }
                3 => {
                    let units = read_u32(r)? as usize;
                    let inp = read_u32(r)? as usize;
                    let lif = read_lif(r)?;
                    let w_in = read_tensor(r, Shape::d2(units, inp))?;
                    let w_rec = read_tensor(r, Shape::d2(units, units))?;
                    Layer::Recurrent(RecurrentLayer::new(w_in, w_rec, lif))
                }
                k => return Err(bad(format!("unknown layer kind {k}"))),
            };
            layers.push(layer);
        }
        // Network::new asserts geometry chaining; convert the panic into a
        // data error by pre-checking.
        let mut features = input_shape.len();
        for (i, layer) in layers.iter().enumerate() {
            if layer.in_features() != features {
                return Err(bad(format!(
                    "layer {i} expects {} features, stream provides {features}",
                    layer.in_features()
                )));
            }
            features = layer.out_features();
        }
        let net = Network::new(input_shape, layers);
        net.validate_widths().map_err(bad)?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkBuilder, RecordOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trip(net: &Network) -> Network {
        let mut buf = Vec::new();
        net.save(&mut buf).expect("in-memory save cannot fail");
        Network::load(&mut buf.as_slice()).expect("round trip must load")
    }

    #[test]
    fn dense_round_trip_is_identical() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = NetworkBuilder::new(6, LifParams::default()).dense(10).dense(3).build(&mut rng);
        assert_eq!(round_trip(&net), net);
    }

    #[test]
    fn conv_pool_recurrent_round_trip_preserves_behaviour() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new_spatial(
            2,
            8,
            8,
            LifParams { refrac_steps: 2, ..LifParams::default() },
        )
        .avg_pool(2)
        .conv(4, 3, 1, 1)
        .dense(12)
        .dense(5)
        .build(&mut rng);
        let loaded = round_trip(&net);
        assert_eq!(loaded, net);
        // Behavioural equality, not just structural.
        let input = snn_tensor::init::bernoulli(&mut rng, Shape::d2(15, 128), 0.3);
        let a = net.forward(&input, RecordOptions::spikes_only());
        let b = loaded.forward(&input, RecordOptions::spikes_only());
        assert_eq!(a, b);

        let rec =
            NetworkBuilder::new(7, LifParams::default()).recurrent(9).dense(4).build(&mut rng);
        assert_eq!(round_trip(&rec), rec);
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = Network::load(&mut &b"NOTAMODELxxxx"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_truncation() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        for cut in [9, buf.len() / 2, buf.len() - 1] {
            assert!(Network::load(&mut &buf[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn load_rejects_corrupted_geometry() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        // Corrupt the layer count field (offset: 8 magic + 4 rank + 4 dim).
        buf[16] = 0xFF;
        buf[17] = 0xFF;
        assert!(Network::load(&mut buf.as_slice()).is_err());
    }

    /// A model whose only layer is a 7×7 convolution over a 3×3 input with
    /// no padding: no output pixel exists, and `out_hw` used to wrap.
    #[test]
    fn load_rejects_a_kernel_larger_than_its_padded_input() {
        let mut buf = MAGIC.to_vec();
        for v in [3u32, 1, 3, 3, 1] {
            buf.extend(v.to_le_bytes()); // rank, 1×3×3, one layer
        }
        buf.push(1); // conv
        for v in [1u32, 1, 7, 1, 0, 3, 3] {
            buf.extend(v.to_le_bytes()); // in_c, out_c, k, stride, padding, h, w
        }
        write_lif(&mut buf, &LifParams::default()).unwrap();
        buf.extend(49u32.to_le_bytes());
        buf.extend(std::iter::repeat_n(0.5f32.to_le_bytes(), 49).flatten());
        assert_eq!(buf.len(), 269);
        let err = Network::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("conv kernel 7 exceeds the 3×3 input"), "{err}");
    }

    /// 61 bytes declaring a 65535×65535 dense layer over a 65535-wide
    /// input, then four weights: the loader used to reserve the claimed
    /// 17 GB and abort the process.
    #[test]
    fn load_rejects_a_blob_shorter_than_its_count_without_reserving_it() {
        let mut buf = MAGIC.to_vec();
        for v in [1u32, 65_535, 1] {
            buf.extend(v.to_le_bytes()); // rank, dim, one layer
        }
        buf.push(0); // dense
        for v in [65_535u32, 65_535] {
            buf.extend(v.to_le_bytes()); // out, in
        }
        write_lif(&mut buf, &LifParams::default()).unwrap();
        buf.extend((65_535u32 * 65_535).to_le_bytes());
        buf.extend(std::iter::repeat_n(0.5f32.to_le_bytes(), 4).flatten());
        assert_eq!(buf.len(), 61);
        let err = Network::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "weight blob ends after 4 of its 4294836225 values");
    }

    /// One layer's bytes: its kind, its geometry words and, for a spiking
    /// layer, default LIF parameters and weight blobs of the given
    /// lengths.
    fn layer_bytes(kind: u8, geometry: &[u32], blobs: &[u32]) -> Vec<u8> {
        let mut buf = vec![kind];
        geometry.iter().for_each(|v| buf.extend(v.to_le_bytes()));
        if kind != 2 {
            write_lif(&mut buf, &LifParams::default()).unwrap();
        }
        for &len in blobs {
            buf.extend(len.to_le_bytes());
            let values = usize::try_from(len).unwrap();
            buf.extend(std::iter::repeat_n(0.5f32.to_le_bytes(), values).flatten());
        }
        buf
    }

    /// A model file of a `dims` input and the given layers.
    fn model_bytes(dims: &[u32], layers: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend(u32::try_from(dims.len()).unwrap().to_le_bytes());
        dims.iter().for_each(|v| buf.extend(v.to_le_bytes()));
        buf.extend(u32::try_from(layers.len()).unwrap().to_le_bytes());
        layers.iter().for_each(|layer| buf.extend(layer));
        buf
    }

    /// Stages with nothing to compute — a dense layer of no neurons, a
    /// recurrent one of no units, a conv layer of no output channels, a
    /// pool over no channels — and an input of no features: `generate`
    /// panicked on such models; loading one is one `InvalidData` line.
    #[test]
    fn load_rejects_zero_width_layers_and_inputs() {
        let two_of_none = layer_bytes(0, &[2, 0], &[0]);
        let cases = [
            (&[4][..], layer_bytes(0, &[0, 4], &[0]), "layer 0 (dense) has no outputs"),
            (&[4], layer_bytes(3, &[0, 4], &[0, 0]), "layer 0 (recurrent) has no outputs"),
            (
                &[1, 3, 3],
                layer_bytes(1, &[1, 0, 3, 1, 1, 3, 3], &[0]),
                "layer 0 (conv) has no outputs",
            ),
            (&[0, 4, 4], layer_bytes(2, &[0, 4, 4, 2], &[]), "has no features"),
        ];
        for (dims, first, needle) in cases {
            let bytes = model_bytes(dims, &[first, two_of_none.clone()]);
            let err = Network::load(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(needle), "{err}");
        }
        let err = Network::load(&mut model_bytes(&[0], &[two_of_none]).as_slice()).unwrap_err();
        assert!(err.to_string().contains("has no features"), "{err}");
    }

    #[test]
    fn load_rejects_non_finite_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetworkBuilder::new(4, LifParams::default()).dense(3).build(&mut rng);
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let last = buf.len() - 4;
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            buf[last..].copy_from_slice(&poison.to_le_bytes());
            let err = Network::load(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("non-finite weight"), "{err}");
        }
    }
}
