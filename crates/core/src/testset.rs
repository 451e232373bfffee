use serde::{Deserialize, Serialize};
use snn_tensor::{Shape, Tensor};
use std::time::Duration;

/// Statistics of one outer-loop iteration of the generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Duration (ticks) of the produced chunk.
    pub steps: usize,
    /// Best stage-1 scalarized loss.
    pub stage1_loss: f32,
    /// Hidden spike count after stage 2.
    pub stage2_hidden_spikes: f32,
    /// Neurons newly activated by this chunk.
    pub newly_activated: usize,
    /// Number of duration growths (`β` escalations) this iteration needed.
    pub growths: usize,
}

/// The final optimized test stimulus: chunks `I_in^j` interleaved with
/// equal-length zero (reset) inputs — the paper's Eq. (7).
///
/// # Example
///
/// ```
/// use snn_testgen::GeneratedTest;
/// use snn_tensor::{Shape, Tensor};
///
/// let chunk = Tensor::full(Shape::d2(4, 3), 1.0);
/// let test = GeneratedTest::from_chunks(vec![chunk.clone(), chunk], 3, vec![true; 5]);
/// // Eq. (8): 2·4 (first chunk + reset) + 4 (last chunk) = 12 ticks
/// assert_eq!(test.test_steps(), 12);
/// let full = test.assembled();
/// assert_eq!(full.shape().dims(), &[12, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedTest {
    /// The optimized input chunks, in generation order.
    pub chunks: Vec<Tensor>,
    /// Input features per tick.
    pub input_features: usize,
    /// Per-global-neuron activation achieved by the full test.
    pub activated: Vec<bool>,
    /// Wall-clock test generation time.
    pub runtime: Duration,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
}

impl GeneratedTest {
    /// Builds a test from raw chunks (used by the generator and tests).
    ///
    /// # Panics
    ///
    /// Panics if a chunk is not `[T × input_features]`.
    pub fn from_chunks(chunks: Vec<Tensor>, input_features: usize, activated: Vec<bool>) -> Self {
        for (j, c) in chunks.iter().enumerate() {
            assert_eq!(c.shape().rank(), 2, "chunk {j} must be rank-2");
            assert_eq!(c.shape().dim(1), input_features, "chunk {j} feature count mismatch");
        }
        Self { chunks, input_features, activated, runtime: Duration::ZERO, iterations: Vec::new() }
    }

    /// Total test duration in ticks, Eq. (8):
    /// `Σ_{j<d} 2·T_j + T_d` (each chunk except the last is followed by an
    /// equal-length zero input that resets all membranes).
    pub fn test_steps(&self) -> usize {
        let d = self.chunks.len();
        self.chunks
            .iter()
            .enumerate()
            .map(|(j, c)| {
                let t = c.shape().dim(0);
                if j + 1 < d {
                    2 * t
                } else {
                    t
                }
            })
            .sum()
    }

    /// Assembles the full stimulus tensor of Eq. (7):
    /// `{I¹, 0¹, I², 0², …, I^d}`.
    pub fn assembled(&self) -> Tensor {
        let steps = self.test_steps();
        let mut out = Tensor::zeros(Shape::d2(steps, self.input_features));
        let data = out.as_mut_slice();
        let mut row = 0usize;
        let d = self.chunks.len();
        for (j, c) in self.chunks.iter().enumerate() {
            let t = c.shape().dim(0);
            let src = c.as_slice();
            data[row * self.input_features..(row + t) * self.input_features].copy_from_slice(src);
            row += t;
            if j + 1 < d {
                row += t; // zero gap — buffer is already zeroed
            }
        }
        out
    }

    /// Test duration expressed in dataset-sample lengths (the paper's
    /// "test duration (samples)" metric).
    ///
    /// # Panics
    ///
    /// Panics if `sample_steps` is zero.
    #[expect(
        clippy::cast_precision_loss,
        reason = "tick counts are far below 2^53, so they convert exactly"
    )]
    pub fn duration_samples(&self, sample_steps: usize) -> f64 {
        assert!(sample_steps > 0, "sample length must be positive");
        self.test_steps() as f64 / sample_steps as f64
    }

    /// Number of activated neurons.
    pub fn activated_count(&self) -> usize {
        self.activated.iter().filter(|&&a| a).count()
    }

    /// Fraction of activated neurons in `[0, 1]`.
    #[expect(
        clippy::cast_precision_loss,
        reason = "neuron counts are far below 2^53, so they convert exactly"
    )]
    pub fn activated_fraction(&self) -> f64 {
        if self.activated.is_empty() {
            return 0.0;
        }
        self.activated_count() as f64 / self.activated.len() as f64
    }

    /// Serializes the stimulus as a compact event list
    /// (`tick feature` per line, `#`-prefixed header), suitable for
    /// storing on-chip test ROMs or diffing runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_events(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let full = self.assembled();
        writeln!(
            w,
            "# snn-mtfc test: {} ticks x {} features, {} chunks",
            self.test_steps(),
            self.input_features,
            self.chunks.len()
        )?;
        let n = self.input_features;
        for t in 0..full.shape().dim(0) {
            for f in 0..n {
                if full[[t, f]] != 0.0 {
                    writeln!(w, "{t} {f}")?;
                }
            }
        }
        Ok(())
    }
}

/// The largest stimulus an event list may declare, in `ticks × features`
/// values: 2³⁰, 4 GiB as `f32`. The header is read before any event, so
/// an untrusted file must not size the tensor on its word alone.
const MAX_EVENT_VOLUME: usize = 1 << 30;

/// Parses the event-list format written by [`GeneratedTest::write_events`]
/// back into the assembled stimulus tensor (`[T × features]`) — the
/// decoder an in-field self-test controller would run against the test
/// ROM.
///
/// # Errors
///
/// Returns a descriptive error when the header is missing or malformed,
/// declares more than 2³⁰ values (`ticks × features`), or an event lies
/// outside the declared volume.
pub fn parse_events(text: &str) -> Result<Tensor, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| "empty input".to_string())?;
    let (steps, features) = parse_header(header)?;
    let mut out = Tensor::zeros(Shape::d2(steps, features));
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<usize, String> {
            tok.ok_or_else(|| format!("line {}: missing field", lineno + 2))?
                .parse()
                .map_err(|e| format!("line {}: {e}", lineno + 2))
        };
        let t = parse(it.next())?;
        let f = parse(it.next())?;
        if t >= steps || f >= features {
            return Err(format!(
                "line {}: event ({t}, {f}) outside {steps}×{features}",
                lineno + 2
            ));
        }
        out[[t, f]] = 1.0;
    }
    Ok(out)
}

/// `(T, N)` of the header `# snn-mtfc test: <T> ticks x <N> features, <d>
/// chunks`, each a whole number as written, their product within
/// [`MAX_EVENT_VOLUME`].
fn parse_header(header: &str) -> Result<(usize, usize), String> {
    let malformed = || format!("malformed header: {header:?}");
    let words: Vec<&str> =
        header.strip_prefix("# snn-mtfc test:").ok_or_else(malformed)?.split_whitespace().collect();
    let [steps, "ticks", "x", features, "features,", ..] = words[..] else {
        return Err(malformed());
    };
    let count = |word: &str, what: &str| {
        word.parse::<usize>().map_err(|e| format!("header {what} count {word:?}: {e}"))
    };
    let (steps, features) = (count(steps, "tick")?, count(features, "feature")?);
    match steps.checked_mul(features) {
        Some(volume) if volume <= MAX_EVENT_VOLUME => Ok((steps, features)),
        _ => Err(format!(
            "header declares {steps} ticks x {features} features, over the \
             {MAX_EVENT_VOLUME}-value limit"
        )),
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests assert exact spike/gradient values")]
mod tests {
    use super::*;

    fn chunk(t: usize, n: usize, fill: f32) -> Tensor {
        Tensor::full(Shape::d2(t, n), fill)
    }

    #[test]
    fn eq8_duration_single_chunk() {
        let test = GeneratedTest::from_chunks(vec![chunk(7, 2, 1.0)], 2, vec![]);
        assert_eq!(test.test_steps(), 7); // no reset gap after the only chunk
    }

    #[test]
    fn eq8_duration_multi_chunk_with_variable_lengths() {
        let test = GeneratedTest::from_chunks(
            vec![chunk(4, 2, 1.0), chunk(6, 2, 1.0), chunk(3, 2, 1.0)],
            2,
            vec![],
        );
        // 2·4 + 2·6 + 3 = 23
        assert_eq!(test.test_steps(), 23);
    }

    #[test]
    fn assembled_places_zero_gaps() {
        let test = GeneratedTest::from_chunks(vec![chunk(2, 3, 1.0), chunk(2, 3, 1.0)], 3, vec![]);
        let full = test.assembled();
        assert_eq!(full.shape().dims(), &[6, 3]);
        // rows 0-1: ones; rows 2-3: zero gap; rows 4-5: ones
        for f in 0..3 {
            assert_eq!(full[[0, f]], 1.0);
            assert_eq!(full[[2, f]], 0.0);
            assert_eq!(full[[3, f]], 0.0);
            assert_eq!(full[[5, f]], 1.0);
        }
    }

    #[test]
    fn duration_in_samples() {
        let test = GeneratedTest::from_chunks(vec![chunk(30, 1, 0.0)], 1, vec![]);
        assert!((test.duration_samples(12) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn activation_accounting() {
        let test =
            GeneratedTest::from_chunks(vec![chunk(1, 1, 0.0)], 1, vec![true, false, true, true]);
        assert_eq!(test.activated_count(), 3);
        assert!((test.activated_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn write_events_round_trip_content() {
        let mut c = Tensor::zeros(Shape::d2(2, 2));
        c[[1, 0]] = 1.0;
        let test = GeneratedTest::from_chunks(vec![c], 2, vec![]);
        let mut buf = Vec::new();
        test.write_events(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("# snn-mtfc test: 2 ticks x 2 features"));
        assert!(s.lines().any(|l| l == "1 0"));
        assert_eq!(s.lines().filter(|l| !l.starts_with('#')).count(), 1);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn from_chunks_validates_features() {
        let _ = GeneratedTest::from_chunks(vec![chunk(2, 3, 0.0)], 4, vec![]);
    }

    #[test]
    fn write_then_parse_round_trips_the_stimulus() {
        let mut c1 = Tensor::zeros(Shape::d2(3, 4));
        c1[[0, 1]] = 1.0;
        c1[[2, 3]] = 1.0;
        let mut c2 = Tensor::zeros(Shape::d2(2, 4));
        c2[[1, 0]] = 1.0;
        let test = GeneratedTest::from_chunks(vec![c1, c2], 4, vec![]);
        let mut buf = Vec::new();
        test.write_events(&mut buf).unwrap();
        let parsed = parse_events(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, test.assembled());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_events("").is_err());
        assert!(parse_events("not a header\n0 0\n").is_err());
        assert!(parse_events("# snn-mtfc test: 2 ticks x 2 features, 1 chunks\n5 0\n").is_err());
        assert!(parse_events("# snn-mtfc test: 2 ticks x 2 features, 1 chunks\n0\n").is_err());
        assert!(parse_events("# snn-mtfc test: 2 ticks x 2 features, 1 chunks\nx y\n").is_err());
    }

    /// A count too large for `usize` used to be dropped silently, shifting
    /// the next number into its place; a volume past `usize` used to
    /// abort the process in `Tensor::zeros`.
    #[test]
    fn parse_rejects_headers_it_cannot_trust() {
        let overflowing = "# snn-mtfc test: 99999999999999999999999 ticks x 4 features, 2 chunks\n";
        let err = parse_events(overflowing).unwrap_err();
        assert!(err.contains("tick count \"99999999999999999999999\""), "{err}");
        let huge = "# snn-mtfc test: 4000000000 ticks x 4000000000 features, 1 chunks\n0 0\n";
        let err = parse_events(huge).unwrap_err();
        assert!(err.contains("over the 1073741824-value limit"), "{err}");
        let garbled = "# snn-mtfc test: 2 ticks by 4 features, 1 chunks\n";
        assert!(parse_events(garbled).unwrap_err().starts_with("malformed header"));
        let limit =
            format!("# snn-mtfc test: {} ticks x 1 features, 1 chunks\n", MAX_EVENT_VOLUME + 1);
        assert!(parse_events(&limit).is_err());
        for err in [overflowing, huge, garbled, &limit].map(|h| parse_events(h).unwrap_err()) {
            assert_eq!(err.lines().count(), 1, "{err}");
        }
    }

    #[test]
    fn parse_tolerates_comments_and_blank_lines() {
        let text = "# snn-mtfc test: 2 ticks x 2 features, 1 chunks\n\n# comment\n1 1\n";
        let t = parse_events(text).unwrap();
        assert_eq!(t.sum(), 1.0);
        assert_eq!(t[[1, 1]], 1.0);
    }

    proptest::proptest! {
        /// Eq. 8 invariant for arbitrary chunk configurations: assembled
        /// length equals Σ 2·Tⱼ + T_d, and the assembled tensor restricted
        /// to chunk windows equals the chunks, zero elsewhere.
        #[test]
        fn assembly_invariants(
            lens in proptest::collection::vec(1usize..6, 1..5),
            features in 1usize..4,
        ) {
            let chunks: Vec<Tensor> = lens
                .iter()
                .map(|&t| Tensor::full(Shape::d2(t, features), 1.0))
                .collect();
            let test = GeneratedTest::from_chunks(chunks, features, vec![]);
            let expect: usize =
                lens.iter().take(lens.len() - 1).map(|t| 2 * t).sum::<usize>()
                + lens.last().unwrap();
            proptest::prop_assert_eq!(test.test_steps(), expect);

            let full = test.assembled();
            let total_ones: f32 = lens.iter().map(|&t| (t * features) as f32).sum();
            proptest::prop_assert_eq!(full.sum(), total_ones);
            proptest::prop_assert!(full.is_binary());
        }
    }
}
