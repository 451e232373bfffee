//! Chunk-addressable campaigns: deterministic sharding of a fault list
//! into contiguous id ranges, simulation of one range of the universe,
//! exact merging of per-chunk outcomes, and a campaign verdict digest.
//!
//! This is the substrate of `snn-cluster`'s distributed campaigns: the
//! coordinator plans chunks with [`plan`], workers simulate each chunk
//! with [`FaultSimulator::detect_chunk_with`], and the coordinator
//! reassembles the full campaign with [`merge_chunks`]. Because every
//! fault's [`FaultOutcome`] is computed independently of its neighbours,
//! concatenating chunk outcomes in chunk order is **bit-identical** to a
//! single `detect_with` over the whole list — [`verdict_digest`] makes
//! that claim checkable across processes.

use crate::progress::{CancelToken, ProgressSink};
use crate::sim::{CampaignError, FaultOutcome, FaultSimulator};
use crate::FaultUniverse;
use serde::{Deserialize, Serialize};

/// One contiguous chunk of a campaign's fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkRange {
    /// Position of this chunk in the plan (0-based, merge order).
    pub index: usize,
    /// Offset of the chunk's first fault in the campaign fault list.
    pub start: usize,
    /// Number of faults in the chunk.
    pub len: usize,
}

impl ChunkRange {
    /// The half-open fault-list range this chunk covers (a chunk read
    /// off the wire may end past `usize::MAX`; it is cut there, and is
    /// then past any universe).
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start.saturating_add(self.len)
    }
}

/// Splits a campaign over `total` faults into contiguous chunks of at
/// most `chunk_size` faults (a `chunk_size` of 0 is treated as 1).
///
/// The plan is a pure function of `(total, chunk_size)`, so coordinator
/// and tests can re-derive it independently.
pub fn plan(total: usize, chunk_size: usize) -> Vec<ChunkRange> {
    let size = chunk_size.max(1);
    let mut chunks = Vec::with_capacity(total.div_ceil(size));
    let mut start = 0usize;
    while start < total {
        let len = size.min(total - start);
        chunks.push(ChunkRange { index: chunks.len(), start, len });
        start += len;
    }
    chunks
}

/// Error from a chunk campaign over a range of fault ids.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkCampaignError {
    /// A requested fault id is not present in the universe.
    UnknownFault {
        /// The offending id.
        fault_id: usize,
        /// Size of the universe it was looked up in.
        universe_len: usize,
    },
    /// The underlying campaign failed.
    Campaign(CampaignError),
}

impl From<CampaignError> for ChunkCampaignError {
    fn from(e: CampaignError) -> Self {
        Self::Campaign(e)
    }
}

impl std::fmt::Display for ChunkCampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownFault { fault_id, universe_len } => {
                write!(f, "fault id {fault_id} outside universe of {universe_len}")
            }
            Self::Campaign(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ChunkCampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Campaign(e) => Some(e),
            Self::UnknownFault { .. } => None,
        }
    }
}

impl FaultSimulator<'_> {
    /// Runs a detection campaign over the faults whose ids lie in `ids` —
    /// the chunk-execution primitive of distributed campaigns. Outcomes
    /// come back in id order and are bit-identical to the corresponding
    /// entries of a whole-universe [`detect_with`] run.
    ///
    /// [`detect_with`]: FaultSimulator::detect_with
    ///
    /// # Errors
    ///
    /// [`ChunkCampaignError::UnknownFault`], naming the first id outside
    /// `universe`, when the range does not lie inside it; otherwise any
    /// [`CampaignError`] of the underlying campaign.
    ///
    /// # Panics
    ///
    /// Panics if `tests` is empty (as [`detect_with`]).
    pub fn detect_chunk_with(
        &self,
        universe: &FaultUniverse,
        ids: std::ops::Range<usize>,
        tests: &[snn_tensor::Tensor],
        sink: &dyn ProgressSink,
        cancel: &CancelToken,
    ) -> Result<Vec<FaultOutcome>, ChunkCampaignError> {
        let faults =
            universe.faults().get(ids.clone()).ok_or(ChunkCampaignError::UnknownFault {
                fault_id: ids.start.max(universe.len()),
                universe_len: universe.len(),
            })?;
        let outcome = self.detect_with(universe, faults, tests, sink, cancel)?;
        Ok(outcome.per_fault)
    }
}

/// Error merging chunk outcomes back into one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The part list does not match the plan's chunk count.
    WrongChunkCount {
        /// Parts supplied.
        got: usize,
        /// Chunks planned.
        want: usize,
    },
    /// One chunk's outcome count disagrees with its planned length.
    WrongChunkLen {
        /// The chunk index.
        index: usize,
        /// Outcomes supplied.
        got: usize,
        /// Outcomes planned.
        want: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WrongChunkCount { got, want } => {
                write!(f, "merge of {got} chunk(s) against a plan of {want}")
            }
            Self::WrongChunkLen { index, got, want } => {
                write!(f, "chunk {index} carries {got} outcome(s), plan says {want}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Concatenates per-chunk outcomes in chunk order, validating each part
/// against the plan. The result is bit-identical to a single campaign
/// over the whole fault list.
///
/// # Errors
///
/// [`MergeError`] when the parts disagree with the plan's shape.
pub fn merge_chunks(
    chunks: &[ChunkRange],
    parts: Vec<Vec<FaultOutcome>>,
) -> Result<Vec<FaultOutcome>, MergeError> {
    if parts.len() != chunks.len() {
        return Err(MergeError::WrongChunkCount { got: parts.len(), want: chunks.len() });
    }
    let total = chunks.iter().map(|c| c.len).sum();
    let mut out = Vec::with_capacity(total);
    for (chunk, part) in chunks.iter().zip(parts) {
        if part.len() != chunk.len {
            return Err(MergeError::WrongChunkLen {
                index: chunk.index,
                got: part.len(),
                want: chunk.len,
            });
        }
        out.extend(part);
    }
    Ok(out)
}

/// FNV-1a 64 digest over every outcome's exact verdict: fault id,
/// detection bit, the **bit pattern** of the distance (`f32::to_bits`,
/// immune to any lossy float formatting) and any recorded class diff.
/// Two campaigns agree bit-for-bit iff their digests match.
pub fn verdict_digest(outcomes: &[FaultOutcome]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for o in outcomes {
        eat(&(o.fault_id as u64).to_le_bytes());
        eat(&[u8::from(o.detected)]);
        eat(&o.distance.to_bits().to_le_bytes());
        match &o.class_diff {
            None => eat(&[0]),
            Some(diff) => {
                eat(&[1]);
                eat(&(diff.len() as u64).to_le_bytes());
                for v in diff {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
    hash
}

/// [`verdict_digest`] rendered as the fixed-width hex string carried in
/// job results and compared by the CI bit-identity gate.
pub fn verdict_digest_hex(outcomes: &[FaultOutcome]) -> String {
    format!("{:016x}", verdict_digest(outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::NullSink;
    use crate::FaultSimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snn_model::{LifParams, Network, NetworkBuilder};
    use snn_tensor::{Shape, Tensor};

    fn setup() -> (Network, FaultUniverse, Tensor) {
        let mut rng = StdRng::seed_from_u64(11);
        let net = NetworkBuilder::new(5, LifParams::default()).dense(8).dense(3).build(&mut rng);
        let u = FaultUniverse::standard(&net);
        let test = snn_tensor::init::bernoulli(&mut rng, Shape::d2(24, 5), 0.4);
        (net, u, test)
    }

    #[test]
    fn plan_covers_every_fault_exactly_once() {
        for (total, size) in [(0, 4), (1, 4), (7, 3), (12, 3), (12, 100), (5, 0)] {
            let chunks = plan(total, size);
            let mut covered = 0usize;
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c.index, i);
                assert_eq!(c.start, covered, "chunks are contiguous");
                assert!(c.len >= 1);
                covered += c.len;
            }
            assert_eq!(covered, total, "plan({total}, {size})");
        }
        assert!(plan(0, 8).is_empty());
    }

    #[test]
    fn chunked_campaign_is_bit_identical_to_whole() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let whole = sim.detect(&u, u.faults(), std::slice::from_ref(&test));

        for chunk_size in [1, 3, 17, 1000] {
            let chunks = plan(u.len(), chunk_size);
            let parts: Vec<Vec<FaultOutcome>> = chunks
                .iter()
                .map(|c| {
                    sim.detect_chunk_with(
                        &u,
                        c.range(),
                        std::slice::from_ref(&test),
                        &NullSink,
                        &CancelToken::new(),
                    )
                    .unwrap()
                })
                .collect();
            let merged = merge_chunks(&chunks, parts).unwrap();
            assert_eq!(merged, whole.per_fault, "chunk size {chunk_size}");
            assert_eq!(
                verdict_digest(&merged),
                verdict_digest(&whole.per_fault),
                "chunk size {chunk_size}"
            );
        }
    }

    #[test]
    fn a_range_outside_the_universe_is_a_typed_error_naming_the_first_unknown_id() {
        let (net, u, test) = setup();
        let sim = FaultSimulator::new(&net, FaultSimConfig::default());
        let run = |ids| {
            sim.detect_chunk_with(
                &u,
                ids,
                std::slice::from_ref(&test),
                &NullSink,
                &CancelToken::new(),
            )
        };
        let n = u.len();
        assert_eq!(run(0..0).unwrap(), Vec::new());
        assert_eq!(run(n..n).unwrap(), Vec::new());
        assert_eq!(
            run(n - 2..n).unwrap().iter().map(|o| o.fault_id).collect::<Vec<_>>(),
            [n - 2, n - 1]
        );
        let hostile = ChunkRange { index: 0, start: 3, len: usize::MAX }.range();
        for (ids, first_unknown) in [(0..n + 1, n), (n + 5..n + 6, n + 5), (hostile, n)] {
            assert_eq!(
                run(ids).unwrap_err(),
                ChunkCampaignError::UnknownFault { fault_id: first_unknown, universe_len: n }
            );
        }
    }

    #[test]
    fn merge_rejects_shape_mismatches() {
        let chunks = plan(4, 2);
        let outcome = |id: usize| FaultOutcome {
            fault_id: id,
            detected: false,
            distance: 0.0,
            class_diff: None,
        };
        let short = vec![vec![outcome(0), outcome(1)]];
        assert_eq!(
            merge_chunks(&chunks, short).unwrap_err(),
            MergeError::WrongChunkCount { got: 1, want: 2 }
        );
        let lopsided = vec![vec![outcome(0), outcome(1)], vec![outcome(2)]];
        assert_eq!(
            merge_chunks(&chunks, lopsided).unwrap_err(),
            MergeError::WrongChunkLen { index: 1, got: 1, want: 2 }
        );
    }

    #[test]
    fn digest_is_sensitive_to_every_verdict_field() {
        let base = vec![FaultOutcome {
            fault_id: 3,
            detected: true,
            distance: 1.25,
            class_diff: Some(vec![0.5, -0.5]),
        }];
        let d0 = verdict_digest(&base);
        let mut flipped = base.clone();
        flipped[0].detected = false;
        assert_ne!(verdict_digest(&flipped), d0);
        let mut nudged = base.clone();
        nudged[0].distance = 1.25 + f32::EPSILON;
        assert_ne!(verdict_digest(&nudged), d0);
        let mut relabeled = base.clone();
        relabeled[0].fault_id = 4;
        assert_ne!(verdict_digest(&relabeled), d0);
        let mut stripped = base.clone();
        stripped[0].class_diff = None;
        assert_ne!(verdict_digest(&stripped), d0);
        assert_eq!(verdict_digest_hex(&base), format!("{d0:016x}"));
    }
}
