use serde::{Deserialize, Serialize};

/// Which execution engine runs a detection campaign.
///
/// The scalar engine ([`FaultSimulator`](crate::FaultSimulator)) simulates
/// one fault at a time; the packed engine (`snn-batch`) bit-packs up to 64
/// fault variants into `u64` spike-word lanes and runs them in one pass.
/// Both produce bit-identical verdicts — the packed path is a pure
/// execution strategy, gated by the campaign `verdict_digest`. Selection
/// is resolved *above* the simulators (CLI `--engine`, job specs, cluster
/// campaign specs); [`FaultSimConfig`](crate::FaultSimConfig) carries the
/// request so it rides the existing wire types unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Per-fault scalar simulation (the reference path).
    Scalar,
    /// Bit-packed lane-parallel simulation; a network whose last layer is
    /// not spiking falls back to the scalar engine.
    Packed,
    /// Pick automatically: packed when the network's last layer is
    /// spiking, scalar otherwise.
    Auto,
}

impl Engine {
    /// Stable lowercase name (`scalar`, `packed`, `auto`) — the CLI flag
    /// vocabulary, also stamped into job results and bench metadata.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Packed => "packed",
            Engine::Auto => "auto",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An engine name outside the `scalar | packed | auto` vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineError {
    got: String,
}

impl std::fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown engine '{}' (expected scalar, packed or auto)", self.got)
    }
}

impl std::error::Error for ParseEngineError {}

impl std::str::FromStr for Engine {
    type Err = ParseEngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Engine::Scalar),
            "packed" => Ok(Engine::Packed),
            "auto" => Ok(Engine::Auto),
            other => Err(ParseEngineError { got: other.to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parsing() {
        for e in [Engine::Scalar, Engine::Packed, Engine::Auto] {
            assert_eq!(e.name().parse::<Engine>().unwrap(), e);
            assert_eq!(e.to_string(), e.name());
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let err = "vectorized".parse::<Engine>().unwrap_err();
        assert!(err.to_string().contains("vectorized"));
    }

    #[test]
    fn serde_round_trip() {
        let json = serde::json::to_string(&Engine::Packed);
        let back: Engine = serde::json::from_str(&json).unwrap();
        assert_eq!(back, Engine::Packed);
        // Option fields tolerate omission — the property the wire types
        // rely on when older peers send specs without an engine.
        let opt: Option<Engine> = serde::json::from_str("null").unwrap();
        assert_eq!(opt, None);
    }
}
