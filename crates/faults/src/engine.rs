use serde::{Deserialize, Serialize};
use snn_model::{Layer, Network};

/// Which execution engine runs a detection campaign under
/// [`FaultSimulator::detect_with`](crate::FaultSimulator::detect_with).
///
/// The scalar engine simulates one fault at a time and is the reference;
/// the packed engine bit-packs up to 64 fault variants into `u64`
/// spike-word lanes and runs them in one differential pass. Both produce
/// bit-identical verdicts — the packed path is a pure execution strategy,
/// gated by the campaign `verdict_digest`. The request comes from above
/// (CLI `--engine`, job specs, cluster campaign specs) in
/// [`FaultSimConfig`](crate::FaultSimConfig), which rides the existing
/// wire types unchanged; [`resolve_engine`] turns it into the engine that
/// runs.
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

/// Resolves a requested engine against the network: [`Engine::Auto`]
/// (and `None`) picks [`Engine::Packed`] when the network's last layer is
/// spiking — the packed sweep reads its verdict off binary output spikes
/// and then takes every fault — and [`Engine::Scalar`] otherwise. Never
/// returns `Auto`.
pub fn resolve_engine(net: &Network, requested: Option<Engine>) -> Engine {
    match requested.unwrap_or(Engine::Auto) {
        Engine::Auto => {
            if net.layers().last().is_some_and(Layer::is_spiking) {
                Engine::Packed
            } else {
                Engine::Scalar
            }
        }
        explicit => explicit,
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
    fn auto_resolution_follows_the_last_layer() {
        use rand::SeedableRng;
        use snn_model::{LifParams, NetworkBuilder};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let dense = NetworkBuilder::new(6, LifParams::default()).dense(10).dense(4).build(&mut rng);
        assert_eq!(resolve_engine(&dense, None), Engine::Packed);
        assert_eq!(resolve_engine(&dense, Some(Engine::Auto)), Engine::Packed);
        assert_eq!(resolve_engine(&dense, Some(Engine::Scalar)), Engine::Scalar);
        let spatial = || NetworkBuilder::new_spatial(1, 4, 4, LifParams::default());
        // Any spiking last layer will do — conv and recurrent included.
        let conv = spatial().avg_pool(2).conv(2, 3, 1, 1).build(&mut rng);
        assert_eq!(resolve_engine(&conv, None), Engine::Packed);
        let recurrent = NetworkBuilder::new(5, LifParams::default()).recurrent(3).build(&mut rng);
        assert_eq!(resolve_engine(&recurrent, None), Engine::Packed);
        let pooled = spatial().conv(2, 3, 1, 1).avg_pool(2).build(&mut rng);
        assert_eq!(resolve_engine(&pooled, None), Engine::Scalar);
        assert_eq!(resolve_engine(&pooled, Some(Engine::Packed)), Engine::Packed);
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
