//! Unified error type of the design flow.

use noc_sim::error::SimError;
use noc_spec::error::SpecError;
use noc_synth::error::SynthError;
use noc_topology::error::TopologyError;
use std::error::Error;
use std::fmt;

/// Any failure the end-to-end flow can produce.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Specification validation failed.
    Spec(SpecError),
    /// Topology construction or analysis failed.
    Topology(TopologyError),
    /// Synthesis found no feasible design (or rejected its inputs).
    Synth(SynthError),
    /// Simulation setup failed.
    Sim(SimError),
    /// The flow configuration cannot give a meaningful result (the
    /// message names the offending field).
    InvalidConfig(String),
    /// Verification ran and none of the `verified` designs delivered
    /// the configured threshold with every GT guarantee met.
    NoDesignMeetsContract {
        /// Designs that were verified.
        verified: usize,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Spec(e) => write!(f, "specification error: {e}"),
            FlowError::Topology(e) => write!(f, "topology error: {e}"),
            FlowError::Synth(e) => write!(f, "synthesis error: {e}"),
            FlowError::Sim(e) => write!(f, "simulation error: {e}"),
            FlowError::InvalidConfig(why) => write!(f, "invalid flow configuration: {why}"),
            FlowError::NoDesignMeetsContract { verified } => write!(
                f,
                "none of {verified} verified designs met the delivery threshold \
                 and every GT guarantee"
            ),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Spec(e) => Some(e),
            FlowError::Topology(e) => Some(e),
            FlowError::Synth(e) => Some(e),
            FlowError::Sim(e) => Some(e),
            FlowError::InvalidConfig(_) | FlowError::NoDesignMeetsContract { .. } => None,
        }
    }
}

impl From<SpecError> for FlowError {
    fn from(e: SpecError) -> FlowError {
        FlowError::Spec(e)
    }
}

impl From<TopologyError> for FlowError {
    fn from(e: TopologyError) -> FlowError {
        FlowError::Topology(e)
    }
}

impl From<SynthError> for FlowError {
    fn from(e: SynthError) -> FlowError {
        FlowError::Synth(e)
    }
}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> FlowError {
        FlowError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_traits_and_sources() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<FlowError>();
        let e = FlowError::from(SynthError::NoFeasibleDesign);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("synthesis error"));
    }
}
