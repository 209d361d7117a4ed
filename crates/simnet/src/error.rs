//! Typed errors for the simulator core: a malformed input reports a
//! structured error instead of tearing down the process.

/// A rejected input to a simulation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A port index exceeded the configured port count.
    PortOutOfRange { port: u32, ports: u32 },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::PortOutOfRange { port, ports } => {
                write!(f, "port {port} out of range (switch has {ports} ports)")
            }
        }
    }
}

impl std::error::Error for SimError {}
