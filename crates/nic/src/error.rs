//! NIC error types.

use crate::types::{NodeId, QpNum, Rkey};
use std::fmt;

/// Errors surfaced synchronously by verbs calls (posting, connecting,
/// registering). Asynchronous failures arrive as error completions
/// instead, mirroring real hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// The QP is not in a state that allows the requested operation.
    InvalidQpState { qp: QpNum, state: &'static str },
    /// The QP has no connected peer.
    NotConnected(QpNum),
    /// The target node does not exist on the fabric.
    UnknownNode(NodeId),
    /// A work request referenced memory outside its region.
    OutOfBounds {
        offset: usize,
        len: usize,
        mr_len: usize,
    },
    /// The rkey does not name a live memory region on the target node.
    BadRkey(Rkey),
    /// An SGE's memory region belongs to a different protection domain
    /// than the QP.
    PdMismatch,
    /// A completion queue overflowed; completions were lost.
    CqOverflow,
    /// Timed out waiting for a completion.
    Timeout,
    /// The fabric has been shut down.
    FabricDown,
    /// The QP is attached to a shared receive queue; post receives there.
    UsesSrq(QpNum),
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::InvalidQpState { qp, state } => {
                write!(f, "{qp} in state {state} cannot perform this operation")
            }
            NicError::NotConnected(qp) => write!(f, "{qp} is not connected"),
            NicError::UnknownNode(n) => write!(f, "{n} is not on the fabric"),
            NicError::OutOfBounds {
                offset,
                len,
                mr_len,
            } => write!(
                f,
                "access [{offset}, {}) exceeds region of {mr_len} bytes",
                offset + len
            ),
            NicError::BadRkey(r) => write!(f, "rkey {:#x} does not name a live region", r.0),
            NicError::PdMismatch => write!(f, "memory region and QP protection domains differ"),
            NicError::CqOverflow => write!(f, "completion queue overflow"),
            NicError::Timeout => write!(f, "timed out waiting for completion"),
            NicError::FabricDown => write!(f, "fabric has been shut down"),
            NicError::UsesSrq(qp) => {
                write!(f, "{qp} uses a shared receive queue; post receives to the SRQ")
            }
        }
    }
}

impl std::error::Error for NicError {}

pub type Result<T> = std::result::Result<T, NicError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NicError::OutOfBounds {
            offset: 10,
            len: 20,
            mr_len: 16,
        };
        assert_eq!(e.to_string(), "access [10, 30) exceeds region of 16 bytes");
        assert!(NicError::BadRkey(Rkey(0xabc)).to_string().contains("0xabc"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(NicError::PdMismatch, NicError::PdMismatch);
        assert_ne!(
            NicError::NotConnected(QpNum(1)),
            NicError::NotConnected(QpNum(2))
        );
    }
}
