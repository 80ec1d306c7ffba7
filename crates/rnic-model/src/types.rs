//! Identifier newtypes and wire-level vocabulary shared by the NIC model
//! and the verbs layer.

use core::fmt;

/// Identifies a host (and, one-to-one in this model, its RNIC and switch
/// port) within a simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// A queue-pair number, unique per host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QpNum(pub u32);

/// A memory-region remote key, unique per host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MrKey(pub u32);

/// A protection-domain identifier, unique per host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PdId(pub u32);

/// An application-level flow label used for counters and the NoC
/// activation heuristic. Distinct logical traffic streams (e.g. the two
/// competing flows of Fig. 4) carry distinct labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// An Ethernet traffic class (0–7), as configured by the `mlnx_qos`
/// equivalent in the verbs layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrafficClass(pub u8);

impl TrafficClass {
    /// Number of traffic classes supported by the model.
    pub const COUNT: usize = 8;

    /// Creates a traffic class, validating the range.
    ///
    /// # Panics
    ///
    /// Panics if `tc > 7`.
    pub fn new(tc: u8) -> Self {
        assert!(tc < Self::COUNT as u8, "traffic class out of range: {tc}");
        TrafficClass(tc)
    }

    /// The class index as a usize, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// RDMA operation codes supported by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opcode {
    /// One-sided RDMA Read.
    Read,
    /// One-sided RDMA Write.
    Write,
    /// Two-sided Send (consumes a posted receive at the responder).
    Send,
    /// 8-byte fetch-and-add.
    AtomicFetchAdd,
    /// 8-byte compare-and-swap.
    AtomicCmpSwap,
}

impl Opcode {
    /// The opcode's lowercase name (telemetry event args, tables).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Read => "read",
            Opcode::Write => "write",
            Opcode::Send => "send",
            Opcode::AtomicFetchAdd => "fetch_add",
            Opcode::AtomicCmpSwap => "cmp_swap",
        }
    }

    /// All opcodes, for sweep enumeration.
    pub const ALL: [Opcode; 5] = [
        Opcode::Read,
        Opcode::Write,
        Opcode::Send,
        Opcode::AtomicFetchAdd,
        Opcode::AtomicCmpSwap,
    ];

    /// True for the two atomic opcodes.
    pub fn is_atomic(self) -> bool {
        matches!(self, Opcode::AtomicFetchAdd | Opcode::AtomicCmpSwap)
    }

    /// True if the operation moves requester data to the responder
    /// (payload travels in the request direction).
    pub fn carries_request_payload(self) -> bool {
        matches!(self, Opcode::Write | Opcode::Send)
    }

    /// True if the responder returns payload (read response / atomic
    /// result).
    pub fn returns_payload(self) -> bool {
        matches!(
            self,
            Opcode::Read | Opcode::AtomicFetchAdd | Opcode::AtomicCmpSwap
        )
    }

    /// Stable index for per-opcode counter tables.
    pub fn index(self) -> usize {
        match self {
            Opcode::Read => 0,
            Opcode::Write => 1,
            Opcode::Send => 2,
            Opcode::AtomicFetchAdd => 3,
            Opcode::AtomicCmpSwap => 4,
        }
    }

    /// Number of distinct opcodes.
    pub const COUNT: usize = 5;
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::Read => "READ",
            Opcode::Write => "WRITE",
            Opcode::Send => "SEND",
            Opcode::AtomicFetchAdd => "FETCH_ADD",
            Opcode::AtomicCmpSwap => "CMP_SWAP",
        };
        f.write_str(s)
    }
}

/// MR access permissions (a flag set; kept as explicit bools rather than a
/// bitflags dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AccessFlags {
    /// Remote peers may RDMA-Read this MR.
    pub remote_read: bool,
    /// Remote peers may RDMA-Write this MR.
    pub remote_write: bool,
    /// Remote peers may perform atomics on this MR.
    pub remote_atomic: bool,
}

impl AccessFlags {
    /// Read-only remote access.
    pub fn remote_read_only() -> Self {
        AccessFlags {
            remote_read: true,
            remote_write: false,
            remote_atomic: false,
        }
    }

    /// Full remote access.
    pub fn remote_all() -> Self {
        AccessFlags {
            remote_read: true,
            remote_write: true,
            remote_atomic: true,
        }
    }

    /// True if `opcode` is permitted by these flags.
    pub fn permits(self, opcode: Opcode) -> bool {
        match opcode {
            Opcode::Read => self.remote_read,
            Opcode::Write => self.remote_write,
            Opcode::Send => true, // send targets a posted receive, not the MR table
            Opcode::AtomicFetchAdd | Opcode::AtomicCmpSwap => self.remote_atomic,
        }
    }
}

/// Why the responder refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NakReason {
    /// The remote key did not match any registered MR.
    InvalidMrKey,
    /// The access span fell outside the MR bounds.
    OutOfBounds,
    /// The MR's access flags do not permit the opcode.
    AccessDenied,
    /// The MR belongs to a different protection domain than the QP.
    PdMismatch,
    /// A Send arrived but no receive WQE was posted.
    ReceiveNotPosted,
}

impl NakReason {
    /// Short stable name (telemetry event args).
    pub fn name(self) -> &'static str {
        match self {
            NakReason::InvalidMrKey => "invalid_mr_key",
            NakReason::OutOfBounds => "out_of_bounds",
            NakReason::AccessDenied => "access_denied",
            NakReason::PdMismatch => "pd_mismatch",
            NakReason::ReceiveNotPosted => "receive_not_posted",
        }
    }
}

impl fmt::Display for NakReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NakReason::InvalidMrKey => "invalid memory region key",
            NakReason::OutOfBounds => "access outside memory region bounds",
            NakReason::AccessDenied => "memory region access flags deny operation",
            NakReason::PdMismatch => "protection domain mismatch",
            NakReason::ReceiveNotPosted => "no receive posted for send",
        };
        f.write_str(s)
    }
}

/// Wire-format constants (RoCEv2-flavoured, rounded).
pub mod wire {
    /// Ethernet + IP + UDP + BTH framing bytes per packet.
    pub const HEADER_BYTES: u64 = 14 + 20 + 8 + 12 + 4 + 4;
    /// RETH (RDMA extended transport header) bytes on requests.
    pub const RETH_BYTES: u64 = 16;
    /// AtomicETH bytes.
    pub const ATOMIC_ETH_BYTES: u64 = 28;
    /// ACK/NAK packet total size on the wire.
    pub const ACK_BYTES: u64 = HEADER_BYTES + 4;
    /// Path MTU used by the model.
    pub const MTU: u64 = 4096;
    /// Atomic operand size.
    pub const ATOMIC_LEN: u64 = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_class_bounds() {
        assert_eq!(TrafficClass::new(7).index(), 7);
    }

    #[test]
    #[should_panic(expected = "traffic class out of range")]
    fn traffic_class_rejects_8() {
        let _ = TrafficClass::new(8);
    }

    #[test]
    fn opcode_predicates() {
        assert!(Opcode::Read.returns_payload());
        assert!(!Opcode::Read.carries_request_payload());
        assert!(Opcode::Write.carries_request_payload());
        assert!(Opcode::AtomicFetchAdd.is_atomic());
        assert!(Opcode::AtomicCmpSwap.returns_payload());
        assert!(!Opcode::Send.is_atomic());
    }

    #[test]
    fn opcode_indices_unique() {
        let mut seen = [false; Opcode::COUNT];
        for op in Opcode::ALL {
            assert!(!seen[op.index()], "duplicate index for {op}");
            seen[op.index()] = true;
        }
    }

    #[test]
    fn access_flags_permit_matrix() {
        let ro = AccessFlags::remote_read_only();
        assert!(ro.permits(Opcode::Read));
        assert!(!ro.permits(Opcode::Write));
        assert!(!ro.permits(Opcode::AtomicFetchAdd));
        let all = AccessFlags::remote_all();
        for op in Opcode::ALL {
            assert!(all.permits(op));
        }
    }

    #[test]
    fn nak_reason_display_nonempty() {
        assert!(!NakReason::OutOfBounds.to_string().is_empty());
    }
}
