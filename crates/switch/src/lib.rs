//! # smbm-switch
//!
//! Shared-memory switch substrate for the reproduction of *"Shared Memory
//! Buffer Management for Heterogeneous Packet Processing"* (Eugster, Kogan,
//! Nikolenko, Sirotkin — ICDCS 2014).
//!
//! The paper studies an `l × n` switch whose `n` output queues share a single
//! buffer of `B` unit-sized packet slots. Its two models, and this
//! repository's combined extension, differ only in how a port's queue orders,
//! serves and evicts packets, so one state machine, [`Switch`], serves all
//! three through a queue [`Discipline`]:
//!
//! * the **heterogeneous-processing model** ([`WorkSwitch`], Section III):
//!   each packet carries a required amount of processing; all packets
//!   destined to the same port require the same work; queues are FIFO;
//!   throughput is the number of transmitted packets;
//! * the **heterogeneous-value model** ([`ValueSwitch`], Section IV):
//!   unit-work packets carry intrinsic values; queues are priority queues
//!   (most valuable first); throughput is the total transmitted value;
//! * the **combined model** ([`CombinedSwitch`], extension): per-port works
//!   and per-packet values; each queue serves its packet in service to
//!   completion, then promotes the most valuable backlogged packet;
//!   throughput is the total transmitted value.
//!
//! This crate owns the *mechanics* — queues, shared-buffer occupancy, the
//! two-phase slot structure, packet accounting and its conservation laws.
//! Admission *decisions* (LWD, LQD, MRD, ...) live in the `smbm-core` crate;
//! traffic lives in `smbm-traffic`; the slot loop lives in `smbm-sim`.
//!
//! Storage-wise, every switch owns a [`BufferCore`]: one preallocated slab of
//! exactly `B` packet slots that all queues share. Queues are intrusive
//! doubly-linked lists threaded through the slab, so admission, push-out and
//! transmission are O(1) pointer splices with no per-packet allocation, and
//! buffer occupancy *is* the slab's allocation count. The pre-slab queue
//! implementations survive verbatim in [`mod@reference`] as differential-test
//! oracles.
//!
//! ## Example
//!
//! ```
//! use smbm_switch::{PortId, ValuePacket, ValueSwitch, ValueSwitchConfig, Value};
//!
//! let mut sw = ValueSwitch::new(ValueSwitchConfig::new(8, 4)?);
//! sw.admit(ValuePacket::new(PortId::new(2), Value::new(6)))?;
//! assert_eq!(sw.occupancy(), 1);
//! let report = sw.transmit(1);
//! assert_eq!(report.value, 6);
//! sw.check_invariants().expect("conservation holds");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combined {
    pub mod queue;
}
mod config;
mod counters;
mod dirty;
mod error;
mod flush;
mod ids;
mod outcome;
mod packet;
pub mod reference;
mod slab;
mod switch;
mod work {
    pub mod queue;
}
mod value {
    pub mod queue;
}

/// Seals [`Discipline`], [`Packet`] and [`SwitchConfig`]: the switch relies on
/// the invariants of the three models it ships.
mod sealed {
    pub trait Sealed {}
}

pub use combined::queue::{CombinedQueue, InService};
pub use config::{SwitchConfig, ValueSwitchConfig, WorkSwitchConfig};
pub use counters::{ConservationError, Counters};
pub use dirty::DirtyPorts;
pub use error::{AdmitError, ConfigError};
pub use flush::{FlushMode, FlushPolicy};
pub use ids::{PortId, Slot, Value, Work};
pub use outcome::{ArrivalOutcome, DropReason};
pub use packet::{CombinedPacket, Packet, Transmitted, ValuePacket, WorkPacket};
pub use slab::{BufferCore, SlotList};
pub use switch::{CombinedSwitch, Discipline, PhaseReport, Switch, ValueSwitch, WorkSwitch};
pub use value::queue::{RatioKey, ValueEntry, ValueQueue};
pub use work::queue::WorkQueue;
