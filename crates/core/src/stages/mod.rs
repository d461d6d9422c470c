//! Typed per-stage artifacts of the incremental engine.
//!
//! [`Engine`](crate::Engine) decomposes the DLInfMA pipeline into four
//! artifacts, each owning one stage's accumulated state and knowing how
//! to update itself from a streamed batch:
//!
//! * [`StayPointSet`] — every stay point ever ingested, plus the
//!   union-find over radius-`D` connectivity that partitions stays into
//!   order-independent clustering components;
//! * [`PoolState`] — the incremental candidate pool: per-component cluster
//!   records keyed by *stable keys* (minimum member stay index), rebuilt
//!   only for components touched by new stays and materialized into the
//!   classic [`CandidatePool`](crate::CandidatePool) on demand;
//! * [`RetrievalIndex`] — per-address delivery evidence (temporal upper
//!   bounds per trip) and the building/address trip indexes feature
//!   normalization needs;
//! * [`SampleTable`] — per-address *raw* feature counts (integers that stay
//!   valid while an address is clean) plus the inverse key → addresses
//!   index used to propagate candidate changes to dirty addresses.
//!
//! The stable-key discipline plus raw-count storage is what makes the
//! engine's streaming path bit-for-bit equal to one big batch ingest; the
//! invalidation rules are spelled out in `DESIGN.md`.

pub mod pool;
pub mod retrieval_index;
pub mod sample_table;
pub mod staypoint_set;

pub use pool::{PoolDelta, PoolState};
pub use retrieval_index::{AddressEvidence, RetrievalIndex};
pub use sample_table::{RawSample, SampleTable};
pub use staypoint_set::{StayPointSet, StayRec};
