//! # blink-topology
//!
//! Interconnect-topology models for the Blink reproduction.
//!
//! The Blink paper ([Wang et al., MLSYS 2020]) targets NVIDIA multi-GPU
//! servers (DGX-1P, DGX-1V, DGX-2) whose GPUs are connected by a mix of
//! NVLink, NVSwitch and PCIe. All of Blink's algorithms — spanning-tree
//! packing, ring construction, hybrid transfers — consume only the *graph*
//! of GPUs and capacitated links, so this crate provides:
//!
//! * strongly-typed identifiers for GPUs and servers ([`GpuId`], [`ServerId`]),
//! * link descriptions with per-direction bandwidth ([`Link`], [`LinkKind`]),
//! * the [`Topology`] container with adjacency queries, induced subgraphs and
//!   per-link-class filtering,
//! * faithful presets of the paper's hardware ([`presets::dgx1p`],
//!   [`presets::dgx1v`], [`presets::dgx2`], [`presets::multi_server`]),
//! * enumeration of *unique* allocation-induced topologies up to isomorphism
//!   ([`enumerate::unique_allocations`]), the paper's Section 5.2 binning:
//!   53 DGX-1V and 17 DGX-1P classes of 3–8 GPUs, of which the 46 and 14
//!   whose NVLink graph is connected are the paper's "unique settings".
//!
//! Blink discovers at start-up which links exist among exactly the GPUs a
//! scheduler allocated (Section 2.3); here that discovery is
//! [`Topology::induced`] over the modelled machine.
//!
//! Real hardware is not required anywhere: the presets encode the wiring shown
//! in Figure 1 of the paper and the bandwidths it reports (NVLink Gen1
//! 18–20 GB/s, Gen2 22–25 GB/s, PCIe 8–12 GB/s).
//!
//! # Enumerating unique allocation topologies
//!
//! [`enumerate`] is product surface, not a test helper: schedulers bin job
//! shapes by [`enumerate::canonical_form`] — the paper's topology-uniqueness
//! key — and report classes by their stable [`enumerate::AllocationClass::label`]
//! format (comma-joined ascending GPU ids of the representative):
//!
//! ```
//! use blink_topology::enumerate::{canonical_form, unique_allocations};
//! use blink_topology::presets::dgx1v;
//!
//! let machine = dgx1v();
//! let classes = unique_allocations(&machine, 3..=4).unwrap();
//! let labels: Vec<String> = classes.iter().map(|c| c.label()).collect();
//! assert!(labels.contains(&"0,1,2".to_string()));
//! // every member of a class shares the representative's canonical form
//! let class = &classes[0];
//! for member in &class.members {
//!     assert_eq!(canonical_form(&machine, member).unwrap(), class.canonical);
//! }
//! ```
//!
//! [Wang et al., MLSYS 2020]: https://arxiv.org/abs/1910.04940

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod delta;
mod ids;
mod link;
mod topology;

pub mod enumerate;
pub mod presets;

pub use delta::TopologyDelta;
pub use ids::{GpuId, ServerId};
pub use link::{Link, LinkKind};
pub use topology::{GpuInfo, Topology, TopologyError};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TopologyError>;
