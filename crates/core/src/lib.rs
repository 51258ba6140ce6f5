//! # metal-core — the METAL contribution
//!
//! A faithful software reimplementation of METAL (ASPLOS'24): a portable
//! caching idiom that lets domain-specific architectures reuse *index
//! metadata* instead of streaming every index walk to DRAM. Two ideas:
//!
//! 1. **[`ixcache::IxCache`]** — a cache whose tags are key ranges
//!    `[Lo, Hi]` instead of addresses. A probe with any covered key hits;
//!    ties between nested ranges prefer the node closest to the leaf; on a
//!    hit the walk *short-circuits*, restarting below the cached node and
//!    skipping every level above it.
//! 2. **[`descriptor::Descriptor`]s + [`tuner::Tuner`]** — reuse patterns:
//!    an explicit insert/bypass interface expressed on affine index
//!    features (levels, ranges, branches) with per-batch dynamic parameter
//!    tuning.
//!
//! The crate also contains the paper's comparison baselines as walk models
//! ([`models`]) and a runner ([`runner`]) that executes one request stream
//! under every design with identical DRAM/tile models. The per-walk cache
//! decisions live once, in `decide`, shared by the simulated and the
//! native ([`native`]) backend.
//!
//! ## Quickstart
//!
//! ```
//! use metal_core::prelude::*;
//! use metal_index::bptree::BPlusTree;
//! use metal_sim::types::Addr;
//!
//! // An index and a skewed request stream.
//! let keys: Vec<u64> = (0..2000).collect();
//! let tree = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
//! let requests: Vec<WalkRequest> =
//!     (0..500).map(|i| WalkRequest::lookup((i * 7) % 100)).collect();
//! let exp = Experiment::single(&tree, &requests);
//!
//! // Run METAL against the streaming baseline.
//! let cfg = RunConfig::default();
//! let stream = run_design(&DesignSpec::Stream, &exp, &cfg);
//! let metal = run_design(&DesignSpec::MetalIx { ix: IxConfig::kb64() }, &exp, &cfg);
//! assert!(metal.speedup_vs(&stream) > 1.0);
//! ```

#![warn(missing_docs)]

pub(crate) mod decide;
pub mod descriptor;
pub mod energy;
pub mod ixcache;
pub mod metrics;
pub mod models;
pub mod native;
pub mod range;
pub mod request;
pub mod runner;
pub mod tuner;

/// Convenient glob import for harnesses and examples.
pub mod prelude {
    pub use crate::descriptor::{
        Admit, AdmitCtx, BranchDescriptor, Descriptor, LevelDescriptor, NodeDescriptor,
    };
    pub use crate::ixcache::{IxCache, IxConfig, IxHit};
    pub use crate::models::{DesignSpec, Experiment};
    pub use crate::native::{run_native_design, supports_native, NativeMetrics};
    pub use crate::range::KeyRange;
    pub use crate::request::WalkRequest;
    pub use crate::runner::{
        run_comparison, run_design, Backend, ObsConfig, RunConfig, RunReport, ShardCtx, SinkFactory,
    };
    pub use crate::tuner::Tuner;
}

pub use prelude::*;
