#![warn(missing_docs)]

//! Memory-hierarchy substrate: set-associative caches with LRU replacement
//! composed into the paper's two-level hierarchy (Table 1: 64 KB 2-way L1s
//! with 2-cycle pipelined hits and 32 B blocks, a 2 MB 8-way L2 with
//! 12-cycle hits and 64 B blocks, and 150-cycle memory).
//!
//! The hierarchy is a *timing* model: an access returns the total latency
//! in cycles and updates cache state. Bandwidth (the 4 d-cache ports and 2
//! i-cache ports) is arbitrated by the pipeline, not here; misses are
//! overlap-friendly (no MSHR limit), and write-backs of dirty victims are
//! tracked but charged no extra latency — both standard simplifications
//! that leave the LSQ-side contention the paper studies untouched.
//!
//! # Examples
//!
//! ```
//! use lsq_mem::{HierarchyConfig, MemoryHierarchy};
//! use lsq_isa::Addr;
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
//! let cold = mem.data_access(Addr(0x1000), false);
//! let warm = mem.data_access(Addr(0x1000), false);
//! assert!(cold > warm);
//! assert_eq!(warm, 2); // L1 hit
//! ```

pub mod cache;
pub mod hierarchy;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{Access, HierarchyConfig, MemoryHierarchy};
