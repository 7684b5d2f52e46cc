//! # colt-workload
//!
//! The synthetic data set and workloads of the paper's evaluation: four
//! instances of a TPC-H-like schema (32 tables, 244 indexable
//! attributes; Table 1 of the paper), a seeded SPJ query generator with
//! histogram-driven selectivity control, and the three experiment
//! workload shapes — stable, shifting (four phases with gradual
//! transitions), and noisy (20% burst injections).

#![warn(missing_docs)]

pub mod distribution;
pub mod gen;
pub mod presets;
pub mod tpch;
pub mod workload;

pub use distribution::{QueryDistribution, QueryTemplate, SelSpec, TemplateSelection};
pub use presets::{budget_for, noisy, shifting, stable, stable_distribution, Preset};
pub use tpch::{generate, summary, Instance, TpchData, DEFAULT_SCALE};
pub use workload::{fixed, phase_boundaries, phased, with_noise, NoisePlan};
