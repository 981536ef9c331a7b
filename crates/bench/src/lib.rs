//! # bench
//!
//! The benchmark workloads for every timed table and figure of the
//! paper's evaluation (§7). [`workloads`] names each one; `jns bench`
//! times them and writes one `jns-bench/2` document per suite. The two
//! binaries report statistics that are not timings.
//!
//! | Artifact | `jns bench` suite | Binary |
//! |----------|-------------------|--------|
//! | Table 1 (jolden) | `table1` | — |
//! | Table 2 (tree traversal) | `table2` | — |
//! | §7.3 / Fig. 20 (lambda compiler) | `vm` | `lambda_stats` (node reuse) |
//! | §7.4 (CorONA evolution) | — | `corona_evolution` (hop counts) |
//! | §6.3 ablations | `dispatch` | — |

#![warn(missing_docs)]

pub mod workloads;
