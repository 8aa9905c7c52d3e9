//! # dpbfl-data
//!
//! Dataset substrate for the `dpbfl` stack. The paper evaluates on MNIST,
//! Fashion-MNIST, USPS, and Colorectal; those corpora are unavailable offline,
//! so [`synthetic`] generates matching-shape classification tasks (see the
//! module docs and DESIGN.md §3 for why the substitution preserves every
//! phenomenon the paper measures). The rest of the crate implements the
//! paper's data plumbing exactly:
//!
//! * [`partition`] — i.i.d. dealing and the non-i.i.d. generator of
//!   Algorithm 4 (`GetNonIID`).
//! * [`auxiliary`] — the server's 2-samples-per-class auxiliary set.
//! * [`poison`] — label flipping (`I → H−1−I`) for Byzantine workers.
//! * [`batch`] — per-iteration mini-batch subsampling.

pub mod auxiliary;
pub mod batch;
pub mod dataset;
pub mod partition;
pub mod poison;
pub mod synthetic;

pub use auxiliary::sample_auxiliary;
pub use batch::sample_batch;
pub use dataset::Dataset;
pub use partition::{iid_partition, label_distribution, non_iid_partition};
pub use poison::flip_labels;
pub use synthetic::SyntheticSpec;
