//! # dpbfl-stats
//!
//! Statistical substrate for the `dpbfl` stack: the paper's server-side
//! defenses are *statistical tests*, so this crate provides everything SciPy
//! supplied to the reference implementation, built from scratch:
//!
//! * [`special`] — log-gamma, erfc (on the regularized incomplete gamma), and
//!   log-space add/sub (backing the RDP accountant).
//! * [`normal`] — Normal cdf/quantile and Gaussian sampling: the Marsaglia
//!   polar method run a block at a time ([`normal::fill_standard_normal`]),
//!   drawing exactly the values and the stream of the one-variate loop.
//! * [`kolmogorov`] — the Kolmogorov distribution (asymptotic series) and the
//!   Marsaglia–Tsang–Wang exact finite-`n` CDF.
//! * [`ks`] — the one-sample KS test the server runs on every upload, plus
//!   the sort-free [`ks::KsGaussianScreen`] that decides most uploads in one
//!   `O(d)` pass (decision-equivalent to the sorted test by contract).
//! * [`moments`] — coordinate-wise moments (the "A little" attack).
//! * [`sampling`] — seeded without-replacement subset draws (per-round client
//!   cohorts).

pub mod kolmogorov;
pub mod ks;
pub mod moments;
pub mod normal;
pub mod sampling;
pub mod special;

pub use ks::{
    ks_test, ks_test_gaussian, ks_test_gaussian_with, KsGaussianScreen, KsResult, KsScratch,
    KsScreenVerdict,
};
pub use normal::{fill_gaussian, gaussian_vector, Normal};
pub use sampling::sample_without_replacement;
