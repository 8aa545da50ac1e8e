//! `gnrfet-explore` — device-to-circuit technology exploration for GNRFET
//! circuits: the paper's primary contribution.
//!
//! This crate ties the full stack together — atomistic device tables from
//! `gnr-device`, the table-lookup circuit simulator from `gnr-spice`, and
//! the scaled-CMOS baseline from `gnr-cmos` — into the paper's evaluation
//! flow:
//!
//! * [`devices`] — a caching library of device tables for every
//!   configuration the paper studies (widths N = 9…18, oxide charges
//!   ±q/±2q, one-of-four vs all-four array scenarios), with a fidelity
//!   knob for fast tests;
//! * [`contours`] — the (V_DD, V_T) design-space maps of EDP, frequency,
//!   and SNM for the 15-stage FO4 ring oscillator (Fig. 3b) and the
//!   operating-point selection for points A, B, C;
//! * [`comparison`] — GNRFET-vs-scaled-CMOS benchmark (Table 1);
//! * [`variability`] — the width-variation / charge-impurity / combined
//!   sensitivity tables for the FO4 inverter (Tables 2–4);
//! * [`monte_carlo`] — the 15-stage ring-oscillator Monte Carlo study
//!   (Fig. 6);
//! * [`latch`] — butterfly curves and latch noise margins under worst-case
//!   variations (Fig. 7).
//!
//! Each table/figure of the paper has a matching binary under `src/bin`
//! that regenerates it (see DESIGN.md §4 for the experiment index).
//!
//! # Example
//!
//! ```no_run
//! use gnr_num::par::ExecCtx;
//! use gnrfet_explore::devices::{DeviceLibrary, DeviceVariant, Fidelity};
//! use gnrfet_explore::variability::inverter_study;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = ExecCtx::from_env(); // honours GNR_THREADS
//! let mut lib = DeviceLibrary::new(Fidelity::Fast);
//! let nominal = inverter_study(
//!     &ctx,
//!     &mut lib,
//!     DeviceVariant::nominal(),
//!     DeviceVariant::nominal(),
//!     0.4,
//!     0.13,
//! )?;
//! println!("nominal FO4 delay: {:.2} ps", nominal.delay_s * 1e12);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod comparison;
pub mod contours;
pub mod devices;
pub mod error;
pub mod latch;
pub mod monte_carlo;
pub mod report;
pub mod variability;

pub use devices::{DeviceLibrary, Fidelity};
pub use error::ExploreError;
