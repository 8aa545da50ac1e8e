//! `gnr-num` — numerical substrate for the gnrlab workspace.
//!
//! Every numerical primitive used by the device and circuit simulators is
//! implemented here from scratch: complex arithmetic, dense real/complex
//! linear algebra (LU factorization, inversion, symmetric/Hermitian
//! eigenvalue problems), sparse CSR matrices with Krylov solvers,
//! interpolation on uniform grids, quadrature, root finding, linear
//! regression, and descriptive statistics.
//!
//! The crate is deliberately free of external dependencies so the physics
//! crates built on top of it (`gnr-lattice`, `gnr-negf`, `gnr-poisson`)
//! are self-contained.
//!
//! # Example
//!
//! ```
//! use gnr_num::{c64, CMatrix};
//!
//! // Invert a small complex matrix and check A * A^-1 = I.
//! let a = CMatrix::from_rows(&[
//!     vec![c64(2.0, 1.0), c64(0.0, -1.0)],
//!     vec![c64(1.0, 0.0), c64(3.0, 0.5)],
//! ]);
//! let inv = a.inverse().expect("matrix is nonsingular");
//! let id = a.matmul(&inv);
//! assert!((id.get(0, 0) - c64(1.0, 0.0)).norm() < 1e-12);
//! assert!(id.get(0, 1).norm() < 1e-12);
//! ```

pub mod budget;
pub mod cdense;
pub mod checkpoint;
pub mod complex;
pub mod consts;
pub mod dense;
pub mod error;
pub mod fault;
pub mod fermi;
pub mod interp;
pub mod json;
pub mod linfit;
pub mod par;
pub mod quad;
pub mod recover;
pub mod rng;
pub mod roots;
pub mod solver;
pub mod sparse;
pub mod sparse_lu;
pub mod stats;
pub mod telemetry;

pub use budget::{Budget, CancelToken, ExecLimits};
pub use cdense::CMatrix;
pub use checkpoint::{Checkpoint, KeyHasher, LoadOutcome};
pub use complex::{c64, Complex64};
pub use dense::Matrix;
pub use error::{NumError, NumResult};
pub use interp::{BilinearTable, Grid1, Grid2, LinearTable};
pub use json::Json;
pub use par::{ExecCtx, ThreadPool};
pub use recover::{
    Attempt, AttemptOutcome, AttemptReport, EscalationLadder, FaultEvent, FaultLog, Quality,
    SharedFaultLog, SolveReport,
};
pub use rng::Rng;
pub use sparse::{CsrMatrix, TripletBuilder};
pub use sparse_lu::{sparse_solve, LuSymbolic, Refactorization, SparseLu};
pub use telemetry::{MetricValue, Telemetry, TelemetryShard, TelemetrySnapshot};
