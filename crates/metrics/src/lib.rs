#![warn(missing_docs)]

//! Efficiency and quality metrics for pruned models.
//!
//! The paper (Section 6) recommends always reporting **both** of:
//!
//! * **Compression ratio** — original size / compressed size, where size
//!   is the number of nonzero parameters (all parameters count, including
//!   unprunable biases and batch-norm parameters);
//! * **Theoretical speedup** — original multiply-adds / pruned
//!   multiply-adds.
//!
//! Section 5.2 documents that papers disagree (up to 4×) on how to count
//! FLOPs, so ours is stated exactly: one multiply-add = one FLOP; a
//! convolution contributes `C_out · C_in · KH · KW · H_out · W_out` MACs
//! per sample, a linear layer `in · out`; all other layers contribute
//! zero. A weight tensor with a fraction `q` of nonzero entries
//! contributes `q` times its dense MACs (unstructured sparsity, perfectly
//! exploited).
//!
//! [`ModelProfile::measure`] captures all of this from any
//! [`Network`](sb_nn::Network).

mod aggregate;
pub mod ambiguity;
mod profile;
mod realized;
pub mod sched;
pub mod serve;
pub mod storage;

pub use aggregate::{mean_std, MeanStd};
pub use ambiguity::{ambiguity_report, AmbiguityReport, FlopConvention, SizeConvention};
pub use profile::{ModelProfile, OpProfile, ParamProfile};
pub use realized::{RealizedPoint, RealizedProfile, RealizedSweep};
pub use sched::{SchedProfile, TenantObs, TenantProfile};
pub use serve::{percentile_us, RejectCounts, ServeProfile};
pub use storage::{model_bytes, storage_report, StorageFormat, StorageReport};
