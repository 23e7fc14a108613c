//! # pypm-models — the synthetic model zoo
//!
//! Stand-ins for the paper's two benchmark suites (§4.1):
//!
//! * [`transformer`] — ~30 HuggingFace-style transformer graphs with
//!   naive multi-head attention and expanded GELUs (in both the `Div(x,2)`
//!   and `Mul(x,0.5)` spellings of §2.1),
//! * [`vision`] — ~20 TorchVision-style CNN graphs with conv→bias→act
//!   blocks and dense classifier tails.
//!
//! The substitution is listed in the README's "Workspace layout" table.
//! It is sound because pattern matching and the cost model only see
//! operator graphs, so synthetic graphs with the real models' operator
//! structure exercise the same code paths as the paper's pre-trained
//! checkpoints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod transformer;
pub mod vision;

pub use transformer::{hf_zoo, GeluVariant, ScaleVariant, TransformerConfig};
pub use vision::{tv_zoo, BlockActivation, ConvStage, VisionConfig};
