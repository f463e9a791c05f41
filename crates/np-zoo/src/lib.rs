//! # np-zoo
//!
//! The model zoo of the paper: the two PULP-Frontnet variants **F1** and
//! **F2**, the NAS-pruned MobileNet **M1.0**, and the auxiliary
//! head-localization classifier.
//!
//! Every logical model exists in two instantiations:
//!
//! * **paper-exact** ([`ModelId::paper_desc`]) — the 160×96-input
//!   architecture whose channel widths were reverse-engineered so that MAC
//!   and parameter counts match the paper's Table I (F1: 4.51 M MAC /
//!   14.8 k params; F2: 7.09 M / 44.5 k; M1.0: 11.42 M / 46.8 k). These
//!   descriptions feed `np-dory`/`np-gap8` for latency, energy and memory.
//! * **proxy** ([`ModelId::build_proxy`]) — the same topology at 80×48
//!   input, actually trained on the synthetic datasets for accuracy
//!   numbers. Proxies preserve the capacity ordering F1 < F2 < M1.0.
//!
//! Experiment harnesses join the two: per-frame *decisions* come from the
//! trained proxies, per-decision *costs* from the paper-exact deployment
//! plans — the same accounting as the paper's Eqs. (2) and (4).
//!
//! ```
//! use np_zoo::ModelId;
//!
//! let desc = ModelId::F1.paper_desc();
//! let macs = desc.macs() as f64 / 1e6;
//! assert!((macs - 4.51).abs() < 0.1, "F1 MACs {macs}M");
//! ```

pub mod aux;
pub mod cache;
pub mod channels;
pub mod frontnet;
pub mod mobilenet;
pub mod train;

pub use channels::ModelId;
pub use train::{evaluate_aux_accuracy, evaluate_mae, train_aux, train_regressor, TrainRecipe};
