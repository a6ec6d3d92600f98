//! # blink-train
//!
//! A data-parallel DNN training simulator used to reproduce the paper's
//! end-to-end results (Figure 5, Figure 18, Figure 22(a)).
//!
//! The paper trains AlexNet, ResNet18, ResNet50 and VGG16 on ImageNet-1K with
//! PyTorch, swapping the collective backend between NCCL and Blink via
//! `LD_PRELOAD`. What determines the end-to-end numbers is simple arithmetic
//! over three quantities: per-iteration forward+backward compute time, the
//! gradient volume that must be AllReduced every iteration, and how much of
//! that AllReduce can be hidden behind the backward pass (wait-free
//! backpropagation). This crate models exactly that:
//!
//! * [`models`] — the four CNNs with their parameter sizes, calibrated
//!   per-GPU compute times on P100 and V100 parts, and a deterministic
//!   per-layer gradient profile
//!   ([`DnnModel::layer_bytes`](models::DnnModel::layer_bytes)).
//! * [`backend`] — a [`CollectiveBackend`] trait
//!   with adapters for the Blink communicator and the NCCL baseline, both
//!   running over the same simulated hardware. Every backend synchronises a
//!   step through
//!   [`step_allreduce`](backend::CollectiveBackend::step_allreduce) (one
//!   blocking AllReduce per bucket by default); the Blink backend overrides
//!   it to stream buckets through `Communicator::run_streamed`, overlapping
//!   collectives with the remaining backward compute and fusing
//!   sub-threshold buckets into one segmented program.
//! * [`trainer`] — bucketed wait-free backpropagation: gradients issue
//!   per-layer in reverse layer order as backward produces them (the bucket
//!   issue-order contract is specified in [`trainer`]'s module docs), with
//!   overlapped ([`TrainingSimulator::iteration`](trainer::TrainingSimulator::iteration))
//!   and serialised
//!   ([`TrainingSimulator::iteration_serialized`](trainer::TrainingSimulator::iteration_serialized))
//!   accounting — the two sides `bench_overlap` compares.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod models;
pub mod trainer;

pub use backend::{BlinkBackend, BucketIssue, CollectiveBackend, NcclBackend, StepComm};
pub use models::{DnnModel, GpuGeneration};
pub use trainer::{IterationBreakdown, TrainerConfig, TrainingSimulator};
