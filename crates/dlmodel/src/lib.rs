//! Analytical deep-learning training model and SGD convergence experiments
//! for the paper's §4.4 case study (Figure 13).
//!
//! The paper quantifies the benefit of Buddy Compression's extra capacity
//! on DL training with three ingredients, all reproduced here:
//!
//! * a **footprint model** ([`layers`], [`networks`]) — layer-level
//!   parameter/activation accounting for the six evaluated networks,
//!   calibrated against the Table 1 footprints (Figure 13a);
//! * a **throughput model** ([`perf`]) — the Paleo/DeLTA-style roofline
//!   model the paper itself uses, producing images/s versus batch size and
//!   the Buddy capacity speedups (Figures 13b and 13c);
//! * a **real SGD experiment** ([`training`]) — minibatch SGD with batch
//!   normalization on a synthetic task, demonstrating the
//!   tiny-batch-accuracy mechanism of Figure 13d (training ResNet50 on
//!   CIFAR100 is out of scope for a CPU-only reproduction; see DESIGN.md §4).
//!
//! # Example
//!
//! ```
//! use dl_model::{networks, perf};
//!
//! let vgg = networks::vgg16();
//! let gpu = perf::GpuPerf::default();
//! // VGG16 cannot fit batch 64 in 12 GB — the §4.4 motivation.
//! assert!(vgg.max_batch_within(gpu.memory_bytes) < 64);
//! let speedup = perf::capacity_speedup(&vgg, &gpu, 1.5, 0.022, 512);
//! assert!(speedup.speedup() > 1.1);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod layers;
pub mod networks;
pub mod perf;
pub mod training;

pub use layers::{LayerInfo, LayerKind, Network, NetworkBuilder, BYTES_PER_ELEM};
pub use perf::{capacity_speedup, iteration_time_us, throughput, CapacitySpeedup, GpuPerf};
pub use training::{batch_size_sweep, train, Dataset, TrainConfig, TrainResult};
