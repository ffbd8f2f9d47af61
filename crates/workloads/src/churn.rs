//! Allocation-churn traces: deterministic alloc/free lifetime streams.
//!
//! The paper's operating regime is a long-running process whose working
//! set turns over constantly — DL training allocates activations on the
//! forward pass and releases them during the backward pass *every
//! iteration* (§4.2; the Compressing-DMA-Engine line of work is built
//! entirely around that activation-lifetime churn), and HPC solvers cycle
//! scratch buffers per timestep. This module synthesizes that lifetime
//! structure: a [`ChurnTrace`] is an infinite, seeded, deterministic
//! stream of [`ChurnOp`]s — allocate a keyed region of a drawn size, or
//! free a previously allocated key — with the lifetime *distribution*
//! configurable per workload style.
//!
//! The consumer owns the mapping from keys to device handles (and the
//! choice of target ratios); the trace only fixes *when* regions appear
//! and disappear and *how large* they are, which is what drives allocator
//! fragmentation and steady-state occupancy.

use crate::entry_gen::{mix, unit_from_hash};

/// Lifetime structure of the churned allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifetime {
    /// Lifetimes drawn uniformly from `[min_ops, max_ops]` operations —
    /// mixed-tenancy churn where short- and long-lived regions interleave
    /// (the worst case for fragmentation).
    Uniform {
        /// Shortest lifetime, in emitted operations.
        min_ops: u64,
        /// Longest lifetime, in emitted operations.
        max_ops: u64,
    },
    /// Memoryless (exponential) lifetimes with the given mean — steady
    /// background churn with a long tail of survivors.
    Exponential {
        /// Mean lifetime, in emitted operations.
        mean_ops: f64,
    },
    /// DL-iteration activation turnover: each iteration allocates one
    /// activation per layer in forward order, then frees them all in
    /// reverse (backward-pass) order — last-allocated, first-freed, the
    /// pattern of Figure 13's training loop. Per-layer sizes are stable
    /// across iterations, like real activation tensors.
    Iteration {
        /// Layers per training iteration.
        layers: usize,
    },
}

/// Configuration of one churn trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Steady-state number of live allocations the trace maintains (for
    /// [`Lifetime::Iteration`] the layer count takes this role instead).
    pub live_target: usize,
    /// Smallest allocation size, in 128 B entries.
    pub min_entries: u64,
    /// Largest allocation size, in 128 B entries.
    pub max_entries: u64,
    /// Lifetime distribution.
    pub lifetime: Lifetime,
    /// Master seed; the whole stream derives from it.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            live_target: 64,
            min_entries: 16,
            max_entries: 512,
            lifetime: Lifetime::Uniform {
                min_ops: 16,
                max_ops: 256,
            },
            seed: 0xC402,
        }
    }
}

/// One operation of a churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Allocate a region of `entries` 128 B entries under `key`.
    Alloc {
        /// Trace-unique key identifying this region until it is freed.
        key: u64,
        /// Region size in 128 B entries.
        entries: u64,
    },
    /// Free the region previously allocated under `key`.
    Free {
        /// Key of a currently live region.
        key: u64,
    },
}

/// Deterministic, infinite alloc/free stream implementing [`ChurnConfig`].
///
/// Warm-up allocates until `live_target` regions are live; from then on
/// the stream frees the live region whose drawn lifetime expires first and
/// replaces it, holding the live count at steady state while the lifetime
/// distribution shapes the *order* holes open up in — which is exactly
/// what stresses a coalescing allocator.
#[derive(Debug, Clone)]
pub struct ChurnTrace {
    cfg: ChurnConfig,
    /// Live regions as `(death_time, key)`.
    live: Vec<(u64, u64)>,
    next_key: u64,
    clock: u64,
    /// `Iteration` mode: the backward-pass free stack.
    backward: Vec<u64>,
    /// `Iteration` mode: whether the current ops drain the backward stack.
    draining: bool,
}

impl ChurnTrace {
    /// Creates the trace for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate: a zero live target (or
    /// zero layers), `min_entries` zero or above `max_entries`.
    pub fn new(cfg: ChurnConfig) -> Self {
        let live_target = match cfg.lifetime {
            Lifetime::Iteration { layers } => layers,
            _ => cfg.live_target,
        };
        assert!(live_target > 0, "churn needs a positive live target");
        assert!(
            cfg.min_entries > 0 && cfg.min_entries <= cfg.max_entries,
            "entry range must be 1..=max ({}..={})",
            cfg.min_entries,
            cfg.max_entries
        );
        Self {
            cfg,
            live: Vec::new(),
            next_key: 0,
            clock: 0,
            backward: Vec::new(),
            draining: false,
        }
    }

    /// Number of regions live after the operations emitted so far.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The configuration driving this trace.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Allocation size for `key` (stable per key; in `Iteration` mode,
    /// stable per *layer* so sizes repeat every iteration).
    fn entries_for(&self, key: u64) -> u64 {
        let tag = match self.cfg.lifetime {
            Lifetime::Iteration { layers } => key % layers as u64,
            _ => key,
        };
        let span = self.cfg.max_entries - self.cfg.min_entries + 1;
        self.cfg.min_entries + mix(&[self.cfg.seed, 0xA110C, tag]) % span
    }

    /// Lifetime draw for `key`, in emitted operations from now.
    fn lifetime_for(&self, key: u64) -> u64 {
        let u = unit_from_hash(mix(&[self.cfg.seed, 0x11FE, key]));
        match self.cfg.lifetime {
            Lifetime::Uniform { min_ops, max_ops } => {
                let span = max_ops.saturating_sub(min_ops) + 1;
                min_ops + (u * span as f64) as u64
            }
            Lifetime::Exponential { mean_ops } => {
                // Inverse-CDF sample, clamped away from u = 1.
                let draw = -mean_ops * (1.0 - u.min(0.999_999)).ln();
                (draw.ceil() as u64).max(1)
            }
            Lifetime::Iteration { .. } => unreachable!("iteration mode frees by stack order"),
        }
    }

    fn alloc_op(&mut self, death: u64) -> ChurnOp {
        let key = self.next_key;
        self.next_key += 1;
        self.live.push((death, key));
        ChurnOp::Alloc {
            key,
            entries: self.entries_for(key),
        }
    }
}

impl Iterator for ChurnTrace {
    type Item = ChurnOp;

    fn next(&mut self) -> Option<ChurnOp> {
        self.clock += 1;
        let op = match self.cfg.lifetime {
            Lifetime::Iteration { layers } => {
                if self.draining {
                    // Backward pass: free the stacked activations in
                    // reverse (last-allocated, first-freed).
                    #[expect(
                        clippy::expect_used,
                        reason = "draining only starts with a non-empty backward stack"
                    )]
                    let key = self.backward.pop().expect("draining stack is non-empty");
                    if self.backward.is_empty() {
                        self.draining = false;
                    }
                    self.live.retain(|&(_, k)| k != key);
                    ChurnOp::Free { key }
                } else {
                    // Forward pass: allocate the next layer's activation;
                    // once every layer is live, the backward pass starts.
                    let op = self.alloc_op(u64::MAX);
                    if let ChurnOp::Alloc { key, .. } = op {
                        self.backward.push(key);
                    }
                    if self.backward.len() == layers {
                        self.draining = true;
                    }
                    op
                }
            }
            _ => {
                if self.live.len() < self.cfg.live_target {
                    let key = self.next_key;
                    let death = self.clock + self.lifetime_for(key);
                    self.alloc_op(death)
                } else {
                    // Steady state: retire the earliest-expiring region.
                    #[expect(
                        clippy::expect_used,
                        reason = "live_target > 0 guarantees a retirement candidate"
                    )]
                    let idx = self
                        .live
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(death, key))| (death, key))
                        .map(|(i, _)| i)
                        .expect("live target is positive");
                    let (_, key) = self.live.swap_remove(idx);
                    ChurnOp::Free { key }
                }
            }
        };
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn uniform_cfg() -> ChurnConfig {
        ChurnConfig {
            live_target: 8,
            min_entries: 4,
            max_entries: 64,
            lifetime: Lifetime::Uniform {
                min_ops: 4,
                max_ops: 32,
            },
            seed: 7,
        }
    }

    /// Replays a trace, checking the alloc/free protocol (no double
    /// allocs, frees only of live keys) and returning the live-count
    /// history.
    fn replay(cfg: ChurnConfig, ops: usize) -> Vec<usize> {
        let mut live: HashSet<u64> = HashSet::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut history = Vec::with_capacity(ops);
        for op in ChurnTrace::new(cfg).take(ops) {
            match op {
                ChurnOp::Alloc { key, entries } => {
                    assert!(seen.insert(key), "key {key} allocated twice");
                    assert!(live.insert(key));
                    assert!(
                        (cfg.min_entries..=cfg.max_entries).contains(&entries),
                        "entries {entries} out of range"
                    );
                }
                ChurnOp::Free { key } => {
                    assert!(live.remove(&key), "free of dead key {key}");
                }
            }
            history.push(live.len());
        }
        history
    }

    #[test]
    fn uniform_trace_holds_the_live_target() {
        let cfg = uniform_cfg();
        let history = replay(cfg, 2000);
        // After warm-up the live count stays pinned at target or one
        // below (free and replace alternate).
        for (i, &n) in history.iter().enumerate().skip(64) {
            assert!(
                n == cfg.live_target || n == cfg.live_target - 1,
                "op {i}: live {n} escaped steady state"
            );
        }
    }

    #[test]
    fn exponential_trace_is_valid_and_steady() {
        let cfg = ChurnConfig {
            lifetime: Lifetime::Exponential { mean_ops: 24.0 },
            ..uniform_cfg()
        };
        let history = replay(cfg, 2000);
        assert_eq!(history[1999], cfg.live_target);
    }

    #[test]
    fn traces_are_deterministic_and_seed_sensitive() {
        let a: Vec<ChurnOp> = ChurnTrace::new(uniform_cfg()).take(500).collect();
        let b: Vec<ChurnOp> = ChurnTrace::new(uniform_cfg()).take(500).collect();
        assert_eq!(a, b, "same seed must replay identically");
        let other = ChurnConfig {
            seed: 8,
            ..uniform_cfg()
        };
        let c: Vec<ChurnOp> = ChurnTrace::new(other).take(500).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn iteration_mode_frees_in_reverse_layer_order() {
        let cfg = ChurnConfig {
            lifetime: Lifetime::Iteration { layers: 5 },
            ..uniform_cfg()
        };
        let ops: Vec<ChurnOp> = ChurnTrace::new(cfg).take(30).collect();
        // Three full iterations of 5 allocs + 5 frees.
        for iter in 0..3 {
            let base = iter * 10;
            let keys: Vec<u64> = (0..5).map(|l| (iter * 5 + l) as u64).collect();
            for l in 0..5 {
                assert!(
                    matches!(ops[base + l], ChurnOp::Alloc { key, .. } if key == keys[l]),
                    "iteration {iter}, forward layer {l}: {:?}",
                    ops[base + l]
                );
            }
            for (i, &key) in keys.iter().rev().enumerate() {
                assert_eq!(
                    ops[base + 5 + i],
                    ChurnOp::Free { key },
                    "iteration {iter}: backward pass must free LIFO"
                );
            }
        }
        // Per-layer sizes repeat across iterations (stable activations).
        let size_of = |op: &ChurnOp| match *op {
            ChurnOp::Alloc { entries, .. } => entries,
            _ => unreachable!(),
        };
        for l in 0..5 {
            assert_eq!(size_of(&ops[l]), size_of(&ops[10 + l]), "layer {l} size");
        }
    }

    #[test]
    fn live_count_tracks_the_stream() {
        let mut trace = ChurnTrace::new(uniform_cfg());
        assert_eq!(trace.live_count(), 0);
        for _ in 0..100 {
            trace.next();
        }
        assert!(trace.live_count() <= trace.config().live_target);
        assert!(trace.live_count() >= trace.config().live_target - 1);
    }

    #[test]
    #[should_panic(expected = "entry range")]
    fn degenerate_entry_range_panics() {
        ChurnTrace::new(ChurnConfig {
            min_entries: 10,
            max_entries: 5,
            ..uniform_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "positive live target")]
    fn zero_layers_panics() {
        ChurnTrace::new(ChurnConfig {
            lifetime: Lifetime::Iteration { layers: 0 },
            ..uniform_cfg()
        });
    }
}
