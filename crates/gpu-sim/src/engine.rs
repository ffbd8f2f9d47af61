//! The dependency-driven simulation engine.
//!
//! The paper's proprietary simulator is dependency-driven (§4.1): each SM is
//! an in-order core whose warps expose a bounded number of outstanding
//! memory requests. We model the same structure as a set of *lanes* — each
//! lane is one dependent request stream (≈ warp × memory-level-parallelism
//! slot): a lane issues a request, waits for its completion, spends the
//! workload's compute cycles, then issues the next. Shared resources (HBM2
//! channels, the interconnect, L2, metadata caches) are modeled as
//! bandwidth-latency queues, which is where all the contention effects of
//! Figure 11 come from:
//!
//! * bandwidth-only compression transfers fewer sectors per block but
//!   forces whole-block fills (over-fetch on random single-sector access),
//! * (de)compression adds pipeline latency on the critical path,
//! * Buddy mode adds metadata-cache misses (extra DRAM traffic) and
//!   serialized buddy-memory fetches over the interconnect.
//!
//! The event loop always advances the lane with the earliest pending
//! request, ties to the lower lane. Each lane has exactly one pending
//! event, so `(time, lane)` keys are unique and any correct priority queue
//! yields the same order; the engine keeps them in an `EventTree`, a
//! tournament tree over lanes whose update is one branch-free
//! leaf-to-root pass. Channels, slices and cache sets are picked by
//! masking a hash, which needs power-of-two counts ([`Engine::new`]).

use crate::cache::{Lookup, SectoredCache};
use crate::config::GpuConfig;
use crate::layout::MemoryLayout;
use crate::stats::SimStats;
use crate::{metadata_slice, splitmix64, METADATA_HASH_TAG};

/// One memory access fed to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// 128 B entry index.
    pub entry: u64,
    /// Sectors requested (bits 0–3).
    pub sector_mask: u8,
    /// Store (true) or load (false).
    pub write: bool,
    /// Natively targets host memory over the interconnect (e.g. FF_HPGMG's
    /// synchronous copies) — bypasses device DRAM in every mode.
    pub to_host: bool,
}

/// Memory-system organization being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMode {
    /// Ideal large-capacity GPU: no compression anywhere (the Figure 11
    /// baseline).
    Uncompressed,
    /// Compression between L2 and DRAM for bandwidth only — capacity is
    /// unchanged and no metadata or buddy accesses are needed (§4.1).
    BandwidthCompressed,
    /// Full Buddy Compression: metadata cache + buddy-memory overflow.
    Buddy,
}

/// Modeling fidelity (Figure 10's fast-vs-detailed comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Block-granular resource reservations (the production model).
    Fast,
    /// Sector-granular reservations with per-bank timing — slower but
    /// finer; stands in for the cycle-accurate reference simulator.
    Detailed,
}

/// Execution-side configuration derived from the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Parallel dependent request streams
    /// (≈ SMs × active warps × per-warp MLP).
    pub lanes: u32,
    /// Compute cycles between dependent requests in one lane.
    pub compute_cycles: f64,
    /// Total accesses to simulate.
    pub accesses: u64,
}

impl ExecConfig {
    /// Derives lanes from the Table 2 machine and a workload's MLP.
    ///
    /// `active_warps` models occupancy (warps concurrently issuing memory
    /// operations per SM); the paper's GTO scheduler keeps a fraction of
    /// the 64 resident warps active in the memory system.
    pub fn from_profile(cfg: &GpuConfig, mlp: u8, compute_cycles: f64, accesses: u64) -> Self {
        let active_warps = 8;
        Self {
            lanes: cfg.sms * active_warps * mlp.max(1) as u32,
            compute_cycles,
            accesses,
        }
    }
}

/// The engine's event queue: an indexed tournament (winner) tree over
/// lanes, holding each lane's one pending event.
///
/// `nodes[leaves + lane]` is lane `lane`'s key and every internal node
/// `n` holds the smaller of its children `2n` and `2n + 1`, so `nodes[1]`
/// is the next event. A key packs the time, mapped to an integer in
/// `f64::total_cmp` order, above the lane in the low 32 bits, so keys
/// compare as `(time, lane)` pairs and carry their lane with them.
/// Rescheduling a lane rewrites its leaf and replays the one leaf-to-root
/// path: one sibling load and one compare per level. A retired lane, and
/// every padding leaf past `lanes`, holds [`RETIRED`](Self::RETIRED).
#[derive(Debug, Clone)]
struct EventTree {
    /// `2 × leaves` keys; index 0 is unused.
    nodes: Vec<u128>,
    /// `lanes.next_power_of_two()`: the index of lane 0's leaf.
    leaves: usize,
}

impl EventTree {
    /// The key of a lane with no pending event; above every real key.
    const RETIRED: u128 = u128::MAX;

    /// A tree whose lane `l` first issues at `start(l)`.
    fn new(lanes: u32, start: impl Fn(u32) -> f64) -> Self {
        let leaves = (lanes as usize).next_power_of_two();
        let mut nodes = vec![Self::RETIRED; 2 * leaves];
        for lane in 0..lanes {
            nodes[leaves + lane as usize] = Self::key(start(lane), lane);
        }
        for node in (1..leaves).rev() {
            nodes[node] = nodes[2 * node].min(nodes[2 * node + 1]);
        }
        Self { nodes, leaves }
    }

    /// `time`'s bits with every bit flipped if it is negative and only
    /// the sign bit flipped otherwise: unsigned order becomes
    /// `f64::total_cmp` order. A real key never reaches `RETIRED`, since
    /// no lane is `u32::MAX`.
    fn key(time: f64, lane: u32) -> u128 {
        let bits = time.to_bits();
        let ordered = bits ^ ((bits as i64 >> 63) as u64 | 1 << 63);
        (ordered as u128) << 32 | lane as u128
    }

    /// The earliest pending `(time, lane)`, ties to the lower lane; `None`
    /// once every lane has retired.
    fn peek(&self) -> Option<(f64, u32)> {
        let root = self.nodes[1];
        (root != Self::RETIRED).then(|| {
            let ordered = (root >> 32) as u64;
            let bits = ordered ^ (!((ordered as i64 >> 63) as u64) | 1 << 63);
            (f64::from_bits(bits), root as u32)
        })
    }

    /// Sets `lane`'s pending event to `time`.
    fn schedule(&mut self, lane: u32, time: f64) {
        self.replay(lane, Self::key(time, lane));
    }

    /// Removes `lane` from the tournament for good.
    fn retire(&mut self, lane: u32) {
        self.replay(lane, Self::RETIRED);
    }

    fn replay(&mut self, lane: u32, key: u128) {
        let mut node = self.leaves + lane as usize;
        self.nodes[node] = key;
        let mut winner = key;
        while node > 1 {
            // Pick the winner by indexing, not by `min`: the outcome is a
            // coin flip, and a compiled branch would mispredict half the
            // time.
            let sibling_wins = (self.nodes[node ^ 1] < winner) as usize;
            winner = self.nodes[node ^ sibling_wins];
            node >>= 1;
            self.nodes[node] = winner;
        }
    }
}

/// Bandwidth-latency queue for one resource (DRAM channel or link
/// direction): requests serialize; each occupies the resource for its
/// transfer time.
#[derive(Debug, Clone, Default)]
struct Queue {
    free_at: f64,
    busy: f64,
}

impl Queue {
    /// Reserves the resource for `cycles` starting no earlier than `now`;
    /// returns the completion time of the transfer.
    fn reserve(&mut self, now: f64, cycles: f64) -> f64 {
        let start = self.free_at.max(now);
        self.free_at = start + cycles;
        self.busy += cycles;
        self.free_at
    }
}

/// Detailed-mode DRAM bank state.
#[derive(Debug, Clone, Default)]
struct Bank {
    free_at: f64,
    open_row: u64,
}

/// The simulator.
pub struct Engine<'a> {
    cfg: GpuConfig,
    exec: ExecConfig,
    mode: MemoryMode,
    fidelity: Fidelity,
    layout: &'a dyn MemoryLayout,
    l2: SectoredCache,
    md_caches: Vec<SectoredCache>,
    channels: Vec<Queue>,
    /// `dram_channels - 1`: picks an entry's channel from its hash.
    channel_mask: u64,
    banks: Vec<Vec<Bank>>,
    link_in: Queue,
    link_out: Queue,
    stats: SimStats,
}

const BANKS_PER_CHANNEL: usize = 16;
const ROW_ENTRIES: u64 = 16; // entries sharing a DRAM row (2 KB rows)
const BANK_ROW_HIT_CYCLES: f64 = 4.0;
const BANK_ROW_MISS_CYCLES: f64 = 14.0;

impl<'a> Engine<'a> {
    /// Builds an engine over the given machine, mode and layout.
    ///
    /// Entries and metadata lines are spread over channels, slices and
    /// cache sets by masking a hash, so every one of those counts must be
    /// a power of two (the Table 2 machine's 32 channels, 32 slices, 2048
    /// L2 sets and 32 metadata sets per slice are).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.dram_channels` or `cfg.l2_slices` is not a power of
    /// two, or if the L2 or a metadata cache slice has a set count that is
    /// not (see [`SectoredCache::new`]).
    pub fn new(
        cfg: GpuConfig,
        exec: ExecConfig,
        mode: MemoryMode,
        fidelity: Fidelity,
        layout: &'a dyn MemoryLayout,
    ) -> Self {
        let md_lines = cfg.metadata_cache_lines_per_slice();
        let md_ways = (cfg.metadata_cache_ways as usize).min(md_lines.max(1));
        assert!(
            cfg.dram_channels.is_power_of_two() && cfg.l2_slices.is_power_of_two(),
            "DRAM channels ({}) and L2 slices ({}) must be powers of two",
            cfg.dram_channels,
            cfg.l2_slices
        );
        Self {
            cfg,
            exec,
            mode,
            fidelity,
            layout,
            l2: SectoredCache::new(cfg.l2_lines(), cfg.l2_ways as usize),
            md_caches: (0..cfg.l2_slices)
                .map(|_| SectoredCache::new(md_lines.max(md_ways), md_ways))
                .collect(),
            channels: vec![Queue::default(); cfg.dram_channels as usize],
            channel_mask: cfg.dram_channels as u64 - 1,
            banks: vec![vec![Bank::default(); BANKS_PER_CHANNEL]; cfg.dram_channels as usize],
            link_in: Queue::default(),
            link_out: Queue::default(),
            stats: SimStats::default(),
        }
    }

    fn channel_of(&self, entry: u64) -> usize {
        (splitmix64(entry) & self.channel_mask) as usize
    }

    /// Reserves `sectors` sectors on the DRAM channel serving `entry`.
    fn dram_fetch(&mut self, now: f64, entry: u64, sectors: u8) -> f64 {
        if sectors == 0 {
            return now;
        }
        self.stats.dram_sectors += sectors as u64;
        let ch = self.channel_of(entry);
        let per_sector = self.cfg.dram_sector_cycles();
        match self.fidelity {
            Fidelity::Fast => {
                let exit = self.channels[ch].reserve(now, sectors as f64 * per_sector);
                exit + self.cfg.dram_latency_cycles
            }
            Fidelity::Detailed => {
                // Sector-granular: each sector pays channel burst time plus
                // bank row timing; completion is the last sector's.
                let row = entry / ROW_ENTRIES;
                let mut last = now;
                for s in 0..sectors {
                    let bank_idx =
                        (splitmix64(entry ^ (s as u64) << 17) % BANKS_PER_CHANNEL as u64) as usize;
                    let channel_exit = self.channels[ch].reserve(now, per_sector);
                    let bank = &mut self.banks[ch][bank_idx];
                    let row_cycles = if bank.open_row == row {
                        BANK_ROW_HIT_CYCLES
                    } else {
                        bank.open_row = row;
                        BANK_ROW_MISS_CYCLES
                    };
                    let bank_start = bank.free_at.max(channel_exit);
                    bank.free_at = bank_start + row_cycles;
                    last = last.max(bank.free_at);
                }
                last + self.cfg.dram_latency_cycles
            }
        }
    }

    /// Reserves write bandwidth without latency tracking (posted writes).
    fn dram_writeback(&mut self, now: f64, entry: u64, sectors: u8) {
        if sectors == 0 {
            return;
        }
        self.stats.dram_sectors += sectors as u64;
        let ch = self.channel_of(entry);
        self.channels[ch].reserve(now, sectors as f64 * self.cfg.dram_sector_cycles());
    }

    /// Fetches `sectors` sectors over the interconnect (buddy/host reads).
    ///
    /// Bandwidth is reserved at `now` (the queue is FCFS without backfill,
    /// so reserving at future timestamps would block earlier arrivals);
    /// `ready_after` adds any serialization latency (e.g. waiting for
    /// metadata) without holding the link.
    fn link_fetch(&mut self, now: f64, ready_after: f64, sectors: u8) -> f64 {
        if sectors == 0 {
            return ready_after;
        }
        self.stats.link_sectors_in += sectors as u64;
        let exit = self
            .link_in
            .reserve(now, sectors as f64 * self.cfg.link_sector_cycles());
        exit.max(ready_after) + self.cfg.link_latency_cycles
    }

    /// Sends `sectors` sectors over the interconnect (buddy/host writes).
    fn link_send(&mut self, now: f64, sectors: u8) {
        if sectors == 0 {
            return;
        }
        self.stats.link_sectors_out += sectors as u64;
        self.link_out
            .reserve(now, sectors as f64 * self.cfg.link_sector_cycles());
    }

    /// Metadata lookup for `entry`; returns the time the metadata is known.
    fn metadata_lookup(&mut self, now: f64, entry: u64) -> f64 {
        let md_line = entry / buddy_core::ENTRIES_PER_METADATA_LINE;
        let slice = metadata_slice(md_line, self.cfg.l2_slices);
        match self.md_caches[slice].lookup(md_line, 0b1111) {
            Lookup::Hit => {
                self.stats.md_hits += 1;
                now
            }
            _ => {
                self.stats.md_misses += 1;
                self.md_caches[slice].fill(md_line, 0b1111, false);
                // One 32 B metadata sector from DRAM, in parallel with data.
                self.dram_fetch(now, md_line ^ METADATA_HASH_TAG, 1)
            }
        }
    }

    /// Handles the eviction of a dirty L2 line: write back the victim in
    /// its compressed (or raw) form.
    fn writeback_victim(&mut self, now: f64, tag: u64, dirty_mask: u8) {
        match self.mode {
            MemoryMode::Uncompressed => {
                self.dram_writeback(now, tag, dirty_mask.count_ones() as u8);
            }
            MemoryMode::BandwidthCompressed => {
                let sectors = self.layout.compressed_sectors(tag).max(1);
                self.dram_writeback(now, tag, sectors);
            }
            MemoryMode::Buddy => {
                let p = self.layout.placement(tag);
                self.dram_writeback(now, tag, p.device_sectors);
                self.link_send(now, p.buddy_sectors);
            }
        }
    }

    /// Full-entry fetch in a compressed mode; returns data-ready time.
    fn compressed_fill(&mut self, now: f64, entry: u64) -> f64 {
        let (device_sectors, buddy_sectors, md_done) = match self.mode {
            MemoryMode::BandwidthCompressed => {
                // Without metadata there is no way to know a block is zero
                // before reading it: at least one sector is always fetched.
                (self.layout.compressed_sectors(entry).max(1), 0, now)
            }
            MemoryMode::Buddy => {
                let p = self.layout.placement(entry);
                let md_done = self.metadata_lookup(now, entry);
                if p.buddy_sectors > 0 {
                    self.stats.buddy_accesses += 1;
                }
                (p.device_sectors, p.buddy_sectors, md_done)
            }
            MemoryMode::Uncompressed => unreachable!("compressed_fill in uncompressed mode"),
        };
        let data_done = self.dram_fetch(now, entry, device_sectors);
        // §3.4: buddy memory is NOT accessed in parallel with metadata —
        // the buddy data is not ready before the metadata is known.
        let buddy_done = if buddy_sectors > 0 {
            self.link_fetch(now, md_done, buddy_sectors)
        } else {
            md_done
        };
        let done = data_done.max(buddy_done);
        if device_sectors + buddy_sectors > 0 {
            done + self.cfg.decompression_latency_cycles
        } else {
            done // tracked-zero entry: nothing to decompress
        }
    }

    /// Executes one request at time `now`; returns its completion time.
    fn execute(&mut self, now: f64, req: MemRequest) -> f64 {
        self.stats.accesses += 1;
        if req.write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        // Native host traffic bypasses device memory in every mode.
        if req.to_host {
            self.stats.host_native_accesses += 1;
            let sectors = req.sector_mask.count_ones() as u8;
            return if req.write {
                self.link_send(now, sectors);
                now + 1.0
            } else {
                self.link_fetch(now, now, sectors)
            };
        }

        let lookup = self.l2.lookup(req.entry, req.sector_mask);

        if req.write {
            match lookup {
                Lookup::Hit => {
                    self.stats.l2_hits += 1;
                    self.l2.mark_dirty(req.entry, req.sector_mask);
                    now + 1.0
                }
                Lookup::Partial { .. } | Lookup::Miss => {
                    self.stats.l2_misses += 1;
                    let full_line = req.sector_mask == 0b1111;
                    let ready = match self.mode {
                        // Uncompressed (and any full-line write): write-
                        // validate, no fetch needed.
                        MemoryMode::Uncompressed => now,
                        _ if full_line => now,
                        // Partial write under compression: the block must be
                        // recompressed as a whole → read-modify-write fetch.
                        _ => self.compressed_fill(now, req.entry),
                    };
                    let fill_mask = if self.mode == MemoryMode::Uncompressed {
                        req.sector_mask
                    } else {
                        0b1111
                    };
                    if let Some(ev) = self.l2.fill(req.entry, fill_mask, false) {
                        self.writeback_victim(now, ev.tag, ev.dirty_mask);
                    }
                    self.l2.mark_dirty(req.entry, req.sector_mask);
                    ready + 1.0
                }
            }
        } else {
            match lookup {
                Lookup::Hit => {
                    self.stats.l2_hits += 1;
                    now + self.cfg.l2_hit_latency_cycles
                }
                Lookup::Partial { missing } => {
                    self.stats.l2_misses += 1;
                    let done = match self.mode {
                        MemoryMode::Uncompressed => {
                            self.dram_fetch(now, req.entry, missing.count_ones() as u8)
                        }
                        _ => self.compressed_fill(now, req.entry),
                    };
                    let fill_mask = if self.mode == MemoryMode::Uncompressed {
                        missing
                    } else {
                        0b1111
                    };
                    if let Some(ev) = self.l2.fill(req.entry, fill_mask, false) {
                        self.writeback_victim(now, ev.tag, ev.dirty_mask);
                    }
                    done + self.cfg.l2_hit_latency_cycles
                }
                Lookup::Miss => {
                    self.stats.l2_misses += 1;
                    let done = match self.mode {
                        MemoryMode::Uncompressed => {
                            self.dram_fetch(now, req.entry, req.sector_mask.count_ones() as u8)
                        }
                        _ => self.compressed_fill(now, req.entry),
                    };
                    let fill_mask = if self.mode == MemoryMode::Uncompressed {
                        req.sector_mask
                    } else {
                        0b1111
                    };
                    if let Some(ev) = self.l2.fill(req.entry, fill_mask, false) {
                        self.writeback_victim(now, ev.tag, ev.dirty_mask);
                    }
                    done + self.cfg.l2_hit_latency_cycles
                }
            }
        }
    }

    /// Runs the engine over `trace` and returns the statistics.
    pub fn run(mut self, trace: &mut dyn Iterator<Item = MemRequest>) -> SimStats {
        let mut trace = trace.take(self.exec.accesses as usize);
        // Stagger lane start times so the cold machine fills smoothly.
        let mut events = EventTree::new(self.exec.lanes, |lane| lane as f64 * 0.25);
        let mut last_completion = 0.0f64;
        while let Some((now, lane)) = events.peek() {
            match trace.next() {
                Some(req) => {
                    let done = self.execute(now, req);
                    last_completion = last_completion.max(done);
                    events.schedule(lane, done + self.exec.compute_cycles);
                }
                None => events.retire(lane),
            }
        }
        self.stats.cycles = last_completion;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EntryPlacement, UniformLayout};

    fn streaming_trace(entries: u64, mask: u8) -> impl Iterator<Item = MemRequest> {
        (0..).map(move |i| MemRequest {
            entry: i % entries,
            sector_mask: mask,
            write: false,
            to_host: false,
        })
    }

    fn run(
        mode: MemoryMode,
        layout: &UniformLayout,
        trace: &mut dyn Iterator<Item = MemRequest>,
        accesses: u64,
    ) -> SimStats {
        let cfg = GpuConfig::p100();
        let exec = ExecConfig {
            lanes: 3584,
            compute_cycles: 20.0,
            accesses,
        };
        Engine::new(cfg, exec, mode, Fidelity::Fast, layout).run(trace)
    }

    #[test]
    fn small_working_set_hits_l2() {
        // 1 MB footprint < 4 MB L2: after the cold pass everything hits.
        let layout = UniformLayout {
            entries: 8192,
            placement: EntryPlacement::device(4),
        };
        let stats = run(
            MemoryMode::Uncompressed,
            &layout,
            &mut streaming_trace(8192, 0b1111),
            80_000,
        );
        assert!(
            stats.l2_hit_rate() > 0.85,
            "hit rate {}",
            stats.l2_hit_rate()
        );
    }

    #[test]
    fn bandwidth_compression_speeds_up_streaming() {
        // Footprint 64 MB >> L2; coalesced streaming; compressed to 1 sector.
        let entries = 512 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(1),
        };
        let base = run(
            MemoryMode::Uncompressed,
            &layout,
            &mut streaming_trace(entries, 0b1111),
            150_000,
        );
        let comp = run(
            MemoryMode::BandwidthCompressed,
            &layout,
            &mut streaming_trace(entries, 0b1111),
            150_000,
        );
        let speedup = comp.speedup_vs(&base);
        // The baseline is DRAM-bound (~5.4 accesses/cycle) while the
        // compressed run becomes latency-bound (~8/cycle): speedup ≈ 1.5.
        assert!(
            speedup > 1.3,
            "4:1 compression should speed up streaming: {speedup:.2}"
        );
        assert!(comp.dram_sectors < base.dram_sectors / 2);
    }

    #[test]
    fn bandwidth_compression_hurts_random_single_sector() {
        // Random single-sector reads over a huge footprint: compression
        // over-fetches whole blocks (4 sectors for incompressible data).
        let entries = 4 * 1024 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(4),
        };
        let mut rng_state = 1u64;
        let mut random_trace = std::iter::from_fn(move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            Some(MemRequest {
                entry: (rng_state >> 33) % entries,
                sector_mask: 1 << ((rng_state >> 13) % 4),
                write: false,
                to_host: false,
            })
        });
        let mut rng_state2 = 1u64;
        let mut random_trace2 = std::iter::from_fn(move || {
            rng_state2 = rng_state2.wrapping_mul(6364136223846793005).wrapping_add(1);
            Some(MemRequest {
                entry: (rng_state2 >> 33) % entries,
                sector_mask: 1 << ((rng_state2 >> 13) % 4),
                write: false,
                to_host: false,
            })
        });
        let base = run(
            MemoryMode::Uncompressed,
            &layout,
            &mut random_trace,
            100_000,
        );
        let comp = run(
            MemoryMode::BandwidthCompressed,
            &layout,
            &mut random_trace2,
            100_000,
        );
        let speedup = comp.speedup_vs(&base);
        assert!(
            speedup < 1.0,
            "over-fetch should slow random access: {speedup:.2}"
        );
        assert!(comp.dram_sectors > base.dram_sectors * 2);
    }

    #[test]
    fn engine_always_fills_before_marking_dirty() {
        // Regression for the fill-before-mark invariant pinned by
        // `SectoredCache::mark_dirty`'s debug assert: a write-heavy trace
        // mixing full-line, two-sector and single-sector stores (plus
        // interleaved reads) drives every L2 write path — hit, partial
        // hit and miss — in all three memory modes. If the engine ever
        // marked a not-yet-filled sector dirty, the assert would abort
        // this (debug-built) test; completing with plausible stats is the
        // pass condition.
        let entries = 4096u64;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement {
                device_sectors: 2,
                buddy_sectors: 2,
            },
        };
        for mode in [
            MemoryMode::Uncompressed,
            MemoryMode::BandwidthCompressed,
            MemoryMode::Buddy,
        ] {
            let mut state = 7u64;
            let mut trace = std::iter::from_fn(move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let masks = [0b1111u8, 0b0011, 0b0001, 0b1100];
                Some(MemRequest {
                    entry: (state >> 33) % entries,
                    sector_mask: masks[(state >> 13) as usize % masks.len()],
                    write: state >> 7 & 0b11 != 0, // 75% stores
                    to_host: false,
                })
            });
            let stats = run(mode, &layout, &mut trace, 40_000);
            assert_eq!(stats.accesses, 40_000, "{mode:?}: all requests executed");
            assert!(stats.dram_sectors > 0, "{mode:?}: writebacks reached DRAM");
        }
    }

    #[test]
    fn buddy_overflow_generates_link_traffic() {
        let entries = 1024 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement {
                device_sectors: 2,
                buddy_sectors: 2,
            },
        };
        let stats = run(
            MemoryMode::Buddy,
            &layout,
            &mut streaming_trace(entries, 0b1111),
            50_000,
        );
        assert!(stats.buddy_accesses > 0);
        assert!(stats.link_sectors_in > 0);
        assert!(
            stats.buddy_fraction() > 0.5,
            "every miss overflows: {}",
            stats.buddy_fraction()
        );
    }

    #[test]
    fn buddy_slower_than_bandwidth_only_when_overflowing() {
        let entries = 1024 * 1024;
        let overflowing = UniformLayout {
            entries,
            placement: EntryPlacement {
                device_sectors: 2,
                buddy_sectors: 2,
            },
        };
        let bw = run(
            MemoryMode::BandwidthCompressed,
            &overflowing,
            &mut streaming_trace(entries, 0b1111),
            60_000,
        );
        let buddy = run(
            MemoryMode::Buddy,
            &overflowing,
            &mut streaming_trace(entries, 0b1111),
            60_000,
        );
        assert!(
            buddy.speedup_vs(&bw) < 1.0,
            "buddy pays for link transfers: {:.3}",
            buddy.speedup_vs(&bw)
        );
    }

    #[test]
    fn metadata_cache_hits_on_streaming() {
        // Sequential access: one metadata line covers 64 entries → ~98% hits.
        let entries = 1024 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(2),
        };
        let stats = run(
            MemoryMode::Buddy,
            &layout,
            &mut streaming_trace(entries, 0b1111),
            60_000,
        );
        assert!(
            stats.md_hit_rate() > 0.9,
            "streaming md hit rate {}",
            stats.md_hit_rate()
        );
    }

    #[test]
    fn zero_entries_cost_no_dram_traffic() {
        let entries = 1024 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(0),
        };
        let stats = run(
            MemoryMode::Buddy,
            &layout,
            &mut streaming_trace(entries, 0b1111),
            30_000,
        );
        // Only metadata fetches hit DRAM.
        assert!(
            stats.dram_sectors < stats.accesses,
            "{} sectors",
            stats.dram_sectors
        );
    }

    #[test]
    fn host_native_traffic_uses_link_in_all_modes() {
        let entries = 1024u64;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(4),
        };
        let mut trace = (0..).map(|i| MemRequest {
            entry: i % entries,
            sector_mask: 0b1111,
            write: false,
            to_host: true,
        });
        let stats = run(MemoryMode::Uncompressed, &layout, &mut trace, 10_000);
        assert_eq!(stats.host_native_accesses, 10_000);
        assert_eq!(stats.link_sectors_in, 40_000);
        assert_eq!(stats.dram_sectors, 0);
    }

    #[test]
    fn detailed_mode_correlates_with_fast() {
        let entries = 512 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(2),
        };
        let cfg = GpuConfig::p100();
        let exec = ExecConfig {
            lanes: 512,
            compute_cycles: 20.0,
            accesses: 40_000,
        };
        let fast = Engine::new(cfg, exec, MemoryMode::Buddy, Fidelity::Fast, &layout)
            .run(&mut streaming_trace(entries, 0b1111));
        let detailed = Engine::new(cfg, exec, MemoryMode::Buddy, Fidelity::Detailed, &layout)
            .run(&mut streaming_trace(entries, 0b1111));
        let ratio = detailed.cycles / fast.cycles;
        assert!(
            (0.5..2.0).contains(&ratio),
            "fast and detailed should agree within 2x: {ratio:.2}"
        );
    }

    #[test]
    fn same_seed_runs_yield_equal_stats() {
        let entries = 64 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(2),
        };
        let cfg = GpuConfig::p100();
        let exec = ExecConfig {
            lanes: 512,
            compute_cycles: 20.0,
            accesses: 20_000,
        };
        let seeded_trace = |seed: u64| {
            (0..).map(move |i| {
                let h = splitmix64(seed ^ i);
                MemRequest {
                    entry: h % entries,
                    sector_mask: 0b0011,
                    write: h >> 60 == 0,
                    to_host: false,
                }
            })
        };
        for fidelity in [Fidelity::Fast, Fidelity::Detailed] {
            let run = || {
                Engine::new(cfg, exec, MemoryMode::Buddy, fidelity, &layout)
                    .run(&mut seeded_trace(0xB0DD7))
            };
            let first = run();
            assert_eq!(first, run(), "{fidelity:?}");
            assert!(first.cycles > 0.0 && first.writes > 0);
        }
    }

    /// Pops `tree` and a brute-force reference (a linear scan for the
    /// least `(time, lane)`) in lockstep: each step checks both agree on
    /// the next event, then reschedules that lane by `next(step)` (a zero
    /// delay makes equal times) or, on `None`, retires it. Returns the
    /// number of pops.
    fn assert_pops_like_reference(
        lanes: u32,
        start: impl Fn(u32) -> f64,
        mut next: impl FnMut(u64) -> Option<f64>,
    ) -> u64 {
        let mut tree = EventTree::new(lanes, &start);
        let mut reference: Vec<(f64, u32)> = (0..lanes).map(|l| (start(l), l)).collect();
        let mut steps = 0;
        loop {
            let first = (0..reference.len()).min_by(|&a, &b| {
                let (a, b) = (reference[a], reference[b]);
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            });
            assert_eq!(tree.peek(), first.map(|i| reference[i]), "step {steps}");
            let Some(i) = first else {
                return steps;
            };
            let (now, lane) = reference[i];
            match next(steps) {
                Some(delay) => {
                    tree.schedule(lane, now + delay);
                    reference[i].0 = now + delay;
                }
                None => {
                    tree.retire(lane);
                    reference.swap_remove(i);
                }
            }
            steps += 1;
        }
    }

    #[test]
    fn event_tree_pops_in_time_then_lane_order() {
        for lanes in [1, 2, 3, 5, 64, 2688] {
            // Starts span negative times and both zeros (`total_cmp` puts
            // -0.0 first); whole-cycle delays make equal times common; one
            // step in 8 retires its lane, so the tree drains.
            let pops = assert_pops_like_reference(
                lanes,
                |l| [-2.5, -0.0, 0.0, 1.0, 1.0, 3.0, f64::MIN_POSITIVE][l as usize % 7],
                |i| {
                    let h = splitmix64(i ^ lanes as u64);
                    (h % 8 != 0).then_some((h >> 8) as f64 % 4.0)
                },
            );
            assert!(pops > lanes as u64, "{lanes} lanes: only {pops} pops");
        }
    }

    #[test]
    fn event_tree_breaks_ties_toward_the_lower_lane() {
        let mut tree = EventTree::new(4, |_| 1.0);
        for lane in 0..4 {
            assert_eq!(tree.peek(), Some((1.0, lane)));
            tree.schedule(lane, 2.0);
        }
        assert_eq!(tree.peek(), Some((2.0, 0)));
    }

    #[test]
    fn event_tree_without_lanes_is_empty() {
        assert_eq!(EventTree::new(0, |_| 0.0).peek(), None);
        assert_eq!(assert_pops_like_reference(0, |_| 0.0, |_| Some(1.0)), 0);
    }

    #[test]
    fn event_tree_retires_lanes_mid_run() {
        // Lane 1 retires while lanes 0 and 2 keep issuing; a retired lane
        // never comes back, and the tree empties once all three retire.
        let mut tree = EventTree::new(3, |l| l as f64);
        assert_eq!(tree.peek(), Some((0.0, 0)));
        tree.schedule(0, 5.0);
        assert_eq!(tree.peek(), Some((1.0, 1)));
        tree.retire(1);
        assert_eq!(tree.peek(), Some((2.0, 2)));
        tree.schedule(2, 3.0);
        assert_eq!(tree.peek(), Some((3.0, 2)));
        tree.retire(2);
        assert_eq!(tree.peek(), Some((5.0, 0)));
        tree.retire(0);
        assert_eq!(tree.peek(), None);
        // One lane alone: its leaf is the root.
        let steps = assert_pops_like_reference(1, |_| 0.0, |i| (i < 10).then_some(1.0));
        assert_eq!(steps, 11);
    }

    #[test]
    #[should_panic(expected = "must be powers of two")]
    fn non_power_of_two_channel_count_panics() {
        let cfg = GpuConfig {
            dram_channels: 24,
            ..GpuConfig::p100()
        };
        let exec = ExecConfig {
            lanes: 1,
            compute_cycles: 0.0,
            accesses: 0,
        };
        let layout = UniformLayout {
            entries: 1,
            placement: EntryPlacement::device(4),
        };
        Engine::new(cfg, exec, MemoryMode::Uncompressed, Fidelity::Fast, &layout);
    }

    #[test]
    fn writes_generate_writeback_traffic() {
        let entries = 1024 * 1024; // footprint >> L2 so dirty lines evict
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement::device(2),
        };
        let mut trace = (0..).map(move |i| MemRequest {
            entry: i % entries,
            sector_mask: 0b1111,
            write: true,
            to_host: false,
        });
        let stats = run(MemoryMode::Buddy, &layout, &mut trace, 120_000);
        assert!(stats.writes == 120_000);
        assert!(
            stats.dram_sectors > 0,
            "evicted dirty lines must write back"
        );
    }

    #[test]
    fn lower_link_bandwidth_slows_buddy_workloads() {
        let entries = 1024 * 1024;
        let layout = UniformLayout {
            entries,
            placement: EntryPlacement {
                device_sectors: 2,
                buddy_sectors: 2,
            },
        };
        let exec = ExecConfig {
            lanes: 3584,
            compute_cycles: 20.0,
            accesses: 60_000,
        };
        let fast_link = Engine::new(
            GpuConfig::p100().with_link_bandwidth(150.0),
            exec,
            MemoryMode::Buddy,
            Fidelity::Fast,
            &layout,
        )
        .run(&mut streaming_trace(entries, 0b1111));
        let slow_link = Engine::new(
            GpuConfig::p100().with_link_bandwidth(50.0),
            exec,
            MemoryMode::Buddy,
            Fidelity::Fast,
            &layout,
        )
        .run(&mut streaming_trace(entries, 0b1111));
        assert!(
            slow_link.speedup_vs(&fast_link) < 0.95,
            "50 GB/s must be slower than 150 GB/s: {:.3}",
            slow_link.speedup_vs(&fast_link)
        );
    }
}
