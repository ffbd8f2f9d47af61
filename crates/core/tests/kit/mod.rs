//! Helpers shared by the churn and retarget equivalence suites.

use bpc::ENTRY_BYTES;
use buddy_core::{AllocId, BuddyDevice, DeviceConfig, DeviceError, EntryState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub type Entry = [u8; ENTRY_BYTES];

/// Small device: the suites build several devices per case, and a compact
/// arena keeps the cross products fast.
pub const CONFIG: DeviceConfig = DeviceConfig {
    device_capacity: 64 << 10,
    carve_out_factor: 3,
};

/// Single-entry read as a batch of one.
pub fn read1(dev: &mut BuddyDevice, id: AllocId, index: u64) -> Result<Entry, DeviceError> {
    let mut out = [[0u8; ENTRY_BYTES]];
    dev.read_entries(id, index, &mut out)?;
    Ok(out[0])
}

/// Single-entry write as a batch of one, returning the recorded state.
pub fn write1(
    dev: &mut BuddyDevice,
    id: AllocId,
    index: u64,
    entry: &Entry,
) -> Result<EntryState, DeviceError> {
    dev.write_entries(id, index, std::slice::from_ref(entry))?;
    dev.handle().entry_state(id, index)
}

/// Entries spanning the compressibility spectrum (zero / constant /
/// small-noise / random), as in the `no_movement` suite.
pub fn entry_of_kind(kind: u8, seed: u64) -> Entry {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut entry = [0u8; ENTRY_BYTES];
    match kind % 4 {
        0 => {}
        1 => {
            let w: u32 = rng.gen();
            for c in entry.chunks_exact_mut(4) {
                c.copy_from_slice(&w.to_le_bytes());
            }
        }
        2 => {
            let base: u32 = rng.gen_range(1 << 28..1 << 29);
            for c in entry.chunks_exact_mut(4) {
                let v = base + rng.gen_range(0u32..1 << 10);
                c.copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => rng.fill(&mut entry[..]),
    }
    entry
}

/// Occupancy fingerprint compared across devices.
pub fn occupancy(dev: &BuddyDevice) -> (u64, u64, u64, String) {
    (
        dev.device_used(),
        dev.buddy_used(),
        dev.logical_bytes(),
        format!("{:.12}", dev.effective_ratio()),
    )
}
