//! Shared metadata edge units under concurrency.
//!
//! The metadata plane packs sixteen 4-bit entry states into one 64-bit
//! storage unit and writes it a range at a time: units wholly inside a
//! range take one plain store, the at most two edge units one masked XOR,
//! or nothing when the owner's nibbles do not change
//! (`core::shared::AtomicNibbles`). Entry `i` of an allocation owns
//! the nibble at `device offset / 8 + i`, so one unit covers 128 device
//! bytes and neighbouring allocations — written concurrently under
//! *different* slot locks — meet inside a unit wherever their device
//! reservations meet inside such a span: `ZeroPage16` neighbours whose
//! entry counts are not multiples of sixteen, and any allocation of fewer
//! than 128 device bytes. This suite drives both: three reservations
//! packed into the device's first two units, two of them written through
//! lock-free handles while the third is allocated (cleared), written and
//! freed in a loop. Every nibble must end as its own allocation's last
//! write; a range primitive that stored an edge unit whole would lose a
//! neighbour's update here (the distilled protocol and that mutation are
//! `buddy_check::models::edge_unit`).

use bpc::ENTRY_BYTES;
use buddy_core::{AllocId, BuddyDevice, DeviceConfig, DeviceHandle, EntryState, TargetRatio};
use std::sync::Barrier;

type Entry = [u8; ENTRY_BYTES];

fn entry_of_words(mut f: impl FnMut(usize) -> u32) -> Entry {
    let mut e = [0u8; ENTRY_BYTES];
    for (i, c) in e.chunks_exact_mut(4).enumerate() {
        c.copy_from_slice(&f(i).to_le_bytes());
    }
    e
}

fn noisy(seed: u64) -> Entry {
    let mut x = seed | 1;
    entry_of_words(|_| {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        (x >> 32) as u32
    })
}

/// What an allocation's writer stores: zero, a constant word and noise.
/// The two non-zero states differ per allocation kind — `Compressed {1}` /
/// `Compressed {4}` under `R4`, `ZeroPageFit` / `ZeroPageOverflow` under
/// `ZeroPage16` — so a nibble that picked up a neighbour's state, or lost
/// its own to a neighbour's store, is visible. Zero and the constant skip
/// the codec's slow path, so most of a write is its metadata update.
type Palette = [(Entry, EntryState); 3];

fn palette(target: TargetRatio) -> Palette {
    let zero = ([0u8; ENTRY_BYTES], EntryState::Zero);
    let constant = entry_of_words(|_| 0xABCD_1234);
    let noise = noisy(0xB0DD7);
    match target {
        TargetRatio::ZeroPage16 => [
            zero,
            (constant, EntryState::ZeroPageFit),
            (noise, EntryState::ZeroPageOverflow),
        ],
        _ => [
            zero,
            (constant, EntryState::Compressed { sectors: 1 }),
            (noise, EntryState::Compressed { sectors: 4 }),
        ],
    }
}

/// Writes seeded runs of `palette` entries over the allocation, checking
/// after every write that each of the allocation's states still is what
/// this — its only — writer last stored, so a lost update is caught when
/// it happens rather than only if it is the final one. Every other round
/// also rewrites the whole allocation with exactly what it holds: every
/// state stays the same, so both edge units take the no-RMW skip path
/// while the neighbours keep writing theirs. Returns, per entry, the
/// palette index last written (`None`: never).
fn hammer(
    handle: &DeviceHandle,
    id: AllocId,
    entries: u64,
    palette: &Palette,
    rounds: u64,
    mut seed: u64,
) -> Vec<Option<usize>> {
    let mut last = vec![None; entries as usize];
    let contents = |last: &[Option<usize>]| -> Vec<Entry> {
        last.iter()
            .map(|pick| pick.map_or([0u8; ENTRY_BYTES], |pick| palette[pick].0))
            .collect()
    };
    for round in 0..rounds {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let start = (seed >> 33) % entries;
        let len = 1 + (seed >> 45) % (entries - start);
        let pick = [0, 0, 0, 1, 1, 1, 1, 2][(seed >> 61) as usize];
        let batch = vec![palette[pick].0; len as usize];
        handle.write_entries(id, start, &batch).expect("in range");
        last[start as usize..(start + len) as usize].fill(Some(pick));
        if round % 2 == 1 {
            handle
                .write_entries(id, 0, &contents(&last))
                .expect("in range");
        }
        for (i, pick) in last.iter().enumerate() {
            let want = pick.map_or(EntryState::Zero, |pick| palette[pick].1);
            let got = handle.entry_state(id, i as u64).expect("live");
            assert_eq!(got, want, "entry {i} lost its writer's state mid-run");
        }
    }
    last
}

/// The metadata storage unit holding the state of entry `index` of `id`:
/// nibble `device offset of entry 0 / 8 + index`, sixteen nibbles a unit.
fn unit_of(dev: &BuddyDevice, id: AllocId, index: u64) -> u64 {
    let ((first_entry_offset, _), _) = dev.storage_ranges(id, 0).unwrap();
    (first_entry_offset / 8 + index) / 16
}

#[test]
fn neighbours_sharing_a_unit_never_lose_a_nibble() {
    const ROUNDS: u64 = 20_000;
    let mut dev = BuddyDevice::new(DeviceConfig {
        device_capacity: 1 << 20,
        carve_out_factor: 3,
    });
    // First-fit on an empty device: `a` (3 × 32 B) takes device bytes
    // [0, 96) and so nibbles [0, 3), `b` bytes [96, 152) and nibbles
    // [12, 19), and every `c` below the abutting bytes [152, 224) and
    // nibbles [19, 28) — so unit 0 (nibbles 0..16) is shared by `a` and
    // `b`, unit 1 by `b` and `c`, and `b` is an allocation with no interior
    // unit at all. R2 / R4 neighbours of sixteen entries or more never
    // share a unit, so the sharing is asserted, not assumed.
    let (a_entries, b_entries, c_entries) = (3u64, 7u64, 9u64);
    let a = dev.alloc("a", a_entries, TargetRatio::R4).unwrap();
    let b = dev.alloc("b", b_entries, TargetRatio::ZeroPage16).unwrap();
    assert_eq!(unit_of(&dev, a, a_entries - 1), unit_of(&dev, b, 0));
    assert_ne!(unit_of(&dev, b, 0), unit_of(&dev, b, b_entries - 1));
    let a_palette = palette(TargetRatio::R4);
    let b_palette = palette(TargetRatio::ZeroPage16);
    let c_fill = vec![entry_of_words(|_| 7); c_entries as usize];

    let handle = dev.handle();
    let start = Barrier::new(3);
    let (a_last, b_last) = std::thread::scope(|scope| {
        let a_writer = scope.spawn(|| {
            start.wait();
            hammer(&handle, a, a_entries, &a_palette, ROUNDS, 1)
        });
        let b_writer = scope.spawn(|| {
            start.wait();
            hammer(&handle, b, b_entries, &b_palette, ROUNDS, 2)
        });
        start.wait();
        for round in 0..ROUNDS {
            let c = dev.alloc("c", c_entries, TargetRatio::ZeroPage16).unwrap();
            assert_eq!(unit_of(&dev, b, b_entries - 1), unit_of(&dev, c, 0));
            // The recycled range held the previous round's states; the
            // clear must have reset all of it and nothing else.
            for i in 0..c_entries {
                assert_eq!(
                    dev.handle().entry_state(c, i).unwrap(),
                    EntryState::Zero,
                    "round {round}: fresh entry {i} not zero"
                );
            }
            dev.write_entries(c, 0, &c_fill).unwrap();
            for i in 0..c_entries {
                assert_eq!(
                    dev.handle().entry_state(c, i).unwrap(),
                    EntryState::ZeroPageFit,
                    "round {round}: entry {i} lost its state"
                );
            }
            dev.free(c).unwrap();
        }
        (a_writer.join().unwrap(), b_writer.join().unwrap())
    });

    for (id, last, palette) in [(a, &a_last, &a_palette), (b, &b_last, &b_palette)] {
        let mut out = vec![[0u8; ENTRY_BYTES]; last.len()];
        dev.read_entries(id, 0, &mut out).unwrap();
        for (i, pick) in last.iter().enumerate() {
            let (want_entry, want_state) = match pick {
                Some(pick) => palette[*pick],
                None => ([0u8; ENTRY_BYTES], EntryState::Zero),
            };
            assert_eq!(
                dev.handle().entry_state(id, i as u64).unwrap(),
                want_state,
                "entry {i}: state is not the allocation's own last write"
            );
            assert_eq!(out[i], want_entry, "entry {i}: bytes");
        }
    }
}
