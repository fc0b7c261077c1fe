//! Seeded input generators and the FNV-64 digest.
//!
//! Everything the code under test receives is made here (or recorded from
//! the real simulator in a workload's set-up) as a pure function of
//! `--seed`; the code under test never sees the seed itself.

use dcpi_collect::faults::LossLedger;
use dcpi_collect::wire::{encode_msg, EpochBatch, Msg};
use dcpi_core::prng::CartaRng;
use dcpi_core::profile::Profile;
use dcpi_core::{Event, ImageId, Pid};
use dcpi_stacks::{Frame, StackProfile};

/// FNV-1a, 64-bit: the digest for generated inputs and rendered reports.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// Images in the fleet-wide universe; each has a CYCLES and an IMISS
/// profile, so a merge touches up to `2 * FLEET_IMAGES` files. Kept small
/// on purpose: every file a merge writes costs one fsync, and on the
/// sandbox this was written on fsync latency drifts by ±30% over minutes
/// (README.md, "Noise"), so a universe of 48 images made `ingest` 55%
/// device wait and its throughput unrepeatable.
pub const FLEET_IMAGES: u32 = 8;
/// Images one epoch of one agent samples.
pub const IMAGES_PER_EPOCH: usize = 6;
/// Skewed draws per profile.
pub const DRAWS_PER_PROFILE: u32 = 600;
/// Distinct instruction offsets a draw can land on.
pub const OFFSETS: u64 = 4096;

fn image_name(id: u32) -> String {
    format!("/usr/lib/fleet/image{id:02}")
}

/// A quadratic skew toward low offsets: hot loops near the image start,
/// a long thin tail behind them, as daemon output looks.
fn skewed_offset(rng: &mut CartaRng) -> u64 {
    let r = rng.uniform(0, OFFSETS - 1);
    (r * r / OFFSETS) * 4
}

/// The epochs agent `agent` seals, shaped like daemon output on a fleet of
/// like machines that share a few hot images: per epoch [`IMAGES_PER_EPOCH`] of [`FLEET_IMAGES`]
/// images × {cycles, imiss}, [`DRAWS_PER_PROFILE`] skewed draws each. Even
/// agents walk stacks and carry a `StackProfile` section (DCPF v2); odd
/// agents do not, so their frames are byte-compatible with v1. Every
/// batch's ledger delta conserves with nothing dropped or unknown, so no
/// operation fails by construction.
#[must_use]
pub fn agent_epochs(seed: u32, agent: u32, epochs: u32) -> Vec<EpochBatch> {
    let mut rng = CartaRng::new(
        seed.wrapping_mul(0x9e37_79b9)
            .wrapping_add(agent.wrapping_mul(0x85eb_ca6b))
            .max(1),
    );
    let mut named = vec![false; FLEET_IMAGES as usize + 1];
    let mut out = Vec::with_capacity(epochs as usize);
    for epoch in 0..epochs {
        // Image 1 is fleet-hot; the rest are a seeded pick of the universe.
        let mut picks: Vec<u32> = vec![1];
        while picks.len() < IMAGES_PER_EPOCH {
            let p = rng.uniform(2, u64::from(FLEET_IMAGES)) as u32;
            if !picks.contains(&p) {
                picks.push(p);
            }
        }
        picks.sort_unstable();
        let mut batch = EpochBatch {
            epoch,
            ..EpochBatch::default()
        };
        for &id in &picks {
            for event in [Event::Cycles, Event::IMiss] {
                let mut profile = Profile::new();
                for _ in 0..DRAWS_PER_PROFILE {
                    profile.add(skewed_offset(&mut rng), rng.uniform(1, 8));
                }
                batch.profiles.push((ImageId(id), event, profile));
            }
            if !std::mem::replace(&mut named[id as usize], true) {
                batch.image_names.push((ImageId(id), image_name(id)));
            }
        }
        if agent.is_multiple_of(2) {
            batch.stacks = epoch_stacks(&mut rng, agent, &picks);
        }
        let total = batch.sample_total();
        batch.ledger = LossLedger {
            generated: total,
            attributed: total,
            ..LossLedger::default()
        };
        out.push(batch);
    }
    out
}

/// About 120 call stacks of depth 3–10 over the epoch's images.
fn epoch_stacks(rng: &mut CartaRng, agent: u32, images: &[u32]) -> StackProfile {
    let mut sp = StackProfile::new();
    let mut frames = Vec::with_capacity(10);
    for _ in 0..120 {
        frames.clear();
        for _ in 0..rng.uniform(3, 10) {
            let image = images[rng.uniform(0, images.len() as u64 - 1) as usize];
            frames.push(Frame {
                image: ImageId(image),
                // Few distinct call sites per image, so stacks share prefixes.
                offset: rng.uniform(0, 15) * 256,
            });
        }
        sp.record(
            Event::Cycles.code(),
            Pid(1000 + agent),
            &frames,
            rng.uniform(1, 20),
        );
    }
    sp
}

/// Wraps a batch in the upload frame an agent would send.
#[must_use]
pub fn upload_frame(agent: u32, seq: u64, batch: &EpochBatch) -> Vec<u8> {
    encode_msg(&Msg::Upload {
        agent,
        incarnation: 1,
        seq,
        batch: batch.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-64 of a batch's encoded upload frame.
    fn batch_digest(batch: &EpochBatch) -> u64 {
        fnv64(&upload_frame(0, 1, batch))
    }

    #[test]
    fn fnv64_known_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_batches_different_seed_different() {
        let digests = |seed: u32| -> Vec<u64> {
            (0..4)
                .flat_map(|agent| agent_epochs(seed, agent, 3))
                .map(|b| batch_digest(&b))
                .collect()
        };
        let a = digests(7);
        assert_eq!(a, digests(7), "same seed must give identical batches");
        assert_eq!(a.len(), 12);
        let b = digests(8);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "a different seed must change every batch"
        );
    }

    #[test]
    fn batches_have_the_documented_shape() {
        for agent in 0..2 {
            for b in agent_epochs(3, agent, 2) {
                assert_eq!(b.profiles.len(), 2 * IMAGES_PER_EPOCH);
                assert!(b.ledger.conserves());
                assert_eq!(b.ledger.attributed, b.sample_total());
                assert_eq!(b.stacks.is_empty(), agent % 2 == 1);
                let bytes = upload_frame(agent, 1, &b).len();
                assert!((6_000..40_000).contains(&bytes), "frame is {bytes} bytes");
            }
        }
        // Names ride only the first epoch that uses an image.
        let epochs = agent_epochs(3, 0, 4);
        let named: usize = epochs.iter().map(|b| b.image_names.len()).sum();
        let mut distinct: Vec<u32> = epochs
            .iter()
            .flat_map(|b| b.profiles.iter().map(|(id, _, _)| id.0))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(named, distinct.len());
    }
}
