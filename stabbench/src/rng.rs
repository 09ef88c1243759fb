//! Seeded input generation. Every input a workload feeds the program —
//! payload bytes, publish phase offsets, the open-loop schedule and the
//! simulator seed — is drawn here from the `--seed` argument, so the
//! same seed always gives the same inputs.

use bytes::Bytes;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `seed` and `tag`: each tag draws its own
    /// stream, so adding draws for one input never shifts another.
    pub fn derive(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        v.truncate(len);
        Bytes::from(v)
    }
}

/// Distinct payloads cycled by each origin; message `seq` of an origin
/// carries `pool[(seq - 1) % POOL]`, which the delivery check compares.
pub const POOL: usize = 512;

/// One origin's payload pool, drawn from the workload seed.
pub fn payload_pool(seed: u64, origin: u16, len: usize) -> Vec<Bytes> {
    let mut rng = Rng::derive(seed, 0x5041_594C_0000 | origin as u64);
    (0..POOL).map(|_| rng.bytes(len)).collect()
}

/// The payload an origin publishes as sequence number `seq` (1-based).
pub fn payload_for(pool: &[Bytes], seq: u64) -> &Bytes {
    &pool[((seq - 1) % pool.len() as u64) as usize]
}
