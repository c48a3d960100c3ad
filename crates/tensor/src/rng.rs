//! Deterministic random number utilities.
//!
//! Every stochastic component of the reproduction (weight init, data
//! synthesis, mutation sampling, simulated annealing) draws from an [`Rng`]
//! seeded from the experiment configuration, so runs are exactly
//! reproducible. The paper notes its search "introduces randomness" and
//! recommends multiple runs; we make the randomness controllable instead.
//!
//! The generator is **bit-compatible** with `rand 0.8`'s `StdRng`
//! (`rand_chacha 0.3`) for every draw this module makes:
//!
//! - ChaCha12 with a 64-bit block counter and a zero nonce, exactly as
//!   `rand_chacha::ChaCha12Rng`;
//! - [`Rng::new`] expands the seed with the same PCG32 output function as
//!   `rand_core 0.6`'s `seed_from_u64`;
//! - 32- and 64-bit outputs consume keystream words in the same order as
//!   `rand_core`'s `BlockRng` (a `u64` is two words, low first);
//! - `f32` draws use the 24-bit fraction of rand's `Standard`
//!   distribution;
//! - [`Rng::below`] and [`Rng::shuffle`] use the widening-multiply
//!   rejection of `UniformInt::sample_single_inclusive`.
//!
//! Seeded streams therefore match what the real dependency would produce,
//! which keeps seed-tuned thresholds elsewhere in the repo meaningful.

use crate::checkpoint::{ByteReader, ByteWriter};
use crate::Result;

/// One ChaCha block: 16 output words from 8 key words and a 64-bit
/// counter, with `rounds` rounds and a zero nonce.
fn chacha_block(key: &[u32; 8], counter: u64, rounds: usize, out: &mut [u32; 16]) {
    const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    let mut initial = [0u32; 16];
    initial[..4].copy_from_slice(&CONSTANTS);
    initial[4..12].copy_from_slice(key);
    initial[12] = counter as u32;
    initial[13] = (counter >> 32) as u32;

    #[inline(always)]
    fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }

    let mut x = initial;
    for _ in 0..rounds / 2 {
        // Column round.
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (o, (w, i)) in out.iter_mut().zip(x.iter().zip(initial.iter())) {
        *o = w.wrapping_add(*i);
    }
}

/// A seeded random number generator with the distributions we need.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::rng::Rng;
///
/// let mut a = Rng::new(1);
/// let mut b = Rng::new(1);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    /// Next unread index into `buf`; 16 means exhausted.
    index: usize,
    /// Cached second output of the Box-Muller transform.
    spare_normal: Option<f32>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it into the
    /// ChaCha12 key with the PCG32 output function.
    pub fn new(mut seed: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut key = [0u32; 8];
        for k in &mut key {
            seed = seed.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((seed >> 18) ^ seed) >> 27) as u32;
            *k = xorshifted.rotate_right((seed >> 59) as u32);
        }
        Rng {
            key,
            counter: 0,
            buf: [0; 16],
            index: 16,
            spare_normal: None,
        }
    }

    /// Next 32 keystream bits, generating a block when the buffer is spent.
    fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            chacha_block(&self.key, self.counter, 12, &mut self.buf);
            self.counter = self.counter.wrapping_add(1);
            self.index = 0;
        }
        let w = self.buf[self.index];
        self.index += 1;
        w
    }

    /// Next 64 bits: two consecutive words, low first.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A 24-bit fraction in `[0, 1)`.
    pub(crate) fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each subsystem (data, init, search) its own stream so
    /// that adding draws in one place does not perturb the others.
    pub fn fork(&mut self, salt: u64) -> Rng {
        let seed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(seed)
    }

    /// Uniform sample from `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform sample from `0..n`: the high word of a widening multiply,
    /// rejecting draws whose low word falls in the biased zone.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        let range = n as u64;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let m = self.next_u64() as u128 * range as u128;
            if m as u64 <= zone {
                return (m >> 64) as usize;
            }
        }
    }

    /// Standard normal sample via the Box-Muller transform.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box-Muller: two uniforms -> two independent normals.
        let u1 = self.next_f32().max(1e-12);
        let u2 = self.next_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn coin(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Chooses a reference to a random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len())])
        }
    }
}

/// Appends a generator's complete state: key, counter, buffered block,
/// read cursor and the Box-Muller spare normal. [`get_rng`] continues the
/// stream bit-exactly from these bytes, which is what makes
/// checkpoint/resume of the search deterministic.
pub fn put_rng(w: &mut ByteWriter, rng: &Rng) {
    for k in rng.key {
        w.put_u32(k);
    }
    w.put_u64(rng.counter);
    for b in rng.buf {
        w.put_u32(b);
    }
    w.put_u64(rng.index as u64);
    match rng.spare_normal {
        Some(z) => {
            w.put_u8(1);
            w.put_f32(z);
        }
        None => w.put_u8(0),
    }
}

/// Reads a generator written by [`put_rng`].
pub fn get_rng(r: &mut ByteReader) -> Result<Rng> {
    let mut key = [0u32; 8];
    for k in &mut key {
        *k = r.get_u32()?;
    }
    let counter = r.get_u64()?;
    let mut buf = [0u32; 16];
    for b in &mut buf {
        *b = r.get_u32()?;
    }
    let index = r.get_len(16)?;
    let spare_normal = match r.get_u8()? {
        0 => None,
        _ => Some(r.get_f32()?),
    };
    Ok(Rng {
        key,
        counter,
        buf,
        index,
        spare_normal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for _ in 0..100 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.below(17), b.below(17));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.below(1000) == b.below(1000)).count();
        assert!(same < 8);
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = Rng::new(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.below(1_000_000), c2.below(1_000_000));
    }

    #[test]
    fn uniform_range() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(11);
        let xs: Vec<f32> = (0..20_000).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(4);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn state_snapshot_resumes_bit_exactly() {
        let mut rng = Rng::new(1234);
        // Advance through a mix of draws, leaving a spare normal cached.
        for _ in 0..37 {
            rng.normal();
            rng.below(100);
            rng.uniform(-1.0, 1.0);
        }
        // 37 normal() calls so far: odd count leaves a cached spare.
        assert!(rng.spare_normal.is_some());
        let mut w = ByteWriter::new();
        put_rng(&mut w, &rng);
        let bytes = w.into_bytes();
        let mut resumed = get_rng(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(resumed, rng);
        for _ in 0..200 {
            assert_eq!(rng.normal().to_bits(), resumed.normal().to_bits());
            assert_eq!(rng.below(97), resumed.below(97));
            assert_eq!(
                rng.uniform(0.0, 5.0).to_bits(),
                resumed.uniform(0.0, 5.0).to_bits()
            );
            assert_eq!(rng.coin(0.4), resumed.coin(0.4));
        }
        let mut v1: Vec<usize> = (0..20).collect();
        let mut v2 = v1.clone();
        rng.shuffle(&mut v1);
        resumed.shuffle(&mut v2);
        assert_eq!(v1, v2);
    }

    /// One value per draw: `below` over small, odd and wide ranges, the
    /// bits of `uniform` and of three `normal`s (so a spare is cached),
    /// `coin`, the whole generator state, a shuffle of 0..10 and a forked
    /// child.
    fn stream_pin(seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        let mut out = Vec::new();
        for n in [1, 2, 7, 1_000_003, 1 << 40, usize::MAX] {
            out.push(rng.below(n) as u64);
        }
        for _ in 0..3 {
            out.push(rng.uniform(-1.0, 1.0).to_bits() as u64);
        }
        for _ in 0..3 {
            out.push(rng.normal().to_bits() as u64);
        }
        out.push(rng.coin(0.5) as u64);
        out.push(rng.spare_normal.expect("odd normal count").to_bits() as u64);
        out.extend(rng.key.iter().map(|&k| k as u64));
        out.push(rng.counter);
        out.extend(rng.buf.iter().map(|&w| w as u64));
        out.push(rng.index as u64);
        let mut perm: Vec<usize> = (0..10).collect();
        rng.shuffle(&mut perm);
        out.extend(perm.iter().map(|&i| i as u64));
        let mut child = rng.fork(3);
        out.push(child.below(1 << 30) as u64);
        out.push(child.normal().to_bits() as u64);
        out
    }

    /// [`stream_pin`] of seed 0 and of the search seed for seed 5
    /// (`cfg.seed ^ 0x5EA_4C4`), recorded with the `rand 0.8`-compatible
    /// generator. Every seed-tuned threshold in the repo relies on these
    /// streams.
    const PIN_SEED_0: [u64; 52] = [
        0x0,
        0x1,
        0x1,
        0xbc795,
        0x37fc854f12,
        0xcb30ce1ac9ff61c6,
        0x3e706bf8,
        0x3eff5290,
        0x3d770700,
        0x3e172efa,
        0xbe5021e8,
        0xbc8e94a5,
        0x1,
        0x3dac469a,
        0xf973f2ec,
        0x45cdb581,
        0x7346f087,
        0xad6cad06,
        0xe3a3d0d0,
        0x67e71733,
        0x72ea9bf2,
        0xfe7d8ad7,
        0x2,
        0x9e0d7fac,
        0xbfd4a4ae,
        0x87b83854,
        0xf80c4de3,
        0xd9987f7e,
        0xff0ea77d,
        0x48501800,
        0x23ae2c7b,
        0xbd4b7bb,
        0x1ce4b87b,
        0xfd960655,
        0xf6ff78ef,
        0x34bb13f0,
        0xca57b62,
        0x6e3bd6a2,
        0x6cfacf84,
        0x8,
        0x4,
        0x6,
        0x8,
        0x2,
        0x9,
        0x5,
        0x7,
        0x3,
        0x0,
        0x1,
        0x23a2906,
        0x3f3c2782,
    ];
    const PIN_SEARCH_SEED_5: [u64; 52] = [
        0x0,
        0x0,
        0x3,
        0xc94a0,
        0x5baa73b85a,
        0x475714df33bf3dca,
        0x3f21824c,
        0x3f711950,
        0x3f6d6750,
        0x3e86d1c7,
        0x3f38e2a6,
        0xbe38ab5b,
        0x0,
        0x3edc80dc,
        0xd8009d2d,
        0xe5eaa767,
        0x6fff6643,
        0xcd7d6263,
        0x12ab65f4,
        0x22c4b2cb,
        0x31c8203e,
        0x1b715ed5,
        0x3,
        0x5028473d,
        0xff3c5ec7,
        0x973b914c,
        0x5f17b57e,
        0x857b35c6,
        0x76672c35,
        0xef64bf1,
        0xc0af79a7,
        0x6b7be0a0,
        0xae5dbde2,
        0xa40eed03,
        0x4236c967,
        0x6c23bf36,
        0xdbdddecd,
        0x65e82ae0,
        0x69730ef2,
        0x2,
        0x1,
        0x4,
        0x0,
        0x5,
        0x3,
        0x9,
        0x8,
        0x2,
        0x6,
        0x7,
        0x218db521,
        0x3f8af889,
    ];

    #[test]
    fn streams_are_pinned() {
        assert_eq!(stream_pin(0), PIN_SEED_0);
        assert_eq!(stream_pin(5 ^ 0x5EA_4C4), PIN_SEARCH_SEED_5);
    }

    #[test]
    fn coin_probability() {
        let mut rng = Rng::new(21);
        let heads = (0..10_000).filter(|_| rng.coin(0.3)).count();
        let p = heads as f32 / 10_000.0;
        assert!((p - 0.3).abs() < 0.03, "p {p}");
    }

    /// The zero-key, zero-nonce, counter-0 ChaCha20 keystream block from
    /// the original ecrypt verification set. Validates the block function;
    /// ChaCha12 differs only in round count.
    #[test]
    fn chacha20_reference_block() {
        let mut out = [0u32; 16];
        chacha_block(&[0; 8], 0, 20, &mut out);
        let bytes: Vec<u8> = out.iter().flat_map(|w| w.to_le_bytes()).collect();
        let expect: [u8; 32] = [
            0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
            0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
            0x8b, 0x77, 0x0d, 0xc7,
        ];
        assert_eq!(&bytes[..32], &expect);
    }

    #[test]
    fn below_respects_bounds_and_covers() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..7 drawn");
    }

    #[test]
    fn below_is_unbiased_enough() {
        // The rejection zone must not visibly skew small ranges.
        let mut rng = Rng::new(17);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.below(3)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts {counts:?}");
        }
    }
}
