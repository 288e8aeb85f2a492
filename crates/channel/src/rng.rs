//! Deterministic pseudo-random number generation for the simulator.
//!
//! Every sequential stochastic component of the reproduction — antenna
//! placement, shadowing, set-up fading realisation, MAC access order —
//! draws from [`SimRng`], a thin wrapper over a splitmix64/xoshiro-style
//! generator.  Seeding every experiment makes figures and tests exactly
//! reproducible, and the `fork`/`stream` helpers give independent
//! sub-streams to independent model components so that adding draws to one
//! component does not perturb another.
//!
//! [`CounterRng`] is the stateless counterpart: a splitmix64 stream whose
//! starting point is a pure function of a caller-supplied key, so the draw
//! for `(seed, ap, link, round)` is the same no matter which draws ran
//! before it.  Fading evolution is built on it — order-independence is
//! what lets the simulator evolve only the channel rows a round reads.
//!
//! Both draw every standard normal through one sampler: Marsaglia &
//! Tsang's 256-layer ziggurat ("The Ziggurat Method for Generating Random
//! Variables", JSS 5(8), 2000) with Doornik's (2005) disjoint index bits.
//! Its common path reads one raw word and calls no transcendental
//! function; a rejection reads the next words of the same stream, so a
//! keyed draw stays a pure function of its key.

use std::sync::LazyLock;

/// A small, fast, deterministic PRNG (xoshiro256** seeded via splitmix64).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The splitmix64 output finalizer on its own: a bijective 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Maps raw bits to a uniform sample in `[0, 1)` (53 random mantissa bits).
#[inline]
fn unit_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Layers of the ziggurat.
const ZIG_LAYERS: usize = 256;
/// Where the base layer's tail begins (Marsaglia & Tsang's
/// 3.6541528853610088, the same `f64`).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// The area of every layer (the base layer's includes its tail).
const ZIG_V: f64 = 4.92867323399e-3;

/// The unnormalised standard normal density `exp(−x²/2)`.
#[inline]
fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Layer edges `x[0] = V/f(R) > x[1] = R > … > x[256] = 0` and the density
/// at each, `f[i] = exp(−x[i]²/2)`.  Layer `i` is the box `[0, x[i]] ×
/// [f[i], f[i+1]]`; the base layer `i = 0` is `[0, R] × [0, f(R)]` plus
/// the tail beyond `R`, drawn as a box of width `V/f(R)`.
struct Ziggurat {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let mut x = [0.0; ZIG_LAYERS + 1];
    x[0] = ZIG_V / normal_pdf(ZIG_R);
    x[1] = ZIG_R;
    for i in 2..ZIG_LAYERS {
        x[i] = (-2.0 * (ZIG_V / x[i - 1] + normal_pdf(x[i - 1])).ln()).sqrt();
    }
    Ziggurat {
        x,
        f: x.map(normal_pdf),
    }
});

/// One standard normal draw by the ziggurat, reading raw words from
/// `next_u64`.
///
/// One attempt reads one word: bits 0–7 pick the layer, bit 8 is the sign
/// and bits 11–63 the uniform.  The ranges are disjoint, so the layer and
/// the position within it are independent (Doornik's fix).  A point
/// inside the layer below is accepted at once; a point in the base layer
/// beyond `R` draws from the tail; any other point takes the wedge test
/// against one more word and, on failure, a fresh attempt.
#[inline]
fn ziggurat(next_u64: &mut impl FnMut() -> u64) -> f64 {
    let z = &*ZIGGURAT;
    loop {
        let bits = next_u64();
        let i = (bits & 0xFF) as usize;
        let x = unit_from_bits(bits) * z.x[i];
        let magnitude = if x < z.x[i + 1] {
            x
        } else if i == 0 {
            ziggurat_tail(next_u64)
        } else if z.f[i] + unit_from_bits(next_u64()) * (z.f[i + 1] - z.f[i]) < normal_pdf(x) {
            x
        } else {
            continue;
        };
        return if bits & 0x100 == 0 {
            magnitude
        } else {
            -magnitude
        };
    }
}

/// A draw from the normal tail beyond [`ZIG_R`] (Marsaglia 1964): two
/// words per attempt, repeated until `2b > a²`.
#[cold]
fn ziggurat_tail(next_u64: &mut impl FnMut() -> u64) -> f64 {
    loop {
        let a = -(1.0 - unit_from_bits(next_u64())).ln() / ZIG_R;
        let b = -(1.0 - unit_from_bits(next_u64())).ln();
        if 2.0 * b > a * a {
            return ZIG_R + a;
        }
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// The same `(seed, label)` pair always yields the same stream, and
    /// different labels yield statistically independent streams.
    pub fn fork(&self, label: u64) -> SimRng {
        // Mix the current state with the label through splitmix64.
        let mut sm = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ self.state[2].rotate_left(31)
            ^ self.state[3].rotate_left(47)
            ^ label.wrapping_mul(0xA24BAED4963EE407);
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Next raw 64-bit value (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize: empty range");
        // Rejection-free for our purposes: modulo bias is negligible for the
        // small n used in the simulator, but use 64-bit multiply-shift to
        // avoid the obvious bias anyway.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample (the ziggurat; see the module docs).
    pub fn gaussian(&mut self) -> f64 {
        ziggurat(&mut || self.next_u64())
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Returns `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Chooses `k` distinct indices out of `0..n` (k <= n), in random order.
    pub fn choose_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "choose_indices: k > n");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

/// A stateless counter-based sub-stream: the splitmix64 sequence whose
/// starting state is a pure hash of a caller-supplied key.
///
/// Where [`SimRng`] threads one mutable state through every consumer (so a
/// draw's value depends on every draw before it), `CounterRng::from_key`
/// makes the draw sequence for a key — e.g. `(trial_seed, ap, link, round)`
/// — a pure function of that key.  Two consequences keyed fading
/// evolution relies on:
///
/// * **Order independence** — evolving link A before or after link B cannot
///   change either link's draws, so work can be skipped, reordered, or
///   sharded across threads without changing a single output bit.
/// * **Lazy determinism** — a row caught up late draws from the key of the
///   boundary it catches up to, whenever that happens, so the result does
///   not depend on when (or on which thread) the work is done.
///
/// Statistical quality matches [`SimRng`]'s seeding path: both are built on
/// the splitmix64 mixer, which passes standard test batteries at 64-bit
/// state size.  The per-key streams here are short (a handful of draws per
/// fading row per round), far below splitmix64's period.
#[derive(Debug, Clone)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// Derives the stream for a 4-lane key.
    ///
    /// Every lane is absorbed through the (bijective) splitmix64 finalizer,
    /// so distinct keys map to distinct, well-separated stream states; the
    /// same key always yields the same stream.
    pub fn from_key(key: [u64; 4]) -> Self {
        // First fractional bits of π — an arbitrary-looking, documented
        // starting point (nothing-up-my-sleeve constant).
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for &lane in &key {
            h = mix64(h.wrapping_add(lane).wrapping_add(0x9E37_79B9_7F4A_7C15));
        }
        CounterRng { state: h }
    }

    /// Next raw 64-bit value (splitmix64 stepping).
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        unit_from_bits(self.next_u64())
    }

    /// Two independent standard normal samples, drawn in turn by the
    /// same ziggurat as [`SimRng::gaussian`].
    pub fn gaussian_pair(&mut self) -> (f64, f64) {
        let mut next = || self.next_u64();
        (ziggurat(&mut next), ziggurat(&mut next))
    }

    /// Fills `out` with independent standard normal pairs — the batched
    /// Gaussian kernel of fading evolution: one stream keyed per
    /// `(link, round)` fills a whole channel row's innovations at once.
    pub fn fill_gaussian_pairs(&mut self, out: &mut [(f64, f64)]) {
        for slot in out {
            *slot = self.gaussian_pair();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = SimRng::new(7);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_has_unit_variance_and_zero_mean() {
        let mut rng = SimRng::new(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_usize_covers_range_without_out_of_bounds() {
        let mut rng = SimRng::new(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.uniform_usize(7);
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn choose_indices_returns_distinct_values() {
        let mut rng = SimRng::new(13);
        for _ in 0..50 {
            let picked = rng.choose_indices(10, 4);
            assert_eq!(picked.len(), 4);
            let mut sorted = picked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicates in {picked:?}");
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::new(17);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn bernoulli_respects_probability() {
        let mut rng = SimRng::new(19);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.02, "p {p}");
    }

    #[test]
    fn gaussian_pair_components_are_independent_standard_normals() {
        let mut rng = SimRng::new(23);
        let n = 50_000;
        let (mut s0, mut s1, mut sq0, mut sq1, mut cross) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let (a, b) = (rng.gaussian(), rng.gaussian());
            s0 += a;
            s1 += b;
            sq0 += a * a;
            sq1 += b * b;
            cross += a * b;
        }
        let nf = n as f64;
        assert!((s0 / nf).abs() < 0.02 && (s1 / nf).abs() < 0.02);
        assert!((sq0 / nf - 1.0).abs() < 0.05, "var0 {}", sq0 / nf);
        assert!((sq1 / nf - 1.0).abs() < 0.05, "var1 {}", sq1 / nf);
        assert!((cross / nf).abs() < 0.02, "corr {}", cross / nf);
    }

    #[test]
    fn counter_stream_is_a_pure_function_of_its_key() {
        let key = [0x11DA5, 7, 0x0003_0005, 42];
        let mut a = CounterRng::from_key(key);
        let mut b = CounterRng::from_key(key);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn counter_streams_differ_in_every_key_lane() {
        let base = [1u64, 2, 3, 4];
        let mut reference = CounterRng::from_key(base);
        let r0 = reference.next_u64();
        for lane in 0..4 {
            let mut tweaked = base;
            tweaked[lane] += 1;
            let mut other = CounterRng::from_key(tweaked);
            assert_ne!(r0, other.next_u64(), "lane {lane} ignored by the key hash");
        }
    }

    #[test]
    fn counter_gaussians_are_standard_normal_across_keys() {
        // One short stream per key, mimicking how the fading engine uses
        // CounterRng (a few draws per (link, round) key): the aggregate
        // over many keys must still be standard normal.
        let n_keys = 20_000;
        let (mut sum, mut sumsq, mut count) = (0.0, 0.0, 0);
        for k in 0..n_keys {
            let mut rng = CounterRng::from_key([0xFADE, k, k * 31 + 7, 0]);
            for _ in 0..2 {
                let (a, b) = rng.gaussian_pair();
                sum += a + b;
                sumsq += a * a + b * b;
                count += 2;
            }
        }
        let mean = sum / count as f64;
        let var = sumsq / count as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
