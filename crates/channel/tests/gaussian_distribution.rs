//! The distribution of the Gaussian sampler behind every channel draw.
//!
//! Both generators are checked over 10⁶ draws: [`SimRng`] as one long
//! stream, and [`CounterRng`] the way fading evolution uses it, as many
//! short keyed streams of two pairs each.  Each sample must match the
//! standard normal in its first four moments, its Kolmogorov–Smirnov
//! distance to Φ, its mass beyond 3σ and 4σ, and the independence of the
//! two members of a pair.  Every moment and tail check allows 4 standard
//! errors; the KS check uses the 1 % critical value.

use midas_channel::{CounterRng, SimRng};

const DRAWS: usize = 1_000_000;
const SE_LIMIT: f64 = 4.0;
/// Asymptotic 1 % critical value of √n · D for the one-sample KS test.
const KS_CRITICAL_1PCT: f64 = 1.628;

/// The complementary error function (Numerical Recipes' Chebyshev form,
/// fractional error below 1.2e-7 everywhere).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * (-z * z + poly).exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// The standard normal CDF.
fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Asserts that `observed` lies within [`SE_LIMIT`] standard errors `se`
/// of `expected`, naming the check on failure.
fn assert_within_se(source: &str, what: &str, observed: f64, expected: f64, se: f64) {
    let z = (observed - expected) / se;
    assert!(
        z.abs() < SE_LIMIT,
        "{source}: {what} = {observed:.6} against {expected:.6} is {z:+.2} standard errors off"
    );
}

/// Checks `pairs`, flattened, against N(0, 1), and the pair members
/// against each other.
fn check_standard_normal(source: &str, pairs: &[(f64, f64)]) {
    let mut xs: Vec<f64> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    let n = xs.len() as f64;

    let mean = xs.iter().sum::<f64>() / n;
    let (mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0);
    for &x in &xs {
        let d = x - mean;
        let d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    let (m2, m3, m4) = (m2 / n, m3 / n, m4 / n);
    assert_within_se(source, "mean", mean, 0.0, (1.0 / n).sqrt());
    assert_within_se(source, "variance", m2, 1.0, (2.0 / n).sqrt());
    assert_within_se(source, "skewness", m3 / m2.powf(1.5), 0.0, (6.0 / n).sqrt());
    assert_within_se(
        source,
        "excess kurtosis",
        m4 / (m2 * m2) - 3.0,
        0.0,
        (24.0 / n).sqrt(),
    );

    for k in [3.0, 4.0] {
        let p = erfc(k / std::f64::consts::SQRT_2);
        let beyond = xs.iter().filter(|x| x.abs() > k).count() as f64 / n;
        let se = (p * (1.0 - p) / n).sqrt();
        assert_within_se(source, &format!("mass beyond {k}σ"), beyond, p, se);
    }

    xs.sort_unstable_by(f64::total_cmp);
    let ks = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let cdf = phi(x);
            (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
        })
        .fold(0.0, f64::max);
    assert!(
        ks * n.sqrt() < KS_CRITICAL_1PCT,
        "{source}: KS distance {ks:.6} exceeds the 1 % critical value {:.6}",
        KS_CRITICAL_1PCT / n.sqrt()
    );

    let np = pairs.len() as f64;
    let (ma, mb) = pairs
        .iter()
        .fold((0.0, 0.0), |(sa, sb), &(a, b)| (sa + a, sb + b));
    let (ma, mb) = (ma / np, mb / np);
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for &(a, b) in pairs {
        sab += (a - ma) * (b - mb);
        saa += (a - ma) * (a - ma);
        sbb += (b - mb) * (b - mb);
    }
    let r = sab / (saa * sbb).sqrt();
    assert_within_se(source, "pair correlation", r, 0.0, (1.0 / np).sqrt());
}

#[test]
fn the_sequential_sampler_is_standard_normal() {
    let mut rng = SimRng::new(0x5EED_2026);
    let pairs: Vec<(f64, f64)> = (0..DRAWS / 2)
        .map(|_| (rng.gaussian(), rng.gaussian()))
        .collect();
    check_standard_normal("SimRng", &pairs);
}

#[test]
fn the_keyed_sampler_is_standard_normal_across_short_streams() {
    // Two pairs per key, as a 2-antenna fading row draws them.
    let mut pairs = Vec::with_capacity(DRAWS / 2);
    for k in 0..(DRAWS / 4) as u64 {
        let mut stream = CounterRng::from_key([0x21CC, k, k.wrapping_mul(0x9E37) ^ 5, 3]);
        pairs.push(stream.gaussian_pair());
        pairs.push(stream.gaussian_pair());
    }
    check_standard_normal("CounterRng", &pairs);
}
