//! Correctness oracles computed apart from the program: they use none
//! of its numerical code, only its outputs.

use sops_math::Vec2;
use std::collections::HashMap;

/// Largest allowed difference, in bits, between the program's Gaussian
/// multi-information and [`gaussian_mi_bits`] on the same observer
/// matrix. Both are closed forms of one covariance; they differ only by
/// floating-point summation order.
pub const GAUSSIAN_TOL_BITS: f64 = 1e-6;

/// Interaction radius of [`like_type_contact_fraction`].
pub const CONTACT_RADIUS: f64 = 1.6;

/// Gaussian multi-information in bits of a row-major `rows × d` matrix
/// whose columns form consecutive blocks of `block_sizes`:
/// `½ (Σ_b ln det Σ_b − ln det Σ) / ln 2` for the unbiased sample
/// covariance `Σ`. `NaN` when a covariance is not positive definite.
pub fn gaussian_mi_bits(data: &[f64], rows: usize, block_sizes: &[usize]) -> f64 {
    let d: usize = block_sizes.iter().sum();
    assert_eq!(data.len(), rows * d, "oracle: matrix shape");
    let mut mean = vec![0.0; d];
    for r in 0..rows {
        for (m, x) in mean.iter_mut().zip(&data[r * d..(r + 1) * d]) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= rows as f64;
    }
    let mut cov = vec![0.0; d * d];
    for r in 0..rows {
        let row = &data[r * d..(r + 1) * d];
        for i in 0..d {
            let di = row[i] - mean[i];
            for j in 0..=i {
                cov[i * d + j] += di * (row[j] - mean[j]);
            }
        }
    }
    for i in 0..d {
        for j in 0..=i {
            cov[i * d + j] /= (rows - 1) as f64;
            cov[j * d + i] = cov[i * d + j];
        }
    }
    let Some(joint) = cholesky_ln_det(&cov, d) else {
        return f64::NAN;
    };
    let mut blocks = 0.0;
    let mut off = 0;
    for &b in block_sizes {
        let mut sub = vec![0.0; b * b];
        for i in 0..b {
            for j in 0..b {
                sub[i * b + j] = cov[(off + i) * d + off + j];
            }
        }
        let Some(ld) = cholesky_ln_det(&sub, b) else {
            return f64::NAN;
        };
        blocks += ld;
        off += b;
    }
    0.5 * (blocks - joint) / std::f64::consts::LN_2
}

/// `ln det A` of a symmetric `n × n` matrix through its Cholesky factor;
/// `None` unless `A` is positive definite.
fn cholesky_ln_det(a: &[f64], n: usize) -> Option<f64> {
    let mut l = vec![0.0; n * n];
    let mut ln_det = 0.0;
    for j in 0..n {
        let mut diag = a[j * n + j];
        for k in 0..j {
            diag -= l[j * n + k] * l[j * n + k];
        }
        if diag <= 0.0 || !diag.is_finite() {
            return None;
        }
        let ljj = diag.sqrt();
        l[j * n + j] = ljj;
        ln_det += 2.0 * ljj.ln();
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            l[i * n + j] = s / ljj;
        }
    }
    Some(ln_det)
}

/// Share of particle pairs closer than [`CONTACT_RADIUS`] whose two
/// particles have the same type, pooled over `samples`. A well-mixed
/// two-type collective reads about ½; a sorted one reads near 1.
pub fn like_type_contact_fraction(samples: &[&[Vec2]], types: &[u16]) -> f64 {
    let r2 = CONTACT_RADIUS * CONTACT_RADIUS;
    let (mut like, mut all) = (0u64, 0u64);
    for positions in samples {
        let cell = |p: &Vec2| {
            (
                (p.x / CONTACT_RADIUS).floor() as i64,
                (p.y / CONTACT_RADIUS).floor() as i64,
            )
        };
        let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, p) in positions.iter().enumerate() {
            grid.entry(cell(p)).or_default().push(i);
        }
        for (i, p) in positions.iter().enumerate() {
            let (cx, cy) = cell(p);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let Some(others) = grid.get(&(cx + dx, cy + dy)) else {
                        continue;
                    };
                    for &j in others {
                        if j <= i {
                            continue;
                        }
                        let q = positions[j];
                        let (ex, ey) = (p.x - q.x, p.y - q.y);
                        if ex * ex + ey * ey < r2 {
                            all += 1;
                            if types[i] == types[j] {
                                like += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    if all == 0 {
        f64::NAN
    } else {
        like as f64 / all as f64
    }
}

/// A `/sweep` response body with every cell's provenance metadata
/// (`, "provenance": "…", "cached": …`) removed — the form that must
/// equal the canonical uncached `sweep.json`.
pub fn strip_provenance(body: &str) -> String {
    const START: &str = ", \"provenance\": \"";
    const CACHED: &str = "\"cached\": ";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(START) {
        out.push_str(&rest[..at]);
        let tail = &rest[at..];
        let Some(c) = tail.find(CACHED) else {
            out.push_str(tail);
            return out;
        };
        let after = &tail[c + CACHED.len()..];
        let skip = if after.starts_with("true") { 4 } else { 5 };
        rest = &after[skip..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_oracle_matches_a_known_closed_form() {
        // Two 1-d blocks with correlation ρ: I = −½ log₂(1 − ρ²).
        let rho: f64 = 0.6;
        let mut rng = sops_math::SplitMix64::new(3);
        let rows = 20_000;
        let mut data = Vec::with_capacity(rows * 2);
        for _ in 0..rows {
            let a = rng.next_standard_normal();
            let b = rng.next_standard_normal();
            data.push(a);
            data.push(rho * a + (1.0 - rho * rho).sqrt() * b);
        }
        let want = -0.5 * (1.0 - rho * rho).log2();
        let got = gaussian_mi_bits(&data, rows, &[1, 1]);
        assert!((got - want).abs() < 0.02, "got {got}, want {want}");
    }

    #[test]
    fn contact_fraction_of_sorted_and_mixed_lines() {
        let pts: Vec<Vec2> = (0..10).map(|i| Vec2::new(i as f64, 0.0)).collect();
        let sorted = [0u16, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let mixed = [0u16, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        let s = like_type_contact_fraction(&[&pts], &sorted);
        let m = like_type_contact_fraction(&[&pts], &mixed);
        assert!((s - 8.0 / 9.0).abs() < 1e-12, "{s}");
        assert_eq!(m, 0.0);
    }

    #[test]
    fn provenance_is_stripped() {
        let body = "{\"a\": 1, \"provenance\": \"cached\", \"cached\": true},\n\
                    {\"a\": 2, \"provenance\": \"computed\", \"cached\": false}\n";
        assert_eq!(strip_provenance(body), "{\"a\": 1},\n{\"a\": 2}\n");
    }
}
