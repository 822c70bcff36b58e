//! Zipf key sampling and the flat-JSON readers shared by the load
//! checker ([`crate::check`]) and the `perfbench` benchmark.

/// The flat-JSON integer readers, under the names the load checker and
/// `perfbench` use.
pub use bikron_obs::{flat_u64_field as field_u64, flat_u64_field_last as field_u64_last};

/// Split a top-level JSON array of objects into the objects' raw text,
/// by brace-depth scan (string-aware, so a `{` inside an error detail
/// cannot derail it). Returns `None` when `body` is not an array.
pub fn split_json_array(body: &str) -> Option<Vec<String>> {
    let trimmed = body.trim();
    let inner = trimmed.strip_prefix('[')?.strip_suffix(']')?;
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    items.push(inner[start?..=i].to_string());
                    start = None;
                }
            }
            _ => {}
        }
    }
    (depth == 0 && !in_string).then_some(items)
}

/// Zipf(s) sampler over ranks `0..n`, with ranks scattered across the
/// vertex space by a multiplicative hash so "popular" keys are not all
/// low indices. `s = 0` degenerates to uniform. Sampling is a binary
/// search over the precomputed CDF — O(log n) per draw, O(n) memory paid
/// once.
pub struct Zipf {
    cdf: Vec<f64>,
    n: usize,
}

impl Zipf {
    /// Build the sampler for `n` keys with skew exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty key space");
        assert!(s >= 0.0, "Zipf skew must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf, n }
    }

    /// Map a uniform draw `u ∈ [0, 1)` to a key in `0..n`.
    pub fn sample(&self, u: f64) -> usize {
        let rank = self.cdf.partition_point(|&c| c < u).min(self.n - 1);
        // Scatter rank → key so hot keys spread over the vertex space.
        (rank.wrapping_mul(0x9E37_79B9) ^ (rank >> 7)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_arrays_of_objects() {
        let body = "[\n{\n  \"a\": 1\n},\n{\n  \"b\": \"x } y\"\n}\n]\n";
        let items = split_json_array(body).unwrap();
        assert_eq!(items.len(), 2);
        assert!(items[0].contains("\"a\": 1"));
        assert!(items[1].contains("x } y"));
        assert_eq!(split_json_array("{}"), None);
        assert_eq!(split_json_array("[]").unwrap(), Vec::<String>::new());
        assert_eq!(split_json_array("[{\"unbalanced\": 1]"), None);
    }

    #[test]
    fn zipf_skews_and_stays_in_range() {
        let z = Zipf::new(1000, 1.1);
        // CDF mass of the first rank under s=1.1 is large; the mapped-to
        // key for u near 0 must always be the same and in range.
        let hot = z.sample(0.0);
        assert!(hot < 1000);
        assert_eq!(z.sample(1e-9), hot);
        for i in 0..100 {
            let u = i as f64 / 100.0;
            assert!(z.sample(u) < 1000);
        }
        // s = 0 is uniform: the CDF is linear, so u = 0.5 lands mid-rank.
        let uz = Zipf::new(100, 0.0);
        let mid_rank = uz.cdf.partition_point(|&c| c < 0.5);
        assert!((49..=51).contains(&mid_rank));
    }
}
