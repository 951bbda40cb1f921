//! Order statistics and the result line.

/// A percentile with the sample count behind it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank `q`-quantile of `values` (sorted in place). Returns an
/// error unless at least ten samples lie beyond the quantile, so a tail
/// percentile is never read off a handful of points.
pub fn percentile(values: &mut [f64], q: f64, what: &str) -> Result<Pct, String> {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return Err(format!("{what}: no samples"));
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q < 1.0 && beyond < 10 {
        return Err(format!(
            "{what}: p{} needs ten samples beyond it, have {beyond} of {n}",
            q * 100.0
        ));
    }
    Ok(Pct {
        value: values[rank - 1],
        samples: n,
    })
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Metrics in the order they were added, rendered as the JSON object the
/// result line carries.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit `{:?}` gives (non-finite becomes null,
/// which the caller treats as a failed run before printing).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON literal.
pub fn quote(s: &str) -> String {
    let mut out = String::new();
    selearn_obs::json::escape_into(&mut out, s);
    out
}
