//! The benchmark's query inputs: data-driven rect, halfspace and ball
//! queries over the benchmark dataset (the paper's Section 4 conventions),
//! and a Zipf sampler for repeated-key traffic.

use rand::rngs::StdRng;
use rand::Rng;
use selearn_data::Dataset;
use selearn_geom::Range;
use selearn_serve::{Request, Shape};

/// Shape families in a mixed stream, cycled by draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Rect,
    Halfspace,
    Ball,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Rect, Kind::Halfspace, Kind::Ball];
}

/// Draws one query of `kind` centred on a uniformly drawn data tuple:
/// side lengths `U[0, 1]` per dimension (clipped to the unit cube), a
/// uniformly oriented halfspace through the centre, or a ball of radius
/// `U[0, max_radius]`.
pub fn draw(data: &Dataset, kind: Kind, max_radius: f64, rng: &mut StdRng) -> Shape {
    let center = data.row(rng.gen_range(0..data.len())).to_vec();
    match kind {
        Kind::Rect => {
            let mut lo = Vec::with_capacity(center.len());
            let mut hi = Vec::with_capacity(center.len());
            for &c in &center {
                let w: f64 = rng.gen();
                lo.push((c - w / 2.0).max(0.0));
                hi.push((c + w / 2.0).min(1.0));
            }
            Shape::Rect { lo, hi }
        }
        Kind::Halfspace => {
            // A uniform direction in 2-D and higher: normalised Gaussian.
            let mut normal: Vec<f64> = center
                .iter()
                .map(|_| selearn_data::synth::standard_normal(rng))
                .collect();
            let norm = normal.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            normal.iter_mut().for_each(|x| *x /= norm);
            let offset = normal.iter().zip(&center).map(|(n, c)| n * c).sum();
            Shape::Halfspace { normal, offset }
        }
        Kind::Ball => {
            let radius = (rng.gen::<f64>() * max_radius).max(1e-3);
            Shape::Ball { center, radius }
        }
    }
}

/// The evaluable range of a generated shape (generated shapes are always
/// valid).
pub fn range(shape: &Shape) -> Range {
    shape
        .to_range()
        .unwrap_or_else(|e| panic!("generated an invalid query: {e}"))
}

/// An estimate request for `model`.
pub fn request(model: &str, shape: Shape) -> Request {
    Request {
        est: model.to_string(),
        shape,
        id: None,
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `(k + 1)^-s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().unwrap_or(&1.0);
        let u = rng.gen::<f64>() * total;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}
