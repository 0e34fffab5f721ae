//! Visitors: what to do with each surviving point of a sweep.

use std::sync::Arc;

use beast_core::hash::{Fnv1a, FNV_PRIME};

use crate::point::{Point, PointRef};

/// A sink for surviving points. The engines call [`Visitor::visit`] once per
/// tuple that passes all pruning constraints.
pub trait Visitor {
    /// Called for each survivor.
    fn visit(&mut self, point: &PointRef<'_>);

    /// Merge another visitor of the same type into this one (used when
    /// joining per-thread visitors after a parallel sweep).
    fn merge(&mut self, other: Self)
    where
        Self: Sized;
}

/// Counts survivors; the cheapest visitor, used by all throughput benchmarks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountVisitor {
    /// Number of surviving points seen.
    pub count: u64,
}

impl Visitor for CountVisitor {
    #[inline]
    fn visit(&mut self, _point: &PointRef<'_>) {
        self.count += 1;
    }

    fn merge(&mut self, other: Self) {
        self.count += other.count;
    }
}

/// Collects survivors into owned [`Point`]s, up to a cap (spaces can have
/// millions of survivors; an unbounded collector would exhaust memory).
#[derive(Debug, Clone)]
pub struct CollectVisitor {
    names: Arc<[Arc<str>]>,
    /// Collected points, at most `cap`.
    pub points: Vec<Point>,
    /// Total survivors seen (may exceed `points.len()`).
    pub total: u64,
    cap: usize,
}

impl CollectVisitor {
    /// Collect at most `cap` points over the given variable names.
    pub fn new(names: Arc<[Arc<str>]>, cap: usize) -> CollectVisitor {
        CollectVisitor { names, points: Vec::new(), total: 0, cap }
    }

    /// True if the cap was hit and some survivors were dropped.
    pub fn truncated(&self) -> bool {
        self.total > self.points.len() as u64
    }
}

impl Visitor for CollectVisitor {
    fn visit(&mut self, point: &PointRef<'_>) {
        self.total += 1;
        if self.points.len() < self.cap {
            self.points.push(point.to_point(&self.names));
        }
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        for p in other.points {
            if self.points.len() >= self.cap {
                break;
            }
            self.points.push(p);
        }
    }
}

/// Order-sensitive FNV fingerprint of the survivor stream: each point is
/// hashed FNV-1a over its values, and the per-point hashes are chained with
/// a polynomial rolling hash. Two sweeps have equal fingerprints iff they
/// emitted the same points in the same order (modulo hash collisions), which
/// is exactly the determinism contract of the parallel driver — so this is
/// the visitor the fault-tolerance and resume tests (and `repro sweep`)
/// compare runs with.
///
/// Mergeable out of one pass: `H(A ‖ B) = H(A)·pᴸᴮ + H(B)` (wrapping), so
/// chunk-local fingerprints merged in chunk order equal the serial
/// fingerprint bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintVisitor {
    /// Rolling hash of the emission sequence so far.
    pub hash: u64,
    /// `p^count` (wrapping): the factor a following segment's hash is
    /// shifted by when merging.
    pub pow: u64,
    /// Number of points hashed.
    pub count: u64,
}

impl Default for FingerprintVisitor {
    fn default() -> Self {
        FingerprintVisitor { hash: 0, pow: 1, count: 0 }
    }
}

impl FingerprintVisitor {
    /// Fresh, empty fingerprint.
    pub fn new() -> Self {
        Self::default()
    }

    fn hash_point(point: &PointRef<'_>) -> u64 {
        let mut h = Fnv1a::new();
        match point {
            // The engines' survivors: integers straight from the slot file.
            PointRef::Slots { names, slots } => {
                for &x in &slots[..names.len()] {
                    h.write_i64(x);
                }
            }
            PointRef::Env { .. } => {
                for i in 0..point.names().len() {
                    match point.value(i) {
                        beast_core::value::Value::Int(x) => h.write_i64(x),
                        other => h.write_raw(other.to_string().as_bytes()),
                    }
                }
            }
        }
        h.finish()
    }
}

impl Visitor for FingerprintVisitor {
    fn visit(&mut self, point: &PointRef<'_>) {
        let h = Self::hash_point(point);
        self.hash = self.hash.wrapping_mul(FNV_PRIME).wrapping_add(h);
        self.pow = self.pow.wrapping_mul(FNV_PRIME);
        self.count += 1;
    }

    fn merge(&mut self, other: Self) {
        self.hash = self.hash.wrapping_mul(other.pow).wrapping_add(other.hash);
        self.pow = self.pow.wrapping_mul(other.pow);
        self.count += other.count;
    }
}

/// Keeps the best `k` survivors under a user score (higher is better) — the
/// autotuning selector: score with a performance model, keep the candidates
/// worth actually benchmarking.
pub struct BestK {
    names: Arc<[Arc<str>]>,
    k: usize,
    score: Arc<dyn Fn(&PointRef<'_>) -> f64 + Send + Sync>,
    /// (score, point) pairs, kept sorted descending by score.
    pub best: Vec<(f64, Point)>,
    /// Total survivors seen.
    pub total: u64,
}

impl BestK {
    /// Keep the `k` highest-scoring points.
    pub fn new(
        names: Arc<[Arc<str>]>,
        k: usize,
        score: impl Fn(&PointRef<'_>) -> f64 + Send + Sync + 'static,
    ) -> BestK {
        BestK { names, k, score: Arc::new(score), best: Vec::new(), total: 0 }
    }

    /// The single best point, if any survivor was seen.
    pub fn best_point(&self) -> Option<(f64, &Point)> {
        self.best.first().map(|(s, p)| (*s, p))
    }

    fn insert(&mut self, score: f64, point: Point) {
        let pos = self
            .best
            .partition_point(|(s, _)| *s >= score);
        if pos < self.k {
            self.best.insert(pos, (score, point));
            self.best.truncate(self.k);
        }
    }

    /// Clone the configuration (not the collected state) for a worker thread.
    pub fn fresh(&self) -> BestK {
        BestK {
            names: Arc::clone(&self.names),
            k: self.k,
            score: Arc::clone(&self.score),
            best: Vec::new(),
            total: 0,
        }
    }
}

impl Visitor for BestK {
    fn visit(&mut self, point: &PointRef<'_>) {
        self.total += 1;
        let s = (self.score)(point);
        if self.best.len() < self.k
            || s > self.best.last().map(|(x, _)| *x).unwrap_or(f64::NEG_INFINITY)
        {
            let p = point.to_point(&self.names);
            self.insert(s, p);
        }
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        for (s, p) in other.best {
            self.insert(s, p);
        }
    }
}

impl std::fmt::Debug for BestK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BestK")
            .field("k", &self.k)
            .field("total", &self.total)
            .field("best_len", &self.best.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::value::Value;

    fn names() -> Arc<[Arc<str>]> {
        Arc::from(vec![Arc::<str>::from("x")].into_boxed_slice())
    }

    fn visit_ints<V: Visitor>(v: &mut V, ints: &[i64]) {
        let ns = names();
        for &i in ints {
            let slots = [i];
            v.visit(&PointRef::Slots { names: &ns, slots: &slots });
        }
    }

    #[test]
    fn count_visitor_counts_and_merges() {
        let mut a = CountVisitor::default();
        visit_ints(&mut a, &[1, 2, 3]);
        let mut b = CountVisitor::default();
        visit_ints(&mut b, &[4]);
        a.merge(b);
        assert_eq!(a.count, 4);
    }

    #[test]
    fn collect_visitor_caps() {
        let mut c = CollectVisitor::new(names(), 2);
        visit_ints(&mut c, &[1, 2, 3, 4]);
        assert_eq!(c.points.len(), 2);
        assert_eq!(c.total, 4);
        assert!(c.truncated());
        assert_eq!(c.points[0].get("x"), Some(Value::Int(1)));
    }

    #[test]
    fn best_k_keeps_highest() {
        let mut b = BestK::new(names(), 2, |p| p.get("x").unwrap().as_int().unwrap() as f64);
        visit_ints(&mut b, &[5, 1, 9, 3, 7]);
        let scores: Vec<f64> = b.best.iter().map(|(s, _)| *s).collect();
        assert_eq!(scores, vec![9.0, 7.0]);
        assert_eq!(b.best_point().unwrap().0, 9.0);
        assert_eq!(b.total, 5);
    }

    #[test]
    fn best_k_merge() {
        let mut a = BestK::new(names(), 3, |p| p.get("x").unwrap().as_int().unwrap() as f64);
        visit_ints(&mut a, &[5, 1]);
        let mut b = a.fresh();
        visit_ints(&mut b, &[9, 2, 7]);
        a.merge(b);
        let scores: Vec<f64> = a.best.iter().map(|(s, _)| *s).collect();
        assert_eq!(scores, vec![9.0, 7.0, 5.0]);
        assert_eq!(a.total, 5);
    }

    #[test]
    fn fingerprint_merge_equals_serial() {
        let mut serial = FingerprintVisitor::new();
        visit_ints(&mut serial, &[1, 2, 3, 4, 5]);
        let mut a = FingerprintVisitor::new();
        visit_ints(&mut a, &[1, 2]);
        let mut b = FingerprintVisitor::new();
        visit_ints(&mut b, &[3, 4, 5]);
        a.merge(b);
        assert_eq!(a, serial);
        // Order sensitivity: swapping two points changes the hash.
        let mut swapped = FingerprintVisitor::new();
        visit_ints(&mut swapped, &[2, 1, 3, 4, 5]);
        assert_ne!(swapped.hash, serial.hash);
        assert_eq!(serial.count, 5);
    }
}
