//! Session clustering over token-DLD (paper §6).
//!
//! The paper runs "K-Means using the \[DLD\] scoring function" over the
//! pairwise distance matrix — i.e. centroids are data points, which is
//! K-medoids. We implement weighted K-medoids (PAM-style alternating
//! assignment/update) over *unique session signatures* weighted by session
//! count: clustering identical sessions repeatedly is pure waste, and the
//! weighting keeps every statistic identical to clustering the raw
//! sessions. Cluster-count selection uses the same two diagnostics as the
//! paper: the WCSS elbow and the silhouette score.
//!
//! The hot path is rebuilt for scale (see DESIGN.md §12): signature tokens
//! are interned to dense `u32` ids so DLD compares registers instead of
//! heap strings; the matrix stores only the packed upper triangle
//! (`n(n+1)/2` cells — half the memory and half the DLD calls); the build
//! is tiled over an atomic-cursor scheduler with per-worker reusable DP
//! scratch; and [`k_medoids`] caches per-cluster member lists plus
//! FastPAM-style nearest/second-nearest medoid distances so later rounds
//! only touch clusters whose medoid actually moved. Every optimisation is
//! pinned exactly equivalent to the pre-optimisation path (kept verbatim
//! in [`naive`]) by `tests/prop_cluster.rs` — same cells, same
//! `assignment`, same `medoids`, at every thread count.

use crate::dld::{dld_banded, dld_with_scratch, DldScratch};
use crate::intern::Interner;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Read-only pairwise-distance lookup, implemented by both the packed
/// [`DistanceMatrix`] and the dense [`naive::DenseMatrix`] so the naive
/// clustering oracle can run over either representation.
pub trait DistanceLookup: Sync {
    /// Number of points.
    fn len(&self) -> usize;
    /// Distance between points `i` and `j`.
    fn get(&self, i: usize, j: usize) -> f64;
    /// Whether the matrix is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A symmetric distance matrix over `n` points, stored as the packed
/// upper triangle (diagonal included): `n(n+1)/2` cells.
pub struct DistanceMatrix {
    n: usize,
    /// Row-major packed upper triangle: row `i` holds `d(i, i..n)`.
    d: Vec<f64>,
}

impl DistanceMatrix {
    /// Below this many signatures [`Self::build`] skips thread spawning
    /// entirely — the whole triangle is cheaper than a spawn.
    pub const SERIAL_THRESHOLD: usize = 256;

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        // Row `a` starts after the a previous rows of n, n-1, … cells:
        // offset = Σ_{r<a}(n−r) = a(2n−a+1)/2.
        self.d[a * (2 * self.n - a + 1) / 2 + (b - a)]
    }

    /// The packed upper triangle, row-major (row `i` = `d(i, i..n)`).
    pub fn as_packed(&self) -> &[f64] {
        &self.d
    }

    /// The default worker count: every core the host offers.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    }

    /// Builds the normalized token-DLD matrix: interned tokens, packed
    /// triangle, serial below [`Self::SERIAL_THRESHOLD`] points, otherwise
    /// tiled across [`Self::default_threads`] workers.
    pub fn build(signatures: &[Vec<String>]) -> Self {
        let threads = if signatures.len() < Self::SERIAL_THRESHOLD {
            1
        } else {
            Self::default_threads()
        };
        Self::build_with_threads(signatures, threads)
    }

    /// Exact build with an explicit worker count (`1` = fully serial; no
    /// size threshold is applied). Output is identical for every count.
    pub fn build_with_threads(signatures: &[Vec<String>], threads: usize) -> Self {
        Self::build_inner(signatures, threads, None)
    }

    /// Band-limited approximate build: a cell whose normalized distance
    /// exceeds `cap` is stored as `1.0` instead of its exact value. Cells
    /// at or under the cap are exact (Ukkonen banding is lossless within
    /// the band), so "near" structure — the part clustering relies on —
    /// is preserved while far pairs exit the DP early or skip it entirely
    /// via the length lower bound.
    pub fn build_banded(signatures: &[Vec<String>], threads: usize, cap: f64) -> Self {
        Self::build_inner(signatures, threads, Some(cap))
    }

    fn build_inner(signatures: &[Vec<String>], threads: usize, cap: Option<f64>) -> Self {
        let n = signatures.len();
        let (_, ids) = Interner::intern_signatures(signatures);
        let mut d = vec![0.0f64; n * (n + 1) / 2];
        if n > 0 {
            if threads <= 1 {
                let mut scratch = DldScratch::new();
                fill_rows(&ids, 0, n, &mut d, &mut scratch, cap);
            } else {
                build_tiled(&ids, &mut d, threads, cap);
            }
        }
        Self { n, d }
    }
}

impl DistanceLookup for DistanceMatrix {
    fn len(&self) -> usize {
        self.n
    }
    fn get(&self, i: usize, j: usize) -> f64 {
        DistanceMatrix::get(self, i, j)
    }
}

/// One packed-triangle cell: exact normalized DLD, or the band-capped
/// variant when `cap` is set.
#[inline]
fn cell(a: &[u32], b: &[u32], scratch: &mut DldScratch, cap: Option<f64>) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 0.0;
    }
    match cap {
        None => dld_with_scratch(a, b, scratch) as f64 / max as f64,
        Some(cap) => {
            let band = (cap * max as f64).floor() as usize;
            match dld_banded(a, b, band) {
                Some(d) => d as f64 / max as f64,
                None => 1.0,
            }
        }
    }
}

/// Fills the packed cells of triangle rows `r0..r1` into `out`, which must
/// be exactly those rows' contiguous packed range.
fn fill_rows(
    ids: &[Vec<u32>],
    r0: usize,
    r1: usize,
    out: &mut [f64],
    scratch: &mut DldScratch,
    cap: Option<f64>,
) {
    let n = ids.len();
    let mut off = 0usize;
    for i in r0..r1 {
        let a = &ids[i];
        let row = &mut out[off..off + (n - i)];
        for (j, slot) in (i..n).zip(row.iter_mut()) {
            *slot = if j == i {
                0.0
            } else {
                cell(a, &ids[j], scratch, cap)
            };
        }
        off += n - i;
    }
}

/// Tiled parallel build: the triangle is cut into row blocks of roughly
/// equal *cell* count (fixed-height blocks load-balance badly once only
/// the triangle is computed — early rows are long, late rows short), and
/// workers pull blocks off an atomic cursor, as `sessiondb::Store`'s
/// parallel scans pull segments. Each worker reuses one DP scratch across
/// every pair it computes.
fn build_tiled(ids: &[Vec<u32>], d: &mut [f64], threads: usize, cap: Option<f64>) {
    let n = ids.len();
    let target = d.len().div_ceil(threads * 8).max(32);
    let mut tiles: Vec<Mutex<(usize, usize, &mut [f64])>> = Vec::new();
    let mut rest = d;
    let mut row = 0usize;
    while row < n {
        let (mut end, mut cells) = (row, 0usize);
        while end < n && cells < target {
            cells += n - end;
            end += 1;
        }
        let (head, tail) = rest.split_at_mut(cells);
        tiles.push(Mutex::new((row, end, head)));
        rest = tail;
        row = end;
    }
    let cursor = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut scratch = DldScratch::new();
                loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(tile) = tiles.get(t) else {
                        break;
                    };
                    let mut guard = tile.lock().expect("tile lock");
                    let (r0, r1, out) = &mut *guard;
                    fill_rows(ids, *r0, *r1, out, &mut scratch, cap);
                }
            });
        }
    })
    .expect("distance workers never panic");
}

/// A clustering result.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster index per point.
    pub assignment: Vec<usize>,
    /// Medoid point index per cluster.
    pub medoids: Vec<usize>,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Members of cluster `c`.
    pub fn members(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(move |(_, a)| **a == c)
            .map(|(i, _)| i)
    }
}

/// Fixed-capacity bitset over point indices (medoid-seeding "already
/// chosen" membership — replaces the `medoids.contains(&i)` linear scan).
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }
    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }
}

/// `(d1, c1) < (d2, c2)` lexicographically — the order under which "first
/// minimal index of an in-order scan" and "minimum" coincide, which is
/// what keeps the cached-assignment path identical to the naive rescan.
#[inline]
fn lex_lt(d1: f64, c1: usize, d2: f64, c2: usize) -> bool {
    d1 < d2 || (d1 == d2 && c1 < c2)
}

/// Applies cluster `c`'s medoid move (point-to-new-medoid distance
/// `d_new`) to one point's cached nearest/second-nearest pair. Returns
/// `true` when the top-2 cache cannot be maintained locally (the true
/// second-nearest may be the untracked third) and a full rescan of that
/// point is required.
#[inline]
fn apply_move(
    d_new: f64,
    c: usize,
    dn: &mut f64,
    nc: &mut usize,
    ds: &mut f64,
    sc: &mut usize,
) -> bool {
    if c == *nc {
        if !lex_lt(*ds, *sc, d_new, c) {
            // Still (lexicographically) ahead of the second: stays nearest.
            *dn = d_new;
            false
        } else {
            true
        }
    } else if c == *sc {
        if lex_lt(d_new, c, *dn, *nc) {
            *ds = *dn;
            *sc = *nc;
            *dn = d_new;
            *nc = c;
            false
        } else if d_new <= *ds {
            // Second got closer (every other cluster was already ≥ the
            // old second in lexicographic order, so it keeps the slot).
            *ds = d_new;
            false
        } else {
            true
        }
    } else if lex_lt(d_new, c, *dn, *nc) {
        *ds = *dn;
        *sc = *nc;
        *dn = d_new;
        *nc = c;
        false
    } else if lex_lt(d_new, c, *ds, *sc) {
        *ds = d_new;
        *sc = c;
        false
    } else {
        false
    }
}

/// Weighted K-medoids over a distance matrix. Deterministic under `seed`,
/// and — by construction and by property test — `assignment`/`medoids`
/// identical to [`naive::k_medoids`] for every input.
pub fn k_medoids(m: &DistanceMatrix, weights: &[u64], k: usize, seed: u64) -> Clustering {
    let n = m.len();
    assert_eq!(weights.len(), n, "one weight per point");
    assert!(k >= 1, "need at least one cluster");
    let k = k.min(n.max(1));
    if n == 0 {
        return Clustering {
            assignment: vec![],
            medoids: vec![],
        };
    }
    // k-means++-style farthest-point seeding, weight-aware and seeded.
    // Nearest-chosen-medoid distances are maintained incrementally (one
    // `min` per point per new medoid) instead of re-folded per candidate.
    let mut medoids = Vec::with_capacity(k);
    let mut seen = BitSet::new(n);
    let first = (hutil::rng::derive_seed(seed, "kmedoids-init") % n as u64) as usize;
    medoids.push(first);
    seen.insert(first);
    let mut near_seed = vec![0.0f64; n];
    for (i, slot) in near_seed.iter_mut().enumerate() {
        *slot = m.get(i, first);
    }
    while medoids.len() < k {
        // Pick the point with the largest weighted distance to its nearest
        // chosen medoid (deterministic farthest-point).
        let mut best = (0usize, -1.0f64);
        for (i, &w) in weights.iter().enumerate() {
            if seen.contains(i) {
                continue;
            }
            let score = near_seed[i] * w as f64;
            if score > best.1 {
                best = (i, score);
            }
        }
        let next = best.0;
        medoids.push(next);
        seen.insert(next);
        for (i, slot) in near_seed.iter_mut().enumerate() {
            *slot = slot.min(m.get(i, next));
        }
    }

    // Full nearest/second-nearest scan of one point, lexicographic on
    // (distance, cluster index) — identical winner to the in-order
    // first-minimum scan of the naive assignment step.
    let scan = |i: usize, medoids: &[usize]| -> (f64, usize, f64, usize) {
        let (mut dn, mut nc) = (f64::INFINITY, usize::MAX);
        let (mut ds, mut sc) = (f64::INFINITY, usize::MAX);
        for (c, &med) in medoids.iter().enumerate() {
            let d = m.get(i, med);
            if d < dn {
                ds = dn;
                sc = nc;
                dn = d;
                nc = c;
            } else if d < ds {
                ds = d;
                sc = c;
            }
        }
        (dn, nc, ds, sc)
    };

    let mut assignment = vec![0usize; n];
    let (mut dn, mut nc) = (vec![0.0f64; n], vec![0usize; n]);
    let (mut ds, mut sc) = (vec![0.0f64; n], vec![0usize; n]);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut moved: Vec<usize> = Vec::new();
    let mut first_round = true;
    for _round in 0..50 {
        // Assign: full scan on the first round, then cache maintenance
        // touching only clusters whose medoid moved last round.
        if std::mem::take(&mut first_round) {
            for i in 0..n {
                (dn[i], nc[i], ds[i], sc[i]) = scan(i, &medoids);
            }
        } else {
            for i in 0..n {
                for &c in &moved {
                    let d_new = m.get(i, medoids[c]);
                    if apply_move(d_new, c, &mut dn[i], &mut nc[i], &mut ds[i], &mut sc[i]) {
                        // Rescan reflects *all* moved medoids at once; the
                        // remaining applies for this point are no-ops.
                        (dn[i], nc[i], ds[i], sc[i]) = scan(i, &medoids);
                    }
                }
            }
        }
        let mut changed = false;
        for (slot, &best_c) in assignment.iter_mut().zip(nc.iter()) {
            if *slot != best_c {
                *slot = best_c;
                changed = true;
            }
        }
        // Update medoids over member lists gathered in one O(n) pass
        // (the naive path re-filters all n points once per cluster).
        for list in &mut members {
            list.clear();
        }
        for (i, &c) in assignment.iter().enumerate() {
            members[c].push(i);
        }
        moved.clear();
        let mut updated = false;
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let list = &members[c];
            if list.is_empty() {
                continue;
            }
            let mut best = (*medoid, f64::MAX);
            for &cand in list {
                let cost: f64 = list
                    .iter()
                    .map(|&j| m.get(cand, j) * weights[j] as f64)
                    .sum();
                if cost < best.1 {
                    best = (cand, cost);
                }
            }
            if best.0 != *medoid {
                *medoid = best.0;
                updated = true;
                moved.push(c);
            }
        }
        if !changed && !updated {
            break;
        }
    }
    Clustering {
        assignment,
        medoids,
    }
}

/// Weighted within-cluster sum of squared distances to the medoid.
pub fn wcss(m: &DistanceMatrix, weights: &[u64], cl: &Clustering) -> f64 {
    cl.assignment
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let d = m.get(i, cl.medoids[c]);
            d * d * weights[i] as f64
        })
        .sum()
}

/// Weighted mean silhouette score in `[-1, 1]`; higher is better.
/// Single-member clusters contribute 0, the usual convention.
pub fn silhouette(m: &DistanceMatrix, weights: &[u64], cl: &Clustering) -> f64 {
    let n = m.len();
    let k = cl.k();
    if n == 0 || k < 2 {
        return 0.0;
    }
    // Weighted mean distance from i to each cluster. The per-cluster
    // accumulators are hoisted out of the O(n²) loop and zeroed per point.
    let mut total_w = 0.0;
    let mut total_s = 0.0;
    let mut sums = vec![0.0f64; k];
    let mut ws = vec![0.0f64; k];
    for i in 0..n {
        sums.fill(0.0);
        ws.fill(0.0);
        for (j, &wj) in weights.iter().enumerate().take(n) {
            if i == j {
                continue;
            }
            let c = cl.assignment[j];
            sums[c] += m.get(i, j) * wj as f64;
            ws[c] += wj as f64;
        }
        let own = cl.assignment[i];
        // Own-cluster weight excluding i itself but counting i's own
        // multiplicity minus one (duplicates of i are distance 0 anyway);
        // saturating so a zero-weight point cannot wrap to ~1.8e19.
        let own_extra = weights[i].saturating_sub(1) as f64;
        let a_den = ws[own] + own_extra;
        let a = if a_den > 0.0 { sums[own] / a_den } else { 0.0 };
        let b = (0..k)
            .filter(|&c| c != own && ws[c] > 0.0)
            .map(|c| sums[c] / ws[c])
            .fold(f64::MAX, f64::min);
        if b == f64::MAX {
            continue;
        }
        let s = if a_den > 0.0 {
            (b - a) / a.max(b).max(f64::MIN_POSITIVE)
        } else {
            0.0
        };
        total_s += s * weights[i] as f64;
        total_w += weights[i] as f64;
    }
    if total_w > 0.0 {
        total_s / total_w
    } else {
        0.0
    }
}

/// Runs the k-sweep used for cluster-count selection: returns
/// `(k, wcss, silhouette)` per candidate.
pub fn sweep_k(
    m: &DistanceMatrix,
    weights: &[u64],
    ks: &[usize],
    seed: u64,
) -> Vec<(usize, f64, f64)> {
    ks.iter()
        .map(|&k| {
            let cl = k_medoids(m, weights, k, seed);
            (k, wcss(m, weights, &cl), silhouette(m, weights, &cl))
        })
        .collect()
}

/// Elbow pick: the k whose WCSS curve has maximum discrete curvature
/// (second difference).
///
/// **Precondition:** `points` must be sorted by k ascending (as
/// [`sweep_k`] returns them) — the second difference of an unsorted curve
/// is meaningless. Debug builds assert this.
pub fn select_k_elbow(points: &[(usize, f64)]) -> usize {
    debug_assert!(
        points.windows(2).all(|w| w[0].0 < w[1].0),
        "select_k_elbow expects points sorted by k ascending"
    );
    if points.len() < 3 {
        return points.last().map_or(1, |p| p.0);
    }
    let mut best = (points[1].0, f64::MIN);
    for w in points.windows(3) {
        let curv = w[0].1 - 2.0 * w[1].1 + w[2].1;
        if curv > best.1 {
            best = (w[1].0, curv);
        }
    }
    best.0
}

/// Orders cluster indices by ascending mean token count of their members —
/// the paper's presentation order (Cluster 1 shortest … Cluster 90 longest).
pub fn order_by_avg_tokens(
    signatures: &[Vec<String>],
    weights: &[u64],
    cl: &Clustering,
) -> Vec<usize> {
    let mut stats = vec![(0.0f64, 0.0f64); cl.k()];
    for (i, &c) in cl.assignment.iter().enumerate() {
        stats[c].0 += signatures[i].len() as f64 * weights[i] as f64;
        stats[c].1 += weights[i] as f64;
    }
    let mut order: Vec<usize> = (0..cl.k()).collect();
    order.sort_by(|&a, &b| {
        let ma = if stats[a].1 > 0.0 {
            stats[a].0 / stats[a].1
        } else {
            f64::MAX
        };
        let mb = if stats[b].1 > 0.0 {
            stats[b].0 / stats[b].1
        } else {
            f64::MAX
        };
        ma.partial_cmp(&mb).expect("no NaN means")
    });
    order
}

pub mod naive {
    //! The pre-optimisation clustering path, kept verbatim: dense `n × n`
    //! matrix over heap `String` tokens (both triangle halves plus the
    //! diagonal), per-pair DP-row allocations, row-block thread chunking,
    //! `medoids.contains` seeding scans, and per-cluster member re-scans
    //! every round. It is the equivalence oracle for `tests/prop_cluster.rs`
    //! and the baseline the `cluster` bench measures speedups against.
    //! (The one deliberate divergence: [`silhouette`] carries the same
    //! zero-weight `saturating_sub` fix as the optimized path, so the two
    //! agree on *every* input.)

    use super::{Clustering, DistanceLookup};
    use crate::dld::normalized_dld;

    /// The original dense symmetric matrix: `n × n` cells, every one an
    /// independent [`normalized_dld`] over `Vec<String>` signatures.
    pub struct DenseMatrix {
        n: usize,
        d: Vec<f64>,
    }

    impl DenseMatrix {
        /// Number of points.
        pub fn len(&self) -> usize {
            self.n
        }

        /// Whether the matrix is empty.
        pub fn is_empty(&self) -> bool {
            self.n == 0
        }

        /// Distance between points `i` and `j`.
        #[inline]
        pub fn get(&self, i: usize, j: usize) -> f64 {
            self.d[i * self.n + j]
        }

        /// Builds the full dense matrix, splitting row blocks across up
        /// to 16 worker threads (each block is a disjoint `&mut` slice).
        pub fn build(signatures: &[Vec<String>]) -> Self {
            let n = signatures.len();
            let mut d = vec![0.0f64; n * n];
            let threads = std::thread::available_parallelism()
                .map_or(4, |p| p.get())
                .min(16);
            Self::build_rows(signatures, &mut d, threads);
            Self { n, d }
        }

        fn build_rows(signatures: &[Vec<String>], d: &mut [f64], threads: usize) {
            let n = signatures.len();
            if n == 0 {
                return;
            }
            let chunk_rows = n.div_ceil(threads.max(1)).max(1);
            crossbeam::thread::scope(|scope| {
                for (chunk_idx, rows) in d.chunks_mut(chunk_rows * n).enumerate() {
                    let base = chunk_idx * chunk_rows;
                    scope.spawn(move |_| {
                        for (r, row) in rows.chunks_mut(n).enumerate() {
                            let i = base + r;
                            for (j, cell) in row.iter_mut().enumerate() {
                                *cell = normalized_dld(&signatures[i], &signatures[j]);
                            }
                        }
                    });
                }
            })
            .expect("distance workers never panic");
        }
    }

    impl DistanceLookup for DenseMatrix {
        fn len(&self) -> usize {
            self.n
        }
        fn get(&self, i: usize, j: usize) -> f64 {
            DenseMatrix::get(self, i, j)
        }
    }

    /// The original weighted K-medoids, generic over the matrix
    /// representation so it can oracle either path.
    pub fn k_medoids<M: DistanceLookup>(m: &M, weights: &[u64], k: usize, seed: u64) -> Clustering {
        let n = m.len();
        assert_eq!(weights.len(), n, "one weight per point");
        assert!(k >= 1, "need at least one cluster");
        let k = k.min(n.max(1));
        if n == 0 {
            return Clustering {
                assignment: vec![],
                medoids: vec![],
            };
        }
        let mut medoids = Vec::with_capacity(k);
        let first = (hutil::rng::derive_seed(seed, "kmedoids-init") % n as u64) as usize;
        medoids.push(first);
        while medoids.len() < k {
            let mut best = (0usize, -1.0f64);
            for (i, &w) in weights.iter().enumerate().take(n) {
                if medoids.contains(&i) {
                    continue;
                }
                let near = medoids
                    .iter()
                    .map(|&c| m.get(i, c))
                    .fold(f64::MAX, f64::min);
                let score = near * w as f64;
                if score > best.1 {
                    best = (i, score);
                }
            }
            medoids.push(best.0);
        }

        let mut assignment = vec![0usize; n];
        for _round in 0..50 {
            let mut changed = false;
            for (i, slot) in assignment.iter_mut().enumerate().take(n) {
                let (best_c, _) = medoids
                    .iter()
                    .enumerate()
                    .map(|(c, &med)| (c, m.get(i, med)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN distances"))
                    .expect("k >= 1");
                if *slot != best_c {
                    *slot = best_c;
                    changed = true;
                }
            }
            let mut updated = false;
            for (c, medoid) in medoids.iter_mut().enumerate() {
                let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
                if members.is_empty() {
                    continue;
                }
                let mut best = (*medoid, f64::MAX);
                for &cand in &members {
                    let cost: f64 = members
                        .iter()
                        .map(|&j| m.get(cand, j) * weights[j] as f64)
                        .sum();
                    if cost < best.1 {
                        best = (cand, cost);
                    }
                }
                if best.0 != *medoid {
                    *medoid = best.0;
                    updated = true;
                }
            }
            if !changed && !updated {
                break;
            }
        }
        Clustering {
            assignment,
            medoids,
        }
    }

    /// The original weighted WCSS.
    pub fn wcss<M: DistanceLookup>(m: &M, weights: &[u64], cl: &Clustering) -> f64 {
        cl.assignment
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let d = m.get(i, cl.medoids[c]);
                d * d * weights[i] as f64
            })
            .sum()
    }

    /// The original weighted silhouette, per-point `vec![0.0; k]`
    /// allocations included (that is part of what the bench measures).
    pub fn silhouette<M: DistanceLookup>(m: &M, weights: &[u64], cl: &Clustering) -> f64 {
        let n = m.len();
        let k = cl.k();
        if n == 0 || k < 2 {
            return 0.0;
        }
        let mut total_w = 0.0;
        let mut total_s = 0.0;
        for i in 0..n {
            let mut sums = vec![0.0f64; k];
            let mut ws = vec![0.0f64; k];
            for (j, &wj) in weights.iter().enumerate().take(n) {
                if i == j {
                    continue;
                }
                let c = cl.assignment[j];
                sums[c] += m.get(i, j) * wj as f64;
                ws[c] += wj as f64;
            }
            let own = cl.assignment[i];
            let own_extra = weights[i].saturating_sub(1) as f64;
            let a_den = ws[own] + own_extra;
            let a = if a_den > 0.0 { sums[own] / a_den } else { 0.0 };
            let b = (0..k)
                .filter(|&c| c != own && ws[c] > 0.0)
                .map(|c| sums[c] / ws[c])
                .fold(f64::MAX, f64::min);
            if b == f64::MAX {
                continue;
            }
            let s = if a_den > 0.0 {
                (b - a) / a.max(b).max(f64::MIN_POSITIVE)
            } else {
                0.0
            };
            total_s += s * weights[i] as f64;
            total_w += weights[i] as f64;
        }
        if total_w > 0.0 {
            total_s / total_w
        } else {
            0.0
        }
    }

    /// The original k-sweep over the naive pieces.
    pub fn sweep_k<M: DistanceLookup>(
        m: &M,
        weights: &[u64],
        ks: &[usize],
        seed: u64,
    ) -> Vec<(usize, f64, f64)> {
        ks.iter()
            .map(|&k| {
                let cl = k_medoids(m, weights, k, seed);
                (k, wcss(m, weights, &cl), silhouette(m, weights, &cl))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Three well-separated behaviour families.
    fn corpus() -> (Vec<Vec<String>>, Vec<u64>) {
        let sigs = vec![
            sig("echo ok"),
            sig("echo ok now"),
            sig("uname -a"),
            sig("uname -a ; nproc"),
            sig("cd /tmp wget <URL> chmod <NAME> sh <NAME> rm <NAME>"),
            sig("cd /tmp wget <URL> chmod <NAME> sh <NAME>"),
            sig("cd /tmp curl <URL> chmod <NAME> sh <NAME> rm <NAME>"),
        ];
        let weights = vec![100, 5, 40, 4, 20, 10, 8];
        (sigs, weights)
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let (sigs, _) = corpus();
        let m = DistanceMatrix::build(&sigs);
        for i in 0..m.len() {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..m.len() {
                assert_eq!(m.get(i, j), m.get(j, i));
                assert!((0.0..=1.0).contains(&m.get(i, j)));
            }
        }
    }

    #[test]
    fn packed_matches_dense() {
        let (sigs, _) = corpus();
        let packed = DistanceMatrix::build(&sigs);
        let dense = naive::DenseMatrix::build(&sigs);
        for i in 0..sigs.len() {
            for j in 0..sigs.len() {
                assert_eq!(packed.get(i, j), dense.get(i, j), "({i},{j})");
            }
        }
        assert_eq!(packed.as_packed().len(), sigs.len() * (sigs.len() + 1) / 2);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (sigs, _) = corpus();
        let serial = DistanceMatrix::build_with_threads(&sigs, 1);
        for threads in [2, 3, 8] {
            let par = DistanceMatrix::build_with_threads(&sigs, threads);
            assert_eq!(par.as_packed(), serial.as_packed(), "threads={threads}");
        }
    }

    #[test]
    fn banded_build_is_exact_within_cap() {
        let (sigs, _) = corpus();
        let exact = DistanceMatrix::build(&sigs);
        let banded = DistanceMatrix::build_banded(&sigs, 1, 0.5);
        for i in 0..sigs.len() {
            for j in 0..sigs.len() {
                let e = exact.get(i, j);
                let b = banded.get(i, j);
                if e <= 0.5 {
                    assert_eq!(b, e, "({i},{j})");
                } else {
                    assert_eq!(b, 1.0, "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn k3_separates_families() {
        let (sigs, w) = corpus();
        let m = DistanceMatrix::build(&sigs);
        let cl = k_medoids(&m, &w, 3, 7);
        assert_eq!(cl.k(), 3);
        // Echo pair together, uname pair together, loaders together.
        assert_eq!(cl.assignment[0], cl.assignment[1]);
        assert_eq!(cl.assignment[2], cl.assignment[3]);
        assert_eq!(cl.assignment[4], cl.assignment[5]);
        assert_eq!(cl.assignment[4], cl.assignment[6]);
        assert_ne!(cl.assignment[0], cl.assignment[2]);
        assert_ne!(cl.assignment[0], cl.assignment[4]);
    }

    #[test]
    fn optimized_matches_naive_on_corpus() {
        let (sigs, w) = corpus();
        let m = DistanceMatrix::build(&sigs);
        for k in 1..=sigs.len() {
            for seed in [0, 1, 7, 42] {
                let fast = k_medoids(&m, &w, k, seed);
                let slow = naive::k_medoids(&m, &w, k, seed);
                assert_eq!(fast.assignment, slow.assignment, "k={k} seed={seed}");
                assert_eq!(fast.medoids, slow.medoids, "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn wcss_decreases_with_k() {
        let (sigs, w) = corpus();
        let m = DistanceMatrix::build(&sigs);
        let sweep = sweep_k(&m, &w, &[1, 2, 3, 4], 7);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "wcss must not increase: {:?}",
                sweep
            );
        }
        // Perfect k (= n) has zero WCSS.
        let cl = k_medoids(&m, &w, sigs.len(), 7);
        assert!(wcss(&m, &w, &cl) < 1e-12);
    }

    #[test]
    fn silhouette_prefers_the_natural_k() {
        let (sigs, w) = corpus();
        let m = DistanceMatrix::build(&sigs);
        let s3 = silhouette(&m, &w, &k_medoids(&m, &w, 3, 7));
        let s2 = silhouette(&m, &w, &k_medoids(&m, &w, 2, 7));
        assert!(s3 > 0.5, "natural clustering should score high: {s3}");
        assert!(s3 >= s2, "k=3 {s3} should beat k=2 {s2}");
    }

    #[test]
    fn silhouette_survives_zero_weights() {
        // Regression: `weights[i] - 1` used to wrap to ~1.8e19 for a
        // zero-weight point, silently crushing that point's `a` term.
        let (sigs, mut w) = corpus();
        w[1] = 0;
        w[3] = 0;
        let m = DistanceMatrix::build(&sigs);
        let cl = k_medoids(&m, &w, 3, 7);
        let s = silhouette(&m, &w, &cl);
        assert!((-1.0..=1.0).contains(&s), "score out of range: {s}");
        assert_eq!(s, naive::silhouette(&m, &w, &cl));
    }

    #[test]
    fn elbow_finds_the_knee() {
        // Synthetic steep-then-flat curve with knee at k=3.
        let pts = vec![(1, 100.0), (2, 40.0), (3, 8.0), (4, 6.0), (5, 5.0)];
        assert_eq!(select_k_elbow(&pts), 3);
        assert_eq!(select_k_elbow(&[(1, 5.0)]), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by k ascending")]
    fn elbow_rejects_unsorted_input_in_debug() {
        select_k_elbow(&[(3, 8.0), (1, 100.0), (2, 40.0)]);
    }

    #[test]
    fn clustering_is_deterministic() {
        let (sigs, w) = corpus();
        let m = DistanceMatrix::build(&sigs);
        let a = k_medoids(&m, &w, 3, 42);
        let b = k_medoids(&m, &w, 3, 42);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.medoids, b.medoids);
    }

    #[test]
    fn order_by_tokens_sorts_short_first() {
        let (sigs, w) = corpus();
        let m = DistanceMatrix::build(&sigs);
        let cl = k_medoids(&m, &w, 3, 7);
        let order = order_by_avg_tokens(&sigs, &w, &cl);
        // First ordered cluster is the echo family (2-3 tokens).
        let first = order[0];
        assert!(cl.members(first).any(|i| i == 0));
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let sigs = vec![sig("a"), sig("b")];
        let w = vec![1, 1];
        let m = DistanceMatrix::build(&sigs);
        let cl = k_medoids(&m, &w, 10, 1);
        assert_eq!(cl.k(), 2);
    }

    #[test]
    fn empty_input() {
        let m = DistanceMatrix::build(&[]);
        let cl = k_medoids(&m, &[], 3, 1);
        assert_eq!(cl.k(), 0);
        assert_eq!(wcss(&m, &[], &cl), 0.0);
        assert_eq!(silhouette(&m, &[], &cl), 0.0);
    }
}
