//! Rational Gaussian elimination — the fit half of the folding stage's
//! fit-and-verify affine recognition.
//!
//! Given sample rows `(x, y)` the folding stage asks: is there an affine
//! function `f(x) = a·x + b` matching all samples? [`fit_affine`] solves the
//! induced linear system exactly over rationals; the caller then *verifies*
//! the candidate on every further point.

use crate::rat::Rat;

/// Solve `A x = b` over the rationals (A is `rows × cols`, row-major).
///
/// Returns one solution if the system is consistent (free variables are set
/// to zero), `None` if inconsistent.
#[allow(clippy::needless_range_loop)] // row elimination needs two rows of `m` at once
pub fn solve_rational(a: &[Vec<Rat>], b: &[Rat]) -> Option<Vec<Rat>> {
    let rows = a.len();
    if rows == 0 {
        return Some(Vec::new());
    }
    let cols = a[0].len();
    // Augmented matrix.
    let mut m: Vec<Vec<Rat>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            assert_eq!(row.len(), cols, "ragged matrix");
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();

    let mut pivot_of_col: Vec<Option<usize>> = vec![None; cols];
    let mut rank = 0usize;
    for col in 0..cols {
        // Find a pivot.
        let Some(p) = (rank..rows).find(|&r| m[r][col] != Rat::ZERO) else {
            continue;
        };
        m.swap(rank, p);
        let inv = Rat::ONE / m[rank][col];
        for v in m[rank].iter_mut() {
            *v = *v * inv;
        }
        for r in 0..rows {
            if r != rank && m[r][col] != Rat::ZERO {
                let f = m[r][col];
                for cc in 0..=cols {
                    let sub = m[rank][cc] * f;
                    m[r][cc] = m[r][cc] - sub;
                }
            }
        }
        pivot_of_col[col] = Some(rank);
        rank += 1;
        if rank == rows {
            break;
        }
    }
    // Inconsistency: zero row with non-zero rhs.
    for row in m.iter().take(rows).skip(rank) {
        if row[..cols].iter().all(|&v| v == Rat::ZERO) && row[cols] != Rat::ZERO {
            return None;
        }
    }
    let mut x = vec![Rat::ZERO; cols];
    for (col, p) in pivot_of_col.iter().enumerate() {
        if let Some(r) = p {
            x[col] = m[*r][cols];
        }
    }
    Some(x)
}

/// Fit an affine function `f(p) = a·p + b` through integer samples
/// `(point, value)`. Returns `(a, b)` if a consistent affine fit exists for
/// *all* given samples, `None` otherwise.
pub fn fit_affine(samples: &[(Vec<i64>, i64)]) -> Option<(Vec<Rat>, Rat)> {
    let (first, _) = samples.first()?;
    let d = first.len();
    let a: Vec<Vec<Rat>> = samples
        .iter()
        .map(|(p, _)| {
            let mut row: Vec<Rat> = p.iter().map(|&v| Rat::int(v as i128)).collect();
            row.push(Rat::ONE); // the constant column
            row
        })
        .collect();
    let b: Vec<Rat> = samples.iter().map(|&(_, v)| Rat::int(v as i128)).collect();
    let sol = solve_rational(&a, &b)?;
    // Verify every sample (solve_rational guarantees consistency already,
    // but keep the check cheap and explicit).
    for (p, v) in samples {
        let mut acc = sol[d];
        for (i, &x) in p.iter().enumerate() {
            acc = acc + sol[i] * Rat::int(x as i128);
        }
        if acc != Rat::int(*v as i128) {
            return None;
        }
    }
    Some((sol[..d].to_vec(), sol[d]))
}

/// Incrementally maintained affine fit: the reduced row-echelon form of the
/// augmented sample system `[x | 1 | y]` is cached across pushes, so adding
/// one sample after a contradiction costs one row reduction (O(dim²))
/// instead of re-eliminating every retained sample from scratch
/// (O(samples · dim²)) the way repeated [`fit_affine`] calls do.
///
/// The RREF of a matrix is unique, so [`solution`](Self::solution) returns
/// exactly the free-variables-zero solution [`solve_rational`] would produce
/// for the same rows, and [`rank`](Self::rank) equals the rank
/// `affine_rank`-style re-elimination would report (while consistent, the
/// augmented rank equals the coefficient rank).
///
/// The RREF lives in one flat buffer of `rank` rows, each `cols + 1` long
/// (coefficients, constant column, right-hand side) and ordered by pivot
/// column, so a row's pivot is found by scanning forward from the previous
/// row's. The buffer grows on demand — a fit that stays at rank 1 never
/// holds more than one row — and a push allocates nothing once it has room.
#[derive(Debug, Clone)]
pub struct IncrementalFit {
    /// Columns of the coefficient matrix: `dim` variables + the constant.
    cols: usize,
    /// The RREF rows, back to back; between pushes exactly `rank` of them.
    rows: Vec<Rat>,
    inconsistent: bool,
}

impl IncrementalFit {
    /// Empty system over `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        IncrementalFit {
            cols: dim + 1,
            rows: Vec::new(),
            inconsistent: false,
        }
    }

    /// Rank of the coefficient matrix `[x | 1]` accumulated so far (valid
    /// while the system is consistent).
    pub fn rank(&self) -> usize {
        self.rows.len() / (self.cols + 1)
    }

    /// False once a pushed sample contradicted the accumulated system.
    pub fn is_consistent(&self) -> bool {
        !self.inconsistent
    }

    /// Drop all cached rows (frees memory; the fit is no longer usable).
    pub fn clear(&mut self) {
        self.rows = Vec::new();
    }

    /// Pivot column of the stored row `r`: its first non-zero entry, which
    /// in RREF lies right of the previous row's pivot, so a walk over the
    /// rows in order scans from `from` = that pivot + 1.
    fn pivot(r: &[Rat], from: usize) -> usize {
        let skip = r[from..].iter().position(|&v| v != Rat::ZERO);
        from + skip.expect("a stored RREF row has a pivot")
    }

    /// Add one sample row `a·x + b = y`. Returns `false` (latching
    /// inconsistency) when the row contradicts the accumulated system, or
    /// when reducing it would take exact arithmetic out of `i128` — either
    /// way no affine fit is known from then on. Redundant rows are dropped
    /// without growing the RREF.
    pub fn push(&mut self, x: &[i64], y: i64) -> bool {
        if self.inconsistent {
            return false;
        }
        if self.try_push(x, y) != Some(true) {
            self.inconsistent = true;
            self.rows.clear();
            return false;
        }
        true
    }

    /// [`push`](Self::push) in checked arithmetic: `Some(false)` on a
    /// contradiction, `None` on overflow (the rows are then unusable).
    fn try_push(&mut self, x: &[i64], y: i64) -> Option<bool> {
        let cols = self.cols;
        let stride = cols + 1;
        debug_assert_eq!(x.len() + 1, cols, "sample dimensionality changed");
        // The new row goes at the tail and is reduced in place there.
        let stored = self.rows.len();
        self.rows.reserve(stride);
        self.rows.extend(x.iter().map(|&v| Rat::int(v as i128)));
        self.rows.push(Rat::ONE);
        self.rows.push(Rat::int(y as i128));
        let (rows, row) = self.rows.split_at_mut(stored);
        // Reduce against the cached pivot rows. Each stored row is 1 at its
        // pivot and 0 at every other pivot, so order does not matter.
        let mut pc = 0;
        for r in rows.chunks_exact(stride) {
            pc = Self::pivot(r, pc);
            let f = row[pc];
            if f != Rat::ZERO {
                for c in pc..=cols {
                    row[c] = row[c].checked_sub(r[c].checked_mul(f)?)?;
                }
            }
            pc += 1;
        }
        let Some(pc) = (0..cols).find(|&c| row[c] != Rat::ZERO) else {
            let consistent = row[cols] == Rat::ZERO;
            self.rows.truncate(stored); // redundant, or a contradiction
            return Some(consistent);
        };
        let inv = Rat::ONE.checked_div(row[pc])?;
        for v in row.iter_mut() {
            *v = v.checked_mul(inv)?;
        }
        // Back-substitute the new pivot into the cached rows to keep RREF,
        // counting the rows whose pivot precedes the new one.
        let (mut at, mut rpc) = (0, 0);
        for r in rows.chunks_exact_mut(stride) {
            rpc = Self::pivot(r, rpc);
            at += usize::from(rpc < pc);
            let f = r[pc];
            if f != Rat::ZERO {
                for c in pc..=cols {
                    r[c] = r[c].checked_sub(row[c].checked_mul(f)?)?;
                }
            }
            rpc += 1;
        }
        // Rotate the new row from the tail into its pivot slot.
        self.rows[at * stride..].rotate_right(stride);
        Some(true)
    }

    /// Write the free-variables-zero solution of the accumulated system
    /// into `coeffs` (`dim` long) and `c` — identical to what
    /// [`fit_affine`] returns for the same samples. Returns `false`, leaving
    /// both untouched, if the system is inconsistent or empty.
    pub fn solution_into(&self, coeffs: &mut [Rat], c: &mut Rat) -> bool {
        let d = self.cols - 1;
        assert_eq!(coeffs.len(), d, "solution buffer of another dimension");
        if self.inconsistent || self.rows.is_empty() {
            return false;
        }
        coeffs.fill(Rat::ZERO);
        *c = Rat::ZERO;
        let mut pc = 0;
        for r in self.rows.chunks_exact(self.cols + 1) {
            pc = Self::pivot(r, pc);
            let rhs = r[self.cols];
            if pc < d {
                coeffs[pc] = rhs;
            } else {
                *c = rhs;
            }
            pc += 1;
        }
        true
    }

    /// [`solution_into`](Self::solution_into) into fresh buffers: `None` if
    /// inconsistent or empty.
    pub fn solution(&self) -> Option<(Vec<Rat>, Rat)> {
        let mut coeffs = vec![Rat::ZERO; self.cols - 1];
        let mut c = Rat::ZERO;
        self.solution_into(&mut coeffs, &mut c)
            .then_some((coeffs, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i128) -> Rat {
        Rat::int(v)
    }

    #[test]
    fn solves_square_system() {
        // x + y = 3, x - y = 1  →  x = 2, y = 1
        let a = vec![vec![r(1), r(1)], vec![r(1), r(-1)]];
        let b = vec![r(3), r(1)];
        assert_eq!(solve_rational(&a, &b), Some(vec![r(2), r(1)]));
    }

    #[test]
    fn detects_inconsistency() {
        // x + y = 1, x + y = 2
        let a = vec![vec![r(1), r(1)], vec![r(1), r(1)]];
        let b = vec![r(1), r(2)];
        assert_eq!(solve_rational(&a, &b), None);
    }

    #[test]
    fn underdetermined_picks_zero_free_vars() {
        // x + y = 4 with y free → x = 4, y = 0
        let a = vec![vec![r(1), r(1)]];
        let b = vec![r(4)];
        assert_eq!(solve_rational(&a, &b), Some(vec![r(4), r(0)]));
    }

    #[test]
    fn rational_solution() {
        // 2x = 1 → x = 1/2
        let a = vec![vec![r(2)]];
        let b = vec![r(1)];
        assert_eq!(solve_rational(&a, &b), Some(vec![Rat::new(1, 2)]));
    }

    #[test]
    fn fit_affine_exact() {
        // f(i, j) = 3i - 2j + 5
        let f = |i: i64, j: i64| 3 * i - 2 * j + 5;
        let samples: Vec<(Vec<i64>, i64)> = [(0, 0), (1, 0), (0, 1), (2, 3), (7, 7)]
            .iter()
            .map(|&(i, j)| (vec![i, j], f(i, j)))
            .collect();
        let (coeffs, c) = fit_affine(&samples).unwrap();
        assert_eq!(coeffs, vec![r(3), r(-2)]);
        assert_eq!(c, r(5));
    }

    #[test]
    fn fit_affine_rejects_nonaffine() {
        // f(i) = i²
        let samples: Vec<(Vec<i64>, i64)> = (0..5).map(|i| (vec![i], i * i)).collect();
        assert_eq!(fit_affine(&samples), None);
    }

    #[test]
    fn fit_affine_constant() {
        let samples: Vec<(Vec<i64>, i64)> = (0..4).map(|i| (vec![i], 7)).collect();
        let (coeffs, c) = fit_affine(&samples).unwrap();
        assert_eq!(coeffs, vec![r(0)]);
        assert_eq!(c, r(7));
    }

    #[test]
    fn fit_affine_empty_is_none() {
        assert_eq!(fit_affine(&[]), None);
    }

    #[test]
    fn fit_single_point_is_constant() {
        let (coeffs, c) = fit_affine(&[(vec![3, 4], 9)]).unwrap();
        // One sample: free coefficients default to 0, constant picks up
        // whatever the pivot chose — verify the fit holds.
        let acc = coeffs[0] * r(3) + coeffs[1] * r(4) + c;
        assert_eq!(acc, r(9));
    }

    /// The incremental RREF solution matches a from-scratch `fit_affine`
    /// after every push, on consistent affine samples.
    #[test]
    fn incremental_matches_batch_fit() {
        let f = |i: i64, j: i64| 3 * i - 2 * j + 5;
        let pts = [(0, 0), (1, 0), (0, 1), (2, 3), (7, 7)];
        let mut inc = IncrementalFit::new(2);
        let mut samples: Vec<(Vec<i64>, i64)> = Vec::new();
        for &(i, j) in &pts {
            samples.push((vec![i, j], f(i, j)));
            assert!(inc.push(&[i, j], f(i, j)));
            assert_eq!(Some(inc.solution().unwrap()), {
                let (a, b) = fit_affine(&samples).unwrap();
                Some((a, b))
            });
        }
        assert_eq!(inc.rank(), 3);
        assert_eq!(inc.solution(), Some((vec![r(3), r(-2)], r(5))));
    }

    /// Inconsistency latches: a contradicting row fails, and so does every
    /// later push.
    #[test]
    fn incremental_detects_inconsistency() {
        let mut inc = IncrementalFit::new(1);
        assert!(inc.push(&[0], 1));
        assert!(inc.push(&[1], 2));
        assert_eq!(inc.rank(), 2); // unique: v = i + 1
        assert!(!inc.push(&[2], 99));
        assert!(!inc.is_consistent());
        assert_eq!(inc.solution(), None);
        assert!(!inc.push(&[3], 4));
    }

    /// Redundant rows neither grow the rank nor perturb the solution.
    #[test]
    fn incremental_drops_redundant_rows() {
        let mut inc = IncrementalFit::new(2);
        assert!(inc.push(&[1, 1], 2));
        assert!(inc.push(&[2, 2], 4)); // v = i + j fits; row independent
        let rank = inc.rank();
        let sol = inc.solution();
        assert!(inc.push(&[1, 1], 2)); // exact duplicate: redundant
        assert_eq!(inc.rank(), rank);
        assert_eq!(inc.solution(), sol);
    }

    /// Rational solutions survive the incremental path (2x = 1 → x = 1/2).
    #[test]
    fn incremental_rational_solution() {
        let mut inc = IncrementalFit::new(1);
        assert!(inc.push(&[0], 0));
        assert!(inc.push(&[2], 1));
        let (coeffs, c) = inc.solution().unwrap();
        assert_eq!(coeffs, vec![Rat::new(1, 2)]);
        assert_eq!(c, Rat::ZERO);
    }
}
