//! Exhaustive search for an optimal legal time transformation.

use crate::time::TimeFn;
use crate::Error;
use loom_loopir::{IterSpace, Point};
use loom_obs::Recorder;

/// Configuration for [`find_optimal`].
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Coefficients are searched in `[-bound, bound]`. For constant
    /// dependence sets the optimal Π has small coefficients, so the
    /// default of 3 covers every loop in the paper with room to spare.
    pub bound: i64,
    /// Spaces with at most this many points are evaluated exactly; larger
    /// spaces use the coordinate bounding box (exact for rectangular
    /// spaces, an upper bound otherwise).
    pub exact_eval_limit: usize,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            bound: 3,
            exact_eval_limit: 100_000,
        }
    }
}

/// Number of steps Π needs on `space`, evaluated via the bounding box
/// (exact when the space is a box since the extremes of a linear function
/// over a box are attained at corners).
fn steps_via_bbox(pi: &TimeFn, bbox: &[(i64, i64)]) -> i64 {
    let (mut lo, mut hi) = (0i64, 0i64);
    for (a, &(l, h)) in pi.coeffs().iter().zip(bbox) {
        if l > h {
            return 0; // empty space
        }
        let (x, y) = (a * l, a * h);
        lo += x.min(y);
        hi += x.max(y);
    }
    hi - lo + 1
}

/// Find a legal Π minimizing the number of execution steps over `space`.
///
/// Ties are broken toward the smallest coefficient L1-norm, then
/// lexicographically smallest coefficient vector, so the result is
/// deterministic. With `D = {(0,1),(1,0),(1,1)}` on a square space this
/// returns the paper's `Π = (1,1)`.
pub fn find_optimal(
    deps: &[Point],
    space: &IterSpace,
    config: SearchConfig,
) -> Result<TimeFn, Error> {
    find_optimal_with(deps, space, config, &Recorder::disabled())
}

/// [`find_optimal`] with instrumentation: when `recorder` is enabled,
/// the search records a `hyperplane.search` span and the counters
/// `hyperplane.candidates` (coefficient vectors enumerated) and
/// `hyperplane.legal` (candidates legal for `deps`).
pub fn find_optimal_with(
    deps: &[Point],
    space: &IterSpace,
    config: SearchConfig,
    recorder: &Recorder,
) -> Result<TimeFn, Error> {
    let _span = recorder.span("hyperplane.search");
    let mut candidates = 0u64;
    let mut legal = 0u64;
    let n = space.dim();
    for d in deps {
        if d.len() != n {
            return Err(Error::DimMismatch {
                expected: n,
                found: d.len(),
            });
        }
        if d.iter().all(|&x| x == 0) {
            return Err(Error::ZeroDependence);
        }
    }

    let use_exact = space.count_up_to(config.exact_eval_limit).is_some();
    let bbox = space.bounding_box();

    let mut best: Option<(i64, i64, Vec<i64>)> = None; // (steps, l1, coeffs)
    let mut coeffs = vec![-config.bound; n];
    loop {
        candidates += 1;
        let pi = TimeFn::new(coeffs.clone());
        if pi.is_legal_for(deps) {
            legal += 1;
            let steps = if use_exact {
                pi.steps(space)
            } else {
                steps_via_bbox(&pi, &bbox)
            };
            let l1: i64 = coeffs.iter().map(|c| c.abs()).sum();
            let key = (steps, l1, coeffs.clone());
            if best.as_ref().is_none_or(|b| key < *b) {
                best = Some(key);
            }
        }
        // Odometer increment over the coefficient box.
        let mut k = n;
        loop {
            if k == 0 {
                recorder.add("hyperplane.candidates", candidates);
                recorder.add("hyperplane.legal", legal);
                let Some((_, _, c)) = best else {
                    return Err(Error::NotFound {
                        bound: config.bound,
                    });
                };
                return Ok(TimeFn::new(c));
            }
            k -= 1;
            if coeffs[k] < config.bound {
                coeffs[k] += 1;
                for c in &mut coeffs[k + 1..] {
                    *c = -config.bound;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_optimal_is_wavefront() {
        let deps = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        let space = IterSpace::rect(&[4, 4]).unwrap();
        let pi = find_optimal(&deps, &space, SearchConfig::default()).unwrap();
        assert_eq!(pi.coeffs(), &[1, 1]);
        assert_eq!(pi.steps(&space), 7);
    }

    #[test]
    fn matmul_optimal_is_wavefront() {
        let deps = vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]];
        let space = IterSpace::rect(&[4, 4, 4]).unwrap();
        let pi = find_optimal(&deps, &space, SearchConfig::default()).unwrap();
        assert_eq!(pi.coeffs(), &[1, 1, 1]);
    }

    #[test]
    fn single_dependence_allows_flat_schedule() {
        // Only (1, 0): Π = (1, 0) executes each outer iteration in one
        // step; the whole inner loop is parallel. Steps = 4 on 4×64.
        let deps = vec![vec![1, 0]];
        let space = IterSpace::rect(&[4, 64]).unwrap();
        let pi = find_optimal(&deps, &space, SearchConfig::default()).unwrap();
        assert_eq!(pi.coeffs(), &[1, 0]);
        assert_eq!(pi.steps(&space), 4);
    }

    #[test]
    fn negative_components_searchable() {
        // D = {(1, -1)} admits Π = (0, -1): a *negative* coefficient wins,
        // sweeping along decreasing j in only 4 steps on an 8×4 space.
        let deps = vec![vec![1, -1]];
        let space = IterSpace::rect(&[8, 4]).unwrap();
        let pi = find_optimal(&deps, &space, SearchConfig::default()).unwrap();
        assert!(pi.is_legal_for(&deps));
        assert_eq!(pi.coeffs(), &[0, -1]);
        assert_eq!(pi.steps(&space), 4);
    }

    #[test]
    fn contradictory_deps_not_found() {
        // (1,0) and (-1,0) cannot both have positive dot products.
        let deps = vec![vec![1, 0], vec![-1, 0]];
        let space = IterSpace::rect(&[4, 4]).unwrap();
        assert_eq!(
            find_optimal(&deps, &space, SearchConfig::default()),
            Err(Error::NotFound { bound: 3 })
        );
    }

    #[test]
    fn zero_dep_rejected() {
        let deps = vec![vec![0, 0]];
        let space = IterSpace::rect(&[4, 4]).unwrap();
        assert_eq!(
            find_optimal(&deps, &space, SearchConfig::default()),
            Err(Error::ZeroDependence)
        );
    }

    #[test]
    fn instrumented_search_counts_candidates() {
        let deps = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        let space = IterSpace::rect(&[4, 4]).unwrap();
        let rec = Recorder::enabled();
        let pi = find_optimal_with(&deps, &space, SearchConfig::default(), &rec).unwrap();
        assert_eq!(pi.coeffs(), &[1, 1]);
        let counters = rec.counters();
        // bound 3 → 7² coefficient vectors enumerated.
        assert_eq!(counters.get("hyperplane.candidates"), Some(&49));
        let &legal = counters.get("hyperplane.legal").unwrap();
        assert!(legal > 0 && legal < 49, "legal = {legal}");
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "hyperplane.search");
    }

    #[test]
    fn bbox_path_matches_exact_on_rect() {
        let deps = vec![vec![0, 1], vec![1, 0]];
        let space = IterSpace::rect(&[64, 64]).unwrap();
        let exact = find_optimal(
            &deps,
            &space,
            SearchConfig {
                exact_eval_limit: 100_000,
                ..Default::default()
            },
        )
        .unwrap();
        let bboxed = find_optimal(
            &deps,
            &space,
            SearchConfig {
                exact_eval_limit: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(exact, bboxed);
    }
}
