//! Flat storage of an enumerated index set and its lexicographic rank
//! index: point ids are lexicographic ranks, and `id_of` is a walk down
//! the loop levels with one bounds-checked array read per level.

use crate::Error;
use loom_loopir::{IterSpace, Point};
use std::fmt;
use std::ops::Index;

/// A read-only view of enumerated index points stored flat, `dim`
/// coordinates per point; `points[id]` is the point with id `id`.
#[derive(Clone, Copy)]
pub struct Points<'a> {
    coords: &'a [i64],
    dim: usize,
}

impl<'a> Points<'a> {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// `true` iff there are no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The points in id order.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, i64> {
        self.coords.chunks_exact(self.dim)
    }

    /// The points as owned vectors, in id order.
    pub fn to_vec(&self) -> Vec<Point> {
        self.iter().map(<[i64]>::to_vec).collect()
    }
}

impl fmt::Debug for Points<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Compares point by point with a list of owned points.
impl PartialEq<&[Point]> for Points<'_> {
    fn eq(&self, other: &&[Point]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == &b[..])
    }
}

impl Index<usize> for Points<'_> {
    type Output = [i64];

    fn index(&self, id: usize) -> &[i64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }
}

/// The index set enumerated in lexicographic order: flat coordinates
/// plus the rank index that maps a point back to its id.
///
/// The rank index has one node per valid index prefix at each level
/// (the root is the empty prefix). A node holds loop `j`'s range
/// `[lo, lo + len)` under its prefix and the position of its first
/// child at level `j + 1`; the children of a node are contiguous, one
/// per value of `i_j`, so the child for `x` sits at `first + (x − lo)`.
/// At the innermost level `first` is the id of the row's first point.
/// Empty inner loops get nodes with `len = 0`, so every lookup stays
/// exact on triangular spaces.
#[derive(Clone, Debug)]
pub(crate) struct Lattice {
    dim: usize,
    coords: Vec<i64>,
    levels: Vec<Vec<Node>>,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    lo: i64,
    len: u64,
    first: usize,
}

impl Lattice {
    /// Enumerate `space`. The points are counted first with checked
    /// arithmetic and the coordinate buffer is reserved in one fallible
    /// allocation, so a space too large for memory is an error, not an
    /// abort.
    pub(crate) fn new(space: &IterSpace) -> Result<Lattice, Error> {
        let dim = space.dim();
        let points = space
            .count_up_to(usize::MAX)
            .ok_or(Error::TooLarge { points: None })?;
        if points == 0 {
            return Err(Error::EmptySpace);
        }
        let too_large = || Error::TooLarge {
            points: Some(points),
        };
        let words = points.checked_mul(dim).ok_or_else(too_large)?;
        let mut coords = Vec::new();
        coords.try_reserve_exact(words).map_err(|_| too_large())?;
        let mut lattice = Lattice {
            dim,
            coords,
            levels: vec![Vec::new(); dim],
        };
        lattice.walk(space, 0, &mut vec![0; dim]);
        Ok(lattice)
    }

    /// Depth-first walk below `prefix[..level]`: one node for the
    /// prefix, then its children (or, at the innermost level, its row
    /// of points) in lexicographic order.
    fn walk(&mut self, space: &IterSpace, level: usize, prefix: &mut [i64]) {
        // Bounds only reference outer indices, already set in `prefix`.
        let lo = space.lower(level).eval(prefix);
        let hi = space.upper(level).eval(prefix);
        let len = if lo > hi {
            0
        } else {
            hi.abs_diff(lo).saturating_add(1)
        };
        let last = level + 1 == self.dim;
        let first = if last {
            self.coords.len() / self.dim
        } else {
            self.levels[level + 1].len()
        };
        self.levels[level].push(Node { lo, len, first });
        if len == 0 {
            return;
        }
        if last {
            for x in lo..=hi {
                self.coords.extend_from_slice(&prefix[..level]);
                self.coords.push(x);
            }
        } else {
            for x in lo..=hi {
                prefix[level] = x;
                self.walk(space, level + 1, prefix);
            }
        }
    }

    /// The points, in id order.
    pub(crate) fn points(&self) -> Points<'_> {
        Points {
            coords: &self.coords,
            dim: self.dim,
        }
    }

    /// Coordinates of point `id`.
    pub(crate) fn point(&self, id: usize) -> &[i64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Id of the point whose coordinate `j` is `coord(j)`, if it lies in
    /// the space; `coord` returns `None` for a coordinate that cannot be
    /// formed (an overflowed `p ± d`). One node read per level, no hash
    /// and no allocation.
    pub(crate) fn rank(&self, coord: impl Fn(usize) -> Option<i64>) -> Option<usize> {
        let mut node = 0;
        for (j, level) in self.levels.iter().enumerate() {
            let Node { lo, len, first } = level[node];
            let off = coord(j)?.checked_sub(lo)?;
            if off < 0 || off as u64 >= len {
                return None;
            }
            node = first + off as usize;
        }
        Some(node)
    }
}
