//! The element table: every array element a nest touches, interned once.
//!
//! Subscripts are affine in the iteration point, so the element each
//! access touches at each point is fixed before anything executes. The
//! table evaluates every (point, access) pair once, interns the
//! resulting `(array, subscript tuple)` addresses in a flat arena, and
//! numbers them in `(array name, subscript tuple)` lexicographic order.
//! Executors then read and write through dense ids: a [`Memory`] is a
//! `Vec<f64>` indexed by id, and an access is an array lookup instead of
//! an allocated key.
//!
//! Keys are the exact tuples, not offsets into a bounding box, so nests
//! with huge subscript strides intern as many elements as they touch.
//!
//! The table costs one `u32` per (point, access) pair plus the interned
//! tuples: O(points × accesses), more than a store that grows with the
//! elements alone when a nest touches few elements at many points
//! (matmul: N³ points, 3N² elements).
//!
//! [`Memory`]: crate::Memory

use loom_loopir::sem::Expr;
use loom_loopir::{Aff, LoopNest};
use loom_partition::ComputationalStructure;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// Marks an empty slot of the interning hash index.
const EMPTY: u32 = u32::MAX;

/// Interned array elements of one nest plus the element id of every
/// access at every iteration point.
///
/// Element ids run `0..len()` in `(array name, subscript tuple)` order,
/// the order a `BTreeMap<(String, Vec<i64>), _>` iterates in. Point ids
/// are positions in the point sequence the table was built from.
pub struct ElementTable {
    /// Distinct array names, sorted.
    arrays: Vec<String>,
    /// Ids of array `a` are `array_first[a]..array_first[a + 1]`.
    array_first: Vec<u32>,
    /// Subscripts of element `id` are `arena[starts[id]..starts[id + 1]]`.
    starts: Vec<usize>,
    arena: Vec<i64>,
    /// Per point, one row of element ids: for each statement its reads
    /// in order, then its write.
    accesses: Vec<u32>,
    /// Row offset of each statement's accesses, plus the row length.
    stmt_start: Vec<usize>,
    /// Each statement's semantics, resolved once.
    semantics: Vec<Expr>,
}

impl ElementTable {
    /// Intern every element the statements of `nest` touch at each of
    /// `points`; point id `k` is the `k`-th item of `points`.
    ///
    /// Panics if the nest touches `u32::MAX` or more distinct elements.
    pub fn for_points<P: AsRef<[i64]>>(
        nest: &LoopNest,
        points: impl IntoIterator<Item = P>,
    ) -> ElementTable {
        Walk::new(nest, points).finish(nest)
    }

    /// The table over every point of `nest`'s space, in lexicographic
    /// order.
    pub fn for_nest(nest: &LoopNest) -> ElementTable {
        // The flat point lattice walks faster than `IterSpace::points`,
        // which allocates each point, and is freed before the elements
        // are sorted.
        let walk = match ComputationalStructure::new(nest.space().clone(), Vec::new()) {
            Ok(cs) => Walk::new(nest, cs.points().iter()),
            Err(loom_partition::Error::EmptySpace) => Walk::new(nest, std::iter::empty::<&[i64]>()),
            // The table holds a row of ids per point, so a space whose
            // points cannot be held cannot be tabulated either.
            Err(e) => panic!("cannot tabulate the elements of `{}`: {e}", nest.name()),
        };
        walk.finish(nest)
    }

    /// Number of interned elements.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` iff no element is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of iteration points the table resolves accesses for.
    pub fn num_points(&self) -> usize {
        match self.row_len() {
            0 => 0,
            row => self.accesses.len() / row,
        }
    }

    /// The array of element `id`.
    pub fn array(&self, id: u32) -> &str {
        let a = self.array_first.partition_point(|&first| first <= id) - 1;
        &self.arrays[a]
    }

    /// The subscript tuple of element `id`.
    pub fn element(&self, id: u32) -> &[i64] {
        let id = id as usize;
        &self.arena[self.starts[id]..self.starts[id + 1]]
    }

    /// The id of `array[element]`, if the table holds it: a binary
    /// search of the array's ids, which are in subscript order.
    pub fn id_of(&self, array: &str, element: &[i64]) -> Option<u32> {
        let a = self
            .arrays
            .binary_search_by(|n| n.as_str().cmp(array))
            .ok()?;
        let (mut lo, mut hi) = (self.array_first[a], self.array_first[a + 1]);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.element(mid).cmp(element) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// The element ids statement `stmt` reads at point `point`, in the
    /// statement's read order.
    pub fn reads(&self, point: usize, stmt: usize) -> &[u32] {
        let row = point * self.row_len();
        &self.accesses[row + self.stmt_start[stmt]..row + self.stmt_start[stmt + 1] - 1]
    }

    /// The element id statement `stmt` writes at point `point`.
    pub fn write(&self, point: usize, stmt: usize) -> u32 {
        self.accesses[point * self.row_len() + self.stmt_start[stmt + 1] - 1]
    }

    /// The semantics of statement `stmt`.
    pub fn semantics(&self, stmt: usize) -> &Expr {
        &self.semantics[stmt]
    }

    /// Number of statements the table resolves accesses for.
    pub fn num_stmts(&self) -> usize {
        self.stmt_start.len() - 1
    }

    /// Each array's name with the range of its element ids.
    pub(crate) fn arrays(&self) -> impl Iterator<Item = (&str, std::ops::Range<u32>)> {
        self.arrays
            .iter()
            .zip(self.array_first.windows(2))
            .map(|(name, w)| (name.as_str(), w[0]..w[1]))
    }

    fn row_len(&self) -> usize {
        self.stmt_start[self.stmt_start.len() - 1]
    }
}

impl fmt::Debug for ElementTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElementTable")
            .field("arrays", &self.arrays)
            .field("elements", &self.len())
            .field("points", &self.num_points())
            .finish()
    }
}

/// The distinct names, sorted.
fn sorted_names<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut names: Vec<&str> = names.collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn index_of(names: &[&str], array: &str) -> u32 {
    names.binary_search(&array).expect("name collected") as u32
}

/// Phase one of a table build: every (point, access) pair interned in
/// encounter order. Kept apart from [`Walk::finish`] so the point
/// source can be freed before the elements are sorted.
struct Walk<'n> {
    names: Vec<&'n str>,
    builder: Builder,
    /// Builder ids, one row per point (see [`ElementTable::reads`]).
    accesses: Vec<u32>,
    stmt_start: Vec<usize>,
}

impl<'n> Walk<'n> {
    fn new<P: AsRef<[i64]>>(nest: &'n LoopNest, points: impl IntoIterator<Item = P>) -> Walk<'n> {
        let names = sorted_names(
            nest.stmts()
                .iter()
                .flat_map(|s| s.accesses().map(|a| a.array())),
        );
        let mut stmt_start = vec![0];
        let mut layout: Vec<(u32, &[Aff])> = Vec::new();
        for stmt in nest.stmts() {
            for a in stmt.reads().iter().chain([stmt.write()]) {
                layout.push((index_of(&names, a.array()), a.subscripts()));
            }
            stmt_start.push(layout.len());
        }
        let points = points.into_iter();
        let mut builder = Builder::new();
        let mut accesses = Vec::with_capacity(points.size_hint().0 * layout.len());
        let mut scratch = Vec::new();
        for point in points {
            let point = point.as_ref();
            for &(array, subscripts) in &layout {
                scratch.clear();
                scratch.extend(subscripts.iter().map(|s| s.eval(point)));
                accesses.push(builder.intern(array, &scratch));
            }
        }
        Walk {
            names,
            builder,
            accesses,
            stmt_start,
        }
    }

    fn finish(self, nest: &LoopNest) -> ElementTable {
        let Walk {
            names,
            builder,
            mut accesses,
            stmt_start,
        } = self;
        let (mut table, rank) = builder.finish(&names);
        for id in &mut accesses {
            *id = rank[*id as usize];
        }
        table.accesses = accesses;
        table.stmt_start = stmt_start;
        table.semantics = nest.stmts().iter().map(|s| s.semantics()).collect();
        table
    }
}

/// The home slot of an `(array index, subscripts)` key in an index of
/// `capacity` (a power of two) slots: a multiply-xorshift mix whose top
/// bits pick the slot. Subscripts come from user nests, so the mix is
/// keyed by a per-build random `seed` that a nest cannot aim collisions
/// at; ids do not depend on it.
fn home_slot(seed: u64, array: u32, element: &[i64], capacity: usize) -> usize {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (seed ^ array as u64)
        .wrapping_add(element.len() as u64)
        .wrapping_mul(K);
    for &x in element {
        h = (h ^ x as u64).wrapping_mul(K);
        h ^= h >> 29;
    }
    (h.wrapping_mul(K) >> (64 - capacity.trailing_zeros())) as usize
}

/// Interns elements in encounter order through an open-addressing hash
/// index; [`Builder::finish`] renumbers them into key order.
struct Builder {
    seed: u64,
    array_of: Vec<u32>,
    starts: Vec<usize>,
    arena: Vec<i64>,
    /// `EMPTY` or a builder id.
    slots: Vec<u32>,
}

impl Builder {
    /// An empty builder; its index starts at 64 slots and doubles
    /// whenever it is a quarter full (short probe runs), so its size
    /// follows the elements, not the points.
    fn new() -> Builder {
        Builder {
            seed: RandomState::new().hash_one(0u8),
            array_of: Vec::new(),
            starts: vec![0],
            arena: Vec::new(),
            slots: vec![EMPTY; 64],
        }
    }

    fn key(&self, id: u32) -> (u32, &[i64]) {
        let id = id as usize;
        (
            self.array_of[id],
            &self.arena[self.starts[id]..self.starts[id + 1]],
        )
    }

    /// The id of `(array, element)`, interning it if new.
    fn intern(&mut self, array: u32, element: &[i64]) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = home_slot(self.seed, array, element, self.slots.len());
        loop {
            match self.slots[slot] {
                EMPTY => break,
                id if self.key(id) == (array, element) => return id,
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = u32::try_from(self.array_of.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("a nest touches fewer than 2^32 - 1 elements");
        self.array_of.push(array);
        self.arena.extend_from_slice(element);
        self.starts.push(self.arena.len());
        self.slots[slot] = id;
        if 4 * self.array_of.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Double the index.
    fn grow(&mut self) {
        let capacity = 2 * self.slots.len();
        let mut slots = vec![EMPTY; capacity];
        for id in 0..self.array_of.len() as u32 {
            let (array, element) = self.key(id);
            let mut slot = home_slot(self.seed, array, element, capacity);
            while slots[slot] != EMPTY {
                slot = (slot + 1) & (capacity - 1);
            }
            slots[slot] = id;
        }
        self.slots = slots;
    }

    /// Sort the interned elements into `(array, subscripts)` order;
    /// returns the table (with no points or statements yet) and the
    /// sorted id of each builder id.
    fn finish(mut self, names: &[&str]) -> (ElementTable, Vec<u32>) {
        self.slots = Vec::new();
        let n = self.array_of.len();
        // Bucket by array, keeping encounter order, then sort each
        // bucket by subscripts unless it already is (a lexicographic
        // walk usually meets an array's elements in order).
        let mut array_first = vec![0u32; names.len() + 1];
        for &a in &self.array_of {
            array_first[a as usize + 1] += 1;
        }
        for a in 0..names.len() {
            array_first[a + 1] += array_first[a];
        }
        let mut fill = array_first.clone();
        let mut order = vec![0u32; n];
        for (id, &a) in (0u32..).zip(&self.array_of) {
            order[fill[a as usize] as usize] = id;
            fill[a as usize] += 1;
        }
        for w in array_first.windows(2) {
            let bucket = &mut order[w[0] as usize..w[1] as usize];
            if !bucket
                .windows(2)
                .all(|p| self.key(p[0]).1 < self.key(p[1]).1)
            {
                bucket.sort_unstable_by(|&a, &b| self.key(a).1.cmp(self.key(b).1));
            }
        }
        let mut rank = vec![0u32; n];
        let mut starts = Vec::with_capacity(n + 1);
        let mut arena = Vec::with_capacity(self.arena.len());
        starts.push(0);
        for (new, &old) in (0u32..).zip(&order) {
            rank[old as usize] = new;
            arena.extend_from_slice(self.key(old).1);
            starts.push(arena.len());
        }
        let table = ElementTable {
            arrays: names.iter().map(|s| s.to_string()).collect(),
            array_first,
            starts,
            arena,
            accesses: Vec::new(),
            stmt_start: Vec::new(),
            semantics: Vec::new(),
        };
        (table, rank)
    }
}

/// A table holding at least `elements` (and other elements of their
/// arrays): one write-only statement per array and rank, walked at each
/// element's subscripts padded with zeros. Lets unit tests build a
/// memory with chosen contents.
#[cfg(test)]
pub(crate) fn holding(elements: &[(&str, &[i64])]) -> ElementTable {
    use loom_loopir::{Access, IterSpace, Stmt};
    let dims = elements
        .iter()
        .map(|(_, e)| e.len())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut shapes: Vec<(&str, usize)> = elements.iter().map(|&(a, e)| (a, e.len())).collect();
    shapes.sort_unstable();
    shapes.dedup();
    let stmts = shapes
        .iter()
        .map(|&(a, rank)| {
            let subscripts: Vec<(usize, i64)> = (0..rank).map(|k| (k, 0)).collect();
            Stmt::assign(Access::simple(a, dims, &subscripts), Vec::new())
        })
        .collect();
    let nest = LoopNest::new("holding", IterSpace::rect(&vec![1; dims]).unwrap(), stmts).unwrap();
    let points = elements.iter().map(|(_, e)| {
        let mut p = e.to_vec();
        p.resize(dims, 0);
        p
    });
    ElementTable::for_points(&nest, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_loopir::{Access, IterSpace, Stmt};

    #[test]
    fn ids_follow_array_then_tuple_order() {
        // B[i] = A[i, j] + A[i]; met in reverse lexicographic order.
        let nest = LoopNest::new(
            "mixed",
            IterSpace::rect(&[2, 2]).unwrap(),
            vec![Stmt::assign(
                Access::simple("B", 2, &[(0, 0)]),
                vec![
                    Access::simple("A", 2, &[(0, 0), (1, 0)]),
                    Access::simple("A", 2, &[(0, 0)]),
                ],
            )],
        )
        .unwrap();
        let t = ElementTable::for_points(&nest, [[1, 1], [1, 0], [0, 1], [0, 0]]);
        assert_eq!(t.len(), 8);
        let keys: Vec<(&str, &[i64])> = (0..8).map(|id| (t.array(id), t.element(id))).collect();
        assert_eq!(
            keys,
            vec![
                ("A", &[0][..]),
                ("A", &[0, 0][..]),
                ("A", &[0, 1][..]),
                ("A", &[1][..]),
                ("A", &[1, 0][..]),
                ("A", &[1, 1][..]),
                ("B", &[0][..]),
                ("B", &[1][..]),
            ]
        );
        for id in 0..8 {
            assert_eq!(t.id_of(t.array(id), t.element(id)), Some(id));
        }
        // Point 0 is (1, 1).
        assert_eq!(t.reads(0, 0), &[5, 3]);
        assert_eq!(t.write(0, 0), 7);
        assert_eq!(t.id_of("A", &[9]), None);
        assert_eq!(t.id_of("A", &[0, 2]), None);
        assert_eq!(t.id_of("C", &[0]), None);
    }

    #[test]
    fn an_empty_space_has_an_empty_table() {
        let nest = LoopNest::new(
            "empty",
            IterSpace::rect(&[0]).unwrap(),
            vec![Stmt::assign(Access::simple("A", 1, &[(0, 0)]), Vec::new())],
        )
        .unwrap();
        let t = ElementTable::for_nest(&nest);
        assert_eq!((t.len(), t.num_points(), t.num_stmts()), (0, 0, 1));
    }

    #[test]
    fn rows_resolve_reads_then_write() {
        // A[i+1] = A[i] + x[i], over i = 0..3.
        let nest = LoopNest::new(
            "chain",
            IterSpace::rect(&[4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 1, &[(0, 1)]),
                vec![
                    Access::simple("A", 1, &[(0, 0)]),
                    Access::simple("x", 1, &[(0, 0)]),
                ],
            )],
        )
        .unwrap();
        let t = ElementTable::for_nest(&nest);
        assert_eq!(t.num_points(), 4);
        assert_eq!(t.num_stmts(), 1);
        // A[0..=4] then x[0..=3].
        assert_eq!(t.len(), 9);
        for i in 0..4usize {
            let reads = t.reads(i, 0);
            assert_eq!(t.element(reads[0]), &[i as i64]);
            assert_eq!(t.array(reads[1]), "x");
            assert_eq!(t.element(t.write(i, 0)), &[i as i64 + 1]);
        }
    }

    #[test]
    fn the_index_grows_past_its_point_estimate() {
        // Three fresh elements per point: the index, starting at 64
        // slots, must double many times.
        let read = |name| Access::simple(name, 2, &[(0, 0), (1, 0)]);
        let nest = LoopNest::new(
            "fresh",
            IterSpace::rect(&[60, 60]).unwrap(),
            vec![Stmt::assign(read("A"), vec![read("B"), read("C")])],
        )
        .unwrap();
        let t = ElementTable::for_nest(&nest);
        assert_eq!(t.len(), 3 * 3600);
        for id in 0..t.len() as u32 {
            assert_eq!(t.id_of(t.array(id), t.element(id)), Some(id));
        }
        assert!((1..3600u32).all(|id| t.element(id - 1) < t.element(id)));
        assert_eq!(t.element(t.write(61, 0)), &[1, 1]);
    }
}
