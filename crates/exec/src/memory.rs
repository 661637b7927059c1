//! The dense array store executions write into.

use crate::elements::ElementTable;
use std::fmt;
use std::sync::Arc;

/// Reads a statement can hold on the stack; wider ones spill to a `Vec`.
const STACK_READS: usize = 16;

/// A store of array element values over an [`ElementTable`]: one `f64`
/// slot and one written bit per interned element, indexed by element id.
///
/// Elements never written retain their *initial* value, supplied at
/// execution time by an init function (so boundary reads like `A[0, j]`
/// in a nest writing `A[i+1, j+1]` are well-defined). Only written
/// elements count as contents: [`len`](Memory::len), [`iter`](Memory::iter)
/// and [`digest`](Memory::digest) see them in `(array, subscripts)`
/// order.
#[derive(Clone)]
pub struct Memory {
    table: Arc<ElementTable>,
    cells: Cells,
}

/// The values and written bits of a [`Memory`], apart from its table so
/// an execution can borrow the table while it writes.
#[derive(Clone)]
struct Cells {
    values: Vec<f64>,
    written: Vec<u64>,
    len: usize,
}

impl Cells {
    #[inline]
    fn value(&self, id: u32) -> Option<f64> {
        let written = self.written[id as usize / 64] & (1u64 << (id % 64)) != 0;
        written.then(|| self.values[id as usize])
    }

    #[inline]
    fn read(&self, table: &ElementTable, id: u32, init: &dyn Fn(&str, &[i64]) -> f64) -> f64 {
        match self.value(id) {
            Some(v) => v,
            None => init(table.array(id), table.element(id)),
        }
    }

    #[inline]
    fn write(&mut self, id: u32, value: f64) {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.written[word] & bit == 0 {
            self.written[word] |= bit;
            self.len += 1;
        }
        self.values[id as usize] = value;
    }
}

impl Memory {
    /// An empty store over `table`'s elements.
    pub fn new(table: Arc<ElementTable>) -> Memory {
        let n = table.len();
        Memory {
            table,
            cells: Cells {
                values: vec![0.0; n],
                written: vec![0; n.div_ceil(64)],
                len: 0,
            },
        }
    }

    /// The element table the store is indexed by.
    pub fn table(&self) -> &Arc<ElementTable> {
        &self.table
    }

    /// Read element `id`, falling back to `init` when unwritten.
    #[inline]
    pub fn read(&self, id: u32, init: &dyn Fn(&str, &[i64]) -> f64) -> f64 {
        self.cells.read(&self.table, id, init)
    }

    /// Write element `id`.
    #[inline]
    pub fn write(&mut self, id: u32, value: f64) {
        self.cells.write(id, value);
    }

    /// The value of element `id`, if written.
    #[inline]
    pub fn value(&self, id: u32) -> Option<f64> {
        self.cells.value(id)
    }

    /// Execute iteration `point` of the nest the table was built for:
    /// every statement in body order reads its elements (unwritten ones
    /// from `init`), evaluates its semantics and writes its element.
    pub fn execute(&mut self, point: usize, init: &dyn Fn(&str, &[i64]) -> f64) {
        let Memory { table, cells } = self;
        let mut stack = [0.0; STACK_READS];
        let mut spill = Vec::new();
        for stmt in 0..table.num_stmts() {
            let ids = table.reads(point, stmt);
            let reads: &mut [f64] = if ids.len() <= STACK_READS {
                &mut stack[..ids.len()]
            } else {
                spill.resize(ids.len(), 0.0);
                &mut spill
            };
            for (slot, &id) in reads.iter_mut().zip(ids) {
                *slot = cells.read(table, id, init);
            }
            let value = table.semantics(stmt).eval(reads);
            cells.write(table.write(point, stmt), value);
        }
    }

    /// The value of a written element, if present.
    pub fn get(&self, array: &str, element: &[i64]) -> Option<f64> {
        self.value(self.table.id_of(array, element)?)
    }

    /// Number of written elements.
    pub fn len(&self) -> usize {
        self.cells.len
    }

    /// `true` iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.cells.len == 0
    }

    /// Ids of the written elements, ascending.
    fn written_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.cells
            .written
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| {
                let mut bits = bits;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        w as u32 * 64 + b
                    })
                })
            })
    }

    /// Iterate over written elements in `(array, subscripts)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[i64], f64)> + '_ {
        self.written_ids().map(|id| {
            (
                self.table.array(id),
                self.table.element(id),
                self.cells.values[id as usize],
            )
        })
    }

    /// A deterministic FNV-1a digest of the whole store (addresses and
    /// exact value bits, in `(array, subscripts)` order). Two memories
    /// digest equal iff they hold bit-identical contents, so oracle
    /// consumers — e.g. the interleaving determinacy check comparing
    /// many replayed schedules — can compare states in O(1) after one
    /// pass and only fall back to [`crate::equivalent`] to render the
    /// divergence.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for (array, ids) in self.table.arrays() {
            for id in ids {
                let Some(v) = self.value(id) else { continue };
                eat(array.as_bytes());
                eat(&[0xff]);
                for &x in self.table.element(id) {
                    eat(&x.to_le_bytes());
                }
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }
}

/// Equal iff both hold the same written elements with `==` values.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.len() == other.len() && self.iter().all(|(a, e, v)| other.get(a, e) == Some(v))
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(a, e, v)| ((a, e), v)))
            .finish()
    }
}

/// A common init function: every unwritten element of every array reads
/// as a deterministic pseudo-value derived from its address, so
/// divergences cannot hide behind uniform zeros.
pub fn address_hash_init(array: &str, element: &[i64]) -> f64 {
    let mut h: i64 = array.bytes().map(|b| b as i64).sum::<i64>();
    for (k, &x) in element.iter().enumerate() {
        h = h
            .wrapping_mul(31)
            .wrapping_add(x.wrapping_mul(k as i64 + 7));
    }
    // Map into a small well-conditioned range.
    ((h.rem_euclid(1009)) as f64) / 64.0 + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory(elements: &[(&str, &[i64])]) -> Memory {
        Memory::new(Arc::new(crate::elements::holding(elements)))
    }

    /// Write an element by address.
    fn set(m: &mut Memory, array: &str, element: &[i64], value: f64) {
        let id = m.table().id_of(array, element).expect("in the table");
        m.write(id, value);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = memory(&[("A", &[1, 2]), ("A", &[0, 0])]);
        let zero = |_: &str, _: &[i64]| 0.0;
        let id = m.table().id_of("A", &[1, 2]).unwrap();
        assert_eq!(m.read(id, &zero), 0.0);
        m.write(id, 5.5);
        assert_eq!(m.read(id, &zero), 5.5);
        assert_eq!(m.get("A", &[1, 2]), Some(5.5));
        assert_eq!(m.get("A", &[0, 0]), None);
        assert_eq!(m.get("A", &[7, 7]), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        m.write(id, 6.5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn init_sees_the_unwritten_address() {
        let m = memory(&[("B", &[3, -4])]);
        let id = m.table().id_of("B", &[3, -4]).unwrap();
        let init = |a: &str, e: &[i64]| if a == "B" && e == [3, -4] { 9.0 } else { 0.0 };
        assert_eq!(m.read(id, &init), 9.0);
    }

    #[test]
    fn arrays_are_distinct_namespaces() {
        let mut m = memory(&[("A", &[0]), ("B", &[0])]);
        set(&mut m, "A", &[0], 1.0);
        set(&mut m, "B", &[0], 2.0);
        assert_eq!(m.get("A", &[0]), Some(1.0));
        assert_eq!(m.get("B", &[0]), Some(2.0));
        let order: Vec<(&str, f64)> = m.iter().map(|(a, _, v)| (a, v)).collect();
        assert_eq!(order, vec![("A", 1.0), ("B", 2.0)]);
    }

    #[test]
    fn digest_separates_and_matches() {
        let cells: &[(&str, &[i64])] = &[("A", &[0]), ("A", &[1]), ("A", &[2])];
        let mut a = memory(cells);
        let mut b = memory(cells);
        assert_eq!(a.digest(), b.digest());
        set(&mut a, "A", &[1], 2.0);
        assert_ne!(a.digest(), b.digest());
        set(&mut b, "A", &[1], 2.0);
        assert_eq!(a.digest(), b.digest());
        // Same bits, different address → different digest.
        let mut c = memory(cells);
        set(&mut c, "A", &[2], 2.0);
        assert_ne!(a.digest(), c.digest());
        // -0.0 and 0.0 differ bitwise and must not collide.
        let mut z1 = memory(cells);
        let mut z2 = memory(cells);
        set(&mut z1, "A", &[0], 0.0);
        set(&mut z2, "A", &[0], -0.0);
        assert_ne!(z1.digest(), z2.digest());
    }

    #[test]
    fn written_ids_cross_word_boundaries() {
        let elems: Vec<[i64; 1]> = (0..200).map(|k| [k]).collect();
        let elems: Vec<(&str, &[i64])> = elems.iter().map(|e| ("A", &e[..])).collect();
        let mut m = memory(&elems);
        for id in [0u32, 63, 64, 127, 199] {
            m.write(id, id as f64);
        }
        assert_eq!(
            m.written_ids().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 199]
        );
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn address_hash_init_is_deterministic_and_varied() {
        let a = address_hash_init("A", &[1, 2]);
        assert_eq!(a, address_hash_init("A", &[1, 2]));
        assert_ne!(a, address_hash_init("A", &[2, 1]));
        assert_ne!(a, address_hash_init("B", &[1, 2]));
        assert!(a >= 1.0);
    }
}
