//! Typed, fixed-width columns with simulated physical placement.

use std::sync::OnceLock;

use crate::addr::AddressSpace;

/// The value buffer of a column.
///
/// The engine's hot loops specialize on the 32-bit layout (all TPC-H Q6
/// attributes fit after dictionary/scale encoding, Section 2.1 notes the
/// date→timestamp rewrite for the same reason); 64-bit columns exist for
/// wide keys and aggregates.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 4-byte signed integers (dates as day numbers, scaled decimals, keys).
    I32(Vec<i32>),
    /// 8-byte signed integers.
    I64(Vec<i64>),
}

impl ColumnData {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of one value in bytes.
    pub fn width(&self) -> u32 {
        match self {
            ColumnData::I32(_) => 4,
            ColumnData::I64(_) => 8,
        }
    }

    /// Read one value widened to `i64`.
    #[inline]
    pub fn get(&self, idx: usize) -> i64 {
        match self {
            ColumnData::I32(v) => i64::from(v[idx]),
            ColumnData::I64(v) => v[idx],
        }
    }

    /// Borrow the raw `i32` buffer, if this is a 32-bit column.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            ColumnData::I32(v) => Some(v),
            ColumnData::I64(_) => None,
        }
    }
}

/// A named column placed in the simulated address space.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: ColumnData,
    base_addr: u64,
    /// `(min, max)` of an `i32` column, computed on first request: the
    /// values never change after [`Column::new`], and lazily keeps table
    /// set-up free of a scan most columns never need.
    i32_range: OnceLock<Option<(i32, i32)>>,
}

#[cfg(test)]
thread_local! {
    /// Full-column scans [`Column::i32_range`] performed on this thread.
    static RANGE_SCANS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Column {
    /// Create a column and allocate its address range from `space`.
    pub fn new(name: impl Into<String>, data: ColumnData, space: &mut AddressSpace) -> Self {
        let bytes = data.len() as u64 * u64::from(data.width());
        let base_addr = space.alloc(bytes);
        Self {
            name: name.into(),
            data,
            base_addr,
            i32_range: OnceLock::new(),
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Width of one value in bytes.
    pub fn width(&self) -> u32 {
        self.data.width()
    }

    /// The value buffer.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Base of the simulated address range.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Smallest and largest value of a non-empty `i32` column (`None` for
    /// an empty or a 64-bit one). The first call scans the column, later
    /// calls are O(1) — what lets foreign-key validation run on every
    /// plan lowering without re-reading the fact table.
    pub fn i32_range(&self) -> Option<(i32, i32)> {
        *self.i32_range.get_or_init(|| {
            #[cfg(test)]
            RANGE_SCANS.with(|n| n.set(n.get() + 1));
            let values = self.data.as_i32()?;
            let (&first, rest) = values.split_first()?;
            Some(
                rest.iter()
                    .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
            )
        })
    }

    /// Simulated address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base_addr + idx as u64 * u64::from(self.data.width())
    }

    /// Read one value widened to `i64`.
    #[inline]
    pub fn get(&self, idx: usize) -> i64 {
        self.data.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_lengths() {
        let d32 = ColumnData::I32(vec![1, 2, 3]);
        let d64 = ColumnData::I64(vec![1, 2]);
        assert_eq!(d32.width(), 4);
        assert_eq!(d64.width(), 8);
        assert_eq!(d32.len(), 3);
        assert_eq!(d64.len(), 2);
        assert!(!d32.is_empty());
    }

    #[test]
    fn get_widens() {
        let d = ColumnData::I32(vec![-5, 7]);
        assert_eq!(d.get(0), -5);
        assert_eq!(d.get(1), 7);
    }

    #[test]
    fn addresses_are_contiguous_per_column() {
        let mut space = AddressSpace::new();
        let c = Column::new("x", ColumnData::I32(vec![0; 100]), &mut space);
        assert_eq!(c.addr_of(1) - c.addr_of(0), 4);
        assert_eq!(c.addr_of(99), c.base_addr() + 396);
    }

    #[test]
    fn two_columns_never_overlap() {
        let mut space = AddressSpace::new();
        let a = Column::new("a", ColumnData::I32(vec![0; 1000]), &mut space);
        let b = Column::new("b", ColumnData::I32(vec![0; 1000]), &mut space);
        let a_end = a.addr_of(999) + 4;
        assert!(b.base_addr() >= a_end);
    }

    #[test]
    fn i32_range_scans_once_and_only_on_request() {
        let scans = || RANGE_SCANS.with(std::cell::Cell::get);
        let mut space = AddressSpace::new();
        let before = scans();
        let c = Column::new("k", ColumnData::I32(vec![4, -2, 9, 0]), &mut space);
        assert_eq!(scans(), before, "construction must not scan");
        assert_eq!(c.i32_range(), Some((-2, 9)));
        assert_eq!(c.i32_range(), Some((-2, 9)));
        assert_eq!(c.clone().i32_range(), Some((-2, 9)));
        assert_eq!(scans(), before + 1, "later requests reuse the first scan");

        let empty = Column::new("e", ColumnData::I32(vec![]), &mut space);
        assert_eq!(empty.i32_range(), None);
        let wide = Column::new("w", ColumnData::I64(vec![1, 2]), &mut space);
        assert_eq!(wide.i32_range(), None);
    }

    #[test]
    fn slice_borrows() {
        let d = ColumnData::I32(vec![9, 8]);
        assert_eq!(d.as_i32().unwrap(), &[9, 8]);
    }
}
