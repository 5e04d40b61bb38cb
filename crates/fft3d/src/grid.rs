//! Dense 3D grid storage with (i, j, k) indexing, x fastest.

use std::ops::{Index, IndexMut};

/// A dense `nx × ny × nz` grid stored in a flat vector (x fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3<T> {
    dims: [usize; 3],
    data: Vec<T>,
}

impl<T: Clone> Grid3<T> {
    pub fn new(dims: [usize; 3], fill: T) -> Self {
        let len = dims[0] * dims[1] * dims[2];
        Grid3 {
            dims,
            data: vec![fill; len],
        }
    }
}

impl<T> Grid3<T> {
    /// Wrap x-fastest `data` of length `dims[0]·dims[1]·dims[2]`.
    pub fn from_vec(dims: [usize; 3], data: Vec<T>) -> Self {
        assert_eq!(data.len(), dims[0] * dims[1] * dims[2], "grid data length");
        Grid3 { dims, data }
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2]);
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    /// Index with periodic wrapping of negative / overflowing coordinates.
    #[inline]
    pub fn idx_wrapped(&self, i: isize, j: isize, k: isize) -> usize {
        let w = |v: isize, n: usize| -> usize { v.rem_euclid(n as isize) as usize };
        self.idx(w(i, self.dims[0]), w(j, self.dims[1]), w(k, self.dims[2]))
    }

    pub fn data(&self) -> &[T] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Index<(usize, usize, usize)> for Grid3<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j, k): (usize, usize, usize)) -> &T {
        &self.data[self.idx(i, j, k)]
    }
}

impl<T> IndexMut<(usize, usize, usize)> for Grid3<T> {
    #[inline]
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut T {
        let n = self.idx(i, j, k);
        &mut self.data[n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_layout_x_fastest() {
        let mut g = Grid3::new([2, 3, 4], 0u32);
        g[(1, 0, 0)] = 1;
        g[(0, 1, 0)] = 2;
        g[(0, 0, 1)] = 3;
        assert_eq!(g.data()[1], 1);
        assert_eq!(g.data()[2], 2);
        assert_eq!(g.data()[6], 3);
        assert_eq!(g.len(), 24);
    }

    #[test]
    fn wrapped_indexing() {
        let g = Grid3::new([4, 4, 4], 0u8);
        assert_eq!(g.idx_wrapped(-1, 0, 0), g.idx(3, 0, 0));
        assert_eq!(g.idx_wrapped(4, 0, 0), g.idx(0, 0, 0));
        assert_eq!(g.idx_wrapped(-5, 9, -4), g.idx(3, 1, 0));
    }
}
