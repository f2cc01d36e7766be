//! Borrowed, strided submatrix views — the zero-copy operand type of the
//! host execution layer.
//!
//! The paper's algorithms address square blocks `X_{i,j}`, vertical
//! strips of width `√m`, and whole matrices; the seed marshalled each of
//! those through an allocating copy (`block` / `col_strip`) before every
//! tensor invocation. A [`MatrixView`] names the same region without
//! copying: `(rows, cols, row_stride)` over a borrowed slice whose first
//! element is the region's `(0, 0)` entry. Views are `Copy` and cheap to
//! sub-slice, so blocked algorithms carve operands structurally and only
//! the kernels in [`crate::kernels`] touch the elements.
//!
//! [`MatrixViewMut`] is the writable counterpart used for in-place block
//! updates (Schur complements, closure accumulation).
//!
//! Simulated cost is unaffected by any of this: in the (m, ℓ)-TCU model
//! operand marshalling is part of the tensor instruction's `O(n√m + ℓ)`
//! charge, so whether the host copies or borrows is invisible to
//! `Stats`/trace accounting.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// An immutable `rows × cols` view into row-major storage with an
/// arbitrary row stride (`stride ≥ cols`). Element `(i, j)` lives at
/// `data[i * row_stride + j]`; `data[0]` is element `(0, 0)`.
#[derive(Clone, Copy)]
pub struct MatrixView<'a, T> {
    rows: usize,
    cols: usize,
    row_stride: usize,
    data: &'a [T],
}

impl<'a, T: Scalar> MatrixView<'a, T> {
    /// Wrap `data` as a `rows × cols` view with the given row stride.
    ///
    /// # Panics
    /// Panics if the stride is below the width or the slice is too short
    /// to hold the last row.
    #[must_use]
    pub fn new(rows: usize, cols: usize, row_stride: usize, data: &'a [T]) -> Self {
        assert!(row_stride >= cols, "row stride below view width");
        if rows > 0 {
            assert!(
                data.len() >= (rows - 1) * row_stride + cols,
                "backing slice too short for view"
            );
        }
        Self {
            rows,
            cols,
            row_stride,
            data,
        }
    }

    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in elements between the starts of consecutive rows.
    #[inline]
    #[must_use]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Element `(i, j)` by value.
    #[inline]
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j]
    }

    /// Row `i` as a contiguous slice of length `cols`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &'a [T] {
        let base = i * self.row_stride;
        &self.data[base..base + self.cols]
    }

    /// The `h × w` sub-view with top-left corner at `(r0, c0)` — no copy,
    /// same backing slice.
    ///
    /// # Panics
    /// Panics if the region exceeds the view bounds.
    #[must_use]
    pub fn subview(&self, r0: usize, c0: usize, h: usize, w: usize) -> MatrixView<'a, T> {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "subview out of bounds"
        );
        let start = r0 * self.row_stride + c0;
        // Trim the tail so the new view's length invariant is tight even
        // for the last row of the parent.
        let end = if h == 0 {
            start
        } else {
            start + (h - 1) * self.row_stride + w
        };
        MatrixView {
            rows: h,
            cols: w,
            row_stride: self.row_stride,
            data: &self.data[start..end],
        }
    }

    /// `true` iff rows are adjacent in memory (`row_stride == cols`), so
    /// the whole view is one contiguous slice.
    #[inline]
    #[must_use]
    pub fn is_contiguous(&self) -> bool {
        self.row_stride == self.cols || self.rows <= 1
    }

    /// Transpose of the viewed region, gathered in 32×32 cache tiles:
    /// the strided reads and the contiguous writes of each tile stay
    /// cache-resident, instead of the column-major `from_fn` gather
    /// (which walks the full source once per output row).
    #[must_use]
    pub fn transpose(&self) -> Matrix<T> {
        const TILE: usize = 32;
        let (r, c) = (self.rows, self.cols);
        let mut out = Matrix::<T>::zeros(c, r);
        let odata = out.as_mut_slice();
        for i0 in (0..r).step_by(TILE) {
            let ih = TILE.min(r - i0);
            for j0 in (0..c).step_by(TILE) {
                let jw = TILE.min(c - j0);
                for dj in 0..jw {
                    // One contiguous run of output row j0+dj, read from
                    // the (resident) source tile's column j0+dj.
                    let orow = &mut odata[(j0 + dj) * r + i0..(j0 + dj) * r + i0 + ih];
                    for (di, o) in orow.iter_mut().enumerate() {
                        *o = self.at(i0 + di, j0 + dj);
                    }
                }
            }
        }
        out
    }

    /// Materialize the viewed region as an owned [`Matrix`].
    #[must_use]
    pub fn to_matrix(&self) -> Matrix<T> {
        if self.is_contiguous() && self.data.len() == self.rows * self.cols {
            return Matrix::from_vec(self.rows, self.cols, self.data.to_vec());
        }
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl<T: Scalar> PartialEq for MatrixView<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl<T: Scalar> std::fmt::Debug for MatrixView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MatrixView {}x{} (stride {})",
            self.rows, self.cols, self.row_stride
        )
    }
}

/// A mutable `rows × cols` strided view; the writable counterpart of
/// [`MatrixView`] used for in-place block updates.
pub struct MatrixViewMut<'a, T> {
    rows: usize,
    cols: usize,
    row_stride: usize,
    data: &'a mut [T],
}

impl<'a, T: Scalar> MatrixViewMut<'a, T> {
    /// Wrap `data` as a mutable `rows × cols` view with the given stride.
    ///
    /// # Panics
    /// Panics if the stride is below the width or the slice is too short.
    #[must_use]
    pub fn new(rows: usize, cols: usize, row_stride: usize, data: &'a mut [T]) -> Self {
        assert!(row_stride >= cols, "row stride below view width");
        if rows > 0 {
            assert!(
                data.len() >= (rows - 1) * row_stride + cols,
                "backing slice too short for view"
            );
        }
        Self {
            rows,
            cols,
            row_stride,
            data,
        }
    }

    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(i, j)` by value.
    #[inline]
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j]
    }

    /// Overwrite element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j] = v;
    }

    /// Row `i` as a mutable contiguous slice of length `cols`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let base = i * self.row_stride;
        &mut self.data[base..base + self.cols]
    }

    /// Reborrow as an immutable view (for reading while held mutably).
    #[must_use]
    pub fn as_view(&self) -> MatrixView<'_, T> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            row_stride: self.row_stride,
            data: self.data,
        }
    }

    /// Overwrite the whole region from `src` (shapes must match).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: MatrixView<'_, T>) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows(), src.cols()),
            "copy_from: shape mismatch"
        );
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Combine every element with the matching element of `src`:
    /// `self[i,j] = f(self[i,j], src[i,j])`. The workhorse of in-place
    /// block accumulation (`f = add`) and closure clamping.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_apply(&mut self, src: MatrixView<'_, T>, f: impl Fn(T, T) -> T) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows(), src.cols()),
            "zip_apply: shape mismatch"
        );
        for i in 0..self.rows {
            let srow = src.row(i);
            for (d, &s) in self.row_mut(i).iter_mut().zip(srow) {
                *d = f(*d, s);
            }
        }
    }

    /// In-place element-wise accumulation `self += src`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, src: MatrixView<'_, T>) {
        self.zip_apply(src, T::add);
    }

    /// Reborrow a mutable `h × w` sub-block anchored at `(r0, c0)` — the
    /// region write path of the deferred scheduler, which binds one
    /// mutable view per logical output buffer and carves each op's
    /// destination out of it.
    ///
    /// # Panics
    /// Panics if the block exceeds the view bounds.
    #[must_use]
    pub fn subview_mut(
        &mut self,
        r0: usize,
        c0: usize,
        h: usize,
        w: usize,
    ) -> MatrixViewMut<'_, T> {
        assert!(r0 + h <= self.rows && c0 + w <= self.cols, "subview bounds");
        let base = (r0 * self.row_stride + c0).min(self.data.len());
        let end = if h == 0 || w == 0 {
            base
        } else {
            base + (h - 1) * self.row_stride + w
        };
        MatrixViewMut {
            rows: h,
            cols: w,
            row_stride: self.row_stride,
            data: &mut self.data[base..end],
        }
    }
}

impl<T: Scalar> std::fmt::Debug for MatrixViewMut<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MatrixViewMut {}x{} (stride {})",
            self.rows, self.cols, self.row_stride
        )
    }
}

impl<T: Scalar> Matrix<T> {
    /// View of the whole matrix.
    #[must_use]
    pub fn view(&self) -> MatrixView<'_, T> {
        MatrixView::new(self.rows(), self.cols(), self.cols(), self.as_slice())
    }

    /// Zero-copy view of the `h × w` block at `(r0, c0)` — the borrowed
    /// replacement for [`Matrix::block`].
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    #[must_use]
    pub fn subview(&self, r0: usize, c0: usize, h: usize, w: usize) -> MatrixView<'_, T> {
        self.view().subview(r0, c0, h, w)
    }

    /// Zero-copy vertical strip: all rows, columns `[c0, c0 + w)` — the
    /// borrowed replacement for [`Matrix::col_strip`].
    ///
    /// # Panics
    /// Panics if the strip exceeds the matrix bounds.
    #[must_use]
    pub fn col_strip_view(&self, c0: usize, w: usize) -> MatrixView<'_, T> {
        self.subview(0, c0, self.rows(), w)
    }

    /// Mutable view of the whole matrix.
    #[must_use]
    pub fn view_mut(&mut self) -> MatrixViewMut<'_, T> {
        let (rows, cols) = (self.rows(), self.cols());
        MatrixViewMut::new(rows, cols, cols, self.as_mut_slice())
    }

    /// Mutable zero-copy view of the `h × w` block at `(r0, c0)` — the
    /// borrowed replacement for the `block`/mutate/`set_block` round trip.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    #[must_use]
    pub fn subview_mut(
        &mut self,
        r0: usize,
        c0: usize,
        h: usize,
        w: usize,
    ) -> MatrixViewMut<'_, T> {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(r0 + h <= rows && c0 + w <= cols, "subview out of bounds");
        let start = r0 * cols + c0;
        let end = if h == 0 {
            start
        } else {
            start + (h - 1) * cols + w
        };
        MatrixViewMut::new(h, w, cols, &mut self.as_mut_slice()[start..end])
    }

    /// Overwrite the block at `(r0, c0)` from a view (strided source).
    ///
    /// # Panics
    /// Panics if `src` exceeds the matrix bounds at that offset.
    pub fn set_block_view(&mut self, r0: usize, c0: usize, src: MatrixView<'_, T>) {
        self.subview_mut(r0, c0, src.rows(), src.cols())
            .copy_from(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(r: usize, c: usize) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| (i * c + j) as i64)
    }

    #[test]
    fn whole_matrix_view_roundtrip() {
        let m = iota(3, 5);
        let v = m.view();
        assert_eq!((v.rows(), v.cols(), v.row_stride()), (3, 5, 5));
        assert!(v.is_contiguous());
        assert_eq!(v.to_matrix(), m);
        assert_eq!(v.at(2, 4), m[(2, 4)]);
        assert_eq!(v.row(1), m.row(1));
    }

    #[test]
    fn nested_subview_mut_writes_the_right_region() {
        let mut m = iota(6, 7);
        let want = {
            let mut w = m.clone();
            for i in 2..4 {
                for j in 3..5 {
                    w[(i, j)] = -1;
                }
            }
            w
        };
        let mut outer = m.subview_mut(1, 1, 4, 5);
        let mut inner = outer.subview_mut(1, 2, 2, 2);
        assert_eq!((inner.rows(), inner.cols()), (2, 2));
        for i in 0..2 {
            inner.row_mut(i).fill(-1);
        }
        assert_eq!(m, want);
        // Degenerate regions are fine anywhere in bounds.
        let _ = m.subview_mut(0, 0, 6, 7).subview_mut(6, 7, 0, 0);
    }

    #[test]
    fn subview_matches_block_copy() {
        let m = iota(6, 7);
        for (r0, c0, h, w) in [(0, 0, 6, 7), (2, 3, 2, 2), (1, 0, 4, 7), (5, 6, 1, 1)] {
            let v = m.subview(r0, c0, h, w);
            assert_eq!(v.to_matrix(), m.block(r0, c0, h, w), "{r0},{c0},{h},{w}");
        }
        // Nested subview composes offsets.
        let v = m.subview(1, 1, 4, 5).subview(1, 2, 2, 2);
        assert_eq!(v.to_matrix(), m.block(2, 3, 2, 2));
    }

    #[test]
    fn col_strip_view_matches_col_strip() {
        let m = iota(4, 6);
        let v = m.col_strip_view(2, 2);
        assert!(!v.is_contiguous());
        assert_eq!(v.to_matrix(), m.col_strip(2, 2));
    }

    #[test]
    fn empty_views_are_fine() {
        let m = iota(4, 4);
        let v = m.subview(2, 2, 0, 2);
        assert_eq!(v.rows(), 0);
        assert_eq!(v.to_matrix(), Matrix::<i64>::zeros(0, 2));
    }

    #[test]
    #[should_panic(expected = "subview out of bounds")]
    fn subview_out_of_bounds_panics() {
        let m = iota(4, 4);
        let _ = m.subview(3, 3, 2, 2);
    }

    #[test]
    fn mutable_block_update_in_place() {
        let mut m = iota(6, 6);
        let want = {
            let mut w = m.clone();
            let add = iota(2, 2);
            let mut blk = w.block(2, 3, 2, 2);
            blk.add_assign(&add);
            w.set_block(2, 3, &blk);
            w
        };
        let add = iota(2, 2);
        m.subview_mut(2, 3, 2, 2).add_assign(add.view());
        assert_eq!(m, want);
    }

    #[test]
    fn zip_apply_clamps() {
        let mut m = iota(2, 2);
        let p = Matrix::from_rows(&[vec![5i64, 0], vec![0, 5]]);
        m.subview_mut(0, 0, 2, 2)
            .zip_apply(p.view(), |x, y| i64::from(x + y > 0));
        assert_eq!(m, Matrix::from_rows(&[vec![1i64, 1], vec![1, 1]]));
    }

    #[test]
    fn copy_from_and_set_block_view() {
        let src = iota(5, 5);
        let mut dst = Matrix::<i64>::zeros(5, 5);
        dst.set_block_view(1, 1, src.subview(2, 2, 3, 3));
        assert_eq!(dst[(1, 1)], src[(2, 2)]);
        assert_eq!(dst[(3, 3)], src[(4, 4)]);
        assert_eq!(dst[(0, 0)], 0);
    }

    #[test]
    fn view_equality_ignores_stride() {
        let m = iota(4, 8);
        let n = m.block(1, 2, 2, 3);
        assert_eq!(m.subview(1, 2, 2, 3), n.view());
    }

    #[test]
    fn strided_view_transpose_matches_block_transpose() {
        let m = iota(40, 50);
        let v = m.subview(3, 7, 33, 35);
        let want = Matrix::from_fn(35, 33, |i, j| m[(3 + j, 7 + i)]);
        assert_eq!(v.transpose(), want);
    }
}
