//! The 27-point stencil kernel (Equation 2 of the paper).
//!
//! # One kernel
//!
//! Every CPU-side implementation — serial, threaded, partitioned for
//! overlap, temporally blocked — applies Equation 2 through one private
//! row sweep: for each output x-row of a region, slice the 27 tap rows
//! out of the source and accumulate them into the destination row with
//! [`accumulate_tap_rows`]. The implementations differ only in *which*
//! region they sweep, in *what order*, and *where* the taps come from
//! and the rows go — never in the arithmetic, so all of them produce
//! bit-identical results. [`apply_stencil`] is the one generic entry
//! point:
//!
//! * **Sources:** a [`Field3`] (rows sliced at flat offsets), or a
//!   [`SharedField`] whose halo another thread writes concurrently
//!   (implementation IV-D's master), read row by row through
//!   [`SharedField::row`] so no view ever spans a cell being written.
//! * **Destinations:** `&mut Field3`, `&mut ZSlabMut` (clipped to the
//!   slab's owned z-range, so threads filling disjoint slabs never
//!   race), and `&SharedField` (disjoint regions from several threads).
//!
//! [`apply_stencil_region`] is the `Field3`-to-`Field3` sweep at the host
//! tile; [`apply_stencil_region_pooled`] is the same sweep with its tiles
//! fanned out over a [`SweepPool`] work queue — tiles are disjoint, so
//! the result is identical at any worker count.
//!
//! # Cache blocking
//!
//! A sweep visits its region in cache-sized y/z tiles
//! ([`crate::tile::TileSpec`]). Tiling only permutes the order in which
//! whole output rows are produced, never the arithmetic within one, so
//! it is bit-neutral.
//!
//! # Fast path and scalar oracle
//!
//! [`accumulate_tap_rows`], the only row accumulator, dispatches at
//! runtime to the explicit `f64x4`/`f64x8` vector kernels of
//! [`crate::simd`] (or a portable chunked loop): a chunk of vector
//! accumulators is zeroed, then each of the 27 taps adds `coef[t] · src`
//! over its pre-sliced row. Building with `--features scalar-kernels`
//! switches that one accumulator to the plain per-point loop — and with
//! it every sweep above, the time-tiled traversals and the `simgpu`
//! functional kernels, which feed it their staged tiles.
//!
//! [`apply_stencil_region_scalar`] is the independent per-point oracle
//! the differential tests compare every path against. Bit-identity
//! holds because each output element sees exactly the same sequence of
//! floating-point operations on every path: start from `0.0`, then add
//! `coef[t] · src[...]` for taps `t = 0..27` in fixed order. The fast
//! path merely interchanges the (x, tap) loops — lane-chunked in the SIMD
//! kernels — which never reorders the additions *within* one output
//! element (see the [`crate::simd`] module docs).

use crate::coeffs::Stencil27;
use crate::field::{Field3, Range3, SharedField, ZSlabMut};
use crate::sweep::SweepPool;
use crate::tile::TileSpec;

/// Precompute the 27 flat-index offsets for an `(sx, sy)`-strided field,
/// in the fixed tap order (k slowest, i fastest). Tap `t` pairs with
/// coefficient `s.a[t]`: [`Stencil27`] stores its coefficients in this
/// same order.
#[inline]
pub(crate) fn tap_offsets(sx: usize, sy: usize) -> [i64; 27] {
    let stride_y = sx as i64;
    let stride_z = (sx * sy) as i64;
    let mut offs = [0i64; 27];
    let mut n = 0;
    for k in -1i64..=1 {
        for j in -1i64..=1 {
            for i in -1i64..=1 {
                offs[n] = i + j * stride_y + k * stride_z;
                n += 1;
            }
        }
    }
    offs
}

/// The 27 `w`-wide tap rows of the output row whose first point sits at
/// flat index `base` of `data`, given the tap offsets of `data`'s strides.
#[inline]
pub(crate) fn flat_tap_rows<'a>(
    data: &'a [f64],
    base: i64,
    offs: &[i64; 27],
    w: usize,
) -> [&'a [f64]; 27] {
    std::array::from_fn(|t| {
        let s0 = (base + offs[t]) as usize;
        &data[s0..s0 + w]
    })
}

/// Accumulate 27 tap rows into a destination row:
/// `dst[x] = Σₜ coef[t] · rows[t][x]`, taps added in order `t = 0..27`.
///
/// Per output element this performs exactly the scalar sequence
/// `acc = 0.0; acc += coef[0]·v₀; …; acc += coef[26]·v₂₆;`, so the result
/// is bit-identical to the scalar oracle. Delegates to the runtime-
/// dispatched SIMD kernels of [`crate::simd`], which keep that per-lane
/// operation order on every dispatch level — or, under
/// `--features scalar-kernels`, runs that sequence literally.
///
/// Shared with the `simgpu` functional kernels, which feed it rows of
/// their staged shared-memory tiles.
///
/// # Panics
///
/// If any `rows[t]` is shorter than `dst_row`.
pub fn accumulate_tap_rows(dst_row: &mut [f64], rows: &[&[f64]; 27], coef: &[f64; 27]) {
    if cfg!(feature = "scalar-kernels") {
        for (x, out) in dst_row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, row) in coef.iter().zip(rows) {
                acc += c * row[x];
            }
            *out = acc;
        }
    } else {
        crate::simd::accumulate_tap_rows(dst_row, rows, coef);
    }
}

/// The sweep's two ends, sealed: [`apply_stencil`] accepts exactly the
/// sources and destinations implemented here, and nothing outside this
/// module can call the unchecked row accessors behind them.
mod ends {
    use super::*;

    /// Where the taps come from.
    pub trait Source {
        /// The 27 `w`-wide source rows feeding output row `(x0.., y, z)`,
        /// in tap order.
        fn tap_rows(&self, x0: i64, y: i64, z: i64, w: usize) -> [&[f64]; 27];
    }

    /// Where the rows go.
    pub trait Sink {
        /// The part of `region` this destination owns.
        fn clip(&self, region: Range3) -> Range3 {
            region
        }
        /// Output row `(x0.., y, z)`, `w` wide.
        fn row(&mut self, x0: i64, y: i64, z: i64, w: usize) -> &mut [f64];
    }

    impl Source for Field3 {
        fn tap_rows(&self, x0: i64, y: i64, z: i64, w: usize) -> [&[f64]; 27] {
            let (sx, sy, _) = self.extents();
            let base = self.idx(x0, y, z) as i64;
            flat_tap_rows(self.data(), base, &tap_offsets(sx, sy), w)
        }
    }

    impl Source for SharedField<'_> {
        fn tap_rows(&self, x0: i64, y: i64, z: i64, w: usize) -> [&[f64]; 27] {
            std::array::from_fn(|t| {
                let (di, dj, dk) = (t as i64 % 3 - 1, t as i64 / 3 % 3 - 1, t as i64 / 9 - 1);
                // SAFETY: the points a stencil application reads are, per
                // the contract of `apply_stencil`, not written concurrently
                // by any thread.
                unsafe { self.row(x0 + di, y + dj, z + dk, w) }
            })
        }
    }

    impl Sink for &mut Field3 {
        fn row(&mut self, x0: i64, y: i64, z: i64, w: usize) -> &mut [f64] {
            self.row_mut(x0, y, z, w)
        }
    }

    impl Sink for &mut ZSlabMut<'_> {
        fn clip(&self, region: Range3) -> Range3 {
            self.owned_region(region)
        }
        fn row(&mut self, x0: i64, y: i64, z: i64, w: usize) -> &mut [f64] {
            self.row_mut(x0, y, z, w)
        }
    }

    impl Sink for &SharedField<'_> {
        fn row(&mut self, x0: i64, y: i64, z: i64, w: usize) -> &mut [f64] {
            // SAFETY: per the contract of `apply_stencil`, this thread
            // has exclusive access to every point of the region it
            // sweeps, including this row.
            unsafe { self.row_mut(x0, y, z, w) }
        }
    }
}

/// The one row sweep: every output row of `region` (one tile) from its
/// 27 tap rows.
fn sweep<S: ends::Source, D: ends::Sink>(src: &S, dst: &mut D, coef: &[f64; 27], region: Range3) {
    let w = (region.x.1 - region.x.0) as usize;
    for z in region.z.0..region.z.1 {
        for y in region.y.0..region.y.1 {
            let rows = src.tap_rows(region.x.0, y, z, w);
            accumulate_tap_rows(dst.row(region.x.0, y, z, w), &rows, coef);
        }
    }
}

/// Apply Equation 2 to `region` of `src`, writing the same region of
/// `dst`, tile by tile. `src` must hold valid values for every point
/// `region` touches (one point beyond it in every direction).
///
/// `src` is a [`Field3`] or a [`SharedField`]; `dst` is a `&mut Field3`,
/// a `&mut ZSlabMut` (only the slab's share of `region` is written) or a
/// `&SharedField`. Through shared fields, several threads may sweep
/// concurrently as long as no point one thread writes is read or written
/// by another — the disjoint regions the overlap schedulers hand out.
///
/// Cost: 53 flops per point (27 multiplications + 26 additions), exactly
/// the count the paper uses to convert measured time into GF.
pub fn apply_stencil<S: ends::Source, D: ends::Sink>(
    src: &S,
    mut dst: D,
    s: &Stencil27,
    region: Range3,
    tile: TileSpec,
) {
    for t in tile.tiles(dst.clip(region)) {
        sweep(src, &mut dst, &s.a, t);
    }
}

/// [`apply_stencil`] between two fields at the host tile
/// ([`TileSpec::host`]).
pub fn apply_stencil_region(src: &Field3, dst: &mut Field3, s: &Stencil27, region: Range3) {
    assert_eq!(src.interior(), dst.interior(), "field sizes must match");
    apply_stencil(src, dst, s, region, TileSpec::host(src.extents().0));
}

/// [`apply_stencil`] between two fields with the tiles fanned out over
/// a [`SweepPool`] work queue. Tiles are disjoint, so each output element
/// is produced by exactly one worker with the fixed per-element operation
/// order — the result is bit-identical at any worker count.
pub fn apply_stencil_region_pooled(
    src: &Field3,
    dst: &mut Field3,
    s: &Stencil27,
    region: Range3,
    tile: TileSpec,
    pool: &SweepPool,
) {
    assert_eq!(src.interior(), dst.interior(), "field sizes must match");
    let tiles: Vec<Range3> = tile.tiles(region).collect();
    let shared = SharedField::new(dst);
    pool.for_each_index(tiles.len(), |i| {
        sweep(src, &mut &shared, &s.a, tiles[i]);
    });
}

/// The scalar per-point oracle: Equation 2 point by point, with none of
/// the row slicing, tiling or SIMD of [`apply_stencil`]. Kept as the
/// reference the differential tests compare every path against.
pub fn apply_stencil_region_scalar(src: &Field3, dst: &mut Field3, s: &Stencil27, region: Range3) {
    assert_eq!(src.interior(), dst.interior(), "field sizes must match");
    let (sx, sy, _) = src.extents();
    let offs = tap_offsets(sx, sy);
    let coef = s.a;
    let sd = src.data();
    for z in region.z.0..region.z.1 {
        for y in region.y.0..region.y.1 {
            if region.x.1 <= region.x.0 {
                continue;
            }
            let row_src = src.idx(region.x.0, y, z) as i64;
            let row_dst = dst.idx(region.x.0, y, z);
            let w = (region.x.1 - region.x.0) as usize;
            let dd = dst.data_mut();
            for ix in 0..w {
                let base = row_src + ix as i64;
                // Accumulate the 27 taps in fixed order so all execution
                // strategies produce bit-identical sums.
                let mut acc = 0.0;
                for t in 0..27 {
                    acc += coef[t] * sd[(base + offs[t]) as usize];
                }
                dd[row_dst + ix] = acc;
            }
        }
    }
}

/// Copy `region` of `src` into the part of it owned by a destination
/// z-slab (the threaded version of the paper's Step 3). The runners swap
/// their fields instead, so this prices a pass they no longer make.
pub fn copy_region_slab(src: &Field3, dst: &mut ZSlabMut<'_>, region: Range3) {
    let clipped = dst.owned_region(region);
    for z in clipped.z.0..clipped.z.1 {
        for y in clipped.y.0..clipped.y.1 {
            let w = (clipped.x.1 - clipped.x.0).max(0) as usize;
            if w == 0 {
                continue;
            }
            let s0 = src.idx(clipped.x.0, y, z);
            let d0 = dst.idx(clipped.x.0, y, z);
            dst.data[d0..d0 + w].copy_from_slice(&src.data()[s0..s0 + w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::Velocity;

    fn filled(n: usize, f: impl FnMut(i64, i64, i64) -> f64) -> Field3 {
        let mut fld = Field3::new(n, n, n, 1);
        fld.fill_interior(f);
        fld.copy_periodic_halo();
        fld
    }

    fn interior(src: &Field3, s: &Stencil27) -> Field3 {
        let (nx, ny, nz) = src.interior();
        let mut dst = Field3::new(nx, ny, nz, 1);
        apply_stencil_region(src, &mut dst, s, src.interior_range());
        dst
    }

    /// `region` of `src` through every source, destination and schedule
    /// [`apply_stencil`] and the pool support, each into a zeroed field:
    /// field; z-slabs at `cuts`; shared destination; shared source and
    /// destination; pooled at 1, 2 and 7 workers.
    fn every_path(
        src: &Field3,
        s: &Stencil27,
        region: Range3,
        tile: TileSpec,
        cuts: &[i64],
    ) -> Vec<(&'static str, Field3)> {
        let (nx, ny, nz) = src.interior();
        let fresh = || Field3::new(nx, ny, nz, 1);
        let mut field = fresh();
        apply_stencil(src, &mut field, s, region, tile);
        let mut slabs = fresh();
        for slab in &mut slabs.z_slabs_mut(cuts) {
            apply_stencil(src, slab, s, region, tile);
        }
        let mut shared = fresh();
        apply_stencil(src, &SharedField::new(&mut shared), s, region, tile);
        let (mut src_copy, mut cells) = (src.clone(), fresh());
        let src_cells = SharedField::new(&mut src_copy);
        apply_stencil(&src_cells, &SharedField::new(&mut cells), s, region, tile);
        let mut out = vec![
            ("field", field),
            ("slabs", slabs),
            ("shared", shared),
            ("cells", cells),
        ];
        for (label, workers) in [("pooled1", 1), ("pooled2", 2), ("pooled7", 7)] {
            let mut pooled = fresh();
            let pool = SweepPool::new(workers);
            apply_stencil_region_pooled(src, &mut pooled, s, region, tile, &pool);
            out.push((label, pooled));
        }
        out
    }

    #[test]
    fn every_path_matches_the_scalar_oracle_exactly() {
        let s = Stencil27::new(Velocity::new(0.37, -0.81, 0.59), 0.93);
        let src = filled(9, |x, y, z| {
            ((x * 37 + y * 91 + z * 13) % 17) as f64 * 0.193 - 1.1
        });
        // Irregular sub-regions, including empty and single-row ones; the
        // cut at z = 7 leaves the last slab outside most of them.
        let regions = [
            src.interior_range(),
            Range3::new((1, 8), (2, 7), (0, 9)),
            Range3::new((0, 1), (0, 9), (4, 5)),
            Range3::new((3, 3), (0, 9), (0, 9)),
            Range3::new((2, 6), (8, 9), (1, 2)),
            Range3::new((1, 7), (0, 8), (2, 7)),
        ];
        // Degenerate, odd-shaped, and larger-than-region tiles.
        let tiles = [
            TileSpec::new(1, 1),
            TileSpec::new(2, 3),
            TileSpec::new(5, 16),
            TileSpec::new(64, 64),
        ];
        for r in regions {
            let mut oracle = Field3::new(9, 9, 9, 1);
            apply_stencil_region_scalar(&src, &mut oracle, &s, r);
            let mut host = Field3::new(9, 9, 9, 1);
            apply_stencil_region(&src, &mut host, &s, r);
            assert_eq!(host.data(), oracle.data(), "region {r:?} host tile");
            for tile in tiles {
                for cuts in [&[4][..], &[2, 7]] {
                    for (path, got) in every_path(&src, &s, r, tile, cuts) {
                        assert_eq!(got.data(), oracle.data(), "{path} {r:?} {tile:?} {cuts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn constant_field_is_preserved() {
        let s = Stencil27::new(Velocity::new(0.7, -0.4, 0.2), 0.9);
        let dst = interior(&filled(6, |_, _, _| 3.25), &s);
        for (x, y, z) in dst.interior_range().iter() {
            assert!((dst.at(x, y, z) - 3.25).abs() < 1e-13);
        }
    }

    #[test]
    fn unit_courant_shifts_by_one_cell() {
        let s = Stencil27::at_max_stable_nu(Velocity::unit_diagonal());
        let src = filled(8, |x, y, z| (x + 10 * y + 100 * z) as f64);
        let dst = interior(&src, &s);
        // u_new(x) = u_old(x - 1) in every dimension (with wrap via halo).
        for (x, y, z) in dst.interior_range().iter() {
            let expect = src.at(x - 1, y - 1, z - 1);
            assert!(
                (dst.at(x, y, z) - expect).abs() < 1e-12,
                "at ({x},{y},{z}): got {} expected {expect}",
                dst.at(x, y, z)
            );
        }
    }

    #[test]
    fn region_application_matches_full() {
        let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.8);
        let src = filled(7, |x, y, z| ((x * 3 + y * 5 + z * 7) % 11) as f64);
        let full = interior(&src, &s);
        // Apply in 4 disjoint regions; result must be identical.
        let mut piecewise = Field3::new(7, 7, 7, 1);
        let regions = [
            Range3::new((0, 7), (0, 7), (0, 2)),
            Range3::new((0, 7), (0, 7), (2, 5)),
            Range3::new((0, 3), (0, 7), (5, 7)),
            Range3::new((3, 7), (0, 7), (5, 7)),
        ];
        for r in regions {
            apply_stencil_region(&src, &mut piecewise, &s, r);
        }
        assert_eq!(full.max_abs_diff(&piecewise), 0.0);
    }

    #[test]
    fn empty_region_is_noop() {
        let s = Stencil27::new(Velocity::unit_diagonal(), 0.5);
        let src = filled(4, |x, _, _| x as f64);
        let mut dst = Field3::new(4, 4, 4, 1);
        apply_stencil_region(&src, &mut dst, &s, Range3::new((2, 2), (0, 4), (0, 4)));
        for (x, y, z) in dst.interior_range().iter() {
            assert_eq!(dst.at(x, y, z), 0.0);
        }
    }

    #[test]
    fn shared_destination_matches_direct_under_threads() {
        use crate::team::{Schedule, ThreadTeam};
        let s = Stencil27::new(Velocity::new(0.9, 0.4, -0.6), 0.85);
        let src = filled(10, |x, y, z| ((x * 5 + y * 3 + z) % 9) as f64);
        let direct = interior(&src, &s);
        let mut shared = Field3::new(10, 10, 10, 1);
        {
            let writer = SharedField::new(&mut shared);
            let team = ThreadTeam::new(4);
            let tile = TileSpec::new(3, 2);
            team.parallel_for(0..10, Schedule::guided(), |zr| {
                let region = Range3::new((0, 10), (0, 10), (zr.start as i64, zr.end as i64));
                apply_stencil(&src, &writer, &s, region, tile);
            });
        }
        assert_eq!(direct.max_abs_diff(&shared), 0.0);
    }

    #[test]
    fn linearity_of_the_operator() {
        let s = Stencil27::new(Velocity::new(0.3, 0.9, -0.5), 0.7);
        let a = filled(5, |x, y, z| (x * x + y + z) as f64);
        let b = filled(5, |x, y, z| ((x + y * z) % 7) as f64);
        let mut combo = Field3::new(5, 5, 5, 1);
        combo.fill_interior(|x, y, z| 2.0 * a.at(x, y, z) - 3.0 * b.at(x, y, z));
        combo.copy_periodic_halo();
        let (ra, rb, rc) = (interior(&a, &s), interior(&b, &s), interior(&combo, &s));
        for (x, y, z) in rc.interior_range().iter() {
            let expect = 2.0 * ra.at(x, y, z) - 3.0 * rb.at(x, y, z);
            assert!((rc.at(x, y, z) - expect).abs() < 1e-10);
        }
    }
}
