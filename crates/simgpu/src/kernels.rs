//! Functional kernel bodies.
//!
//! These execute the same arithmetic a CUDA Fortran kernel would, with the
//! same thread-block structure: a 2-D grid of `(bx, by)` thread blocks
//! tiles the x/y extent of the launch region; the interior threads of each
//! block compute while the edge ("halo") threads only perform memory
//! operations; the block marches along z reusing three staged planes —
//! the algorithm of Micikevicius (2009) the paper builds on.
//!
//! Because the tap order matches `advect_core::stencil`, the GPU kernels
//! produce **bit-identical** results to the CPU reference, which is how
//! the cross-implementation tests can require exact equality.

use advect_core::field::Range3;
use advect_core::stencil::accumulate_tap_rows;

/// Device-side field layout: interior extent plus halo width, x fastest —
/// identical to `advect_core::Field3` so host fields map 1:1 to buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDims {
    /// Interior extent.
    pub nx: usize,
    /// Interior extent.
    pub ny: usize,
    /// Interior extent.
    pub nz: usize,
    /// Halo width (0 for the GPU-resident layout where periodicity is
    /// applied by wrap-around indexing in shared-memory loads).
    pub halo: usize,
}

impl FieldDims {
    /// Total allocation length.
    pub fn len(&self) -> usize {
        (self.nx + 2 * self.halo) * (self.ny + 2 * self.halo) * (self.nz + 2 * self.halo)
    }

    /// Whether the allocation is empty (never for valid dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of interior-relative coordinates (may address halo).
    #[inline]
    pub fn idx(&self, x: i64, y: i64, z: i64) -> usize {
        let h = self.halo as i64;
        let sx = self.nx + 2 * self.halo;
        let sy = self.ny + 2 * self.halo;
        debug_assert!(x >= -h && (x) < (self.nx + self.halo) as i64);
        debug_assert!(y >= -h && (y) < (self.ny + self.halo) as i64);
        debug_assert!(z >= -h && (z) < (self.nz + self.halo) as i64);
        (x + h) as usize + sx * ((y + h) as usize + sy * (z + h) as usize)
    }

    /// Flat index with periodic wrap-around (for halo-free layouts).
    #[inline]
    pub fn idx_wrap(&self, x: i64, y: i64, z: i64) -> usize {
        let wx = x.rem_euclid(self.nx as i64);
        let wy = y.rem_euclid(self.ny as i64);
        let wz = z.rem_euclid(self.nz as i64);
        self.idx(wx, wy, wz)
    }

    /// The interior as a region.
    pub fn interior(&self) -> Range3 {
        Range3::new(
            (0, self.nx as i64),
            (0, self.ny as i64),
            (0, self.nz as i64),
        )
    }
}

/// Parameters of a stencil kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct StencilLaunch {
    /// Field layout shared by `src` and `dst`.
    pub dims: FieldDims,
    /// Region of points to update (interior-relative).
    pub region: Range3,
    /// Thread-block shape `(bx, by)`; the block's edge threads only load.
    pub block: (usize, usize),
    /// Wrap reads periodically (GPU-resident layout) instead of reading
    /// halo storage.
    pub periodic: bool,
}

impl StencilLaunch {
    /// Number of points updated.
    pub fn points(&self) -> usize {
        self.region.len()
    }

    /// Number of thread blocks launched: the compute tile of a `(bx, by)`
    /// block is `(bx-2) × (by-2)` (edge threads are halo loaders).
    pub fn blocks(&self) -> usize {
        let tile_x = self.block.0.saturating_sub(2).max(1);
        let tile_y = self.block.1.saturating_sub(2).max(1);
        let ex = (self.region.x.1 - self.region.x.0).max(0) as usize;
        let ey = (self.region.y.1 - self.region.y.0).max(0) as usize;
        ex.div_ceil(tile_x) * ey.div_ceil(tile_y)
    }
}

/// Execute the stencil kernel functionally: block-tiled, z-marching,
/// staging each (tile+halo) plane through "shared memory".
pub fn run_stencil(src: &[f64], dst: &mut [f64], coeffs: &[f64; 27], p: &StencilLaunch) {
    let tile_x = p.block.0.saturating_sub(2).max(1) as i64;
    let tile_y = p.block.1.saturating_sub(2).max(1) as i64;
    let r = p.region;
    if r.is_empty() {
        return;
    }
    let d = p.dims;
    // Shared-memory staging: (tile+2) × (tile+2) × 3 planes.
    let sw = (tile_x + 2) as usize;
    let sh = (tile_y + 2) as usize;
    let mut shared = vec![0.0f64; sw * sh * 3];
    let read = |x: i64, y: i64, z: i64| -> f64 {
        if p.periodic {
            src[d.idx_wrap(x, y, z)]
        } else {
            src[d.idx(x, y, z)]
        }
    };
    let mut by0 = r.y.0;
    while by0 < r.y.1 {
        let by1 = (by0 + tile_y).min(r.y.1);
        let mut bx0 = r.x.0;
        while bx0 < r.x.1 {
            let bx1 = (bx0 + tile_x).min(r.x.1);
            // March along z: all threads (including halo threads) load the
            // three planes into shared memory, then interior threads compute.
            for z in r.z.0..r.z.1 {
                for (pi, dz) in (-1i64..=1).enumerate() {
                    for sy in 0..(by1 - by0 + 2) {
                        for sx in 0..(bx1 - bx0 + 2) {
                            let gx = bx0 - 1 + sx;
                            let gy = by0 - 1 + sy;
                            shared[pi * sw * sh + sy as usize * sw + sx as usize] =
                                read(gx, gy, z + dz);
                        }
                    }
                }
                // Row-vectorized tap accumulation: the 27 taps are rows
                // of the staged planes (tap order matches the coefficient
                // order: plane slowest, y, x fastest), accumulated with
                // the same register-chunked helper as the CPU fast path,
                // so results stay bit-identical to the scalar reference.
                let w = (bx1 - bx0) as usize;
                for y in by0..by1 {
                    let ly = (y - by0 + 1) as usize;
                    let d0 = d.idx(bx0, y, z);
                    let rows: [&[f64]; 27] = std::array::from_fn(|t| {
                        let (pz, dy, dx) = (t / 9, t / 3 % 3, t % 3);
                        // lx for x = bx0 is 1, so the tap's first read
                        // sits at column 1 + dx - 1 = dx.
                        let s0 = pz * sw * sh + (ly + dy - 1) * sw + dx;
                        &shared[s0..s0 + w]
                    });
                    accumulate_tap_rows(&mut dst[d0..d0 + w], &rows, coeffs);
                }
            }
            bx0 = bx1;
        }
        by0 = by1;
    }
}

/// Parameters of a 3-D-block stencil launch (the variant the paper
/// rejects: "We use two-dimensional blocks instead of three because they
/// allow better memory reuse in our test").
#[derive(Debug, Clone, Copy)]
pub struct StencilLaunch3d {
    /// Field layout shared by `src` and `dst`.
    pub dims: FieldDims,
    /// Region of points to update.
    pub region: Range3,
    /// Thread-block shape `(bx, by, bz)`; edge threads only load.
    pub block: (usize, usize, usize),
    /// Wrap reads periodically.
    pub periodic: bool,
}

/// Execute the 3-D-block stencil kernel functionally: each block stages
/// its `(bx+2) × (by+2) × (bz+2)` neighborhood through shared memory and
/// computes its `bx × by × bz` tile — no z-march, so every interior plane
/// is re-loaded by the block above and below it (the memory-reuse loss
/// that makes this variant slower).
pub fn run_stencil_3d(src: &[f64], dst: &mut [f64], coeffs: &[f64; 27], p: &StencilLaunch3d) {
    let tile = (
        p.block.0.saturating_sub(2).max(1) as i64,
        p.block.1.saturating_sub(2).max(1) as i64,
        p.block.2.saturating_sub(2).max(1) as i64,
    );
    let r = p.region;
    if r.is_empty() {
        return;
    }
    let d = p.dims;
    let read = |x: i64, y: i64, z: i64| -> f64 {
        if p.periodic {
            src[d.idx_wrap(x, y, z)]
        } else {
            src[d.idx(x, y, z)]
        }
    };
    let sw = (tile.0 + 2) as usize;
    let sh = (tile.1 + 2) as usize;
    let sd = (tile.2 + 2) as usize;
    let mut shared = vec![0.0f64; sw * sh * sd];
    let mut bz0 = r.z.0;
    while bz0 < r.z.1 {
        let bz1 = (bz0 + tile.2).min(r.z.1);
        let mut by0 = r.y.0;
        while by0 < r.y.1 {
            let by1 = (by0 + tile.1).min(r.y.1);
            let mut bx0 = r.x.0;
            while bx0 < r.x.1 {
                let bx1 = (bx0 + tile.0).min(r.x.1);
                // All threads (incl. halo threads) stage the neighborhood.
                for sz in 0..(bz1 - bz0 + 2) {
                    for sy in 0..(by1 - by0 + 2) {
                        for sx in 0..(bx1 - bx0 + 2) {
                            shared[(sz as usize * sh + sy as usize) * sw + sx as usize] =
                                read(bx0 - 1 + sx, by0 - 1 + sy, bz0 - 1 + sz);
                        }
                    }
                }
                // Row-vectorized tap accumulation (see `run_stencil`).
                let w = (bx1 - bx0) as usize;
                for z in bz0..bz1 {
                    for y in by0..by1 {
                        let (ly, lz) = ((y - by0 + 1) as usize, (z - bz0 + 1) as usize);
                        let d0 = d.idx(bx0, y, z);
                        let rows: [&[f64]; 27] = std::array::from_fn(|t| {
                            let (dz, dy, dx) = (t / 9, t / 3 % 3, t % 3);
                            let s0 = ((lz + dz - 1) * sh + (ly + dy - 1)) * sw + dx;
                            &shared[s0..s0 + w]
                        });
                        accumulate_tap_rows(&mut dst[d0..d0 + w], &rows, coeffs);
                    }
                }
                bx0 = bx1;
            }
            by0 = by1;
        }
        bz0 = bz1;
    }
}

/// Pack a region of a device field into a linear buffer (x fastest).
pub fn run_pack(field: &[f64], dims: FieldDims, region: Range3, out: &mut [f64]) -> usize {
    let mut n = 0;
    for (x, y, z) in region.iter() {
        out[n] = field[dims.idx(x, y, z)];
        n += 1;
    }
    n
}

/// Unpack a linear buffer into a region of a device field.
pub fn run_unpack(field: &mut [f64], dims: FieldDims, region: Range3, data: &[f64]) -> usize {
    let mut n = 0;
    for (x, y, z) in region.iter() {
        field[dims.idx(x, y, z)] = data[n];
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use advect_core::coeffs::{Stencil27, Velocity};
    use advect_core::field::Field3;
    use advect_core::stencil::apply_stencil_region;

    fn device_field_from(f: &Field3) -> (Vec<f64>, FieldDims) {
        let (nx, ny, nz) = f.interior();
        (
            f.data().to_vec(),
            FieldDims {
                nx,
                ny,
                nz,
                halo: f.halo(),
            },
        )
    }

    #[test]
    fn gpu_stencil_matches_cpu_bitwise() {
        let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9);
        let mut cur = Field3::new(9, 8, 7, 1);
        cur.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 * 0.37);
        cur.copy_periodic_halo();
        let mut cpu = Field3::new(9, 8, 7, 1);
        apply_stencil_region(&cur, &mut cpu, &s, cur.interior_range());

        let (src, dims) = device_field_from(&cur);
        for block in [(4, 4), (3, 5), (16, 16), (32, 8)] {
            let mut dst = vec![0.0; dims.len()];
            run_stencil(
                &src,
                &mut dst,
                &s.a,
                &StencilLaunch {
                    dims,
                    region: dims.interior(),
                    block,
                    periodic: false,
                },
            );
            for (x, y, z) in dims.interior().iter() {
                assert_eq!(
                    dst[dims.idx(x, y, z)],
                    cpu.at(x, y, z),
                    "block {block:?} at ({x},{y},{z})"
                );
            }
        }
    }

    #[test]
    fn periodic_kernel_matches_halo_kernel() {
        // GPU-resident layout (halo = 0, wrap indexing) must equal the
        // halo-based result.
        let s = Stencil27::new(Velocity::new(0.8, -0.6, 0.4), 0.95);
        let mut cur = Field3::new(6, 6, 6, 1);
        cur.fill_interior(|x, y, z| ((x + 2 * y + 3 * z) % 5) as f64);
        cur.copy_periodic_halo();
        let mut cpu = Field3::new(6, 6, 6, 1);
        apply_stencil_region(&cur, &mut cpu, &s, cur.interior_range());

        let dims = FieldDims {
            nx: 6,
            ny: 6,
            nz: 6,
            halo: 0,
        };
        let mut src = vec![0.0; dims.len()];
        for (x, y, z) in dims.interior().iter() {
            src[dims.idx(x, y, z)] = cur.at(x, y, z);
        }
        let mut dst = vec![0.0; dims.len()];
        run_stencil(
            &src,
            &mut dst,
            &s.a,
            &StencilLaunch {
                dims,
                region: dims.interior(),
                block: (4, 4),
                periodic: true,
            },
        );
        for (x, y, z) in dims.interior().iter() {
            assert_eq!(dst[dims.idx(x, y, z)], cpu.at(x, y, z), "at ({x},{y},{z})");
        }
    }

    #[test]
    fn sub_region_launch_only_touches_region() {
        let s = Stencil27::new(Velocity::unit_diagonal(), 0.5);
        let dims = FieldDims {
            nx: 6,
            ny: 6,
            nz: 6,
            halo: 1,
        };
        let src = vec![1.0; dims.len()];
        let mut dst = vec![-7.0; dims.len()];
        let region = Range3::new((2, 4), (2, 4), (2, 4));
        run_stencil(
            &src,
            &mut dst,
            &s.a,
            &StencilLaunch {
                dims,
                region,
                block: (8, 8),
                periodic: false,
            },
        );
        for (x, y, z) in dims.interior().iter() {
            if region.contains(x, y, z) {
                assert!((dst[dims.idx(x, y, z)] - 1.0).abs() < 1e-13);
            } else {
                assert_eq!(dst[dims.idx(x, y, z)], -7.0);
            }
        }
    }

    #[test]
    fn three_d_kernel_matches_two_d_bitwise() {
        let s = Stencil27::new(Velocity::new(0.9, 0.4, -0.2), 0.8);
        let mut cur = Field3::new(9, 8, 7, 1);
        cur.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 * 0.37);
        cur.copy_periodic_halo();
        let (src, dims) = device_field_from(&cur);
        let mut dst2 = vec![0.0; dims.len()];
        run_stencil(
            &src,
            &mut dst2,
            &s.a,
            &StencilLaunch {
                dims,
                region: dims.interior(),
                block: (8, 8),
                periodic: false,
            },
        );
        for block in [(4usize, 4usize, 4usize), (8, 4, 2), (3, 3, 3)] {
            let mut dst3 = vec![0.0; dims.len()];
            run_stencil_3d(
                &src,
                &mut dst3,
                &s.a,
                &StencilLaunch3d {
                    dims,
                    region: dims.interior(),
                    block,
                    periodic: false,
                },
            );
            for (x, y, z) in dims.interior().iter() {
                assert_eq!(
                    dst3[dims.idx(x, y, z)],
                    dst2[dims.idx(x, y, z)],
                    "block {block:?} at ({x},{y},{z})"
                );
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip_on_device() {
        let dims = FieldDims {
            nx: 5,
            ny: 4,
            nz: 3,
            halo: 1,
        };
        let mut field = vec![0.0; dims.len()];
        for (i, v) in field.iter_mut().enumerate() {
            *v = i as f64;
        }
        let region = Range3::new((0, 5), (1, 3), (0, 3));
        let mut buf = vec![0.0; region.len()];
        assert_eq!(run_pack(&field, dims, region, &mut buf), region.len());
        let mut field2 = vec![0.0; dims.len()];
        assert_eq!(run_unpack(&mut field2, dims, region, &buf), region.len());
        for (x, y, z) in region.iter() {
            assert_eq!(field2[dims.idx(x, y, z)], field[dims.idx(x, y, z)]);
        }
    }

    #[test]
    fn block_count_accounts_for_halo_threads() {
        let launch = StencilLaunch {
            dims: FieldDims {
                nx: 64,
                ny: 64,
                nz: 64,
                halo: 1,
            },
            region: Range3::new((0, 64), (0, 64), (0, 64)),
            block: (34, 10),
            periodic: false,
        };
        // Tile is 32×8 ⇒ 2×8 = 16 blocks.
        assert_eq!(launch.blocks(), 16);
    }
}
