//! Minimal SVG rendering of tessellations (stands in for Figures 1 and 9).
//!
//! Orthographic projection onto the x–y plane with painter's-order depth
//! sorting along z, faces colored by cell volume on a blue→red ramp.

use geometry::Vec3;
use tess::MeshBlock;

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct RenderOptions {
    /// Output image width in pixels (height scales with the domain).
    pub width: f64,
    /// Only draw cells with volume in `[vmin, vmax]`.
    pub vmin: f64,
    pub vmax: f64,
    /// Face fill opacity.
    pub opacity: f64,
    /// Only draw cells whose site z-coordinate lies in `[zmin, zmax)`
    /// (a slab view, like the paper's figures). Full depth by default.
    pub zmin: f64,
    pub zmax: f64,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            width: 800.0,
            vmin: 0.0,
            vmax: f64::INFINITY,
            opacity: 0.55,
            zmin: f64::NEG_INFINITY,
            zmax: f64::INFINITY,
        }
    }
}

/// Map a volume to a blue→red color given the observed volume range.
fn color(volume: f64, lo: f64, hi: f64) -> String {
    let t = if hi > lo {
        ((volume - lo) / (hi - lo)).clamp(0.0, 1.0)
    } else {
        0.5
    };
    let r = (40.0 + 200.0 * t) as u8;
    let g = (60.0 + 60.0 * (1.0 - (2.0 * t - 1.0).abs())) as u8;
    let b = (220.0 - 180.0 * t) as u8;
    format!("rgb({r},{g},{b})")
}

/// Render blocks to an SVG string.
pub fn render_svg(blocks: &[MeshBlock], opts: &RenderOptions) -> String {
    // Domain extent across blocks.
    let mut lo = Vec3::splat(f64::INFINITY);
    let mut hi = Vec3::splat(f64::NEG_INFINITY);
    for b in blocks {
        lo = lo.min(b.bounds.min);
        hi = hi.max(b.bounds.max);
    }
    if !lo.is_finite() || !hi.is_finite() {
        lo = Vec3::ZERO;
        hi = Vec3::ONE;
    }
    let extent = hi - lo;
    let scale = opts.width / extent.x.max(1e-12);
    let height = extent.y * scale;

    // Observed volume range for the color ramp.
    let mut vlo = f64::INFINITY;
    let mut vhi = f64::NEG_INFINITY;
    for b in blocks {
        for c in &b.cells {
            vlo = vlo.min(c.volume);
            vhi = vhi.max(c.volume);
        }
    }

    // Collect faces with depth keys.
    struct DrawFace {
        depth: f64,
        path: String,
        fill: String,
    }
    let mut faces: Vec<DrawFace> = Vec::new();
    for b in blocks {
        for c in &b.cells {
            if c.volume < opts.vmin || c.volume > opts.vmax {
                continue;
            }
            let z = b.site_of(c).z;
            if z < opts.zmin || z >= opts.zmax {
                continue;
            }
            let fill = color(c.volume, vlo, vhi);
            for f in c.faces {
                let pts = b.face_points(f);
                if pts.len() < 3 {
                    continue;
                }
                let depth: f64 = pts.iter().map(|p| p.z).sum::<f64>() / pts.len() as f64;
                let mut path = String::with_capacity(pts.len() * 16);
                for (i, p) in pts.iter().enumerate() {
                    let x = (p.x - lo.x) * scale;
                    let y = height - (p.y - lo.y) * scale;
                    path.push(if i == 0 { 'M' } else { 'L' });
                    path.push_str(&format!("{x:.2} {y:.2} "));
                }
                path.push('Z');
                faces.push(DrawFace {
                    depth,
                    path,
                    fill: fill.clone(),
                });
            }
        }
    }
    faces.sort_by(|a, b| {
        a.depth
            .partial_cmp(&b.depth)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut svg = String::with_capacity(faces.len() * 96 + 512);
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
         viewBox=\"0 0 {:.0} {:.0}\">\n<rect width=\"100%\" height=\"100%\" fill=\"#0b0b16\"/>\n",
        opts.width, height, opts.width, height
    ));
    for f in &faces {
        svg.push_str(&format!(
            "<path d=\"{}\" fill=\"{}\" fill-opacity=\"{}\" stroke=\"#111122\" stroke-width=\"0.4\"/>\n",
            f.path, f.fill, opts.opacity
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

/// Render and write to a file.
pub fn render_to_file(
    blocks: &[MeshBlock],
    opts: &RenderOptions,
    path: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::write(path, render_svg(blocks, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::Aabb;
    use tess::TessParams;

    fn small_tessellation() -> Vec<MeshBlock> {
        let particles: Vec<(u64, Vec3)> = (0..27)
            .map(|i| {
                let x = i % 3;
                let y = (i / 3) % 3;
                let z = i / 9;
                (
                    i as u64,
                    Vec3::new(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5),
                )
            })
            .collect();
        let (b, _) = tess::tessellate_serial(
            &particles,
            Aabb::cube(3.0),
            [true; 3],
            &TessParams::default().with_ghost(1.5),
        );
        vec![b]
    }

    #[test]
    fn svg_is_well_formed_and_nonempty() {
        let blocks = small_tessellation();
        let svg = render_svg(&blocks, &RenderOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.matches("<path").count() >= 27 * 6);
    }

    #[test]
    fn slab_filter_reduces_faces() {
        let blocks = small_tessellation();
        let all = render_svg(&blocks, &RenderOptions::default());
        let slab = render_svg(
            &blocks,
            &RenderOptions {
                zmin: 0.0,
                zmax: 1.0,
                ..RenderOptions::default()
            },
        );
        let n_all = all.matches("<path").count();
        let n_slab = slab.matches("<path").count();
        assert!(n_slab > 0 && n_slab < n_all, "{n_slab} vs {n_all}");
    }

    #[test]
    fn volume_filter_reduces_faces() {
        let blocks = small_tessellation();
        let all = render_svg(&blocks, &RenderOptions::default());
        let none = render_svg(
            &blocks,
            &RenderOptions {
                vmin: 100.0,
                ..RenderOptions::default()
            },
        );
        assert!(all.matches("<path").count() > none.matches("<path").count());
        assert_eq!(none.matches("<path").count(), 0);
    }

    #[test]
    fn color_ramp_endpoints() {
        assert_eq!(color(0.0, 0.0, 1.0), "rgb(40,60,220)");
        assert_eq!(color(1.0, 0.0, 1.0), "rgb(240,60,40)");
        // degenerate range falls back to midpoint
        assert_eq!(color(5.0, 5.0, 5.0), color(0.5, 0.0, 1.0));
    }

    #[test]
    fn render_to_file_writes() {
        let dir = std::env::temp_dir().join("tess-render-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.svg");
        render_to_file(&small_tessellation(), &RenderOptions::default(), &path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("<svg"));
    }
}
