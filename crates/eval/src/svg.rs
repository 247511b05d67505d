//! SVG rendering of trajectories and detections — the visual counterpart of
//! the paper's Figures 1 and 3, and the fastest way to see *why* a detection
//! hit or missed.
//!
//! The renderer is deliberately dependency-free: it emits a self-contained
//! SVG string with the urban core, the relevant sites, the raw trajectory,
//! its stay points, and the detected loaded trajectory highlighted.

use lead_core::processing::ProcessedTrajectory;
use lead_geo::{BoundingBox, GpsPoint};
use std::fmt::Write as _;

/// Visual styling of one rendered overlay layer.
#[derive(Debug, Clone, Copy)]
struct Style {
    stroke: &'static str,
    width: f64,
    opacity: f64,
}

/// A renderer mapping WGS84 points into a fixed-size SVG canvas.
#[derive(Debug)]
pub struct SvgMap {
    bbox: BoundingBox,
    width: f64,
    height: f64,
    body: String,
}

impl SvgMap {
    /// Creates a canvas covering `bbox` at `width` pixels (height follows the
    /// aspect ratio).
    ///
    /// # Panics
    /// Panics if the bounding box is degenerate or `width` non-positive.
    pub fn new(bbox: BoundingBox, width: f64) -> Self {
        assert!(width > 0.0, "canvas width must be positive");
        assert!(
            bbox.lat_span() > 0.0 && bbox.lng_span() > 0.0,
            "degenerate bounding box"
        );
        let height = width * bbox.lat_span() / bbox.lng_span();
        Self {
            bbox,
            width,
            height,
            body: String::new(),
        }
    }

    fn xy(&self, lat: f64, lng: f64) -> (f64, f64) {
        let x = (lng - self.bbox.min_lng) / self.bbox.lng_span() * self.width;
        // SVG y grows downward; latitude grows upward.
        let y = (self.bbox.max_lat - lat) / self.bbox.lat_span() * self.height;
        (x, y)
    }

    /// Draws a polyline through `points`.
    pub fn polyline(
        &mut self,
        points: &[GpsPoint],
        stroke: &'static str,
        width: f64,
        opacity: f64,
    ) {
        if points.len() < 2 {
            return;
        }
        let style = Style {
            stroke,
            width,
            opacity,
        };
        let mut d = String::with_capacity(points.len() * 16);
        for (i, p) in points.iter().enumerate() {
            let (x, y) = self.xy(p.lat, p.lng);
            let _ = write!(d, "{}{x:.1},{y:.1}", if i == 0 { "M" } else { " L" });
        }
        let _ = writeln!(
            self.body,
            r#"<path d="{d}" fill="none" stroke="{}" stroke-width="{}" stroke-opacity="{}"/>"#,
            style.stroke, style.width, style.opacity
        );
    }

    /// Draws a filled circle at `(lat, lng)`.
    pub fn circle(&mut self, lat: f64, lng: f64, r_px: f64, fill: &str, opacity: f64) {
        let (x, y) = self.xy(lat, lng);
        let _ = writeln!(
            self.body,
            r#"<circle cx="{x:.1}" cy="{y:.1}" r="{r_px}" fill="{fill}" fill-opacity="{opacity}"/>"#
        );
    }

    /// Adds a text label.
    pub fn label(&mut self, lat: f64, lng: f64, text: &str, size_px: u32) {
        let (x, y) = self.xy(lat, lng);
        let _ = writeln!(
            self.body,
            r#"<text x="{x:.1}" y="{y:.1}" font-size="{size_px}" font-family="sans-serif">{}</text>"#,
            text.replace('&', "&amp;").replace('<', "&lt;")
        );
    }

    /// Finalises the SVG document.
    pub fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
             viewBox=\"0 0 {:.0} {:.0}\">\n<rect width=\"100%\" height=\"100%\" fill=\"#fafaf7\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

/// Renders a processed trajectory with its detected loaded subtrajectory
/// highlighted: raw track in grey, loaded segment in red, stay points as
/// dots (loading/unloading endpoints enlarged).
pub fn render_detection(
    proc: &ProcessedTrajectory,
    detected: lead_core::processing::Candidate,
    canvas_px: f64,
) -> String {
    let Some(bbox) = BoundingBox::from_points(proc.cleaned.points()) else {
        // Nothing to draw; emit a well-formed empty document.
        return String::from("<svg xmlns=\"http://www.w3.org/2000/svg\"/>");
    };
    let bbox = bbox.expanded(0.005);
    let mut map = SvgMap::new(bbox, canvas_px);

    map.polyline(proc.cleaned.points(), "#888888", 1.2, 0.8);
    let (a, b) = proc.candidate_point_range(detected);
    map.polyline(&proc.cleaned.points()[a..=b], "#cc2222", 2.4, 0.9);

    for (k, sp) in proc.stay_points.iter().enumerate() {
        if let Some((lat, lng)) = proc.cleaned.slice(sp.start, sp.end).centroid() {
            let endpoint = k == detected.start_sp || k == detected.end_sp;
            let (r, fill) = if endpoint {
                (6.0, "#cc2222")
            } else {
                (3.5, "#2255cc")
            };
            map.circle(lat, lng, r, fill, 0.9);
            map.label(lat, lng, &format!("sp{k}"), 10);
        }
    }
    map.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lead_core::config::LeadConfig;
    use lead_core::processing::Candidate;
    use lead_geo::Trajectory;

    fn demo_proc() -> ProcessedTrajectory {
        let mut pts = Vec::new();
        for block in 0..3 {
            let lng = 120.9 + block as f64 * 0.05;
            let t0 = block as i64 * 1800;
            for k in 0..10 {
                pts.push(GpsPoint::new(32.0, lng, t0 + k * 120));
            }
            pts.push(GpsPoint::new(32.0, lng + 0.02, t0 + 1200));
            pts.push(GpsPoint::new(32.0, lng + 0.04, t0 + 1320));
        }
        ProcessedTrajectory::from_raw(&Trajectory::new(pts), &LeadConfig::paper())
    }

    #[test]
    fn render_produces_well_formed_svg() {
        let proc = demo_proc();
        assert!(proc.num_stay_points() >= 2);
        let svg = render_detection(&proc, Candidate::new(0, 1), 800.0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("<path"));
        // One circle per stay point plus the background rect.
        assert_eq!(svg.matches("<circle").count(), proc.num_stay_points());
        assert!(svg.contains("sp0"));
        // Balanced tags.
        assert_eq!(svg.matches("<svg").count(), svg.matches("</svg>").count());
    }

    #[test]
    fn coordinates_map_into_canvas() {
        let bbox = BoundingBox::new(31.0, 120.0, 32.0, 121.0);
        let map = SvgMap::new(bbox, 500.0);
        let (x, y) = map.xy(32.0, 120.0); // top-left corner
        assert!((x - 0.0).abs() < 1e-9 && (y - 0.0).abs() < 1e-9);
        let (x, y) = map.xy(31.0, 121.0); // bottom-right corner
        assert!((x - 500.0).abs() < 1e-9 && (y - map.height).abs() < 1e-9);
    }

    #[test]
    fn labels_escape_markup() {
        let bbox = BoundingBox::new(31.0, 120.0, 32.0, 121.0);
        let mut map = SvgMap::new(bbox, 100.0);
        map.label(31.5, 120.5, "<Zhongtian & Co>", 10);
        let svg = map.finish();
        assert!(svg.contains("&lt;Zhongtian &amp; Co>"));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_bbox_rejected() {
        let _ = SvgMap::new(BoundingBox::new(31.0, 120.0, 31.0, 121.0), 100.0);
    }
}
