//! ASCII line charts for rendering tradeoff curves in a terminal.

/// One plotted series.
#[derive(Debug, Clone)]
pub struct ChartSeries {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points; need not be sorted.
    pub points: Vec<(f64, f64)>,
}

impl ChartSeries {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        ChartSeries {
            label: label.into(),
            points,
        }
    }
}

/// A fixed-size character-grid line chart with optional log-scaled x-axis
/// (compression ratios are plotted on log axes throughout the paper).
///
/// # Example
///
/// ```
/// use sb_report::{AsciiChart, ChartSeries};
///
/// let chart = AsciiChart::new("accuracy vs compression", 40, 10)
///     .log_x(true)
///     .series(ChartSeries::new("magnitude", vec![(1.0, 0.9), (32.0, 0.6)]));
/// let text = chart.render();
/// assert!(text.contains("magnitude"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiChart {
    title: String,
    width: usize,
    height: usize,
    log_x: bool,
    x_label: String,
    y_label: String,
    series: Vec<ChartSeries>,
}

const MARKERS: [char; 8] = ['o', '+', 'x', '*', '#', '@', '%', '&'];

impl AsciiChart {
    /// Creates an empty chart of `width × height` plot cells.
    ///
    /// # Panics
    ///
    /// Panics if `width < 8` or `height < 4`.
    pub fn new(title: impl Into<String>, width: usize, height: usize) -> Self {
        assert!(width >= 8 && height >= 4, "chart too small to render");
        AsciiChart {
            title: title.into(),
            width,
            height,
            log_x: false,
            x_label: String::new(),
            y_label: String::new(),
            series: Vec::new(),
        }
    }

    /// Enables base-2 logarithmic x-scaling.
    pub fn log_x(mut self, enabled: bool) -> Self {
        self.log_x = enabled;
        self
    }

    /// Sets the axis captions.
    pub fn axis_labels(mut self, x: impl Into<String>, y: impl Into<String>) -> Self {
        self.x_label = x.into();
        self.y_label = y.into();
        self
    }

    /// Adds a series.
    pub fn series(mut self, series: ChartSeries) -> Self {
        self.series.push(series);
        self
    }

    fn x_of(&self, x: f64) -> f64 {
        if self.log_x {
            x.max(f64::MIN_POSITIVE).log2()
        } else {
            x
        }
    }

    /// Renders the chart to a multi-line string (empty series → a note).
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, y)| (self.x_of(x), y)))
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if pts.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        if (x_max - x_min).abs() < 1e-12 {
            x_max = x_min + 1.0;
        }
        if (y_max - y_min).abs() < 1e-12 {
            y_max = y_min + 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];

        for (si, series) in self.series.iter().enumerate() {
            let marker = MARKERS[si % MARKERS.len()];
            // Sort and draw segments between consecutive points.
            let mut path: Vec<(f64, f64)> = series
                .points
                .iter()
                .map(|&(x, y)| (self.x_of(x), y))
                .filter(|(x, y)| x.is_finite() && y.is_finite())
                .collect();
            path.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("filtered finite"));
            let to_cell = |x: f64, y: f64| -> (usize, usize) {
                let cx = ((x - x_min) / (x_max - x_min) * (self.width - 1) as f64).round() as usize;
                let cy = ((y - y_min) / (y_max - y_min) * (self.height - 1) as f64).round() as usize;
                (cx.min(self.width - 1), self.height - 1 - cy.min(self.height - 1))
            };
            for w in path.windows(2) {
                let (x0, y0) = to_cell(w[0].0, w[0].1);
                let (x1, y1) = to_cell(w[1].0, w[1].1);
                // Linear interpolation in cell space.
                let steps = (x1.abs_diff(x0)).max(y1.abs_diff(y0)).max(1);
                for s in 0..=steps {
                    let t = s as f64 / steps as f64;
                    let cx = (x0 as f64 + t * (x1 as f64 - x0 as f64)).round() as usize;
                    let cy = (y0 as f64 + t * (y1 as f64 - y0 as f64)).round() as usize;
                    grid[cy.min(self.height - 1)][cx.min(self.width - 1)] = marker;
                }
            }
            for &(x, y) in &path {
                let (cx, cy) = to_cell(x, y);
                grid[cy][cx] = marker;
            }
        }

        let y_caption = if self.y_label.is_empty() { String::new() } else { format!("  ({})", self.y_label) };
        out.push_str(&format!("{y_max:>9.3} ┤{y_caption}\n"));
        for row in &grid {
            out.push_str("          │");
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("{y_min:>9.3} └{}\n", "─".repeat(self.width)));
        let x_caption = if self.x_label.is_empty() { String::new() } else { format!(" ({})", self.x_label) };
        let x_lo = if self.log_x { 2f64.powf(x_min) } else { x_min };
        let x_hi = if self.log_x { 2f64.powf(x_max) } else { x_max };
        out.push_str(&format!(
            "           {x_lo:<12.3}{:>width$.3}{x_caption}\n",
            x_hi,
            width = self.width.saturating_sub(12)
        ));
        for (si, series) in self.series.iter().enumerate() {
            out.push_str(&format!(
                "   {} {}\n",
                MARKERS[si % MARKERS.len()],
                series.label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_and_legend() {
        let chart = AsciiChart::new("test", 30, 8)
            .series(ChartSeries::new("alpha", vec![(0.0, 0.0), (1.0, 1.0)]))
            .series(ChartSeries::new("beta", vec![(0.0, 1.0), (1.0, 0.0)]));
        let text = chart.render();
        assert!(text.contains("== test =="));
        assert!(text.contains("o alpha"));
        assert!(text.contains("+ beta"));
    }

    #[test]
    fn empty_chart_notes_no_data() {
        let text = AsciiChart::new("empty", 20, 5).render();
        assert!(text.contains("(no data)"));
    }

    #[test]
    fn log_x_spreads_octaves_evenly() {
        // Points at 1, 2, 4 should land at even spacing under log-x.
        let chart = AsciiChart::new("log", 21, 5)
            .log_x(true)
            .series(ChartSeries::new("s", vec![(1.0, 0.0), (2.0, 1.0), (4.0, 2.0)]));
        let text = chart.render();
        // Midpoint marker should appear near column 10.
        let mid_row: &str = text
            .lines()
            .find(|l| l.contains('o') && l.contains('│'))
            .unwrap();
        assert!(mid_row.len() > 10);
    }

    #[test]
    fn increasing_series_has_marker_in_top_right() {
        let chart = AsciiChart::new("up", 20, 6)
            .series(ChartSeries::new("s", vec![(0.0, 0.0), (10.0, 10.0)]));
        let text = chart.render();
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("          │")).collect();
        assert_eq!(rows.len(), 6);
        // Top row's marker should be to the right of the bottom row's.
        let top = rows[0].rfind('o').unwrap();
        let bottom = rows[5].find('o').unwrap();
        assert!(top > bottom);
    }

    #[test]
    fn constant_series_renders_without_panic() {
        let chart = AsciiChart::new("flat", 20, 5)
            .series(ChartSeries::new("s", vec![(1.0, 5.0), (2.0, 5.0)]));
        let text = chart.render();
        assert!(text.contains('o'));
    }

    #[test]
    fn non_finite_points_are_skipped() {
        let chart = AsciiChart::new("nan", 20, 5)
            .series(ChartSeries::new("s", vec![(f64::NAN, 1.0), (1.0, 2.0), (2.0, 3.0)]));
        let text = chart.render();
        assert!(text.contains('o'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_chart_rejected() {
        AsciiChart::new("x", 2, 2);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn log_x_clamps_nonpositive_values() {
        // Zero/negative x under log scaling must not panic or poison the
        // chart with NaN/-inf artifacts.
        let chart = AsciiChart::new("clamp", 20, 5)
            .log_x(true)
            .series(ChartSeries::new("s", vec![(0.0, 1.0), (1.0, 2.0), (4.0, 3.0)]));
        let text = chart.render();
        assert!(text.contains('o'));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn single_point_series_renders() {
        let chart = AsciiChart::new("dot", 20, 5)
            .series(ChartSeries::new("s", vec![(3.0, 7.0)]));
        let text = chart.render();
        assert!(text.contains('o'));
    }

    #[test]
    fn many_series_cycle_markers() {
        let mut chart = AsciiChart::new("many", 24, 6);
        for i in 0..10 {
            chart = chart.series(ChartSeries::new(
                format!("s{i}"),
                vec![(0.0, i as f64), (1.0, i as f64 + 1.0)],
            ));
        }
        let text = chart.render();
        // Markers repeat after 8 series; legend should list all 10.
        assert!(text.matches("s0").count() + text.matches("s1").count() >= 2);
        assert!(text.contains("o s0"));
        assert!(text.contains("o s8"), "marker cycling");
    }
}
