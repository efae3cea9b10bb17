//! Named `(x, y)` series — the printable unit every figure harness emits.

use std::fmt;

/// A named series of `(x, y)` points, e.g. one curve of a CDF figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label as it appears in the figure legend (e.g. `"EU"`, `"T-AP"`).
    pub name: String,
    /// The data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from a label and points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# series: {}", self.name)?;
        for (x, y) in &self.points {
            writeln!(f, "{x:.6}\t{y:.6}")?;
        }
        Ok(())
    }
}

/// A figure: a caption plus one or more series, with axis labels.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier, e.g. `"Fig 3 (left)"`.
    pub id: String,
    /// Human caption.
    pub caption: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        caption: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            caption: caption.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn push(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Finds a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.caption)?;
        writeln!(f, "# x: {}   y: {}", self.x_label, self.y_label)?;
        for s in &self.series {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_points() {
        let s = Series::new("EU", vec![(1.0, 0.5)]);
        let out = s.to_string();
        assert!(out.contains("# series: EU"));
        assert!(out.contains("1.000000\t0.500000"));
    }

    #[test]
    fn figure_lookup() {
        let mut fig = Figure::new("Fig X", "cap", "x", "y");
        fig.push(Series::new("a", vec![(0.0, 0.0)]));
        assert!(fig.series_named("a").is_some());
        assert!(fig.series_named("b").is_none());
        assert!(fig.to_string().contains("Fig X"));
    }
}
