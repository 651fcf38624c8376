//! A small metrics registry: named sections of named values, rendered
//! as aligned text or JSON.
//!
//! `bin/diag` prints its counter report through this (built by
//! `SimResult::registry` in `lsq-pipeline`) instead of hand-rolled
//! `println!`/`format!` blocks. The experiment engine's
//! `LSQ_EXPERIMENTS_JSON` dump does not use it: each job record renders
//! its own JSON.

use crate::json::Json;

/// A metric's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An event count.
    Count(u64),
    /// A rate, mean, or other float.
    Float(f64),
    /// A percentage (stored as 0–100).
    Percent(f64),
}

impl MetricValue {
    fn render(&self) -> String {
        match *self {
            MetricValue::Count(n) => n.to_string(),
            MetricValue::Float(x) => format!("{x:.4}"),
            MetricValue::Percent(x) => format!("{x:.2}%"),
        }
    }

    fn to_json(self) -> Json {
        match self {
            MetricValue::Count(n) => Json::from(n),
            MetricValue::Float(x) | MetricValue::Percent(x) => Json::from(x),
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (snake_case; doubles as the JSON key).
    pub name: String,
    /// The value.
    pub value: MetricValue,
}

/// A named group of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Section heading.
    pub name: String,
    /// The metrics, in insertion order.
    pub metrics: Vec<Metric>,
}

impl Section {
    /// Append a count metric; returns `self` for chaining.
    pub fn count(mut self, name: &str, value: u64) -> Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: MetricValue::Count(value),
        });
        self
    }

    /// Append a float metric; returns `self` for chaining.
    pub fn float(mut self, name: &str, value: f64) -> Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: MetricValue::Float(value),
        });
        self
    }

    /// Append a percentage metric (value in 0–100); returns `self`.
    pub fn percent(mut self, name: &str, value: f64) -> Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: MetricValue::Percent(value),
        });
        self
    }
}

/// An ordered collection of sections under one title.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    /// Report title.
    pub title: String,
    /// The sections, in insertion order.
    pub sections: Vec<Section>,
}

impl Registry {
    /// An empty registry with the given title.
    pub fn new(title: &str) -> Self {
        Registry {
            title: title.to_string(),
            sections: Vec::new(),
        }
    }

    /// Append a section built with the [`Section`] chaining methods.
    pub fn section(mut self, section: Section) -> Self {
        self.sections.push(section);
        self
    }

    /// Start a section for chained building:
    /// `reg.section(Registry::named("run").count("cycles", c))`.
    pub fn named(name: &str) -> Section {
        Section {
            name: name.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Render as aligned text: title, then each section with its
    /// metrics right-aligned in a value column.
    pub fn render(&self) -> String {
        let name_width = self
            .sections
            .iter()
            .flat_map(|s| s.metrics.iter())
            .map(|m| m.name.len())
            .max()
            .unwrap_or(0);
        let mut out = format!("=== {} ===\n", self.title);
        for section in &self.sections {
            out.push_str(&format!("\n[{}]\n", section.name));
            for m in &section.metrics {
                out.push_str(&format!(
                    "  {:<width$}  {:>14}\n",
                    m.name,
                    m.value.render(),
                    width = name_width
                ));
            }
        }
        out
    }

    /// Render as a JSON object: `{"title":…, "<section>": {"<metric>": …}}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("title".to_string(), Json::from(self.title.as_str()))];
        for section in &self.sections {
            let metrics = section
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.value.to_json()))
                .collect();
            fields.push((section.name.clone(), Json::Obj(metrics)));
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        Registry::new("gzip / store_sets")
            .section(
                Registry::named("run")
                    .count("cycles", 1000)
                    .float("ipc", 1.5),
            )
            .section(Registry::named("predictor").percent("mispredict_rate", 2.25))
    }

    #[test]
    fn renders_title_sections_and_alignment() {
        let text = sample().render();
        assert!(text.starts_with("=== gzip / store_sets ==="));
        assert!(text.contains("[run]"));
        assert!(text.contains("[predictor]"));
        assert!(text.contains("cycles"));
        assert!(text.contains("1.5000"));
        assert!(text.contains("2.25%"));
    }

    #[test]
    fn json_round_trips_with_section_structure() {
        let j = sample().to_json();
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(
            back.get("title").and_then(Json::as_str),
            Some("gzip / store_sets")
        );
        let run = back.get("run").unwrap();
        assert_eq!(run.get("cycles").and_then(Json::as_u64), Some(1000));
        assert_eq!(run.get("ipc").and_then(Json::as_f64), Some(1.5));
    }
}
