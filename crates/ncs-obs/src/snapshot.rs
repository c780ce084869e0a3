//! The [`MetricsSnapshot`] tree and its three renderings: an aligned
//! human-readable table, Prometheus text exposition, and a JSON form
//! used by cluster aggregation (`ncs-launch --telemetry`) and the
//! post-mortem sink.

use crate::json::Json;
use crate::metrics::{bucket_upper, HistSnapshot};
use crate::obj;

/// What kind of instrument a family's series come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count.
    Counter,
    /// Instantaneous level.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' value at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram distribution.
    Histogram(HistSnapshot),
}

/// One labelled series within a [`Family`].
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Label pairs identifying this series.
    pub labels: Vec<(String, String)>,
    /// The value read at snapshot time.
    pub value: MetricValue,
}

impl Series {
    fn label_str(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// All series sharing one metric name.
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    /// Metric name (Prometheus-style, e.g. `ncs_conn_messages_sent_total`).
    pub name: String,
    /// One-line description.
    pub help: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// The series, in registration order.
    pub series: Vec<Series>,
}

/// A point-in-time reading of a whole [`Registry`](crate::Registry):
/// every family, every series, every source.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Families sorted by name.
    pub families: Vec<Family>,
}

impl MetricsSnapshot {
    /// Looks up a family by name.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Sum of a counter family across all its series (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name)
            .map(|f| {
                f.series
                    .iter()
                    .map(|s| match &s.value {
                        MetricValue::Counter(v) => *v,
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// The human-readable table: one line per series, values aligned.
    ///
    /// Histograms print `count/mean/p50/p99/p999`.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for f in &self.families {
            for s in &f.series {
                let name = format!("{}{}", f.name, s.label_str());
                let value = match &s.value {
                    MetricValue::Counter(v) => v.to_string(),
                    MetricValue::Gauge(v) => v.to_string(),
                    MetricValue::Histogram(h) => format!(
                        "count={} mean={:.1} p50≤{} p99≤{} p999≤{}",
                        h.count,
                        h.mean(),
                        h.p50,
                        h.p99,
                        h.p999
                    ),
                };
                rows.push((name, value));
            }
        }
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            out.push_str(&format!("{name:<width$}  {value}\n"));
        }
        out
    }

    /// Prometheus text exposition (version 0.0.4 flavour).
    ///
    /// Histograms emit cumulative `_bucket{le=...}` series over the
    /// non-empty log2 buckets plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            if !f.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            }
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
            for s in &f.series {
                match &s.value {
                    MetricValue::Counter(v) => {
                        out.push_str(&format!("{}{} {v}\n", f.name, s.label_str()));
                    }
                    MetricValue::Gauge(v) => {
                        out.push_str(&format!("{}{} {v}\n", f.name, s.label_str()));
                    }
                    MetricValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (b, &c) in h.buckets.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            cum += c;
                            let mut labels = s.labels.clone();
                            labels.push(("le".into(), bucket_upper(b).to_string()));
                            let series = Series {
                                labels,
                                value: MetricValue::Counter(cum),
                            };
                            out.push_str(&format!(
                                "{}_bucket{} {cum}\n",
                                f.name,
                                series.label_str()
                            ));
                        }
                        let mut labels = s.labels.clone();
                        labels.push(("le".into(), "+Inf".into()));
                        let series = Series {
                            labels,
                            value: MetricValue::Counter(h.count),
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            f.name,
                            series.label_str(),
                            h.count
                        ));
                        out.push_str(&format!("{}_sum{} {}\n", f.name, s.label_str(), h.sum));
                        out.push_str(&format!("{}_count{} {}\n", f.name, s.label_str(), h.count));
                    }
                }
            }
        }
        out
    }

    /// The JSON form: an array of family objects. Histogram series carry
    /// their summary statistics, not raw buckets.
    ///
    /// ```json
    /// [{"name":"x_total","kind":"counter","series":
    ///    [{"labels":{"conn":"1"},"value":3}]}]
    /// ```
    pub fn to_json(&self) -> Json {
        let family = |f: &Family| {
            let series = f.series.iter().map(|s| {
                let labels = s.labels.iter().map(|(k, v)| (k.clone(), v.as_str().into()));
                let value = match &s.value {
                    MetricValue::Counter(v) => Json::from(*v),
                    MetricValue::Gauge(v) => Json::from(*v),
                    MetricValue::Histogram(h) => obj! {
                        "count": h.count, "sum": h.sum, "p50": h.p50, "p90": h.p90,
                        "p99": h.p99, "p999": h.p999, "max": h.max,
                    },
                };
                obj! { "labels": Json::Obj(labels.collect()), "value": value }
            });
            let series = Json::Arr(series.collect());
            obj! { "name": f.name.as_str(), "kind": f.kind.as_str(), "series": series }
        };
        Json::Arr(self.families.iter().map(family).collect())
    }

    /// [`to_json`](Self::to_json), written compactly.
    pub fn render_json(&self) -> String {
        self.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample() -> MetricsSnapshot {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        MetricsSnapshot {
            families: vec![
                Family {
                    name: "lat_us".into(),
                    help: "latency".into(),
                    kind: MetricKind::Histogram,
                    series: vec![Series {
                        labels: vec![("conn".into(), "1".into())],
                        value: MetricValue::Histogram(h.snapshot()),
                    }],
                },
                Family {
                    name: "msgs_total".into(),
                    help: "messages".into(),
                    kind: MetricKind::Counter,
                    series: vec![Series {
                        labels: vec![],
                        value: MetricValue::Counter(42),
                    }],
                },
            ],
        }
    }

    #[test]
    fn table_lists_every_series() {
        let t = sample().render_table();
        assert!(t.contains("msgs_total"), "{t}");
        assert!(t.contains("lat_us{conn=\"1\"}"), "{t}");
        assert!(t.contains("count=4"), "{t}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let p = sample().render_prometheus();
        assert!(p.contains("# TYPE msgs_total counter"), "{p}");
        assert!(p.contains("msgs_total 42"), "{p}");
        assert!(p.contains("# TYPE lat_us histogram"), "{p}");
        assert!(p.contains("lat_us_bucket{conn=\"1\",le=\"+Inf\"} 4"), "{p}");
        assert!(p.contains("lat_us_sum{conn=\"1\"} 106"), "{p}");
        assert!(p.contains("lat_us_count{conn=\"1\"} 4"), "{p}");
        // Cumulative buckets end at the total count.
        assert!(p.contains("le=\"127\"} 4"), "{p}");
    }

    #[test]
    fn json_rendering_parses_to_the_snapshot() {
        let j = sample().render_json();
        let v = Json::parse(&j).expect(&j);
        let fams = v.as_arr().expect("array of families");
        assert_eq!(fams.len(), 2);
        let msgs = &fams[1];
        assert_eq!(msgs.get("name").and_then(Json::as_str), Some("msgs_total"));
        let series = &msgs.get("series").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(series.get("value").and_then(Json::as_u64), Some(42));
        let lat = fams[0].get("series").and_then(Json::as_arr).unwrap()[0]
            .get("value")
            .unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(4));
    }

    /// Pins the exact bytes the JSON rendering has always produced (the
    /// telemetry plane's consumers grep it).
    #[test]
    fn json_rendering_golden_bytes() {
        let mut snap = sample();
        snap.families.push(Family {
            name: "depth".into(),
            help: String::new(),
            kind: MetricKind::Gauge,
            series: vec![Series {
                labels: vec![("peer".into(), "a\"b\\\n".into()), ("q".into(), "2".into())],
                value: MetricValue::Gauge(-7),
            }],
        });
        assert_eq!(
            snap.render_json(),
            r#"[{"name":"lat_us","kind":"histogram","series":[{"labels":{"conn":"1"},"value":{"count":4,"sum":106,"p50":3,"p90":127,"p99":127,"p999":127,"max":127}}]},{"name":"msgs_total","kind":"counter","series":[{"labels":{},"value":42}]},{"name":"depth","kind":"gauge","series":[{"labels":{"peer":"a\"b\\\n","q":"2"},"value":-7}]}]"#
        );
    }
}
