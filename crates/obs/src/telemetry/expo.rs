//! Exposition: render a [`Registry`] as Prometheus text or JSON, and
//! parse the text format back for validation and reports.
//!
//! The text renderer emits the Prometheus exposition format version 0.0.4
//! — `# HELP` / `# TYPE` comments followed by `name{labels} value` sample
//! lines. Histograms are exposed as `summary` families with
//! `quantile="0.5" / "0.95" / "0.99"` labels plus `_sum` / `_count`
//! series, because the log-linear buckets are an implementation detail:
//! scrape consumers want percentiles, not 976 `_bucket` lines.
//!
//! [`parse_prometheus`] is the validating inverse used by the
//! `metrics-report` CLI command, the CI smoke job, and the golden tests;
//! it parses every sample line (names, labels, values, optional
//! timestamps) and rejects malformed lines, and a family described twice,
//! with a line number.
//!
//! The JSON rendering shares [`crate::json::Json`] with the trace layer,
//! so `--metrics-file metrics.json` dumps parse with the same
//! [`crate::json::parse`] the JSONL golden tests use.

use std::collections::HashSet;

use crate::json::Json;
use crate::telemetry::registry::Registry;

/// The quantiles every histogram family exposes.
pub const QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Formats a sample value the Prometheus way (`NaN`, `+Inf`, `-Inf` for
/// non-finite floats; shortest round-trippable representation otherwise).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn push_header(out: &mut String, name: &str, help: &str, kind: &str) {
    if !help.is_empty() {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        // HELP text runs to end of line; strip anything that would break
        // the line-oriented grammar.
        out.push_str(&help.replace(['\n', '\r'], " "));
        out.push('\n');
    }
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders the registry in the Prometheus text exposition format.
pub fn render_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, help, value) in reg.counters() {
        push_header(&mut out, name, help, "counter");
        out.push_str(&format!("{name} {value}\n"));
    }
    for (name, help, value) in reg.gauges() {
        push_header(&mut out, name, help, "gauge");
        out.push_str(&format!("{name} {}\n", fmt_value(value)));
    }
    for hm in reg.histograms() {
        let (name, h) = (hm.name(), hm.histogram());
        push_header(&mut out, name, hm.help(), "summary");
        for (q, label) in QUANTILES {
            if let Some(est) = h.quantile(q) {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    fmt_value(hm.scaled(est))
                ));
            }
        }
        out.push_str(&format!(
            "{name}_sum {}\n",
            fmt_value(hm.scaled(h.sum() as f64))
        ));
        out.push_str(&format!("{name}_count {}\n", h.count()));
    }
    out
}

/// Renders the registry as one JSON object (counters, gauges, histogram
/// summaries in exposition units).
pub fn render_json(reg: &Registry) -> Json {
    let counters = reg
        .counters()
        .map(|(name, _, v)| (name.to_string(), Json::UInt(v)))
        .collect();
    let gauges = reg
        .gauges()
        .map(|(name, _, v)| (name.to_string(), Json::Num(v)))
        .collect();
    let hists = reg
        .histograms()
        .map(|hm| {
            let s = hm.histogram().summary();
            (
                hm.name().to_string(),
                Json::obj([
                    ("count", Json::UInt(s.count)),
                    ("sum", Json::Num(hm.scaled(s.sum as f64))),
                    ("min", Json::Num(hm.scaled(s.min as f64))),
                    ("max", Json::Num(hm.scaled(s.max as f64))),
                    ("p50", Json::Num(hm.scaled(s.p50))),
                    ("p95", Json::Num(hm.scaled(s.p95))),
                    ("p99", Json::Num(hm.scaled(s.p99))),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(hists)),
    ])
}

/// One parsed sample line of a Prometheus text dump.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// The metric name.
    pub name: String,
    /// Label pairs in source order (empty for unlabeled samples).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn is_name_char(c: char, first: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
}

fn parse_name(line: &str, lineno: usize) -> Result<(String, &str), String> {
    let end = line
        .char_indices()
        .take_while(|&(i, c)| is_name_char(c, i == 0))
        .count();
    if end == 0 {
        return Err(format!("line {lineno}: expected a metric name"));
    }
    Ok((line[..end].to_string(), &line[end..]))
}

/// Label pairs in source order, as parsed off a sample line.
type Labels = Vec<(String, String)>;

fn parse_labels(rest: &str, lineno: usize) -> Result<(Labels, &str), String> {
    let Some(mut rest) = rest.strip_prefix('{') else {
        return Ok((Vec::new(), rest));
    };
    let mut labels = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(tail) = rest.strip_prefix('}') {
            return Ok((labels, tail));
        }
        let (key, tail) = parse_name(rest, lineno)?;
        let tail = tail
            .strip_prefix('=')
            .ok_or_else(|| format!("line {lineno}: expected = after label {key:?}"))?;
        let mut chars = tail.strip_prefix('"').map_or_else(
            || Err(format!("line {lineno}: expected quoted label value")),
            |t| Ok(t.chars()),
        )?;
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err(format!("line {lineno}: unterminated label value")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => value.push('"'),
                    Some('\\') => value.push('\\'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("line {lineno}: bad escape {other:?}")),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((key, value));
        rest = chars.as_str().trim_start();
        if let Some(tail) = rest.strip_prefix(',') {
            rest = tail;
        }
    }
}

/// Parses a Prometheus text dump into its sample lines, validating the
/// whole document. `# HELP` / `# TYPE` comments are checked for shape and
/// skipped; a second one for the same family is an error, as in
/// Prometheus's own parser, so two sections that register one name cannot
/// be concatenated unnoticed. Other comments are ignored per the format
/// spec.
pub fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut described: HashSet<(&str, String)> = HashSet::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            let (keyword, family) = if let Some(body) = comment.strip_prefix("TYPE") {
                let (family, rest) = parse_name(body.trim_start(), lineno)?;
                let kind = rest.trim();
                if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind) {
                    return Err(format!("line {lineno}: unknown TYPE {kind:?}"));
                }
                ("TYPE", family)
            } else if let Some(body) = comment.strip_prefix("HELP") {
                ("HELP", parse_name(body.trim_start(), lineno)?.0)
            } else {
                continue;
            };
            if !described.insert((keyword, family.clone())) {
                return Err(format!("line {lineno}: second # {keyword} for {family}"));
            }
            continue;
        }
        let (name, rest) = parse_name(line, lineno)?;
        let (labels, rest) = parse_labels(rest, lineno)?;
        let mut fields = rest.split_whitespace();
        let value_text = fields
            .next()
            .ok_or_else(|| format!("line {lineno}: missing sample value"))?;
        let value = match value_text {
            "NaN" => f64::NAN,
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            other => other
                .parse::<f64>()
                .map_err(|e| format!("line {lineno}: bad value {other:?}: {e}"))?,
        };
        // An optional integer timestamp may follow; nothing after that.
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|e| format!("line {lineno}: bad timestamp {ts:?}: {e}"))?;
        }
        if fields.next().is_some() {
            return Err(format!("line {lineno}: trailing garbage"));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_registry() -> Registry {
        let mut reg = Registry::new();
        let c = reg.counter("dbsvec_assigns_total", "Assignments answered.");
        let g = reg.gauge("dbsvec_staleness_ratio", "Drift per fitted core.");
        let h = reg.histogram(
            "dbsvec_assign_latency_seconds",
            "Per-call assign latency.",
            1e9,
        );
        reg.add(c, 12);
        reg.set(g, 0.125);
        for ns in [1_000u64, 2_000, 4_000, 8_000] {
            reg.observe(h, ns);
        }
        reg
    }

    /// The golden exposition test: the rendered document is pinned
    /// byte-for-byte. Histogram quantile values follow from the log-linear
    /// bucket scheme deterministically, so this breaks loudly on any
    /// format or bucketing change.
    #[test]
    fn prometheus_rendering_is_pinned() {
        let text = render_prometheus(&demo_registry());
        let expected = "\
# HELP dbsvec_assigns_total Assignments answered.
# TYPE dbsvec_assigns_total counter
dbsvec_assigns_total 12
# HELP dbsvec_staleness_ratio Drift per fitted core.
# TYPE dbsvec_staleness_ratio gauge
dbsvec_staleness_ratio 0.125
# HELP dbsvec_assign_latency_seconds Per-call assign latency.
# TYPE dbsvec_assign_latency_seconds summary
dbsvec_assign_latency_seconds{quantile=\"0.5\"} 0.000002048
dbsvec_assign_latency_seconds{quantile=\"0.95\"} 0.000008
dbsvec_assign_latency_seconds{quantile=\"0.99\"} 0.000008
dbsvec_assign_latency_seconds_sum 0.000015
dbsvec_assign_latency_seconds_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn rendered_output_parses_back() {
        let text = render_prometheus(&demo_registry());
        let samples = parse_prometheus(&text).expect("own output must parse");
        assert_eq!(samples.len(), 7);
        let counter = samples.iter().find(|s| s.name == "dbsvec_assigns_total");
        assert_eq!(counter.unwrap().value, 12.0);
        let p95 = samples
            .iter()
            .find(|s| {
                s.name == "dbsvec_assign_latency_seconds" && s.label("quantile") == Some("0.95")
            })
            .expect("p95 sample");
        assert!(p95.value > 0.0);
    }

    #[test]
    fn empty_histograms_skip_quantiles_but_keep_sum_and_count() {
        let mut reg = Registry::new();
        reg.histogram("idle_seconds", "Never recorded.", 1e9);
        let text = render_prometheus(&reg);
        assert!(!text.contains("quantile"), "unexpected quantiles:\n{text}");
        assert!(text.contains("idle_seconds_sum 0\n"));
        assert!(text.contains("idle_seconds_count 0\n"));
        assert!(parse_prometheus(&text).is_ok());
    }

    #[test]
    fn non_finite_gauges_render_the_prometheus_way() {
        let mut reg = Registry::new();
        let g = reg.gauge("weird", "");
        reg.set(g, f64::NAN);
        assert!(render_prometheus(&reg).contains("weird NaN\n"));
        reg.set(g, f64::INFINITY);
        assert!(render_prometheus(&reg).contains("weird +Inf\n"));
        let samples = parse_prometheus(&render_prometheus(&reg)).unwrap();
        assert_eq!(samples[0].value, f64::INFINITY);
    }

    #[test]
    fn json_rendering_parses_and_carries_percentiles() {
        let value = render_json(&demo_registry());
        let text = value.to_string();
        let parsed = crate::json::parse(&text).expect("valid JSON");
        // The shared parser reads non-negative integers back as `Int`.
        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(counters.get("dbsvec_assigns_total"), Some(&Json::Int(12)));
        let hists = parsed.get("histograms").expect("histograms object");
        let lat = hists
            .get("dbsvec_assign_latency_seconds")
            .expect("latency histogram");
        assert_eq!(lat.get("count"), Some(&Json::Int(4)));
        assert!(matches!(lat.get("p50"), Some(Json::Num(v)) if *v > 0.0));
        assert!(matches!(lat.get("p99"), Some(Json::Num(v)) if *v > 0.0));
    }

    #[test]
    fn parser_accepts_labels_timestamps_and_comments() {
        let text = "\
# a free-form comment
# TYPE http_requests_total counter
http_requests_total{method=\"post\",code=\"200\"} 1027 1395066363000
escaped{msg=\"say \\\"hi\\\"\\n\"} 1
";
        let samples = parse_prometheus(text).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].label("method"), Some("post"));
        assert_eq!(samples[0].value, 1027.0);
        assert_eq!(samples[1].label("msg"), Some("say \"hi\"\n"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "1bad_name 3\n",
            "name_without_value\n",
            "name not_a_number\n",
            "name{unterminated=\"x} 1\n",
            "name{key=unquoted} 1\n",
            "name 1 2 3\n",
            "# TYPE x mystery\n",
            // A family described twice, as two concatenated sections that
            // both register `x` would be.
            "# HELP x One.\nx 1\n# HELP x Two.\n",
            "# TYPE x counter\nx 1\n# TYPE x gauge\n",
        ] {
            assert!(parse_prometheus(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
