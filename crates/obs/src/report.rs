//! Self-contained HTML report over a [`TraceAnalysis`].
//!
//! Everything is hand-rolled and inline — no JavaScript, no external
//! assets, no dependencies — so the report is a single file that renders
//! anywhere. Histograms and timelines are inline SVG; the per-set
//! occupancy heatmap is an SVG grid shaded by final occupancy.

use crate::analysis::{DesignAnalysis, TraceAnalysis};
use crate::breakdown::COMPONENTS;
use crate::reuse::LogHist;
use crate::watchdog::{scan_analysis, WatchdogConfig};
use metal_sim::obs::WIDE_SET;

/// Escapes `&`, `<`, `>` and quotes for safe embedding.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Bucket label for a log₂ histogram axis.
fn bucket_label(b: usize) -> String {
    match b {
        0 => "0".to_string(),
        1 => "1".to_string(),
        _ => format!("2^{}", b - 1),
    }
}

/// An SVG bar chart over the non-empty prefix of a log₂ histogram.
fn svg_log_hist(title: &str, hist: &LogHist, extra: &[(&str, u64)]) -> String {
    let buckets = hist.buckets();
    let last = buckets.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
    let extras = extra.len();
    let n = last + extras;
    if n == 0 {
        return format!("<h3>{}</h3><p class=\"empty\">no samples</p>", esc(title));
    }
    let max = buckets[..last]
        .iter()
        .copied()
        .chain(extra.iter().map(|&(_, v)| v))
        .max()
        .unwrap_or(1)
        .max(1);
    let bw = 26;
    let h = 120;
    let w = n * bw + 10;
    let mut s = format!(
        "<h3>{}</h3><svg width=\"{w}\" height=\"{}\" role=\"img\">",
        esc(title),
        h + 30
    );
    let mut col = |i: usize, label: &str, v: u64, class: &str| {
        let bh = ((v as f64 / max as f64) * h as f64).round() as usize;
        let x = 5 + i * bw;
        let y = h - bh;
        s.push_str(&format!(
            "<rect class=\"{class}\" x=\"{x}\" y=\"{y}\" width=\"{}\" height=\"{bh}\">\
             <title>{}: {v}</title></rect>\
             <text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>",
            bw - 4,
            esc(label),
            x + (bw - 4) / 2,
            h + 14,
            esc(label)
        ));
    };
    for (i, &v) in buckets[..last].iter().enumerate() {
        col(i, &bucket_label(i), v, "bar");
    }
    for (j, &(label, v)) in extra.iter().enumerate() {
        col(last + j, label, v, "bar alt");
    }
    s.push_str("</svg>");
    s
}

/// The occupancy heatmap: one cell per (index, narrow set), shaded by
/// final occupancy; the wide partition is summarized per index below.
fn svg_occupancy(d: &DesignAnalysis) -> String {
    let narrow: Vec<((u8, u32), i64)> = d
        .counts
        .occupancy_by_set
        .iter()
        .filter(|((_, s), _)| *s != WIDE_SET)
        .map(|(&k, &v)| (k, v))
        .collect();
    if narrow.is_empty() && d.counts.occupancy_by_set.is_empty() {
        return "<p class=\"empty\">no fills recorded</p>".to_string();
    }
    let indexes: Vec<u8> = {
        let mut v: Vec<u8> = d.counts.occupancy_by_set.keys().map(|&(i, _)| i).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let max_set = narrow.iter().map(|&((_, s), _)| s).max().unwrap_or(0);
    let max_occ = narrow
        .iter()
        .map(|&(_, v)| v.max(0))
        .max()
        .unwrap_or(1)
        .max(1);
    let cell = 14;
    let w = (max_set as usize + 1) * cell + 40;
    let h = indexes.len() * cell + 10;
    let mut s = format!("<svg width=\"{w}\" height=\"{h}\" role=\"img\">");
    for (row, &idx) in indexes.iter().enumerate() {
        let y = 5 + row * cell;
        s.push_str(&format!(
            "<text x=\"2\" y=\"{}\" class=\"tick\">ix{idx}</text>",
            y + cell - 3
        ));
        for set in 0..=max_set {
            let occ = narrow
                .iter()
                .find(|&&((i, ss), _)| i == idx && ss == set)
                .map_or(0, |&(_, v)| v.max(0));
            // Shade 0 → near-white, max → dark.
            let shade = 235 - ((occ as f64 / max_occ as f64) * 190.0).round() as i64;
            let x = 35 + set as usize * cell;
            s.push_str(&format!(
                "<rect x=\"{x}\" y=\"{y}\" width=\"{}\" height=\"{}\" \
                 fill=\"rgb({shade},{shade},245)\"><title>index {idx} set {set}: {occ}</title></rect>",
                cell - 1,
                cell - 1
            ));
        }
    }
    s.push_str("</svg>");
    let wide: Vec<String> = d
        .counts
        .occupancy_by_set
        .iter()
        .filter(|((_, s), _)| *s == WIDE_SET)
        .map(|(&(i, _), &v)| format!("ix{i}: {}", v.max(0)))
        .collect();
    if wide.is_empty() {
        s
    } else {
        format!(
            "{s}<p>wide partition occupancy — {}</p>",
            esc(&wide.join(", "))
        )
    }
}

/// The tuner timeline: decisions as markers over simulated time, one
/// row per (index, parameter).
fn svg_tuner_timeline(d: &DesignAnalysis) -> String {
    if d.counts.tuner_decisions.is_empty() {
        return "<p class=\"empty\">no tuner decisions</p>".to_string();
    }
    let mut decisions = d.counts.tuner_decisions.clone();
    decisions.sort_unstable();
    let mut rows: Vec<(u8, &str)> = decisions.iter().map(|t| (t.index, t.param)).collect();
    rows.sort();
    rows.dedup();
    let t_max = decisions.iter().map(|t| t.at).max().unwrap_or(1).max(1);
    let plot_w = 520usize;
    let row_h = 18usize;
    let w = plot_w + 150;
    let h = rows.len() * row_h + 20;
    let mut s = format!("<svg width=\"{w}\" height=\"{h}\" role=\"img\">");
    for (r, (idx, param)) in rows.iter().enumerate() {
        let y = 10 + r * row_h;
        s.push_str(&format!(
            "<text x=\"2\" y=\"{}\" class=\"tick\">ix{idx} {}</text>\
             <line x1=\"140\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>",
            y + 12,
            esc(param),
            y + 8,
            140 + plot_w,
            y + 8
        ));
        for t in decisions
            .iter()
            .filter(|t| t.index == *idx && t.param == *param)
        {
            let x = 140 + ((t.at as f64 / t_max as f64) * plot_w as f64).round() as usize;
            s.push_str(&format!(
                "<circle cx=\"{x}\" cy=\"{}\" r=\"4\" class=\"dot\">\
                 <title>batch {} at cycle {}: {} → {}</title></circle>",
                y + 8,
                t.batch,
                t.at,
                t.from,
                t.to
            ));
        }
    }
    s.push_str("</svg>");
    s
}

/// A polyline chart of one per-epoch metric; x is the epoch number, so
/// sparse series show their gaps.
fn svg_series_line(title: &str, points: &[(u64, f64)]) -> String {
    if points.is_empty() {
        return String::new();
    }
    let e_min = points.first().map(|&(e, _)| e).unwrap_or(0);
    let e_max = points.last().map(|&(e, _)| e).unwrap_or(0);
    let v_max = points
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let plot_w = 420.0;
    let plot_h = 70.0;
    let x = |e: u64| {
        if e_max == e_min {
            40.0 + plot_w / 2.0
        } else {
            40.0 + (e - e_min) as f64 / (e_max - e_min) as f64 * plot_w
        }
    };
    let y = |v: f64| 8.0 + plot_h - (v / v_max) * plot_h;
    let path: Vec<String> = points
        .iter()
        .map(|&(e, v)| format!("{:.1},{:.1}", x(e), y(v)))
        .collect();
    let dots: String = points
        .iter()
        .map(|&(e, v)| {
            format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2\" class=\"dot\">\
                 <title>epoch {e}: {v:.4}</title></circle>",
                x(e),
                y(v)
            )
        })
        .collect();
    format!(
        "<figure class=\"series\"><figcaption>{}</figcaption>\
         <svg width=\"480\" height=\"{}\" role=\"img\">\
         <text x=\"2\" y=\"14\" class=\"tick\">{v_max:.3}</text>\
         <text x=\"2\" y=\"{}\" class=\"tick\">0</text>\
         <line x1=\"40\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>\
         <polyline points=\"{}\" class=\"line\"/>{dots}\
         <text x=\"40\" y=\"{}\" class=\"tick\">epoch {e_min}</text>\
         <text x=\"{}\" y=\"{}\" class=\"tick\">epoch {e_max}</text>\
         </svg></figure>",
        esc(title),
        plot_h + 34.0,
        plot_h + 8.0,
        plot_h + 8.0,
        40.0 + plot_w,
        plot_h + 8.0,
        path.join(" "),
        plot_h + 24.0,
        plot_w - 20.0,
        plot_h + 24.0,
    )
}

/// One horizontal stacked bar over the five component totals, with a
/// legend row per component.
fn svg_breakdown_stack(cycles: [u64; 5]) -> String {
    let total: u64 = cycles.iter().sum();
    if total == 0 {
        return "<p class=\"empty\">no cycles attributed</p>".to_string();
    }
    let bar_w = 520.0;
    let mut s = String::from("<svg width=\"530\" height=\"30\" role=\"img\">");
    let mut x = 5.0;
    for (i, (&name, &c)) in COMPONENTS.iter().zip(cycles.iter()).enumerate() {
        let w = c as f64 / total as f64 * bar_w;
        if c > 0 {
            s.push_str(&format!(
                "<rect class=\"seg{i}\" x=\"{x:.1}\" y=\"4\" width=\"{w:.1}\" height=\"20\">\
                 <title>{name}: {c} cycles ({:.1}%)</title></rect>",
                100.0 * c as f64 / total as f64
            ));
        }
        x += w;
    }
    s.push_str("</svg>");
    let legend: Vec<(String, String)> = COMPONENTS
        .iter()
        .zip(cycles.iter())
        .map(|(&name, &c)| {
            (
                name.to_string(),
                format!("{c} cycles ({:.1}%)", 100.0 * c as f64 / total as f64),
            )
        })
        .collect();
    format!("{s}{}", counter_table(&legend))
}

/// Per-epoch stacked bars of the window cycle columns: one bar per
/// window, components stacked bottom-up in [`COMPONENTS`] order.
fn svg_breakdown_epochs(series: &crate::timeseries::TimeSeries) -> String {
    let bars: Vec<(u64, [u64; 5])> = series
        .windows
        .iter()
        .map(|(&e, w)| (e, w.cycles))
        .filter(|(_, c)| c.iter().any(|&v| v > 0))
        .collect();
    if bars.is_empty() {
        return String::new();
    }
    let max: u64 = bars
        .iter()
        .map(|(_, c)| c.iter().sum::<u64>())
        .max()
        .unwrap_or(1)
        .max(1);
    let bw = 26usize;
    let h = 110.0;
    let w = bars.len() * bw + 10;
    let mut s = format!(
        "<figure class=\"series\"><figcaption>Cycle breakdown per epoch \
         (stacked: {} bottom-up)</figcaption>\
         <svg width=\"{w}\" height=\"{}\" role=\"img\">",
        esc(&COMPONENTS.join(" → ")),
        h + 30.0
    );
    for (i, (e, cycles)) in bars.iter().enumerate() {
        let x = 5 + i * bw;
        let mut y = h;
        for (k, (&name, &c)) in COMPONENTS.iter().zip(cycles.iter()).enumerate() {
            let seg = c as f64 / max as f64 * h;
            if c > 0 {
                y -= seg;
                s.push_str(&format!(
                    "<rect class=\"seg{k}\" x=\"{x}\" y=\"{y:.1}\" width=\"{}\" \
                     height=\"{seg:.1}\"><title>epoch {e} {name}: {c}</title></rect>",
                    bw - 4,
                ));
            }
        }
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" class=\"tick\">{e}</text>",
            x + (bw - 4) / 2,
            h + 14.0
        ));
    }
    s.push_str("</svg></figure>");
    s
}

/// Cycle-accounting panels for a design whose stream carried breakdown
/// events: the whole-run stacked bar and, when windowed, the per-epoch
/// stacked series.
fn breakdown_panels(d: &DesignAnalysis) -> String {
    let Some(b) = &d.breakdown else {
        return String::new();
    };
    let epochs = d
        .series
        .as_ref()
        .map(svg_breakdown_epochs)
        .unwrap_or_default();
    format!(
        "<h3>Cycle breakdown ({} walks, {} cycles attributed)</h3>{}{}",
        b.walks,
        b.latency_total,
        svg_breakdown_stack(b.cycles),
        epochs
    )
}

/// Per-epoch charts for a design that carried a telemetry series.
fn series_section(d: &DesignAnalysis) -> String {
    let Some(series) = &d.series else {
        return String::new();
    };
    let pick = |f: &dyn Fn(&crate::metrics::EventCounts) -> f64| -> Vec<(u64, f64)> {
        series.windows.iter().map(|(&e, w)| (e, f(w))).collect()
    };
    let hit_rate = pick(&|w| {
        if w.probes() == 0 {
            0.0
        } else {
            w.hits_total() as f64 / w.probes() as f64
        }
    });
    let probes = pick(&|w| w.probes() as f64);
    let evictions = pick(&|w| w.evictions_total() as f64);
    let regret = pick(&|w| w.regretted as f64);
    format!(
        "<h3>Time series (epoch width {})</h3>{}{}{}{}",
        esc(&series.spec.render()),
        svg_series_line("IX-cache hit rate per epoch", &hit_rate),
        svg_series_line("Probes per epoch", &probes),
        svg_series_line("Evictions per epoch", &evictions),
        svg_series_line("Evictions regretted per epoch", &regret),
    )
}

/// The alert strip: one banner line per watchdog alert over the run.
fn alert_strip(analysis: &TraceAnalysis) -> String {
    let alerts = scan_analysis(analysis, &WatchdogConfig::default());
    if alerts.is_empty() {
        return String::new();
    }
    let items: String = alerts
        .iter()
        .map(|a| {
            format!(
                "<li><strong>{}</strong> in {} at epoch {}: {} \
                 (value {:.4}, trailing baseline {:.4})</li>",
                esc(a.kind.as_str()),
                esc(&a.design),
                a.epoch,
                esc(&a.detail),
                a.value,
                a.baseline
            )
        })
        .collect();
    format!(
        "<section class=\"alerts\"><h2>Watchdog alerts ({})</h2><ul>{items}</ul></section>",
        alerts.len()
    )
}

fn counter_table(rows: &[(String, String)]) -> String {
    let mut s = String::from("<table>");
    for (k, v) in rows {
        s.push_str(&format!("<tr><th>{}</th><td>{}</td></tr>", esc(k), esc(v)));
    }
    s.push_str("</table>");
    s
}

fn design_section(name: &str, d: &DesignAnalysis) -> String {
    let pct = |num: u64, den: u64| {
        if den == 0 {
            "–".to_string()
        } else {
            format!("{:.1}%", 100.0 * num as f64 / den as f64)
        }
    };
    let lg = &d.ledger;
    let rg = &d.regret;
    let tx = &d.taxonomy;
    let summary = counter_table(&[
        ("entries filled".into(), lg.filled.to_string()),
        ("admissions coalesced".into(), lg.coalesced.to_string()),
        (
            "evicted / resident".into(),
            format!("{} / {}", lg.evicted, lg.resident),
        ),
        (
            "zero-hit evictions".into(),
            format!(
                "{} ({})",
                lg.zero_hit_evictions,
                pct(lg.zero_hit_evictions, lg.evicted)
            ),
        ),
        ("probe hits on entries".into(), lg.hits_total.to_string()),
        (
            "walk levels short-circuited".into(),
            lg.short_circuit_saved.to_string(),
        ),
        (
            "evictions regretted".into(),
            format!("{} ({})", rg.regretted, pct(rg.regretted, rg.evictions)),
        ),
        (
            "vindicated / unresolved".into(),
            format!("{} / {}", rg.vindicated, rg.unresolved),
        ),
        (
            "miss taxonomy (compulsory/capacity/conflict)".into(),
            format!("{} / {} / {}", tx.compulsory, tx.capacity, tx.conflict),
        ),
    ]);
    let mut reasons: Vec<(String, String)> = lg
        .entries_by_admit_reason
        .iter()
        .map(|(r, &n)| {
            let hits = *lg.hits_by_admit_reason.get(r).unwrap_or(&0);
            (r.clone(), format!("{n} entries, {hits} hits"))
        })
        .collect();
    for (p, &n) in &lg.entries_by_pack {
        reasons.push((format!("pack: {p}"), format!("{n} entries")));
    }
    format!(
        "<section><h2>{}</h2>{summary}\
         <h3>Admission breakdown</h3>{}\
         {}{}{}{}\
         <h3>Per-set occupancy</h3>{}\
         <h3>Tuner decisions</h3>{}{}{}</section>",
        esc(name),
        counter_table(&reasons),
        svg_log_hist(
            "Reuse distance (distinct blocks, log2)",
            &d.reuse_hist,
            &[("cold", d.reuse_cold)]
        ),
        svg_log_hist("Hits per entry (log2)", &lg.hits_per_entry, &[]),
        svg_log_hist("Entry lifetime in cycles (log2)", &lg.lifetime_cycles, &[]),
        svg_log_hist("Regret distance in probes (log2)", &rg.regret_distance, &[]),
        svg_occupancy(d),
        svg_tuner_timeline(d),
        breakdown_panels(d),
        series_section(d),
    )
}

/// One native-execution measurement, paired with the modeled numbers of
/// the same (workload, design) run — the rows of the report's
/// "Measured vs modeled" table. Built by `analyze` from a run manifest
/// whose reports carry `native` metric objects.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Workload label.
    pub workload: String,
    /// Design label (manifest spelling, e.g. `metal:native`).
    pub design: String,
    /// Walks executed (identical on both sides by the equivalence gate).
    pub walks: u64,
    /// The simulator's modeled cycle count for the paired sim run, when
    /// the manifest recorded one.
    pub modeled_cycles: Option<u64>,
    /// Modeled DRAM node fetches (the simulator's page-fault analogue).
    pub modeled_node_fetches: u64,
    /// Measured native throughput.
    pub walks_per_sec: f64,
    /// Pages read from the block files (out-of-core page faults).
    pub page_reads: u64,
    /// Pages written back to the block files.
    pub page_writes: u64,
    /// Node reads served by the software hot map (IX fast path).
    pub hot_hits: u64,
    /// Node reads that went to the page layer and deserialized.
    pub cold_reads: u64,
    /// The simulator's predicted exposed-stall fraction for the paired
    /// sim run: `(stall − hidden) / latency_total` from its cycle
    /// breakdown. `None` when the sim report carried no breakdown.
    pub modeled_stall_fraction: Option<f64>,
    /// Measured fraction of native wall time spent inside page reads —
    /// the native analogue of modeled DRAM stall.
    pub measured_page_io_fraction: f64,
}

/// The measured-vs-modeled table: one row per native run in the
/// manifest, modeled numbers on the left, measured on the right.
fn measured_section(rows: &[MeasuredRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut s = String::from(
        "<section><h2>Measured vs modeled (native execution)</h2>\
         <p>Modeled numbers come from the cycle-level simulator; measured numbers \
         from executing the same walks against paged B+tree nodes. Semantic \
         outcomes are cross-validated to be identical, so the two sides describe \
         one run.</p>\
         <table class=\"measured\"><tr><th>workload</th><th>design</th>\
         <th>walks</th><th>modeled cycles</th><th>modeled node fetches</th>\
         <th>modeled stall %</th><th>measured page-I/O %</th>\
         <th>measured walks/s</th><th>page reads</th><th>page writes</th>\
         <th>hot-map hits</th><th>cold reads</th></tr>",
    );
    for r in rows {
        let cycles = r.modeled_cycles.map_or("–".to_string(), |c| c.to_string());
        let stall = r
            .modeled_stall_fraction
            .map_or("–".to_string(), |f| format!("{:.1}%", 100.0 * f));
        s.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{cycles}</td><td>{}</td>\
             <td>{stall}</td><td>{:.1}%</td>\
             <td>{:.0}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&r.workload),
            esc(&r.design),
            r.walks,
            r.modeled_node_fetches,
            100.0 * r.measured_page_io_fraction,
            r.walks_per_sec,
            r.page_reads,
            r.page_writes,
            r.hot_hits,
            r.cold_reads,
        ));
    }
    s.push_str("</table></section>");
    s
}

/// Renders the whole analysis as one self-contained HTML document.
pub fn render_html(analysis: &TraceAnalysis, title: &str) -> String {
    render_html_with_measured(analysis, title, &[])
}

/// [`render_html`] plus the measured-vs-modeled native-execution table
/// (omitted when `measured` is empty).
pub fn render_html_with_measured(
    analysis: &TraceAnalysis,
    title: &str,
    measured: &[MeasuredRow],
) -> String {
    let mut body = alert_strip(analysis);
    body.push_str(&measured_section(measured));
    for (name, d) in &analysis.designs {
        body.push_str(&design_section(name, d));
    }
    if analysis.designs.is_empty() {
        body.push_str("<p class=\"empty\">no designs in trace</p>");
    }
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>{t}</title><style>\
         body{{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:960px;color:#222}}\
         h1{{border-bottom:2px solid #447}}section{{margin-bottom:2.5em}}\
         h2{{color:#447;border-bottom:1px solid #ccd}}\
         table{{border-collapse:collapse;margin:.5em 0}}\
         th{{text-align:left;padding:.15em .8em .15em 0;font-weight:600;color:#555}}\
         td{{padding:.15em 0}}\
         table.measured td,table.measured th{{padding:.15em .6em;\
         border-bottom:1px solid #eee;text-align:right}}\
         table.measured td:first-child,table.measured th:first-child,\
         table.measured td:nth-child(2),table.measured th:nth-child(2)\
         {{text-align:left}}\
         .bar{{fill:#5b7fb8}}.bar.alt{{fill:#b85b5b}}\
         .seg0{{fill:#8e6bb8}}.seg1{{fill:#5bb87f}}.seg2{{fill:#c9b458}}\
         .seg3{{fill:#b85b5b}}.seg4{{fill:#9db8d2}}\
         .tick{{font-size:9px;fill:#666;text-anchor:middle}}\
         svg text.tick{{text-anchor:start}}svg .bar+text.tick{{text-anchor:middle}}\
         .axis{{stroke:#ddd}}.dot{{fill:#b8745b}}\
         .line{{fill:none;stroke:#5b7fb8;stroke-width:1.5}}\
         figure.series{{margin:.5em 0}}\
         figure.series figcaption{{font-size:12px;color:#555}}\
         section.alerts{{background:#fdf2f2;border:1px solid #e0b4b4;\
         border-radius:4px;padding:.2em 1em}}\
         section.alerts h2{{color:#9f3a38;border-bottom:none}}\
         .empty{{color:#999;font-style:italic}}\
         </style></head><body><h1>{t}</h1>{body}</body></html>\n",
        t = esc(title),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::StreamAnalyzer;
    use metal_sim::obs::{AdmitReason, Event, PackMode};

    #[test]
    fn report_embeds_every_design_and_escapes_markup() {
        let mut a = StreamAnalyzer::new(8);
        a.observe_event(
            1,
            &Event::Insert {
                index: 0,
                level: 1,
                set: 2,
                life: 0,
                reason: AdmitReason::All,
            },
        );
        a.observe_event(
            1,
            &Event::Fill {
                index: 0,
                level: 1,
                set: 2,
                entry: 1,
                pack: PackMode::Exact,
            },
        );
        a.observe_event(
            2,
            &Event::DramFetch {
                lane: 0,
                addr: 128,
                bytes: 64,
                done: 50,
            },
        );
        let mut trace = TraceAnalysis::default();
        trace.fold("metal<ix>", a.finish());
        let html = render_html(&trace, "t & t");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("metal&lt;ix&gt;"), "design name escaped");
        assert!(html.contains("t &amp; t"), "title escaped");
        assert!(html.contains("<svg"), "histograms rendered");
        assert!(html.contains("Reuse distance"));
        assert!(!html.contains("metal<ix>"), "raw markup never leaks");
    }

    #[test]
    fn empty_analysis_still_renders() {
        let html = render_html(&TraceAnalysis::default(), "empty");
        assert!(html.contains("no designs in trace"));
        assert!(
            !html.contains("Measured vs modeled"),
            "no measured table without measurements"
        );
    }

    #[test]
    fn measured_table_renders_side_by_side() {
        let rows = vec![MeasuredRow {
            workload: "where".into(),
            design: "metal:native".into(),
            walks: 4000,
            modeled_cycles: Some(123_456),
            modeled_node_fetches: 9000,
            walks_per_sec: 380_000.4,
            page_reads: 3050,
            page_writes: 12,
            hot_hits: 7647,
            cold_reads: 3050,
            modeled_stall_fraction: Some(0.6125),
            measured_page_io_fraction: 0.4812,
        }];
        let html = render_html_with_measured(&TraceAnalysis::default(), "m", &rows);
        assert!(html.contains("Measured vs modeled"));
        assert!(html.contains("<td>123456</td>"), "modeled cycles cell");
        assert!(html.contains("<td>380000</td>"), "throughput rounded");
        assert!(html.contains("metal:native"));
        assert!(
            html.contains("<td>61.3%</td><td>48.1%</td>"),
            "modeled stall and measured page-I/O fractions sit side by side"
        );
    }

    #[test]
    fn breakdown_panel_renders_stacked_bar_and_epoch_series() {
        let mut a =
            StreamAnalyzer::new(4).with_epoch(Some(metal_sim::epoch::EpochSpec::Cycles(32)));
        for (walk, at, stall) in [(0u64, 20u64, 15u64), (1, 45, 18)] {
            a.observe_event(
                at,
                &Event::WalkBreakdown {
                    walk,
                    lane: 0,
                    ix_probe: 1,
                    compute: 3,
                    queue: 1,
                    stall,
                    hidden: 0,
                    latency: 5 + stall,
                },
            );
            a.observe_event(
                at,
                &Event::WalkEnd {
                    walk,
                    lane: 0,
                    latency: 5 + stall,
                },
            );
        }
        let mut trace = TraceAnalysis::default();
        trace.fold("metal", a.finish());
        let html = render_html(&trace, "b");
        assert!(html.contains("Cycle breakdown (2 walks"));
        assert!(html.contains("class=\"seg3\""), "stall segment drawn");
        assert!(
            html.contains("Cycle breakdown per epoch"),
            "windowed stacked series rendered"
        );
        assert!(html.contains("stall: 33 cycles"), "legend totals stall");
    }
}
