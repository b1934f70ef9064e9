/**
 * @file
 * Implementation of the line-chart renderer.
 */

#include "viz/chart.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "agg/timeslice.hh"
#include "support/fault.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace viva::viz
{

using support::BlockWriter;
using support::humanize;
using support::xmlEscape;

ChartSeries
sampleSeries(const trace::Trace &trace, trace::ContainerId node,
             trace::MetricId metric, const agg::TimeSlice &period,
             std::size_t samples, agg::SpatialOp op)
{
    VIVA_ASSERT(samples >= 2, "need at least two samples");
    agg::Aggregator agg(trace);

    ChartSeries series;
    series.label = trace.fullName(node);
    if (series.label.empty())
        series.label = "whole platform";
    series.color = colorForName(series.label);
    series.points.reserve(samples);
    for (const agg::TimeSlice &slice :
         agg::uniformSlices(period, samples)) {
        double mid = 0.5 * (slice.begin + slice.end);
        series.points.emplace_back(mid,
                                   agg.value(node, metric, slice, op));
    }
    return series;
}

void
writeChartSvg(const std::vector<ChartSeries> &series, std::ostream &out,
              const ChartOptions &options)
{
    // Plot bounds.
    double x_lo = 1e300, x_hi = -1e300, y_hi = 0.0;
    for (const ChartSeries &s : series) {
        for (const auto &[t, v] : s.points) {
            x_lo = std::min(x_lo, t);
            x_hi = std::max(x_hi, t);
            y_hi = std::max(y_hi, v);
        }
    }
    if (x_lo > x_hi) {
        x_lo = 0.0;
        x_hi = 1.0;
    }
    if (y_hi <= 0.0)
        y_hi = 1.0;
    y_hi *= 1.05;  // headroom

    const double ml = 64, mr = 16, mt = options.title.empty() ? 16 : 36,
                 mb = 34;
    double pw = options.width - ml - mr;
    double ph = options.height - mt - mb;
    auto x_of = [&](double t) {
        return ml + (t - x_lo) / std::max(x_hi - x_lo, 1e-12) * pw;
    };
    auto y_of = [&](double v) { return mt + ph - v / y_hi * ph; };

    BlockWriter w(out);
    w << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << options.width << "\" height=\"" << options.height
      << "\" viewBox=\"0 0 " << options.width << ' ' << options.height
      << "\">\n";
    w << "  <rect width=\"100%\" height=\"100%\" fill=\""
      << palette::background.hex() << "\"/>\n";
    if (!options.title.empty()) {
        w << "  <text x=\"" << ml
          << "\" y=\"22\" font-family=\"sans-serif\" font-size=\"14\" "
             "fill=\"#111\">"
          << xmlEscape(options.title) << "</text>\n";
    }

    // Axes and grid.
    w << "  <line x1=\"" << ml << "\" y1=\"" << mt << "\" x2=\"" << ml
      << "\" y2=\"" << (mt + ph) << "\" stroke=\"#333\"/>\n";
    w << "  <line x1=\"" << ml << "\" y1=\"" << (mt + ph) << "\" x2=\""
      << (ml + pw) << "\" y2=\"" << (mt + ph) << "\" stroke=\"#333\"/>\n";
    for (int tick = 0; tick <= 4; ++tick) {
        double v = y_hi * tick / 4.0;
        double y = y_of(v);
        w << "  <line x1=\"" << ml << "\" y1=\"" << y << "\" x2=\""
          << (ml + pw) << "\" y2=\"" << y
          << "\" stroke=\"#ddd\" stroke-width=\"0.6\"/>\n";
        w << "  <text x=\"" << (ml - 6) << "\" y=\"" << (y + 3)
          << "\" font-family=\"sans-serif\" font-size=\"9\" "
             "text-anchor=\"end\" fill=\"#333\">"
          << humanize(v) << "</text>\n";
        double t = x_lo + (x_hi - x_lo) * tick / 4.0;
        w << "  <text x=\"" << x_of(t) << "\" y=\"" << (mt + ph + 14)
          << "\" font-family=\"sans-serif\" font-size=\"9\" "
             "text-anchor=\"middle\" fill=\"#333\">"
          << std::round(t * 100.0) / 100.0 << "</text>\n";
    }
    if (!options.yLabel.empty()) {
        w << "  <text x=\"12\" y=\"" << (mt - 4)
          << "\" font-family=\"sans-serif\" font-size=\"9\" "
             "fill=\"#333\">"
          << xmlEscape(options.yLabel) << "</text>\n";
    }

    // Series polylines.
    for (const ChartSeries &s : series) {
        if (s.points.empty())
            continue;
        w << "  <polyline fill=\"none\" stroke=\"" << s.color.hex()
          << "\" stroke-width=\"1.6\" points=\"";
        for (const auto &[t, v] : s.points)
            w << x_of(t) << ',' << y_of(v) << ' ';
        w << "\"/>\n";
    }

    // Legend.
    double ly = mt + 8;
    for (const ChartSeries &s : series) {
        w << "  <rect x=\"" << (ml + pw - 160) << "\" y=\"" << (ly - 8)
          << "\" width=\"10\" height=\"10\" fill=\"" << s.color.hex()
          << "\"/>\n";
        w << "  <text x=\"" << (ml + pw - 146) << "\" y=\"" << (ly + 1)
          << "\" font-family=\"sans-serif\" font-size=\"10\" "
             "fill=\"#333\">"
          << xmlEscape(s.label) << "</text>\n";
        ly += 14;
    }

    w << "</svg>\n";
}

support::Expected<void>
writeChartSvgFile(const std::vector<ChartSeries> &series,
                  const std::string &path, const ChartOptions &options)
{
    std::ofstream out(path);
    if (!out)
        return VIVA_ERROR(support::Errc::Io, "cannot open '", path,
                          "' for writing");
    writeChartSvg(series, out, options);
    out.flush();
    if (!out || support::faultAt("viz.write.stream"))
        return VIVA_ERROR(support::Errc::Io, "write failed for '", path,
                          "'");
    return {};
}

} // namespace viva::viz
