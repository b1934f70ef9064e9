/**
 * @file
 * Implementation of the Gantt chart builder and renderer.
 */

#include "viz/gantt.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>

#include "support/fault.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::viz
{

namespace obs = support::obs;

using support::BlockWriter;
using support::xmlEscape;

GanttChart
buildGantt(const trace::Trace &trace, const agg::TimeSlice &window,
           const GanttOptions &options)
{
    GanttChart chart;
    chart.window = window;

    std::map<trace::ContainerId, GanttRow> rows;
    for (const trace::Trace::StateRecord &record : trace.states()) {
        if (!trace.isAncestorOrSelf(options.scope, record.container))
            continue;
        double b = std::max(record.begin, window.begin);
        double e = std::min(record.end, window.end);
        if (b >= e)
            continue;
        GanttRow &row = rows[record.container];
        if (row.id == trace::kNoContainer) {
            row.id = record.container;
            row.label = trace.fullName(record.container);
        }
        row.bars.push_back(
            {b, e, record.state, colorForName(record.state)});
    }

    for (auto &[id, row] : rows) {
        if (options.dropEmptyRows && row.bars.empty())
            continue;
        std::sort(row.bars.begin(), row.bars.end(),
                  [](const GanttBar &a, const GanttBar &b) {
                      return a.begin < b.begin;
                  });
        chart.rows.push_back(std::move(row));
    }
    std::sort(chart.rows.begin(), chart.rows.end(),
              [](const GanttRow &a, const GanttRow &b) {
                  return a.label < b.label;
              });
    if (options.maxRows > 0 && chart.rows.size() > options.maxRows)
        chart.rows.resize(options.maxRows);
    return chart;
}

void
writeGanttSvg(const GanttChart &chart, std::ostream &out,
              const GanttSvgOptions &options)
{
    double header = options.title.empty() ? 24.0 : 40.0;
    double height = header + double(chart.rows.size()) *
                                 options.rowHeight +
                    24.0;
    double plot_w = options.width - options.labelWidth - 16.0;
    double span = std::max(chart.window.length(), 1e-12);

    auto time_to_x = [&](double t) {
        return options.labelWidth +
               (t - chart.window.begin) / span * plot_w;
    };

    BlockWriter w(out);
    w << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << options.width << "\" height=\"" << height << "\" viewBox=\"0 0 "
      << options.width << ' ' << height << "\">\n";
    w << "  <rect width=\"100%\" height=\"100%\" fill=\""
      << palette::background.hex() << "\"/>\n";
    if (!options.title.empty()) {
        w << "  <text x=\"12\" y=\"20\" font-family=\"sans-serif\" "
             "font-size=\"14\" fill=\"#111\">"
          << xmlEscape(options.title) << "</text>\n";
    }

    for (std::size_t r = 0; r < chart.rows.size(); ++r) {
        const GanttRow &row = chart.rows[r];
        double y = header + double(r) * options.rowHeight;
        w << "  <text x=\"4\" y=\"" << (y + options.rowHeight * 0.7)
          << "\" font-family=\"sans-serif\" font-size=\"9\" "
             "fill=\"#333\">"
          << xmlEscape(row.label) << "</text>\n";
        for (const GanttBar &bar : row.bars) {
            double x1 = time_to_x(bar.begin);
            double x2 = time_to_x(bar.end);
            w << "  <rect x=\"" << x1 << "\" y=\"" << (y + 2)
              << "\" width=\"" << std::max(x2 - x1, 0.5) << "\" height=\""
              << (options.rowHeight - 4) << "\" fill=\"" << bar.color.hex()
              << "\" fill-opacity=\"0.9\"><title>" << xmlEscape(bar.state)
              << " [" << bar.begin << ", " << bar.end
              << ")</title></rect>\n";
        }
    }

    // Time axis.
    double axis_y = header + double(chart.rows.size()) *
                                 options.rowHeight +
                    12.0;
    w << "  <line x1=\"" << options.labelWidth << "\" y1=\"" << axis_y
      << "\" x2=\"" << (options.labelWidth + plot_w) << "\" y2=\""
      << axis_y << "\" stroke=\"#333\" stroke-width=\"1\"/>\n";
    for (int tick = 0; tick <= 4; ++tick) {
        double t = chart.window.begin + span * tick / 4.0;
        w << "  <text x=\"" << time_to_x(t) << "\" y=\"" << (axis_y + 10)
          << "\" font-family=\"sans-serif\" font-size=\"8\" "
             "text-anchor=\"middle\" fill=\"#333\">"
          << t << "</text>\n";
    }
    w << "</svg>\n";
}

support::Expected<void>
writeGanttSvgFile(const GanttChart &chart, const std::string &path,
                  const GanttSvgOptions &options)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase =
        reg.histogram("viz.gantt.write");
    static const obs::CounterId errors = reg.counter("viz.write.errors");
    obs::ScopedPhase timer(phase);

    std::ofstream out(path);
    if (!out) {
        reg.add(errors);
        return VIVA_ERROR(support::Errc::Io, "cannot open '", path,
                          "' for writing");
    }
    writeGanttSvg(chart, out, options);
    out.flush();
    if (!out || support::faultAt("viz.write.stream")) {
        reg.add(errors);
        return VIVA_ERROR(support::Errc::Io, "write failed for '", path,
                          "'");
    }
    return {};
}

} // namespace viva::viz
