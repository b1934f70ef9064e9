/**
 * @file
 * Implementation of the SVG renderer.
 */

#include "viz/svg.hh"

#include <cmath>
#include <fstream>
#include <ostream>

#include "support/fault.hh"
#include "support/logging.hh"
#include "support/obs.hh"
#include "support/strings.hh"

namespace viva::viz
{

namespace obs = support::obs;

namespace
{

using support::BlockWriter;
using support::xmlEscape;

/**
 * Emit one glyph centred at (x, y) with the given size in the colour
 * `hex`. `filled` draws the solid variant (the inner proportional
 * fill), otherwise an outline.
 */
void
emitShape(BlockWriter &w, ShapeKind shape, double x, double y,
          double size, std::string_view hex, bool filled, double opacity)
{
    double h = size / 2.0;
    switch (shape) {
      case ShapeKind::Square:
        w << "  <rect x=\"" << (x - h) << "\" y=\"" << (y - h)
          << "\" width=\"" << size << "\" height=\"" << size << '"';
        break;
      case ShapeKind::Diamond:
        w << "  <polygon points=\"" << x << ',' << (y - h) << ' '
          << (x + h) << ',' << y << ' ' << x << ',' << (y + h) << ' '
          << (x - h) << ',' << y << '"';
        break;
      case ShapeKind::Circle:
        w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << h
          << '"';
        break;
    }
    if (filled)
        w << " fill=\"" << hex << "\" fill-opacity=\"" << opacity
          << "\" stroke=\"none\"/>\n";
    else
        w << " fill=\"none\" stroke=\"" << hex
          << "\" stroke-width=\"1.2\"/>\n";
}

/** Outline plus area-proportional inner fill. */
void
emitGlyph(BlockWriter &w, ShapeKind shape, double x, double y,
          double size, double fill, const Color &color)
{
    if (size <= 0.0)
        return;
    const std::string hex = color.hex();
    emitShape(w, shape, x, y, size, hex, false, 1.0);
    if (fill > 0.0) {
        double inner = size * std::sqrt(std::min(fill, 1.0));
        emitShape(w, shape, x, y, inner, hex, true, 0.85);
    }
}

/** A pie of wedges centred at (x, y); fractions sum to <= 1. */
void
emitPie(BlockWriter &w, double x, double y, double radius,
        const std::vector<SceneNode::PieSegment> &segments)
{
    if (radius <= 0.0 || segments.empty())
        return;
    constexpr double tau = 6.283185307179586;
    double angle = -tau / 4.0;  // start at 12 o'clock, go clockwise
    for (const auto &segment : segments) {
        double frac = std::clamp(segment.fraction, 0.0, 1.0);
        if (frac <= 0.0)
            continue;
        if (frac >= 0.999) {
            w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\""
              << radius << "\" fill=\"" << segment.color.hex()
              << "\" fill-opacity=\"0.9\"/>\n";
            return;
        }
        double sweep = frac * tau;
        double x1 = x + radius * std::cos(angle);
        double y1 = y + radius * std::sin(angle);
        double x2 = x + radius * std::cos(angle + sweep);
        double y2 = y + radius * std::sin(angle + sweep);
        int large = sweep > tau / 2.0 ? 1 : 0;
        w << "  <path d=\"M " << x << ' ' << y << " L " << x1 << ' ' << y1
          << " A " << radius << ' ' << radius << " 0 " << large << " 1 "
          << x2 << ' ' << y2 << " Z\" fill=\"" << segment.color.hex()
          << "\" fill-opacity=\"0.9\" stroke=\"#ffffff\" "
             "stroke-width=\"0.5\"/>\n";
        angle += sweep;
    }
    w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << radius
      << "\" fill=\"none\" stroke=\"#666\" stroke-width=\"0.8\"/>\n";
}

/** A dashed ring flagging heterogeneous aggregates. */
void
emitHeterogeneityRing(BlockWriter &w, double x, double y, double radius,
                      double heterogeneity)
{
    static const std::string accent = palette::accent.hex();
    w << "  <circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << radius
      << "\" fill=\"none\" stroke=\"" << accent
      << "\" stroke-width=\"1.2\" stroke-dasharray=\"4 3\">"
      << "<title>heterogeneity cv=" << heterogeneity
      << "</title></circle>\n";
}

} // namespace

void
writeSvg(const Scene &scene, std::ostream &out, const SvgOptions &options)
{
    static const std::string background = palette::background.hex();
    static const std::string edge = palette::edge.hex();
    BlockWriter w(out);
    w << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << scene.width << "\" height=\"" << scene.height
      << "\" viewBox=\"0 0 " << scene.width << ' ' << scene.height
      << "\">\n";
    w << "  <rect width=\"100%\" height=\"100%\" fill=\"" << background
      << "\"/>\n";

    if (!options.title.empty()) {
        w << "  <text x=\"12\" y=\"20\" font-family=\"sans-serif\" "
             "font-size=\"14\" fill=\"#333\">"
          << xmlEscape(options.title) << "</text>\n";
    }
    w << "  <text x=\"12\" y=\"" << (scene.height - 10)
      << "\" font-family=\"sans-serif\" font-size=\"11\" "
         "fill=\"#666\">time slice ["
      << scene.slice.begin << ", " << scene.slice.end << ")</text>\n";

    if (options.drawEdges) {
        for (const SceneEdge &e : scene.edges) {
            const SceneNode &a = scene.nodes[e.a];
            const SceneNode &b = scene.nodes[e.b];
            w << "  <line x1=\"" << a.x << "\" y1=\"" << a.y
              << "\" x2=\"" << b.x << "\" y2=\"" << b.y << "\" stroke=\""
              << edge << "\" stroke-width=\"" << e.widthPx
              << "\" stroke-opacity=\"0.6\"/>\n";
        }
    }

    for (const SceneNode &n : scene.nodes) {
        emitGlyph(w, n.shape, n.x, n.y, n.sizePx, n.fill, n.color);
        if (n.hasSecondary && n.secondarySizePx > 0.0) {
            // The Fig. 3 composite: the link diamond rides the upper
            // right corner of the aggregated square.
            double dx = n.sizePx / 2.0 + n.secondarySizePx / 2.0;
            emitGlyph(w, n.secondaryShape, n.x + dx, n.y,
                      n.secondarySizePx, n.secondaryFill,
                      n.secondaryColor);
        }
        if (!n.segments.empty()) {
            double radius = std::max(n.sizePx * 0.35, 4.0);
            emitPie(w, n.x, n.y, radius, n.segments);
        }
        if (n.heterogeneity > options.heterogeneityThreshold) {
            double radius = std::max(n.sizePx * 0.75, 8.0);
            emitHeterogeneityRing(w, n.x, n.y, radius, n.heterogeneity);
        }
    }

    if (options.drawLabels) {
        for (const SceneNode &n : scene.nodes) {
            if (options.labelsAggregatedOnly && !n.aggregated)
                continue;
            w << "  <text x=\"" << n.x << "\" y=\""
              << (n.y + n.sizePx / 2.0 + options.fontSize + 2)
              << "\" font-family=\"sans-serif\" font-size=\""
              << options.fontSize
              << "\" text-anchor=\"middle\" fill=\"#333\">"
              << xmlEscape(n.label) << "</text>\n";
        }
    }

    w << "</svg>\n";
}

support::Expected<void>
writeSvgFile(const Scene &scene, const std::string &path,
             const SvgOptions &options)
{
    obs::Registry &reg = obs::Registry::global();
    static const obs::HistogramId phase = reg.histogram("viz.svg.write");
    static const obs::CounterId errors = reg.counter("viz.write.errors");
    obs::ScopedPhase timer(phase);

    std::ofstream out(path);
    if (!out) {
        reg.add(errors);
        return VIVA_ERROR(support::Errc::Io, "cannot open '", path,
                          "' for writing");
    }
    writeSvg(scene, out, options);
    out.flush();
    if (!out || support::faultAt("viz.write.stream")) {
        reg.add(errors);
        return VIVA_ERROR(support::Errc::Io, "write failed for '", path,
                          "'");
    }
    return {};
}

} // namespace viva::viz
