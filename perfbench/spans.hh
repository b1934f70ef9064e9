/**
 * @file
 * In-memory span recorder for the traced benchmark run. Each span has
 * a name, a start and an end (steady-clock nanoseconds), the span that
 * was open when it started (its parent) and the gesture it belongs to.
 * Spans stay in memory until the run ends, then go to a JSON-lines
 * file; self time is a span's duration minus the time its children
 * cover.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds since an arbitrary epoch. */
std::uint64_t nowNanos();

struct Span
{
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;   ///< index into the recorder's spans, -1 for a root
    long gesture = -1; ///< gesture id, -1 outside the scripted session
};

class SpanRecorder
{
  public:
    /** Open a span under the innermost open one. @return its index */
    int open(const std::string &name, long gesture);

    /** Close the innermost open span, which must be `index`. */
    void close(int index);

    const std::vector<Span> &spans() const { return all; }

    /** Duration minus the time covered by direct children, per span. */
    std::vector<std::uint64_t> selfTimes() const;

    /** Write one JSON object per span (with its self time) per line. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> all;
    std::vector<int> stack;
};

/** RAII span; a null recorder makes it a plain stopwatch. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const std::string &name,
               long gesture);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close now (idempotent); @return the duration in nanoseconds. */
    std::uint64_t stop();

  private:
    SpanRecorder *rec;
    int index = -1;
    std::uint64_t begin;
    std::uint64_t elapsed = 0;
    bool open = true;
};

} // namespace perfbench
