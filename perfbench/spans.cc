/**
 * @file
 * Span recorder implementation.
 */

#include "spans.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench
{

std::uint64_t
nowNanos()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int
SpanRecorder::open(const std::string &name, long gesture)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.gesture = gesture;
    s.start = nowNanos();
    all.push_back(std::move(s));
    stack.push_back(int(all.size() - 1));
    return stack.back();
}

void
SpanRecorder::close(int index)
{
    all[std::size_t(index)].end = nowNanos();
    if (!stack.empty() && stack.back() == index)
        stack.pop_back();
}

std::vector<std::uint64_t>
SpanRecorder::selfTimes() const
{
    std::vector<std::uint64_t> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].end - all[i].start;
    // Children of one parent never overlap (they open and close on one
    // stack), so subtracting each child's duration is exact.
    for (const Span &s : all)
        if (s.parent >= 0)
            self[std::size_t(s.parent)] -= s.end - s.start;
    return self;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::vector<std::uint64_t> self = selfTimes();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << "{\"id\": " << i << ", \"name\": \"" << jsonEscape(s.name)
            << "\", \"parent\": " << s.parent
            << ", \"gesture\": " << s.gesture << ", \"start\": " << s.start
            << ", \"end\": " << s.end << ", \"self\": " << self[i]
            << "}\n";
    }
    out.flush();
    return bool(out);
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, const std::string &name,
                       long gesture)
    : rec(recorder)
{
    if (rec)
        index = rec->open(name, gesture);
    begin = nowNanos();
}

ScopedSpan::~ScopedSpan() { stop(); }

std::uint64_t
ScopedSpan::stop()
{
    if (open) {
        elapsed = nowNanos() - begin;
        if (rec)
            rec->close(index);
        open = false;
    }
    return elapsed;
}

} // namespace perfbench
