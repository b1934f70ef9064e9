/**
 * @file
 * Implementation of string utilities.
 */

#include "support/strings.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace viva::support
{

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            return fields;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> fields;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        std::size_t start = i;
        while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i > start)
            fields.emplace_back(text.substr(start, i - start));
    }
    return fields;
}

std::string_view
trim(std::string_view text)
{
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

namespace
{

/**
 * Whether a number std::from_chars found out of range lies above the
 * largest double rather than below the smallest: its order of
 * magnitude (the leading digit's place plus the exponent) is positive.
 * Out-of-range magnitudes are beyond 1e308 or under 1e-323, so this
 * estimate cannot land on the wrong side of 1.
 */
bool
overflows(std::string_view number, bool hex)
{
    std::size_t mark = number.find_first_of(hex ? "pP" : "eE");
    std::string_view digits = number.substr(0, mark);
    long long exponent = 0;
    if (mark != std::string_view::npos) {
        std::string_view exp = number.substr(mark + 1);
        if (exp[0] == '+')
            exp.remove_prefix(1);
        if (std::from_chars(exp.data(), exp.data() + exp.size(), exponent)
                .ec == std::errc::result_out_of_range)
            return exp[0] != '-';
    }
    std::size_t point = std::min(digits.find('.'), digits.size());
    std::size_t lead = digits.find_first_not_of("0.");
    double places = lead < point ? double(point - lead)
                                 : -double(lead - point);
    return double(exponent) + (hex ? 4 : 1) * places > 0;
}

} // namespace

bool
parseDouble(std::string_view text, double &out)
{
    // from_chars parses strtod's grammar except for the sign, the "0x"
    // prefix and out-of-range values, which are handled here.
    std::string_view s = trim(text);
    bool negative = !s.empty() && s[0] == '-';
    if (!s.empty() && (s[0] == '-' || s[0] == '+'))
        s.remove_prefix(1);
    bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') &&
               (std::isxdigit(static_cast<unsigned char>(s[2])) || s[2] == '.');
    if (hex)
        s.remove_prefix(2);
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(
        s.data(), s.data() + s.size(), v,
        hex ? std::chars_format::hex : std::chars_format::general);
    if (ptr != s.data() + s.size())
        return false;
    if (ec == std::errc::result_out_of_range)
        v = overflows(s, hex) ? HUGE_VAL : 0.0;
    else if (ec != std::errc())
        return false;
    out = negative ? -v : v;
    return true;
}

bool
parseSize(std::string_view text, std::size_t &out)
{
    std::string_view s = trim(text);
    if (s.empty())
        return false;
    std::size_t v = 0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size())
        return false;
    out = v;
    return true;
}

std::string
formatDouble(double value)
{
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

std::string
humanize(double value)
{
    static const char *suffixes[] = {"", "K", "M", "G", "T", "P"};
    double v = value;
    std::size_t s = 0;
    double sign = 1.0;
    if (v < 0) {
        sign = -1.0;
        v = -v;
    }
    while (v >= 1000.0 && s + 1 < sizeof(suffixes) / sizeof(suffixes[0])) {
        v /= 1000.0;
        ++s;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g%s", sign * v, suffixes[s]);
    return buf;
}

std::string
xmlEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          case '\'': out += "&apos;"; break;
          default: out += c;
        }
    }
    return out;
}

BlockWriter &
BlockWriter::operator<<(std::string_view text)
{
    if (text.size() > kBlock - used) {
        flush();
        if (text.size() >= kBlock) {
            sink.write(text.data(), std::streamsize(text.size()));
            return *this;
        }
    }
    std::memcpy(block + used, text.data(), text.size());
    used += text.size();
    return *this;
}

void
BlockWriter::flush()
{
    if (used > 0)
        sink.write(block, std::streamsize(used));
    used = 0;
}

} // namespace viva::support
