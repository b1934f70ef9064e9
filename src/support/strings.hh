/**
 * @file
 * Small string utilities used by the trace reader/writer, the renderers
 * and the command interpreter.
 */

#pragma once

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace viva::support
{

/** Split on a delimiter character; empty fields are kept. */
std::vector<std::string> split(std::string_view text, char delim);

/** Split on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** The text without leading and trailing whitespace (a view into it). */
std::string_view trim(std::string_view text);

/** True if text ends with suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/**
 * Parse a double, reporting success. The grammar is strtod's, on the
 * whole field: surrounding blanks, a leading '+', hex floats (0x1p3),
 * inf and nan are accepted; a magnitude beyond the range reads as
 * +-inf or +-0.
 *
 * @param text the field to parse
 * @param out receives the value on success
 * @retval true if the entire field parsed as a number
 */
bool parseDouble(std::string_view text, double &out);

/** Parse a non-negative integer, reporting success. */
bool parseSize(std::string_view text, std::size_t &out);

/**
 * Format a double as the shortest text that parseDouble reads back to
 * the same bits (std::to_chars: 0.1, 1e-09, 1.7976931348623157e+308).
 */
std::string formatDouble(double value);

/** Render a quantity with an SI-style suffix (1.5K, 2.3M, ...). */
std::string humanize(double value);

/** Escape the five XML special characters (for SVG text/titles). */
std::string xmlEscape(std::string_view text);

/**
 * Text output through one fixed block: numbers are formatted in place
 * (doubles exactly as formatDouble does) and each full block goes to
 * the stream in one write, so emitting a value never allocates and a
 * document is never held whole. flush(), also run by the destructor,
 * hands over the rest; the stream's state reports a failed write.
 */
class BlockWriter
{
  public:
    explicit BlockWriter(std::ostream &out) : sink(out) {}
    ~BlockWriter() { flush(); }
    BlockWriter(const BlockWriter &) = delete;
    BlockWriter &operator=(const BlockWriter &) = delete;

    BlockWriter &operator<<(std::string_view text);

    BlockWriter &
    operator<<(char c)
    {
        if (used == kBlock)
            flush();
        block[used++] = c;
        return *this;
    }

    /** A number; a double in formatDouble's form. */
    template <typename T>
        requires std::is_arithmetic_v<T>
    BlockWriter &
    operator<<(T value)
    {
        if (kBlock - used < kNumberRoom)
            flush();
        char *at = block + used;
        used = std::size_t(std::to_chars(at, at + kNumberRoom, value).ptr - block);
        return *this;
    }

    /** Write everything buffered to the stream. */
    void flush();

  private:
    static constexpr std::size_t kBlock = std::size_t(1) << 16;
    /** Above the longest number: "-2.2250738585072014e-308" is 24. */
    static constexpr std::size_t kNumberRoom = 32;

    std::ostream &sink;
    std::size_t used = 0;
    char block[kBlock] = {};
};

} // namespace viva::support
