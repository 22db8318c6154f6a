#include "json.hh"

#include <charconv>
#include <cstdio>
#include <utility>

#include "core/stats_report.hh"
#include "util/error.hh"

namespace rsr::harness
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

JsonWriter &
JsonWriter::putRaw(const std::string &key, const std::string &raw)
{
    if (!body.empty())
        body += ',';
    body += '"' + jsonEscape(key) + "\":" + raw;
    return *this;
}

JsonWriter &
JsonWriter::put(const std::string &key, const std::string &value)
{
    return putRaw(key, '"' + jsonEscape(value) + '"');
}

JsonWriter &
JsonWriter::put(const std::string &key, const char *value)
{
    return put(key, std::string(value));
}

JsonWriter &
JsonWriter::put(const std::string &key, std::uint64_t value)
{
    return putRaw(key, std::to_string(value));
}

JsonWriter &
JsonWriter::put(const std::string &key, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return putRaw(key, buf);
}

JsonWriter &
JsonWriter::putBool(const std::string &key, bool value)
{
    return putRaw(key, value ? "true" : "false");
}

JsonWriter &
JsonWriter::putMetrics(const std::vector<core::RunMetric> &metrics)
{
    for (const core::RunMetric &m : metrics)
        std::visit([&](auto value) { put(m.name, value); }, m.value);
    return *this;
}

std::string
JsonWriter::str() const
{
    return '{' + body + '}';
}

namespace
{

/** Cursor over the text being parsed. */
struct Cursor
{
    const std::string &text;
    std::size_t pos = 0;

    /** std::isspace / std::isalnum in the "C" locale, without a libc
     *  call per character: a serve client parses every reply. */
    static bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
    static bool
    isAlnum(char c)
    {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
               (c >= 'A' && c <= 'Z');
    }

    void
    skipSpace()
    {
        while (pos < text.size() && isSpace(text[pos]))
            ++pos;
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= text.size())
            rsr_throw_corrupt("unexpected end of JSON object");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            rsr_throw_corrupt("expected '", c, "' at offset ", pos,
                              " in JSON object, got '", text[pos], "'");
        ++pos;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote or escape in one append.
            std::size_t stop = pos;
            while (stop < text.size() && text[stop] != '"' &&
                   text[stop] != '\\')
                ++stop;
            if (stop >= text.size())
                rsr_throw_corrupt("unterminated JSON string");
            out.append(text, pos, stop - pos);
            pos = stop + 1;
            if (text[stop] == '"')
                return out;
            if (pos >= text.size())
                rsr_throw_corrupt("unterminated JSON escape");
            char c = text[pos++];
            switch (c) {
              case '"':
              case '\\':
              case '/':
                out += c;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    rsr_throw_corrupt("truncated \\u escape");
                unsigned v = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        v |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        v |= h - 'A' + 10;
                    else
                        rsr_throw_corrupt("bad \\u escape digit '", h,
                                          "'");
                }
                // Manifest strings are ASCII; anything else round-trips
                // as '?' rather than growing a full UTF-8 encoder.
                out += v < 0x80 ? static_cast<char>(v) : '?';
                break;
              }
              default:
                rsr_throw_corrupt("bad JSON escape '\\", c, "'");
            }
        }
    }

    std::string
    parseScalar()
    {
        skipSpace();
        const std::size_t start = pos;
        while (pos < text.size() &&
               (isAlnum(text[pos]) || text[pos] == '+' ||
                text[pos] == '-' || text[pos] == '.'))
            ++pos;
        if (pos == start)
            rsr_throw_corrupt("expected a JSON value at offset ", pos);
        return text.substr(start, pos - start);
    }
};

} // namespace

std::map<std::string, std::string>
parseJsonObject(const std::string &text)
{
    Cursor c{text};
    std::map<std::string, std::string> out;
    c.expect('{');
    if (c.peek() == '}') {
        ++c.pos;
    } else {
        while (true) {
            std::string key = c.parseString();
            c.expect(':');
            out.insert_or_assign(std::move(key), c.peek() == '"'
                                                     ? c.parseString()
                                                     : c.parseScalar());
            if (c.peek() == ',') {
                ++c.pos;
                continue;
            }
            c.expect('}');
            break;
        }
    }
    c.skipSpace();
    if (c.pos != text.size())
        rsr_throw_corrupt("trailing bytes after JSON object");
    return out;
}

std::uint64_t
jsonU64(const std::map<std::string, std::string> &obj,
        const std::string &key)
{
    const auto it = obj.find(key);
    if (it == obj.end())
        rsr_throw_corrupt("JSON record missing '", key, "'");
    const std::string &text = it->second;
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        rsr_throw_corrupt("JSON field '", key,
                          "' is not a 64-bit decimal integer: '", text,
                          "'");
    return value;
}

} // namespace rsr::harness
