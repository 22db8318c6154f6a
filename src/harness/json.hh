/**
 * @file
 * Minimal JSON support for campaign artifacts: a flat-object writer with
 * proper string escaping, and a strict parser for one-level objects of
 * strings/numbers/booleans (exactly what the manifest and per-job result
 * files contain). Malformed input throws CorruptInputError.
 */

#ifndef RSR_HARNESS_JSON_HH
#define RSR_HARNESS_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rsr::core { struct RunMetric; }

namespace rsr::harness
{

/** Escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Builds one flat JSON object, keys in insertion order. */
class JsonWriter
{
  public:
    JsonWriter &put(const std::string &key, const std::string &value);
    JsonWriter &put(const std::string &key, const char *value);
    JsonWriter &put(const std::string &key, std::uint64_t value);
    JsonWriter &put(const std::string &key, double value);
    JsonWriter &putBool(const std::string &key, bool value);
    /** Every row of a run-metrics table (core/stats_report.hh), in
     *  table order, under its table name. */
    JsonWriter &putMetrics(const std::vector<core::RunMetric> &metrics);

    /** The finished object, e.g. `{"a":1,"b":"x"}`. */
    std::string str() const;

  private:
    JsonWriter &putRaw(const std::string &key, const std::string &raw);

    std::string body;
};

/**
 * Parse a flat JSON object into key -> value text. String values are
 * unescaped; numbers/booleans/null keep their literal spelling. Nested
 * objects/arrays and trailing garbage are rejected (CorruptInputError).
 */
std::map<std::string, std::string>
parseJsonObject(const std::string &text);

} // namespace rsr::harness

#endif // RSR_HARNESS_JSON_HH
