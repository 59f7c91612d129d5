/**
 * @file
 * Result reporting: aligned ASCII tables, CSV and JSON-lines
 * emission.
 *
 * Every bench prints the rows/series of its paper table or figure in
 * both human-readable and machine-readable (CSV / JSONL) form so
 * results can be compared against the published numbers and
 * replotted.  JSON-lines files conventionally live under results/.
 */

#ifndef GPUMP_HARNESS_REPORT_HH
#define GPUMP_HARNESS_REPORT_HH

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace gpump {
namespace harness {

/** Aligned-column ASCII table builder. */
class AsciiTable
{
  public:
    /** @param headers column titles. */
    explicit AsciiTable(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Render with padded columns. */
    void print(std::ostream &os) const;

    /** Render as CSV (separators omitted). */
    void printCsv(std::ostream &os) const;

    /**
     * Render as JSON lines: one object per row, keyed by the column
     * headers (separators omitted).  Cells are emitted as JSON
     * strings — they are already formatted for display.
     */
    void printJsonl(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_; ///< empty row = separator
};

/** JSON-escape and quote @p s (including the surrounding '"'). */
std::string jsonQuote(const std::string &s);

/**
 * One flat JSON object with insertion-ordered keys.
 *
 * Deliberately minimal: the harness emits records, it does not parse
 * them.  Non-finite doubles render as null.
 */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, const std::string &value);
    JsonObject &add(const std::string &key, const char *value);
    JsonObject &add(const std::string &key, double value);
    JsonObject &add(const std::string &key, std::int64_t value);
    JsonObject &add(const std::string &key,
                    const std::vector<double> &values);
    JsonObject &add(const std::string &key,
                    const std::vector<std::int64_t> &values);
    JsonObject &add(const std::string &key,
                    const std::vector<std::string> &values);

    /** Render as one-line "{...}". */
    std::string str() const;

  private:
    /** Keys paired with already-rendered JSON values. */
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Appends one JSON object per line to a file, creating parent
 * directories as needed.  The file is truncated on open.
 */
class JsonlWriter
{
  public:
    /** @param path output file; raises fatal() when unwritable. */
    explicit JsonlWriter(const std::string &path);

    void write(const JsonObject &object);

    /** The underlying stream, e.g. for AsciiTable::printJsonl. */
    std::ostream &stream() { return os_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream os_;
};

/** Format helpers for table cells. @{ */
std::string fmt(double value, int decimals = 2);
std::string fmtTimes(double value, int decimals = 2); ///< "1.53x"
/** @} */

} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_REPORT_HH
