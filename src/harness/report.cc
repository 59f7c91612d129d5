#include "harness/report.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <ostream>

#include "sim/logging.hh"

namespace gpump {
namespace harness {

AsciiTable::AsciiTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    GPUMP_ASSERT(!headers_.empty(), "table with no columns");
}

void
AsciiTable::addRow(std::vector<std::string> cells)
{
    GPUMP_ASSERT(cells.size() == headers_.size(),
                 "row with %zu cells in a %zu-column table",
                 cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

void
AsciiTable::addSeparator()
{
    rows_.emplace_back(); // empty row marks a separator
}

void
AsciiTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            os << cells[c];
            os << std::string(widths[c] - cells[c].size(), ' ');
        }
        os << "\n";
    };
    auto print_rule = [&] {
        std::size_t total = 0;
        for (std::size_t c = 0; c < widths.size(); ++c)
            total += widths[c] + (c == 0 ? 0 : 2);
        os << std::string(total, '-') << "\n";
    };

    print_line(headers_);
    print_rule();
    for (const auto &row : rows_) {
        if (row.empty())
            print_rule();
        else
            print_line(row);
    }
}

void
AsciiTable::printCsv(std::ostream &os) const
{
    auto print_line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << (c == 0 ? "" : ",") << cells[c];
        os << "\n";
    };
    print_line(headers_);
    for (const auto &row : rows_) {
        if (!row.empty())
            print_line(row);
    }
}

void
AsciiTable::printJsonl(std::ostream &os) const
{
    for (const auto &row : rows_) {
        if (row.empty())
            continue;
        JsonObject o;
        for (std::size_t c = 0; c < row.size(); ++c)
            o.add(headers_[c], row[c]);
        os << o.str() << "\n";
    }
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                out += sim::strformat("\\u%04x",
                                      static_cast<unsigned>(ch));
            else
                out += ch;
        }
    }
    out += '"';
    return out;
}

namespace {

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    return sim::strformat("%.17g", value);
}

} // namespace

JsonObject &
JsonObject::add(const std::string &key, const std::string &value)
{
    fields_.emplace_back(key, jsonQuote(value));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, const char *value)
{
    return add(key, std::string(value));
}

JsonObject &
JsonObject::add(const std::string &key, double value)
{
    fields_.emplace_back(key, jsonNumber(value));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, std::int64_t value)
{
    fields_.emplace_back(
        key, sim::strformat("%lld", static_cast<long long>(value)));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, const std::vector<double> &values)
{
    std::string arr = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        arr += (i ? "," : "") + jsonNumber(values[i]);
    arr += ']';
    fields_.emplace_back(key, std::move(arr));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key,
                const std::vector<std::int64_t> &values)
{
    std::string arr = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        arr += (i ? "," : "") + std::to_string(values[i]);
    arr += ']';
    fields_.emplace_back(key, std::move(arr));
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key,
                const std::vector<std::string> &values)
{
    std::string arr = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        arr += (i ? "," : "") + jsonQuote(values[i]);
    arr += ']';
    fields_.emplace_back(key, std::move(arr));
    return *this;
}

std::string
JsonObject::str() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out += (i ? "," : "") + jsonQuote(fields_[i].first) + ":" +
            fields_[i].second;
    }
    out += '}';
    return out;
}

JsonlWriter::JsonlWriter(const std::string &path)
    : path_(path)
{
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    os_.open(path, std::ios::out | std::ios::trunc);
    if (!os_)
        sim::fatal("cannot open '%s' for writing", path.c_str());
}

void
JsonlWriter::write(const JsonObject &object)
{
    // One flush per record: if the process dies between writes —
    // interrupt, crashed sweep, OOM kill — the file ends on a record
    // boundary, never on a torn line.
    os_ << object.str() << "\n" << std::flush;
    if (!os_)
        sim::fatal("write to '%s' failed (disk full?)", path_.c_str());
}

std::string
fmt(double value, int decimals)
{
    return sim::strformat("%.*f", decimals, value);
}

std::string
fmtTimes(double value, int decimals)
{
    return sim::strformat("%.*fx", decimals, value);
}

} // namespace harness
} // namespace gpump
